"""Probabilistic-model emission tests: module shapes, chaining, goldens."""

import json
import re
from pathlib import Path

import pytest

from goalc.cgm import GoalModel, parse_model
from goalc.prismgen import (
    MAX_DM_ALTERNATIVES,
    EmitError,
    emit_dm_module,
    emit_leaf_module,
    emit_model,
    emit_properties,
    plan_emission,
    success_proposition,
)

GOLDEN = Path(__file__).parent / "golden"

CTX_LEAF = json.dumps({
    "actor": "Demo",
    "root": "G",
    "contexts": [{"id": "K1", "description": "sensor available"}],
    "nodes": [
        {"id": "G", "kind": "Goal", "decomposition": "And", "children": ["N1"]},
        {"id": "N1", "kind": "Task", "label": "read the sensor", "contexts": ["K1"]},
    ],
})

DECISION_PAIR = json.dumps({
    "actor": "Demo",
    "root": "G1",
    "contexts": [
        {"id": "K1", "description": "first alternative applies"},
        {"id": "K2", "description": "second alternative applies"},
    ],
    "nodes": [
        {"id": "G1", "kind": "Goal", "decomposition": "Or",
         "children": ["N1", "N2"], "dm": ["N1", "N2"]},
        {"id": "N1", "kind": "Task", "contexts": ["K1"]},
        {"id": "N2", "kind": "Task", "contexts": ["K2"]},
    ],
})

NESTED = json.dumps({
    "actor": "Demo",
    "root": "G1",
    "contexts": [{"id": k} for k in ("K1", "K2", "K3", "K4")],
    "nodes": [
        {"id": "G1", "kind": "Goal", "decomposition": "Or",
         "children": ["A", "B"], "dm": ["A", "B"]},
        {"id": "A", "kind": "Goal", "decomposition": "Or", "contexts": ["K1"],
         "children": ["P", "Q"], "dm": ["P", "Q"]},
        {"id": "P", "kind": "Task", "contexts": ["K2"]},
        {"id": "Q", "kind": "Task", "contexts": ["K3"]},
        {"id": "B", "kind": "Task", "contexts": ["K4"]},
    ],
})


def dm_model(n_alternatives):
    ctx = [{"id": f"K{i}"} for i in range(n_alternatives)]
    kids = [f"N{i}" for i in range(n_alternatives)]
    doc = {
        "actor": "a",
        "root": "G",
        "contexts": ctx,
        "nodes": [
            {"id": "G", "kind": "Goal", "decomposition": "Or",
             "children": kids, "dm": kids},
        ] + [
            {"id": k, "kind": "Task", "contexts": [f"K{i}"]}
            for i, k in enumerate(kids)
        ],
    }
    return parse_model(json.dumps(doc))


class TestGolden:
    @pytest.mark.parametrize("name,doc", [
        ("context_leaf", CTX_LEAF),
        ("decision_pair", DECISION_PAIR),
    ])
    def test_model_text_is_frozen(self, name, doc):
        model = parse_model(doc)
        expected = (GOLDEN / f"{name}.pm").read_text(encoding="ascii")
        assert emit_model(model) == expected

    @pytest.mark.parametrize("name,doc", [
        ("context_leaf", CTX_LEAF),
        ("decision_pair", DECISION_PAIR),
    ])
    def test_property_text_is_frozen(self, name, doc):
        model = parse_model(doc)
        expected = (GOLDEN / f"{name}.pctl").read_text(encoding="ascii")
        assert emit_properties(model) == expected

    def test_emission_is_deterministic(self, bsn):
        assert emit_model(bsn) == emit_model(bsn)
        assert emit_properties(bsn) == emit_properties(bsn)

    def test_emission_is_ascii(self, bsn):
        emit_model(bsn).encode("ascii")


class TestLeafModule:
    def test_five_guarded_commands(self, bsn):
        plan = plan_emission(bsn)
        for leaf in bsn.executable_leaves():
            text = emit_leaf_module(bsn, leaf, plan)
            assert text.count("->") == 5

    def test_matches_task_skeleton(self):
        model = parse_model(CTX_LEAF)
        text = emit_leaf_module(model, "N1", plan_emission(model))
        assert re.search(r"s1 : \[0\.\.4\] init 0;", text)
        assert "[next1] s1 = 0 -> K1*f1 : (s1'=1) + (1 - K1*f1) : (s1'=3);" in text
        assert "[] s1 = 1 -> r1 : (s1'=2) + (1 - r1) : (s1'=4);" in text
        assert text.count("[next2]") == 3

    def test_decision_leaf_guard_uses_enable(self):
        model = parse_model(DECISION_PAIR)
        text = emit_leaf_module(model, "N1", plan_emission(model))
        assert "c2*f2 : (s2'=1)" in text

    def test_uncontexted_leaf_guard_is_frequency_only(self):
        doc = json.dumps({
            "actor": "a", "root": "T",
            "nodes": [{"id": "T", "kind": "LeafTask"}],
        })
        model = parse_model(doc)
        text = emit_leaf_module(model, "T", plan_emission(model))
        assert "f1 : (s1'=1) + (1 - f1) : (s1'=3);" in text

    def test_rejects_composite_node(self, bsn):
        with pytest.raises(EmitError, match="not an executable leaf"):
            emit_leaf_module(bsn, "G2", plan_emission(bsn))


class TestDecisionModule:
    def test_subset_rows(self):
        model = dm_model(3)
        text = emit_dm_module(model, "G", plan_emission(model))
        assert text.count("CTX_") == 14  # 7 resolution rows, two mentions each
        assert "[] s1 = 1 -> (s1'=9); // no alternative applies" in text
        assert "[] s1 = 2 -> (s1'=9) & (c2'=1);" in text
        assert "[] s1 = 4 -> (s1'=9) & (c2'=1) & (c3'=1);" in text
        assert "[] s1 = 8 -> (s1'=9) & (c2'=1) & (c3'=1) & (c4'=1);" in text

    def test_single_decision_node_uses_bare_names(self):
        model = parse_model(DECISION_PAIR)
        text = emit_model(model)
        assert "module NonDeterminism\n" in text
        assert "const int CTX_1;" in text
        assert "CTX_G1" not in text

    def test_nested_decision_nodes_use_suffixed_names(self):
        model = parse_model(NESTED)
        text = emit_model(model)
        assert "module NonDeterminism_G1" in text
        assert "module NonDeterminism_A" in text
        assert "const int CTX_G1_3;" in text
        assert "const int CTX_A_3;" in text

    def test_nested_enables_stay_distinct(self):
        model = parse_model(NESTED)
        plan = plan_emission(model)
        assert plan.enable_of["P"] == (2, 3)
        assert plan.enable_of["Q"] == (2, 4)
        assert plan.enable_of["B"] == (5,)
        text = emit_model(model)
        assert "c2*c3*f3 : (s3'=1)" in text
        assert "c5*f5 : (s5'=1)" in text

    def test_alternative_cap(self):
        model = dm_model(MAX_DM_ALTERNATIVES + 1)
        with pytest.raises(EmitError, match="caps at 12"):
            plan_emission(model)

    def test_rejects_plain_node(self, bsn):
        with pytest.raises(EmitError, match="no decision annotation"):
            emit_dm_module(bsn, "G2", plan_emission(bsn))


class TestChaining:
    def label_indices(self, text):
        return [int(m) for m in re.findall(r"\[next(\d+)\]", text)]

    def test_labels_cover_every_link(self, bsn):
        for goal, modules in [("G1", 15), ("T1", 14), ("G4", 1)]:
            text = emit_model(bsn, goal)
            assert text.count("endmodule") == modules
            assert set(self.label_indices(text)) == set(range(1, modules + 2))

    def test_every_module_enters_on_its_slot(self, bsn):
        plan = plan_emission(bsn)
        text = emit_model(bsn)
        for node_id, slot in plan.slots.items():
            assert f"[next{slot}] s{slot} = 0 ->" in text

    def test_slots_follow_document_order(self, bsn):
        plan = plan_emission(bsn, "T1")
        assert plan.module_order[:5] == ["T1", "T1.11", "T1.12", "T1.13", "T1.21"]
        assert plan.module_order[-1] == "T1.X"


class TestWholeModel:
    def test_context_combination_count(self, bsn):
        text = emit_model(bsn, "T1")
        consts = re.findall(r"const int CTX_(\d+);", text)
        assert len(consts) == 31  # five alternatives -> 2^5 - 1 subsets
        assert len(set(consts)) == 31

    def test_rewards_cover_every_leaf(self, bsn):
        plan = plan_emission(bsn)
        text = emit_model(bsn)
        block = text[text.index('rewards "cost"'):]
        for leaf in bsn.executable_leaves():
            x = plan.slots[leaf]
            assert f"s{x} = 1 : w{x};" in block

    def test_placeholder_flag_has_no_mdp_representation(self, bsn):
        assert "OPT" not in emit_model(bsn)

    def test_declares_model_type_and_actor(self, bsn):
        text = emit_model(bsn)
        lines = text.splitlines()
        assert lines[0] == "// Body Sensor Network: goal G1 as a parametric MDP"
        assert lines[1] == "mdp"

    def test_subtree_emission_omits_foreign_contexts(self, bsn):
        text = emit_model(bsn, "T1")
        for ctx in ("C1", "C2", "C3", "C4", "C5"):
            assert f"const int {ctx};" in text
        assert "C6" not in text

    def test_goal_own_context_not_declared(self, bsn):
        # A compile target's own contexts gate it from above, so they have
        # no business inside its own machine.
        assert "C6" not in emit_model(bsn, "G4")


class TestProperties:
    def test_bare_leaf_goal(self):
        doc = json.dumps({
            "actor": "a", "root": "T",
            "nodes": [{"id": "T", "kind": "LeafTask"}],
        })
        model = parse_model(doc)
        assert success_proposition(model) == "s1=2"
        assert "Pmax=? [ F (s1=2) ]" in emit_properties(model)

    def test_four_queries(self, bsn):
        text = emit_properties(bsn)
        for query in ("Pmax=?", "Pmin=?", 'R{"cost"}max=?', 'R{"cost"}min=?'):
            assert text.count(query) == 1

    def test_decision_alternatives_satisfy_by_context_exclusion(self):
        model = parse_model(DECISION_PAIR)
        phi = success_proposition(model)
        assert phi == "((s2=2 | (!(K1=1) & s2=3)) | (s3=2 | (!(K2=1) & s3=3)))"

    def test_placeholder_alternative_is_wrapped(self):
        # Under a decision, a skipped placeholder still needs its context off.
        doc = json.loads(DECISION_PAIR)
        doc["nodes"][-1].update(id="N2.X", placeholder=True)
        doc["nodes"][0].update(children=["N1", "N2.X"], dm=["N1", "N2.X"])
        phi = success_proposition(parse_model(json.dumps(doc)))
        assert phi == ("((s2=2 | (!(K1=1) & s2=3)) | "
                       "((s3=2 | s3=3) | (!(K2=1) & s3=3)))")

    def test_context_wrap_outside_decisions(self):
        model = parse_model(CTX_LEAF)
        assert success_proposition(model) == "((!(K1=1) & s1=3) | s1=2)"

    def test_placeholder_satisfies_when_skipped(self, bsn):
        phi = success_proposition(bsn, "T1")
        assert "(s14=2 | s14=3)" in phi

    def test_goal_own_contexts_are_ignored(self, bsn):
        phi = success_proposition(bsn, "G4")
        assert phi == "s1=2"

    def test_conjunction_over_skip_tests(self, bsn):
        phi = success_proposition(bsn)
        assert "(!(C1=1) & (s2=3 & s3=3 & s4=3))" in phi

    def test_no_subtree_is_walked_twice(self, bsn, monkeypatch):
        # Each wrapped node's skip tests come from its children's, built in
        # the one post-order pass, not from a walk of its subtree.
        calls = []
        leaves_under = GoalModel.leaves_under

        def counted(model, node_id):
            calls.append(node_id)
            return leaves_under(model, node_id)

        monkeypatch.setattr(GoalModel, "leaves_under", counted)
        for model in (bsn, parse_model(CTX_LEAF), parse_model(DECISION_PAIR)):
            emit_properties(model)
        assert calls == []
