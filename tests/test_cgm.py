"""Goal-model parsing, validation, and serialization tests."""

import json

import pytest

from goalc.cgm import (
    Advisory,
    Condition,
    ContextDef,
    ContextKind,
    Decomposition,
    GoalModel,
    ModelError,
    Node,
    NodeKind,
    ParamTable,
    ParseError,
    ValidationError,
    check_sensor_guideline,
    parse_model,
    serialize,
    validate,
)

MINIMAL = json.dumps({
    "actor": "a",
    "root": "T",
    "nodes": [{"id": "T", "kind": "LeafTask", "label": "do the thing"}],
})


def leaf(nid, contexts=()):
    return Node(nid, nid, NodeKind.LEAF_TASK, contexts=tuple(contexts))


def model(root, *nodes, contexts=()):
    return GoalModel(
        "test", root, {n.id: n for n in nodes},
        {c.id: c for c in contexts},
    )


class TestParse:
    def test_minimal_leaf_model(self):
        m = parse_model(MINIMAL)
        assert m.root == "T"
        assert len(m.nodes) == 1
        assert not m.contexts
        assert m.node("T").is_executable

    def test_bundled_model(self, bsn):
        assert bsn.root == "G1"
        assert bsn.node("T1").dm_order == ("T1.1", "T1.2", "T1.3", "T1.4", "T1.X")
        assert sorted(bsn.contexts) == ["C1", "C2", "C3", "C4", "C5", "C6"]
        assert len(bsn.executable_leaves()) == 14
        assert bsn.placeholders() == ["T1.X"]
        assert validate(bsn) == []

    def test_children_order_preserved(self, bsn):
        assert bsn.node("G2").children == ("G3", "G4")

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError, match=r"line 2, column"):
            parse_model('{"actor": "a",\n  "root": }')

    def test_missing_top_level_key(self):
        with pytest.raises(ParseError, match="missing required key: 'nodes'"):
            parse_model('{"actor": "a", "root": "T"}')

    def test_non_object_document(self):
        with pytest.raises(ParseError, match="JSON object"):
            parse_model("[1, 2]")

    def test_duplicate_node_id(self):
        doc = {"actor": "a", "root": "T",
               "nodes": [{"id": "T", "kind": "LeafTask"},
                         {"id": "T", "kind": "LeafTask"}]}
        with pytest.raises(ParseError, match="duplicate node id"):
            parse_model(json.dumps(doc))

    def test_unknown_child_reference(self):
        doc = {"actor": "a", "root": "G",
               "nodes": [{"id": "G", "kind": "Goal", "decomposition": "And",
                          "children": ["nope"]}]}
        with pytest.raises(ParseError, match="unknown id reference 'nope'"):
            parse_model(json.dumps(doc))

    def test_unknown_context_reference(self):
        doc = {"actor": "a", "root": "T",
               "nodes": [{"id": "T", "kind": "LeafTask", "contexts": ["C9"]}]}
        with pytest.raises(ParseError, match="unknown context reference"):
            parse_model(json.dumps(doc))

    def test_undefined_root(self):
        doc = {"actor": "a", "root": "missing",
               "nodes": [{"id": "T", "kind": "LeafTask"}]}
        with pytest.raises(ParseError, match="root node 'missing'"):
            parse_model(json.dumps(doc))

    def test_dm_on_leaf_rejected(self):
        doc = {"actor": "a", "root": "T",
               "nodes": [{"id": "T", "kind": "LeafTask", "dm": ["T"]}]}
        with pytest.raises(ParseError, match="DM on leaf node"):
            parse_model(json.dumps(doc))

    def test_leaf_with_children_rejected(self):
        doc = {"actor": "a", "root": "T",
               "nodes": [{"id": "T", "kind": "LeafTask", "children": ["U"]},
                         {"id": "U", "kind": "LeafTask"}]}
        with pytest.raises(ParseError, match="cannot have children"):
            parse_model(json.dumps(doc))

    def test_invalid_enum_value(self):
        doc = {"actor": "a", "root": "T",
               "nodes": [{"id": "T", "kind": "Leaf"}]}
        with pytest.raises(ParseError, match="invalid NodeKind value 'Leaf'"):
            parse_model(json.dumps(doc))

    def test_childless_task_becomes_leaf(self):
        doc = {"actor": "a", "root": "T",
               "nodes": [{"id": "T", "kind": "Task"}]}
        assert parse_model(json.dumps(doc)).node("T").kind == NodeKind.LEAF_TASK

    def test_placeholder_flag(self):
        doc = {"actor": "a", "root": "G",
               "nodes": [{"id": "G", "kind": "Goal", "decomposition": "And",
                          "children": ["G.X"]},
                         {"id": "G.X", "kind": "Task", "placeholder": True}]}
        m = parse_model(json.dumps(doc))
        assert m.node("G.X").kind == NodeKind.PLACEHOLDER

    def test_malformed_condition(self):
        doc = {"actor": "a", "root": "T",
               "nodes": [{"id": "T", "kind": "LeafTask"}],
               "contexts": [{"id": "C1", "kind": "Double",
                             "condition": {"var": "x"}}]}
        with pytest.raises(ParseError, match="condition must have var/op/value"):
            parse_model(json.dumps(doc))

    def test_validation_failure_raises(self):
        doc = {"actor": "a", "root": "G",
               "nodes": [{"id": "G", "kind": "Goal", "decomposition": "And",
                          "children": ["T", "U"]},
                         {"id": "T", "kind": "LeafTask"},
                         {"id": "U", "kind": "Goal"}]}
        with pytest.raises(ValidationError) as err:
            parse_model(json.dumps(doc))
        assert any(v.rule == "childless-node" for v in err.value.violations)


class TestValidate:
    def rules(self, m):
        return [v.rule for v in validate(m)]

    def test_valid_model_is_clean(self, bsn):
        assert validate(bsn) == []

    def test_missing_decomposition(self):
        g = Node("G", "", NodeKind.GOAL, Decomposition.NONE, ("T",))
        assert "missing-decomposition" in self.rules(model("G", g, leaf("T")))

    def test_means_end_single_child(self):
        g = Node("G", "", NodeKind.GOAL, Decomposition.MEANS_END, ("T", "U"))
        m = model("G", g, leaf("T"), leaf("U"))
        assert "means-end-single-child" in self.rules(m)

    def test_dm_requires_or(self):
        c = ContextDef("C1", "")
        g = Node("G", "", NodeKind.GOAL, Decomposition.AND, ("T", "U"), ("T", "U"))
        m = model("G", g, leaf("T", ["C1"]), leaf("U", ["C1"]), contexts=[c])
        assert "dm-requires-or" in self.rules(m)

    def test_dm_list_mismatch(self):
        c = ContextDef("C1", "")
        g = Node("G", "", NodeKind.GOAL, Decomposition.OR, ("T", "U"), ("T", "T"))
        m = model("G", g, leaf("T", ["C1"]), leaf("U", ["C1"]), contexts=[c])
        assert "dm-list-mismatch" in self.rules(m)

    def test_dm_child_needs_context(self):
        c = ContextDef("C1", "")
        g = Node("G", "", NodeKind.GOAL, Decomposition.OR, ("T", "U"), ("T", "U"))
        m = model("G", g, leaf("T", ["C1"]), leaf("U"), contexts=[c])
        assert self.rules(m) == ["dm-child-needs-context"]

    def test_multiple_parents(self):
        g = Node("G", "", NodeKind.GOAL, Decomposition.AND, ("A", "B"))
        a = Node("A", "", NodeKind.TASK, Decomposition.AND, ("T",))
        b = Node("B", "", NodeKind.TASK, Decomposition.AND, ("T",))
        assert "multiple-parents" in self.rules(model("G", g, a, b, leaf("T")))

    def test_cycle(self):
        a = Node("A", "", NodeKind.GOAL, Decomposition.AND, ("B",))
        b = Node("B", "", NodeKind.GOAL, Decomposition.AND, ("A",))
        assert "cycle" in self.rules(model("A", a, b))

    def test_unreachable_node(self):
        assert "unreachable-node" in self.rules(model("T", leaf("T"), leaf("U")))

    def test_placeholder_id_convention(self):
        p = Node("P", "", NodeKind.PLACEHOLDER)
        g = Node("G", "", NodeKind.GOAL, Decomposition.AND, ("P",))
        assert "placeholder-id" in self.rules(model("G", g, p))

    def test_dangling_references(self):
        g = Node("G", "", NodeKind.GOAL, Decomposition.AND, ("T", "T", "U"), None, ("C9",))
        rules = self.rules(model("G", g, leaf("T")))
        assert {"dangling-child", "duplicate-child", "dangling-context"} <= set(rules)

    def test_context_condition_rules(self):
        cond = Condition("x", "<", 1.0)
        bad_bool = ContextDef("C1", "", ContextKind.BOOLEAN, cond)
        bad_double = ContextDef("C2", "", ContextKind.DOUBLE, None)
        m = model("T", leaf("T", ["C1", "C2"]), contexts=[bad_bool, bad_double])
        assert self.rules(m) == ["context-condition", "context-condition"]

    def test_leaf_ids_that_mangle_alike_collide(self):
        doc = {"actor": "a", "root": "G",
               "nodes": [{"id": "G", "kind": "Goal", "decomposition": "And",
                          "children": ["T.1", "T_1"]},
                         {"id": "T.1", "kind": "LeafTask"},
                         {"id": "T_1", "kind": "LeafTask"}]}
        with pytest.raises(ValidationError, match="r_T_1") as err:
            parse_model(json.dumps(doc))
        hits = [v for v in err.value.violations if v.rule == "param-name-collision"]
        assert [v.node_id for v in hits] == ["T.1", "T_1"]

    def test_placeholder_and_leaf_ids_collide(self):
        doc = {"actor": "a", "root": "G",
               "nodes": [{"id": "G", "kind": "Goal", "decomposition": "And",
                          "children": ["T.X", "T_X"]},
                         {"id": "T.X", "kind": "Task", "placeholder": True},
                         {"id": "T_X", "kind": "LeafTask"}]}
        with pytest.raises(ValidationError, match="param-name-collision"):
            parse_model(json.dumps(doc))

    def test_context_ids_that_mangle_alike_collide(self):
        doc = {"actor": "a", "root": "G",
               "nodes": [{"id": "G", "kind": "Goal", "decomposition": "And",
                          "children": ["T", "U"]},
                         {"id": "T", "kind": "LeafTask", "contexts": ["K.1"]},
                         {"id": "U", "kind": "LeafTask", "contexts": ["K_1"]}],
               "contexts": [{"id": "K.1"}, {"id": "K_1"}]}
        with pytest.raises(ValidationError, match="C_K_1") as err:
            parse_model(json.dumps(doc))
        hits = [v for v in err.value.violations if v.rule == "param-name-collision"]
        assert [v.node_id for v in hits] == ["K.1", "K_1"]

    def test_only_parameter_owners_collide(self, bsn):
        # Inner goals own no parameters, so a goal may share a leaf's mangled id.
        g = Node("G.1", "", NodeKind.GOAL, Decomposition.AND, ("G_1", "T1.1"))
        m = model("G.1", g, leaf("G_1"), leaf("T1.1"))
        assert "param-name-collision" not in self.rules(m)
        assert "param-name-collision" not in self.rules(bsn)

    def test_pure_and_ordered(self, bsn):
        g = Node("G", "", NodeKind.GOAL, Decomposition.NONE, ())
        m = model("Z", g, leaf("T"))
        first = validate(m)
        assert first == validate(m)
        assert [v.node_id for v in first] == sorted(v.node_id for v in first)


class TestCondition:
    def test_operators(self):
        env = {"hr": 90.0}
        assert Condition("hr", ">=", 85).holds(env)
        assert Condition("hr", "<", 100).holds(env)
        assert Condition("hr", "==", 90).holds(env)
        assert Condition("hr", "!=", 91).holds(env)
        assert not Condition("hr", ">", 90).holds(env)
        assert not Condition("hr", "<=", 89).holds(env)

    def test_unknown_operator(self):
        with pytest.raises(ParseError, match="unknown comparison operator"):
            Condition("hr", "~", 1)

    def test_missing_variable(self):
        with pytest.raises(ModelError, match="not provided"):
            Condition("hr", "<", 1).holds({})


class TestParamTable:
    def test_names_mangle_dots(self, bsn):
        t = ParamTable(bsn)
        assert t.reliability("T1.11").name == "r_T1_11"
        assert t.frequency("T1.11").name == "f_T1_11"
        assert t.cost_weight("T1.X").name == "w_T1_X"
        assert t.opt("T1.X").name == "OPT_T1_X"
        assert t.context("C6").name == "C_C6"

    def test_total_parameter_count(self, bsn):
        # 14 executable leaves x 3, plus 6 contexts, plus 1 OPT flag.
        params = ParamTable(bsn).all_parameters()
        assert len(params) == 14 * 3 + 6 + 1
        assert len({p.name for p in params}) == len(params)


class TestGuideline:
    def test_bundled_model_clean(self, bsn):
        assert check_sensor_guideline(bsn) == []

    def test_two_step_collection_task_flagged(self):
        c = ContextDef("C1", "")
        t = Node("T", "", NodeKind.TASK, Decomposition.AND, ("A", "B"), None, ("C1",))
        m = model("T", t, leaf("A"), leaf("B"), contexts=[c])
        advisories = check_sensor_guideline(m)
        assert [a.rule for a in advisories] == ["sensor-guideline"]
        assert advisories[0].node_id == "T"

    def test_context_free_tasks_ignored(self):
        t = Node("T", "", NodeKind.TASK, Decomposition.AND, ("A", "B"))
        assert check_sensor_guideline(model("T", t, leaf("A"), leaf("B"))) == []


class TestSerialize:
    def test_round_trip_bundled(self, bsn):
        assert parse_model(serialize(bsn)) == bsn

    def test_round_trip_minimal(self):
        m = parse_model(MINIMAL)
        assert parse_model(serialize(m)) == m

    def test_serialized_form_is_stable(self, bsn):
        assert serialize(bsn) == serialize(parse_model(serialize(bsn)))
