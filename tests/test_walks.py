"""Walks over the goal tree: their orders, a node reached twice, and a model
3,000 levels deep, past Python's default recursion limit of 1,000 frames."""

import dataclasses
import json
import math
from fractions import Fraction

import pytest

from goalc.cgm import (
    ContextDef,
    Decomposition,
    GoalModel,
    ModelError,
    Node,
    NodeKind,
    parse_model,
    validate,
)
from goalc.compiler import compile_circuits, compile_model
from goalc.oracle import (
    ConcreteBinding,
    check_formula,
    cost_comparable,
    cost_reach,
    leaf_outcomes,
    param_map,
    prob_reach,
)
from goalc.prismgen import emit_model, emit_properties, plan_emission, success_proposition
from goalc.symexpr import evaluate


def leaf(nid, contexts=()):
    return Node(nid, nid, NodeKind.LEAF_TASK, contexts=tuple(contexts))


def goal(nid, decomposition, children, dm=None):
    return Node(nid, nid, NodeKind.GOAL, decomposition, tuple(children), dm)


def model(root, *nodes, contexts=()):
    return GoalModel("test", root, {n.id: n for n in nodes},
                     {c: ContextDef(c, "") for c in contexts})


class TestOrders:
    # G is a decision over (B, A) whose children are listed (A, B).
    M = model("G",
              goal("G", Decomposition.OR, ("A", "B"), dm=("B", "A")),
              goal("A", Decomposition.AND, ("A1", "A2")),
              leaf("A1"), leaf("A2"), leaf("B", ("K",)),
              contexts=("K",))

    def test_postorder_follows_the_evaluation_order(self):
        assert self.M.postorder("G") == ("B", "A1", "A2", "A", "G")
        assert self.M.postorder("A") == ("A1", "A2", "A")

    def test_preorder_follows_the_evaluation_order(self):
        assert self.M.preorder("G") == ("G", "B", "A", "A1", "A2")

    def test_leaves_keep_children_order(self):
        assert self.M.leaves_under("G") == ("A1", "A2", "B")

    def test_a_leaf_is_its_own_subtree(self):
        assert self.M.postorder("B") == self.M.preorder("B") == ("B",)
        assert self.M.leaves_under("B") == ("B",)

    def test_unknown_node(self):
        with pytest.raises(ModelError, match="unknown node id: 'nope'"):
            self.M.postorder("nope")


def _uniform(m):
    values = {}
    for n in m.nodes.values():
        if n.is_executable:
            values.update({f"r_{n.id}": 0.5, f"f_{n.id}": 1.0, f"w_{n.id}": 1.0})
    return ConcreteBinding(values)


CYCLE = model("G", goal("G", Decomposition.AND, ("A",)),
              goal("A", Decomposition.AND, ("G", "T")), leaf("T"))
SHARED = model("G", goal("G", Decomposition.AND, ("A", "B")),
               goal("A", Decomposition.AND, ("T",)),
               goal("B", Decomposition.OR, ("T",)), leaf("T"))


class TestNodeReachedTwice:
    """A model built without ``parse_model`` may be cyclic or share a child;
    every walk names the node it reaches twice instead of recursing or
    looping for ever."""

    @pytest.mark.parametrize("m,twice", [(CYCLE, "G"), (SHARED, "T")])
    @pytest.mark.parametrize("walk", [
        lambda m: compile_model(m),
        lambda m: compile_circuits(m, [m.root]),
        lambda m: prob_reach(m, m.root, _uniform(m)),
        lambda m: cost_reach(m, m.root, _uniform(m)),
        lambda m: emit_model(m),
        lambda m: emit_properties(m),
        lambda m: m.leaves_under(m.root),
    ])
    def test_every_walk_fails_fast(self, m, twice, walk):
        with pytest.raises(ModelError, match=f"node '{twice}' is reached twice"):
            walk(m)

    def test_validation_reports_them(self):
        assert {v.rule for v in validate(CYCLE)} == {"cycle"}
        assert {v.rule for v in validate(SHARED)} == {"multiple-parents"}


def orders_model():
    """A fresh copy of ``TestOrders.M``, with no walks stored yet."""
    return dataclasses.replace(TestOrders.M)


class TestStoredOrders:
    """Each (order, node) is walked once per model object and shared."""

    def test_each_order_is_walked_once_and_only_when_asked(self, monkeypatch):
        walks = []
        walk = GoalModel._walk

        def counted(self, node_id, pushed):
            walks.append(node_id)
            return walk(self, node_id, pushed)

        monkeypatch.setattr(GoalModel, "_walk", counted)
        m = orders_model()
        first = m.postorder("G")
        assert walks == ["G"]
        for _ in range(3):
            assert m.postorder("G") == ("B", "A1", "A2", "A", "G")
            assert m.preorder("G") == ("G", "B", "A", "A1", "A2")
            assert m.leaves_under("G") == ("A1", "A2", "B")
            assert m.postorder("A") == ("A1", "A2", "A")
        assert walks == ["G", "G", "G", "A"]
        assert m.postorder("G") is first

    @pytest.mark.parametrize("walk", [GoalModel.preorder, GoalModel.postorder,
                                      GoalModel.leaves_under])
    @pytest.mark.parametrize("m,twice", [(CYCLE, "G"), (SHARED, "T")])
    def test_a_node_reached_twice_raises_on_every_call(self, m, twice, walk):
        for _ in range(2):
            with pytest.raises(ModelError, match=f"node '{twice}' is reached twice"):
                walk(m, m.root)

    def test_a_replaced_model_walks_its_new_tree(self):
        m = orders_model()
        assert m.leaves_under("G") == ("A1", "A2", "B")
        assert m.postorder("A") == ("A1", "A2", "A")
        nodes = dict(m.nodes, A=goal("A", Decomposition.OR, ("A2", "A1")))
        new = dataclasses.replace(m, nodes=nodes)
        assert new.leaves_under("G") == ("A2", "A1", "B")
        assert new.postorder("A") == ("A2", "A1", "A")
        assert new.preorder("G") == ("G", "B", "A", "A2", "A1")
        assert m.leaves_under("G") == ("A1", "A2", "B")
        assert m.postorder("A") == ("A1", "A2", "A")
        assert new == dataclasses.replace(new) and new != m


LEVELS = 3000


def deep_model():
    """A chain of single-child And goals ``G0`` .. ``G2999`` over a decision
    node ``D``.  ``G1000`` and ``G2000`` carry contexts ``K1`` and ``K2``;
    ``G1500`` also has the placeholder ``P.X``; ``D`` tries leaf ``B``
    (context ``KB``) before leaf ``A`` (context ``KA``), though its children
    list ``A`` first."""
    nodes = []
    for i in range(LEVELS):
        node = {"id": f"G{i}", "kind": "Goal", "decomposition": "And",
                "children": [f"G{i + 1}" if i + 1 < LEVELS else "D"]}
        if i == 1500:
            node["children"].append("P.X")
        if i in (1000, 2000):
            node["contexts"] = [f"K{i // 1000}"]
        nodes.append(node)
    nodes += [
        {"id": "D", "kind": "Goal", "decomposition": "Or",
         "children": ["A", "B"], "dm": ["B", "A"]},
        {"id": "A", "kind": "LeafTask", "contexts": ["KA"]},
        {"id": "B", "kind": "LeafTask", "contexts": ["KB"]},
        {"id": "P.X", "kind": "Task", "placeholder": True},
    ]
    contexts = [{"id": c} for c in ("K1", "K2", "KA", "KB")]
    return parse_model(json.dumps(
        {"actor": "a", "root": "G0", "nodes": nodes, "contexts": contexts}))


R = {"A": Fraction(3, 4), "B": Fraction(2, 3), "P.X": Fraction(4, 5)}
F = {"A": Fraction(1, 2), "B": Fraction(5, 6), "P.X": Fraction(3, 7)}
W = {"A": Fraction(2), "B": Fraction(1, 3), "P.X": Fraction(5, 4)}


def deep_binding(contexts, frequencies=F):
    values = {}
    for x in R:
        s = x.replace(".", "_")
        values.update({f"r_{s}": R[x], f"f_{s}": frequencies[x], f"w_{s}": W[x]})
    return ConcreteBinding(values, contexts, {"P.X": 1})


def closed_forms(contexts, frequencies=F):
    """(run, success) probabilities of each leaf, the goal's satisfaction
    probability and its cost mass: G0 holds iff P.X and (B or A) succeed,
    and A runs in the default mode only when B has not succeeded."""
    k = {c: contexts.get(c, 1) for c in ("K1", "K2", "KA", "KB")}
    gate = {"A": k["K1"] * k["K2"] * k["KA"], "B": k["K1"] * k["K2"] * k["KB"], "P.X": k["K1"]}
    e = {x: gate[x] * frequencies[x] for x in R}
    s = {x: e[x] * R[x] for x in R}
    either = s["B"] + s["A"] - s["B"] * s["A"]
    cost = s["P.X"] * (W["P.X"] * either
                       + W["B"] * (s["B"] + (e["B"] - s["B"]) * s["A"])
                       + W["A"] * (1 - s["B"]) * s["A"])
    return e, s, s["P.X"] * either, cost


class TestDeepModel:
    @pytest.fixture(scope="class")
    def deep(self):
        return deep_model()

    @pytest.fixture(scope="class")
    def forms(self, deep):
        return compile_model(deep)

    def test_is_valid(self, deep):
        assert validate(deep) == []
        assert len(deep.postorder("G0")) == LEVELS + 4

    @pytest.mark.parametrize("contexts", [{}, {"KA": 0}, {"KB": 0}, {"K2": 0}])
    def test_oracle_matches_closed_forms(self, deep, contexts):
        b = deep_binding(contexts)
        e, s, reach, cost = closed_forms(contexts)
        outcomes = leaf_outcomes(deep, "G0", b)
        assert [lo.leaf_id for lo in outcomes] == ["A", "B", "P.X"]
        for lo in outcomes:
            x = lo.leaf_id
            assert (lo.success, lo.failure, lo.skipped) == (s[x], e[x] - s[x], 1 - e[x])
        assert prob_reach(deep, "G0", b) == reach
        assert cost_reach(deep, "G0", b) == cost

    @pytest.mark.parametrize("contexts", [{}, {"KA": 0}, {"K1": 0}])
    def test_formulas_match_closed_forms(self, deep, forms, contexts):
        names = param_map(deep, deep_binding(contexts))
        _, _, reach, _ = closed_forms(contexts)
        got = evaluate(forms["G0"].reliability, {n: float(v) for n, v in names.items()})
        assert math.isclose(got, reach, rel_tol=1e-12, abs_tol=1e-15)

    def test_circuits_match_the_expanded_formulas(self, deep, forms):
        names = {n: float(v) for n, v in param_map(deep, deep_binding({})).items()}
        goals = ["G0", "G1500", "G2000", "D"]
        circuits = compile_circuits(deep, goals)
        for g in goals:
            for circuit, expr in zip(circuits[g], forms[g]):
                assert math.isclose(evaluate(circuit, names), evaluate(expr, names),
                                    rel_tol=1e-12, abs_tol=1e-15)

    def test_cost_comparability(self, deep, forms):
        unit = {x: Fraction(1) for x in R}
        b = deep_binding({}, unit)
        assert not cost_comparable(deep, "G0", b)  # the decision lies below it
        assert cost_comparable(deep, "D", b)
        result = check_formula(deep, "D", forms["D"], b)
        assert result.cost_applicable and result.ok()
        assert cost_reach(deep, "D", b) == W["B"] * R["B"] + (W["B"] + W["A"]) * (
            (1 - R["B"]) * R["A"])

    def test_emitted_model(self, deep):
        plan = plan_emission(deep)
        assert plan.slots == {"D": 1, "B": 2, "A": 3, "P.X": 4}
        assert plan.dm_enables == {"D": [2, 3]}
        assert plan.guard_contexts == {"B": ("K1", "K2"), "A": ("K1", "K2"), "P.X": ("K1",)}
        assert plan.context_order == ["K1", "K2", "KB", "KA"]
        text = emit_model(deep)
        assert "  [next3] s3 = 0 -> K1*K2*c3*f3 : (s3'=1) + (1 - K1*K2*c3*f3) : (s3'=3);" in text
        assert "  [next4] s4 = 0 -> K1*f4 : (s4'=1) + (1 - K1*f4) : (s4'=3);" in text

    def test_success_proposition(self, deep):
        decision = "((s2=2 | (!(KB=1) & s2=3)) | (s3=2 | (!(KA=1) & s3=3)))"
        below = f"((!(K2=1) & (s3=3 & s2=3)) | {decision})"
        middle = f"({below} & (s4=2 | s4=3))"
        phi = f"((!(K1=1) & (s3=3 & s2=3 & s4=3)) | {middle})"
        assert success_proposition(deep) == phi
        assert emit_properties(deep).splitlines()[1] == f"Pmax=? [ F ({phi}) ]"
