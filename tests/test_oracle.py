"""Enumeration-oracle tests: outcome trios, frozen cases, formula checks."""

import itertools
import math
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest

from goalc import bundled
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
from goalc.compiler import compile_model
from goalc.oracle import (
    CheckResult,
    ConcreteBinding,
    check_formula,
    cost_comparable,
    cost_reach,
    leaf_outcomes,
    param_map,
    prob_reach,
    random_binding,
    random_model,
)

H = Fraction(1, 2)


def leaf(nid, contexts=()):
    return Node(nid, nid, NodeKind.LEAF_TASK, contexts=tuple(contexts))


def model(root, *nodes, contexts=()):
    return GoalModel(
        "test", root, {n.id: n for n in nodes}, {c.id: c for c in contexts}
    )


def uniform_binding(m, r=H, f=Fraction(1), w=Fraction(1), **over):
    values = {}
    for n in m.nodes.values():
        if n.is_executable:
            s = n.id.replace(".", "_")
            values[f"r_{s}"] = r
            values[f"f_{s}"] = f
            values[f"w_{s}"] = w
    values.update(over.pop("values", {}))
    return ConcreteBinding(values, **over)


def and_of(n):
    leaves = [leaf(f"N{i}") for i in range(1, n + 1)]
    root = Node("G", "", NodeKind.GOAL, Decomposition.AND,
                tuple(x.id for x in leaves))
    return model("G", root, *leaves)


def or_of(n, dm=False, contexts=False):
    ctx = [ContextDef(f"K{i}", "") for i in range(1, n + 1)]
    leaves = [
        leaf(f"N{i}", (f"K{i}",) if (contexts or dm) else ())
        for i in range(1, n + 1)
    ]
    ids = tuple(x.id for x in leaves)
    root = Node("G", "", NodeKind.GOAL, Decomposition.OR, ids,
                ids if dm else None)
    return model("G", root, *leaves,
                 contexts=ctx if (contexts or dm) else ())


class TestLeafOutcomes:
    def test_trio_sums_to_one_exactly(self):
        m = and_of(3)
        trios = leaf_outcomes(m, "G", uniform_binding(m, r=Fraction(3, 7), f=Fraction(2, 5)))
        for t in trios:
            assert t.success + t.failure + t.skipped == 1
            assert isinstance(t.success, Fraction)

    def test_depth_first_order(self):
        m = and_of(3)
        ids = [t.leaf_id for t in leaf_outcomes(m, "G", uniform_binding(m))]
        assert ids == ["N1", "N2", "N3"]

    def test_context_gate(self):
        m = or_of(2, contexts=True)
        b = uniform_binding(m, contexts={"K1": 0, "K2": 1})
        gated, live = leaf_outcomes(m, "G", b)
        assert (gated.success, gated.skipped) == (0, 1)
        assert live.success == H

    def test_placeholder_opt_gate(self):
        p = Node("G.X", "", NodeKind.PLACEHOLDER)
        root = Node("G", "", NodeKind.GOAL, Decomposition.AND, ("G.X",))
        m = model("G", root, p)
        off = uniform_binding(m, opt_flags={"G.X": 0})
        on = uniform_binding(m, opt_flags={"G.X": 1})
        assert leaf_outcomes(m, "G", off)[0].skipped == 1
        assert leaf_outcomes(m, "G", on)[0].success == H

    def test_goal_own_contexts_excluded(self):
        ctx = ContextDef("K1", "")
        root = Node("G", "", NodeKind.GOAL, Decomposition.AND, ("T",), None, ("K1",))
        m = model("G", root, leaf("T"), contexts=[ctx])
        b = uniform_binding(m, contexts={"K1": 0})
        # The gate starts below the compile target, so K1 does not apply.
        assert leaf_outcomes(m, "G", b)[0].success == H

    def test_leaf_goal_own_contexts_gate_it(self):
        # An executable goal runs with probability c*f (times OPT for a
        # placeholder), as its compiled row C*r*f says.
        p = Node("T.X", "", NodeKind.PLACEHOLDER, contexts=("K1",))
        root = Node("G", "", NodeKind.GOAL, Decomposition.AND, ("T", "T.X"))
        m = model("G", root, leaf("T", ["K1"]), p, contexts=[ContextDef("K1", "")])
        f, w = Fraction(2, 3), Fraction(3)
        for c, opt in itertools.product((0, 1), repeat=2):
            b = uniform_binding(m, f=f, w=w, contexts={"K1": c}, opt_flags={"T.X": opt})
            for goal, gate in (("T", c), ("T.X", c * opt)):
                assert prob_reach(m, goal, b) == gate * f * H
                assert cost_reach(m, goal, b) == gate * f * H * w
                result = check_formula(m, goal, compile_model(m, goal)[goal], b)
                assert result.cost_applicable and result.ok(0.0)

    def test_missing_value_reported(self):
        m = and_of(1)
        with pytest.raises(ModelError, match="missing value for 'r_N1'"):
            leaf_outcomes(m, "G", ConcreteBinding({"f_N1": 1}))

    def test_bad_context_truth(self):
        with pytest.raises(ModelError, match="must be 0 or 1"):
            ConcreteBinding({}, contexts={"K1": 2}).context_truth("K1")

    def test_bad_opt_flag(self):
        with pytest.raises(ModelError, match="must be 0 or 1"):
            ConcreteBinding({}, opt_flags={"X": -1}).opt("X")


class TestProbReach:
    def test_single_leaf(self):
        m = and_of(1)
        assert prob_reach(m, "G", uniform_binding(m)) == H

    def test_and_multiplies(self):
        m = and_of(3)
        assert prob_reach(m, "G", uniform_binding(m)) == Fraction(1, 8)

    def test_or_complements(self):
        m = or_of(2)
        assert prob_reach(m, "G", uniform_binding(m)) == Fraction(3, 4)

    def test_collapsed_equals_full_enumeration(self):
        rng = random.Random(41)
        for _ in range(25):
            m = random_model(rng, max_leaves=4)
            b = random_binding(rng, m)
            b = ConcreteBinding(
                {k: Fraction(v).limit_denominator(16) for k, v in b.values.items()},
                b.contexts, b.opt_flags,
            )
            assert prob_reach(m, m.root, b) == _prob_reach_full(m, m.root, b)

    def test_leaf_cap(self):
        m = and_of(21)
        with pytest.raises(ModelError, match="caps at 20"):
            prob_reach(m, "G", uniform_binding(m))


def _reference_circuit(m, goal_id, leaf_index):
    """Per-vector satisfaction closure over leaf success tuples."""
    node = m.node(goal_id)
    if node.is_executable:
        i = leaf_index[node.id]
        return lambda succ: succ[i]
    children = [
        _reference_circuit(m, c, leaf_index)
        for c in (node.dm_order if node.dm_order is not None else node.children)
    ]
    if node.dm_order is not None or node.decomposition == Decomposition.OR:
        return lambda succ: any(ch(succ) for ch in children)
    return lambda succ: all(ch(succ) for ch in children)


def reference_prob_reach(m, goal_id, binding):
    """The plain per-vector enumeration: walk the circuit on each success
    vector and multiply all L factors afresh."""
    leaves = leaf_outcomes(m, goal_id, binding)
    index = {lo.leaf_id: i for i, lo in enumerate(leaves)}
    circuit = _reference_circuit(m, goal_id, index)
    one = Fraction(1) if leaves and isinstance(leaves[0].success, Fraction) else 1.0
    total = one - one
    for mask in itertools.product((False, True), repeat=len(leaves)):
        if not circuit(mask):
            continue
        p = one
        for i, lo in enumerate(leaves):
            p = p * (lo.success if mask[i] else (one - lo.success))
        total = total + p
    return total


def _prob_reach_full(m, goal_id, binding):
    """Literal three-outcome enumeration of satisfaction probability, the
    walk ``prob_reach`` collapses to 2^L success vectors."""
    leaves = leaf_outcomes(m, goal_id, binding)
    circuit = _reference_circuit(m, goal_id, {lo.leaf_id: i for i, lo in enumerate(leaves)})
    one = Fraction(1) if leaves and isinstance(leaves[0].success, Fraction) else 1.0
    total = one - one
    choices = [((True, lo.success), (False, lo.failure), (False, lo.skipped))
               for lo in leaves]
    for combo in itertools.product(*choices):
        if circuit([succ for succ, _ in combo]):
            p = one
            for _, pr in combo:
                p = p * pr
            total = total + p
    return total


def exact(binding, max_denominator=64):
    return ConcreteBinding(
        {k: Fraction(v).limit_denominator(max_denominator)
         for k, v in binding.values.items()},
        binding.contexts, binding.opt_flags,
    )


def assert_same_value(got, want):
    assert type(got) is type(want)
    assert got == want and repr(got) == repr(want)


class TestProbReachMatchesPerVectorEnumeration:
    """The truth-table oracle must return the per-vector loop's value bit for
    bit: same products, added in the same order."""

    def test_random_models_every_internal_goal(self):
        rng = random.Random(1811)
        calls = 0
        for i in range(2000):
            m = random_model(rng, max_leaves=1 + i % 14)
            floats = random_binding(rng, m)
            goals = [m.root] + [n.id for n in m.nodes.values()
                                if not n.is_executable and n.id != m.root]
            for goal in goals:
                for b in (floats, exact(floats)):
                    assert_same_value(prob_reach(m, goal, b),
                                      reference_prob_reach(m, goal, b))
                    calls += 1
        assert calls >= 4000

    @pytest.mark.parametrize("goal", ["G1", "T1"])
    def test_bundled_goals(self, goal):
        bsn = parse_model(bundled.data_text("bsn.json"))
        rng = random.Random(goal)
        for b in (random_binding(rng, bsn), exact(random_binding(rng, bsn), 8)):
            assert_same_value(prob_reach(bsn, goal, b), reference_prob_reach(bsn, goal, b))


#: At 20 leaves the oracle holds 2^20-bit tables and blocks of
#: probabilities, never a list of 2^20 of them (that alone is >= 32 MB).
PEAK_BYTES = 8_000_000


def traced(oracle_fn, m, b):
    """The oracle's value and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        value = oracle_fn(m, "G", b)
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def and_chain_of_twenty():
    m = and_of(20)
    return m, random_binding(random.Random(20), m)


def fan_out_of_gated_and_triples():
    """A 6-way decision over context-gated And-triples, branch 2's context
    false: 18 leaves."""
    branches, nodes, ctx = [], [], []
    for i in range(6):
        steps = [leaf(f"B{i}.{j}") for j in range(3)]
        branches.append(Node(f"B{i}", "", NodeKind.TASK, Decomposition.AND,
                             tuple(s.id for s in steps), None, (f"K{i}",)))
        nodes += steps
        ctx.append(ContextDef(f"K{i}", ""))
    ids = tuple(b.id for b in branches)
    root = Node("G", "", NodeKind.GOAL, Decomposition.OR, ids, ids)
    m = model("G", root, *branches, *nodes, contexts=ctx)
    b = replace(random_binding(random.Random(18), m),
                contexts={f"K{i}": int(i != 2) for i in range(6)})
    return m, b


class TestProbReachAtTheCap:
    def test_and_chain_of_twenty(self):
        m, b = and_chain_of_twenty()
        value, peak = traced(prob_reach, m, b)
        assert peak < PEAK_BYTES
        closed = math.prod(b.values[f"r_N{i}"] * b.values[f"f_N{i}"] for i in range(1, 21))
        assert value == pytest.approx(closed, rel=1e-12, abs=0)

    def test_fan_out_of_gated_and_triples(self):
        m, b = fan_out_of_gated_and_triples()
        value, peak = traced(prob_reach, m, b)
        assert peak < PEAK_BYTES
        miss = math.prod(
            1 - b.contexts[f"K{i}"] * math.prod(
                b.values[f"r_B{i}_{j}"] * b.values[f"f_B{i}_{j}"] for j in range(3))
            for i in range(6))
        assert value == pytest.approx(1 - miss, rel=1e-12, abs=0)


class TestCostReach:
    def test_single_leaf(self):
        # Runs always (f=1), succeeds half the time, weight 2: mass 2 * 1/2.
        m = and_of(1)
        b = uniform_binding(m, w=Fraction(2))
        assert cost_reach(m, "G", b) == 1

    def test_and_tree(self):
        # Only the all-success vector satisfies; all three leaves ran.
        m = and_of(3)
        assert cost_reach(m, "G", uniform_binding(m)) == Fraction(3, 8)

    def test_or_short_circuit(self):
        # (S,*): second leaf never runs, cost 1, prob 1/2.
        # (F,S): both ran, cost 2, prob 1/4.
        m = or_of(2)
        assert cost_reach(m, "G", uniform_binding(m)) == 1

    def test_leaf_cap(self):
        m = and_of(21)
        with pytest.raises(ModelError, match="caps at 20"):
            cost_reach(m, "G", uniform_binding(m))


def recursive_cost_reach(m, goal_id, binding):
    """The per-vector cost walk over all 3^L outcome vectors, kept as the
    reference for ``cost_reach``'s sum over leaves."""
    leaves = leaf_outcomes(m, goal_id, binding)
    index = {lo.leaf_id: i for i, lo in enumerate(leaves)}
    weights = [binding.values[f"w_{lo.leaf_id.replace('.', '_')}"] for lo in leaves]
    one = Fraction(1) if leaves and isinstance(leaves[0].success, Fraction) else 1.0
    zero = one - one

    def build(node_id):
        """The node's walk over an outcome vector (0 success, 1 failure,
        2 skipped): lists the leaves that ran, returns satisfaction."""
        node = m.node(node_id)
        if node.is_executable:
            i = index[node.id]

            def run(vec, ran):
                if vec[i] != 2:
                    ran.append(i)
                return vec[i] == 0
            return run
        children = [build(c) for c in
                    (node.dm_order if node.dm_order is not None else node.children)]
        if node.dm_order is not None or node.decomposition == Decomposition.OR:
            # Tried in order; ``any`` stops at the first satisfied child.
            return lambda vec, ran: any(child(vec, ran) for child in children)
        # Every child runs, satisfied or not.
        return lambda vec, ran: all([child(vec, ran) for child in children])

    walk = build(goal_id)
    # Every vector's probability, in ``itertools.product`` order, from shared
    # prefix products.
    probs = [one]
    for lo in leaves:
        probs = [p * x for p in probs for x in (lo.success, lo.failure, lo.skipped)]
    total = zero
    for vec, p in zip(itertools.product((0, 1, 2), repeat=len(leaves)), probs):
        ran = []
        if walk(vec, ran):
            total = total + p * sum((weights[i] for i in ran), zero)
    return total


class TestCostReachMatchesTheRecursiveWalk:
    """The sum over leaves equals a walk that stops at an Or's first
    satisfied child: exactly in ``Fraction``s.  In floats it adds the same
    terms grouped by leaf rather than by outcome vector, so the roundings
    differ."""

    def test_random_models_every_mode(self):
        calls = 0
        for seed in range(460):
            rng = random.Random(seed)
            m = random_model(rng, max_leaves=rng.randint(1, 10))
            floats = random_binding(rng, m, unit_frequencies=seed % 3 == 0)
            goals = [m.root] + [n.id for n in m.nodes.values()
                                if not n.is_executable and n.id != m.root][:2]
            for goal in goals:
                got, want = cost_reach(m, goal, floats), recursive_cost_reach(m, goal, floats)
                assert type(got) is float and got == pytest.approx(want, rel=1e-12, abs=0)
                rational = exact(floats)
                assert_same_value(cost_reach(m, goal, rational),
                                  recursive_cost_reach(m, goal, rational))
                calls += 2
        assert calls >= 1500


class TestCostReachAtTheCap:
    def test_and_chain_of_twenty(self):
        # Only the all-success vector satisfies, and on it every leaf ran.
        m, b = and_chain_of_twenty()
        value, peak = traced(cost_reach, m, b)
        assert peak < PEAK_BYTES
        v = b.values
        closed = sum(v[f"w_N{i}"] for i in range(1, 21)) * math.prod(
            v[f"r_N{i}"] * v[f"f_N{i}"] for i in range(1, 21))
        assert value == pytest.approx(closed, rel=1e-12, abs=0)

    def test_fan_out_of_gated_and_triples(self):
        m, b = fan_out_of_gated_and_triples()
        value, peak = traced(cost_reach, m, b)
        assert peak < PEAK_BYTES
        # Fold the branches from the last: p = P(sat), a = E[cost * 1{sat}],
        # e = E[cost].  A branch tried before the rest pays its own cost on
        # every outcome and lets the rest run only when it is unsatisfied.
        v = b.values
        p = a = e = 0.0
        for i in reversed(range(6)):
            gate = b.contexts[f"K{i}"]
            steps = [f"B{i}_{j}" for j in range(3)]
            pi = gate * math.prod(v[f"r_{s}"] * v[f"f_{s}"] for s in steps)
            ai = pi * sum(v[f"w_{s}"] for s in steps)
            ei = gate * sum(v[f"w_{s}"] * v[f"f_{s}"] for s in steps)
            p, a, e = pi + (1 - pi) * p, ai + (ei - ai) * p + (1 - pi) * a, ei + (1 - pi) * e
        assert value == pytest.approx(a, rel=1e-12, abs=0)


class TestCostReachOnTheBundledGoal:
    """G1 = And(G3, G4) with G3 = T1 and G4 = T2 under C6: 14 leaves."""

    @pytest.fixture(scope="class")
    def bsn(self):
        return parse_model(bundled.data_text("bsn.json"))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_and_of_independent_subgoals(self, bsn, seed):
        b = exact(random_binding(random.Random(seed), bsn), 8)
        b = replace(b, contexts={**b.contexts, "C6": 1})
        want = (cost_reach(bsn, "T1", b) * prob_reach(bsn, "G4", b)
                + cost_reach(bsn, "G4", b) * prob_reach(bsn, "T1", b))
        got = cost_reach(bsn, "G1", b)
        assert isinstance(got, Fraction) and got == want and got > 0

    def test_false_data_validity_context_leaves_nothing(self, bsn):
        b = random_binding(random.Random(3), bsn)
        b = replace(b, contexts={**b.contexts, "C6": 0})
        assert cost_reach(bsn, "G1", b) == 0
        assert prob_reach(bsn, "G1", b) == 0


class TestCostComparable:
    def test_and_only_any_binding(self):
        m = and_of(3)
        assert cost_comparable(m, "G", uniform_binding(m, f=Fraction(1, 3)))

    def test_and_only_with_placeholder(self):
        p = Node("P.X", "", NodeKind.PLACEHOLDER)
        root = Node("G", "", NodeKind.GOAL, Decomposition.AND, ("T", "P.X"))
        m = model("G", root, leaf("T"), p)
        assert cost_comparable(m, "G", uniform_binding(m))

    def test_binary_or_needs_unit_frequencies(self):
        m = or_of(2)
        assert cost_comparable(m, "G", uniform_binding(m))
        assert not cost_comparable(m, "G", uniform_binding(m, f=Fraction(9, 10)))

    def test_ternary_or_excluded(self):
        m = or_of(3)
        assert not cost_comparable(m, "G", uniform_binding(m))

    def test_placeholder_under_or_excluded(self):
        ctx = [ContextDef("K1", ""), ContextDef("K2", "")]
        p = Node("B.X", "", NodeKind.PLACEHOLDER, contexts=("K2",))
        root = Node("G", "", NodeKind.GOAL, Decomposition.OR, ("A", "B.X"),
                    ("A", "B.X"))
        m = model("G", root, leaf("A", ["K1"]), p, contexts=ctx)
        assert not cost_comparable(m, "G", uniform_binding(m))

    def test_nested_or_under_and_excluded(self):
        inner = Node("O", "", NodeKind.TASK, Decomposition.OR, ("N2", "N3"))
        root = Node("G", "", NodeKind.GOAL, Decomposition.AND, ("N1", "O"))
        m = model("G", root, leaf("N1"), leaf("N2"), leaf("N3"), inner)
        assert not cost_comparable(m, "G", uniform_binding(m))


class TestCheckFormula:
    def test_every_bundled_node_verifies(self, bsn):
        rng = random.Random(5)
        for goal in bsn.nodes:
            forms = compile_model(bsn, goal)[goal]
            for _ in range(20):
                result = check_formula(bsn, goal, forms, random_binding(rng, bsn))
                assert result.ok(), (goal, result)

    def test_and_tree_matches_closed_form(self):
        m = and_of(3)
        forms = compile_model(m)["G"]
        b = uniform_binding(m, r=Fraction(4, 5), f=Fraction(2, 3), w=Fraction(3, 2))
        res = check_formula(m, "G", forms, b)
        assert res.cost_applicable
        assert res.ok(tol=1e-12)

    def test_binary_decision_matches_closed_form(self):
        m = or_of(2, dm=True)
        forms = compile_model(m)["G"]
        b = uniform_binding(m, contexts={"K1": 1, "K2": 1})
        res = check_formula(m, "G", forms, b)
        assert res.cost_applicable
        assert res.ok(tol=1e-12)
        assert res.cost_formula == pytest.approx(1.0)

    def test_out_of_class_skips_cost_only(self):
        m = or_of(3)
        forms = compile_model(m)["G"]
        res = check_formula(m, "G", forms, uniform_binding(m, f=Fraction(1, 2)))
        assert not res.cost_applicable
        assert res.cost_formula is None
        assert res.reliability_delta <= 1e-12
        assert res.ok()

    def test_ok_fails_closed(self):
        nan = float("nan")
        res = CheckResult("G", 0.5, 0.5, 0.0, True, 1.0, 1.0, 0.0)
        assert res.ok(0.0)
        assert not res.ok(nan)
        assert not replace(res, reliability_delta=nan).ok()
        assert not replace(res, cost_delta=nan).ok()
        assert not replace(res, cost_delta=None).ok()
        assert replace(res, cost_applicable=False, cost_delta=nan).ok()

    def test_param_map_covers_contexts_and_opt(self):
        p = Node("B.X", "", NodeKind.PLACEHOLDER, contexts=("K1",))
        root = Node("G", "", NodeKind.GOAL, Decomposition.AND, ("B.X",))
        m = model("G", root, p, contexts=[ContextDef("K1", "")])
        b = uniform_binding(m, contexts={"K1": 1}, opt_flags={"B.X": 1})
        names = param_map(m, b)
        assert names["C_K1"] == 1
        assert names["OPT_B_X"] == 1
        assert names["r_B_X"] == H


class TestRandomHarness:
    def test_models_are_valid(self):
        rng = random.Random(2024)
        for _ in range(300):
            m = random_model(rng, max_leaves=6)
            assert validate(m) == []
            assert 1 <= len(m.leaves_under(m.root)) <= 6

    def test_same_seed_same_model(self):
        assert random_model(random.Random(9)) == random_model(random.Random(9))
        m = random_model(random.Random(9))
        b1 = random_binding(random.Random(4), m)
        b2 = random_binding(random.Random(4), m)
        assert b1 == b2

    def test_structure_features_all_appear(self):
        rng = random.Random(60)
        kinds = set()
        for _ in range(200):
            m = random_model(rng, max_leaves=6)
            for n in m.nodes.values():
                if n.dm_order is not None:
                    kinds.add("dm")
                elif n.decomposition == Decomposition.OR:
                    kinds.add("or")
                elif n.decomposition == Decomposition.AND:
                    kinds.add("and")
                elif n.decomposition == Decomposition.MEANS_END:
                    kinds.add("chain")
                if n.kind == NodeKind.PLACEHOLDER:
                    kinds.add("placeholder")
                if n.contexts:
                    kinds.add("context")
        assert kinds == {"dm", "or", "and", "chain", "placeholder", "context"}

    def test_reliability_equivalence_sample(self):
        # A slice of the full acceptance sweep, kept quick for the unit run.
        rng = random.Random(1)
        worst = 0.0
        for _ in range(60):
            m = random_model(rng, max_leaves=6)
            forms = compile_model(m)[m.root]
            for _ in range(4):
                res = check_formula(m, m.root, forms, random_binding(rng, m))
                worst = max(worst, res.reliability_delta)
                assert res.ok(tol=1e-9)
        assert worst <= 1e-9
