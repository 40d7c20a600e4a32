"""Search tests: a grid search equals ranking the grid point by point.

``symexpr.search`` hoists every instruction out of the grid loops whose
variables it does not read, and ranks each point in the innermost loop.
Each value it returns must be the very float ``symexpr.evaluate`` returns on
a copy of the binding with the point's axis values written in
(:func:`point_by_point`), and the point it picks must be the one Python's
``min`` picks over those values.  ``runtime.plan`` searches its knob grid
through it, so it must choose what the point-by-point search chose, bit for
bit.
"""

import hashlib
import itertools
import json
import math
import random

import pytest

from goalc import bundled, symexpr
from goalc.cgm import Decomposition, ParamTable
from goalc.compiler import compile_circuits
from goalc.oracle import param_map, random_binding, random_model
from goalc.runtime import (
    Actuation,
    KnowledgeState,
    Knob,
    Metric,
    Policy,
    PolicyError,
    PropertyTarget,
    analyze,
    expand_assignments,
    initial_state,
    load_policy,
    plan,
)
from goalc.symexpr import CircuitBuilder, ExprError

from policy_reference import combination_satisfied, objective, satisfied
from test_circuit import error_of
from test_compiler import chain_model


def point_by_point(circuits, binding, axes):
    """Each grid point evaluated on its own copy of ``binding``."""
    out = []
    for values in itertools.product(*(list(v) for _, v in axes)):
        point = dict(binding)
        for (names, _), v in zip(axes, values):
            point.update(dict.fromkeys(names, v))
        out.append(tuple(symexpr.evaluate(c, point) for c in circuits))
    return out


def grid_points(circuits, binding, axes):
    """Each grid point's axis values beside its :func:`point_by_point` values."""
    return list(zip(itertools.product(*(list(v) for _, v in axes)),
                    point_by_point(circuits, binding, axes)))


def min_by_rank(points, rank):
    """What ``search`` returns: the ``min`` over :func:`grid_points` with the
    key ``(not first, key)``, or None for an empty grid."""
    first, key = rank
    scope = lambda v: {f"y{j}": y for j, y in enumerate(v)}  # noqa: E731
    return min(points, default=None,
               key=lambda p: (not eval(first, {}, scope(p[1])), eval(key, {}, scope(p[1]))))


def assert_search_matches(circuits, binding, axes):
    """``search`` against :func:`min_by_rank` for rankings that pick the first
    point and each circuit's lowest and highest value; returns the winners."""
    points = grid_points(circuits, binding, axes)
    ranks = [("True", "0.0")] + [("True", f"{sign}y{j}")
                                 for j in range(len(circuits)) for sign in ("", "-")]
    winners = []
    for rank in ranks:
        got = symexpr.search(circuits, binding, axes, rank)
        assert repr(got) == repr(min_by_rank(points, rank)), rank
        winners.append(got)
    return winners


def first_error(run):
    with pytest.raises(ExprError) as info:
        run()
    return str(info.value)


def random_axes(rng, names, n_axes):
    """Up to ``n_axes`` axes over ``names``; some overlap, name absent
    parameters or hold no values."""
    axes = []
    for _ in range(n_axes):
        chosen = rng.sample(names, rng.randint(1, min(3, len(names))))
        if axes and rng.random() < 0.4:
            chosen.append(rng.choice(list(axes[rng.randrange(len(axes))][0])))
        if rng.random() < 0.3:
            chosen.append(f"f_absent{rng.randint(1, 3)}")
        count = 0 if rng.random() < 0.1 else rng.randint(1, 4)
        values = [rng.choice([rng.random(), 1, 0.5]) for _ in range(count)]
        axes.append((chosen, values))
    return axes


class TestAgainstEvaluate:
    def test_random_models(self):
        seen = set()
        for seed in range(200):
            rng = random.Random(seed)
            m = random_model(rng, max_leaves=rng.randint(2, 8))
            forms = compile_circuits(m, [m.root])[m.root]
            circuits = [forms.reliability, forms.weight, forms.cost]
            binding = param_map(m, random_binding(rng, m))
            names = sorted(n for n in binding if not n.startswith(("C_", "OPT_")))
            axes = random_axes(rng, names, rng.randint(0, 3))
            winners = assert_search_matches(circuits, binding, axes)
            assert all(type(v) is float for w in winners if w for v in w[1]), seed
            flat = [n for axis_names, _ in axes for n in set(axis_names)]
            seen.add(len(axes))
            if len(flat) > len(set(flat)):
                seen.add("overlap")
            if any(n.startswith("f_absent") for n in flat):
                seen.add("absent")
            if any(not values for _, values in axes):
                assert winners == [None] * len(winners)
                seen.add("empty")
        assert seen == {0, 1, 2, 3, "overlap", "absent", "empty"}

    def test_the_later_axis_wins_a_shared_name(self):
        b = CircuitBuilder()
        r = b.param("r_a")
        f = b.param("f_a")
        c = b.circuit(b.mul(r, f))
        axes = [(["f_a"], [0.5, 0.25]), (["f_a", "r_a"], [2.0, 3.0])]
        binding = {"r_a": 7.0, "f_a": 1.0}
        assert point_by_point([c], binding, axes) == [(4.0,), (9.0,), (4.0,), (9.0,)]
        first, low, high = assert_search_matches([c], binding, axes)
        assert (first, low, high) == (((0.5, 2.0), (4.0,)),) * 2 + (((0.5, 3.0), (9.0,)),)

    def test_wide_sum(self):
        n = 3000
        b = CircuitBuilder()
        loads = [b.param(f"w_{i}") for i in range(n)]
        c = b.circuit(b.mul(b.sum(loads), loads[7]))
        rng = random.Random(5)
        binding = {f"w_{i}": rng.random() for i in range(n)}
        axes = [(["w_7", "w_2999"], [0.5, 0.75]), (["w_1500"], [rng.random()] * 3)]
        assert_search_matches([c], binding, axes)
        assert len(point_by_point([c], binding, axes)) == 6

    def test_more_axes_than_nested_loops(self):
        b = CircuitBuilder()
        loads = [b.param(f"f_{i}") for i in range(24)]
        out = loads[0]
        for w in loads[1:]:
            out = b.add(b.mul(out, w), w)
        c = b.circuit(out)
        binding = {f"f_{i}": 0.5 for i in range(24)}
        axes = [([f"f_{i}"], [0.25, 0.75] if i % 7 == 0 else [0.125]) for i in range(24)]
        assert len(point_by_point([c], binding, axes)) == 16
        assert_search_matches([c], binding, axes)


#: A ranking for tests that only need a search to run: the lowest first value.
RANK = ("True", "y0")


class TestErrors:
    def test_same_errors_as_evaluate(self):
        cases = set()
        for seed in range(100):
            rng = random.Random(seed)
            m = random_model(rng, max_leaves=rng.randint(2, 6))
            forms = compile_circuits(m, [m.root])[m.root]
            circuits = [forms.reliability, forms.cost]
            binding = param_map(m, random_binding(rng, m))
            free = sorted(n for n in binding if not n.startswith(("C_", "OPT_")))
            axes = [(rng.sample(free, 1), [0.5, 0.25])]
            swept = set(axes[0][0])
            broken = []
            partial = dict(binding)
            del partial[rng.choice(sorted(set(binding) - swept))]
            broken.append(("missing", partial))
            binary = sorted(n for n in binding if n.startswith(("C_", "OPT_")))
            if binary:
                broken.append(("binary", dict(binding, **{rng.choice(binary): 0.5})))
            for case, bad in broken:
                want = first_error(lambda: point_by_point(circuits, bad, axes))
                assert first_error(lambda: symexpr.search(circuits, bad, axes, RANK)) == want
                cases.add(case)
        assert cases == {"missing", "binary"}

    def test_binding_is_read_once_per_sweep(self):
        class CountingDict(dict):
            def __getitem__(self, name):
                reads[name] = reads.get(name, 0) + 1
                return dict.__getitem__(self, name)

        reads = {}
        b = CircuitBuilder()
        c = b.circuit(b.mul(b.mul(b.param("C_k"), b.param("r_a")), b.param("f_a")))
        binding = CountingDict({"C_k": 1, "r_a": 0.5, "f_a": 0.5})
        grid = [(["f_a"], [0.1 * i for i in range(9)])]
        best = symexpr.search([c], binding, grid, ("True", "-y0"))
        assert best == ((0.1 * 8,), (0.5 * (0.1 * 8),))  # the 9th point: every one ran
        assert reads == {"C_k": 2, "r_a": 1}  # the 0/1 check, then the load

    @pytest.mark.parametrize("name", ["C_k", "OPT_A_X", "C_odd"])
    def test_binary_axis_rejected(self, name):
        b = CircuitBuilder()
        c = b.circuit(b.mul(b.param("C_odd"), b.param("f_a")))
        with pytest.raises(ExprError, match="binary"):
            symexpr.search([c], {"C_odd": 1, "f_a": 0.5, "C_k": 1}, [([name], [0, 1])], RANK)

    def test_missing_name_text(self):
        b = CircuitBuilder()
        c = b.circuit(b.mul(b.param("r_b"), b.param("f_a")))
        assert first_error(lambda: symexpr.search([c], {}, [(["f_a"], [1.0])], RANK)) == \
            error_of(c, {"f_a": 1.0})


# -- the planner ---------------------------------------------------------------


def per_point_plan(state, policy):
    """The planner's search as one evaluation per grid point: a copy of the
    belief binding with the knob values written into every driven leaf's
    frequency, then every circuit run."""
    report = analyze(state, policy)
    current = {knob.id: state.bindings[ParamTable.frequency(knob.leaves[0]).name]
               for knob in policy.knobs}
    if report.satisfied or not policy.knobs:
        predicted = {}
        for p, value in zip(policy.properties, report.values):
            predicted.setdefault(p.metric.value.lower(), value)
        return Actuation(current, predicted, feasible=report.satisfied)
    knobs = sorted(policy.knobs, key=lambda k: k.id)
    driven = [[ParamTable.frequency(leaf).name for leaf in knob.leaves] for knob in knobs]
    beliefs = state.bindings
    exprs = [
        state.formulae[p.goal].reliability if p.metric.value == "Reliability"
        else state.formulae[p.goal].cost
        for p in policy.properties
    ]
    best_feasible = best_any = None
    for values in itertools.product(*(knob.values() for knob in knobs)):
        binding = dict(beliefs)
        for names, v in zip(driven, values):
            binding.update(dict.fromkeys(names, v))
        currents = [symexpr.evaluate(e, binding) for e in exprs]
        objective = 0.0
        for p, c in zip(policy.properties, currents):
            objective += abs(c - p.setpoint) / (abs(p.setpoint) or 1.0)
        candidate = (objective, values, currents)
        if best_any is None or objective < best_any[0]:
            best_any = candidate
        flags = [p.in_margin(c) for p, c in zip(policy.properties, currents)]
        if combination_satisfied(policy.combination, flags):
            if best_feasible is None or objective < best_feasible[0]:
                best_feasible = candidate
    _, values, currents = best_feasible or best_any
    predicted = {}
    for p, c in zip(policy.properties, currents):
        predicted.setdefault(p.metric.value.lower(), c)
    return Actuation({k.id: v for k, v in zip(knobs, values)}, predicted,
                     feasible=best_feasible is not None)


# The bundled knobs plus one that shares leaves with T1 and sorts after it.
OVERLAPPING_KNOBS = [
    {"id": "T1", "min": 0.25, "max": 1.0, "step": 0.25},
    {"id": "T1.1", "min": 0.5, "max": 1.0, "step": 0.25},
    {"id": "T2", "min": 0.8, "max": 1.0, "step": 0.05},
]


def test_overlapping_knobs_are_rejected(bsn):
    doc = json.loads(bundled.data_text("policy.json"))
    doc["knobs"] = OVERLAPPING_KNOBS
    with pytest.raises(PolicyError) as info:
        load_policy(json.dumps(doc), bsn)
    assert str(info.value) == "knobs 'T1' and 'T1.1' both drive leaf 'T1.11'"


def test_plan_matches_the_per_point_search(bsn):
    policy = load_policy(bundled.data_text("policy.json"), bsn)
    scenario = json.loads(bundled.data_text("scenario_nominal.json"))
    leaves = bsn.leaves_under(bsn.root)
    rng = random.Random(23)
    outcomes = set()
    for _ in range(24):
        state = initial_state(
            bsn, ["G1"],
            frequencies={leaf: rng.choice([0.5, 0.8, 1.0]) for leaf in leaves},
            reliability_priors={
                leaf: min(1.0, r * rng.uniform(0.9, 1.1))
                for leaf, r in scenario["estimates"]["reliability"].items()},
            cost_priors={
                leaf: w * rng.uniform(0.7, 1.3)
                for leaf, w in scenario["estimates"]["cost"].items()},
            contexts={c: int(rng.random() < 0.8) for c in bsn.contexts},
            opt_flags={p: rng.randint(0, 1) for p in bsn.placeholders()},
        )
        for _ in range(2):
            want = per_point_plan(state, policy)
            got = plan(state, policy)
            assert got.assignments == want.assignments
            assert got.feasible == want.feasible
            assert got.predicted == want.predicted
            if not analyze(state, policy).satisfied:
                outcomes.add(got.feasible)
            state.set_frequencies(expand_assignments(policy, got.assignments))
    assert outcomes == {True, False}


# -- the generated search ------------------------------------------------------


def min_key_plan(state, policy):
    """The planner as it was before its scoring was generated: the grid's
    values, point by point, ranked in Python by one streaming ``min`` over
    ``(not satisfied, objective)``."""
    report = analyze(state, policy)
    current = {knob.id: state.bindings[ParamTable.frequency(knob.leaves[0]).name]
               for knob in policy.knobs}
    if report.satisfied or not policy.knobs:
        predicted = policy.reported(report.values)
        return Actuation(current, predicted, feasible=report.satisfied)
    knobs = sorted(policy.knobs, key=lambda k: k.id)
    grids = [knob.values() for knob in knobs]
    driven = [[ParamTable.frequency(leaf).name for leaf in knob.leaves] for knob in knobs]
    points = point_by_point(policy.circuits(state.formulae), state.bindings,
                            list(zip(driven, grids)))
    values, currents = min(
        zip(itertools.product(*grids), points),
        key=lambda point: (not satisfied(policy, point[1]), objective(policy, point[1])),
    )
    return Actuation(
        assignments={knob.id: v for knob, v in zip(knobs, values)},
        predicted=policy.reported(currents),
        feasible=satisfied(policy, currents),
    )


def winning_key_count(state, policy):
    """How many grid points share the winner's ``(not satisfied, objective)``."""
    knobs = sorted(policy.knobs, key=lambda k: k.id)
    axes = [([ParamTable.frequency(leaf).name for leaf in knob.leaves], knob.values())
            for knob in knobs]
    keys = [(not satisfied(policy, v), objective(policy, v))
            for v in point_by_point(policy.circuits(state.formulae), state.bindings, axes)]
    return keys.count(min(keys))


def assert_same_plan(state, policy):
    want = min_key_plan(state, policy)
    got = plan(state, policy)
    assert got.assignments == want.assignments
    assert got.predicted == want.predicted
    assert got.feasible is want.feasible
    return got


def random_combination(rng, n, depth=0):
    """A combination over ``n`` properties: a string, an index or a clause."""
    roll = rng.random()
    if depth == 0 and roll < 0.3:
        return rng.choice(["and", "or", "AND"])
    if depth > 2 or depth > 0 and roll < 0.5:
        return rng.randrange(n)
    op = rng.choice(["and", "or"])
    return [op] + [random_combination(rng, n, depth + 1) for _ in range(rng.randint(1, 3))]


def random_plan_case(rng):
    """A random model's belief state with a random policy and knob grid.

    Setpoints sit near the values at the current beliefs, so plans are
    feasible, infeasible or already satisfied; some are 0 (scale 1.0),
    and a knob over leaves no property reads makes whole grid lines tie.
    """
    m = random_model(rng, max_leaves=rng.randint(2, 7))
    goals = sorted(n.id for n in m.nodes.values() if not n.is_executable) or [m.root]
    formulae = compile_circuits(m, goals)
    bindings = param_map(m, random_binding(rng, m))
    state = KnowledgeState(formulae, bindings, {}, {})
    properties = []
    for _ in range(rng.randint(1, 3)):
        metric = rng.choice(list(Metric))
        goal = rng.choice(goals)
        forms = formulae[goal]
        value = symexpr.evaluate(
            forms.reliability if metric is Metric.RELIABILITY else forms.cost, bindings)
        if rng.random() < 0.15:
            setpoint = 0.0
        else:
            setpoint = max(0.0, value * rng.uniform(0.7, 1.3) + rng.uniform(-0.05, 0.05))
            if metric is Metric.RELIABILITY:
                setpoint = min(1.0, setpoint)
        properties.append(PropertyTarget(metric, goal, setpoint, rng.choice([0.01, 0.1, 0.3])))
    leaves = [n.id for n in m.nodes.values() if n.is_executable]
    rng.shuffle(leaves)
    knobs = []
    while leaves and len(knobs) < 3:
        group, leaves = leaves[:rng.randint(1, 2)], leaves[2:]
        step = rng.choice([0.1, 0.25, 0.5])
        lo = rng.choice([0.0, 0.1, 0.5])
        knobs.append(Knob(f"k{rng.randrange(100)}{len(knobs)}", tuple(group), lo, 1.0, step))
    combination = random_combination(rng, len(properties))
    return state, Policy(tuple(properties), tuple(knobs), combination)


class TestGeneratedSearch:
    def test_random_models_and_policies(self):
        seen = set()
        for seed in range(300):
            rng = random.Random(seed)
            state, policy = random_plan_case(rng)
            got = assert_same_plan(state, policy)
            comb = policy.combination
            seen.add(comb.lower() if isinstance(comb, str) else "nested")
            if isinstance(comb, list) and any(isinstance(c, int) for c in comb[1:]):
                seen.add("index")
            if any(p.setpoint == 0.0 for p in policy.properties):
                seen.add("setpoint 0")
            if not analyze(state, policy).satisfied:
                seen.add("feasible" if got.feasible else "infeasible")
                if winning_key_count(state, policy) > 1:
                    seen.add("tie")
        assert seen == {"and", "or", "nested", "index", "setpoint 0",
                        "feasible", "infeasible", "tie"}

    def test_ties_go_to_the_first_point(self, bsn):
        """A knob no property reads makes every line of the grid tie."""
        doc = json.loads(bundled.data_text("policy.json"))
        doc["knobs"].append({"id": "A0", "leaves": ["T1.X"], "min": 0.0, "max": 1.0,
                             "step": 0.25})
        policy = load_policy(json.dumps(doc), bsn)
        state = nominal_belief(bsn)
        assert not analyze(state, policy).satisfied
        assert winning_key_count(state, policy) == 5
        assert assert_same_plan(state, policy).assignments["A0"] == 0.0

    def test_all_infeasible_grid(self, bsn):
        doc = json.loads(bundled.data_text("policy.json"))
        doc["properties"][0].update(setpoint=1.0, margin=1e-6)
        policy = load_policy(json.dumps(doc), bsn)
        state = nominal_belief(bsn)
        axes = [([ParamTable.frequency(leaf).name for leaf in knob.leaves], knob.values())
                for knob in sorted(policy.knobs, key=lambda k: k.id)]
        values = point_by_point(policy.circuits(state.formulae), state.bindings, axes)
        assert not any(policy.satisfied(v) for v in values)
        assert assert_same_plan(state, policy).feasible is False

    def test_more_knobs_than_nested_loops(self):
        """Knobs past ``_MAX_LOOPS`` run through ``product`` in the innermost loop."""
        n = symexpr._MAX_LOOPS + 4
        m = chain_model(n, Decomposition.AND)
        rng = random.Random(3)
        bindings = param_map(m, random_binding(rng, m))
        state = KnowledgeState(compile_circuits(m, ["G"]), bindings, {}, {})
        wide = {0, 5, n - 3, n - 1}  # two of them past the nested loops
        knobs = tuple(Knob(f"k{i:02d}", (f"N{i + 1}",), 0.5 if i in wide else 1.0, 1.0, 0.25)
                      for i in range(n))
        axes = [([f"f_N{i + 1}"], knob.values()) for i, knob in enumerate(knobs)]
        costs = sorted(c for c, in point_by_point([state.formulae["G"].cost], bindings, axes))
        assert len(costs) == 3 ** len(wide)
        outcomes = set()
        for setpoint in (costs[5], costs[-1] * 3):
            policy = Policy((PropertyTarget(Metric.COST, "G", setpoint, 1e-9),), knobs)
            assert not analyze(state, policy).satisfied
            outcomes.add(assert_same_plan(state, policy).feasible)
        assert outcomes == {True, False}


def test_search_is_min_over_the_sweep():
    """``search`` picks what ``min`` picks over the point-by-point values
    with the key ``(not first, key)``: NaN and infinite keys, ties, and a
    first point that nothing beats included."""
    b = CircuitBuilder()
    x, y = b.param("r_x"), b.param("r_y")
    circuits = [b.circuit(x), b.circuit(y), b.circuit(b.mul(x, y))]
    pool = [math.nan, math.inf, 2.0, 1.0, 0.5, 0.5, 0.0, -0.0]
    ranks = [(first, key)
             for first in ("y0 <= 1.0", "y1 > 0.6", "True", "False", "y2 == y2")
             for key in ("y0", "y1 - y0", "abs(y2 - 0.25)", "0.0")]
    rng = random.Random(8)
    for _ in range(400):
        axes = [([name], [rng.choice(pool) for _ in range(rng.randint(1, 4))])
                for name in rng.sample(["r_x", "r_y"], rng.randint(1, 2))]
        rank = rng.choice(ranks)
        want = min_by_rank(grid_points(circuits, {"r_x": 0.75, "r_y": 0.25}, axes), rank)
        got = symexpr.search(circuits, {"r_x": 0.75, "r_y": 0.25}, axes, rank)
        assert repr(got) == repr(want), (axes, rank)
    assert symexpr.search(circuits, {"r_y": 1.0}, [(["r_x"], [])], ranks[0]) is None


class TestGeneratedSource:
    """The emitter's output for the bundled model, byte for byte."""

    # sha256 of each source ``_compile_program`` compiles, in order: G1's
    # reliability and cost evaluate programs, then the bundled policy's search.
    DIGESTS = [
        "ae6206af6f95e2d30064441e1c99d7b9cac6ec9d382dc8e5ad00dff8808e2b19",
        "d949a73d7267b5111f61be67de7b695a86068ede108c89ce25b2377a2e80398c",
        "882a855823ca2351af8c4d7d176757c051260d6cb9bc79019b17da4b2c305e60",
    ]

    def test_bundled_sources_are_pinned(self, bsn, monkeypatch):
        sources = []

        def capture(source, filename, mode):
            sources.append(source)
            return compile(source, filename, mode)

        symexpr._compile_program.cache_clear()
        monkeypatch.setattr(symexpr, "compile", capture, raising=False)
        state = nominal_belief(bsn)
        forms = state.formulae["G1"]
        for circuit in (forms.reliability, forms.cost):
            symexpr.evaluate(circuit, state.bindings)
        policy = load_policy(bundled.data_text("policy.json"), bsn)
        assert not analyze(state, policy).satisfied
        plan(state, policy)
        digests = [hashlib.sha256(s.encode()).hexdigest() for s in sources]
        assert digests == self.DIGESTS


def nominal_belief(model):
    scenario = json.loads(bundled.data_text("scenario_nominal.json"))
    return initial_state(
        model, ["G1"],
        frequencies=dict.fromkeys(model.leaves_under(model.root), 0.5),
        reliability_priors=scenario["estimates"]["reliability"],
        cost_priors=scenario["estimates"]["cost"],
        contexts=dict.fromkeys(model.contexts, 1),
    )


def boundary_values(setpoint, margin):
    """Values around both margin edges, a few ulps either side."""
    tolerance = margin * setpoint
    out = [setpoint, 0.0, -setpoint, 2 * setpoint + 1.0, math.nan, math.inf]
    for edge in (setpoint - tolerance, setpoint + tolerance):
        v = edge
        for _ in range(4):
            v = math.nextafter(v, -math.inf)
        for _ in range(9):
            out.append(v)
            v = math.nextafter(v, math.inf)
    return out


def test_rank_agrees_with_satisfied_and_objective_at_margin_edges():
    """The generated ranking, and :meth:`Policy.satisfied` that runs it, are
    the interpreted reference's satisfaction and objective, bit for bit, where
    the margin test flips."""
    edges = set()
    cases = [(0.9, 0.02), (0.47, 0.02), (0.5, 0.25), (1.0, 1e-3), (0.3, 0.1), (0.0, 0.02),
             (1e-300, 0.5), (0.1, 3.0)]
    for combination in ("and", "or", ["or", 1, ["and", 0, 2]], ["and", 2]):
        for (s0, m0), (s1, m1), (s2, m2) in itertools.product(cases[:4], cases[4:], cases[::3]):
            policy = Policy((PropertyTarget(Metric.RELIABILITY, "G", s0, m0),
                             PropertyTarget(Metric.COST, "G", s1, m1),
                             PropertyTarget(Metric.COST, "H", s2, m2)), (), combination)
            first, key = (compile(src, "<rank>", "eval") for src in policy.rank)
            rng = random.Random(f"{combination}{s0}{s1}{s2}")
            columns = [boundary_values(s0, m0), boundary_values(s1, m1), boundary_values(s2, m2)]
            for _ in range(60):
                values = [rng.choice(column) for column in columns]
                y = {f"y{i}": v for i, v in enumerate(values)}
                want = satisfied(policy, values)
                assert eval(first, {}, y) is want, values
                assert policy.satisfied(values) is want, values
                want = objective(policy, values)
                got = eval(key, {}, y)
                assert got == want or (math.isnan(got) and math.isnan(want)), values
                for prop, v in zip(policy.properties, values):
                    if abs(v - prop.setpoint) == prop.margin * prop.setpoint:
                        edges.add("on the edge")
                    elif abs(v - prop.setpoint) == math.nextafter(
                            prop.margin * prop.setpoint, math.inf):
                        edges.add("one ulp out")
    assert edges == {"on the edge", "one ulp out"}


def test_rank_source_holds_only_float_literals():
    policy = Policy((PropertyTarget(Metric.RELIABILITY, "x'); import os; ('", 1, 1),),
                    (), ["or", 0])
    first, key = policy.rank
    assert first == "(abs(y0 - 1.0) <= 1.0)"
    assert key == "0.0 + abs(y0 - 1.0) / 1.0"
