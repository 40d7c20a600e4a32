"""Sweep tests: a grid of circuit evaluations equals evaluating point by point.

``symexpr.sweep`` hoists every instruction out of the grid loops whose
variables it does not read.  Each of its values must be the very float
``symexpr.evaluate`` returns on a copy of the binding with the point's axis
values written in, and ``runtime.plan``, which searches its knob grid
through ``sweep``, must choose what the point-by-point search chose.
"""

import itertools
import json
import random

import pytest

from goalc import bundled, symexpr
from goalc.cgm import ParamTable
from goalc.compiler import compile_circuits
from goalc.oracle import param_map, random_binding, random_model
from goalc.runtime import (
    Actuation,
    PolicyError,
    analyze,
    combination_satisfied,
    expand_assignments,
    initial_state,
    load_policy,
    plan,
)
from goalc.symexpr import CircuitBuilder, ExprError, Parameter, ParamKind

from test_circuit import error_of


def point_by_point(circuits, binding, axes):
    """Each grid point evaluated on its own copy of ``binding``."""
    out = []
    for values in itertools.product(*(list(v) for _, v in axes)):
        point = dict(binding)
        for (names, _), v in zip(axes, values):
            point.update(dict.fromkeys(names, v))
        out.append(tuple(symexpr.evaluate(c, point) for c in circuits))
    return out


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
            got = list(symexpr.sweep(circuits, binding, axes))
            assert got == point_by_point(circuits, binding, axes), seed
            assert all(type(v) is float for point in got for v in point)
            flat = [n for axis_names, _ in axes for n in set(axis_names)]
            seen.add(len(axes))
            if len(flat) > len(set(flat)):
                seen.add("overlap")
            if any(n.startswith("f_absent") for n in flat):
                seen.add("absent")
            if any(not values for _, values in axes):
                assert got == []
                seen.add("empty")
        assert seen == {0, 1, 2, 3, "overlap", "absent", "empty"}

    def test_the_later_axis_wins_a_shared_name(self):
        b = CircuitBuilder()
        r = b.param(Parameter("r_a", ParamKind.RELIABILITY))
        f = b.param(Parameter("f_a", ParamKind.FREQUENCY))
        c = b.circuit(r * f)
        axes = [(["f_a"], [0.5, 0.25]), (["f_a", "r_a"], [2.0, 3.0])]
        got = list(symexpr.sweep([c], {"r_a": 7.0, "f_a": 1.0}, axes))
        assert got == [(4.0,), (9.0,), (4.0,), (9.0,)]

    def test_wide_sum(self):
        n = 3000
        b = CircuitBuilder()
        loads = [b.param(Parameter(f"w_{i}", ParamKind.COST)) for i in range(n)]
        c = b.circuit(b.sum(loads) * loads[7])
        rng = random.Random(5)
        binding = {f"w_{i}": rng.random() for i in range(n)}
        axes = [(["w_7", "w_2999"], [0.5, 0.75]), (["w_1500"], [rng.random()] * 3)]
        got = list(symexpr.sweep([c], binding, axes))
        assert got == point_by_point([c], binding, axes)
        assert len(got) == 6

    def test_more_axes_than_nested_loops(self):
        b = CircuitBuilder()
        loads = [b.param(Parameter(f"f_{i}", ParamKind.FREQUENCY)) for i in range(24)]
        out = loads[0]
        for w in loads[1:]:
            out = out * w + w
        c = b.circuit(out)
        binding = {f"f_{i}": 0.5 for i in range(24)}
        axes = [([f"f_{i}"], [0.25, 0.75] if i % 7 == 0 else [0.125]) for i in range(24)]
        got = list(symexpr.sweep([c], binding, axes))
        assert len(got) == 16
        assert got == point_by_point([c], binding, axes)


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
                assert first_error(lambda: symexpr.sweep(circuits, bad, axes)) == want
                cases.add(case)
        assert cases == {"missing", "binary"}

    def test_binding_is_read_once_per_sweep(self):
        class CountingDict(dict):
            def __getitem__(self, name):
                reads[name] = reads.get(name, 0) + 1
                return dict.__getitem__(self, name)

        reads = {}
        b = CircuitBuilder()
        c = b.circuit(b.param(Parameter("C_k", ParamKind.CONTEXT))
                      * b.param(Parameter("r_a", ParamKind.RELIABILITY))
                      * b.param(Parameter("f_a", ParamKind.FREQUENCY)))
        binding = CountingDict({"C_k": 1, "r_a": 0.5, "f_a": 0.5})
        points = list(symexpr.sweep([c], binding, [(["f_a"], [0.1 * i for i in range(9)])]))
        assert len(points) == 9
        assert reads == {"C_k": 2, "r_a": 1}  # the 0/1 check, then the load

    @pytest.mark.parametrize("name", ["C_k", "OPT_A_X", "odd"])
    def test_binary_axis_rejected(self, name):
        b = CircuitBuilder()
        c = b.circuit(b.param(Parameter("odd", ParamKind.CONTEXT))
                      * b.param(Parameter("f_a", ParamKind.FREQUENCY)))
        with pytest.raises(ExprError, match="binary"):
            symexpr.sweep([c], {"odd": 1, "f_a": 0.5, "C_k": 1}, [([name], [0, 1])])

    def test_missing_name_text(self):
        b = CircuitBuilder()
        c = b.circuit(b.param(Parameter("r_b", ParamKind.RELIABILITY))
                      * b.param(Parameter("f_a", ParamKind.FREQUENCY)))
        assert first_error(lambda: symexpr.sweep([c], {}, [(["f_a"], [1.0])])) == \
            error_of(c, {"f_a": 1.0})


# -- the planner ---------------------------------------------------------------


def per_point_plan(state, policy):
    """The planner's search as one evaluation per grid point: a copy of the
    belief binding with the knob values written into every driven leaf's
    frequency, then every circuit run."""
    report = analyze(state, policy)
    current = {knob.id: state.frequency[knob.leaves[0]] for knob in policy.knobs}
    if report.satisfied or not policy.knobs:
        predicted = {}
        for reading in report.readings:
            predicted.setdefault(reading.metric.value.lower(), reading.current)
        return Actuation(current, predicted, feasible=report.satisfied)
    knobs = sorted(policy.knobs, key=lambda k: k.id)
    driven = [[ParamTable.frequency(leaf).name for leaf in knob.leaves] for knob in knobs]
    beliefs = state.param_bindings()
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
    leaves = bsn.executable_leaves()
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
            state = state.with_frequencies(expand_assignments(policy, got.assignments))
    assert outcomes == {True, False}
