"""Controller tests: knowledge windows, margin analysis, grid planning."""

import json

import pytest

from goalc import bundled, symexpr
from goalc.cgm import ModelError, parse_model
from goalc.compiler import compile_model
from goalc.runtime import (
    Actuation,
    Knob,
    Metric,
    PlanError,
    Policy,
    PolicyError,
    PropertyTarget,
    StateError,
    analyze,
    combination_satisfied,
    execute,
    expand_assignments,
    initial_state,
    load_policy,
    monitor_ingest,
    plan,
)

SINGLE = json.dumps({
    "actor": "a",
    "root": "T",
    "nodes": [{"id": "T", "kind": "LeafTask"}],
})

PAIR = json.dumps({
    "actor": "a",
    "root": "G",
    "nodes": [
        {"id": "G", "kind": "Goal", "decomposition": "And", "children": ["A", "B"]},
        {"id": "A", "kind": "Task"},
        {"id": "B", "kind": "Task"},
    ],
})


def single_state(r=0.9, f=1.0, w=1.0, **kwargs):
    model = parse_model(SINGLE)
    return model, initial_state(
        model, compile_model(model),
        frequencies={"T": f},
        reliability_priors={"T": r},
        cost_priors={"T": w},
        contexts={},
        **kwargs,
    )


def reliability_policy(setpoint, margin=0.02, knobs=(), combination="and"):
    return Policy(
        properties=(PropertyTarget(Metric.RELIABILITY, "T", setpoint, margin),),
        knobs=tuple(knobs),
        combination=combination,
    )


class TestPolicy:
    def test_load_expands_knob_groups(self, bsn):
        doc = {
            "properties": [
                {"metric": "Reliability", "goal": "G1", "setpoint": 0.9, "margin": 0.02},
                {"metric": "Cost", "goal": "G1", "setpoint": 0.47, "margin": 0.02},
            ],
            "knobs": [
                {"id": "T1.1", "min": 0.1, "max": 1.0, "step": 0.1},
                {"id": "T2", "min": 0.5, "max": 1.0, "step": 0.25, "leaves": ["T2"]},
            ],
        }
        policy = load_policy(json.dumps(doc), bsn)
        assert policy.knobs[0].leaves == ("T1.11", "T1.12", "T1.13")
        assert policy.knobs[1].leaves == ("T2",)
        assert policy.combination == "and"

    def test_margin_must_be_positive(self):
        with pytest.raises(PolicyError, match="margin"):
            PropertyTarget(Metric.COST, "G", 0.5, 0.0)

    @pytest.mark.parametrize("key,value", [
        ("setpoint", float("nan")), ("setpoint", float("inf")),
        ("setpoint", float("-inf")), ("margin", float("inf")),
    ])
    def test_setpoint_and_margin_must_be_finite(self, bsn, key, value):
        doc = json.loads(bundled.data_text("policy.json"))
        doc["properties"][0][key] = value
        with pytest.raises(PolicyError, match=f"{key} must be finite"):
            load_policy(json.dumps(doc), bsn)

    def test_unknown_metric(self, bsn):
        doc = {"properties": [
            {"metric": "Latency", "goal": "G1", "setpoint": 1, "margin": 0.1},
        ]}
        with pytest.raises(PolicyError, match="metric"):
            load_policy(json.dumps(doc), bsn)

    def test_unknown_goal(self, bsn):
        doc = {"properties": [
            {"metric": "Cost", "goal": "G99", "setpoint": 1, "margin": 0.1},
        ]}
        with pytest.raises(ModelError, match="G99"):
            load_policy(json.dumps(doc), bsn)

    def test_knob_domain_invariants(self):
        with pytest.raises(PolicyError, match="min exceeds max"):
            Knob("k", ("T",), 1.0, 0.5, 0.1)
        with pytest.raises(PolicyError, match="step"):
            Knob("k", ("T",), 0.0, 1.0, 0.0)

    @pytest.mark.parametrize("lo,hi", [(1.2, 1.5), (-0.1, 0.5), (0.5, 1.01),
                                       (float("nan"), 1.0)])
    def test_knob_range_must_be_frequencies(self, bsn, lo, hi):
        with pytest.raises(PolicyError, match=r"not within \[0, 1\]"):
            Knob("k", ("T",), lo, hi, 0.1)
        doc = json.loads(bundled.data_text("policy.json"))
        doc["knobs"][1].update({"min": lo, "max": hi})
        with pytest.raises(PolicyError, match="knob 'T2'"):
            load_policy(json.dumps(doc), bsn)

    def test_knob_grid_is_inclusive_and_float_safe(self):
        knob = Knob("k", ("T",), 0.1, 0.3, 0.1)
        assert knob.values() == [0.1, 0.2, 0.3]
        assert len(Knob("k", ("T",), 0.05, 1.0, 0.05).values()) == 20

    def test_combination_validation(self):
        props = (PropertyTarget(Metric.COST, "G", 1.0, 0.1),)
        with pytest.raises(PolicyError, match="references property"):
            Policy(props, (), combination=["and", 0, 1])
        with pytest.raises(PolicyError, match="malformed"):
            Policy(props, (), combination={"op": "and"})

    def test_combination_evaluation(self):
        assert combination_satisfied("and", [True, True])
        assert not combination_satisfied("and", [True, False])
        assert combination_satisfied("or", [True, False])
        assert combination_satisfied(["or", ["and", 0, 1], 2], [False, True, True])
        assert not combination_satisfied(["or", ["and", 0, 1], 2], [False, True, False])


class TestKnowledge:
    def test_unresolved_parameter_rejected(self):
        model = parse_model(PAIR)
        with pytest.raises(ValueError, match="unresolved formula parameters"):
            initial_state(
                model, compile_model(model),
                frequencies={"A": 1.0},
                reliability_priors={"A": 0.9},
                cost_priors={"A": 1.0},
                contexts={},
            )

    def test_range_validation(self):
        with pytest.raises(ValueError, match="outside"):
            single_state(r=1.2)
        with pytest.raises(ValueError, match="negative"):
            single_state(w=-1.0)

    @pytest.mark.parametrize("w", [float("nan"), float("inf")])
    def test_non_finite_prior_cost_rejected(self, w):
        with pytest.raises(StateError, match="not finite"):
            single_state(w=w)

    def test_estimates_fall_back_to_priors(self):
        _, state = single_state(r=0.7, w=2.0)
        assert state.reliability_estimate("T") == 0.7
        assert state.cost_estimate("T") == 2.0

    def test_windows_override_priors(self):
        _, state = single_state(r=0.7)
        state = monitor_ingest(state, [
            {"t": 1, "kind": "exec", "leaf": "T", "success": True},
        ])
        assert state.reliability_estimate("T") == 1.0


class TestMonitor:
    def events(self, successes, total, leaf="T"):
        return [
            {"t": i, "kind": "exec", "leaf": leaf, "success": i < successes}
            for i in range(total)
        ]

    def test_success_ratio(self):
        _, state = single_state()
        state = monitor_ingest(state, self.events(90, 100))
        assert state.reliability_estimate("T") == 0.90

    def test_window_keeps_last_n(self):
        _, state = single_state()
        state = monitor_ingest(state, self.events(50, 150))
        assert len(state.exec_windows["T"]) == 100
        assert state.reliability_estimate("T") == 0.0  # last 100 all failures

    def test_window_size_configurable(self):
        _, state = single_state(window_size=4)
        state = monitor_ingest(state, self.events(2, 4))
        assert state.reliability_estimate("T") == 0.5

    def test_cost_mean(self):
        _, state = single_state()
        state = monitor_ingest(state, [
            {"t": 0, "kind": "cost", "leaf": "T", "value": 1.0},
            {"t": 1, "kind": "cost", "leaf": "T", "value": 3.0},
        ])
        assert state.cost_estimate("T") == 2.0

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_cost_sample_dropped(self, value):
        _, state = single_state(w=0.5)
        state = monitor_ingest(state, [
            {"t": 0, "kind": "cost", "leaf": "T", "value": value},
            {"t": 1, "kind": "cost", "leaf": "T", "value": 1.0},
        ])
        assert state.dropped == 1
        assert state.cost_windows["T"] == (1.0,)

    def test_context_event(self, bsn):
        forms = compile_model(bsn)
        leaves = bsn.executable_leaves()
        state = initial_state(
            bsn, forms,
            frequencies={l: 1.0 for l in leaves},
            reliability_priors={l: 1.0 for l in leaves},
            cost_priors={l: 1.0 for l in leaves},
            contexts={c: 1 for c in bsn.contexts},
        )
        state = monitor_ingest(state, [
            {"t": 5, "kind": "context", "context": "C1", "value": False},
        ])
        assert state.context_truth["C1"] == 0
        assert state.context_truth["C2"] == 1

    def test_empty_batch_only_moves_clock(self):
        _, state = single_state()
        after = monitor_ingest(state, [], now=7.5)
        assert after.timestamp == 7.5
        assert after.exec_windows == state.exec_windows
        assert after.context_truth == state.context_truth

    def test_malformed_events_counted_and_skipped(self):
        _, state = single_state()
        state = monitor_ingest(state, [
            {"t": 0, "kind": "exec", "leaf": "nope", "success": True},
            {"t": 0, "kind": "cost", "leaf": "T", "value": -2.0},
            {"t": 0, "kind": "telepathy"},
            {"kind": "exec", "leaf": "T", "success": True},
            {"t": 1, "kind": "exec", "leaf": "T", "success": True},
        ])
        assert state.dropped == 4
        assert state.exec_windows["T"] == (1,)

    def test_untouched_leaves_keep_estimates(self):
        model = parse_model(PAIR)
        state = initial_state(
            model, compile_model(model),
            frequencies={"A": 1.0, "B": 1.0},
            reliability_priors={"A": 0.4, "B": 0.6},
            cost_priors={"A": 1.0, "B": 1.0},
            contexts={},
        )
        state = monitor_ingest(state, self.events(1, 1, leaf="A"))
        assert state.reliability_estimate("A") == 1.0
        assert state.reliability_estimate("B") == 0.6


class TestAnalyze:
    def test_tight_miss_stays_in_margin(self):
        _, state = single_state(r=0.89)
        report = analyze(state, reliability_policy(0.90))
        reading = report.readings[0]
        assert reading.in_margin  # |0.89 - 0.90| = 0.01 <= 0.018
        assert reading.error == pytest.approx(-0.01)
        assert report.satisfied

    def test_cost_overshoot_misses_margin(self):
        _, state = single_state(r=1.0, w=0.50)
        policy = Policy(
            properties=(PropertyTarget(Metric.COST, "T", 0.47, 0.02),),
            knobs=(),
        )
        report = analyze(state, policy)
        assert not report.readings[0].in_margin  # 0.03 > 0.0094
        assert not report.satisfied

    def test_perfect_parts_make_perfect_whole(self, bsn):
        forms = compile_model(bsn)
        leaves = bsn.executable_leaves()
        state = initial_state(
            bsn, forms,
            frequencies={l: 1.0 for l in leaves},
            reliability_priors={l: 1.0 for l in leaves},
            cost_priors={l: 1.0 for l in leaves},
            contexts={c: 1 for c in bsn.contexts},
            opt_flags={"T1.X": 1},
        )
        policy = Policy(
            properties=(PropertyTarget(Metric.RELIABILITY, "G1", 1.0, 0.01),),
            knobs=(),
        )
        assert analyze(state, policy).readings[0].current == 1.0

    def test_missing_goal_formulae(self):
        _, state = single_state()
        policy = Policy(
            properties=(PropertyTarget(Metric.RELIABILITY, "Z", 0.9, 0.02),),
            knobs=(),
        )
        with pytest.raises(ValueError, match="no compiled formulae"):
            analyze(state, policy)

    def test_agrees_with_direct_evaluation(self):
        _, state = single_state(r=0.73, f=0.81)
        report = analyze(state, reliability_policy(0.90))
        direct = symexpr.evaluate(
            state.formulae["T"].reliability, state.param_bindings()
        )
        assert abs(report.readings[0].current - direct) <= 1e-12


class TestPlan:
    def knob(self, lo=0.0, hi=1.0, step=0.25):
        return Knob("T", ("T",), lo, hi, step)

    def test_satisfied_returns_identity(self):
        _, state = single_state(r=0.9)
        policy = reliability_policy(0.90, knobs=[self.knob()])
        actuation = plan(state, policy)
        assert actuation.assignments == {"T": 1.0}
        assert actuation.feasible
        assert execute(actuation, {"T": 1.0}) == []

    def test_unique_grid_point_found(self):
        _, state = single_state(r=0.9)
        policy = reliability_policy(0.45, margin=0.001, knobs=[self.knob()])
        actuation = plan(state, policy)
        assert actuation.assignments == {"T": 0.5}
        assert actuation.feasible
        assert actuation.predicted["reliability"] == pytest.approx(0.45)

    def test_infeasible_falls_back_to_minimizer(self):
        _, state = single_state(r=0.5)
        policy = reliability_policy(0.90, margin=0.01, knobs=[self.knob()])
        actuation = plan(state, policy)
        assert not actuation.feasible
        assert actuation.assignments == {"T": 1.0}  # closest reachable: 0.5

    def test_assignments_stay_inside_domains(self):
        _, state = single_state(r=0.77, f=0.3)
        policy = reliability_policy(0.5, margin=0.001, knobs=[self.knob(0.25, 0.75)])
        actuation = plan(state, policy)
        assert actuation.assignments["T"] in self.knob(0.25, 0.75).values()

    def test_tie_breaks_lexicographically(self):
        _, state = single_state(r=1.0)
        knob = Knob("T", ("T",), 0.4, 0.6, 0.2)  # grid {0.4, 0.6}
        policy = reliability_policy(0.5, margin=0.01, knobs=[knob])
        actuation = plan(state, policy)
        assert actuation.assignments == {"T": 0.4}

    def test_plan_is_pure(self):
        _, state = single_state(r=0.9)
        policy = reliability_policy(0.45, margin=0.001, knobs=[self.knob()])
        assert plan(state, policy) == plan(state, policy)

    def test_grid_cap(self):
        _, state = single_state()
        policy = reliability_policy(
            0.5, knobs=[Knob("T", ("T",), 0.0, 1.0, 1e-7)],
        )
        with pytest.raises(PlanError, match="cap"):
            plan(state, policy)

    def test_group_knob_drives_every_leaf(self):
        model = parse_model(PAIR)
        forms = compile_model(model)
        state = initial_state(
            model, forms,
            frequencies={"A": 1.0, "B": 1.0},
            reliability_priors={"A": 0.9, "B": 0.9},
            cost_priors={"A": 1.0, "B": 1.0},
            contexts={},
        )
        policy = Policy(
            properties=(PropertyTarget(Metric.RELIABILITY, "G", 0.2025, 0.001),),
            knobs=(Knob("G", ("A", "B"), 0.0, 1.0, 0.25),),
        )
        actuation = plan(state, policy)
        assert actuation.assignments == {"G": 0.5}  # 0.9*0.5 squared
        frequencies = expand_assignments(policy, actuation.assignments)
        assert frequencies == {"A": 0.5, "B": 0.5}
        after = analyze(state.with_frequencies(frequencies), policy)
        assert after.readings[0].current == pytest.approx(0.2025)

    def test_no_regression_when_feasible(self):
        _, state = single_state(r=0.9, f=0.5)
        policy = reliability_policy(0.45, knobs=[self.knob()])
        actuation = plan(state, policy)  # already satisfied
        assert actuation.assignments == {"T": 0.5}


class TestExecute:
    def test_all_commands_without_baseline(self):
        actuation = Actuation({"b": 0.5, "a": 0.25}, {}, True)
        assert execute(actuation) == [
            {"knob": "a", "value": 0.25},
            {"knob": "b", "value": 0.5},
        ]

    def test_only_changes_commanded(self):
        actuation = Actuation({"a": 0.25, "b": 0.5}, {}, True)
        assert execute(actuation, {"a": 0.25, "b": 0.75}) == [
            {"knob": "b", "value": 0.5},
        ]

    def test_many_changes_ordered_by_knob(self):
        assignments = {f"k{i}": i / 10 for i in range(5)}
        actuation = Actuation(assignments, {}, True)
        commands = execute(actuation, {k: 1.0 for k in assignments})
        assert [c["knob"] for c in commands] == ["k0", "k1", "k2", "k3", "k4"]
