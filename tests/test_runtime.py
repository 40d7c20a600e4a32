"""Controller tests: knowledge windows, margin analysis, grid planning."""

import json
import random

import pytest

from goalc import bsnsim, bundled, symexpr
from goalc.cgm import ModelError, parse_model
from goalc.compiler import compile_model
from goalc.runtime import (
    MAX_CLAUSE_DEPTH,
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


MISSING = object()  # a record key left out


def record(outcomes, t=0, leaf="T", cost=1.0):
    """One leaf's telemetry for one tick, as ``World.step`` emits it."""
    return {"t": t, "kind": "exec", "leaf": leaf, "outcomes": list(outcomes), "cost": cost}


def nominal_state(bsn, **overrides):
    """The bundled policy, the nominal scenario's world, and a knowledge
    state over the scenario's priors (``overrides`` replace arguments of
    :func:`initial_state`)."""
    policy = load_policy(bundled.data_text("policy.json"), bsn)
    config = bsnsim.load_scenario(bundled.data_text("scenario_nominal.json"))
    world = bsnsim.World.from_config(config, policy)
    kwargs = dict(
        frequencies=dict(world.frequency),
        reliability_priors=config.estimate_reliability,
        cost_priors=config.estimate_cost,
        contexts=dict(world.contexts),
        opt_flags=config.opt_flags,
        window_size=config.window_size,
    )
    kwargs.update(overrides)
    return policy, world, initial_state(bsn, ["G1"], **kwargs)


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

    def test_setpoint_must_not_be_negative(self):
        with pytest.raises(PolicyError, match="setpoint must not be negative, got -0.5"):
            PropertyTarget(Metric.COST, "G", -0.5, 0.1)

    def test_reliability_setpoint_must_not_exceed_one(self):
        with pytest.raises(PolicyError, match="must not exceed 1, got 1.5"):
            PropertyTarget(Metric.RELIABILITY, "G", 1.5, 0.1)
        assert PropertyTarget(Metric.COST, "G", 1.5, 0.1).in_margin(1.5)

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

    @pytest.mark.parametrize("edit,message", [
        ({"properties": 5}, "'properties' must be a list of objects"),
        ({"properties": ["x"]}, "'properties' must be a list of objects"),
        ({"knobs": 3}, "'knobs' must be a list of objects"),
        ({"knobs": [{"id": "T1", "min": 0.5, "max": 1, "step": 0.5, "leaves": "T1.11"}]},
         "knob 'T1': 'leaves' must be a list"),
    ], ids=["properties-number", "properties-strings", "knobs-number", "leaves-string"])
    def test_document_shape_checked(self, bsn, edit, message):
        doc = json.loads(bundled.data_text("policy.json"))
        doc.update(edit)
        with pytest.raises(PolicyError, match=message):
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

    def test_combination_depth_bound(self):
        """The deepest combination accepted still compiles into the plan's
        search; one clause deeper, or far deeper, is a policy error."""
        _, state = single_state(r=0.5)
        comb = 0
        for i in range(MAX_CLAUSE_DEPTH):
            comb = ["and" if i % 2 else "or", comb]
        knob = Knob("T", ("T",), 0.5, 1.0, 0.5)
        props = (PropertyTarget(Metric.RELIABILITY, "T", 0.9, 0.02),)
        assert plan(state, Policy(props, (knob,), comb)).feasible is False
        for depth in (1, 5000):
            deeper = comb
            for _ in range(depth):
                deeper = ["or", deeper]
            with pytest.raises(PolicyError) as info:
                Policy(props, (knob,), deeper)
            assert str(info.value) == "combination clauses nest deeper than 100"

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

    @pytest.mark.parametrize("tables,message", [
        ({"cost_priors": {}}, r"priors name different leaves: \['T'\]"),
        ({"cost_priors": {"T": 1.0, "U": 1.0}}, r"priors name different leaves: \['U'\]"),
        ({"frequencies": {}}, r"no frequency for leaves \['T'\]"),
    ])
    def test_prior_tables_must_name_the_same_leaves(self, tables, message):
        model = parse_model(SINGLE)
        kwargs = dict(frequencies={"T": 1.0}, reliability_priors={"T": 0.9},
                      cost_priors={"T": 1.0}, contexts={})
        kwargs.update(tables)
        with pytest.raises(StateError, match=message):
            initial_state(model, ["T"], **kwargs)

    def test_window_size_must_be_positive(self):
        with pytest.raises(StateError, match="window size must be at least 1"):
            single_state(window_size=0)

    def test_set_frequencies_checks_range(self):
        _, state = single_state()
        with pytest.raises(StateError, match=r"frequency of 'T' outside \[0, 1\]: 1.5"):
            state.set_frequencies({"T": 1.5})
        state.set_frequencies({"T": 0.25})
        assert state.bindings["f_T"] == 0.25

    def test_estimates_fall_back_to_priors(self):
        _, state = single_state(r=0.7, w=2.0)
        assert state.bindings["r_T"] == 0.7
        assert state.bindings["w_T"] == 2.0

    def test_windows_override_priors(self):
        _, state = single_state(r=0.7)
        state = monitor_ingest(state, [record([True], t=1)])
        assert state.bindings["r_T"] == 1.0


class TestMonitor:
    def events(self, successes, total, leaf="T", per_tick=10):
        """``total`` executions, the first ``successes`` of them successful,
        as one record per tick of up to ``per_tick`` executions."""
        outcomes = [i < successes for i in range(total)]
        return [record(outcomes[i:i + per_tick], t=i // per_tick, leaf=leaf)
                for i in range(0, total, per_tick)]

    @staticmethod
    def snapshot(state):
        return ({leaf: (tuple(state.exec_windows[leaf]), tuple(state.cost_windows[leaf]))
                 for leaf in state.exec_windows},
                dict(state.successes), dict(state.bindings), state.timestamp)

    def test_success_ratio(self):
        _, state = single_state(r=0.5)  # a prior no ingested sample reproduces
        state = monitor_ingest(state, self.events(90, 100))
        assert state.bindings["r_T"] == 0.90

    def test_window_keeps_last_n(self):
        _, state = single_state()
        state = monitor_ingest(state, self.events(50, 150))
        assert len(state.exec_windows["T"]) == 100
        assert state.bindings["r_T"] == 0.0  # last 100 all failures

    def test_window_size_configurable(self):
        _, state = single_state(window_size=4)
        state = monitor_ingest(state, self.events(2, 4))
        assert state.bindings["r_T"] == 0.5

    def test_cost_mean(self):
        _, state = single_state()
        state = monitor_ingest(state, [
            record([True], t=0, cost=1.0),
            record([False], t=1, cost=3.0),
        ])
        assert state.bindings["w_T"] == 2.0

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_cost_sample_dropped(self, value):
        _, state = single_state(w=0.5)
        state = monitor_ingest(state, [
            record([True], t=0, cost=value),
            record([True], t=1, cost=1.0),
        ])
        assert state.dropped == 1
        assert tuple(state.cost_windows["T"]) == (1.0,)

    def test_context_event(self, bsn):
        forms = compile_model(bsn)
        leaves = bsn.leaves_under(bsn.root)
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
        assert state.bindings["C_C1"] == 0
        assert state.bindings["C_C2"] == 1

    def test_empty_batch_only_moves_clock(self):
        _, state = single_state()
        bindings = dict(state.bindings)
        windows = [tuple(state.exec_windows["T"]), tuple(state.cost_windows["T"])]
        after = monitor_ingest(state, [], now=7.5)
        assert after.timestamp == 7.5
        assert [tuple(after.exec_windows["T"]), tuple(after.cost_windows["T"])] == windows
        assert after.bindings == bindings

    def test_malformed_events_counted_and_skipped(self):
        _, state = single_state()
        missing_t = record([True])
        del missing_t["t"]
        state = monitor_ingest(state, [
            record([True], leaf="nope"),
            record([True], cost=-2.0),
            {"t": 0, "kind": "telepathy"},
            missing_t,
            record([True], t=1),
        ])
        assert state.dropped == 4
        assert tuple(state.exec_windows["T"]) == (1,)

    @pytest.mark.parametrize("key,value", [
        ("t", MISSING), ("t", None), ("t", "soon"), ("t", [1]),
        ("kind", MISSING), ("kind", "telepathy"), ("kind", "cost"),
        ("leaf", MISSING), ("leaf", "nope"), ("leaf", ["T"]),
        ("outcomes", MISSING), ("outcomes", (True,)), ("outcomes", "TT"),
        ("outcomes", None), ("outcomes", [True, 0.5]), ("outcomes", [True, "yes"]),
        ("outcomes", [None]),
        ("cost", MISSING), ("cost", -2.0), ("cost", float("nan")), ("cost", float("inf")),
        ("cost", float("-inf")), ("cost", "abc"), ("cost", None),
    ], ids=lambda v: "missing" if v is MISSING else repr(v))
    def test_malformed_record_is_rejected_whole(self, key, value):
        """A malformed record adds 1 to ``dropped`` and reaches no window,
        running count, binding or clock.  The former per-execution shapes
        (kind ``"cost"``; an ``exec`` record without ``outcomes``) are
        malformed too."""
        _, state = single_state(r=0.5, w=0.5)
        monitor_ingest(state, [record([True, False], t=1, cost=2.0)])
        before = self.snapshot(state)
        event = record([True, True, True], t=5, cost=4.0)
        event[key] = value
        if value is MISSING:
            del event[key]
        monitor_ingest(state, [event])
        assert state.dropped == 1
        assert self.snapshot(state) == before

    def test_empty_outcomes_only_move_the_clock(self):
        for filled in (False, True):
            _, state = single_state(r=0.5, w=0.5)
            if filled:
                monitor_ingest(state, [record([True, False], t=1, cost=2.0)])
            windows, successes, bindings = self.snapshot(state)[:3]
            monitor_ingest(state, [record([], t=4, cost=3.0)])
            assert self.snapshot(state) == (windows, successes, bindings, 4.0)
            assert state.dropped == 0

    def test_running_count_is_the_window_sum(self):
        """Across records shorter and longer than the window, the success
        count equals the window's sum, and both bindings equal the means of
        the last ``window_size`` outcomes and costs of the stream."""
        rng = random.Random(17)
        seen = set()
        for _ in range(200):
            size = rng.randint(1, 12)
            _, state = single_state(window_size=size)
            outcomes, costs = [], []
            for t in range(rng.randint(1, 8)):
                batch = [rng.random() < 0.6 for _ in range(rng.choice([0, 1, 3, 7, 30]))]
                cost = rng.choice([0.25, 0.1, 1.0 / 3.0, 7.0])
                monitor_ingest(state, [record(batch, t=t, cost=cost)])
                outcomes += batch
                costs += [cost] * len(batch)
                window = state.exec_windows["T"]
                assert state.successes["T"] == sum(window)
                assert type(state.successes["T"]) is int
                assert list(window) == outcomes[-size:]
                if outcomes:
                    tail, cost_tail = outcomes[-size:], costs[-size:]
                    assert state.bindings["r_T"] == sum(tail) / len(tail)
                    assert state.bindings["w_T"] == sum(cost_tail) / len(cost_tail)
                seen.add("longer" if len(batch) > size else "evicts"
                         if len(outcomes) > size else "fills")
        assert seen == {"longer", "evicts", "fills"}

    def test_timestamp_is_the_running_max_of_event_times(self):
        """The clock moves as ``max(timestamp, float(t))`` per event would
        move it, NaN included, and an unreadable ``t`` drops the event."""
        stamps = [0.0, -0.0, 1.5, 7, "2.5", "-inf", float("nan"), float("inf"),
                  float("-inf"), "nan", None, "soon", [1]]
        rng = random.Random(4)
        seen = set()
        for _ in range(300):
            _, state = single_state()
            state.timestamp = rng.choice([0.0, -0.0, 3.0, float("nan"), float("-inf")])
            want, dropped = state.timestamp, 0
            events = []
            for _ in range(rng.randint(0, 6)):
                event = record([True])
                del event["t"]
                if rng.random() < 0.9:
                    event["t"] = rng.choice(stamps)
                events.append(event)
                try:
                    want = max(want, float(event["t"]))
                except (KeyError, TypeError, ValueError):
                    dropped += 1
            monitor_ingest(state, events)
            assert repr(state.timestamp) == repr(want)
            assert state.dropped == dropped
            seen.add("nan" if want != want else "dropped" if dropped else "ok")
        assert seen == {"nan", "dropped", "ok"}

    def test_beliefs_are_window_means_of_the_event_stream(self, bsn):
        """Over 300 nominal ticks every leaf's ``r_``/``w_`` binding is, bit
        for bit, the mean of its last ``window_size`` samples in the raw
        stream, or its prior before the first one."""
        _, world, state = nominal_state(bsn)
        n = world.config.window_size
        priors = dict(state.bindings)
        samples = {"exec": {}, "cost": {}}
        for t in range(300):
            world.inject(t)
            events = world.step(t)
            for e in events:
                if e["kind"] == "exec":
                    samples["exec"].setdefault(e["leaf"], []).extend(
                        1 if success else 0 for success in e["outcomes"])
                    samples["cost"].setdefault(e["leaf"], []).extend(
                        e["cost"] for _ in e["outcomes"])
            assert monitor_ingest(state, events, now=t) is state
            for kind, prefix in (("exec", "r_"), ("cost", "w_")):
                for leaf in world.config.estimate_reliability:
                    name = prefix + leaf.replace(".", "_")
                    stream = samples[kind].get(leaf, [])[-n:]
                    want = sum(stream) / len(stream) if stream else priors[name]
                    assert state.bindings[name] == want, (t, name)
            for ctx, truth in world.contexts.items():
                assert state.bindings["C_" + ctx.replace(".", "_")] == truth
        assert state.dropped == 0 and state.timestamp == 299
        assert max(len(s) for s in samples["exec"].values()) > n  # windows wrapped
        assert len(samples["cost"]) < len(world.config.estimate_reliability)  # priors kept

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
        assert state.bindings["r_A"] == 1.0
        assert state.bindings["r_B"] == 0.6


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
        leaves = bsn.leaves_under(bsn.root)
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
            state.formulae["T"].reliability, state.bindings
        )
        assert abs(report.readings[0].current - direct) <= 1e-12


def test_analyze_and_plan_leave_the_state_alone(bsn):
    leaves = bsn.leaves_under(bsn.root)
    policy, world, state = nominal_state(bsn, frequencies=dict.fromkeys(leaves, 0.5))
    for t in range(5):
        world.inject(t)
        monitor_ingest(state, world.step(t), now=t)
    before = (dict(state.bindings),
              {leaf: tuple(w) for leaf, w in state.exec_windows.items()},
              {leaf: tuple(w) for leaf, w in state.cost_windows.items()})
    assert not analyze(state, policy).satisfied
    assert plan(state, policy).assignments != {k.id: 0.5 for k in policy.knobs}
    after = (dict(state.bindings),
             {leaf: tuple(w) for leaf, w in state.exec_windows.items()},
             {leaf: tuple(w) for leaf, w in state.cost_windows.items()})
    assert after == before


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
        state.set_frequencies(frequencies)
        after = analyze(state, policy)
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
