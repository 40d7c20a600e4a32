"""Simulator tests: battery machine, vitals walk, traces, closed loops."""

import dataclasses
import hashlib
import json
import random

import pytest

from goalc import bundled
from goalc.bsnsim import (
    BatterySpec,
    ConfigError,
    Mode,
    Scenario,
    TimeSeries,
    World,
    load_scenario,
    metrics,
    run,
    setpoint_distance,
)
from goalc.cgm import Condition, ParamTable, parse_model
from goalc.compiler import compile_model
from goalc.runtime import expand_assignments, load_policy

TINY = json.dumps({
    "actor": "a",
    "root": "G",
    "nodes": [
        {"id": "G", "kind": "Goal", "decomposition": "And", "children": ["A", "B"]},
        {"id": "A", "kind": "LeafTask"},
        {"id": "B", "kind": "LeafTask"},
    ],
})

TINY_POLICY = json.dumps({
    "properties": [
        {"metric": "Reliability", "goal": "G", "setpoint": 0.81, "margin": 0.02},
    ],
    "knobs": [
        {"id": "A", "min": 0.1, "max": 1.0, "step": 0.1},
        {"id": "B", "min": 0.1, "max": 1.0, "step": 0.1},
    ],
})


def tiny_scenario(**overrides):
    doc = {
        "scenario": "None",
        "seed": 7,
        "duration": 10,
        "tick": 1.0,
        "executions_per_tick": 10,
        "window_size": 50,
        "true": {
            "reliability": {"A": 0.9, "B": 0.9},
            "cost": {"A": 0.5, "B": 0.5},
        },
        "initial_frequency": {"A": 1.0, "B": 1.0},
        "estimates": {
            "reliability": {"A": 0.9, "B": 0.9},
            "cost": {"A": 0.5, "B": 0.5},
        },
        "sensors": [{
            "id": "S1", "context": "CX", "leaves": ["A"],
            "battery": {"level": 1.0, "drain": 0.0, "recharge": 0.01},
        }],
        "contexts": {},
        "opt_flags": {},
        "hub_leaf": "B",
    }
    doc.update(overrides)
    return json.dumps(doc)


def tiny_world(**overrides):
    policy = load_policy(TINY_POLICY, parse_model(TINY))
    return World.from_config(load_scenario(tiny_scenario(**overrides)), policy)


@pytest.fixture(scope="module")
def bsn_policy(bsn):
    return load_policy(bundled.data_text("policy.json"), bsn)


@pytest.fixture(scope="module")
def bsn_forms(bsn):
    return compile_model(bsn)


def bundled_config(name, mode, duration=None):
    config = load_scenario(bundled.data_text(name), mode=mode)
    if duration is not None:
        config = dataclasses.replace(config, duration=duration)
    return config


class TestScenarioConfig:
    def test_bundled_documents_parse(self):
        for name, scenario in [
            ("scenario_nominal.json", Scenario.NONE),
            ("scenario_hub_degradation.json", Scenario.SYSTEM_ITSELF),
            ("scenario_miscommissioned.json", Scenario.SYSTEM_GOALS),
            ("scenario_battery_cycling.json", Scenario.ENVIRONMENT),
        ]:
            config = load_scenario(bundled.data_text(name))
            assert config.scenario is scenario
            assert config.mode is Mode.TAMED
            assert len(config.sensors) == 4

    def test_mode_override(self):
        config = load_scenario(bundled.data_text("scenario_nominal.json"),
                               mode="Untamed")
        assert config.mode is Mode.UNTAMED

    def test_syntax_error(self):
        with pytest.raises(ConfigError, match="syntax"):
            load_scenario("{nope")

    def test_missing_seed(self):
        doc = json.loads(tiny_scenario())
        del doc["seed"]
        with pytest.raises(ConfigError):
            load_scenario(json.dumps(doc))

    def test_unknown_scenario_name(self):
        with pytest.raises(ConfigError):
            load_scenario(tiny_scenario(scenario="Meteor"))

    def test_battery_level_out_of_range(self):
        doc = json.loads(tiny_scenario())
        doc["sensors"][0]["battery"]["level"] = 1.5
        with pytest.raises(ConfigError):
            load_scenario(json.dumps(doc))

    def test_unordered_degradation_schedule(self):
        with pytest.raises(ConfigError, match="ordered"):
            load_scenario(tiny_scenario(
                scenario="SystemItself",
                hub_degradation=[{"t": 50, "delta": 0.1}, {"t": 10, "delta": 0.1}],
            ))

    @pytest.mark.parametrize("path", [
        ("true", "reliability"), ("true", "cost"), ("initial_frequency",),
        ("estimates", "reliability"), ("estimates", "cost"),
    ])
    def test_non_numeric_leaf_value(self, path):
        doc = json.loads(tiny_scenario())
        values = doc
        for key in path:
            values = values[key]
        values["A"] = "0.9x"
        with pytest.raises(ConfigError, match="0.9x"):
            load_scenario(json.dumps(doc))

    def test_numeric_strings_become_floats(self):
        doc = json.loads(tiny_scenario())
        doc["true"]["reliability"]["A"] = "0.9"
        assert load_scenario(json.dumps(doc)).true_reliability["A"] == 0.9

    def test_unknown_sensor_leaf(self):
        doc = json.loads(tiny_scenario())
        doc["sensors"][0]["leaves"] = ["Z"]
        with pytest.raises(ConfigError, match="true parameters"):
            load_scenario(json.dumps(doc))


class TestBattery:
    def test_drain_kills_then_recharge_revives(self):
        # Ten executions a tick at 0.02 each beat the 0.01 recharge, so the
        # sensor dies early and then needs a long quiet climb back to 0.90.
        world = tiny_world()
        world.sensors[0].spec = dataclasses.replace(
            world.sensors[0].spec,
            battery=BatterySpec(level=1.0, drain=0.02, recharge=0.01),
        )
        flips = []
        execs_by_tick = {}
        for t in range(96):
            events = world.step(float(t))
            execs_by_tick[t] = sum(
                len(e["outcomes"]) for e in events if e["kind"] == "exec" and e["leaf"] == "A"
            )
            flips.extend(e for e in events if e["kind"] == "context")
        assert [(e["context"], e["value"]) for e in flips] == [
            ("CX", False), ("CX", True),
        ]
        died, revived = flips[0]["t"], flips[1]["t"]
        assert revived - died >= 80  # hysteresis: 0.02 off, 0.90 back on
        assert all(execs_by_tick[t] == 0 for t in range(int(died) + 1, int(revived)))
        assert execs_by_tick[int(revived) + 1] == 10
        assert world.contexts["CX"] == 1

    def test_low_level_alone_keeps_running(self):
        world = tiny_world()
        world.sensors[0].level = 0.05  # above the 0.02 cut-off
        events = world.step(0.0)
        assert any(e["kind"] == "exec" and e["leaf"] == "A" for e in events)
        assert not any(e["kind"] == "context" for e in events)

    def test_off_sensor_stays_off_until_high_mark(self):
        world = tiny_world()
        state = world.sensors[0]
        state.on = False
        state.level = 0.5  # well above the cut-off, below the high mark
        world.contexts["CX"] = 0
        events = world.step(0.0)
        assert not any(e["kind"] == "exec" and e["leaf"] == "A" for e in events)
        assert world.contexts["CX"] == 0

    def test_full_battery_never_flips(self):
        world = tiny_world()
        for t in range(30):
            world.step(float(t))
        assert world.sensors[0].on
        assert world.contexts["CX"] == 1


class PerExecutionWorld(World):
    """The reference the simulator's telemetry is checked against: one
    ``exec`` and one ``cost`` event per execution, drawn in the same order,
    and the battery clamped at 0 after every run."""

    def _run_leaf(self, leaf, t, sensor, events):
        f, r, w = self.frequency[leaf], self.reliability[leaf], self.cost[leaf]
        for _ in range(self.config.executions_per_tick):
            if self.rng.random() >= f:
                continue
            success = self.rng.random() < r
            events.append({"t": t, "kind": "exec", "leaf": leaf, "success": success})
            events.append({"t": t, "kind": "cost", "leaf": leaf, "value": w})
            if sensor is not None:
                sensor.level = max(0.0, sensor.level - sensor.spec.battery.drain)


def grouped(events):
    """Per-execution events as one record per leaf and tick."""
    out = []
    for e in events:
        if e["kind"] == "exec":
            last = out[-1] if out else {}
            if last.get("kind") == "exec" and (last["t"], last["leaf"]) == (e["t"], e["leaf"]):
                last["outcomes"].append(e["success"])
            else:
                out.append({"t": e["t"], "kind": "exec", "leaf": e["leaf"],
                            "outcomes": [e["success"]], "cost": None})
        elif e["kind"] == "cost":
            assert out[-1]["cost"] in (None, e["value"])
            out[-1]["cost"] = e["value"]
        else:
            out.append(e)
    return out


class TestTelemetry:
    @pytest.mark.parametrize("name", [
        "scenario_nominal.json", "scenario_hub_degradation.json",
        "scenario_battery_cycling.json", "scenario_miscommissioned.json",
    ])
    def test_bundled_records_group_the_per_execution_stream(self, bsn, bsn_policy, name):
        """Tick by tick, the records are the per-execution stream grouped
        by leaf, and battery levels and bindings match it bit for bit."""
        config = bundled_config(name, "Tamed")
        conditioned = {c: d.condition for c, d in bsn.contexts.items() if d.condition}
        world = World.from_config(config, bsn_policy, conditioned)
        reference = PerExecutionWorld.from_config(config, bsn_policy, conditioned)
        for t in range(300):
            for w in (world, reference):
                w.inject(float(t))
            assert world.step(float(t)) == grouped(reference.step(float(t))), t
            assert [s.level for s in world.sensors] == [s.level for s in reference.sensors]
            assert world.bindings == reference.bindings

    @pytest.mark.parametrize("level,drain,recharge", [
        (1.0, 0.3, 0.1), (1.0, 0.02, 0.01), (0.05, 0.035, 0.2), (0.5, 0.0, 0.0),
    ])
    def test_one_clamp_per_record_is_the_clamp_per_run(self, level, drain, recharge):
        battery = {"level": level, "drain": drain, "recharge": recharge}
        doc = json.loads(tiny_scenario())
        doc["sensors"][0]["battery"] = battery
        world, reference = (cls.from_config(load_scenario(json.dumps(doc)),
                                            load_policy(TINY_POLICY, parse_model(TINY)))
                            for cls in (World, PerExecutionWorld))
        levels = []
        for t in range(120):
            assert world.step(float(t)) == grouped(reference.step(float(t))), t
            assert world.sensors[0].level == reference.sensors[0].level, t
            levels.append(world.sensors[0].level)
        if drain:  # some tick's runs drove the level below 0, so it ended at 0 + recharge
            assert recharge in levels


class TestWorldInjection:
    def test_none_scenario_leaves_reliability_alone(self):
        world = tiny_world(
            hub_degradation=[{"t": 0, "delta": 0.5}],
        )
        before = dict(world.reliability)
        for t in range(5):
            world.inject(float(t))
        assert world.reliability == before

    def test_degradation_steps_apply_once_each(self):
        world = tiny_world(
            scenario="SystemItself",
            hub_degradation=[{"t": 1, "delta": 0.2}, {"t": 3, "delta": 0.1}],
        )
        seen = []
        for t in range(6):
            world.inject(float(t))
            seen.append(round(world.reliability["B"], 10))
        assert seen == [0.9, 0.7, 0.7, 0.6, 0.6, 0.6]

    def test_degradation_clamps_at_zero(self):
        world = tiny_world(
            scenario="SystemItself",
            hub_degradation=[{"t": 0, "delta": 2.0}],
        )
        world.inject(0.0)
        assert world.reliability["B"] == 0.0


class TestWorldBindings:
    @pytest.mark.parametrize("name,moves", [
        ("scenario_hub_degradation.json", {"r_", "f_"}),
        ("scenario_battery_cycling.json", {"C_", "f_"}),
        ("scenario_miscommissioned.json", {"f_"}),
    ])
    def test_held_binding_is_the_truth_rebuilt(self, bsn, bsn_policy, name, moves):
        """Under degradation, context flips and commanded frequencies, the
        binding the world holds equals one built afresh from its tables."""
        config = bundled_config(name, "Tamed")
        conditioned = {c: d.condition for c, d in bsn.contexts.items() if d.condition}
        world = World.from_config(config, bsn_policy, conditioned)
        rng = random.Random(name)
        moved = set()
        for t in range(300):
            before = world.truth_bindings()
            if rng.random() < 0.2:
                knob = rng.choice(bsn_policy.knobs)
                value = rng.choice(knob.values())
                world.set_frequencies(expand_assignments(bsn_policy, {knob.id: value}))
            world.inject(float(t))
            world.step(float(t))
            rebuilt = ParamTable.bindings(world.reliability, world.frequency, world.cost,
                                          world.contexts, config.opt_flags)
            assert world.bindings == rebuilt, t
            assert world.truth_bindings() == rebuilt
            moved.update(n[:2] for n in rebuilt if rebuilt[n] != before.get(n))
        assert moved == moves

    def test_vitals_driven_context_is_written_in_place(self):
        policy = load_policy(TINY_POLICY, parse_model(TINY))
        conditioned = {"CV": Condition("heart_rate", ">=", 90.0)}  # the walk starts at 90
        world = World.from_config(load_scenario(tiny_scenario()), policy, conditioned)
        truths = set()
        for t in range(50):
            world.step(float(t))
            assert world.bindings["C_CV"] == world.contexts["CV"]
            truths.add(world.contexts["CV"])
        assert truths == {0, 1}

    def test_truth_bindings_is_a_copy(self):
        world = tiny_world()
        truth = world.truth_bindings()
        truth["r_A"] = 0.0
        assert world.bindings["r_A"] == 0.9
        assert world.truth_bindings() is not world.bindings


class TestVitalsWalk:
    #: Each signal's outer bounds (lower, upper].
    BOUNDS = {
        "oxygen_saturation": (0, 100),
        "heart_rate": (0, 300),
        "temperature": (0, 50),
        "systolic_pressure": (0, 300),
        "diastolic_pressure": (0, 300),
    }

    def test_vitals_stay_in_range_so_data_validity_never_flips(self, bsn, bsn_policy):
        """The clamp keeps every vital inside its bounds, so the bundled
        model's data-validity context C6 holds on every tick."""
        config = bundled_config("scenario_nominal.json", "Tamed")
        conditioned = {c: d.condition for c, d in bsn.contexts.items() if d.condition}
        assert list(conditioned) == ["C6"]
        world = World.from_config(config, bsn_policy, conditioned)
        assert set(world.vitals) == set(self.BOUNDS)
        events = []
        for t in range(20_000):
            world._walk_vitals(float(t), events)  # the walk alone, as step() runs it
            for signal, value in world.vitals.items():
                lower, upper = self.BOUNDS[signal]
                assert lower < value <= upper, (t, signal, value)
            assert world.contexts["C6"] == 1 == world.bindings["C_C6"]
        assert events == []


class TestTimeSeries:
    def test_csv_round_trip(self):
        trace = TimeSeries(
            ("t", "reliability", "cost"),
            ((0.0, 0.8987654321, 0.47), (1.0, 0.9, 0.4700000001)),
        )
        again = TimeSeries.from_csv(trace.to_csv())
        assert again == trace

    def test_missing_column(self):
        trace = TimeSeries(("t",), ((0.0,),))
        with pytest.raises(ConfigError, match="no column"):
            trace.column("reliability")

    def test_empty_and_ragged_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            TimeSeries.from_csv("")
        with pytest.raises(ConfigError, match="ragged"):
            TimeSeries.from_csv("a,b\n1,2\n3\n")


class TestMetrics:
    @staticmethod
    def trace(rel, cost):
        return TimeSeries(
            ("t", "reliability", "cost"),
            tuple((float(i), r, c) for i, (r, c) in enumerate(zip(rel, cost))),
        )

    def test_setpoint_distance(self):
        assert setpoint_distance([0.88, 0.92, 0.90], 0.90) == pytest.approx(
            (0.02 + 0.02 + 0.0) / 3
        )

    def test_identical_traces_give_unit_ratios(self):
        t = self.trace([0.89, 0.91], [0.46, 0.48])
        m = metrics(t, t, {"reliability": 0.90, "cost": 0.47})
        assert m["e_r"] == 1.0 and m["e_c"] == 1.0

    def test_perfect_tamed_trace_gives_infinite_ratio(self):
        tamed = self.trace([0.90, 0.90], [0.47, 0.47])
        untamed = self.trace([0.80, 0.80], [0.40, 0.40])
        m = metrics(tamed, untamed, {"reliability": 0.90, "cost": 0.47})
        assert m["e_r"] == float("inf") and m["e_c"] == float("inf")
        assert m["d_untamed"]["reliability"] == pytest.approx(0.10)

    def test_length_mismatch(self):
        with pytest.raises(ConfigError, match="lengths"):
            metrics(
                self.trace([0.9], [0.47]),
                self.trace([0.9, 0.9], [0.47, 0.47]),
                {"reliability": 0.90, "cost": 0.47},
            )

    def test_empty_series_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            setpoint_distance([], 0.9)


class TestClosedLoop:
    def test_untamed_nominal_holds_the_commissioned_point(self, bsn, bsn_policy, bsn_forms):
        config = bundled_config("scenario_nominal.json", "Untamed", duration=40)
        trace = run(config, bsn_policy, bsn, bsn_forms)
        assert len(trace.rows) == 40
        rel, cost = trace.column("reliability"), trace.column("cost")
        assert max(rel) - min(rel) < 1e-12
        assert rel[0] == pytest.approx(0.90, abs=1e-3)
        assert cost[0] == pytest.approx(0.47, abs=1e-9)
        assert trace.column("T1") == [0.8] * 40
        assert trace.column("T2") == [1.0] * 40

    def test_untamed_never_reacts_to_wrong_profile(self, bsn, bsn_policy, bsn_forms):
        config = bundled_config("scenario_miscommissioned.json", "Untamed", duration=40)
        trace = run(config, bsn_policy, bsn, bsn_forms)
        assert trace.column("T1") == [1.0] * 40
        assert min(trace.column("reliability")) > 0.97  # stuck oversampling

    def test_tamed_nominal_stays_near_setpoints(self, bsn, bsn_policy, bsn_forms):
        config = bundled_config("scenario_nominal.json", "Tamed", duration=80)
        trace = run(config, bsn_policy, bsn, bsn_forms)
        settled = [
            (r, c)
            for t, r, c in zip(trace.column("t"), trace.column("reliability"),
                               trace.column("cost"))
            if t >= 30
        ]
        assert all(0.88 <= r <= 0.92 for r, _ in settled)
        assert all(0.46 <= c <= 0.48 for _, c in settled)

    def test_tamed_corrects_wrong_profile(self, bsn, bsn_policy, bsn_forms):
        config = bundled_config("scenario_miscommissioned.json", "Tamed", duration=60)
        trace = run(config, bsn_policy, bsn, bsn_forms)
        tail = trace.column("reliability")[30:]
        assert all(0.88 <= r <= 0.92 for r in tail)
        final = (trace.column("T1")[-1], trace.column("T2")[-1])
        assert final != (1.0, 1.0)  # the wrong profile was actually corrected

    def test_contexts_recorded_in_trace(self, bsn, bsn_policy, bsn_forms):
        config = bundled_config("scenario_nominal.json", "Tamed", duration=20)
        trace = run(config, bsn_policy, bsn, bsn_forms)
        for ctx in ("C1", "C2", "C3", "C4", "C5", "C6"):
            assert trace.column(ctx) == [1.0] * 20

    def test_fixed_seed_reproduces_every_byte(self, bsn, bsn_policy, bsn_forms):
        config = bundled_config("scenario_hub_degradation.json", "Tamed", duration=70)
        first = run(config, bsn_policy, bsn, bsn_forms).to_csv()
        second = run(config, bsn_policy, bsn, bsn_forms).to_csv()
        assert hashlib.sha256(first.encode()).hexdigest() == \
            hashlib.sha256(second.encode()).hexdigest()

    def test_missing_knob_frequency_rejected(self, bsn, bsn_policy, bsn_forms):
        config = bundled_config("scenario_nominal.json", "Tamed", duration=10)
        config = dataclasses.replace(config, initial_frequency={"T1": 0.8})
        with pytest.raises(ConfigError, match="misses knobs"):
            run(config, bsn_policy, bsn, bsn_forms)
