"""Simulator tests: battery machine, vitals bands, traces, closed loops."""

import dataclasses
import hashlib
import json

import pytest

from goalc import bundled
from goalc.bsnsim import (
    PATIENT_VITALS,
    BatterySpec,
    ConfigError,
    Mode,
    Risk,
    Scenario,
    TimeSeries,
    VitalRanges,
    World,
    load_scenario,
    metrics,
    run,
    setpoint_distance,
)
from goalc.cgm import parse_model
from goalc.compiler import compile_model
from goalc.runtime import load_policy

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


class TestVitalRanges:
    @pytest.mark.parametrize("signal,value,risk", [
        ("oxygen_saturation", 97.0, Risk.LOW),
        ("oxygen_saturation", 65.0, Risk.MEDIUM),
        ("oxygen_saturation", 55.0, Risk.HIGH),
        ("heart_rate", 116.0, Risk.HIGH),
        ("heart_rate", 115.0, Risk.MEDIUM),
        ("heart_rate", 97.0, Risk.LOW),
        ("heart_rate", 85.0, Risk.MEDIUM),
        ("heart_rate", 70.0, Risk.HIGH),
        ("temperature", 41.0, Risk.MEDIUM),
        ("temperature", 38.0, Risk.LOW),
        ("temperature", 36.0, Risk.MEDIUM),
        ("temperature", 32.0, Risk.HIGH),
        ("systolic_pressure", 140.0, Risk.MEDIUM),
        ("systolic_pressure", 120.0, Risk.LOW),
        ("diastolic_pressure", 90.0, Risk.MEDIUM),
        ("diastolic_pressure", 80.0, Risk.LOW),
    ])
    def test_band_boundaries(self, signal, value, risk):
        assert PATIENT_VITALS.classify(signal, value) is risk

    def test_total_inside_operational_range(self):
        for signal, bands in PATIENT_VITALS.bands.items():
            upper, lower = bands[0][0], bands[-1][1]
            step = (upper - lower) / 400
            for i in range(1, 401):
                value = lower + i * step
                assert PATIENT_VITALS.classify(signal, value) in Risk
                assert PATIENT_VITALS.in_range(signal, value)

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            PATIENT_VITALS.classify("heart_rate", 0.0)
        with pytest.raises(ConfigError):
            PATIENT_VITALS.classify("heart_rate", 301.0)
        assert not PATIENT_VITALS.in_range("heart_rate", 0.0)

    def test_misordered_bands_rejected(self):
        with pytest.raises(ConfigError):
            VitalRanges({"x": ((10, 20, Risk.LOW), (20, 0, Risk.HIGH))})


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
                1 for e in events if e["kind"] == "exec" and e["leaf"] == "A"
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
