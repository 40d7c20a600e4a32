"""Seeded discrete-event simulator of the body-sensor-network managed system.

The world owns the TRUE task parameters — per-leaf reliability and execution
cost, battery-driven sensor availability, a random walk over patient vitals —
while the controller only ever sees telemetry.  Each tick every active leaf
attempts a configured number of executions (Bernoulli draws for both the
attempt and its success), batteries drain per execution and recharge per
tick, and the reliability/cost recorded in the trace is the goal's formula
circuit evaluated at the true parameters of the configuration in force.
Telemetry is one ``exec`` record per leaf and tick, holding that tick's
outcomes in order and the cost charged per run, plus a ``context`` record
per availability or condition flip.
Contexts that carry a condition are re-evaluated every tick over the walked
vitals and ``data_validity``, which is always 1: the walk keeps each vital
inside its signal's outer bounds.

Three disturbance scenarios are built in: stepwise degradation of the
central hub's reliability, a mis-commissioned initial frequency profile, and
battery depletion toggling sensor availability.  A fixed seed makes a run
reproducible down to the output bytes.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import runtime, symexpr
from .cgm import Condition, GoalModel, ParamTable
from .compiler import NodeForms


class ConfigError(ValueError):
    """Raised for an ill-formed scenario document."""


class Scenario(Enum):
    SYSTEM_ITSELF = "SystemItself"
    SYSTEM_GOALS = "SystemGoals"
    ENVIRONMENT = "Environment"
    NONE = "None"


class Mode(Enum):
    TAMED = "Tamed"
    UNTAMED = "Untamed"


# -- patient vitals -----------------------------------------------------------

#: Start value, per-tick walk step and outer bounds (lower, upper] of each
#: generated signal.
_VITAL_WALKS = {
    "oxygen_saturation": (97.0, 0.4, 0, 100),
    "heart_rate": (90.0, 1.0, 0, 300),
    "temperature": (36.8, 0.05, 0, 50),
    "systolic_pressure": (115.0, 1.0, 0, 300),
    "diastolic_pressure": (75.0, 0.8, 0, 300),
}


# -- configuration ------------------------------------------------------------


@dataclass(frozen=True)
class BatterySpec:
    level: float  # initial charge in [0, 1]
    drain: float  # charge lost per execution
    recharge: float  # charge gained per tick

    #: Availability hysteresis: a sensor switches off below ``OFF`` and only
    #: switches back on once recharged to ``ON``.
    OFF = 0.02
    ON = 0.90

    def __post_init__(self) -> None:
        if not 0.0 <= self.level <= 1.0:
            raise ConfigError(f"battery level outside [0, 1]: {self.level}")
        if not (0 <= self.drain < math.inf and 0 <= self.recharge < math.inf):
            raise ConfigError("battery drain and recharge must be non-negative and finite")


@dataclass(frozen=True)
class SensorSpec:
    id: str
    context: str
    leaves: Tuple[str, ...]
    battery: BatterySpec


#: The most executions a run may attempt per leaf, ``round(duration / tick) *
#: executions_per_tick``; the bundled runs attempt 300 * 20 = 6,000.
MAX_EXECUTIONS_PER_LEAF = 10_000_000


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: Scenario
    mode: Mode
    seed: int
    duration: float  # simulated seconds
    tick: float
    executions_per_tick: int
    window_size: int
    true_reliability: Mapping[str, float]
    true_cost: Mapping[str, float]
    initial_frequency: Mapping[str, float]  # knob id -> value
    estimate_reliability: Mapping[str, float]  # controller priors
    estimate_cost: Mapping[str, float]
    sensors: Tuple[SensorSpec, ...]
    contexts: Mapping[str, int]
    opt_flags: Mapping[str, int]
    hub_leaf: str = ""  # mains-powered leaf that runs outside any sensor
    hub_degradation: Tuple[Tuple[float, float], ...] = ()  # (time, delta)

    def __post_init__(self) -> None:
        if not (0 < self.duration < math.inf and 0 < self.tick < math.inf):
            raise ConfigError("duration and tick must be positive and finite")
        if self.duration / self.tick == math.inf:
            raise ConfigError("duration / tick is past the float range")
        if round(self.duration / self.tick) < 1:  # the run's tick count
            raise ConfigError(f"duration {self.duration} is under half a tick of {self.tick}")
        if self.executions_per_tick < 1:
            raise ConfigError("executions_per_tick must be at least 1")
        if round(self.duration / self.tick) * self.executions_per_tick > MAX_EXECUTIONS_PER_LEAF:
            raise ConfigError(f"duration / tick * executions_per_tick must be at most "
                              f"{MAX_EXECUTIONS_PER_LEAF:,} executions per leaf, got "
                              f"{self.duration} / {self.tick} * {self.executions_per_tick}")
        for leaf, r in self.true_reliability.items():
            if not 0.0 <= r <= 1.0:
                raise ConfigError(f"true reliability of {leaf!r} outside [0, 1]: {r}")
        for leaf, w in self.true_cost.items():
            if not 0.0 <= w < math.inf:
                raise ConfigError(f"true cost of {leaf!r} is negative or not finite: {w}")
        if self.hub_leaf and self.hub_leaf not in self.true_reliability:
            raise ConfigError(f"hub leaf {self.hub_leaf!r} has no true parameters")
        for spec in self.sensors:
            for leaf in spec.leaves:
                if leaf not in self.true_reliability:
                    raise ConfigError(f"sensor leaf {leaf!r} has no true parameters")
        for at, delta in self.hub_degradation:
            # A negative delta would lift the hub's reliability above 1.
            if not (math.isfinite(at) and 0 <= delta < math.inf):
                raise ConfigError(f"hub degradation at t={at} needs a finite time and a "
                                  f"finite, non-negative delta, got {delta}")
        times = [at for at, _ in self.hub_degradation]
        if times != sorted(times):
            raise ConfigError("hub_degradation must be ordered by time")


def _field(table: Mapping, key: str, at: str = "") -> Tuple[object, str]:
    """``table[key]`` and its path in the document, ``at + key``, which errors name."""
    if key not in table:
        raise ConfigError(f"scenario missing {at + key!r}")
    return table[key], at + key


def _number(value: object, name: str, integral: bool = False) -> float:
    """A JSON number or a numeric string, integral if asked (an exact ``int``
    then); a boolean is not a number."""
    if integral and type(value) is int:
        return value
    try:
        number = float(value)
        if not isinstance(value, bool) and (number.is_integer() or not integral):
            return int(number) if integral else number
    except (TypeError, ValueError, OverflowError):
        pass
    shape = "an integer" if integral else "a number"
    raise ConfigError(f"scenario {name!r} must be {shape}, got {value!r}")


def _object(value: object, name: str) -> Mapping:
    if not isinstance(value, dict):
        raise ConfigError(f"scenario {name!r} must be an object, got {value!r}")
    return value


def _objects(value: object, name: str) -> List[Tuple[Mapping, str]]:
    """Each object of the list ``value``, with the prefix of its keys' paths."""
    if not isinstance(value, list) or not all(isinstance(x, dict) for x in value):
        raise ConfigError(f"scenario {name!r} must be a list of objects, got {value!r}")
    return [(item, f"{name}[{i}].") for i, item in enumerate(value)]


def _numbers(value: object, name: str, integral: bool = False) -> Dict[str, float]:
    """The object ``value``, a number for each key (a leaf, a knob, a context)."""
    return {k: _number(v, f"{name}.{k}", integral) for k, v in _object(value, name).items()}


def _member(enum: type, value: object, name: str) -> Enum:
    values = [member.value for member in enum]
    if value not in values:
        raise ConfigError(f"scenario {name!r} must be one of {values}, got {value!r}")
    return enum(value)


def load_scenario(text: str, mode: Optional[str] = None) -> ScenarioConfig:
    """Parse a scenario JSON document; ``mode`` overrides the document's.  A
    missing key or a value of the wrong shape is a :class:`ConfigError` that
    names the key by its path, e.g. ``'sensors[0].battery.level'``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario syntax error: {exc.msg} (line {exc.lineno})") from None
    if not isinstance(doc, dict):
        raise ConfigError("scenario document must be a JSON object")
    sensors = []
    for raw, at in _objects(doc.get("sensors", []), "sensors"):
        leaves, name = _field(raw, "leaves", at)
        if not isinstance(leaves, list):
            raise ConfigError(f"scenario {name!r} must be a list of ids, got {leaves!r}")
        battery = _object(*_field(raw, "battery", at))
        sensors.append(SensorSpec(
            id=str(_field(raw, "id", at)[0]),
            context=str(_field(raw, "context", at)[0]),
            leaves=tuple(str(x) for x in leaves),
            battery=BatterySpec(*(_number(*_field(battery, key, at + "battery."))
                                  for key in ("level", "drain", "recharge"))),
        ))
    true, estimates = _object(*_field(doc, "true")), _object(*_field(doc, "estimates"))
    return ScenarioConfig(
        scenario=_member(Scenario, doc.get("scenario", "None"), "scenario"),
        mode=_member(Mode, mode if mode is not None else doc.get("mode", "Tamed"), "mode"),
        seed=_number(*_field(doc, "seed"), integral=True),
        duration=_number(*_field(doc, "duration")),
        tick=_number(doc.get("tick", 1.0), "tick"),
        executions_per_tick=_number(doc.get("executions_per_tick", 10), "executions_per_tick",
                                    integral=True),
        window_size=_number(doc.get("window_size", 100), "window_size", integral=True),
        true_reliability=_numbers(*_field(true, "reliability", "true.")),
        true_cost=_numbers(*_field(true, "cost", "true.")),
        initial_frequency=_numbers(*_field(doc, "initial_frequency")),
        estimate_reliability=_numbers(*_field(estimates, "reliability", "estimates.")),
        estimate_cost=_numbers(*_field(estimates, "cost", "estimates.")),
        sensors=tuple(sensors),
        contexts=_numbers(doc.get("contexts", {}), "contexts", integral=True),
        opt_flags=_numbers(doc.get("opt_flags", {}), "opt_flags", integral=True),
        hub_leaf=str(doc.get("hub_leaf", "")),
        hub_degradation=tuple(
            (_number(*_field(event, "t", at)), _number(*_field(event, "delta", at)))
            for event, at in _objects(doc.get("hub_degradation", []), "hub_degradation")
        ),
    )


# -- the world ------------------------------------------------------------------


@dataclass
class _SensorState:
    spec: SensorSpec
    level: float
    on: bool


@dataclass
class World:
    """Mutable ground truth, advanced one tick at a time.

    ``bindings`` is the binding the goals' circuits read at the true state:
    hub degradation, context flips and :meth:`set_frequencies` write their
    entries in place, next to the per-leaf tables they come from.
    """

    config: ScenarioConfig
    rng: random.Random
    reliability: Dict[str, float]
    cost: Dict[str, float]
    frequency: Dict[str, float]  # per leaf
    sensors: List[_SensorState]
    contexts: Dict[str, int]
    conditioned: Mapping[str, Condition]  # contexts driven by the vitals walk
    vitals: Dict[str, float]
    bindings: Dict[str, float]
    degradations_applied: int = 0

    @classmethod
    def from_config(
        cls,
        config: ScenarioConfig,
        policy: runtime.Policy,
        conditioned: Optional[Mapping[str, Condition]] = None,
    ) -> "World":
        frequency = runtime.expand_assignments(policy, config.initial_frequency)
        for leaf in config.true_reliability:
            frequency.setdefault(leaf, 0.0)
        sensors = [
            _SensorState(spec, spec.battery.level, on=spec.battery.level >= BatterySpec.OFF)
            for spec in config.sensors
        ]
        contexts = dict(config.contexts)
        for state in sensors:
            contexts[state.spec.context] = 1 if state.on else 0
        return cls(
            config=config,
            rng=random.Random(config.seed),
            reliability=dict(config.true_reliability),
            cost=dict(config.true_cost),
            frequency=frequency,
            sensors=sensors,
            contexts=contexts,
            conditioned=dict(conditioned or {}),
            vitals={s: walk[0] for s, walk in _VITAL_WALKS.items()},
            bindings=ParamTable.bindings(
                config.true_reliability, frequency, config.true_cost,
                contexts, config.opt_flags),
        )

    def set_frequencies(self, frequencies: Mapping[str, float]) -> None:
        """Run each leaf of ``frequencies`` at its commanded frequency."""
        for leaf, value in frequencies.items():
            self.frequency[leaf] = value
            self.bindings[ParamTable.frequency(leaf).name] = value

    def _set_context(self, ctx: str, truth: int) -> None:
        self.contexts[ctx] = truth
        self.bindings[ParamTable.context(ctx).name] = truth

    # -- per-tick dynamics -----------------------------------------------

    def inject(self, t: float) -> None:
        """Apply the disturbances scheduled at or before time ``t``."""
        if self.config.scenario is Scenario.SYSTEM_ITSELF:
            for at, delta in self.config.hub_degradation[self.degradations_applied:]:
                if t < at:
                    break
                hub = self.config.hub_leaf
                r = self.reliability[hub] = max(0.0, self.reliability[hub] - delta)
                self.bindings[ParamTable.reliability(hub).name] = r
                self.degradations_applied += 1
        # SystemGoals only mis-sets the initial frequencies, Environment acts
        # through the battery dynamics in step(), and None leaves the world
        # alone.

    def step(self, t: float) -> List[Dict]:
        """Advance one tick and return the telemetry it produced: one
        ``exec`` record per leaf that ran, with the tick's outcomes in order
        and the cost charged per run, and one ``context`` record per flip
        (the shapes :func:`runtime.monitor_ingest` reads)."""
        events: List[Dict] = []
        for state in self.sensors:
            if state.on:
                for leaf in state.spec.leaves:
                    self._run_leaf(leaf, t, state, events)
            state.level = min(1.0, state.level + state.spec.battery.recharge)
            self._settle_battery(state, t, events)
        if self.config.hub_leaf:
            self._run_leaf(self.config.hub_leaf, t, None, events)
        self._walk_vitals(t, events)
        return events

    def _run_leaf(
        self, leaf: str, t: float, sensor: Optional[_SensorState], events: List[Dict]
    ) -> None:
        f, r, draw = self.frequency[leaf], self.reliability[leaf], self.rng.random
        # Per attempt, the filter draws whether it runs and then, only if it
        # does, the element draws whether it succeeds.
        outcomes = [draw() < r for _ in range(self.config.executions_per_tick) if draw() < f]
        if not outcomes:
            return
        events.append({"t": t, "kind": "exec", "leaf": leaf, "outcomes": outcomes,
                       "cost": self.cost[leaf]})
        if sensor is not None:
            level, drain = sensor.level, sensor.spec.battery.drain
            for _ in outcomes:
                level -= drain
            # Drains are non-negative, so one clamp at the end gives what a
            # clamp after every run would: 0 once the level goes negative.
            sensor.level = max(0.0, level)

    def _settle_battery(self, state: _SensorState, t: float, events: List[Dict]) -> None:
        was_on = state.on
        if state.on and state.level < BatterySpec.OFF:
            state.on = False
        elif not state.on and state.level >= BatterySpec.ON:
            state.on = True
        if state.on != was_on:
            ctx = state.spec.context
            self._set_context(ctx, 1 if state.on else 0)
            events.append({"t": t, "kind": "context", "context": ctx, "value": state.on})

    def _walk_vitals(self, t: float, events: List[Dict]) -> None:
        for signal in sorted(self.vitals):
            _, step, lower, upper = _VITAL_WALKS[signal]
            value = self.vitals[signal] + self.rng.uniform(-step, step)
            self.vitals[signal] = min(upper, max(lower + step, value))
        env = dict(self.vitals)
        env["data_validity"] = 1.0  # the clamp keeps every vital in (lower, upper]
        for ctx in sorted(self.conditioned):
            truth = 1 if self.conditioned[ctx].holds(env) else 0
            if truth != self.contexts.get(ctx, truth):
                events.append({"t": t, "kind": "context", "context": ctx, "value": bool(truth)})
            self._set_context(ctx, truth)

    def truth_bindings(self) -> Dict[str, float]:
        """A copy of :attr:`bindings`: every formula parameter at the true state."""
        return dict(self.bindings)


# -- traces ---------------------------------------------------------------------


@dataclass(frozen=True)
class TimeSeries:
    """One closed-loop trace, serializable to CSV byte-for-byte."""

    columns: Tuple[str, ...]
    rows: Tuple[Tuple[float, ...], ...]

    def column(self, name: str) -> List[float]:
        try:
            i = self.columns.index(name)
        except ValueError:
            raise ConfigError(f"trace has no column {name!r}") from None
        return [row[i] for row in self.rows]

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        lines.extend(",".join(_render_cell(v) for v in row) for row in self.rows)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "TimeSeries":
        lines = [line for line in text.splitlines() if line]
        if not lines:
            raise ConfigError("empty trace")
        columns = tuple(lines[0].split(","))
        try:
            rows = tuple(
                tuple(_finite(cell) for cell in line.split(","))
                for line in lines[1:]
            )
        except ValueError as exc:
            raise ConfigError(f"bad trace cell: {exc}") from None
        if any(len(row) != len(columns) for row in rows):
            raise ConfigError("ragged trace rows")
        return cls(columns, rows)


def _finite(cell: str) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"{cell!r} is not a finite number")
    return value


def _render_cell(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


# -- the closed loop --------------------------------------------------------------


def run(
    config: ScenarioConfig,
    policy: runtime.Policy,
    model: GoalModel,
    forms: Optional[Mapping[str, NodeForms]] = None,
) -> TimeSeries:
    """Drive the controller against the simulated world for the configured span.

    The untamed mode never ingests telemetry, so its controller acts on the
    static priors for the whole run while the world drifts underneath it.
    Controller and truth both evaluate the policy goals' circuits, built from
    ``model`` once per run; ``forms``, the expanded formulae of callers that
    compiled the model already, is accepted but not needed.
    """
    goals = sorted({prop.goal for prop in policy.properties})
    conditioned = {
        ctx: define.condition
        for ctx, define in model.contexts.items()
        if define.condition is not None
    }

    knob_ids = sorted(knob.id for knob in policy.knobs)
    missing = sorted(set(knob_ids) - set(config.initial_frequency))
    if missing:
        raise ConfigError(f"initial_frequency misses knobs {missing}")
    unknown = sorted(set(config.initial_frequency) - set(knob_ids))
    if unknown:
        raise ConfigError(f"initial_frequency names knobs the policy lacks: {unknown}")
    for i, spec in enumerate(config.sensors):
        if spec.context not in model.contexts:
            raise ConfigError(f"scenario 'sensors[{i}].context' names no context of the "
                              f"model, got {spec.context!r}")
    for key, ids, kind in (("contexts", model.contexts, "context"),
                           ("opt_flags", model.placeholders(), "placeholder")):
        for name in getattr(config, key):
            if name not in ids:
                raise ConfigError(f"scenario {key + '.' + name!r} names no {kind} of the model")

    world = World.from_config(config, policy, conditioned)
    state = runtime.initial_state(
        model,
        goals,
        frequencies=dict(world.frequency),
        reliability_priors=config.estimate_reliability,
        cost_priors=config.estimate_cost,
        contexts=dict(world.contexts),
        opt_flags=config.opt_flags,
        window_size=config.window_size,
    )
    circuits = policy.circuits(state.formulae)

    context_ids = sorted(model.contexts)
    knob_values = dict(config.initial_frequency)
    columns = ("t", "reliability", "cost") + tuple(context_ids) + tuple(knob_ids)

    rows: List[Tuple[float, ...]] = []
    pending: List[Dict[str, float]] = []
    for index in range(int(round(config.duration / config.tick))):
        t = round(index * config.tick, 9)
        if pending:
            assignments = {str(c["knob"]): float(c["value"]) for c in pending}
            knob_values.update(assignments)
            frequencies = runtime.expand_assignments(policy, assignments)
            world.set_frequencies(frequencies)
            state.set_frequencies(frequencies)
            pending = []
        world.inject(t)
        events = world.step(t)
        achieved = policy.reported([symexpr.evaluate(c, world.bindings) for c in circuits])
        rows.append(
            (t, achieved.get("reliability", 0.0), achieved.get("cost", 0.0))
            + tuple(float(world.contexts.get(c, 0)) for c in context_ids)
            + tuple(float(knob_values[k]) for k in knob_ids)
        )
        if config.mode is Mode.TAMED:
            state = runtime.monitor_ingest(state, events)
        actuation = runtime.plan(state, policy)
        pending = runtime.execute(actuation, knob_values)
    return TimeSeries(columns, tuple(rows))


# -- comparison metrics ------------------------------------------------------------


def setpoint_distance(values: Sequence[float], setpoint: float) -> float:
    """Mean absolute distance of a series from its setpoint."""
    if not values:
        raise ConfigError("empty series")
    # Left to right, as the built-in sum adds floats before Python 3.12, so
    # every interpreter prints the same report.
    total = 0.0
    for v in values:
        total += abs(v - setpoint)
    return total / len(values)


def metrics(
    tamed: TimeSeries,
    untamed: TimeSeries,
    setpoints: Mapping[str, float],
) -> Dict[str, object]:
    """Setpoint distances of both traces plus the taming enhancement ratios.

    A zero tamed distance makes the corresponding ratio infinite.
    """
    if len(tamed.rows) != len(untamed.rows):
        raise ConfigError("traces have different lengths")
    distances_tamed: Dict[str, float] = {}
    distances_untamed: Dict[str, float] = {}
    out: Dict[str, object] = {
        "d_tamed": distances_tamed, "d_untamed": distances_untamed,
    }
    for metric, ratio_name in (("reliability", "e_r"), ("cost", "e_c")):
        setpoint = setpoints[metric]
        d_tamed = setpoint_distance(tamed.column(metric), setpoint)
        d_untamed = setpoint_distance(untamed.column(metric), setpoint)
        distances_tamed[metric] = d_tamed
        distances_untamed[metric] = d_untamed
        out[ratio_name] = d_untamed / d_tamed if d_tamed > 0 else float("inf")
    return out
