"""Feedback controller: monitor, analyze, plan, execute over compiled formulae.

The knowledge state carries windowed per-leaf estimates (success rate, mean
cost sample) next to commanded frequencies, context truths, and placeholder
flags — enough to bind every parameter of the goals' formula circuits.  The
planner is an exhaustive, deterministic grid search over frequency knobs,
where one knob fans out to a whole group of leaves (e.g. "all sensor tasks")
and no two knobs share a leaf: each grid point binds the knob's value to the
frequency of every leaf it drives.  The search runs the circuits through :func:`symexpr.sweep`, so the
arithmetic no knob reaches runs once per search and each grid point runs
only the part its innermost knob drives.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from . import symexpr
from .cgm import GoalModel, ParamTable
from .compiler import NodeForms, compile_circuits


class PolicyError(ValueError):
    """Raised for an ill-formed policy document."""


class StateError(ValueError):
    """Raised for a knowledge state out of range or unable to bind its goals."""


class PlanError(RuntimeError):
    """Raised when the planner cannot search the configured action space."""


# -- policy -------------------------------------------------------------------


class Metric(Enum):
    RELIABILITY = "Reliability"
    COST = "Cost"


@dataclass(frozen=True)
class PropertyTarget:
    """One controlled property: hold ``metric`` of ``goal`` at ``setpoint``."""

    metric: Metric
    goal: str
    setpoint: float
    margin: float  # tolerated relative deviation, e.g. 0.02

    def __post_init__(self) -> None:
        if not math.isfinite(self.setpoint):
            raise PolicyError(f"setpoint must be finite, got {self.setpoint}")
        if not 0 < self.margin < math.inf:
            raise PolicyError(f"margin must be finite and positive, got {self.margin}")

    def in_margin(self, current: float) -> bool:
        return abs(current - self.setpoint) <= self.margin * self.setpoint


@dataclass(frozen=True)
class Knob:
    """A frequency actuator driving one or more leaves in lockstep."""

    id: str
    leaves: Tuple[str, ...]
    minimum: float
    maximum: float
    step: float

    def __post_init__(self) -> None:
        if not self.leaves:
            raise PolicyError(f"knob {self.id!r} drives no leaves")
        if self.minimum > self.maximum:
            raise PolicyError(f"knob {self.id!r}: min exceeds max")
        # Knob values are leaf frequencies.
        if not 0.0 <= self.minimum <= self.maximum <= 1.0:
            raise PolicyError(
                f"knob {self.id!r}: range [{self.minimum}, {self.maximum}] "
                "is not within [0, 1]"
            )
        if not self.step > 0:
            raise PolicyError(f"knob {self.id!r}: step must be positive")

    @property
    def grid_size(self) -> int:
        return int(math.floor((self.maximum - self.minimum) / self.step + 1e-9)) + 1

    def values(self) -> List[float]:
        """The grid points of this knob's domain, ascending."""
        return [round(self.minimum + i * self.step, 10) for i in range(self.grid_size)]


@dataclass(frozen=True)
class Policy:
    """What the loop controls: which circuit each property reads, when
    values satisfy the policy, how they score and which one each metric
    reports.  ``values`` holds one value per property, in order."""

    properties: Tuple[PropertyTarget, ...]
    knobs: Tuple[Knob, ...]
    combination: object = "and"  # "and" | "or" | nested ["and", 0, ["or", 1, 2]]

    def __post_init__(self) -> None:
        if not self.properties:
            raise PolicyError("policy declares no properties")
        ids = [k.id for k in self.knobs]
        if len(set(ids)) != len(ids):
            raise PolicyError("duplicate knob id")
        # A leaf has one owner, so a knob's value is its leaves' frequency.
        owner: Dict[str, str] = {}
        for knob in self.knobs:
            for leaf in knob.leaves:
                if owner.setdefault(leaf, knob.id) != knob.id:
                    raise PolicyError(
                        f"knobs {owner[leaf]!r} and {knob.id!r} both drive leaf {leaf!r}"
                    )
        _check_combination(self.combination, len(self.properties))

    def circuits(self, formulae: Mapping[str, NodeForms]) -> List[symexpr.Circuit]:
        """Each property's circuit: its goal's reliability or cost."""
        out = []
        for prop in self.properties:
            try:
                forms = formulae[prop.goal]
            except KeyError:
                raise StateError(f"no compiled formulae for goal {prop.goal!r}") from None
            out.append(forms.reliability if prop.metric is Metric.RELIABILITY else forms.cost)
        return out

    def satisfied(self, values: Sequence[float]) -> bool:
        """Whether the combination holds over the properties' in-margin flags."""
        return combination_satisfied(
            self.combination, [p.in_margin(v) for p, v in zip(self.properties, values)]
        )

    def objective(self, values: Sequence[float]) -> float:
        """The sum of setpoint-normalized absolute errors; lower is better."""
        total = 0.0
        for prop, value in zip(self.properties, values):
            scale = abs(prop.setpoint) or 1.0
            total += abs(value - prop.setpoint) / scale
        return total

    def reported(self, values: Sequence[float]) -> Dict[str, float]:
        """The value of each metric's first property, keyed by the lower-case
        metric name (``"reliability"``, ``"cost"``)."""
        out: Dict[str, float] = {}
        for prop, value in zip(self.properties, values):
            out.setdefault(prop.metric.value.lower(), value)
        return out


def _check_combination(comb: object, n_properties: int) -> None:
    if isinstance(comb, str):
        if comb.lower() not in ("and", "or"):
            raise PolicyError(f"unknown combination {comb!r}")
        return
    if isinstance(comb, int) and not isinstance(comb, bool):
        if not 0 <= comb < n_properties:
            raise PolicyError(f"combination references property {comb}")
        return
    if isinstance(comb, (list, tuple)) and comb and comb[0] in ("and", "or"):
        if len(comb) < 2:
            raise PolicyError("empty combination clause")
        for sub in comb[1:]:
            _check_combination(sub, n_properties)
        return
    raise PolicyError(f"malformed combination clause: {comb!r}")


def combination_satisfied(comb: object, flags: Sequence[bool]) -> bool:
    """Evaluate the policy's propositional combination over in-margin flags."""
    if isinstance(comb, str):
        return all(flags) if comb.lower() == "and" else any(flags)
    if isinstance(comb, int) and not isinstance(comb, bool):
        return flags[comb]
    op, args = comb[0], comb[1:]
    results = (combination_satisfied(sub, flags) for sub in args)
    return all(results) if op == "and" else any(results)


def load_policy(text: str, model: GoalModel) -> Policy:
    """Parse a policy JSON document and resolve knob groups against a model.

    A knob's ``id`` may name any node of the model: the knob then drives all
    executable leaves under it.  An explicit ``leaves`` list overrides that.
    """
    import json

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PolicyError(f"policy syntax error: {exc.msg} (line {exc.lineno})") from None
    if not isinstance(doc, dict) or "properties" not in doc:
        raise PolicyError("policy document must be an object with 'properties'")

    properties = []
    for raw in doc["properties"]:
        try:
            metric = Metric(raw["metric"])
        except (KeyError, ValueError):
            raise PolicyError(f"property needs a metric of {[m.value for m in Metric]}")
        for key in ("goal", "setpoint", "margin"):
            if key not in raw:
                raise PolicyError(f"property missing {key!r}")
        model.node(str(raw["goal"]))  # unknown-goal check
        setpoint, margin = _numbers(raw, ("setpoint", "margin"), "property")
        properties.append(PropertyTarget(metric, str(raw["goal"]), setpoint, margin))

    knobs = []
    for raw in doc.get("knobs", []):
        for key in ("id", "min", "max", "step"):
            if key not in raw:
                raise PolicyError(f"knob missing {key!r}")
        kid = str(raw["id"])
        if "leaves" in raw:
            leaves = tuple(str(x) for x in raw["leaves"])
        else:
            leaves = tuple(model.leaves_under(kid))
        for leaf in leaves:
            if not model.node(leaf).is_executable:
                raise PolicyError(f"knob {kid!r}: {leaf!r} is not an executable leaf")
        knobs.append(Knob(kid, leaves, *_numbers(raw, ("min", "max", "step"), f"knob {kid!r}")))

    return Policy(tuple(properties), tuple(knobs), doc.get("combination", "and"))


def _numbers(raw: Mapping, keys: Sequence[str], owner: str) -> List[float]:
    """``raw[key]`` as floats, or a :class:`PolicyError` naming the bad key."""
    out = []
    for key in keys:
        try:
            out.append(float(raw[key]))
        except (TypeError, ValueError):
            raise PolicyError(f"{owner}: {key!r} must be a number, got {raw[key]!r}") from None
    return out


# -- knowledge ----------------------------------------------------------------


@dataclass(frozen=True)
class KnowledgeState:
    """Everything the controller believes about the managed system.

    Estimates fall back to the configured priors until the corresponding
    sliding window holds at least one sample; a controller that never
    ingests telemetry therefore acts on its static priors forever.
    """

    formulae: Mapping[str, NodeForms]  # goal id -> circuit triple
    prior_reliability: Mapping[str, float]
    prior_cost: Mapping[str, float]
    frequency: Mapping[str, float]
    context_truth: Mapping[str, int]
    opt_flags: Mapping[str, int] = field(default_factory=dict)
    exec_windows: Mapping[str, Tuple[int, ...]] = field(default_factory=dict)
    cost_windows: Mapping[str, Tuple[float, ...]] = field(default_factory=dict)
    window_size: int = 100
    timestamp: float = 0.0
    dropped: int = 0

    def __post_init__(self) -> None:
        if self.window_size < 1:
            raise StateError("window size must be at least 1")
        for name, table in (("reliability", self.prior_reliability),
                            ("frequency", self.frequency)):
            for leaf, value in table.items():
                if not 0.0 <= value <= 1.0:
                    raise StateError(f"{name} of {leaf!r} outside [0, 1]: {value}")
        for leaf, value in self.prior_cost.items():
            if not 0.0 <= value < math.inf:
                raise StateError(f"cost of {leaf!r} is negative or not finite: {value}")
        for ctx, truth in self.context_truth.items():
            if truth not in (0, 1):
                raise StateError(f"context {ctx!r} truth must be 0 or 1")

    def reliability_estimate(self, leaf: str) -> float:
        window = self.exec_windows.get(leaf)
        if window:
            return sum(window) / len(window)
        return self.prior_reliability[leaf]

    def cost_estimate(self, leaf: str) -> float:
        window = self.cost_windows.get(leaf)
        if window:
            return sum(window) / len(window)
        return self.prior_cost[leaf]

    def param_bindings(self) -> Dict[str, float]:
        """Bind every formula parameter from the current beliefs."""
        leaves = self.prior_reliability
        return ParamTable.bindings(
            {leaf: self.reliability_estimate(leaf) for leaf in leaves},
            self.frequency,
            {leaf: self.cost_estimate(leaf) for leaf in leaves},
            self.context_truth,
            self.opt_flags,
        )

    def with_frequencies(self, assignments: Mapping[str, float]) -> "KnowledgeState":
        merged = dict(self.frequency)
        merged.update(assignments)
        return replace(self, frequency=merged)


def initial_state(
    model: GoalModel,
    goals: Iterable[str],
    *,
    frequencies: Mapping[str, float],
    reliability_priors: Mapping[str, float],
    cost_priors: Mapping[str, float],
    contexts: Mapping[str, int],
    opt_flags: Optional[Mapping[str, int]] = None,
    window_size: int = 100,
) -> KnowledgeState:
    """Build a knowledge state and check it resolves every formula parameter.

    The state holds a circuit triple for each of ``goals``, built from
    ``model``.  Any iterable of goal ids will do; the mapping
    :func:`compiler.compile_model` returns gives its node ids.
    """
    opts = dict(opt_flags) if opt_flags is not None else {
        p: 0 for p in model.placeholders()
    }
    state = KnowledgeState(
        formulae=compile_circuits(model, goals),
        prior_reliability=dict(reliability_priors),
        prior_cost=dict(cost_priors),
        frequency=dict(frequencies),
        context_truth=dict(contexts),
        opt_flags=opts,
        window_size=window_size,
    )
    bindings = state.param_bindings()
    for goal, forms in state.formulae.items():
        for expr in (forms.reliability, forms.cost):
            missing = [p for p in expr.parameter_names() if p not in bindings]
            if missing:
                raise StateError(
                    f"goal {goal!r}: unresolved formula parameters {missing}"
                )
    return state


# -- monitor ------------------------------------------------------------------


def monitor_ingest(
    state: KnowledgeState,
    events: Iterable[Mapping],
    now: Optional[float] = None,
) -> KnowledgeState:
    """Fold a telemetry batch into fresh windowed estimates.

    Event shapes: ``{"t", "kind": "exec", "leaf", "success"}``,
    ``{"t", "kind": "cost", "leaf", "value"}``, and
    ``{"t", "kind": "context", "context", "value"}``.  Malformed events are
    counted in ``dropped`` and skipped; an empty batch only moves the clock.
    """
    exec_windows = {leaf: list(w) for leaf, w in state.exec_windows.items()}
    cost_windows = {leaf: list(w) for leaf, w in state.cost_windows.items()}
    contexts = dict(state.context_truth)
    dropped = state.dropped
    timestamp = state.timestamp

    for event in events:
        try:
            timestamp = max(timestamp, float(event["t"]))
            kind = event["kind"]
            if kind == "exec":
                leaf = str(event["leaf"])
                if leaf not in state.prior_reliability:
                    raise KeyError(leaf)
                exec_windows.setdefault(leaf, []).append(1 if event["success"] else 0)
            elif kind == "cost":
                leaf = str(event["leaf"])
                value = float(event["value"])
                if leaf not in state.prior_cost or not 0.0 <= value < math.inf:
                    raise ValueError(value)
                cost_windows.setdefault(leaf, []).append(value)
            elif kind == "context":
                contexts[str(event["context"])] = 1 if event["value"] else 0
            else:
                raise ValueError(kind)
        except (KeyError, TypeError, ValueError):
            dropped += 1

    n = state.window_size
    if now is not None:
        timestamp = max(timestamp, now)
    return replace(
        state,
        exec_windows={leaf: tuple(w[-n:]) for leaf, w in exec_windows.items()},
        cost_windows={leaf: tuple(w[-n:]) for leaf, w in cost_windows.items()},
        context_truth=contexts,
        timestamp=timestamp,
        dropped=dropped,
    )


# -- analyze ------------------------------------------------------------------


@dataclass(frozen=True)
class PropertyReading:
    metric: Metric
    goal: str
    current: float
    error: float  # current - setpoint
    in_margin: bool


@dataclass(frozen=True)
class AnalysisReport:
    readings: Tuple[PropertyReading, ...]
    satisfied: bool


def analyze(state: KnowledgeState, policy: Policy) -> AnalysisReport:
    """Evaluate every controlled property against the current beliefs."""
    bindings = state.param_bindings()
    values = [symexpr.evaluate(c, bindings) for c in policy.circuits(state.formulae)]
    readings = tuple(
        PropertyReading(prop.metric, prop.goal, value, value - prop.setpoint,
                        prop.in_margin(value))
        for prop, value in zip(policy.properties, values)
    )
    return AnalysisReport(readings, policy.satisfied(values))


# -- plan ---------------------------------------------------------------------


@dataclass(frozen=True)
class Actuation:
    """A knob assignment with its predicted effect."""

    assignments: Mapping[str, float]  # knob id -> value
    predicted: Mapping[str, float]  # metric name -> predicted value
    feasible: bool


#: Upper bound on the exhaustive search's candidate count.
DEFAULT_GRID_CAP = 1_000_000


def plan(state: KnowledgeState, policy: Policy) -> Actuation:
    """Search the knob grid exhaustively for the best feasible assignment.

    Returns the identity actuation while the policy combination is already
    satisfied.  Otherwise every point of the Cartesian knob grid is scored
    by the sum of setpoint-normalized absolute errors; the best candidate
    satisfying the combination wins, and when none does, the overall
    minimizer is returned flagged ``feasible=False``.  Candidates tie-break
    on lexicographic knob-value order, so planning is a pure function.
    """
    report = analyze(state, policy)
    current = {
        knob.id: state.frequency[knob.leaves[0]] for knob in policy.knobs
    }
    if report.satisfied or not policy.knobs:
        predicted = policy.reported([reading.current for reading in report.readings])
        return Actuation(current, predicted, feasible=report.satisfied)

    knobs = sorted(policy.knobs, key=lambda k: k.id)
    total = math.prod(knob.grid_size for knob in knobs)
    if total > DEFAULT_GRID_CAP:
        raise PlanError(f"knob grid holds {total} candidates (cap {DEFAULT_GRID_CAP})")
    grids = [knob.values() for knob in knobs]

    # A grid point binds each knob's value to the frequency of every leaf the
    # knob drives, over the current beliefs.
    driven = [[ParamTable.frequency(leaf).name for leaf in knob.leaves] for knob in knobs]
    points = symexpr.sweep(
        policy.circuits(state.formulae),
        state.param_bindings(),
        list(zip(driven, grids)),
    )
    # Feasible points rank first.  ``min`` keeps the first of equal keys and
    # compares with ``<``, so ties go to the earliest grid point; it streams,
    # so a grid near the cap is never held in memory.
    values, currents = min(
        zip(itertools.product(*grids), points),
        key=lambda point: (not policy.satisfied(point[1]), policy.objective(point[1])),
    )
    return Actuation(
        assignments={knob.id: v for knob, v in zip(knobs, values)},
        predicted=policy.reported(currents),
        feasible=policy.satisfied(currents),
    )


# -- execute ------------------------------------------------------------------


def execute(
    actuation: Actuation,
    current: Optional[Mapping[str, float]] = None,
) -> List[Dict[str, float]]:
    """Turn an actuation into frequency-set commands for changed knobs.

    With ``current`` omitted every assignment is commanded.  Commands come
    out ordered by knob id, so replaying a command stream is deterministic.
    """
    commands = []
    for knob_id in sorted(actuation.assignments):
        value = actuation.assignments[knob_id]
        if current is not None and knob_id in current:
            if abs(current[knob_id] - value) <= 1e-12:
                continue
        commands.append({"knob": knob_id, "value": value})
    return commands


def expand_assignments(
    policy: Policy, assignments: Mapping[str, float]
) -> Dict[str, float]:
    """Spell knob-level assignments out to per-leaf frequencies."""
    out: Dict[str, float] = {}
    by_id = {knob.id: knob for knob in policy.knobs}
    for knob_id, value in assignments.items():
        for leaf in by_id[knob_id].leaves:
            out[leaf] = value
    return out
