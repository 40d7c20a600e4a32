"""Feedback controller: monitor, analyze, plan, execute over compiled formulae.

The knowledge state is the binding the goals' formula circuits read, updated
in place: windowed per-leaf estimates (success rate, mean cost sample),
commanded frequencies, context truths and placeholder flags, by parameter
name.  Analysis reports what the planner reads: each property's value and
whether the values satisfy the policy.  The planner is an exhaustive,
deterministic grid search over frequency knobs, where one knob fans out to a
whole group of leaves (e.g. "all sensor tasks") and no two knobs share a leaf:
each grid point binds the knob's value to the frequency of every leaf it
drives.  The search is one generated function, :func:`symexpr.search`: the
arithmetic no knob reaches runs once per search, each grid point runs only the
part its innermost knob drives, and the policy's scoring (:attr:`Policy.rank`:
the in-margin tests, their combination and the objective, the one definition
of what a policy means) runs in the innermost loop, with no Python call per
grid point.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, islice
from typing import (Callable, Deque, Dict, Iterable, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple)

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
        # in_margin scales the margin by the setpoint, so a negative setpoint
        # is never in margin, and no reliability exceeds 1.
        if self.setpoint < 0:
            raise PolicyError(f"setpoint must not be negative, got {self.setpoint}")
        if self.metric is Metric.RELIABILITY and self.setpoint > 1:
            raise PolicyError(f"a Reliability setpoint must not exceed 1, got {self.setpoint}")
        if not 0 < self.margin < math.inf:
            raise PolicyError(f"margin must be finite and positive, got {self.margin}")
        # Floats, so the planner's generated code holds them as exact literals.
        object.__setattr__(self, "setpoint", float(self.setpoint))
        object.__setattr__(self, "margin", float(self.margin))

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
        if not math.isfinite((self.maximum - self.minimum) / self.step):
            raise PolicyError(f"knob {self.id!r}: step {self.step} is too small to count "
                              f"the grid of [{self.minimum}, {self.maximum}]")

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
        self._scorer  # builds :attr:`rank`, which checks the combination

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
        """Whether the combination holds over the in-margin flags: ``rank``'s first part."""
        return self._scorer(*values)[0]

    @functools.cached_property
    def rank(self) -> symexpr.Rank:
        """The ranking of :func:`symexpr.search`, as Python expressions over
        the property values ``y0, y1, ...``: the combination of the in-margin
        tests, and the sum of setpoint-normalized absolute errors (lower is
        better).  Only float literals and those names enter the source."""
        errors = [f"abs(y{i} - {p.setpoint!r})" for i, p in enumerate(self.properties)]
        flags = [f"{e} <= {p.margin * p.setpoint!r}" for e, p in zip(errors, self.properties)]
        terms = [f"{e} / {abs(p.setpoint) or 1.0!r}" for e, p in zip(errors, self.properties)]
        return _combination_source(self.combination, flags), " + ".join(["0.0"] + terms)

    @functools.cached_property
    def _scorer(self) -> Callable[..., Tuple[bool, float]]:
        """:attr:`rank` compiled once: ``(first, key)`` of the values."""
        params = ", ".join(f"y{i}" for i in range(len(self.properties)))
        return eval(f"lambda {params}: ({self.rank[0]}, {self.rank[1]})", {})

    def reported(self, values: Sequence[float]) -> Dict[str, float]:
        """The value of each metric's first property, keyed by the lower-case
        metric name (``"reliability"``, ``"cost"``)."""
        out: Dict[str, float] = {}
        for prop, value in zip(self.properties, values):
            out.setdefault(prop.metric.value.lower(), value)
        return out


#: Nesting bound of combination clauses: the planner compiles the
#: combination into one Python expression, whose parser allows 200 levels
#: of parentheses.
MAX_CLAUSE_DEPTH = 100


def _combination_source(comb: object, flags: Sequence[str], depth: int = 0) -> str:
    """The combination as a Python expression over ``flags``, each property's
    in-margin test, or a :class:`PolicyError` for its first malformed clause."""
    if isinstance(comb, str):
        if comb.lower() not in ("and", "or"):
            raise PolicyError(f"unknown combination {comb!r}")
        op, args = comb.lower(), list(flags)
    elif isinstance(comb, int) and not isinstance(comb, bool):
        # Checked, since ``flags[-1]`` would name the last property.
        if not 0 <= comb < len(flags):
            raise PolicyError(f"combination references property {comb}")
        return flags[comb]
    elif isinstance(comb, (list, tuple)) and comb and comb[0] in ("and", "or"):
        if len(comb) < 2:
            raise PolicyError("empty combination clause")
        if depth == MAX_CLAUSE_DEPTH:
            raise PolicyError(f"combination clauses nest deeper than {MAX_CLAUSE_DEPTH}")
        op, args = comb[0], [_combination_source(sub, flags, depth + 1) for sub in comb[1:]]
    else:
        raise PolicyError(f"malformed combination clause: {comb!r}")
    return "(" + (" and " if op == "and" else " or ").join(args) + ")"


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
    for key in ("properties", "knobs"):
        entries = doc.get(key, [])
        if not isinstance(entries, list) or not all(isinstance(x, dict) for x in entries):
            raise PolicyError(f"policy {key!r} must be a list of objects")

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
            if not isinstance(raw["leaves"], list):
                raise PolicyError(f"knob {kid!r}: 'leaves' must be a list of node ids")
            leaves = tuple(str(x) for x in raw["leaves"])
        else:
            leaves = model.leaves_under(kid)
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
            if isinstance(raw[key], bool):  # float(True) is 1.0
                raise TypeError(key)
            out.append(float(raw[key]))
        except (TypeError, ValueError, OverflowError):
            raise PolicyError(f"{owner}: {key!r} must be a number, got {raw[key]!r}") from None
    return out


# -- knowledge ----------------------------------------------------------------


@dataclass
class KnowledgeState:
    """Everything the controller believes about the managed system.

    ``bindings`` is the binding the circuits read.  A leaf's ``r_``/``w_``
    entry is its prior until its sliding window holds a sample, and the
    window's mean after; a controller that never ingests telemetry acts on
    its static priors forever.  ``successes`` counts the successes in each
    exec window, so the ``r_`` mean needs no sum over the window, and
    ``dropped`` the telemetry records the monitor rejected.  No clock is kept.
    The monitor and :meth:`set_frequencies` update the state in place.
    """

    formulae: Mapping[str, NodeForms]  # goal id -> circuit triple
    bindings: Dict[str, float]
    exec_windows: Dict[str, Deque[int]]
    cost_windows: Dict[str, Deque[float]]
    dropped: int = 0
    successes: Dict[str, int] = field(init=False)

    def __post_init__(self) -> None:
        self.successes = {leaf: sum(w) for leaf, w in self.exec_windows.items()}

    def set_frequencies(self, assignments: Mapping[str, float]) -> None:
        """Bind the commanded frequency of each leaf in ``assignments``."""
        _check_unit("frequency", assignments)
        for leaf, value in assignments.items():
            self.bindings[ParamTable.frequency(leaf).name] = value


def _check_unit(name: str, table: Mapping[str, float]) -> None:
    for leaf, value in table.items():
        if not 0.0 <= value <= 1.0:
            raise StateError(f"{name} of {leaf!r} outside [0, 1]: {value}")


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
    :func:`compiler.compile_model` returns gives its node ids.  Both prior
    tables must name the same leaves, and ``frequencies`` must cover them.
    """
    if window_size < 1:
        raise StateError("window size must be at least 1")
    leaves = set(reliability_priors)
    if set(cost_priors) != leaves:
        raise StateError("reliability and cost priors name different leaves: "
                         f"{sorted(leaves ^ set(cost_priors))}")
    missing = sorted(leaves - set(frequencies))
    if missing:
        raise StateError(f"no frequency for leaves {missing}")
    _check_unit("reliability", reliability_priors)
    _check_unit("frequency", frequencies)
    for leaf, value in cost_priors.items():
        if not 0.0 <= value < math.inf:
            raise StateError(f"cost of {leaf!r} is negative or not finite: {value}")
    for ctx, truth in contexts.items():
        if truth not in (0, 1):
            raise StateError(f"context {ctx!r} truth must be 0 or 1")
    if opt_flags is None:
        opt_flags = dict.fromkeys(model.placeholders(), 0)
    state = KnowledgeState(
        formulae=compile_circuits(model, goals),
        bindings=ParamTable.bindings(
            reliability_priors, frequencies, cost_priors, contexts, opt_flags),
        exec_windows={leaf: deque(maxlen=window_size) for leaf in reliability_priors},
        cost_windows={leaf: deque(maxlen=window_size) for leaf in reliability_priors},
    )
    for goal, forms in state.formulae.items():
        for expr in (forms.reliability, forms.cost):
            missing = [p for p in expr.parameter_names() if p not in state.bindings]
            if missing:
                raise StateError(
                    f"goal {goal!r}: unresolved formula parameters {missing}"
                )
    return state


# -- monitor ------------------------------------------------------------------


def monitor_ingest(state: KnowledgeState, events: Iterable[Mapping]) -> KnowledgeState:
    """Fold a telemetry batch into the windowed estimates, in place.

    Record shapes:

    * ``{"t", "kind": "exec", "leaf", "outcomes": [bool, ...], "cost": w}``:
      one leaf's executions in one tick, in order, each charged ``w``.  The
      outcomes extend the leaf's exec window, and one ``w`` per outcome its
      cost window.
    * ``{"t", "kind": "context", "context", "value"}``.

    A malformed record (a missing or unreadable ``t``, an unknown ``kind`` or
    leaf, ``outcomes`` not a list of booleans, a ``cost`` that is negative
    or not finite) is counted in ``dropped`` and rejected whole: it reaches
    no window or binding; ``t`` is only validated.  An exec record without
    outcomes, like an empty batch, changes nothing.  Returns ``state``.
    """
    bindings, successes = state.bindings, state.successes
    exec_windows, cost_windows = state.exec_windows, state.cost_windows
    for event in events:
        try:
            float(event["t"])
            kind = event["kind"]
            if kind == "exec":
                leaf, outcomes, cost = event["leaf"], event["outcomes"], float(event["cost"])
                if (leaf not in exec_windows or not isinstance(outcomes, list)
                        or not 0.0 <= cost < math.inf):
                    raise ValueError(event)
                ones = outcomes.count(True)
                if ones + outcomes.count(False) != len(outcomes):
                    raise ValueError(outcomes)
                if outcomes:
                    window = exec_windows[leaf]
                    # The deque evicts the oldest samples of window + outcomes.
                    excess = len(window) + len(outcomes) - window.maxlen
                    if excess > 0:
                        ones -= sum(islice(chain(window, outcomes), excess))
                    window.extend(outcomes)
                    successes[leaf] += ones
                    bindings[ParamTable.reliability(leaf).name] = successes[leaf] / len(window)
                    window = cost_windows[leaf]
                    window.extend([cost] * len(outcomes))
                    bindings[ParamTable.cost_weight(leaf).name] = sum(window) / len(window)
            elif kind == "context":
                name = ParamTable.context(str(event["context"])).name
                bindings[name] = 1 if event["value"] else 0
            else:
                raise ValueError(kind)
        except (KeyError, TypeError, ValueError):
            state.dropped += 1
    return state


# -- analyze ------------------------------------------------------------------


class AnalysisReport(NamedTuple):
    """Each property's value, in policy order, and the policy's verdict on them."""

    values: Tuple[float, ...]
    satisfied: bool


def analyze(state: KnowledgeState, policy: Policy) -> AnalysisReport:
    """Evaluate each property's circuit on the current beliefs, and rank the values."""
    values = tuple(symexpr.evaluate(c, state.bindings) for c in policy.circuits(state.formulae))
    return AnalysisReport(values, policy.satisfied(values))


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
    current = {knob.id: state.bindings[ParamTable.frequency(knob.leaves[0]).name]
               for knob in policy.knobs}
    if report.satisfied or not policy.knobs:
        predicted = policy.reported(report.values)
        return Actuation(current, predicted, feasible=report.satisfied)

    knobs = sorted(policy.knobs, key=lambda k: k.id)
    total = math.prod(knob.grid_size for knob in knobs)
    if total > DEFAULT_GRID_CAP:
        raise PlanError(f"knob grid holds {total} candidates (cap {DEFAULT_GRID_CAP})")

    # A grid point binds each knob's value to the frequency of every leaf the
    # knob drives, over the current beliefs.  The search ranks feasible
    # points first, then by objective, and keeps the earliest of equals.
    driven = [[ParamTable.frequency(leaf).name for leaf in knob.leaves] for knob in knobs]
    values, currents = symexpr.search(
        policy.circuits(state.formulae), state.bindings,
        [(names, knob.values()) for names, knob in zip(driven, knobs)], policy.rank)
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
