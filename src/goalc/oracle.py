"""Brute-force ground truth for goal satisfaction probability and cost.

This module never looks at compiled formulae.  It enumerates the joint
outcomes of every executable leaf directly on the goal-model tree and sums
probability mass, which makes it an independent check on the compiler:

* a leaf runs with probability ``c*f`` (context truth times commanded
  frequency; placeholders are additionally gated by their OPT flag) and
  then succeeds with probability ``r``, giving the outcome trio
  Success ``c*f*r``, Failure ``c*f*(1-r)``, Skipped ``1-c*f``;
* a node's satisfaction is the plain success circuit: And nodes need every
  child satisfied, Or and runtime-decision nodes need at least one — with
  the fixed context truths the runtime choice collapses to the induced
  chain over the viable alternatives;
* cost sums the weight of every leaf that actually ran on satisfying
  outcomes.  Which leaves run depends on the execution-order semantics:
  by default And children all run while Or/runtime-decision children are
  tried in order until one satisfies (short-circuit), and both semantics
  can be forced globally.

Satisfaction probability is insensitive to the execution order; expected
cost is not, and the closed cost formulae are only reproduced exactly on
And-only trees (any binding) and on a binary Or/decision root over
And-only subtrees when every frequency is 1.  ``check_formula`` encodes
exactly that applicability rule.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .cgm import (
    ContextDef,
    Decomposition,
    GoalModel,
    ModelError,
    Node,
    NodeKind,
    ParamTable,
)

Number = Union[int, float, Fraction]


class ExecMode(Enum):
    """Execution-order semantics used for cost accounting."""

    DEFAULT = "default"  # And children all run; Or/decision short-circuit
    RUN_ALL = "run-all"
    SHORT_CIRCUIT = "short-circuit"


@dataclass(frozen=True)
class ConcreteBinding:
    """Concrete values for one evaluation of a model.

    ``values`` maps parameter names (``r_*``, ``f_*``, ``w_*``) to numbers;
    ``contexts`` maps context ids to 0/1 truth; ``opt_flags`` maps
    placeholder node ids to 0/1 existence.
    """

    values: Mapping[str, Number]
    contexts: Mapping[str, int] = field(default_factory=dict)
    opt_flags: Mapping[str, int] = field(default_factory=dict)

    def context_truth(self, context_id: str) -> int:
        v = self.contexts.get(context_id, 1)
        if v not in (0, 1):
            raise ModelError(f"context {context_id!r} truth must be 0 or 1, got {v!r}")
        return v

    def opt(self, node_id: str) -> int:
        v = self.opt_flags.get(node_id, 0)
        if v not in (0, 1):
            raise ModelError(f"OPT flag of {node_id!r} must be 0 or 1, got {v!r}")
        return v


def param_map(model: GoalModel, binding: ConcreteBinding) -> Dict[str, Number]:
    """Flatten a binding into a parameter-name map for formula evaluation.

    Every referenced context is bound (true unless the binding says
    otherwise) and every placeholder's OPT flag (absent unless it says so).
    """
    nodes = model.nodes.values()
    return {**binding.values, **ParamTable.bindings(
        {}, {}, {},
        contexts={c: binding.context_truth(c) for n in nodes for c in n.contexts},
        opt_flags={n.id: binding.opt(n.id) for n in nodes if n.kind == NodeKind.PLACEHOLDER},
    )}


# -- leaf outcome machinery ----------------------------------------------------


@dataclass(frozen=True)
class LeafOutcome:
    """The probability trio of one executable leaf under a binding."""

    leaf_id: str
    success: Number
    failure: Number
    skipped: Number


def _leaf_value(binding: ConcreteBinding, name: str) -> Number:
    if name not in binding.values:
        raise ModelError(f"binding missing value for {name!r}")
    return binding.values[name]


def leaf_outcomes(
    model: GoalModel, goal_id: str, binding: ConcreteBinding
) -> List[LeafOutcome]:
    """Outcome trios for every leaf under ``goal_id``, in depth-first order.

    The execution gate of a leaf multiplies the context truths of every
    node on the path from (and excluding) the goal down to the leaf itself,
    and the OPT flag for placeholders; the trio of each leaf sums to 1
    exactly under rational arithmetic.
    """
    out: List[LeafOutcome] = []
    # Exact arithmetic when every bound value is exact, floats otherwise.
    exact = all(isinstance(v, (int, Fraction)) for v in binding.values.values())
    one: Number = Fraction(1) if exact else 1.0

    def descend(node_id: str, gate: Number) -> None:
        node = model.node(node_id)
        if node_id != goal_id:
            for ctx in node.contexts:
                gate = gate * binding.context_truth(ctx)
        if node.kind == NodeKind.PLACEHOLDER:
            gate = gate * binding.opt(node_id)
        if node.is_executable:
            r = _leaf_value(binding, ParamTable.reliability(node_id).name)
            f = _leaf_value(binding, ParamTable.frequency(node_id).name)
            execp = gate * f
            out.append(
                LeafOutcome(node_id, execp * r, execp * (one - r), one - execp)
            )
            return
        for child in node.children:
            descend(child, gate)

    descend(goal_id, one)
    return out


def _sat_circuit(model: GoalModel, goal_id: str, leaf_index: Mapping[str, int]):
    """Compile the subtree into a closure over leaf success tuples."""
    node = model.node(goal_id)
    if node.is_executable:
        i = leaf_index[node.id]
        return lambda succ: succ[i]
    children = [
        _sat_circuit(model, c, leaf_index)
        for c in (node.dm_order if node.dm_order is not None else node.children)
    ]
    if node.dm_order is not None or node.decomposition == Decomposition.OR:
        return lambda succ: any(ch(succ) for ch in children)
    return lambda succ: all(ch(succ) for ch in children)


def prob_reach(model: GoalModel, goal_id: str, binding: ConcreteBinding) -> Number:
    """Probability that the goal is satisfied under the binding.

    Satisfaction only reads each leaf's success indicator, so the skipped
    and failed outcomes are collapsed and the enumeration runs over the
    2^L success vectors; ``_prob_reach_full`` keeps the literal 3^L walk
    for cross-checking.
    """
    leaves = leaf_outcomes(model, goal_id, binding)
    if len(leaves) > 20:
        raise ModelError(f"goal {goal_id!r} has {len(leaves)} leaves; oracle caps at 20")
    index = {lo.leaf_id: i for i, lo in enumerate(leaves)}
    circuit = _sat_circuit(model, goal_id, index)
    one = Fraction(1) if leaves and isinstance(leaves[0].success, Fraction) else 1.0
    total = one - one  # typed zero
    for mask in itertools.product((False, True), repeat=len(leaves)):
        if not circuit(mask):
            continue
        p = one
        for i, lo in enumerate(leaves):
            p = p * (lo.success if mask[i] else (one - lo.success))
        total = total + p
    return total


def _prob_reach_full(
    model: GoalModel, goal_id: str, binding: ConcreteBinding
) -> Number:
    """Literal three-outcome enumeration of satisfaction probability."""
    leaves = leaf_outcomes(model, goal_id, binding)
    index = {lo.leaf_id: i for i, lo in enumerate(leaves)}
    circuit = _sat_circuit(model, goal_id, index)
    one = Fraction(1) if leaves and isinstance(leaves[0].success, Fraction) else 1.0
    total = one - one
    choices = [
        ((True, lo.success), (False, lo.failure), (False, lo.skipped))
        for lo in leaves
    ]
    for combo in itertools.product(*choices):
        succ = tuple(c[0] for c in combo)
        if not circuit(succ):
            continue
        p = one
        for _, pr in combo:
            p = p * pr
        total = total + p
    return total


# -- cost ----------------------------------------------------------------------

_SUCCESS, _FAILURE, _SKIPPED = 0, 1, 2


def cost_reach(
    model: GoalModel,
    goal_id: str,
    binding: ConcreteBinding,
    mode: ExecMode = ExecMode.DEFAULT,
) -> Number:
    """Expected cost mass accumulated on satisfying outcomes.

    Sums, over every joint leaf-outcome vector, the probability of the
    vector times the total weight of leaves that ran, counting only vectors
    whose outcome satisfies the goal.  ``mode`` fixes which leaves run.
    """
    leaves = leaf_outcomes(model, goal_id, binding)
    if len(leaves) > 12:
        raise ModelError(
            f"goal {goal_id!r} has {len(leaves)} leaves; cost oracle caps at 12"
        )
    index = {lo.leaf_id: i for i, lo in enumerate(leaves)}
    weights = [_leaf_value(binding, ParamTable.cost_weight(lo.leaf_id).name) for lo in leaves]
    exact = leaves and isinstance(leaves[0].success, Fraction)
    one = Fraction(1) if exact else 1.0
    zero = one - one

    def walk(node_id: str, vec) -> Tuple[bool, Number]:
        node = model.node(node_id)
        if node.is_executable:
            i = index[node.id]
            if vec[i] == _SKIPPED:
                return False, zero
            return vec[i] == _SUCCESS, weights[i]
        order = node.dm_order if node.dm_order is not None else node.children
        is_or = node.dm_order is not None or node.decomposition == Decomposition.OR
        sat: bool
        cost = zero
        if is_or:
            short = mode in (ExecMode.DEFAULT, ExecMode.SHORT_CIRCUIT)
            sat = False
            for child in order:
                csat, ccost = walk(child, vec)
                cost = cost + ccost
                if csat:
                    sat = True
                    if short:
                        break
        else:
            short = mode == ExecMode.SHORT_CIRCUIT
            sat = True
            for child in order:
                csat, ccost = walk(child, vec)
                cost = cost + ccost
                if not csat:
                    sat = False
                    if short:
                        break
        return sat, cost

    total = zero
    choices = [
        ((_SUCCESS, lo.success), (_FAILURE, lo.failure), (_SKIPPED, lo.skipped))
        for lo in leaves
    ]
    for combo in itertools.product(*choices):
        vec = tuple(c[0] for c in combo)
        sat, cost = walk(goal_id, vec)
        if not sat:
            continue
        p = one
        for _, pr in combo:
            p = p * pr
        total = total + p * cost
    return total


# -- formula checking ----------------------------------------------------------


def cost_comparable(model: GoalModel, goal_id: str, binding: ConcreteBinding) -> bool:
    """Whether the closed cost formula is exactly reproduced by execution.

    True for And-only subtrees under any binding, and for a binary
    Or/decision goal over placeholder-free And-only subtrees when every
    frequency under the goal binds to 1.  (A placeholder under an Or breaks
    equivalence because its weight propagates un-gated by the OPT flag,
    while under And the reliability factor zeroes the whole product.)
    """

    def and_only(node_id: str, allow_placeholder: bool) -> bool:
        node = model.node(node_id)
        if node.kind == NodeKind.PLACEHOLDER:
            return allow_placeholder
        if node.is_executable:
            return True
        if node.dm_order is not None or node.decomposition == Decomposition.OR:
            return False
        return all(and_only(c, allow_placeholder) for c in node.children)

    if and_only(goal_id, allow_placeholder=True):
        return True
    goal = model.node(goal_id)
    is_or_root = not goal.is_executable and (
        goal.dm_order is not None or goal.decomposition == Decomposition.OR
    )
    if not is_or_root or len(goal.children) != 2:
        return False
    if not all(and_only(c, allow_placeholder=False) for c in goal.children):
        return False
    return all(
        _leaf_value(binding, ParamTable.frequency(leaf).name) == 1
        for leaf in model.leaves_under(goal_id)
    )


@dataclass(frozen=True)
class CheckResult:
    goal_id: str
    reliability_formula: float
    reliability_oracle: float
    reliability_delta: float
    cost_applicable: bool
    cost_formula: Optional[float] = None
    cost_oracle: Optional[float] = None
    cost_delta: Optional[float] = None

    def ok(self, tol: float = 1e-9) -> bool:
        """Every compared delta is within ``tol``; fails closed, so a NaN
        delta or tolerance is never ok."""
        deltas = [self.reliability_delta]
        if self.cost_applicable:
            deltas.append(self.cost_delta)
        return all(d is not None and d <= tol for d in deltas)


def check_formula(
    model: GoalModel,
    goal_id: str,
    forms,
    binding: ConcreteBinding,
    mode: ExecMode = ExecMode.DEFAULT,
) -> CheckResult:
    """Compare compiled formulae against the enumeration oracle."""
    from . import symexpr  # local import to keep the oracle compiler-free elsewhere

    names = param_map(model, binding)
    rel_formula = symexpr.evaluate(forms.reliability, names)
    rel_oracle = float(prob_reach(model, goal_id, binding))
    applicable = cost_comparable(model, goal_id, binding)
    cost_f = cost_o = delta = None
    if applicable:
        cost_f = symexpr.evaluate(forms.cost, names)
        cost_o = float(cost_reach(model, goal_id, binding, mode))
        delta = abs(cost_f - cost_o)
    return CheckResult(
        goal_id=goal_id,
        reliability_formula=rel_formula,
        reliability_oracle=rel_oracle,
        reliability_delta=abs(rel_formula - rel_oracle),
        cost_applicable=applicable,
        cost_formula=cost_f,
        cost_oracle=cost_o,
        cost_delta=delta,
    )


# -- random model/binding generation (verification harness) --------------------


def random_model(rng: random.Random, max_leaves: int = 6) -> GoalModel:
    """A small random goal model exercising every composition feature."""
    counter = itertools.count(1)
    contexts: Dict[str, ContextDef] = {}
    nodes: Dict[str, Node] = {}

    def new_context() -> str:
        cid = f"K{len(contexts) + 1}"
        contexts[cid] = ContextDef(cid, f"environment condition {cid}")
        return cid

    def build(budget: int, depth: int, force_context: bool) -> Tuple[str, int]:
        """Returns (node id, leaves used)."""
        nid = f"N{next(counter)}"
        ctx: Tuple[str, ...] = ()
        if force_context or rng.random() < 0.3:
            ctx = (new_context(),)
        if budget <= 1 or depth >= 3 or rng.random() < 0.35:
            if rng.random() < 0.15:
                pid = nid + ".X"
                nodes[pid] = Node(pid, f"open point {pid}", NodeKind.PLACEHOLDER,
                                  contexts=ctx)
                return pid, 1
            nodes[nid] = Node(nid, f"task {nid}", NodeKind.LEAF_TASK, contexts=ctx)
            return nid, 1
        style = rng.choice(["and", "and", "or", "dm", "chain"])
        if style == "chain":
            child, used = build(budget, depth + 1, False)
            nodes[nid] = Node(
                nid, f"goal {nid}", NodeKind.GOAL, Decomposition.MEANS_END,
                (child,), None, ctx,
            )
            return nid, used
        n_children = min(rng.choice([2, 2, 3]), budget)
        used = 0
        children: List[str] = []
        for i in range(n_children):
            remaining = budget - used - (n_children - 1 - i)
            if remaining < 1:
                break
            child, u = build(
                max(1, min(remaining, budget // n_children + 1)),
                depth + 1,
                force_context=(style == "dm"),
            )
            children.append(child)
            used += u
        if len(children) == 1:
            decomp = Decomposition.AND
            dm = None
        elif style == "dm":
            decomp = Decomposition.OR
            dm = tuple(children)
        elif style == "or":
            decomp = Decomposition.OR
            dm = None
        else:
            decomp = Decomposition.AND
            dm = None
        kind = NodeKind.GOAL if depth == 0 else rng.choice([NodeKind.GOAL, NodeKind.TASK])
        nodes[nid] = Node(nid, f"node {nid}", kind, decomp, tuple(children), dm, ctx)
        return nid, used

    root, _ = build(max_leaves, 0, False)
    # The root's own contexts never enter its compiled formula; drop them so
    # oracle and formula agree on the same quantity.
    r = nodes[root]
    nodes[root] = Node(r.id, r.label, r.kind, r.decomposition, r.children, r.dm_order, ())
    return GoalModel("verifier", root, nodes, contexts)


def random_binding(
    rng: random.Random,
    model: GoalModel,
    unit_frequencies: bool = False,
    context_true_bias: float = 0.7,
) -> ConcreteBinding:
    values: Dict[str, Number] = {}
    for leaf in (n.id for n in model.nodes.values() if n.is_executable):
        values[ParamTable.reliability(leaf).name] = rng.random()
        values[ParamTable.frequency(leaf).name] = 1 if unit_frequencies else rng.random()
        values[ParamTable.cost_weight(leaf).name] = rng.uniform(0.0, 2.0)
    contexts = {
        cid: (1 if rng.random() < context_true_bias else 0) for cid in model.contexts
    }
    opts = {
        pid: (1 if rng.random() < 0.7 else 0) for pid in model.placeholders()
    }
    return ConcreteBinding(values, contexts, opts)
