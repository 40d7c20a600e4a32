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
  chain over the viable alternatives.  ``_truth_table`` evaluates that
  circuit once for all 2^L success vectors, one integer column per node
  with one bit per vector;
* cost sums the weight of every leaf that actually ran on satisfying
  outcomes: And children all run, while Or/runtime-decision children are
  tried in order until one satisfies.  Which vectors a leaf runs on is a
  column too, built from its ancestors' and earlier siblings' columns.

``prob_reach`` and ``cost_reach`` both sum vector probabilities over a
column with ``_mass``: shared left-to-right prefix products, in the order
and rounding of a per-vector loop.

Satisfaction probability is insensitive to the execution order; expected
cost is not, and the closed cost formulae are only reproduced exactly on
And-only trees (any binding) and on a binary Or/decision root over
And-only subtrees when every frequency is 1.  ``check_formula`` encodes
exactly that applicability rule.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

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

    gates: Dict[str, Number] = {goal_id: one}  # each node's parent's gate, then its own
    for node_id in model.preorder(goal_id):
        node = model.nodes[node_id]
        gate = gates[node_id]
        if node_id != goal_id:
            for ctx in node.contexts:
                gate = gate * binding.context_truth(ctx)
        if node.kind == NodeKind.PLACEHOLDER:
            gate = gate * binding.opt(node_id)
        gates[node_id] = gate
        gates.update(dict.fromkeys(node.order, gate))
    for leaf in model.leaves_under(goal_id):
        r = _leaf_value(binding, ParamTable.reliability(leaf).name)
        f = _leaf_value(binding, ParamTable.frequency(leaf).name)
        execp = gates[leaf] * f
        out.append(LeafOutcome(leaf, execp * r, execp * (one - r), one - execp))
    return out


def _leaf_column(i: int, n: int) -> int:
    """Truth column of leaf ``i`` over the 2^n success vectors.

    Bit ``j`` is vector ``j`` of ``itertools.product((False, True),
    repeat=n)``, so leaf ``i`` reads bit ``n - 1 - i`` of ``j``: runs of
    ``half`` clear then ``half`` set bits, repeated.  The pattern is built
    by shift-doubling: each step appends a copy of the bits built so far.
    """
    half = 1 << (n - 1 - i)
    column, width, size = ((1 << half) - 1) << half, 2 * half, 1 << n
    while width < size:
        column |= column << width
        width *= 2
    return column


#: The most leaves an enumeration covers: a truth table holds 2^L bits.
MAX_LEAVES = 20


def _truth_table(
    model: GoalModel, goal_id: str, leaves: Sequence[LeafOutcome]
) -> Tuple[Dict[str, int], int]:
    """Every node's satisfaction over every success vector, one bit each,
    and the all-ones column.

    And nodes intersect their children's columns; Or and runtime-decision
    nodes unite them (with the context truths fixed, the decision's induced
    chain is satisfied exactly when one alternative is).
    """
    n = len(leaves)
    if n > MAX_LEAVES:
        raise ModelError(f"goal {goal_id!r} has {n} leaves; oracle caps at {MAX_LEAVES}")
    index = {lo.leaf_id: i for i, lo in enumerate(leaves)}
    full = (1 << (1 << n)) - 1
    columns: Dict[str, int] = {}
    for node_id in model.postorder(goal_id):
        node = model.nodes[node_id]
        if node.is_executable:
            columns[node_id] = _leaf_column(index[node_id], n)
        elif node.disjunctive:
            columns[node_id] = functools.reduce(operator.or_, map(columns.get, node.order), 0)
        else:
            columns[node_id] = functools.reduce(operator.and_, map(columns.get, node.order), full)
    return columns, full


def _unit(leaves: Sequence[LeafOutcome]) -> Number:
    """The typed one: exact when the leaf outcomes are."""
    return Fraction(1) if leaves and isinstance(leaves[0].success, Fraction) else 1.0


def _expand(prefixes: List[Number], factors: Sequence[Tuple[Number, Number]]) -> List[Number]:
    """Left-to-right products of ``prefixes`` with every factor choice, in
    ``itertools.product`` order (failure factor first, last factor fastest)."""
    for fail, succ in factors:
        prefixes = [p * x for p in prefixes for x in (fail, succ)]
    return prefixes


#: log2 of the success vectors whose probabilities are expanded at once.
_BLOCK_BITS = 10


def _mass(table: int, factors: Sequence[Tuple[Number, Number]], one: Number) -> Number:
    """Sum over the success vectors set in ``table`` of their products.

    Vector ``j``'s product takes, for each leaf ``i``, the first factor of
    pair ``i`` where the leaf's bit is clear and the second where it is set.
    Vectors are taken in blocks of 2^k (k <= ``_BLOCK_BITS``): the first
    L-k leaves pick a block and the last k vary within it.  The products are
    expanded left to right from shared prefixes, and blocks with no set bit
    are skipped.

    Every product is the same ``((one*x_0)*x_1)...*x_(L-1)`` a per-vector
    loop would form, and the chosen ones are added in increasing ``j`` to a
    typed zero, so the result is bit-identical to that loop.  At most
    2^k + 2^(L-k) products are held at once.
    """
    n = len(factors)
    k = min(n, _BLOCK_BITS)
    if n == k:
        blocks: Iterable[int] = (table,)
    else:
        raw = table.to_bytes(1 << (n - 3), "little")
        step = 1 << (k - 3)
        blocks = (int.from_bytes(raw[i:i + step], "little") for i in range(0, len(raw), step))
    total = one - one  # typed zero
    for head, bits in zip(_expand([one], factors[:n - k]), blocks):
        if bits:
            # Bit j of the block, lowest first, selects vector j's product.
            chosen = itertools.compress(_expand([head], factors[n - k:]),
                                        map(int, format(bits, "b")[::-1]))
            total = functools.reduce(operator.add, chosen, total)
    return total


def prob_reach(model: GoalModel, goal_id: str, binding: ConcreteBinding) -> Number:
    """Probability that the goal is satisfied under the binding.

    Satisfaction only reads each leaf's success indicator, so the skipped
    and failed outcomes are collapsed into ``1 - s`` and the sum runs over
    the 2^L success vectors that ``_truth_table`` marks in the goal's
    column.  The result is exact (``Fraction``) when every bound value is
    exact and float otherwise.
    """
    leaves = leaf_outcomes(model, goal_id, binding)
    columns, _ = _truth_table(model, goal_id, leaves)
    one = _unit(leaves)
    return _mass(columns[goal_id], [(one - lo.success, lo.success) for lo in leaves], one)


# -- cost ----------------------------------------------------------------------


def cost_reach(model: GoalModel, goal_id: str, binding: ConcreteBinding) -> Number:
    """Expected cost mass accumulated on satisfying outcomes.

    Every child of an And runs; the children of an Or or decision node run
    in order up to the first one satisfied.  The cost is a sum over leaves,
    E[cost * 1{sat}] = sum_i w_i * P(leaf i ran and the goal is satisfied):

    * a node is tried on the success vectors of its parent, less, under an
      Or or decision node, those on which a sibling ordered before it is
      satisfied; a leaf tried on a vector runs there when it executes;
    * given that leaf i executed, its bit is its success, so the sum over
      its tried-and-satisfying vectors weighs leaf i by (failure, success)
      in place of (1 - success, success).
    """
    leaves = leaf_outcomes(model, goal_id, binding)
    columns, full = _truth_table(model, goal_id, leaves)
    one = _unit(leaves)
    tried = {goal_id: full}
    for node_id in model.preorder(goal_id):
        node = model.nodes[node_id]
        mask = tried[node_id]
        for child in node.order:
            tried[child] = mask
            if node.disjunctive:
                mask &= ~columns[child]
    sat = columns[goal_id]
    factors = [(one - lo.success, lo.success) for lo in leaves]
    total = one - one
    for i, lo in enumerate(leaves):
        w = _leaf_value(binding, ParamTable.cost_weight(lo.leaf_id).name)
        ran = factors[:i] + [(lo.failure, lo.success)] + factors[i + 1:]
        total = total + w * _mass(tried[lo.leaf_id] & sat, ran, one)
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
        """No Or or decision node under ``node_id``, nor a placeholder unless allowed."""
        return all((n.is_executable or not n.disjunctive)
                   and (allow_placeholder or n.kind != NodeKind.PLACEHOLDER)
                   for n in map(model.nodes.get, model.postorder(node_id)))

    if and_only(goal_id, allow_placeholder=True):
        return True
    goal = model.node(goal_id)
    if goal.is_executable or not goal.disjunctive or len(goal.children) != 2:
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
        cost_o = float(cost_reach(model, goal_id, binding))
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
) -> ConcreteBinding:
    values: Dict[str, Number] = {}
    for leaf in (n.id for n in model.nodes.values() if n.is_executable):
        values[ParamTable.reliability(leaf).name] = rng.random()
        values[ParamTable.frequency(leaf).name] = 1 if unit_frequencies else rng.random()
        values[ParamTable.cost_weight(leaf).name] = rng.uniform(0.0, 2.0)
    contexts = {
        cid: (1 if rng.random() < 0.7 else 0) for cid in model.contexts
    }
    opts = {
        pid: (1 if rng.random() < 0.7 else 0) for pid in model.placeholders()
    }
    return ConcreteBinding(values, contexts, opts)
