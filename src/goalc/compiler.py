"""Closed-form compilation of goal models into symbolic formulae.

Every node of a model gets a triple of formulae:

* ``reliability`` — probability that the node's goal is satisfied,
* ``weight``      — the accumulated raw cost-weight sum of its subtree,
* ``cost``        — the reportable expected-cost formula.

``weight`` is the quantity that propagates upward through compositions;
``cost`` is derived at each node and is *not* fed back into parents (an Or
node's corrected cost is not the same thing as its weight-times-reliability,
and parents only ever consume the weight).

Composition is one depth-first fold (:func:`_fold`); each node composes all
its children in one n-ary step, equal to a left fold of the pairwise rows
but with the weight summed once and the cost built once.  Reliability
composition is order-independent; cost composition of Or/runtime-decision
nodes is not, so the fold order is fixed: the node's ``dm`` order when
present, the ``children`` order otherwise.

The fold records its arithmetic into a :class:`symexpr.CircuitBuilder`, so
its working form is a circuit: a straight-line program linear in model size.
:func:`compile_circuits` cuts out the circuits of some goals (what the
feedback loop evaluates); :func:`compile_model` gives every node's
canonical polynomials (the export and verification format).  Since that
expansion can grow exponentially, each polynomial is expanded only when it
is first read, within a term budget if one is given.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, NamedTuple, Optional, Sequence, Tuple

from .cgm import Decomposition, GoalModel, ModelError, Node, NodeKind, ParamTable
from .symexpr import CircuitBuilder


class NodeForms(NamedTuple):
    """The (reliability, weight, cost) formula triple of one node.

    The fields are :class:`SymExpr` from :func:`compile_model` (deferred
    ones, expanded when first read) and :class:`Circuit` from
    :func:`compile_circuits`; iterating and unpacking yield them in that
    order.  It is a named tuple, so its fields cannot be assigned, and it
    also compares equal to the plain 3-tuple of the same formulas.
    """

    reliability: Any
    weight: Any
    cost: Any


def _fold(
    model: GoalModel, goal_id: str, builder: CircuitBuilder, memo: Dict[str, NodeForms]
) -> NodeForms:
    """The register triple of the subtree rooted at ``goal_id``, memoized by id.

    Rows, with ``P_i``/``W_i`` the reliability/weight of child ``i`` times its
    context factor (a node's own contexts apply where it joins its parent):

    * leaf:        R = C*r*f, W = w, cost = C*w*r*f
    * placeholder: the leaf row, reliability and cost times ``OPT``
    * And:         R = prod(P_i),                    cost = W*R
    * Or/DM:       R_k = R_{k-1} + P_k - R_{k-1}*P_k, cost = W*R_n - W_n*R_{n-1}

    where ``C`` is the leaf's own context factor (omitted when it has none),
    the leaf weight stays raw, and ``W = sum(W_i)``.

    Nodes are composed in :meth:`GoalModel.postorder`, and each child is
    gated as soon as it is complete, so the recorded program is the one a
    depth-first recursion would record, at any depth.  A memoized node is
    not composed again, but gated again when a node composed now reads it.
    """
    order = model.postorder(goal_id)
    read = {c for node_id in order if node_id not in memo for c in model.nodes[node_id].order}
    # child id -> (gated reliability, gated weight, its gate factor or None, its cost)
    gated: Dict[str, Tuple[int, int, Optional[int], int]] = {}
    for node_id in order:
        node = model.nodes[node_id]
        if node_id not in memo:
            memo[node_id] = _compose(node, builder, gated)
        if node_id in read:
            rel, weight, cost = memo[node_id]
            g = _gate(builder, node.contexts)
            if g is not None:
                rel, weight = builder.mul(g, rel), builder.mul(g, weight)
            gated[node_id] = (rel, weight, g, cost)
    return memo[goal_id]


def _gate(builder: CircuitBuilder, contexts: Sequence[str]) -> Optional[int]:
    """The product of ``contexts``' truth parameters, the factor a node's
    formulas are gated by; None if it has no contexts, so that a
    context-free node records nothing and multiplies nothing."""
    factor = None
    for c in contexts:
        p = builder.param(ParamTable.context(c).name)
        factor = p if factor is None else builder.mul(factor, p)
    return factor


def _compose(node: Node, builder: CircuitBuilder, gated: Dict[str, tuple]) -> NodeForms:
    """One node's row of :func:`_fold`; takes its children's entries out of
    ``gated``."""
    add, sub, mul = builder.add, builder.sub, builder.mul
    if node.is_executable:
        r = builder.param(ParamTable.reliability(node.id).name)
        rf = mul(r, builder.param(ParamTable.frequency(node.id).name))
        w = builder.param(ParamTable.cost_weight(node.id).name)
        g = _gate(builder, node.contexts)
        rel, cost = (rf, mul(w, rf)) if g is None else (mul(g, rf), mul(g, mul(w, rf)))
        if node.kind == NodeKind.PLACEHOLDER:
            o = builder.param(ParamTable.opt(node.id).name)
            rel, cost = mul(rel, o), mul(cost, o)
        return NodeForms(rel, w, cost)

    if not node.children:
        raise ModelError(f"node {node.id!r} has no children to compose")
    if node.dm_order is None and node.decomposition == Decomposition.NONE:
        raise ModelError(f"node {node.id!r} has no usable decomposition")
    conjunctive = not node.disjunctive

    kids = [gated.pop(c) for c in node.order]
    if len(kids) == 1:
        # One child passes through And/Or with its own cost gated; a decision
        # over one remaining alternative keeps cost = W_1*P_1.
        (rel, weight, g, cost), = kids
        if node.dm_order is not None:
            cost = mul(weight, rel)
        elif g is not None:
            cost = mul(g, cost)
    else:
        weight = builder.sum(w for _, w, _, _ in kids)
        rel = kids[0][0]
        for p, _, _, _ in kids[1:]:
            prev = rel
            rel = mul(prev, p) if conjunctive else sub(add(prev, p), mul(prev, p))
        cost = mul(weight, rel) if conjunctive else sub(mul(weight, rel), mul(kids[-1][1], prev))
    return NodeForms(rel, weight, cost)


def compile_model(
    model: GoalModel, goal: Optional[str] = None, max_terms: Optional[int] = None
) -> Dict[str, NodeForms]:
    """Canonical polynomials of every node in the subtree of ``goal``.

    ``goal`` defaults to the root.  Nodes come in fold order, children
    before their parent.  The subtree is folded once into a circuit, and
    each polynomial is deferred: it is expanded when first read, and only
    through the instructions it depends on, so a caller pays for the
    formulas it reads.  All of them read through one replay of that circuit
    (see :meth:`symexpr.CircuitBuilder.defer`), which an unread polynomial
    holds in place of the builder, and which is freed once every polynomial
    has been read.  With ``max_terms``, a read raises
    :class:`symexpr.TermBudgetError` at the first step past the budget among
    the instructions it replays.
    """
    builder = CircuitBuilder(max_terms)
    memo: Dict[str, NodeForms] = {}
    _fold(model, goal if goal is not None else model.root, builder, memo)
    exprs = builder.defer([i for forms in memo.values() for i in forms])
    return {nid: NodeForms(*exprs[3 * k:3 * k + 3]) for k, nid in enumerate(memo)}


def compile_circuits(model: GoalModel, goals: Iterable[str]) -> Dict[str, NodeForms]:
    """Circuit triples of ``goals``, recorded from one fold over the model.

    Each circuit computes the same formula as :func:`compile_model`'s
    polynomial for that node; subtrees shared by several goals are folded
    once.
    """
    builder = CircuitBuilder()
    memo: Dict[str, NodeForms] = {}
    return {goal: NodeForms(*map(builder.circuit, _fold(model, goal, builder, memo)))
            for goal in goals}

