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
feedback loop evaluates); :func:`compile_model` expands every node's
circuit into canonical polynomials (the export and verification format),
optionally within a term budget, since that expansion can grow
exponentially.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, Optional, Sequence, Tuple

from .cgm import Decomposition, GoalModel, ModelError, Node, NodeKind, ParamTable
from .symexpr import CircuitBuilder, Wire


@dataclass(frozen=True)
class NodeForms:
    """The (reliability, weight, cost) formula triple of one node.

    The fields are :class:`SymExpr` from :func:`compile_model` and
    :class:`Circuit` from :func:`compile_circuits`; iterating yields them
    in that order.
    """

    reliability: Any
    weight: Any
    cost: Any

    def __iter__(self) -> Iterator[Any]:
        return iter((self.reliability, self.weight, self.cost))


def _fold(
    model: GoalModel, goal_id: str, builder: CircuitBuilder, memo: Dict[str, NodeForms]
) -> NodeForms:
    """The wire triple of the subtree rooted at ``goal_id``, memoized by id.

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
    # child id -> (gated reliability, gated weight, its gate, its cost)
    gated: Dict[str, Tuple[Wire, Wire, Callable[[Wire], Wire], Wire]] = {}
    for node_id in order:
        node = model.nodes[node_id]
        if node_id not in memo:
            memo[node_id] = _compose(node, builder, gated)
        if node_id in read:
            g, forms = _gate(builder, node.contexts), memo[node_id]
            gated[node_id] = (g(forms.reliability), g(forms.weight), g, forms.cost)
    return memo[goal_id]


def _gate(builder: CircuitBuilder, contexts: Sequence[str]) -> Callable[[Wire], Wire]:
    """Multiplication by the product of ``contexts`` (identity if none)."""
    factor = None
    for c in contexts:
        p = builder.param(ParamTable.context(c).name)
        factor = p if factor is None else factor * p
    return (lambda x: x) if factor is None else (lambda x: factor * x)


def _compose(node: Node, builder: CircuitBuilder, gated: Dict[str, tuple]) -> NodeForms:
    """One node's row of :func:`_fold`; takes its children's entries out of
    ``gated``."""
    if node.is_executable:
        r = builder.param(ParamTable.reliability(node.id).name)
        rf = r * builder.param(ParamTable.frequency(node.id).name)
        w = builder.param(ParamTable.cost_weight(node.id).name)
        own = _gate(builder, node.contexts)
        rel, cost = own(rf), own(w * rf)
        if node.kind == NodeKind.PLACEHOLDER:
            o = builder.param(ParamTable.opt(node.id).name)
            rel, cost = rel * o, cost * o
        return NodeForms(rel, w, cost)

    if not node.children:
        raise ModelError(f"node {node.id!r} has no children to compose")
    if node.dm_order is None and node.decomposition == Decomposition.NONE:
        raise ModelError(f"node {node.id!r} has no usable decomposition")
    conjunctive = node.dm_order is None and node.decomposition != Decomposition.OR

    kids = [gated.pop(c) for c in node.order]
    if len(kids) == 1:
        # One child passes through And/Or with its own cost gated; a decision
        # over one remaining alternative keeps cost = W_1*P_1.
        (rel, weight, g, cost), = kids
        cost = weight * rel if node.dm_order is not None else g(cost)
    else:
        weight = builder.sum(w for _, w, _, _ in kids)
        rel = kids[0][0]
        for p, _, _, _ in kids[1:]:
            prev = rel
            rel = prev * p if conjunctive else prev + p - prev * p
        cost = weight * rel if conjunctive else weight * rel - kids[-1][1] * prev
    return NodeForms(rel, weight, cost)


def compile_model(
    model: GoalModel, goal: Optional[str] = None, max_terms: Optional[int] = None
) -> Dict[str, NodeForms]:
    """Canonical polynomials of every node in the subtree of ``goal``.

    ``goal`` defaults to the root.  Nodes come in fold order, children
    before their parent.  The subtree is folded once into a circuit, which
    is then expanded; ``max_terms`` bounds that expansion and raises
    :class:`symexpr.TermBudgetError` beyond it (see
    :meth:`symexpr.CircuitBuilder.expand`).
    """
    builder = CircuitBuilder()
    memo: Dict[str, NodeForms] = {}
    _fold(model, goal if goal is not None else model.root, builder, memo)
    exprs = builder.expand([w for wires in memo.values() for w in wires], max_terms)
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


def param_growth_report(
    model: GoalModel, goal: Optional[str] = None
) -> Dict[str, Dict[str, int]]:
    """Distinct parameter counts of each node's reliability and cost formulae.

    Context-free And/Or subtrees grow by 2 reliability and 3 cost parameters
    per leaf; fully context-dependent subtrees (runtime-decision alternatives
    included) grow by 3 and 4.
    """
    forms = compile_model(model, goal)
    return {
        nid: {
            "reliability": len(f.reliability.parameter_names()),
            "cost": len(f.cost.parameter_names()),
        }
        for nid, f in forms.items()
    }
