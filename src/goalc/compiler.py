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
from typing import Any, Callable, Dict, Iterable, Iterator, Optional, Sequence

from .cgm import Decomposition, GoalModel, ModelError, NodeKind, ParamTable
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
    model: GoalModel, node_id: str, builder: CircuitBuilder, memo: Dict[str, NodeForms]
) -> NodeForms:
    """The wire triple of the subtree rooted at ``node_id``, memoized by id.

    Rows, with ``P_i``/``W_i`` the reliability/weight of child ``i`` times its
    context factor (a node's own contexts apply where it joins its parent):

    * leaf:        R = C*r*f, W = w, cost = C*w*r*f
    * placeholder: the leaf row, reliability and cost times ``OPT``
    * And:         R = prod(P_i),                    cost = W*R
    * Or/DM:       R_k = R_{k-1} + P_k - R_{k-1}*P_k, cost = W*R_n - W_n*R_{n-1}

    where ``C`` is the leaf's own context factor (omitted when it has none),
    the leaf weight stays raw, and ``W = sum(W_i)``.
    """
    if node_id in memo:
        return memo[node_id]
    node = model.node(node_id)

    def gate(contexts: Sequence[str]) -> Callable[[Wire], Wire]:
        """Multiplication by the product of ``contexts`` (identity if none)."""
        factor = None
        for c in contexts:
            p = builder.param(ParamTable.context(c).name)
            factor = p if factor is None else factor * p
        return (lambda x: x) if factor is None else (lambda x: factor * x)

    if node.is_executable:
        r = builder.param(ParamTable.reliability(node_id).name)
        rf = r * builder.param(ParamTable.frequency(node_id).name)
        w = builder.param(ParamTable.cost_weight(node_id).name)
        own = gate(node.contexts)
        rel, cost = own(rf), own(w * rf)
        if node.kind == NodeKind.PLACEHOLDER:
            o = builder.param(ParamTable.opt(node_id).name)
            rel, cost = rel * o, cost * o
        memo[node_id] = NodeForms(rel, w, cost)
        return memo[node_id]

    if not node.children:
        raise ModelError(f"node {node_id!r} has no children to compose")
    if node.dm_order is not None:
        conjunctive, order = False, node.dm_order
    elif node.decomposition in (Decomposition.AND, Decomposition.MEANS_END):
        conjunctive, order = True, node.children
    elif node.decomposition == Decomposition.OR:
        conjunctive, order = False, node.children
    else:
        raise ModelError(f"node {node_id!r} has no usable decomposition")

    gated = []
    for child_id in order:
        child = _fold(model, child_id, builder, memo)
        g = gate(model.node(child_id).contexts)
        gated.append((g(child.reliability), g(child.weight)))

    if len(gated) == 1:
        # One child passes through And/Or with its own cost gated; a decision
        # over one remaining alternative keeps cost = W_1*P_1.
        (rel, weight), = gated
        cost = weight * rel if node.dm_order is not None else g(child.cost)
    else:
        weight = builder.sum(w for _, w in gated)
        rel = gated[0][0]
        for p, _ in gated[1:]:
            prev = rel
            rel = prev * p if conjunctive else prev + p - prev * p
        cost = weight * rel if conjunctive else weight * rel - gated[-1][1] * prev
    memo[node_id] = NodeForms(rel, weight, cost)
    return memo[node_id]


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
