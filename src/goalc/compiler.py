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

The fold is written once, over an *algebra*: anything with ``param(p)`` and
``sum(values)`` whose values support ``+``, ``-`` and ``*``.
:data:`EXPANDED` yields canonical polynomials (:func:`compile_model`, the
export and verification format); a :class:`symexpr.CircuitBuilder` records
the same arithmetic as straight-line programs (:func:`compile_circuits`, what
the feedback loop evaluates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence

from . import symexpr
from .cgm import Decomposition, GoalModel, ModelError, NodeKind, ParamTable
from .symexpr import Parameter


class Algebra(NamedTuple):
    """The value type a fold computes in: a parameter's value and an n-ary sum."""

    param: Callable[[Parameter], Any]
    sum: Callable[[Iterable[Any]], Any]


#: Canonical polynomials.
EXPANDED = Algebra(symexpr.param, symexpr.sum_exprs)


@dataclass(frozen=True)
class NodeForms:
    """The (reliability, weight, cost) formula triple of one node.

    The fields are :class:`SymExpr` from :func:`compile_model` and
    :class:`Circuit` from :func:`compile_circuits`.
    """

    reliability: Any
    weight: Any
    cost: Any


def _fold(
    model: GoalModel, node_id: str, algebra: Algebra, memo: Dict[str, NodeForms]
) -> NodeForms:
    """The formula triple of the subtree rooted at ``node_id``, memoized by id.

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

    def gate(contexts: Sequence[str]) -> Callable[[Any], Any]:
        """Multiplication by the product of ``contexts`` (identity if none)."""
        factor = None
        for c in contexts:
            p = algebra.param(ParamTable.context(c))
            factor = p if factor is None else factor * p
        return (lambda x: x) if factor is None else (lambda x: factor * x)

    if node.is_executable:
        r = algebra.param(ParamTable.reliability(node_id))
        rf = r * algebra.param(ParamTable.frequency(node_id))
        w = algebra.param(ParamTable.cost_weight(node_id))
        own = gate(node.contexts)
        rel, cost = own(rf), own(w * rf)
        if node.kind == NodeKind.PLACEHOLDER:
            o = algebra.param(ParamTable.opt(node_id))
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
        child = _fold(model, child_id, algebra, memo)
        g = gate(model.node(child_id).contexts)
        gated.append((g(child.reliability), g(child.weight)))

    if len(gated) == 1:
        # One child passes through And/Or with its own cost gated; a decision
        # over one remaining alternative keeps cost = W_1*P_1.
        (rel, weight), = gated
        cost = weight * rel if node.dm_order is not None else g(child.cost)
    else:
        weight = algebra.sum(w for _, w in gated)
        rel = gated[0][0]
        for p, _ in gated[1:]:
            prev = rel
            rel = prev * p if conjunctive else prev + p - prev * p
        cost = weight * rel if conjunctive else weight * rel - gated[-1][1] * prev
    memo[node_id] = NodeForms(rel, weight, cost)
    return memo[node_id]


def compile_model(
    model: GoalModel, goal: Optional[str] = None
) -> Dict[str, NodeForms]:
    """Compile formulae for every node (or only the subtree of ``goal``)."""
    memo: Dict[str, NodeForms] = {}
    root = goal if goal is not None else model.root
    _fold(model, root, EXPANDED, memo)

    def subtree_ids(nid: str) -> List[str]:
        node = model.node(nid)
        out = [nid]
        for child in node.children:
            out.extend(subtree_ids(child))
        return out

    return {nid: memo[nid] for nid in subtree_ids(root)}


def compile_circuits(model: GoalModel, goals: Iterable[str]) -> Dict[str, NodeForms]:
    """Circuit triples of ``goals``, recorded from one fold over the model.

    Each circuit computes the same formula as :func:`compile_model`'s
    polynomial for that node; subtrees shared by several goals are folded
    once.
    """
    builder = symexpr.CircuitBuilder()
    memo: Dict[str, NodeForms] = {}
    out: Dict[str, NodeForms] = {}
    for goal in goals:
        wires = _fold(model, goal, builder, memo)
        out[goal] = NodeForms(*(builder.circuit(w) for w in
                                (wires.reliability, wires.weight, wires.cost)))
    return out


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
            "reliability": len(f.reliability.parameters()),
            "cost": len(f.cost.parameters()),
        }
        for nid, f in forms.items()
    }
