"""Closed-form compilation of goal models into symbolic formulae.

Every node of a model gets a triple of polynomials:

* ``reliability`` — probability that the node's goal is satisfied,
* ``weight``      — the accumulated raw cost-weight sum of its subtree,
* ``cost``        — the reportable expected-cost formula.

``weight`` is the quantity that propagates upward through compositions;
``cost`` is derived at each node and is *not* fed back into parents (an Or
node's corrected cost is not the same thing as its weight-times-reliability,
and parents only ever consume the weight).

Composition is depth-first; each node composes all its children in one
n-ary step (:func:`compose_children`), equal to a left fold of the pairwise
rows but with the weight summed once and the cost built once.  Reliability
composition is order-independent; cost composition of Or/runtime-decision
nodes is not, so the fold order is fixed: the node's ``dm`` order when
present, the ``children`` order otherwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import symexpr
from .cgm import Decomposition, GoalModel, ModelError, Node, NodeKind, ParamTable
from .symexpr import ONE, Parameter, SymExpr


class CompositionKind(Enum):
    AND = "And"
    OR = "Or"
    DM = "Dm"
    INCOMPLETENESS = "Incompleteness"


@dataclass(frozen=True)
class NodeForms:
    """The (reliability, weight, cost) formula triple of one node."""

    reliability: SymExpr
    weight: SymExpr
    cost: SymExpr


def _ctx_product(ctx: Sequence[Parameter]) -> SymExpr:
    expr = ONE
    for p in ctx:
        expr = expr * symexpr.param(p)
    return expr


def _gated(ctx: Sequence[Parameter], expr: SymExpr) -> SymExpr:
    """``expr`` times the context factor of ``ctx`` (``expr`` itself if none)."""
    return _ctx_product(ctx) * expr if ctx else expr


def atomic_forms(model: GoalModel, leaf_id: str, params: Optional[ParamTable] = None) -> NodeForms:
    """Formulae of a single executable leaf.

    reliability = C * r * f, weight = w, cost = C * w * r * f, where the
    context factor C is the product of the leaf's own context parameters
    and is omitted when the leaf is context-free.  The weight stays raw:
    context gating of weights happens where the leaf joins a composition.
    """
    params = params or ParamTable(model)
    node = model.node(leaf_id)
    if not node.is_executable:
        raise ModelError(f"node {leaf_id!r} is not an executable leaf")
    r = symexpr.param(params.reliability(leaf_id))
    f = symexpr.param(params.frequency(leaf_id))
    w = symexpr.param(params.cost_weight(leaf_id))
    ctx = [params.context(c) for c in node.contexts]
    rf = r * f
    return NodeForms(reliability=_gated(ctx, rf), weight=w, cost=_gated(ctx, w * rf))


def compose_pair(
    kind: CompositionKind,
    left: NodeForms,
    right: Optional[NodeForms] = None,
    ctx_left: Sequence[Parameter] = (),
    ctx_right: Sequence[Parameter] = (),
    opt: Optional[Parameter] = None,
) -> NodeForms:
    """Compose two sibling subtrees (or wrap one, for incompleteness).

    The context parameters of each operand are applied here, at the point
    of composition; operand formulae that already carry their own context
    factors are unaffected because binary parameters are idempotent.
    """
    if kind == CompositionKind.INCOMPLETENESS:
        if right is not None:
            raise ModelError("incompleteness wraps a single subtree")
        if opt is None:
            raise ModelError("incompleteness requires an OPT parameter")
        o = symexpr.param(opt)
        return NodeForms(
            reliability=_gated(ctx_left, left.reliability) * o,
            weight=left.weight,
            cost=_gated(ctx_left, left.weight * left.reliability) * o,
        )
    items = [(left, ctx_left)]
    if right is not None:
        items.append((right, ctx_right))
    return compose_children(kind, items)


def compose_children(
    kind: CompositionKind,
    items: Sequence[Tuple[NodeForms, Sequence[Parameter]]],
) -> NodeForms:
    """Compose all children of a node, each given with its context parameters.

    Equal to the pairwise left fold of the binary rows over ``items``, but
    the weight is one n-ary sum and the cost is built once, from the final
    accumulator:

    * And:   R = prod(P_i),                    cost = W*R
    * Or/DM: R_k = R_{k-1} + P_k - R_{k-1}*P_k, cost = W*R_n - W_n*R_{n-1}

    where ``P_i``/``W_i`` are the context-gated child reliability/weight and
    ``W = sum(W_i)``.
    """
    if kind not in (CompositionKind.AND, CompositionKind.OR, CompositionKind.DM):
        raise ModelError(f"cannot compose children with kind {kind!r}")
    gated = [
        (_gated(ctx, forms.reliability), _gated(ctx, forms.weight))
        for forms, ctx in items
    ]

    if len(items) == 1:
        # Single-operand composition.  For a runtime-decision node the
        # binary row with the second operand's context set to zero leaves
        # C1*P1 and cost (C1*W1)*(C1*P1); And/Or of one child pass through.
        p1, w1 = gated[0]
        if kind == CompositionKind.DM:
            return NodeForms(reliability=p1, weight=w1, cost=w1 * p1)
        forms, ctx = items[0]
        return NodeForms(reliability=p1, weight=w1, cost=_gated(ctx, forms.cost))

    weight = symexpr.sum_exprs(w for _, w in gated)
    rel = gated[0][0]
    if kind == CompositionKind.AND:
        for p, _ in gated[1:]:
            rel = rel * p
        return NodeForms(reliability=rel, weight=weight, cost=weight * rel)
    for p, _ in gated[1:]:
        prev = rel
        rel = prev + p - prev * p
    w_last = gated[-1][1]
    return NodeForms(
        reliability=rel, weight=weight, cost=weight * rel - w_last * prev
    )


_DECOMP_KIND = {
    Decomposition.AND: CompositionKind.AND,
    Decomposition.MEANS_END: CompositionKind.AND,
    Decomposition.OR: CompositionKind.OR,
}


def compose_node_form(
    model: GoalModel,
    node_id: str,
    params: Optional[ParamTable] = None,
    _memo: Optional[Dict[str, NodeForms]] = None,
) -> NodeForms:
    """Compile the subtree rooted at ``node_id`` into its formula triple.

    A node's own context parameters are applied where it joins its parent's
    composition, not here; placeholders are the exception, since their
    incompleteness wrap explicitly includes both the context factor and the
    OPT existence flag.
    """
    params = params or ParamTable(model)
    memo = _memo if _memo is not None else {}
    if node_id in memo:
        return memo[node_id]
    node = model.node(node_id)

    if node.kind == NodeKind.PLACEHOLDER:
        core = NodeForms(
            reliability=symexpr.param(params.reliability(node_id))
            * symexpr.param(params.frequency(node_id)),
            weight=symexpr.param(params.cost_weight(node_id)),
            cost=symexpr.param(params.cost_weight(node_id))
            * symexpr.param(params.reliability(node_id))
            * symexpr.param(params.frequency(node_id)),
        )
        forms = compose_pair(
            CompositionKind.INCOMPLETENESS,
            core,
            ctx_left=[params.context(c) for c in node.contexts],
            opt=params.opt(node_id),
        )
        memo[node_id] = forms
        return forms

    if node.is_executable:
        forms = atomic_forms(model, node_id, params)
        memo[node_id] = forms
        return forms

    if not node.children:
        raise ModelError(f"node {node_id!r} has no children to compose")

    if node.dm_order is not None:
        kind = CompositionKind.DM
        order = node.dm_order
    else:
        try:
            kind = _DECOMP_KIND[node.decomposition]
        except KeyError:
            raise ModelError(
                f"node {node_id!r} has no usable decomposition"
            ) from None
        order = node.children

    items: List[Tuple[NodeForms, List[Parameter]]] = []
    for child_id in order:
        child = model.node(child_id)
        child_forms = compose_node_form(model, child_id, params, memo)
        items.append((child_forms, [params.context(c) for c in child.contexts]))

    forms = compose_children(kind, items)
    memo[node_id] = forms
    return forms


def compile_model(
    model: GoalModel, goal: Optional[str] = None
) -> Dict[str, NodeForms]:
    """Compile formulae for every node (or only the subtree of ``goal``)."""
    params = ParamTable(model)
    memo: Dict[str, NodeForms] = {}
    root = goal if goal is not None else model.root
    compose_node_form(model, root, params, memo)

    def subtree_ids(nid: str) -> List[str]:
        node = model.node(nid)
        out = [nid]
        for child in node.children:
            out.extend(subtree_ids(child))
        return out

    return {nid: memo[nid] for nid in subtree_ids(root)}


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


# -- formula file I/O ---------------------------------------------------------


def forms_to_json(forms: Mapping[str, NodeForms]) -> str:
    doc = {
        nid: {
            "reliability": symexpr.render(f.reliability),
            "cost": symexpr.render(f.cost),
            "params": sorted(
                set(f.reliability.parameter_names()) | set(f.cost.parameter_names())
            ),
        }
        for nid, f in forms.items()
    }
    return json.dumps(doc, indent=2) + "\n"


def forms_from_json(text: str) -> Dict[str, Dict[str, SymExpr]]:
    doc = json.loads(text)
    out: Dict[str, Dict[str, SymExpr]] = {}
    for nid, entry in doc.items():
        out[nid] = {
            "reliability": symexpr.parse_expr(entry["reliability"]),
            "cost": symexpr.parse_expr(entry["cost"]),
        }
    return out
