"""Emission of PRISM-language MDP models and PCTL property files.

Every executable leaf becomes a five-state module (init, running, success,
skipped, failure) whose entry guard multiplies the leaf's run-enable by its
commanded frequency; every runtime-decision node becomes a nondeterministic
module that resolves one combination of its alternatives' context conditions
and switches global run-enable variables for the chosen subtrees.  Modules
are chained through synchronization labels ``next<x>`` in depth-first order,
so the emitted text is a deterministic function of (model, goal).

Identifier scheme:

* every module (decision nodes included) owns a slot index ``x`` assigned in
  depth-first pre-order; its state variable is ``s<x>``;
* leaf parameters are ``r<x>``, ``f<x>``, ``w<x>``;
* context truths are constants named by their context id (dots mangled);
* decision enables are globals ``c<x>`` where ``x`` is the slot of the first
  leaf of the enabled subtree; joint context combinations are ``CTX_<j>``
  with the bits of ``j`` selecting alternatives (bit i = child i+1).

The optional-existence flag of placeholders has no representation in the
MDP text: the emitted machine treats a placeholder like a regular leaf and
the flag only exists in the closed-form formulae.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .cgm import Decomposition, GoalModel, ModelError, Node, NodeKind, mangle

#: Largest runtime-decision fan-out we will enumerate (2^k - 1 constants).
MAX_DM_ALTERNATIVES = 12


class EmitError(ModelError):
    """Raised when a model cannot be rendered to PRISM text."""


@dataclass
class EmissionPlan:
    """Slot assignments and guard data for one (model, goal) emission."""

    goal_id: str
    slots: Dict[str, int] = field(default_factory=dict)  # node id -> slot
    module_order: List[str] = field(default_factory=list)
    guard_contexts: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    enable_of: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    dm_enables: Dict[str, List[int]] = field(default_factory=dict)
    context_order: List[str] = field(default_factory=list)
    dm_prefix: Dict[str, str] = field(default_factory=dict)


def plan_emission(model: GoalModel, goal_id: Optional[str] = None) -> EmissionPlan:
    """Assign slots and guards for the subtree of ``goal_id`` (root default)."""
    goal = goal_id if goal_id is not None else model.root
    plan = EmissionPlan(goal_id=goal)

    # First pass: depth-first pre-order slot assignment.  Decision nodes take
    # a slot of their own, so their machinery resolves before their subtrees.
    order = model.preorder(goal)
    dm_count = 0
    first_slot: Dict[str, int] = {}  # node id -> the first slot of its subtree
    for node_id in order:
        node = model.nodes[node_id]
        first_slot[node_id] = len(plan.slots) + 1
        if node.is_executable or node.dm_order is not None:
            plan.slots[node_id] = first_slot[node_id]
            plan.module_order.append(node_id)
        if not node.is_executable and node.dm_order is not None:
            dm_count += 1
            if len(node.dm_order) > MAX_DM_ALTERNATIVES:
                raise EmitError(
                    f"decision node {node_id!r} has {len(node.dm_order)} "
                    f"alternatives; the subset encoding caps at {MAX_DM_ALTERNATIVES}"
                )

    # Second pass: guard factors and run-enables.  A decision node consumes
    # the contexts of its immediate children (they live in the CTX constants
    # and the enable variables); every other context on the path from the
    # goal to a leaf multiplies into that leaf's entry guard.
    seen_ctx = set()
    # node id -> (inherited guard contexts, run-enables, own contexts consumed)
    passed: Dict[str, Tuple[Tuple[str, ...], Tuple[int, ...], bool]] = {goal: ((), (), False)}
    for node_id in order:
        node = model.nodes[node_id]
        inherited, enables, own_consumed = passed.pop(node_id)
        if node_id != goal:
            for ctx in node.contexts:
                if ctx not in seen_ctx:
                    seen_ctx.add(ctx)
                    plan.context_order.append(ctx)
        own = () if (node_id == goal or own_consumed) else tuple(node.contexts)
        gated = inherited + own
        if node.is_executable:
            plan.guard_contexts[node_id] = gated
            plan.enable_of[node_id] = enables
        elif node.dm_order is not None:
            plan.dm_prefix[node_id] = "CTX" if dm_count == 1 else f"CTX_{mangle(node_id)}"
            # The enable variable borrows the slot of the first module in the
            # enabled subtree, which stays unique under nesting.
            plan.dm_enables[node_id] = [first_slot[c] for c in node.dm_order]
            for child_id, enable in zip(node.dm_order, plan.dm_enables[node_id]):
                passed[child_id] = (gated, enables + (enable,), True)
        else:
            for child_id in node.children:
                passed[child_id] = (gated, enables, False)
    return plan


def _ctx_const(context_id: str) -> str:
    return mangle(context_id)


def _guard(plan: EmissionPlan, leaf_id: str, slot: int) -> str:
    factors = [_ctx_const(c) for c in plan.guard_contexts[leaf_id]]
    factors.extend(f"c{enable}" for enable in plan.enable_of[leaf_id])
    factors.append(f"f{slot}")
    return "*".join(factors)


# -- module emission -----------------------------------------------------------


def emit_leaf_module(model: GoalModel, leaf_id: str, plan: EmissionPlan) -> str:
    """The five-state task module of one executable leaf."""
    node = model.node(leaf_id)
    if not node.is_executable:
        raise EmitError(f"node {leaf_id!r} is not an executable leaf")
    x = plan.slots[leaf_id]
    guard = _guard(plan, leaf_id, x)
    lines = [
        f"module {mangle(leaf_id)}",
        f"  s{x} : [0..4] init 0; // 0 init, 1 running, 2 success, 3 skipped, 4 failure",
        f"  [next{x}] s{x} = 0 -> {guard} : (s{x}'=1) + (1 - {guard}) : (s{x}'=3);",
        f"  [] s{x} = 1 -> r{x} : (s{x}'=2) + (1 - r{x}) : (s{x}'=4);",
        f"  [next{x + 1}] s{x} = 2 -> (s{x}'=2);",
        f"  [next{x + 1}] s{x} = 3 -> (s{x}'=3);",
        f"  [next{x + 1}] s{x} = 4 -> (s{x}'=4);",
        "endmodule",
    ]
    return "\n".join(lines)


def _subsets(k: int) -> List[Tuple[int, ...]]:
    """Nonempty child-index subsets in CTX numbering order (bit i = child i)."""
    return [
        tuple(i for i in range(k) if j >> i & 1)
        for j in range(1, 2 ** k)
    ]


def emit_dm_module(model: GoalModel, node_id: str, plan: EmissionPlan) -> str:
    """The nondeterministic context-resolution module of a decision node."""
    node = model.node(node_id)
    if node.dm_order is None:
        raise EmitError(f"node {node_id!r} carries no decision annotation")
    x = plan.slots[node_id]
    k = len(node.dm_order)
    subsets = _subsets(k)
    final = len(subsets) + 2
    prefix = plan.dm_prefix[node_id]
    enables = plan.dm_enables[node_id]
    name = "NonDeterminism" if prefix == "CTX" else (
        f"NonDeterminism_{mangle(node_id)}"
    )
    lines = [
        f"module {name}",
        f"  s{x} : [0..{final}] init 0; // {final} is the resolved state",
        f"  [next{x}] s{x} = 0 -> (s{x}'=1);",
    ]
    for j in range(1, len(subsets) + 1):
        lines.append(
            f"  [] s{x} = 1 -> {prefix}_{j} : (s{x}'={j + 1})"
            f" + (1 - {prefix}_{j}) : (s{x}'=1);"
        )
    lines.append(f"  [] s{x} = 1 -> (s{x}'={final}); // no alternative applies")
    for j, subset in enumerate(subsets, start=1):
        sets = "".join(f" & (c{enables[i]}'=1)" for i in subset)
        lines.append(f"  [] s{x} = {j + 1} -> (s{x}'={final}){sets};")
    lines.append(f"  [next{x + 1}] s{x} = {final} -> (s{x}'={final});")
    lines.append("endmodule")
    return "\n".join(lines)


# -- whole-model emission -------------------------------------------------------


def emit_model(model: GoalModel, goal_id: Optional[str] = None) -> str:
    """Render the full MDP text for the subtree of ``goal_id``."""
    plan = plan_emission(model, goal_id)
    out: List[str] = [
        f"// {model.actor}: goal {plan.goal_id} as a parametric MDP",
        "mdp",
        "",
    ]
    if plan.context_order:
        out.append("// context truth parameters")
        for ctx in plan.context_order:
            desc = model.contexts[ctx].description or "context condition"
            out.append(f"const int {_ctx_const(ctx)}; // {desc}")
        out.append("")
    for node_id in plan.module_order:
        node = model.node(node_id)
        if node.dm_order is None:
            continue
        prefix = plan.dm_prefix[node_id]
        subsets = _subsets(len(node.dm_order))
        out.append(f"// decision machinery of {node_id}")
        for j, subset in enumerate(subsets, start=1):
            names = " & ".join(node.dm_order[i] for i in subset)
            out.append(f"const int {prefix}_{j}; // alternatives enabled: {names}")
        for child_id, enable in zip(node.dm_order, plan.dm_enables[node_id]):
            out.append(
                f"global c{enable} : [0..1] init 0; // run-enable of {child_id}"
            )
        out.append("")
    out.append("// task parameters")
    for node_id in plan.module_order:
        if model.node(node_id).dm_order is not None:
            continue
        x = plan.slots[node_id]
        out.append(f"const double r{x}; // reliability of {node_id}")
        out.append(f"const double f{x}; // run frequency of {node_id}")
        out.append(f"const double w{x}; // execution cost of {node_id}")
    out.append("")
    for node_id in plan.module_order:
        node = model.node(node_id)
        if node.dm_order is not None:
            out.append(emit_dm_module(model, node_id, plan))
        else:
            out.append(emit_leaf_module(model, node_id, plan))
        out.append("")
    out.append('rewards "cost"')
    for node_id in plan.module_order:
        if model.node(node_id).dm_order is not None:
            continue
        x = plan.slots[node_id]
        out.append(f"  s{x} = 1 : w{x};")
    out.append("endrewards")
    return "\n".join(out) + "\n"


# -- success propositions and properties ---------------------------------------


def _ctx_test(contexts: Sequence[str]) -> str:
    tests = [f"{_ctx_const(c)}=1" for c in contexts]
    return tests[0] if len(tests) == 1 else " & ".join(tests)


def success_proposition(
    model: GoalModel, goal_id: Optional[str] = None, plan: Optional[EmissionPlan] = None
) -> str:
    """The success proposition of the goal over the emitted state variables.

    Built bottom-up: conjunction for And, disjunction for Or, per-alternative
    context/skip clauses for decision nodes, success-or-skipped for
    placeholders, and a context/skip wrap for any other context-carrying
    node below the goal.
    """
    plan = plan or plan_emission(model, goal_id)
    text: Dict[str, str] = {}  # node id -> its proposition, until its parent reads it
    skips: Dict[str, List[str]] = {}  # node id -> the skip tests of its leaves

    def read(node_id: str, is_dm_child: bool) -> str:
        """The proposition of a child as its parent reads it."""
        node = model.nodes[node_id]
        core = text.pop(node_id)
        if not node.contexts or (node.kind == NodeKind.PLACEHOLDER and not is_dm_child):
            return core  # skipping a placeholder is already vacuously satisfying
        tests = skips[node_id]
        skipped = tests[0] if len(tests) == 1 else "(" + " & ".join(tests) + ")"
        wrap = f"(!({_ctx_test(node.contexts)}) & {skipped})"
        return f"({core} | {wrap})" if is_dm_child else f"({wrap} | {core})"

    for node_id in model.postorder(plan.goal_id):
        node = model.nodes[node_id]
        if node.is_executable:
            x = plan.slots[node_id]
            text[node_id] = f"(s{x}=2 | s{x}=3)" if node.kind == NodeKind.PLACEHOLDER else f"s{x}=2"
            skips[node_id] = [f"s{x}=3"]
            continue
        if node.dm_order is not None:
            text[node_id] = "(" + " | ".join(read(c, True) for c in node.dm_order) + ")"
        else:
            parts = [read(c, False) for c in node.children]
            joiner = " | " if node.decomposition == Decomposition.OR else " & "
            text[node_id] = parts[0] if len(parts) == 1 else "(" + joiner.join(parts) + ")"
        # In ``children`` order, the order of ``GoalModel.leaves_under``.
        skips[node_id] = [t for c in node.children for t in skips.pop(c)]
    return text[plan.goal_id]


def emit_properties(model: GoalModel, goal_id: Optional[str] = None) -> str:
    """The four verification queries of a goal (reliability and cost bounds)."""
    plan = plan_emission(model, goal_id)
    phi = success_proposition(model, plan.goal_id, plan)
    return "\n".join(
        [
            f"// fulfillment of {plan.goal_id} under the current contexts",
            f"Pmax=? [ F ({phi}) ]",
            f"Pmin=? [ F ({phi}) ]",
            f'R{{"cost"}}max=? [ F ({phi}) ]',
            f'R{{"cost"}}min=? [ F ({phi}) ]',
        ]
    ) + "\n"
