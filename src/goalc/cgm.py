"""Contextual goal models: types, JSON parsing, validation, parameter naming.

A goal model is a tree of goals and tasks.  Inner nodes are refined by
And/Or decompositions or by a means-end link to a single task; leaf tasks
are the executable units and own a (reliability, frequency, cost-weight)
parameter triple.  Nodes may be guarded by context conditions, an Or node
may carry a runtime decision annotation (``dm``) listing the order in which
its context-dependent alternatives are considered, and a placeholder task
stands for a subtree unknown until runtime (it additionally owns an OPT
existence flag).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .symexpr import Parameter


class ModelError(ValueError):
    """Base class for goal-model errors."""


class ParseError(ModelError):
    """Raised when model text cannot be parsed into a well-formed tree."""


class ValidationError(ModelError):
    """Raised by :func:`parse_model` when the parsed tree violates a rule."""

    def __init__(self, violations: Sequence["Violation"]):
        self.violations = list(violations)
        lines = "; ".join(f"{v.node_id}: {v.rule}: {v.message}" for v in violations)
        super().__init__(f"invalid goal model: {lines}")


class NodeKind(Enum):
    GOAL = "Goal"
    TASK = "Task"
    LEAF_TASK = "LeafTask"
    PLACEHOLDER = "Placeholder"


class Decomposition(Enum):
    AND = "And"
    OR = "Or"
    MEANS_END = "MeansEnd"
    NONE = "None"


class ContextKind(Enum):
    BOOLEAN = "Boolean"
    INTEGER = "Integer"
    DOUBLE = "Double"


_COMPARATORS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


@dataclass(frozen=True)
class Condition:
    """A comparison over a named environment variable, e.g. ``hr >= 85``."""

    var: str
    op: str
    value: float

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise ParseError(f"unknown comparison operator: {self.op!r}")

    def holds(self, env: Mapping[str, float]) -> bool:
        if self.var not in env:
            raise ModelError(f"environment variable {self.var!r} not provided")
        return _COMPARATORS[self.op](env[self.var], self.value)


@dataclass(frozen=True)
class ContextDef:
    id: str
    description: str
    kind: ContextKind = ContextKind.BOOLEAN
    condition: Optional[Condition] = None


@dataclass(frozen=True)
class Node:
    id: str
    label: str
    kind: NodeKind
    decomposition: Decomposition = Decomposition.NONE
    children: Tuple[str, ...] = ()
    dm_order: Optional[Tuple[str, ...]] = None
    contexts: Tuple[str, ...] = ()

    @property
    def is_executable(self) -> bool:
        """Leaf tasks and placeholders are the units that execute."""
        return self.kind in (NodeKind.LEAF_TASK, NodeKind.PLACEHOLDER)

    @property
    def order(self) -> Tuple[str, ...]:
        """Children in evaluation order: the ``dm`` order when there is one."""
        return self.dm_order if self.dm_order is not None else self.children


@dataclass(frozen=True)
class Violation:
    node_id: str
    rule: str
    message: str


@dataclass(frozen=True)
class GoalModel:
    actor: str
    root: str
    nodes: Mapping[str, Node]
    contexts: Mapping[str, ContextDef] = field(default_factory=dict)

    def node(self, node_id: str) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise ModelError(f"unknown node id: {node_id!r}") from None

    def _walk(self, node_id: str, pushed: Callable[[Node], Sequence[str]]) -> List[str]:
        """Ids of the subtree of ``node_id`` in the order a stack pops them.

        A node comes before its subtree; the children ``pushed(node)`` names
        are pushed in order, so the last is walked first.  Executable nodes
        are not descended into.  A node reached twice, which only a model
        built without :func:`parse_model` can have (a cycle or a shared
        child), raises :class:`ModelError` rather than looping for ever.
        """
        out: Dict[str, None] = {}
        stack = [node_id]
        while stack:
            node = self.node(stack.pop())
            if node.id in out:
                raise ModelError(f"node {node.id!r} is reached twice; a goal model is a tree")
            out[node.id] = None
            if not node.is_executable:
                stack.extend(pushed(node))
        return list(out)

    def preorder(self, node_id: str) -> List[str]:
        """Ids of the subtree of ``node_id``, each node before its children,
        children in evaluation order (:attr:`Node.order`)."""
        return self._walk(node_id, lambda node: node.order[::-1])

    def postorder(self, node_id: str) -> List[str]:
        """Ids of the subtree of ``node_id``, each node after its children,
        children in evaluation order (:attr:`Node.order`)."""
        return self._walk(node_id, lambda node: node.order)[::-1]

    def leaves_under(self, node_id: str) -> List[str]:
        """Executable leaves in the subtree of ``node_id``, depth-first in
        ``children`` order, whatever the ``dm`` order."""
        return [nid for nid in self._walk(node_id, lambda node: node.children[::-1])
                if self.nodes[nid].is_executable]

    def executable_leaves(self) -> List[str]:
        return self.leaves_under(self.root)

    def placeholders(self) -> List[str]:
        return [n.id for n in self.nodes.values() if n.kind == NodeKind.PLACEHOLDER]


# -- parameter naming ---------------------------------------------------------


def mangle(node_id: str) -> str:
    """Identifier form of a node or context id: dots become underscores."""
    return node_id.replace(".", "_")


class ParamTable:
    """Derives and holds the canonical parameter set of a model.

    Every executable leaf owns three parameters (``r_<id>``, ``f_<id>``,
    ``w_<id>``), every referenced context one truth parameter (``C_<id>``),
    and every placeholder one existence flag (``OPT_<id>``).  Ids pass
    through :func:`mangle`.  The prefix fixes the parameter's kind
    (:func:`symexpr.kind_from_name`); ``ref`` only records the owning id.
    Naming needs no model, so the naming methods and :meth:`bindings` can
    also be called on the class.  The naming methods are memoized: the
    feedback loop binds every parameter every tick, and the oracle looks
    names up per leaf per check.
    """

    def __init__(self, model: GoalModel):
        self._model = model

    @staticmethod
    @lru_cache(maxsize=4096)
    def reliability(leaf_id: str) -> Parameter:
        return Parameter(f"r_{mangle(leaf_id)}", leaf_id)

    @staticmethod
    @lru_cache(maxsize=4096)
    def frequency(leaf_id: str) -> Parameter:
        return Parameter(f"f_{mangle(leaf_id)}", leaf_id)

    @staticmethod
    @lru_cache(maxsize=4096)
    def cost_weight(leaf_id: str) -> Parameter:
        return Parameter(f"w_{mangle(leaf_id)}", leaf_id)

    @staticmethod
    @lru_cache(maxsize=4096)
    def context(context_id: str) -> Parameter:
        return Parameter(f"C_{mangle(context_id)}", context_id)

    @staticmethod
    @lru_cache(maxsize=4096)
    def opt(node_id: str) -> Parameter:
        return Parameter(f"OPT_{mangle(node_id)}", node_id)

    @staticmethod
    def bindings(
        reliability: Mapping[str, float],
        frequency: Mapping[str, float],
        cost: Mapping[str, float],
        contexts: Optional[Mapping[str, int]] = None,
        opt_flags: Optional[Mapping[str, int]] = None,
    ) -> Dict[str, float]:
        """Parameter values by name, for every leaf of ``reliability``."""
        out: Dict[str, float] = {}
        for leaf, r in reliability.items():
            out[ParamTable.reliability(leaf).name] = r
            out[ParamTable.frequency(leaf).name] = frequency[leaf]
            out[ParamTable.cost_weight(leaf).name] = cost[leaf]
        for ctx, truth in (contexts or {}).items():
            out[ParamTable.context(ctx).name] = truth
        for node, flag in (opt_flags or {}).items():
            out[ParamTable.opt(node).name] = flag
        return out

    def all_parameters(self) -> List[Parameter]:
        out: List[Parameter] = []
        referenced = []
        seen = set()
        for node in self._model.nodes.values():
            if node.is_executable:
                leaf = node.id
                out += [
                    self.reliability(leaf),
                    self.frequency(leaf),
                    self.cost_weight(leaf),
                ]
            if node.kind == NodeKind.PLACEHOLDER:
                out.append(self.opt(node.id))
            for ctx in node.contexts:
                if ctx not in seen:
                    seen.add(ctx)
                    referenced.append(ctx)
        out += [self.context(c) for c in referenced]
        return out


# -- parsing ------------------------------------------------------------------

_NODE_KEYS = {"id", "label", "kind", "decomposition", "children", "dm", "contexts", "placeholder"}


def parse_model(text: str) -> GoalModel:
    """Parse JSON model text into a validated :class:`GoalModel`.

    Raises :class:`ParseError` for text that is not a model document (bad
    JSON, reported with its position; missing keys, duplicate ids, unknown
    enum values) and :class:`ValidationError` when the tree breaks a
    :func:`validate` rule, undefined references included.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise ParseError("model document must be a JSON object")
    for key in ("actor", "root", "nodes"):
        if key not in doc:
            raise ParseError(f"missing required key: {key!r}")

    contexts: Dict[str, ContextDef] = {}
    for raw in doc.get("contexts", []):
        cid = _require_str(raw, "id", "context")
        if cid in contexts:
            raise ParseError(f"duplicate context id: {cid!r}")
        kind = _parse_enum(raw.get("kind", "Boolean"), ContextKind, cid)
        cond = None
        if raw.get("condition") is not None:
            c = raw["condition"]
            if not isinstance(c, dict) or not {"var", "op", "value"} <= set(c):
                raise ParseError(f"context {cid!r}: condition must have var/op/value")
            cond = Condition(str(c["var"]), str(c["op"]), float(c["value"]))
        contexts[cid] = ContextDef(cid, str(raw.get("description", "")), kind, cond)

    nodes: Dict[str, Node] = {}
    for raw in doc["nodes"]:
        nid = _require_str(raw, "id", "node")
        if nid in nodes:
            raise ParseError(f"duplicate node id: {nid!r}")
        kind = _parse_enum(raw.get("kind", "Goal"), NodeKind, nid)
        if raw.get("placeholder"):
            kind = NodeKind.PLACEHOLDER
        decomp_raw = raw.get("decomposition")
        decomp = (
            Decomposition.NONE
            if decomp_raw in (None, "None")
            else _parse_enum(decomp_raw, Decomposition, nid)
        )
        children = tuple(str(c) for c in raw.get("children", []) or [])
        dm = raw.get("dm")
        dm_order = tuple(str(c) for c in dm) if dm else None
        ctx_refs = tuple(str(c) for c in raw.get("contexts", []) or [])
        if kind == NodeKind.TASK and not children and not dm_order:
            kind = NodeKind.LEAF_TASK  # a childless task is executable
        nodes[nid] = Node(nid, str(raw.get("label", "")), kind, decomp, children,
                          dm_order, ctx_refs)

    model = GoalModel(str(doc["actor"]), str(doc["root"]), nodes, contexts)
    violations = validate(model)
    if violations:
        raise ValidationError(violations)
    return model


def _require_str(raw: dict, key: str, what: str) -> str:
    if not isinstance(raw, dict) or key not in raw:
        raise ParseError(f"{what} entry missing {key!r}")
    return str(raw[key])


def _parse_enum(value, enum_cls, owner: str):
    try:
        return enum_cls(value)
    except ValueError:
        valid = ", ".join(e.value for e in enum_cls)
        raise ParseError(
            f"{owner!r}: invalid {enum_cls.__name__} value {value!r} (expected one of {valid})"
        ) from None


# -- validation ---------------------------------------------------------------


def validate(model: GoalModel) -> List[Violation]:
    """Check every model rule; returns violations sorted by (node id, rule).

    Pure: identical inputs produce the identical ordered list.
    """
    out: List[Violation] = []

    def bad(node_id: str, rule: str, message: str) -> None:
        out.append(Violation(node_id, rule, message))

    if model.root not in model.nodes:
        bad(model.root, "dangling-root", "root node is not defined")

    parents: Dict[str, List[str]] = {}
    for node in model.nodes.values():
        seen_children = set()
        for child in node.children:
            if child in seen_children:
                bad(node.id, "duplicate-child", f"child {child!r} listed twice")
            seen_children.add(child)
            if child not in model.nodes:
                bad(node.id, "dangling-child", f"child {child!r} is not defined")
            else:
                parents.setdefault(child, []).append(node.id)
        for child in sorted(set(node.dm_order or ()) - seen_children - model.nodes.keys()):
            bad(node.id, "dangling-child", f"DM entry {child!r} is not defined")
        for ctx in node.contexts:
            if ctx not in model.contexts:
                bad(node.id, "dangling-context", f"context {ctx!r} is not defined")

        if node.is_executable:
            if node.children:
                bad(node.id, "leaf-with-children", "executable node cannot be refined")
            if node.dm_order is not None:
                bad(node.id, "dm-on-leaf", "DM annotation on an executable node")
        else:
            if not node.children:
                bad(node.id, "childless-node", "goal/task must be refined or marked a leaf")
            elif node.decomposition == Decomposition.NONE:
                bad(node.id, "missing-decomposition", "refined node needs a decomposition")
            if node.decomposition == Decomposition.MEANS_END and len(node.children) != 1:
                bad(node.id, "means-end-single-child", "means-end links exactly one task")

        if node.dm_order is not None and not node.is_executable:
            if node.decomposition != Decomposition.OR:
                bad(node.id, "dm-requires-or", "DM annotation is only valid on Or nodes")
            if set(node.dm_order) != set(node.children) or len(node.dm_order) != len(
                set(node.dm_order)
            ):
                bad(node.id, "dm-list-mismatch", "DM order must list each child exactly once")
            for child in node.dm_order:
                if child in model.nodes and not model.nodes[child].contexts:
                    bad(node.id, "dm-child-needs-context",
                        f"DM alternative {child!r} carries no context condition")

        if node.kind == NodeKind.PLACEHOLDER and not node.id.endswith(".X"):
            bad(node.id, "placeholder-id", "placeholder ids use the '.X' suffix")

    for child, ps in parents.items():
        if len(ps) > 1:
            bad(child, "multiple-parents", f"node has parents {sorted(ps)}")

    if model.root in model.nodes:
        # Depth-first from the root with an explicit stack, so that a model
        # of any depth gets its violations.  The trail of the current path
        # tells a cycle from a shared child; ``GoalModel``'s own walks raise
        # on either.
        reachable = {model.root}
        on_trail = {model.root}  # the nodes on the path to the current one
        pending = [(model.root, iter(model.nodes[model.root].children))]
        while pending:
            nid = next(pending[-1][1], None)
            if nid is None:
                on_trail.discard(pending.pop()[0])
            elif nid in on_trail:
                bad(nid, "cycle", "node participates in a reference cycle")
            elif nid not in reachable:
                reachable.add(nid)
                if nid in model.nodes:
                    on_trail.add(nid)
                    pending.append((nid, iter(model.nodes[nid].children)))
        for nid in model.nodes:
            if nid not in reachable:
                bad(nid, "unreachable-node", "node is not reachable from the root")

    # Distinct ids must own distinct parameters: ``T.1`` and ``T_1`` would
    # otherwise share ``r_T_1``/``f_T_1``/``w_T_1`` and compile as one leaf.
    table = ParamTable(model)
    leaf_ids = [n.id for n in model.nodes.values() if n.is_executable]
    for ids, name_of in ((leaf_ids, table.reliability), (model.contexts, table.context)):
        owners: Dict[str, List[str]] = {}
        for i in ids:
            owners.setdefault(name_of(i).name, []).append(i)
        for name, group in owners.items():
            if len(group) > 1:
                for i in group:
                    bad(i, "param-name-collision",
                        f"ids {sorted(group)} share the parameter name {name!r}")

    for cid, ctx in model.contexts.items():
        if ctx.kind == ContextKind.BOOLEAN and ctx.condition is not None:
            bad(cid, "context-condition", "Boolean contexts take no range condition")
        if ctx.kind != ContextKind.BOOLEAN and ctx.condition is None:
            bad(cid, "context-condition", f"{ctx.kind.value} contexts need one condition")

    return sorted(out, key=lambda v: (v.node_id, v.rule, v.message))
