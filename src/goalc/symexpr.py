"""Canonical multivariate polynomials over named parameters, and circuits.

Expressions are kept in a normal form: a sorted tuple of (coefficient,
monomial) terms with exact rational coefficients and monomials stored as
sorted name multisets.  Parameters are plain names, and a name's prefix
fixes its kind (``r_``, ``f_``, ``w_``, ``C_``, ``OPT_``; see
:func:`kind_from_name`).  Parameters that model binary quantities (context
truth, optional-resource flags) are idempotent: any power collapses to the
first, so ``C*C*r`` and ``C*r`` are the same expression.  Two expressions
are semantically equal iff their normal forms compare equal, which makes
polynomial identities checkable with ``==``.

A :class:`Circuit` is the same formula left unexpanded: the straight-line
float program of the arithmetic that built it, linear in model size where
the canonical form can grow exponentially.  Its instructions load
parameters by name, so a circuit is plain data.  A :class:`CircuitBuilder`
records such programs and expands them into canonical form, optionally
within a term budget.  :func:`evaluate` takes either form; :func:`sweep`
evaluates circuits over a whole grid of bindings at once.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import (
    Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union,
)

Number = Union[int, float, Fraction]


class ExprError(ValueError):
    """Raised for malformed expressions, bindings, or parse failures."""


class TermBudgetError(ExprError):
    """Raised when expanding a circuit would exceed its term budget."""


class ParamKind(Enum):
    RELIABILITY = "reliability"
    FREQUENCY = "frequency"
    COST = "cost"
    CONTEXT = "context"
    OPT = "opt"


#: Kinds whose parameters take values in {0, 1} and are idempotent.
BINARY_KINDS = frozenset({ParamKind.CONTEXT, ParamKind.OPT})

#: The one table of parameter kinds: a name's prefix fixes its kind.
_PREFIX_KINDS = (
    ("OPT_", ParamKind.OPT),
    ("C_", ParamKind.CONTEXT),
    ("r_", ParamKind.RELIABILITY),
    ("f_", ParamKind.FREQUENCY),
    ("w_", ParamKind.COST),
)


def kind_from_name(name: str) -> ParamKind:
    """The kind a parameter name's prefix fixes; unprefixed names are reliabilities."""
    for prefix, kind in _PREFIX_KINDS:
        if name.startswith(prefix):
            return kind
    return ParamKind.RELIABILITY


def is_binary(name: str) -> bool:
    """Whether the parameter ``name`` takes values in {0, 1} and is idempotent."""
    return kind_from_name(name) in BINARY_KINDS


@dataclass(frozen=True, order=True)
class Parameter:
    """A named model parameter; the name's prefix fixes its kind."""

    name: str
    ref: str = ""  # id of the node or context the parameter belongs to

    def __post_init__(self) -> None:
        if not self.name:
            raise ExprError("parameter name must be non-empty")

    @property
    def kind(self) -> ParamKind:
        return kind_from_name(self.name)


Term = Tuple[Fraction, Tuple[str, ...]]


class SymExpr:
    """An immutable polynomial in canonical form."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[Tuple[Number, Iterable[str]]]) -> None:
        self._terms: Tuple[Term, ...] = _normalize(terms)

    # -- accessors ---------------------------------------------------------

    @property
    def terms(self) -> Tuple[Term, ...]:
        return self._terms

    def parameter_names(self) -> Tuple[str, ...]:
        """Names occurring with nonzero coefficient, sorted."""
        return tuple(sorted(set().union(*(mono for _, mono in self._terms))))

    def is_zero(self) -> bool:
        return not self._terms

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "SymExpr") -> "SymExpr":
        return SymExpr(self._terms + other._terms)

    def __sub__(self, other: "SymExpr") -> "SymExpr":
        return SymExpr(self._terms + tuple((-c, m) for c, m in other._terms))

    def __neg__(self) -> "SymExpr":
        return SymExpr([(-c, m) for c, m in self._terms])

    def __mul__(self, other: "SymExpr") -> "SymExpr":
        return SymExpr([
            (c1 * c2, m1 + m2)
            for c1, m1 in self._terms
            for c2, m2 in other._terms
        ])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymExpr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __repr__(self) -> str:
        return f"SymExpr({render(self)!r})"

    # -- dunder conveniences -------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)


def _normalize(terms: Iterable[Tuple[Number, Iterable[str]]]) -> Tuple[Term, ...]:
    """Sort each monomial, collapse binary powers, merge like terms, drop zeros."""
    acc: Dict[Tuple[str, ...], Fraction] = {}
    for coeff, monomial in terms:
        coeff = _as_fraction(coeff)
        mono = tuple(sorted(monomial))
        if len(set(mono)) != len(mono):
            mono = _collapse_binary(mono)
        if mono in acc:
            acc[mono] += coeff
        else:
            acc[mono] = coeff
    return tuple((acc[m], m) for m in sorted(acc) if acc[m] != 0)


def _collapse_binary(mono: Tuple[str, ...]) -> Tuple[str, ...]:
    """Drop repeats of binary (idempotent) names from a sorted monomial.

    Only names that actually repeat have their kind looked up.
    """
    out = [mono[0]]
    for name in mono[1:]:
        if name == out[-1] and is_binary(name):
            continue
        out.append(name)
    return tuple(out)


def _as_fraction(value: Number) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ExprError(f"non-finite coefficient: {value!r}")
        return Fraction(value)  # exact binary expansion of the float
    raise ExprError(f"unsupported numeric type: {type(value).__name__}")


# -- constructors ------------------------------------------------------------


def constant(value: Number) -> SymExpr:
    """The constant polynomial ``value``."""
    return SymExpr([(value, ())])


ZERO = constant(0)
ONE = constant(1)


def param(name: str) -> SymExpr:
    """The polynomial consisting of the single parameter ``name``."""
    return SymExpr([(1, (name,))])


def sum_exprs(exprs: Iterable[SymExpr]) -> SymExpr:
    """The sum of ``exprs``, normalized once rather than once per addition."""
    return SymExpr([t for e in exprs for t in e._terms])


# -- evaluation and substitution ---------------------------------------------


def _check_binary(name: str, value: Number) -> None:
    if value not in (0, 1) and is_binary(name):
        raise ExprError(
            f"parameter {name!r} of kind {kind_from_name(name).value} must bind "
            f"to 0 or 1, got {value!r}"
        )


def evaluate(expr: Union[SymExpr, "Circuit"], binding: Mapping[str, Number]) -> float:
    """Evaluate ``expr`` under a full binding, deterministically.

    Terms are accumulated in canonical order, and a circuit runs its
    instructions in order, so repeated evaluation of the same expression and
    binding yields bit-identical floats.  Raises :class:`ExprError` for
    missing parameters or out-of-domain binary values.
    """
    if isinstance(expr, Circuit):
        try:
            for name in expr._binary:
                if binding[name] not in (0, 1):
                    _check_binary(name, binding[name])
            return float(expr._program(binding))
        except KeyError:
            missing = expr._names - binding.keys()
            if not missing:
                raise
            raise ExprError(f"missing binding for parameter {min(missing)!r}") from None
    for name in expr.parameter_names():
        if name not in binding:
            raise ExprError(f"missing binding for parameter {name!r}")
        _check_binary(name, binding[name])
    total = 0.0
    for coeff, mono in expr.terms:
        v = float(coeff)
        for name in mono:
            v *= binding[name]
        total += v
    return total


def substitute(expr: SymExpr, binding: Mapping[str, Number]) -> SymExpr:
    """Substitute a (possibly partial) binding, returning a new polynomial.

    Values are absorbed exactly (floats via their exact binary expansion), so
    ``evaluate(substitute(e, p), q) == evaluate(e, p | q)`` up to float
    rounding of the final accumulation.
    """
    for name in expr.parameter_names():
        if name in binding:
            _check_binary(name, binding[name])
    new_terms = []
    for coeff, mono in expr.terms:
        c = coeff
        rest = []
        for name in mono:
            if name in binding:
                c = c * _as_fraction(binding[name])
            else:
                rest.append(name)
        new_terms.append((c, tuple(rest)))
    return SymExpr(new_terms)


def rename_params(expr: SymExpr, mapping: Mapping[str, str]) -> SymExpr:
    """Rename parameters; like monomials merge and binary powers re-collapse."""
    return SymExpr([(c, tuple(mapping.get(n, n) for n in mono)) for c, mono in expr.terms])


# -- circuits -------------------------------------------------------------------


class Wire:
    """One register of a :class:`CircuitBuilder`.

    ``+``, ``-`` and ``*`` between wires of one builder record an
    instruction and return the wire of its result.
    """

    __slots__ = ("_builder", "index")

    def __init__(self, builder: "CircuitBuilder", index: int) -> None:
        self._builder = builder
        self.index = index

    def __add__(self, other: "Wire") -> "Wire":
        return self._builder._emit(("+", self.index, other.index))

    def __sub__(self, other: "Wire") -> "Wire":
        return self._builder._emit(("-", self.index, other.index))

    def __mul__(self, other: "Wire") -> "Wire":
        return self._builder._emit(("*", self.index, other.index))


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}


class CircuitBuilder:
    """Records arithmetic on wires as one shared straight-line program.

    :meth:`param` loads a parameter by name (each one once) and :meth:`sum`
    adds wires n-ary.  :meth:`circuit` cuts out the program of one result;
    :meth:`expand` turns results into canonical polynomials.
    """

    def __init__(self) -> None:
        self._code: List[tuple] = []
        self._loads: Dict[str, int] = {}  # registers, not wires: no cycle

    def _emit(self, instruction: tuple) -> Wire:
        self._code.append(instruction)
        return Wire(self, len(self._code) - 1)

    def param(self, name: str) -> Wire:
        index = self._loads.get(name)
        if index is not None:
            return Wire(self, index)
        wire = self._emit(("load", name))
        self._loads[name] = wire.index
        return wire

    def sum(self, wires: Iterable[Wire]) -> Wire:
        return self._emit(("sum", tuple(w.index for w in wires)))

    def expand(
        self, outputs: Sequence[Wire], max_terms: Optional[int] = None
    ) -> List[SymExpr]:
        """The canonical polynomials of ``outputs``, replaying the program once.

        Instructions are expanded in program order, and each polynomial that
        is not an output is dropped after its last use: an And chain keeps
        its running product alive, not every partial one.  With ``max_terms``
        set, an instruction whose operands hold more than ``max_terms``
        terms between them before like terms merge (``|a|*|b|`` for ``*``,
        the sum of the sizes for ``+``, ``-`` and ``sum``) raises
        :class:`TermBudgetError` before it is expanded, so the budget bounds
        the work as well as the result.
        """
        code = self._code
        last = list(range(len(code)))  # the instruction that reads a register last
        for i, ins in enumerate(code):
            if ins[0] != "load":
                for j in ins[1] if ins[0] == "sum" else ins[1:]:
                    last[j] = i
        for w in outputs:
            last[w.index] = len(code)
        values: List[Optional[SymExpr]] = []
        for i, ins in enumerate(code):
            op = ins[0]
            if op == "load":
                values.append(param(ins[1]))
                continue
            regs = ins[1] if op == "sum" else ins[1:]
            args = [values[j] for j in regs]
            for j in regs:
                if last[j] == i:
                    values[j] = None
            if max_terms is not None:
                sizes = [len(a._terms) for a in args]
                need = sizes[0] * sizes[1] if op == "*" else sum(sizes)
                if need > max_terms:
                    raise TermBudgetError(
                        f"formula expands past {max_terms} terms "
                        f"(one {op!r} step needs {need} before like terms merge)")
            values.append(sum_exprs(args) if op == "sum" else _ARITHMETIC[op](*args))
        return [values[w.index] for w in outputs]

    def circuit(self, out: Wire) -> "Circuit":
        """The instructions ``out`` depends on, renumbered, as a circuit."""
        needed = set()
        stack = [out.index]
        while stack:
            i = stack.pop()
            if i in needed:
                continue
            needed.add(i)
            op, *args = self._code[i]
            if op == "sum":
                stack.extend(args[0])
            elif op != "load":
                stack.extend(args)
        order = sorted(needed)
        new = {old: k for k, old in enumerate(order)}
        code = []
        for old in order:
            op, *args = self._code[old]
            if op == "load":
                code.append((op, args[0]))
            elif op == "sum":
                code.append((op, tuple(new[i] for i in args[0])))
            else:
                code.append((op, new[args[0]], new[args[1]]))
        return Circuit(code)


class Circuit:
    """A formula as a straight-line float program.

    Instruction ``i`` sets register ``i`` and is one of ``("load",
    name)``, ``("*", a, b)``, ``("+", a, b)``, ``("-", a, b)`` or
    ``("sum", (a, b, ...))`` over earlier registers; the last register is
    the result.  The code is plain strings and integers, so it survives a
    JSON round trip (lists for tuples).  Binary parameters evaluate at 0 or
    1, where repeated factors are already idempotent, so nothing needs
    collapsing.  The program is compiled to a Python function on first
    evaluation.
    """

    __slots__ = ("code", "_names", "_binary", "_compiled", "_sweeps")

    def __init__(self, code: Iterable[tuple]) -> None:
        self.code: Tuple[tuple, ...] = tuple(code)
        if not self.code:
            raise ExprError("a circuit needs at least one instruction")
        for i, ins in enumerate(self.code):
            _check_instruction(i, ins)
        self._names = frozenset(ins[1] for ins in self.code if ins[0] == "load")
        self._binary = tuple(n for n in sorted(self._names) if is_binary(n))
        self._compiled: Optional[Callable[[Mapping[str, Number]], Number]] = None
        # Compiled sweeps led by this circuit, keyed by (the other circuits,
        # axis names): they live exactly as long as the circuits do.
        self._sweeps: Dict[tuple, Callable[..., Iterator[Tuple[float, ...]]]] = {}

    def parameter_names(self) -> Tuple[str, ...]:
        """Names of the parameters the program loads, sorted."""
        return tuple(sorted(self._names))

    def __len__(self) -> int:
        return len(self.code)

    @property
    def _program(self) -> Callable[[Mapping[str, Number]], Number]:
        if self._compiled is None:
            self._compiled = _compile_program([self.code])
        return self._compiled


def _check_instruction(i: int, ins: object) -> None:
    """Raise :class:`ExprError` unless ``ins`` is well-formed as instruction ``i``."""
    op = ins[0] if isinstance(ins, (list, tuple)) and ins else None
    if op == "load":
        if len(ins) != 2 or not isinstance(ins[1], str):
            raise ExprError(f"instruction {i}: a load names its parameter by a string")
        return
    if op == "sum":
        registers = ins[1] if len(ins) == 2 and isinstance(ins[1], (list, tuple)) else ()
        if not registers:
            raise ExprError(f"instruction {i}: a sum adds a non-empty list of registers")
    elif op in ("+", "-", "*"):
        registers = ins[1:]
        if len(registers) != 2:
            raise ExprError(f"instruction {i}: {op!r} takes two registers, got {len(registers)}")
    else:
        raise ExprError(f"instruction {i}: unknown circuit instruction {op!r}")
    for reg in registers:
        if isinstance(reg, bool) or not isinstance(reg, int) or not 0 <= reg < i:
            raise ExprError(f"instruction {i}: {reg!r} is not an earlier register")


#: One grid dimension of :func:`sweep`: parameter names and their values.
Axis = Tuple[Iterable[str], Iterable[Number]]


def sweep(
    circuits: Sequence[Circuit],
    binding: Mapping[str, Number],
    axes: Sequence[Axis],
) -> Iterator[Tuple[float, ...]]:
    """The values of ``circuits`` at every point of a grid over ``binding``.

    ``axes`` holds one ``(names, values)`` pair per grid dimension.  A point
    binds each axis's value to all of its names on top of ``binding``; where
    axes share a name, the later one wins.  Points come in
    :func:`itertools.product` order (the last axis changes fastest), and
    each yields the tuple of what :func:`evaluate` returns for each circuit
    on that binding, bit for bit.  No instruction is re-associated; each
    one only reruns when an axis it depends on moves, so a grid point costs
    just the instructions the last axis drives.

    The binding is checked once, up front, and raises the
    :class:`ExprError` :func:`evaluate` would for a missing name or a binary
    parameter outside {0, 1}; an axis naming a binary parameter raises one
    too.  The program is compiled once per circuits and axis names.
    """
    circuits = tuple(circuits)
    if not circuits:
        raise ExprError("a sweep needs at least one circuit")
    names = tuple(tuple(axis_names) for axis_names, _ in axes)
    swept = set().union(*names)
    for name in sorted(swept):
        if is_binary(name):
            raise ExprError(f"axis names the binary parameter {name!r}")
    for c in circuits:
        missing = c._names - swept - binding.keys()
        for name in c._binary:
            if name in missing:
                break
            _check_binary(name, binding[name])
        if missing:
            raise ExprError(f"missing binding for parameter {min(missing)!r}")
    key = (circuits[1:], names)
    program = circuits[0]._sweeps.get(key)
    if program is None:
        program = _compile_program([c.code for c in circuits], names)
        circuits[0]._sweeps[key] = program
    return program(binding, *(tuple(values) for _, values in axes))


_SUM_CHUNK = 256

#: Loops a sweep program nests at most (Python allows 20 nested blocks);
#: the innermost one runs every further axis through ``itertools.product``.
_MAX_LOOPS = 16


def _compile_program(
    codes: Sequence[Tuple[tuple, ...]],
    axes: Optional[Sequence[Sequence[str]]] = None,
) -> Callable:
    """Python function of circuit programs: one assignment per instruction.

    With ``axes`` None, ``program(b)`` returns the value of the one circuit
    in ``codes``.  Otherwise ``program(b, v1, v2, ...)`` is a generator that
    loops over the value lists nested in axis order and yields every
    circuit's value, as a float, at each point.  Each instruction sits in
    the loop of the innermost axis it depends on, or before the loops if it
    depends on none (loop-invariant code motion); a parameter that axes
    name reads the loop variable of the last such axis.

    Parameter names enter the source only as ``repr`` string literals and
    registers as generated identifiers, so no name can inject code.
    """
    n_axes = len(axes) if axes is not None else 0
    axis_of: Dict[str, int] = {}
    for k, names in enumerate(axes or (), 1):
        axis_of.update(dict.fromkeys(names, k))
    depth = min(n_axes, _MAX_LOOPS)
    blocks: List[List[str]] = [[] for _ in range(depth + 1)]
    outs = []
    base = 0  # registers of all circuits share one namespace
    for code in codes:
        level: List[int] = []
        for i, ins in enumerate(code):
            op, reg = ins[0], f"x{base + i}"
            if op == "load":
                k = axis_of.get(ins[1], 0)
                level.append(min(k, depth))
                rhs = f"a{k}" if k else f"b[{ins[1]!r}]"
            elif op == "sum":
                level.append(max((level[j] for j in ins[1]), default=0))
                # Left to right, in chunks: Python's compiler recurses once per
                # operator of a chained expression.
                terms = [f"x{base + j}" for j in ins[1]]
                for k in range(0, len(terms), _SUM_CHUNK):
                    head = [reg] if k else []
                    blocks[level[i]].append(
                        f"{reg} = {' + '.join(head + terms[k:k + _SUM_CHUNK])}")
                continue
            else:  # + - *
                level.append(max(level[ins[1]], level[ins[2]]))
                rhs = f"x{base + ins[1]} {op} x{base + ins[2]}"
            blocks[level[i]].append(f"{reg} = {rhs}")
        base += len(code)
        outs.append(f"x{base - 1}")

    params = ["b"] + [f"v{k}" for k in range(1, n_axes + 1)]
    lines = [f"def program({', '.join(params)}):"]
    for lv, block in enumerate(blocks):
        if lv:
            ks = range(lv, n_axes + 1) if lv == depth else range(lv, lv + 1)
            values = ", ".join(f"v{k}" for k in ks)
            source = values if len(ks) == 1 else f"product({values})"
            lines.append(f"{'    ' * lv}for {', '.join(f'a{k}' for k in ks)} in {source}:")
        lines.extend(f"{'    ' * (lv + 1)}{stmt}" for stmt in block)
    if axes is None:
        lines.append(f"    return {outs[0]}")
    else:
        floats = "".join(f"float({o}), " for o in outs)
        lines.append(f"{'    ' * (depth + 1)}yield ({floats})")
    namespace: Dict[str, object] = {"product": itertools.product}
    exec(compile("\n".join(lines), "<circuit>", "exec"), namespace)
    return namespace["program"]  # type: ignore[return-value]


# -- textual form -------------------------------------------------------------


def _render_coeff(c: Fraction) -> str:
    return str(c)  # "3", "-2", "3/2"


def render(expr: SymExpr) -> str:
    """Deterministic textual form: ``term +/- term`` with explicit ``*``."""
    if expr.is_zero():
        return "0"
    pieces = []
    for i, (coeff, mono) in enumerate(expr.terms):
        neg = coeff < 0
        mag = -coeff if neg else coeff
        factors = []
        if mag != 1 or not mono:
            factors.append(_render_coeff(mag))
        factors.extend(mono)
        body = "*".join(factors)
        if i == 0:
            pieces.append(("-" if neg else "") + body)
        else:
            pieces.append((" - " if neg else " + ") + body)
    return "".join(pieces)


def size_bytes(expr: SymExpr) -> int:
    """Storage size of the rendered form in bytes."""
    return len(render(expr).encode("utf-8"))


def parse_expr(text: str) -> SymExpr:
    """Parse the textual form produced by :func:`render`."""
    stripped = text.strip()
    if not stripped:
        raise ExprError("empty expression text")
    if stripped == "0":
        return ZERO
    # Split into signed terms at top level (no parentheses in the grammar).
    terms = []
    for signed in _split_terms(stripped):
        sign, body = signed
        coeff = Fraction(sign)
        mono = []
        for factor in body.split("*"):
            factor = factor.strip()
            if not factor:
                raise ExprError(f"empty factor in term {body!r}")
            if _is_number(factor):
                coeff *= Fraction(factor)
            else:
                if not _is_name(factor):
                    raise ExprError(f"invalid parameter name: {factor!r}")
                mono.append(factor)
        terms.append((coeff, tuple(mono)))
    return SymExpr(terms)


def _split_terms(text: str):
    out = []
    sign = 1
    token = []
    for ch in text:
        if ch in "+-":
            if "".join(token).strip():
                out.append((sign, "".join(token).strip()))
                token = []
            sign = -1 if ch == "-" else 1
        else:
            token.append(ch)
    if "".join(token).strip():
        out.append((sign, "".join(token).strip()))
    if not out:
        raise ExprError(f"no terms in expression: {text!r}")
    return out


def _is_number(tok: str) -> bool:
    try:
        Fraction(tok)
        return True
    except (ValueError, ZeroDivisionError):
        return False


def _is_name(tok: str) -> bool:
    return tok.replace("_", "a").replace(".", "a").isalnum() and not tok[0].isdigit()
