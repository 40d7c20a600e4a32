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
the canonical form can grow exponentially.  An instruction is
``(op, *operands)``: a load names a parameter, any other op reads int
registers, so a circuit is plain data.  A :class:`CircuitBuilder` only
records such programs; :meth:`CircuitBuilder.defer` hands out their
canonical polynomials deferred, all read through one replay of the program
recorded before that call: each is expanded, within the builder's term
budget if it has one, the first time its terms are read, by any accessor,
``==``, ``hash``, :func:`render` or :func:`evaluate`, and is then an
ordinary polynomial.  :func:`evaluate` takes either form, and
:func:`search` runs a caller's ranking over a whole grid of bindings and
returns the best point.  Both run Python functions generated by one
emitter, :func:`_compile_program`, which makes two programs, a value and a
search, and keeps them in one cache of fixed size keyed on content (the
circuits' code, the axis names and the ranking), so circuits built again
from the same model reuse them.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import (
    Callable, Container, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union,
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
    """An immutable polynomial in canonical form.

    A deferred one (:meth:`_deferred`) holds ``(replay, register)`` in
    ``_source`` and no terms yet.  The first read of ``_terms`` finds the
    slot unset and falls through to :meth:`__getattr__`, which expands the
    register and fills the slot, so later reads pay nothing and the replay
    is no longer held.
    """

    __slots__ = ("_terms", "_source")

    def __init__(self, terms: Iterable[Tuple[Number, Iterable[str]]]) -> None:
        self._terms: Tuple[Term, ...] = _normalize(terms)

    @classmethod
    def _deferred(cls, replay: "_Replay", index: int) -> "SymExpr":
        """The polynomial of ``replay``'s register ``index``, expanded when
        its terms are first read."""
        expr = cls.__new__(cls)
        expr._source = (replay, index)
        return expr

    def __getattr__(self, name: str) -> Tuple[Term, ...]:
        # Reached only for an unset slot: the terms of a deferred polynomial.
        if name != "_terms":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        replay, index = self._source
        self._terms = replay.expand(index)._terms
        self._source = None
        return self._terms

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


_UNIT = Fraction(1)


def param(name: str) -> SymExpr:
    """The polynomial consisting of the single parameter ``name``.

    Its one term, ``((Fraction(1), (name,)),)``, is already in normal form,
    so it is built directly rather than through :func:`_normalize`; it
    equals ``SymExpr([(1, (name,))])`` for every name.
    """
    expr = SymExpr.__new__(SymExpr)
    expr._terms = ((_UNIT, (name,)),)
    return expr


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
    missing parameters, out-of-domain binary values, or a polynomial's
    coefficient or binding past the float range.
    """
    if isinstance(expr, Circuit):
        try:
            for name in expr._binary:
                if binding[name] not in (0, 1):
                    _check_binary(name, binding[name])
            if expr._compiled is None:
                expr._compiled = _compile_program((expr.code,), None, None)
            return float(expr._compiled(binding))
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
    try:
        for coeff, mono in expr.terms:
            v = float(coeff)
            for name in mono:
                v *= binding[name]
            total += v
    except OverflowError:
        # A float overflows to inf; only an exact coefficient or an integer
        # binding past the float range cannot be made a float at all.
        raise ExprError("a coefficient or binding is beyond the float range") from None
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


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _over_budget(max_terms: int, op: str, need: int) -> TermBudgetError:
    return TermBudgetError(f"formula expands past {max_terms} terms "
                           f"(one {op!r} step needs {need} before like terms merge)")


def _cone(code: Sequence[tuple], index: int, held: Container[int] = ()) -> Set[int]:
    """The registers ``index`` depends on, itself included, walking back no
    further than the registers in ``held``."""
    cone, stack = set(), [index]
    while stack:
        i = stack.pop()
        if i in cone or i in held:
            continue
        cone.add(i)
        ins = code[i]
        if ins[0] != "load":
            stack.extend(ins[1:])
    return cone


class CircuitBuilder:
    """Records arithmetic on registers as one shared straight-line program.

    Each method returns its result's register, the ``int`` index of the
    instruction it records: :meth:`param` loads a parameter by name (each
    one once), :meth:`add`, :meth:`sub` and :meth:`mul` are binary and
    :meth:`sum` is n-ary; an operand that is not an earlier register, or an
    empty sum, raises :class:`ExprError` before it is recorded.
    :meth:`circuit` cuts out the program of one result, and :meth:`defer`
    hands out canonical polynomials, each expanded when it is first read.
    The builder only records: each :meth:`defer` call gets its own replay
    of the program recorded before it, so recording more, or deferring
    again, never disturbs polynomials already handed out.

    ``max_terms`` is the builder's term budget: an instruction whose
    operands hold more than ``max_terms`` terms between them before like
    terms merge (``|a|*|b|`` for ``*``, the sum of the sizes for ``+``,
    ``-`` and ``sum``, 1 for a load) raises :class:`TermBudgetError` before
    it is expanded, so the budget bounds the work as well as the result.
    The budget never changes, so every polynomial a replay holds is within
    it, and a read raises at the first step past it among the instructions
    it replays.
    """

    def __init__(self, max_terms: Optional[int] = None) -> None:
        self._max_terms = max_terms
        self._code: List[tuple] = []
        self._loads: Dict[str, int] = {}

    def param(self, name: str) -> int:
        index = self._loads.get(name)
        if index is None:
            index = self._loads[name] = len(self._code)
            self._code.append(("load", name))
        return index

    def add(self, a: int, b: int) -> int:
        return self._binary("+", a, b)

    def sub(self, a: int, b: int) -> int:
        return self._binary("-", a, b)

    def mul(self, a: int, b: int) -> int:
        return self._binary("*", a, b)

    def _binary(self, op: str, a: int, b: int) -> int:
        code = self._code
        i = len(code)
        # A cheap test first; the full check names the fault of any other operand.
        if not (type(a) is int and type(b) is int and 0 <= a < i and 0 <= b < i):
            _check_instruction(i, (op, a, b))
        code.append((op, a, b))
        return i

    def sum(self, registers: Iterable[int]) -> int:
        ins = ("sum", *registers)
        _check_instruction(len(self._code), ins)
        self._code.append(ins)
        return len(self._code) - 1

    def defer(self, outputs: Sequence[int]) -> List[SymExpr]:
        """The canonical polynomials of the registers ``outputs``, each
        expanded when its terms are first read.

        All of them are read through one :class:`_Replay` of the program
        recorded so far, so what one read expanded, the next one reuses.
        The outputs that name one register share one :class:`SymExpr`.
        A polynomial holds its replay, not the builder, until it is read.
        """
        replay = _Replay(self._code, self._max_terms)
        exprs = {i: replay.output(i) for i in dict.fromkeys(outputs)}
        return [exprs[i] for i in outputs]

    def circuit(self, out: int) -> "Circuit":
        """The instructions register ``out`` depends on, renumbered, as a circuit."""
        order = sorted(_cone(self._code, out))
        new = {old: k for k, old in enumerate(order)}
        code = []
        for old in order:
            ins = self._code[old]
            code.append(ins if ins[0] == "load" else (ins[0], *[new[j] for j in ins[1:]]))
        return Circuit(code)


class _Replay:
    """The expansion of one :meth:`CircuitBuilder.defer` call: a fixed
    program, the polynomials expanded from it that are still needed, and
    per register the number of instructions that read it, plus one if it is
    an output (never given back), all counted once, up front."""

    def __init__(self, code: Sequence[tuple], max_terms: Optional[int]) -> None:
        self._code = code = tuple(code)
        self._max_terms = max_terms
        self._values: Dict[int, SymExpr] = {}  # expanded polynomials still held
        readers = [0] * len(code)
        for ins in code:
            if ins[0] != "load":
                for j in ins[1:]:
                    readers[j] += 1
        self._readers = readers

    def output(self, index: int) -> SymExpr:
        """The deferred polynomial of register ``index``, held for the
        replay's life; called before any read."""
        self._readers[index] += 1
        return SymExpr._deferred(self, index)

    def expand(self, index: int) -> SymExpr:
        """The canonical polynomial of the output register ``index``.

        The instructions it depends on are replayed in program order,
        except those whose polynomials the replay still holds.  A
        polynomial is dropped once every instruction that reads it has been
        expanded (an And chain keeps its running product alive, not every
        partial one), unless it is an output.  So however the outputs are
        read, no instruction is expanded twice, and no read needs a dropped
        register: walking back from an output, each register is held or not
        yet expanded, since its reader on the way is.  An instruction's
        polynomial is stored before its operands are counted down, so an
        exception raised mid-replay loses nothing: the next read resumes.

        Each instruction is dispatched on its op: a load builds its one-term
        polynomial from the name alone, ``+``, ``-`` and ``*`` read their two
        registers directly, and only ``sum`` gathers its operands in a list.
        """
        code, values, readers = self._code, self._values, self._readers
        max_terms = self._max_terms
        for i in sorted(_cone(code, index, values)):
            ins = code[i]
            op = ins[0]
            if op == "load":
                if max_terms is not None and max_terms < 1:
                    raise _over_budget(max_terms, op, 1)
                values[i] = param(ins[1])
                continue
            if op == "sum":
                args = [values[j] for j in ins[1:]]
                if max_terms is not None:
                    need = sum(len(a._terms) for a in args)
                    if need > max_terms:
                        raise _over_budget(max_terms, op, need)
                values[i] = sum_exprs(args)
            else:
                a, b = values[ins[1]], values[ins[2]]
                if max_terms is not None:
                    m, n = len(a._terms), len(b._terms)
                    need = m * n if op == "*" else m + n
                    if need > max_terms:
                        raise _over_budget(max_terms, op, need)
                values[i] = _ARITHMETIC[op](a, b)
            for j in ins[1:]:
                readers[j] -= 1
                if not readers[j]:
                    del values[j]
        return values[index]


class Circuit:
    """A formula as a straight-line float program.

    Instruction ``i`` sets register ``i`` and is ``("load", name)`` or an
    op followed by the earlier registers it reads: ``("*", a, b)``,
    ``("+", a, b)``, ``("-", a, b)`` or ``("sum", a, b, ...)``.  The last
    register is the result.  The code is plain strings and integers, so it survives
    a JSON round trip: lists are read back as tuples, and a rebuilt circuit
    equals the original.  Binary parameters evaluate at 0 or 1, where
    repeated factors are already idempotent, so nothing needs collapsing.
    The program is compiled to a Python function on first evaluation, once
    per code content (see :func:`_compile_program`).
    """

    __slots__ = ("code", "_names", "_binary", "_compiled")

    def __init__(self, code: Iterable[tuple]) -> None:
        code = tuple(code)
        if not code:
            raise ExprError("a circuit needs at least one instruction")
        for i, ins in enumerate(code):
            _check_instruction(i, ins)
        self.code: Tuple[tuple, ...] = tuple(tuple(ins) for ins in code)
        self._names = frozenset(ins[1] for ins in self.code if ins[0] == "load")
        self._binary = tuple(n for n in sorted(self._names) if is_binary(n))
        self._compiled: Optional[Callable[[Mapping[str, Number]], Number]] = None

    def parameter_names(self) -> Tuple[str, ...]:
        """Names of the parameters the program loads, sorted."""
        return tuple(sorted(self._names))

    def __len__(self) -> int:
        return len(self.code)


def _check_instruction(i: int, ins: object) -> None:
    """Raise :class:`ExprError` unless ``ins`` is well-formed as instruction ``i``."""
    op = ins[0] if isinstance(ins, (list, tuple)) and ins else None
    if op == "load":
        if len(ins) != 2 or not isinstance(ins[1], str):
            raise ExprError(f"instruction {i}: a load names its parameter by a string")
        return
    if op not in ("+", "-", "*", "sum"):  # a tuple, since ``op`` may be unhashable
        raise ExprError(f"instruction {i}: unknown circuit instruction {op!r}")
    registers = ins[1:]
    if op == "sum":
        if not registers:
            raise ExprError(f"instruction {i}: a sum adds a non-empty list of registers")
    elif len(registers) != 2:
        raise ExprError(f"instruction {i}: {op!r} takes two registers, got {len(registers)}")
    for reg in registers:
        if isinstance(reg, bool) or not isinstance(reg, int) or not 0 <= reg < i:
            raise ExprError(f"instruction {i}: {reg!r} is not an earlier register")


#: One grid dimension of :func:`search`: parameter names and their values.
Axis = Tuple[Iterable[str], Iterable[Number]]


#: How :func:`search` ranks grid points: two Python expressions over the
#: circuits' values ``y0, y1, ...`` (floats, in circuit order), a boolean
#: ``first`` and a float ``key``.
Rank = Tuple[str, str]


def search(
    circuits: Sequence[Circuit],
    binding: Mapping[str, Number],
    axes: Sequence[Axis],
    rank: Rank,
) -> Optional[Tuple[tuple, Tuple[float, ...]]]:
    """The best point of a grid of bindings, and its circuit values.

    ``axes`` holds one ``(names, values)`` pair per grid dimension.  A point
    binds each axis's value to all of its names on top of ``binding``; where
    axes share a name, the later one wins.  Points come in
    :func:`itertools.product` order (the last axis changes fastest), and a
    point's values are what :func:`evaluate` returns for each circuit on
    that binding, bit for bit.  No instruction is re-associated; each one
    only reruns when an axis it depends on moves, so a grid point costs just
    the instructions the last axis drives.

    With ``rank = (first, key)``, a point is better than another when its
    ``(not first, key)`` compares less: points where ``first`` holds rank
    before all others, then lower ``key`` wins.  Of equal points the one
    earliest in product order wins, so the choice is the one ``min`` makes
    over the grid with that key.  Returns the winning point's axis values
    and the tuple of its circuit values, or None for an empty grid.  The
    ranking runs inside the grid's innermost loop as generated code, so it
    must be built from numeric literals and the ``y`` names alone.

    The binding is checked once, up front, and raises the
    :class:`ExprError` :func:`evaluate` would for a missing name or a binary
    parameter outside {0, 1}; an axis naming a binary parameter raises one
    too.
    """
    codes, names = _check_grid(circuits, binding, axes)
    program = _compile_program(codes, names, tuple(rank))
    return program(binding, *(tuple(values) for _, values in axes))


def _check_grid(
    circuits: Sequence[Circuit], binding: Mapping[str, Number], axes: Sequence[Axis],
) -> Tuple[Tuple[Tuple[tuple, ...], ...], Tuple[Tuple[str, ...], ...]]:
    """Check a grid's binding once; return the circuits' codes and axis names."""
    circuits = tuple(circuits)
    if not circuits:
        raise ExprError("a search needs at least one circuit")
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
    return tuple(c.code for c in circuits), names


_SUM_CHUNK = 256

#: Loops a search program nests at most (Python allows 20 nested blocks);
#: the innermost one runs every further axis through ``itertools.product``.
_MAX_LOOPS = 16

#: Compiled programs kept at most, least recently used dropped first.
_PROGRAM_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_PROGRAM_CACHE_SIZE)
def _compile_program(
    codes: Tuple[Tuple[tuple, ...], ...],
    axes: Optional[Tuple[Tuple[str, ...], ...]],
    rank: Optional[Rank],
) -> Callable:
    """Python function of circuit programs: one assignment per instruction.

    It makes two programs.  With ``axes`` and ``rank`` None, ``program(b)``
    returns the value of the one circuit in ``codes`` (:func:`evaluate`).
    Otherwise ``program(b, v1, v2, ...)`` is :func:`search`: it loops over
    the value lists nested in axis order, ranks every point in the innermost
    loop and returns the winner.  Each instruction sits in the loop of the
    innermost axis it depends on, or before the loops if it depends on none
    (loop-invariant code motion); a parameter that axes name reads the loop
    variable of the last such axis.

    Memoized on the circuits' code, the axis names and the ranking, so
    circuits built again from the same model (or read back from JSON) run
    the function already compiled.  Callers pass all three arguments
    positionally, so one content is one key.

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
                level.append(max(level[j] for j in ins[1:]))
                # Left to right, in chunks: Python's compiler recurses once per
                # operator of a chained expression.
                terms = [f"x{base + j}" for j in ins[1:]]
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
    if axes is not None:
        # The best point so far, its key, and whether it ranks first.
        lines.append("    best, best_key, best_first = None, 0.0, False")
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
        # (not first, key) < best's, as tuples compare: a first-ranked point
        # beats any other, and between equals of ``first`` only a strictly
        # lower key wins.  The first point of the grid is taken whatever its
        # key (NaN included), as ``min`` takes it.
        indent = "    " * (depth + 1)
        first, key = rank
        ys = [f"y{j}" for j in range(len(outs))]
        winner = (f"({''.join(f'a{k}, ' for k in range(1, n_axes + 1))}), "
                  f"({''.join(y + ', ' for y in ys)})")
        lines.extend(f"{indent}{y} = float({o})" for y, o in zip(ys, outs))
        lines += [
            f"{indent}key = {key}",
            f"{indent}if {first}:",
            f"{indent}    if not best_first or key < best_key:",
            f"{indent}        best, best_key, best_first = ({winner}), key, True",
            f"{indent}elif not best_first and (key < best_key or best is None):",
            f"{indent}    best, best_key = ({winner}), key",
            "    return best",
        ]
    namespace: Dict[str, object] = {"product": itertools.product}
    exec(compile("\n".join(lines), "<circuit>", "exec"), namespace)
    return namespace["program"]  # type: ignore[return-value]


# -- textual form -------------------------------------------------------------


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
            factors.append(str(mag))  # "3", "3/2"
        factors.extend(mono)
        body = "*".join(factors)
        if i == 0:
            pieces.append(("-" if neg else "") + body)
        else:
            pieces.append((" - " if neg else " + ") + body)
    return "".join(pieces)


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


def _split_terms(text: str) -> List[Tuple[int, str]]:
    """``text`` cut into (sign, term) pairs at each ``+`` and ``-``: only the
    first term may come without an operator, and every operator needs a
    term after it."""
    out = []
    sign, token, after_operator = 1, [], False
    for ch in text:
        if ch in "+-":
            term = "".join(token).strip()
            if term:
                out.append((sign, term))
            elif after_operator:
                raise ExprError(f"two operators in a row in expression: {text!r}")
            sign, token, after_operator = -1 if ch == "-" else 1, [], True
        else:
            token.append(ch)
    term = "".join(token).strip()
    if not term:
        raise ExprError(f"operator with no term after it in expression: {text!r}")
    out.append((sign, term))
    return out


def _is_number(tok: str) -> bool:
    try:
        Fraction(tok)
        return True
    except (ValueError, ZeroDivisionError):
        return False


def _is_name(tok: str) -> bool:
    return tok.replace("_", "a").replace(".", "a").isalnum() and not tok[0].isdigit()
