"""Canonical multivariate polynomials over named parameters.

Expressions are kept in a normal form: a sorted tuple of (coefficient,
monomial) terms with exact rational coefficients and monomials stored as
sorted name multisets.  Parameters that model binary quantities (context
truth, optional-resource flags) are idempotent: any power collapses to the
first, so ``C*C*r`` and ``C*r`` are the same expression.  Two expressions
are semantically equal iff their normal forms compare equal, which makes
polynomial identities checkable with ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

Number = Union[int, float, Fraction]


class ExprError(ValueError):
    """Raised for malformed expressions, bindings, or parse failures."""


class ParamKind(Enum):
    RELIABILITY = "reliability"
    FREQUENCY = "frequency"
    COST = "cost"
    CONTEXT = "context"
    OPT = "opt"


#: Kinds whose parameters take values in {0, 1} and are idempotent.
BINARY_KINDS = frozenset({ParamKind.CONTEXT, ParamKind.OPT})

#: Name prefixes used to recover parameter kinds when parsing rendered text.
_PREFIX_KINDS = (
    ("OPT_", ParamKind.OPT),
    ("C_", ParamKind.CONTEXT),
    ("r_", ParamKind.RELIABILITY),
    ("f_", ParamKind.FREQUENCY),
    ("w_", ParamKind.COST),
)


@dataclass(frozen=True, order=True)
class Parameter:
    """A named model parameter (reliability, frequency, cost weight, ...)."""

    name: str
    kind: ParamKind
    ref: str = ""  # id of the node or context the parameter belongs to

    def __post_init__(self) -> None:
        if not self.name:
            raise ExprError("parameter name must be non-empty")


def kind_from_name(name: str) -> ParamKind:
    """Infer a parameter kind from the standard naming prefixes."""
    for prefix, kind in _PREFIX_KINDS:
        if name.startswith(prefix):
            return kind
    return ParamKind.RELIABILITY


Term = Tuple[Fraction, Tuple[str, ...]]


class SymExpr:
    """An immutable polynomial in canonical form."""

    __slots__ = ("_terms", "_registry")

    def __init__(
        self,
        terms: Iterable[Tuple[Number, Iterable[str]]],
        registry: Mapping[str, Parameter],
    ) -> None:
        reg = registry if isinstance(registry, dict) else dict(registry)
        self._terms: Tuple[Term, ...] = _normalize(terms, reg)
        # Keep only parameters that actually occur with nonzero coefficient.
        used = set().union(*(mono for _, mono in self._terms))
        if len(used) == len(reg):  # every name occurs: keep the registry order
            self._registry: Dict[str, Parameter] = dict(reg)
        else:
            self._registry = {n: p for n, p in reg.items() if n in used}

    # -- accessors ---------------------------------------------------------

    @property
    def terms(self) -> Tuple[Term, ...]:
        return self._terms

    def parameters(self) -> Tuple[Parameter, ...]:
        """Parameters occurring with nonzero coefficient, sorted by name."""
        return tuple(self._registry[n] for n in sorted(self._registry))

    def parameter_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._registry))

    def registry(self) -> Dict[str, Parameter]:
        return dict(self._registry)

    def is_zero(self) -> bool:
        return not self._terms

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "SymExpr") -> "SymExpr":
        reg = {**self._registry, **other._registry}
        return SymExpr(
            [(c, m) for c, m in self._terms] + [(c, m) for c, m in other._terms], reg
        )

    def __sub__(self, other: "SymExpr") -> "SymExpr":
        reg = {**self._registry, **other._registry}
        return SymExpr(
            [(c, m) for c, m in self._terms]
            + [(-c, m) for c, m in other._terms],
            reg,
        )

    def __neg__(self) -> "SymExpr":
        return SymExpr([(-c, m) for c, m in self._terms], self._registry)

    def __mul__(self, other: "SymExpr") -> "SymExpr":
        reg = {**self._registry, **other._registry}
        prods = [
            (c1 * c2, m1 + m2)
            for c1, m1 in self._terms
            for c2, m2 in other._terms
        ]
        return SymExpr(prods, reg)

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


def _normalize(
    terms: Iterable[Tuple[Number, Iterable[str]]], reg: Dict[str, Parameter]
) -> Tuple[Term, ...]:
    """Sort each monomial, collapse binary powers, merge like terms, drop zeros."""
    names = reg.keys()
    acc: Dict[Tuple[str, ...], Fraction] = {}
    for coeff, monomial in terms:
        coeff = _as_fraction(coeff)
        mono = tuple(sorted(monomial))
        distinct = set(mono)
        if not names >= distinct:
            missing = next(n for n in mono if n not in reg)
            raise ExprError(f"unregistered parameter in monomial: {missing!r}")
        if len(distinct) != len(mono):
            mono = _collapse_binary(mono, reg)
        if mono in acc:
            acc[mono] += coeff
        else:
            acc[mono] = coeff
    return tuple((acc[m], m) for m in sorted(acc) if acc[m] != 0)


def _collapse_binary(mono: Tuple[str, ...], reg: Dict[str, Parameter]) -> Tuple[str, ...]:
    """Drop repeats of binary (idempotent) names from a sorted monomial.

    Only names that actually repeat have their kind looked up.
    """
    out = [mono[0]]
    for name in mono[1:]:
        if name == out[-1] and reg[name].kind in BINARY_KINDS:
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
    return SymExpr([(value, ())], {})


ZERO = constant(0)
ONE = constant(1)


def param(p: Parameter) -> SymExpr:
    """The polynomial consisting of the single parameter ``p``."""
    return SymExpr([(1, (p.name,))], {p.name: p})


def sum_exprs(exprs: Iterable[SymExpr]) -> SymExpr:
    """The sum of ``exprs``, normalized once rather than once per addition."""
    terms = []
    reg: Dict[str, Parameter] = {}
    for e in exprs:
        terms.extend(e._terms)
        reg.update(e._registry)
    return SymExpr(terms, reg)


# -- evaluation and substitution ---------------------------------------------


def _check_binary(p: Parameter, value: Number) -> None:
    if p.kind in BINARY_KINDS and value not in (0, 1):
        raise ExprError(
            f"parameter {p.name!r} of kind {p.kind.value} must bind to 0 or 1, "
            f"got {value!r}"
        )


def evaluate(expr: SymExpr, binding: Mapping[str, Number]) -> float:
    """Evaluate ``expr`` under a full binding, deterministically.

    Terms are accumulated in canonical order so repeated evaluation of the
    same expression and binding yields bit-identical floats.  Raises
    :class:`ExprError` for missing parameters or out-of-domain binary values.
    """
    reg = expr.registry()
    for name, p in reg.items():
        if name not in binding:
            raise ExprError(f"missing binding for parameter {name!r}")
        _check_binary(p, binding[name])
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
    reg = expr.registry()
    for name in binding:
        if name in reg:
            _check_binary(reg[name], binding[name])
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
    return SymExpr(new_terms, reg)


def rename_params(expr: SymExpr, mapping: Mapping[str, Parameter]) -> SymExpr:
    """Rename parameters; like monomials merge and binary powers re-collapse."""
    reg = expr.registry()
    for target in mapping.values():
        reg[target.name] = target
    new_terms = []
    for coeff, mono in expr.terms:
        new_terms.append(
            (coeff, tuple(mapping[n].name if n in mapping else n for n in mono))
        )
    return SymExpr(new_terms, reg)


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


def parse_expr(
    text: str, registry: Optional[Mapping[str, Parameter]] = None
) -> SymExpr:
    """Parse the textual form produced by :func:`render`.

    Unknown parameter names get their kind inferred from the standard
    prefixes (``r_``, ``f_``, ``w_``, ``C_``, ``OPT_``).
    """
    known: Dict[str, Parameter] = dict(registry or {})
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
                if factor not in known:
                    known[factor] = Parameter(factor, kind_from_name(factor))
                mono.append(factor)
        terms.append((coeff, tuple(mono)))
    return SymExpr(terms, known)


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
