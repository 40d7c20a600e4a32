"""Canonical-form polynomial engine tests."""

import random
from fractions import Fraction

import pytest

from goalc.symexpr import (
    BINARY_KINDS,
    ExprError,
    ONE,
    Parameter,
    ParamKind,
    SymExpr,
    ZERO,
    _PREFIX_KINDS,
    constant,
    evaluate,
    kind_from_name,
    param,
    parse_expr,
    render,
    rename_params,
    substitute,
    sum_exprs,
)


def V(name):
    return param(name)


class TestParam:
    """``param`` builds its one term directly; it must equal the normalized
    construction for every kind of name, binary ones included."""

    @pytest.mark.parametrize("name", [prefix + "x_1" for prefix, _ in _PREFIX_KINDS] + ["x"])
    def test_matches_the_normalized_term(self, name):
        p = param(name)
        assert p.terms == SymExpr([(1, (name,))]).terms
        assert type(p.terms[0][0]) is Fraction
        assert p == SymExpr([(1, (name,))]) and hash(p) == hash(SymExpr([(1, (name,))]))
        assert p * p == SymExpr([(1, (name, name))])


class TestCanonicalForm:
    def test_like_terms_merge(self):
        r = V("r_a")
        assert r + r == constant(2) * r
        assert (r - r).is_zero()
        assert r - r == ZERO

    def test_zero_coefficients_drop_out(self):
        e = V("r_a") * constant(0) + V("f_a")
        assert e.parameter_names() == ("f_a",)
        assert len(e.terms) == 1

    def test_monomials_are_sorted_multisets(self):
        a, b = V("r_a"), V("r_b")
        assert a * b == b * a
        assert render(a * b) == "r_a*r_b"

    def test_square_keeps_powers_of_ordinary_params(self):
        r, f = V("r_a"), V("f_a")
        sq = (r + f) * (r + f)
        assert render(sq) == "f_a*f_a + 2*f_a*r_a + r_a*r_a"

    def test_binary_params_are_idempotent(self):
        c = V("C_k")
        assert c * c == c
        # (C + 1)^2 = C*C + 2C + 1 = 3C + 1
        e = (c + ONE) * (c + ONE)
        assert e == constant(3) * c + ONE

    def test_opt_params_are_idempotent(self):
        o = V("OPT_n_X")
        assert o * o * o == o

    def test_equality_is_semantic(self):
        r, f, w = V("r_a"), V("f_a"), V("w_a")
        assert (r + f) * w == w * f + r * w
        assert hash((r + f) * w) == hash(w * f + r * w)

    def test_non_finite_coefficient_rejected(self):
        with pytest.raises(ExprError, match="non-finite"):
            constant(float("nan"))
        with pytest.raises(ExprError, match="non-finite"):
            constant(float("inf"))


def reference_terms(terms):
    """Plain normal form: sorted multiset, binary-only collapse, merge, drop zeros."""
    acc = {}
    for coeff, names in terms:
        mono = []
        for name in sorted(names):
            if mono and mono[-1] == name and kind_from_name(name) in BINARY_KINDS:
                continue
            mono.append(name)
        mono = tuple(mono)
        acc[mono] = acc.get(mono, Fraction(0)) + Fraction(coeff)
    return tuple((c, m) for m, c in sorted(acc.items()) if c != 0)


class TestKernelNormalForm:
    """The constructor against :func:`reference_terms` on random term lists."""

    NAMES = ["r_a", "r_b", "f_a", "w_a", "C_x", "C_y", "OPT_z_X"]

    def random_coeff(self, rng):
        return rng.choice([
            rng.randint(-3, 3),
            rng.choice([0.5, -0.25, 1.5, 0.1]),
            Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
        ])

    def random_terms(self, rng):
        terms = []
        for _ in range(rng.randint(0, 8)):
            # Draw with replacement, so binary and non-binary names repeat.
            names = [rng.choice(self.NAMES) for _ in range(rng.randint(0, 6))]
            terms.append((self.random_coeff(rng), names))
            if rng.random() < 0.3:  # a cancelling copy, names permuted
                coeff, names = terms[-1]
                terms.append((-coeff, rng.sample(names, len(names))))
        rng.shuffle(terms)
        return terms

    def test_matches_reference(self):
        rng = random.Random(41)
        for _ in range(500):
            terms = self.random_terms(rng)
            want = reference_terms(terms)
            got = SymExpr(terms)
            assert got.terms == want
            assert all(type(c) is Fraction for c, _ in got.terms)
            assert got.parameter_names() == tuple(
                sorted({n for _, m in want for n in m})
            )

    def test_binary_repeats_collapse_and_others_do_not(self):
        e = SymExpr([(1, ["C_x", "r_a", "C_x", "r_a", "OPT_z_X", "OPT_z_X"])])
        assert e.terms == ((Fraction(1), ("C_x", "OPT_z_X", "r_a", "r_a")),)

    def test_sum_exprs_matches_pairwise_sums(self):
        rng = random.Random(47)
        tl = TestRingLaws()
        for _ in range(100):
            exprs = [tl.random_expr(rng, self.NAMES) for _ in range(rng.randint(0, 5))]
            want = ZERO
            for e in exprs:
                want = want + e
            got = sum_exprs(exprs)
            assert got == want
            assert got.parameter_names() == want.parameter_names()


class TestRingLaws:
    """Algebraic laws hold on the canonical form, checked on random inputs."""

    def random_expr(self, rng, names):
        e = constant(rng.randint(-3, 3))
        for _ in range(rng.randint(1, 4)):
            mono = ONE
            for name in rng.sample(names, rng.randint(1, 3)):
                mono = mono * V(name)
            e = e + constant(Fraction(rng.randint(-6, 6), rng.randint(1, 4))) * mono
        return e

    def test_laws(self):
        rng = random.Random(7)
        names = ["r_a", "r_b", "f_a", "w_a", "C_x", "OPT_y_X"]
        for _ in range(200):
            a = self.random_expr(rng, names)
            b = self.random_expr(rng, names)
            c = self.random_expr(rng, names)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a - a == ZERO
            assert a + ZERO == a
            assert a * ONE == a
            assert a * ZERO == ZERO
            assert -(-a) == a


class TestEvaluate:
    def test_simple(self):
        e = V("r_a") * V("f_a") + V("w_a")
        got = evaluate(e, {"r_a": 0.5, "f_a": 0.5, "w_a": 2})
        assert got == 2.25

    def test_missing_binding(self):
        with pytest.raises(ExprError, match="missing binding"):
            evaluate(V("r_a"), {})

    def test_binary_domain_enforced(self):
        c = V("C_k")
        with pytest.raises(ExprError, match="must bind to 0 or 1"):
            evaluate(c, {"C_k": 0.5})
        assert evaluate(c, {"C_k": 1}) == 1.0

    def test_deterministic_accumulation(self):
        rng = random.Random(3)
        names = [f"r_n{i}" for i in range(8)]
        e = ONE
        for n in names:
            e = e * (V(n) + constant(0.1))
        binding = {n: rng.random() for n in names}
        first = evaluate(e, binding)
        assert all(evaluate(e, binding) == first for _ in range(5))

    def test_extra_bindings_ignored(self):
        assert evaluate(V("r_a"), {"r_a": 1.0, "r_unused": 0.0}) == 1.0


class TestSubstitute:
    def test_partial(self):
        e = parse_expr("r_a*f_a + w_a")
        got = substitute(e, {"r_a": Fraction(1, 2)})
        assert got == parse_expr("1/2*f_a + w_a")

    def test_full_substitution_matches_evaluate(self):
        rng = random.Random(11)
        names = ["r_a", "r_b", "f_a", "w_a", "C_x"]
        tl = TestRingLaws()
        for _ in range(100):
            e = tl.random_expr(rng, names)
            binding = {n: Fraction(rng.randint(0, 8), 8) for n in names}
            for n in names:
                if kind_from_name(n) in BINARY_KINDS:
                    binding[n] = rng.randint(0, 1)
            collapsed = substitute(e, binding)
            assert collapsed.parameter_names() == ()
            coeff = collapsed.terms[0][0] if collapsed.terms else Fraction(0)
            assert float(coeff) == pytest.approx(evaluate(e, binding), abs=1e-12)

    def test_substitution_commutes_with_product(self):
        a = parse_expr("r_a*f_a")
        b = parse_expr("r_b + C_x")
        binding = {"r_a": Fraction(1, 3), "C_x": 1}
        assert substitute(a * b, binding) == substitute(a, binding) * substitute(b, binding)

    def test_binary_domain_enforced(self):
        with pytest.raises(ExprError, match="must bind to 0 or 1"):
            substitute(V("C_k"), {"C_k": 0.3})


class TestRename:
    def test_like_monomials_merge_after_rename(self):
        e = parse_expr("f_a*r_a + f_b*r_b")
        merged = rename_params(e, {"f_a": "f_g", "f_b": "f_g"})
        assert merged == parse_expr("f_g*r_a + f_g*r_b")
        both = rename_params(e, {"f_a": "f_g", "f_b": "f_g", "r_a": "r_g", "r_b": "r_g"})
        assert both == parse_expr("2*f_g*r_g")

    def test_binary_target_recollapses(self):
        e = V("r_a") * V("r_b")
        assert rename_params(e, {"r_a": "C_g", "r_b": "C_g"}) == param("C_g")


class TestTextualForm:
    def test_render_zero(self):
        assert render(ZERO) == "0"
        assert parse_expr("0") == ZERO

    def test_render_hides_unit_coefficients(self):
        assert render(V("r_a")) == "r_a"
        assert render(-V("r_a")) == "-r_a"
        assert render(constant(1)) == "1"
        assert render(constant(Fraction(3, 2)) * V("r_a")) == "3/2*r_a"

    def test_sign_layout(self):
        e = V("r_a") - V("r_b") - constant(2)
        assert render(e) == "-2 + r_a - r_b"
        assert parse_expr(render(e)) == e  # the leading sign reads back

    def test_round_trip_random(self):
        rng = random.Random(23)
        names = ["r_a", "r_b", "f_a", "w_a", "C_x", "OPT_y_X"]
        tl = TestRingLaws()
        for _ in range(150):
            e = tl.random_expr(rng, names)
            assert parse_expr(render(e)) == e

    def test_parse_infers_kinds_from_prefixes(self):
        e = parse_expr("C_x*C_x*r_a")
        assert e == parse_expr("C_x*r_a")  # context inferred binary
        kinds = {n: Parameter(n).kind for n in e.parameter_names()}
        assert kinds == {"C_x": ParamKind.CONTEXT, "r_a": ParamKind.RELIABILITY}

    def test_parse_rejects_garbage(self):
        for bad in ("", "   ", "r_a*", "1 + %", "2r",
                    "r_a - -r_b", "r_a - + r_b", "- -r_a", "r_a +", "-"):
            with pytest.raises(ExprError):
                parse_expr(bad)
