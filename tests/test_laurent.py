from fractions import Fraction

import pytest
from hypothesis import given

from hirotaverify.gaussian import GaussianRational
from hirotaverify.laurent import (
    ExactDivisionError,
    LaurentPoly,
    Monomial,
    ParseError,
    ZERO,
    differentiate,
    evaluate,
    exact_divide,
    from_uv,
    monomial,
    parse,
    serialize,
    subst_t_inverse,
    subst_t_negate,
    subst_y_negate,
    swap_xy,
    to_uv,
)
from hirotaverify.wronskian import TauFamily

from conftest import (
    det_cofactor,
    from_uv_oracle,
    subst_linear,
    laurent_polys,
    polys,
    psi_xy,
    serialize_oracle,
    wronskian_matrix_xy,
    xy_polys,
)

X = monomial(1, ex=1)
Y = monomial(1, ey=1)
T = monomial(1, et=1)


class TestRingAxioms:
    @given(a=polys, b=polys, c=polys)
    def test_addition_and_multiplication(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @given(a=polys, b=polys.filter(bool))
    def test_exact_divide_inverts_product(self, a, b):
        assert exact_divide(a * b, b) == a

    @given(a=laurent_polys, b=laurent_polys)
    def test_laurent_exponents_allowed(self, a, b):
        assert (a * b) - (b * a) == ZERO

    @given(p=polys)
    def test_each_scalar_type_acts_as_its_constant(self, p):
        # A real scalar scales the numerators; a non-real one is refused.
        for c in (0, -3, Fraction(-5, 6), GaussianRational(Fraction(2, 3))):
            assert c * p == p * c == p.scale(c) == monomial(c) * p
            assert p + c == p + monomial(c)
        for operation in (lambda c: c * p, lambda c: p.scale(c), lambda c: p + c):
            with pytest.raises(ValueError, match="not a real coefficient"):
                operation(GaussianRational(1, -2))

    def test_non_scalars_are_refused(self):
        for bad in (1.5, "x", None):
            with pytest.raises(TypeError, match="not a scalar coefficient"):
                monomial(bad)
            with pytest.raises(TypeError):
                X * bad


class TestSubstitutions:
    @given(p=laurent_polys)
    def test_involutions_commute(self, p):
        assert subst_t_inverse(subst_t_inverse(p)) == p
        assert subst_y_negate(subst_y_negate(p)) == p
        assert subst_t_inverse(subst_y_negate(p)) == subst_y_negate(subst_t_inverse(p))

    # Each substitution maps every term on its own.  The term-wise maps go through terms().
    @pytest.mark.parametrize("subst, term_wise", [
        (subst_t_inverse, lambda m, c: (Monomial(-m.et, m.ex, m.ey), c)),
        (subst_y_negate, lambda m, c: (m, c * (-1) ** (m.ey % 2))),
        (subst_t_negate, lambda m, c: (m, c * (-1) ** (m.et % 2))),
        (swap_xy, lambda m, c: (Monomial(m.et, m.ey, m.ex), c)),
    ], ids=["subst_t_inverse", "subst_y_negate", "subst_t_negate", "swap_xy"])
    @given(p=laurent_polys)
    def test_each_is_a_term_wise_map(self, subst, term_wise, p):
        q = p + monomial(Fraction(2, -3), et=-1, ex=2, ey=1)
        assert subst(q) == LaurentPoly([term_wise(m, c) for m, c in q.terms()])

    def test_named_examples(self):
        psi = psi_xy()
        u = parse("1/2*x + 1/2*y")
        v = parse("1/2*x + (-1/2)*y")
        assert subst_t_inverse(psi) == T * u + subst_t_inverse(T) * v
        assert subst_y_negate(psi) == subst_t_inverse(psi)
        assert swap_xy(X * Y) == X * Y
        assert swap_xy(X**2 * Y) == Y**2 * X

    def test_even_site_sign_rule(self):
        g2 = TauFamily.build(2).g[2]
        assert subst_t_negate(g2) == g2


class TestDifferentiate:
    def test_power_rule(self):
        assert differentiate(X**2 * Y, "x") == 2 * X * Y
        assert differentiate(X**2, "y") == ZERO

    def test_seed_derivative_coefficients(self):
        # d/dx psi has coefficient 1/2 at t and 1/2 at 1/t.
        split = differentiate(psi_xy(), "x").t_coefficients()
        assert split.get(1, ZERO) == LaurentPoly({Monomial(0, 0, 0): Fraction(1, 2)})
        assert split.get(-1, ZERO) == LaurentPoly({Monomial(0, 0, 0): Fraction(1, 2)})

    @given(a=polys, b=polys)
    def test_leibniz_rule(self, a, b):
        for var in ("x", "y"):
            lhs = differentiate(a * b, var)
            rhs = differentiate(a, var) * b + a * differentiate(b, var)
            assert lhs == rhs


class TestCoefficientExtraction:
    def test_seed_coefficients(self):
        psi = psi_xy()
        assert psi.t_coefficients().get(1, ZERO) == parse("1/2*x + (-1/2)*y")
        assert psi.t_coefficients().get(-1, ZERO) == parse("1/2*x + 1/2*y")
        assert psi.t_coefficients().get(3, ZERO).is_zero

    def test_parity_and_top_coefficient(self, fam5):
        g2 = fam5.g[2]
        assert g2.t_coefficients().get(1, ZERO).is_zero
        quarter = Fraction(1, 4)
        expected = from_uv(monomial(4, ex=1, ey=3))  # 4 u v^3
        assert g2.t_coefficients().get(2, ZERO) == expected
        assert expected == (X + Y) * (X - Y) ** 3 * quarter

    @given(p=laurent_polys)
    def test_reconstruction(self, p):
        rebuilt = ZERO
        for m, coeff_poly in p.t_coefficients().items():
            rebuilt = rebuilt + coeff_poly * monomial(1, et=m)
        assert rebuilt == p


class TestBasisChange:
    def test_linear_images(self):
        half = Fraction(1, 2)
        assert from_uv(monomial(1, ex=1)) == half * (X + Y)
        assert from_uv(4 * monomial(1, ex=1) * monomial(1, ey=1)) == X**2 - Y**2

    @given(a=xy_polys, b=xy_polys)
    def test_ring_homomorphism(self, a, b):
        assert from_uv(a * b) == from_uv(a) * from_uv(b)
        assert from_uv(a + b) == from_uv(a) + from_uv(b)

    def test_negative_exponents_rejected(self):
        with pytest.raises(ValueError):
            from_uv(monomial(1, ex=-1))
        with pytest.raises(ValueError):
            from_uv(X + monomial(1, et=2, ey=-1))

    @given(p=polys)
    def test_matches_substitution(self, p):
        # t-exponents of both signs; u -> (x+y)/2, v -> (x-y)/2.
        assert from_uv(p) == from_uv_oracle(p)

    @given(p=polys)
    def test_to_uv_is_the_inverse(self, p):
        # x -> u+v and y -> u-v, and each direction undoes the other.
        u, v = monomial(1, ex=1), monomial(1, ey=1)
        assert to_uv(p) == subst_linear(p, u + v, u - v)
        assert from_uv(to_uv(p)) == p and to_uv(from_uv(p)) == p

    def test_to_uv_refuses_negative_exponents(self):
        with pytest.raises(ValueError):
            to_uv(monomial(1, ey=-1))


class TestExactDivision:
    def test_difference_of_squares(self):
        prod = (X + T) * (X - T)
        assert prod == X**2 - T**2
        assert exact_divide(prod, X - T) == X + T

    def test_additive_cancellation(self):
        u = parse("1/2*x + 1/2*y")
        v = parse("1/2*x + (-1/2)*y")
        t_inv = monomial(1, et=-1)
        assert (T * v + t_inv * u) + (-(t_inv * u)) == T * v

    def test_failure_carries_remainder(self):
        with pytest.raises(ExactDivisionError) as exc:
            exact_divide(X**2 + 1, X + 1)
        assert not exc.value.remainder.is_zero

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            exact_divide(X, ZERO)

    def test_laurent_monomial_shifts(self):
        a = monomial(1, et=-2, ex=1) * (X + Y)
        b = monomial(1, et=-2)
        assert exact_divide(a, b) == X * (X + Y)


class TestSerialization:
    def test_canonical_example(self):
        tv = T * parse("1/2*x + (-1/2)*y")
        assert serialize(tv) == "(1/2)*t^1*x^1 + (-1/2)*t^1*y^1"

    def test_grammar_round_trip(self):
        p = parse("3/2 + 5*t^-2")
        assert parse(serialize(p)) == p
        assert p.t_coefficients().get(-2, ZERO) == LaurentPoly({Monomial(0, 0, 0): 5})

    def test_two_build_routes_serialize_identically(self, fam5):
        direct = det_cofactor(wronskian_matrix_xy(psi_xy(), 2))
        assert serialize(direct) == serialize(fam5.g[2])

    def test_zero(self):
        assert serialize(ZERO) == "0"
        assert parse("0").is_zero

    @given(p=laurent_polys)
    def test_round_trip_random(self, p):
        assert parse(serialize(p)) == p

    def test_matches_term_by_term_formatter_on_family(self, fam5):
        for poly in fam5.tau + fam5.f:
            assert serialize(poly) == serialize_oracle(poly)

    @given(p=laurent_polys)
    def test_matches_term_by_term_formatter(self, p):
        for q in (p, GaussianRational(Fraction(-2, 15)) * p):
            assert serialize(q) == serialize_oracle(q)

    # The imaginary unit is outside the grammar: coefficients are rational.
    @pytest.mark.parametrize("text", ["i", "(1/2-3/4*i)*x^2*y^-1 - 2*t^3", "i*i*x"])
    def test_refuses_the_imaginary_unit(self, text):
        with pytest.raises(ParseError, match="unexpected character 'i'") as exc:
            parse(text)
        assert exc.value.position == text.index("i")

    ERROR_POSITIONS = {
        "x^": 2, "(1/2": 4, "1/0": 2, "x**2": 2, "q + 1": 0, "3/2 +": 5, "(x)": 1,
        "x y": 2, "1/x": 2, "x^y": 2, "(1/2))": 5, "- -x": 2, "x + -y": 4, "(1 + )": 5,
        "t^ - ": 5, "()": 1, "  ": 2, "": 0, "(i*/2)": 1, "(2*/2)": 3, " 3/ 0": 4,
    }

    @pytest.mark.parametrize("bad", list(ERROR_POSITIONS))
    def test_errors_carry_positions(self, bad):
        with pytest.raises(ParseError) as exc:
            parse(bad)
        assert exc.value.position == self.ERROR_POSITIONS[bad]

    # Spaces, tabs, "\n" and "\r" are the only whitespace, and digits are ASCII.
    @pytest.mark.parametrize("bad", ["x\x0c", "x\x0b", "x\x85", "x\u2028", "x^\u0663"])
    def test_refuses_characters_outside_the_grammar(self, bad):
        with pytest.raises(ParseError, match="unexpected character") as exc:
            parse(bad)
        assert exc.value.position == len(bad) - 1

    @pytest.mark.parametrize("text, terms", [
        ("  3 /4 *x ^ 2\t-\ny ", [((0, 2, 0), Fraction(3, 4)), ((0, 0, 1), -1)]),
        ("1 + 2 - 1/2", [((0, 0, 0), Fraction(5, 2))]),
        ("(1/2 + 1)*(3 - 2/5)*x", [((0, 1, 0), Fraction(39, 10))]),
        ("-(1/3*2)*t", [((1, 0, 0), Fraction(-2, 3))]),
        ("7", [((0, 0, 0), 7)]),
        ("2*3*x", [((0, 1, 0), 6)]),
        ("x*x^2*y*t^-1*x^-4", [((-1, -1, 1), 1)]),
        ("t^-3*y^-2 + 2/6*t^-3*y^-2", [((-3, 0, -2), Fraction(4, 3))]),
        ("x - x + 0*y", []),
        ("+x^+2", [((0, 2, 0), 1)]),
        ("x*y - 1/2*x*y + (1/3 - 1)*x*y + t - t + 2*y^2 + 3/4",
         [((0, 1, 1), 1), ((0, 1, 1), Fraction(-1, 2)), ((0, 1, 1), Fraction(-2, 3)),
          ((1, 0, 0), 1), ((1, 0, 0), -1), ((0, 0, 2), 2), ((0, 0, 0), Fraction(3, 4))]),
    ])
    def test_grammar_cases_build_their_terms(self, text, terms):
        expected = ZERO
        for exps, coeff in terms:
            expected = expected + monomial(coeff, *exps)
        assert parse(text) == expected
        # The constructor and the parser share one term accumulator.
        assert LaurentPoly(terms) == parse(text) and hash(LaurentPoly(terms)) == hash(parse(text))

    def test_exponent_outside_its_field(self):
        with pytest.raises(OverflowError):
            parse("t^1024")
        with pytest.raises(OverflowError):
            parse("x^1023*x*(1/0)")  # raised where the product leaves the field
        assert parse("t^1023*t^-1") == monomial(1, et=1022)
        assert parse("0*t^1023*t").is_zero


def test_leading_term_order():
    p = parse("x + y + t*x^2 + t^-1")
    mono, coeff = p.leading_term()
    assert mono == Monomial(1, 2, 0)
    assert coeff == 1
    # Within equal t and total degree, larger x-exponent leads.
    q = parse("y^2 + x*y")
    assert q.leading_term()[0] == Monomial(0, 1, 1)


def test_zero_has_no_leading_term():
    with pytest.raises(ValueError, match="no leading term"):
        ZERO.leading_term()


def test_powers_are_non_negative_integers():
    for exponent in (-1, 1.5):
        with pytest.raises(ValueError, match="non-negative integers"):
            X ** exponent


def test_differentiate_refuses_other_variables():
    with pytest.raises(ValueError, match="'x' or 'y'"):
        differentiate(X, "z")


def test_str_operands_refused():
    for operation in (lambda: X + "x", lambda: "x" + X, lambda: X - "x", lambda: "x" - X):
        with pytest.raises(TypeError):
            operation()
    assert (X == "x") is False and X != "x"


def test_repr_truncates_long_text():
    short = parse("x + t")
    assert repr(short) == f"LaurentPoly[{serialize(short)}]"
    long = sum(monomial(k + 1, ex=k) for k in range(40))
    text = serialize(long)
    assert len(text) > 120
    assert repr(long) == f"LaurentPoly[{text[:117]}...]"


def test_evaluate_exact():
    p = parse("x^2*y - t^-1")
    [([(re, im)], den)] = evaluate([p], [(Fraction(3, 2), 2, Fraction(1, 2))])
    assert (Fraction(re, den), im) == (Fraction(9, 4) * 2 - 2, 0)
    with pytest.raises(ZeroDivisionError):
        list(evaluate([p], [(1, 1, 0)]))
