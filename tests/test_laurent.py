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
    conjugate_coeffs,
    differentiate,
    exact_divide,
    from_uv,
    monomial,
    parse,
    serialize,
    subst_t_inverse,
    subst_t_negate,
    subst_t_times_i,
    subst_y_negate,
    swap_xy,
    to_uv,
    variable,
)
from hirotaverify.wronskian import build_psi, TauFamily

from conftest import laurent_polys, nonzero_polys, polys, xy_polys

X = variable("x")
Y = variable("y")
T = variable("t")


class TestRingAxioms:
    @given(a=polys, b=polys, c=polys)
    def test_addition_and_multiplication(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @given(a=polys, b=nonzero_polys)
    def test_exact_divide_inverts_product(self, a, b):
        assert exact_divide(a * b, b) == a

    @given(a=laurent_polys, b=laurent_polys)
    def test_laurent_exponents_allowed(self, a, b):
        assert (a * b) - (b * a) == ZERO


class TestSubstitutions:
    @given(p=laurent_polys)
    def test_involutions_commute(self, p):
        assert subst_t_inverse(subst_t_inverse(p)) == p
        assert subst_y_negate(subst_y_negate(p)) == p
        assert subst_t_inverse(subst_y_negate(p)) == subst_y_negate(subst_t_inverse(p))

    @given(p=laurent_polys)
    def test_t_rotation_order_four(self, p):
        q = p
        for _ in range(4):
            q = subst_t_times_i(q)
        assert q == p

    def test_named_examples(self):
        psi = build_psi()
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
        dpsi = differentiate(build_psi(), "x")
        assert dpsi.coeff_of_t(1) == LaurentPoly({Monomial(0, 0, 0): Fraction(1, 2)})
        assert dpsi.coeff_of_t(-1) == LaurentPoly({Monomial(0, 0, 0): Fraction(1, 2)})

    @given(a=polys, b=polys)
    def test_leibniz_rule(self, a, b):
        for var in ("x", "y"):
            lhs = differentiate(a * b, var)
            rhs = differentiate(a, var) * b + a * differentiate(b, var)
            assert lhs == rhs


class TestCoefficientExtraction:
    def test_seed_coefficients(self):
        psi = build_psi()
        assert psi.coeff_of_t(1) == parse("1/2*x + (-1/2)*y")
        assert psi.coeff_of_t(-1) == parse("1/2*x + 1/2*y")
        assert psi.coeff_of_t(3).is_zero

    def test_parity_and_top_coefficient(self, fam5):
        g2 = fam5.g[2]
        assert g2.coeff_of_t(1).is_zero
        quarter = Fraction(1, 4)
        expected = from_uv(monomial(4, ex=1, ey=3))  # 4 u v^3
        assert g2.coeff_of_t(2) == expected
        assert expected == (X + Y) * (X - Y) ** 3 * quarter

    @given(p=laurent_polys)
    def test_reconstruction(self, p):
        rebuilt = ZERO
        for m, coeff_poly in p.t_coefficients().items():
            rebuilt = rebuilt + coeff_poly * monomial(1, et=m)
        assert rebuilt == p


class TestBasisChange:
    def test_linear_images(self):
        u_plus_v = parse("x + y")  # u,v slots
        assert to_uv(X) == u_plus_v
        assert to_uv(X**2 - Y**2) == 4 * variable("x") * variable("y")

    def test_round_trip_on_family(self, fam5):
        g3 = fam5.g[3]
        assert from_uv(to_uv(g3)) == g3

    @given(p=xy_polys)
    def test_round_trip_random(self, p):
        assert from_uv(to_uv(p)) == p

    def test_negative_exponents_rejected(self):
        with pytest.raises(ValueError):
            to_uv(monomial(1, ex=-1))


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
        p = parse("3/2 + i*t^-2")
        assert parse(serialize(p)) == p
        assert p.coeff_of_t(-2) == LaurentPoly({Monomial(0, 0, 0): GaussianRational(0, 1)})

    def test_two_build_routes_serialize_identically(self, fam5):
        from hirotaverify.wronskian import (
            build_psi,
            det_cofactor,
            leading_minor,
            wronskian_matrix,
        )

        direct = det_cofactor(leading_minor(wronskian_matrix(build_psi(), 2), 2))
        assert serialize(direct) == serialize(fam5.g[2])

    def test_zero(self):
        assert serialize(ZERO) == "0"
        assert parse("0").is_zero

    @given(p=laurent_polys)
    def test_round_trip_random(self, p):
        assert parse(serialize(p)) == p

    def test_complex_coefficient_round_trip(self):
        p = parse("(1/2-3/4*i)*x^2*y^-1 - 2*t^3")
        assert parse(serialize(p)) == p

    @pytest.mark.parametrize(
        "bad", ["x^", "(1/2", "1/0", "x**2", "q + 1", "3/2 +", "(x)"]
    )
    def test_errors_carry_positions(self, bad):
        with pytest.raises(ParseError) as exc:
            parse(bad)
        assert exc.value.position >= 0


def test_conjugate_coeffs():
    p = parse("(1+1*i)*x + 2*t")
    q = conjugate_coeffs(p)
    assert q == parse("(1-1*i)*x + 2*t")
    assert conjugate_coeffs(q) == p


def test_leading_term_order():
    p = parse("x + y + t*x^2 + t^-1")
    mono, coeff = p.leading_term()
    assert mono == Monomial(1, 2, 0)
    assert coeff == 1
    # Within equal t and total degree, larger x-exponent leads.
    q = parse("y^2 + x*y")
    assert q.leading_term()[0] == Monomial(0, 1, 1)


def test_evaluate_exact():
    p = parse("x^2*y - t^-1")
    value = p.evaluate(Fraction(3, 2), 2, Fraction(1, 2))
    assert value == Fraction(9, 4) * 2 - 2
    with pytest.raises(ZeroDivisionError):
        p.evaluate(1, 1, 0)
