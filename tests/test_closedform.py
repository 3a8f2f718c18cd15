from fractions import Fraction

import pytest

from hirotaverify.closedform import (
    a_coeff,
    f_high,
    f_low,
    f_q0_closed,
    f_q0_wronskian,
    g_high,
    g_low,
    g_q0_closed,
    g_q0_wronskian,
    half_gamma_ratio,
    w_formula,
    w_recursive,
)
from hirotaverify.laurent import ZERO, from_uv, monomial, parse, subst_y_negate
from hirotaverify.operators import hirota_dst

X = parse("x")


class TestWPolynomials:
    def test_first_values(self):
        assert w_recursive(1) == X
        assert w_recursive(2) == X**2 - 1
        assert w_recursive(3) == 2 * X * (X**2 - 1)
        assert w_recursive(4) == (X**2 - 1) * (6 * X**2 - 2)

    def test_formula_small_cases(self):
        assert w_formula(2) == X**2 - 1

    @pytest.mark.parametrize("n", range(2, 13))
    def test_formula_matches_recursion(self, n):
        assert w_formula(n) == w_recursive(n)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            w_recursive(0)
        with pytest.raises(ValueError):
            w_formula(1)


class TestACoefficients:
    def test_values(self):
        assert [a_coeff(n) for n in (1, 2, 3, 4)] == [1, 1, 4, 144]
        assert a_coeff(5) == 82944

    def test_squared_recursion_holds(self):
        for n in range(2, 6):
            assert a_coeff(n - 1) * a_coeff(n + 1) == n**2 * a_coeff(n) ** 2

    def test_unsquared_variant_fails_from_three(self):
        assert a_coeff(1) * a_coeff(3) == 4 * a_coeff(2)
        assert a_coeff(2) * a_coeff(4) != 9 * a_coeff(3)


class TestNonRotatingForms:
    def test_schwarzschild_case(self):
        assert g_q0_closed(1) == X
        assert f_q0_closed(1) == parse("1")

    def test_explicit_forms(self):
        assert g_q0_closed(2) == (X**2 - 1) * (X**2 + 1)
        assert g_q0_closed(3) == 4 * X * (X**2 - 1) ** 3 * (X**2 + 3)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_determinants(self, n):
        assert g_q0_closed(n) == g_q0_wronskian(n)
        assert f_q0_closed(n) == f_q0_wronskian(n)

    def test_matches_unit_t_slice(self, fam5):
        # Setting t = 1 collapses the family onto the non-rotating branch.
        for n in range(1, 6):
            collapsed = ZERO
            for _, coeff_poly in fam5.g[n].t_coefficients().items():
                collapsed = collapsed + coeff_poly
            assert collapsed == g_q0_closed(n)


class TestGammaRatios:
    def test_frozen_values(self):
        assert half_gamma_ratio(0, 0, 1) == 1
        assert half_gamma_ratio(0, 0, 2) == Fraction(3, 2)
        assert half_gamma_ratio(1, 1, 2) == Fraction(1, 2)

    def test_index_constraints(self):
        with pytest.raises(ValueError):
            half_gamma_ratio(2, 0, 2)
        with pytest.raises(ValueError):
            half_gamma_ratio(0, 1, 2)


class TestExtremeCoefficients:
    def test_small_cases(self):
        assert g_high(1) == from_uv(monomial(1, ey=1))  # v
        assert g_low(1) == from_uv(monomial(1, ex=1))  # u
        assert g_high(2) == from_uv(monomial(4, ex=1, ey=3))  # 4 u v^3
        assert f_high(1) == parse("1")
        assert f_low(1) == parse("1")
        assert f_high(0).is_zero and g_high(0) == parse("1")

    def test_f2_anchor(self):
        # 2u(u^2 + 3v^2 - 1) equals x^3 + y^3 - x - y in the x,y basis.
        assert f_high(2) == parse("x^3 + y^3 - x - y")
        assert f_low(2) == parse("x^3 - y^3 - x + y")

    @pytest.mark.parametrize("n", range(1, 6))
    def test_match_extracted_coefficients(self, fam5, n):
        assert g_high(n) == fam5.g[n].coeff_of_t(n)
        assert g_low(n) == fam5.g[n].coeff_of_t(-n)
        assert f_high(n) == fam5.f[n].coeff_of_t(n - 1)
        assert f_low(n) == fam5.f[n].coeff_of_t(-n + 1)

    def test_mirror_pairs(self):
        for n in range(1, 5):
            assert g_low(n) == subst_y_negate(g_high(n))
            assert f_low(n) == subst_y_negate(f_high(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_highest_order_lattice_equations(self, n):
        # The extreme coefficients satisfy the top-order bilinear equations.
        g_residual = hirota_dst(g_high(n), g_high(n)) - 2 * g_high(n + 1) * g_high(n - 1)
        assert g_residual.is_zero
        f_residual = hirota_dst(f_high(n), f_high(n)) - 2 * f_high(n + 1) * f_high(n - 1)
        assert f_residual.is_zero
        mixed = (
            hirota_dst(f_high(n), g_high(n))
            - f_high(n + 1) * g_high(n - 1)
            - f_high(n - 1) * g_high(n + 1)
        )
        assert mixed.is_zero
