from fractions import Fraction

import pytest

from hirotaverify.closedform import (
    a_coeff,
    f_high,
    g_high,
    half_gamma_ratio,
    q0_closed,
    q0_wronskians,
    w_formula,
    w_recursive,
)
from hirotaverify.laurent import ONE, ZERO, from_uv, monomial, parse, subst_y_negate, swap_xy
from hirotaverify.operators import hirota_dst, operand
from hirotaverify.wronskian import Matrix

from conftest import det_cofactor, low_extremes_uv_swap

X = parse("x")


def hankel(first: int, dim: int) -> Matrix:
    """The dim x dim Hankel matrix [W_{first+i+j}], i, j = 0..dim-1, as rows."""
    return tuple(tuple(w_recursive(first + i + j) for j in range(dim)) for i in range(dim))


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

    def test_negative_index_refused(self):
        with pytest.raises(ValueError, match="non-negative"):
            a_coeff(-1)


class TestNonRotatingForms:
    def test_schwarzschild_case(self):
        assert q0_closed(1) == (X, parse("1"))

    def test_site_zero_refused(self):
        with pytest.raises(ValueError, match="at least 1"):
            q0_closed(0)

    def test_explicit_forms(self):
        assert q0_closed(2)[0] == (X**2 - 1) * (X**2 + 1)
        assert q0_closed(3)[0] == 4 * X * (X**2 - 1) ** 3 * (X**2 + 3)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_determinants(self, n):
        # Every site is read from one elimination of the largest matrices.
        g_det, f_det = q0_wronskians(8)
        assert q0_closed(n) == (g_det[n - 1], f_det[n - 1])

    @pytest.mark.parametrize("n", range(1, 6))
    def test_minors_match_cofactor_expansion(self, n):
        g_det, f_det = q0_wronskians(5)
        assert g_det[n - 1] == det_cofactor(hankel(1, n))
        assert f_det[n - 1] == det_cofactor(hankel(3, n - 1))

    def test_first_site_and_domain(self):
        g_det, f_det = q0_wronskians(1)
        assert g_det == (q0_closed(1)[0],) and f_det == (ONE,)
        with pytest.raises(ValueError):
            q0_wronskians(0)

    def test_matches_unit_t_slice(self, fam5):
        # Setting t = 1 collapses the family onto the non-rotating branch.
        for n in range(1, 6):
            collapsed = ZERO
            for _, coeff_poly in fam5.g[n].t_coefficients().items():
                collapsed = collapsed + coeff_poly
            assert collapsed == q0_closed(n)[0]


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
        assert from_uv(g_high(1)) == from_uv(monomial(1, ey=1))  # v
        assert from_uv(swap_xy(g_high(1))) == from_uv(monomial(1, ex=1))  # u
        assert from_uv(g_high(2)) == from_uv(monomial(4, ex=1, ey=3))  # 4 u v^3
        assert from_uv(f_high(1)) == parse("1")
        assert from_uv(swap_xy(f_high(1))) == parse("1")
        assert f_high(0).is_zero and from_uv(g_high(0)) == parse("1")

    def test_f2_anchor(self):
        # 2u(u^2 + 3v^2 - 1) equals x^3 + y^3 - x - y in the x,y basis.
        assert from_uv(f_high(2)) == parse("x^3 + y^3 - x - y")
        assert from_uv(swap_xy(f_high(2))) == parse("x^3 - y^3 - x + y")

    @pytest.mark.parametrize("n", range(1, 6))
    def test_match_extracted_coefficients(self, fam5, n):
        assert from_uv(g_high(n)) == fam5.g[n].t_coefficients().get(n, ZERO)
        assert from_uv(swap_xy(g_high(n))) == fam5.g[n].t_coefficients().get(-n, ZERO)
        assert from_uv(f_high(n)) == fam5.f[n].t_coefficients().get(n - 1, ZERO)
        assert from_uv(swap_xy(f_high(n))) == fam5.f[n].t_coefficients().get(-n + 1, ZERO)

    def test_mirror_pairs(self):
        for n in range(1, 5):
            assert from_uv(swap_xy(g_high(n))) == subst_y_negate(from_uv(g_high(n)))
            assert from_uv(swap_xy(f_high(n))) == subst_y_negate(from_uv(f_high(n)))

    @pytest.mark.parametrize("n", range(7))
    def test_low_orders_match_the_uv_swap(self, n):
        low = swap_xy(g_high(n)), swap_xy(f_high(n))
        assert tuple(map(from_uv, low)) == low_extremes_uv_swap(n)

    @pytest.mark.parametrize("n", range(11))
    def test_no_inverse_power_is_left(self, n):
        # The Gamma sum reaches v^-(2n-1), which g_high's v^(n(n+1)/2) cancels at every n >= 1
        # whatever the weights; at n = 0 the sum is empty.
        assert n * (n + 1) // 2 >= 2 * n - 1
        assert not f_high(n).has_negative_xy()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_highest_order_lattice_equations(self, n):
        # The extreme coefficients satisfy the top-order bilinear equations.
        # The forms and the bracket are in u, v, where a residual is zero exactly when it is in x, y.
        dst = lambda a, b: hirota_dst(operand(a), operand(b))
        g_residual = dst(g_high(n), g_high(n)) - 2 * g_high(n + 1) * g_high(n - 1)
        assert g_residual.is_zero
        f_residual = dst(f_high(n), f_high(n)) - 2 * f_high(n + 1) * f_high(n - 1)
        assert f_residual.is_zero
        mixed = (
            dst(f_high(n), g_high(n))
            - f_high(n + 1) * g_high(n - 1)
            - f_high(n - 1) * g_high(n + 1)
        )
        assert mixed.is_zero
