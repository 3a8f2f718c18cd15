import pytest
from hypothesis import given

from hirotaverify.laurent import parse, variable
from hirotaverify.operators import (
    FOperator,
    apply_F,
    apply_F_weyl,
    hirota,
    hirota_dst,
    l_minus,
    l_plus,
    l_x,
    l_y,
)
from hirotaverify.wronskian import build_psi

from conftest import gaussians, polys, x_polys

X = variable("x")
PSI = build_psi()


class TestDerivations:
    def test_lx_of_x_is_w2(self):
        assert l_x(X) == X**2 - 1

    def test_lplus_on_seed(self):
        expected = parse("1/2*t*x^2 + (-1/2)*t*y^2 + 1/2*t^-1*x^2 + 1/2*t^-1*y^2 - t^-1")
        assert l_plus(PSI) == expected

    def test_lplus_lminus_on_seed(self):
        expected = parse(
            "t*x^3 + t*y^3 - t*x - t*y + t^-1*x^3 - t^-1*y^3 - t^-1*x + t^-1*y"
        )
        assert l_plus(l_minus(PSI)) == expected

    def test_plus_minus_relation(self):
        for p in (PSI, X**3, parse("x*y^2 + t^2")):
            assert l_plus(p) - l_minus(p) == 2 * l_y(p)

    @given(p=polys)
    def test_lx_ly_commute(self, p):
        assert l_x(l_y(p)) == l_y(l_x(p))


class TestHirota:
    @given(f=polys)
    def test_first_order_antisymmetry(self, f):
        assert hirota("x", f, f, 1).is_zero

    @given(f=polys, g=polys)
    def test_symmetry_rules(self, f, g):
        assert hirota("x", f, g, 1) == -hirota("x", g, f, 1)
        assert hirota("y", f, g, 2) == hirota("y", g, f, 2)
        assert hirota_dst(f, g) == hirota_dst(g, f)

    def test_direct_definition(self):
        # D_x(x . x^2) = 1*x^2 - x*2x = -x^2
        assert hirota("x", X, X**2, 1) == -(X**2)

    def test_mixed_bracket_equals_two_tau2(self, fam5):
        assert hirota_dst(PSI, PSI) == 2 * fam5.tau[2]

    def test_light_cone_variables(self):
        assert hirota("S", PSI, PSI, 1).is_zero
        assert hirota("T", X, X**2, 1) == l_minus(X) * X**2 - X * l_minus(X**2)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            hirota("z", X, X, 1)
        with pytest.raises(ValueError):
            hirota("x", X, X, 3)


class TestFOperator:
    def test_constant_term(self):
        assert FOperator(1).c_n == -2
        assert FOperator(3).c_n == -18
        one = parse("1")
        assert apply_F(FOperator(1), one, one) == parse("-2")

    def test_site_one_pair_equation(self, fam5):
        from hirotaverify.verifier import star

        g1, f1 = fam5.g[1], fam5.f[1]
        assert apply_F(FOperator(1), star(g1), f1).is_zero

    def test_site_one_sum_equation(self, fam5):
        from hirotaverify.verifier import star

        g1, f1 = fam5.g[1], fam5.f[1]
        total = apply_F(FOperator(1), star(g1), g1) + apply_F(FOperator(1), star(f1), f1)
        assert total.is_zero

    @given(a=polys, b=polys, c=gaussians)
    def test_bilinear_and_symmetric(self, a, b, c):
        fop = FOperator(2)
        assert apply_F(fop, a, b) == apply_F(fop, b, a)
        assert apply_F(fop, c * a, b) == c * apply_F(fop, a, b)
        assert apply_F(fop, a + b, b) == apply_F(fop, a, b) + apply_F(fop, b, b)


class TestWeylForm:
    def test_matches_full_operator_on_x(self):
        assert apply_F_weyl(1, X, X) == apply_F(FOperator(1), X, X)

    @given(a=x_polys, b=x_polys)
    def test_matches_full_operator_random(self, a, b):
        for n in (1, 2):
            assert apply_F_weyl(n, a, b) == apply_F(FOperator(n), a, b)

    def test_constant_case(self):
        one = parse("1")
        assert apply_F_weyl(2, one, one) == parse("-8")

    def test_zero_on_nonrotating_pairs(self):
        from hirotaverify.closedform import f_q0_closed, g_q0_closed

        for n in (1, 2, 3):
            g, f = g_q0_closed(n), f_q0_closed(n)
            assert apply_F_weyl(n, g, f).is_zero
            assert (apply_F_weyl(n, g, g) + apply_F_weyl(n, f, f)).is_zero

    def test_non_x_input_rejected(self):
        with pytest.raises(ValueError):
            apply_F_weyl(1, X + variable("y") * X, X)
        with pytest.raises(ValueError):
            apply_F_weyl(1, X, variable("t"))
