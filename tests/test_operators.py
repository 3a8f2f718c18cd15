from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hirotaverify.laurent import differentiate, from_uv, monomial, parse, to_uv
from hirotaverify.operators import (
    apply_F,
    apply_F_weyl,
    hirota,
    hirota_dst,
    l_minus,
    l_plus,
    l_x,
    operand,
)
from conftest import (
    apply_F_oracle,
    hirota_dst_oracle,
    hirota_xy,
    l_minus_xy,
    l_plus_xy,
    l_y,
    polys,
    psi_xy,
    rationals,
    x_polys,
    xy_polys,
)

X = monomial(1, ex=1)
PSI = psi_xy()


class TestDerivations:
    def test_lx_of_x_is_w2(self):
        assert l_x(X) == X**2 - 1

    def test_lplus_on_seed(self):
        expected = parse("1/2*t*x^2 + (-1/2)*t*y^2 + 1/2*t^-1*x^2 + 1/2*t^-1*y^2 - t^-1")
        assert l_plus_xy(PSI) == expected

    def test_lplus_lminus_on_seed(self):
        expected = parse(
            "t*x^3 + t*y^3 - t*x - t*y + t^-1*x^3 - t^-1*y^3 - t^-1*x + t^-1*y"
        )
        assert l_plus_xy(l_minus_xy(PSI)) == expected

    def test_plus_minus_relation(self):
        for p in (PSI, X**3, parse("x*y^2 + t^2")):
            assert l_plus_xy(p) - l_minus_xy(p) == 2 * l_y(p)

    @given(p=polys)
    def test_uv_pair_is_the_xy_pair(self, p):
        # l_plus and l_minus act in u = (x+y)/2, v = (x-y)/2; read in x, y they are L_X +- L_Y.
        assert from_uv(l_plus(p)) == l_plus_xy(from_uv(p))
        assert from_uv(l_minus(p)) == l_minus_xy(from_uv(p))

    @given(p=polys)
    def test_lx_ly_commute(self, p):
        assert l_x(l_y(p)) == l_y(l_x(p))


class TestHirota:
    @given(f=polys)
    def test_first_order_antisymmetry(self, f):
        assert all(h.is_zero for h in hirota(operand(f), operand(f)))

    @given(f=polys, g=polys)
    def test_symmetry_rules(self, f, g):
        (dx, dy), (dx_gf, dy_gf) = hirota(operand(f), operand(g)), hirota(operand(g), operand(f))
        assert dx == -dx_gf and dy == -dy_gf
        assert hirota_dst(operand(f), operand(g)) == hirota_dst(operand(g), operand(f))

    def test_direct_definition(self):
        # D_x(x . x^2) = 1*x^2 - x*2x = -x^2
        assert from_uv(hirota(operand(to_uv(X)), operand(to_uv(X**2)))[0]) == -(X**2)

    def test_mixed_bracket_equals_two_tau2(self, fam5):
        assert from_uv(hirota_dst(operand(to_uv(PSI)), operand(to_uv(PSI)))) == 2 * fam5.tau[2]


class TestFewerProducts:
    """hirota, hirota_dst and apply_F against their textbook product forms."""

    @given(f=polys, g=polys)
    def test_hirota_matches_the_xy_brackets(self, f, g):
        # D_x and D_y from A = f_u g - f g_u and B = f_v g - f g_v, read in x, y.
        dx, dy = hirota(operand(to_uv(f)), operand(to_uv(g)))
        assert (from_uv(dx), from_uv(dy)) == (hirota_xy("x", f, g), hirota_xy("y", f, g))

    @given(f=polys, g=polys)
    def test_hirota_dst_matches_four_products(self, f, g):
        uf, ug = operand(to_uv(f)), operand(to_uv(g))
        assert from_uv(hirota_dst(uf, ug)) == hirota_dst_oracle(f, g)
        assert from_uv(hirota_dst(uf, uf)) == hirota_dst_oracle(f, f)

    @given(a=polys, b=polys, n=st.integers(min_value=0, max_value=4))
    def test_apply_F_matches_seven_products(self, a, b, n):
        ua, ub = operand(to_uv(a)), operand(to_uv(b))
        assert from_uv(apply_F(n, ua, ub)) == apply_F_oracle(n, a, b)
        assert from_uv(apply_F(n, ua, ua)) == apply_F_oracle(n, a, a)

    def test_zero_and_real_operands(self, fam5):
        zero = parse("0")
        g, f = fam5.g[3], fam5.f[3]
        for a, b in ((zero, g), (g, zero), (zero, zero), (g, g), (g, f), (PSI, PSI)):
            ua, ub = operand(to_uv(a)), operand(to_uv(b))
            assert from_uv(hirota_dst(ua, ub)) == hirota_dst_oracle(a, b)
            assert from_uv(apply_F(3, ua, ub)) == apply_F_oracle(3, a, b)
        assert hirota_dst(operand(zero), operand(g)).is_zero
        assert apply_F(1, operand(g), operand(zero)).is_zero


class TestErnstOperators:
    """The Ernst rows' light-cone forms: with P, Q the u,v images of p, q,
    ((x^2-1) p_x)_x + ((1-y^2) p_y)_y is (d/du L-P + d/dv L+P) / 2, the partner of F's M,
    and (x^2-1) p_x q_x + (1-y^2) p_y q_y is (P_u L-Q + P_v L+Q) / 2."""

    @given(p=xy_polys)
    def test_second_order_operator(self, p):
        xy = differentiate(l_x(p), "x") - differentiate(l_y(p), "y")
        r = operand(to_uv(p))
        ell = differentiate(r.minus, "x") + differentiate(r.plus, "y")  # the x slot is u
        assert to_uv(xy) == Fraction(1, 2) * ell

    @given(p=xy_polys, q=xy_polys)
    def test_gradient_pairing(self, p, q):
        xy = l_x(p) * differentiate(q, "x") - l_y(p) * differentiate(q, "y")
        a, b = operand(to_uv(p)), operand(to_uv(q))
        assert to_uv(xy) == Fraction(1, 2) * (a.pu * b.minus + a.pv * b.plus)


class TestFOperator:
    def test_constant_term(self):
        one = parse("1")
        assert apply_F(1, operand(one), operand(one)) == parse("-2")
        assert apply_F(3, operand(one), operand(one)) == parse("-18")

    def test_site_one_pair_equation(self, fam5):
        from hirotaverify.verifier import star

        g1, f1 = fam5.tau_uv[1], fam5.f_uv[1]
        assert apply_F(1, operand(star(g1)), operand(f1)).is_zero

    def test_site_one_sum_equation(self, fam5):
        from hirotaverify.verifier import star

        g1, f1 = fam5.tau_uv[1], fam5.f_uv[1]
        total = (apply_F(1, operand(star(g1)), operand(g1))
                 + apply_F(1, operand(star(f1)), operand(f1)))
        assert total.is_zero

    @given(a=polys, b=polys, c=rationals)
    def test_bilinear_and_symmetric(self, a, b, c):
        F = lambda p, q: apply_F(2, operand(p), operand(q))
        assert F(a, b) == F(b, a)
        assert F(c * a, b) == c * F(a, b)
        assert F(a + b, b) == F(a, b) + F(b, b)


class TestWeylForm:
    def test_matches_full_operator_on_x(self):
        assert apply_F_weyl(1, X, X) == from_uv(apply_F(1, operand(to_uv(X)), operand(to_uv(X))))

    @given(a=x_polys, b=x_polys)
    def test_matches_full_operator_random(self, a, b):
        for n in (1, 2):
            uv = apply_F(n, operand(to_uv(a)), operand(to_uv(b)))
            assert apply_F_weyl(n, a, b) == from_uv(uv)

    def test_constant_case(self):
        one = parse("1")
        assert apply_F_weyl(2, one, one) == parse("-8")

    def test_zero_on_nonrotating_pairs(self):
        from hirotaverify.closedform import q0_closed

        for n in (1, 2, 3):
            g, f = q0_closed(n)
            assert apply_F_weyl(n, g, f).is_zero
            assert (apply_F_weyl(n, g, g) + apply_F_weyl(n, f, f)).is_zero

    def test_non_x_input_rejected(self):
        with pytest.raises(ValueError):
            apply_F_weyl(1, X + monomial(1, ey=1) * X, X)
        with pytest.raises(ValueError):
            apply_F_weyl(1, X, monomial(1, et=1))
