"""Differential and bilinear operators on Laurent polynomials.

L_X = (x^2-1) d/dx and L_Y = (y^2-1) d/dy generate the light-cone pair
L_plus = L_X + L_Y and L_minus = L_X - L_Y.  All but the x-only l_x and
apply_F_weyl act in u = (x+y)/2 (the x slot) and v = (x-y)/2 (the y slot),
where 2 d/dx = d/du + d/dv and 2 d/dy = d/du - d/dv.  Hirota derivatives are
the antisymmetrized bilinear derivatives built from these derivations, and
the deformation operator F couples second-order Hirota terms in x and y with
first-order product derivatives and -2 n^2.  The brackets read records (operand).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .laurent import LaurentPoly, differentiate, exact_divide

X2_MINUS_1 = LaurentPoly({(0, 2, 0): 1, (0, 0, 0): -1})
_UV_SQUARES_MINUS_1 = LaurentPoly({(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -1})
_TWO_UV = LaurentPoly({(0, 1, 1): 2})
_HALF = Fraction(1, 2)


def l_x(p: LaurentPoly) -> LaurentPoly:
    return X2_MINUS_1 * differentiate(p, "x")


def l_plus(p: LaurentPoly) -> LaurentPoly:
    """L_X + L_Y in u, v: (u^2+v^2-1) d/du + 2uv d/dv."""
    return _light_cone(differentiate(p, "x"), differentiate(p, "y"))


def l_minus(p: LaurentPoly) -> LaurentPoly:
    """L_X - L_Y in u, v: 2uv d/du + (u^2+v^2-1) d/dv."""
    return _light_cone(differentiate(p, "y"), differentiate(p, "x"))


def _light_cone(along: LaurentPoly, across: LaurentPoly) -> LaurentPoly:
    """(u^2+v^2-1) along + 2uv across: L_plus p from (p_u, p_v), L_minus p from (p_v, p_u)."""
    return _UV_SQUARES_MINUS_1 * along + _TWO_UV * across


class Operand(NamedTuple):
    """A u,v polynomial p with p_u, p_v, L_plus p, L_minus p, L_minus L_plus p and M p."""

    p: LaurentPoly
    pu: LaurentPoly
    pv: LaurentPoly
    plus: LaurentPoly
    minus: LaurentPoly
    minus_plus: LaurentPoly
    m: LaurentPoly


def operand(p: LaurentPoly) -> Operand:
    """The record of p, each field made once; M p = (d/du L_plus p + d/dv L_minus p) / 2."""
    pu, pv = differentiate(p, "x"), differentiate(p, "y")
    plus, minus = _light_cone(pu, pv), _light_cone(pv, pu)
    plus_u, plus_v = differentiate(plus, "x"), differentiate(plus, "y")
    return Operand(p, pu, pv, plus, minus, _light_cone(plus_v, plus_u),
                   _HALF * (plus_u + differentiate(minus, "y")))


def hirota(f: Operand, g: Operand) -> tuple[LaurentPoly, LaurentPoly]:
    """First-order Hirota brackets (D_x f.g, D_y f.g), where D f.g = (D f) g - f (D g).

    With A = f_u g - f g_u and B = f_v g - f g_v, D_x f.g = (A + B)/2 and
    D_y f.g = (A - B)/2: four products of the operands' size for both.
    """
    a = f.pu * g.p - f.p * g.pu
    b = f.pv * g.p - f.p * g.pv
    return _HALF * (a + b), _HALF * (a - b)


def hirota_dst(f: Operand, g: Operand) -> LaurentPoly:
    """Mixed D_S D_T bracket L-L+ f.g - L+f L-g - L-f L+g + f L-L+ g.

    Four products of the operands' size; the bracket is symmetric, so for
    f == g its two cross terms are equal and two products suffice.
    """
    if f.p == g.p:
        return 2 * (f.minus_plus * f.p - f.plus * f.minus)
    return f.minus_plus * g.p - f.plus * g.minus - f.minus * g.plus + f.p * g.minus_plus


def apply_F(n: int, a: Operand, b: Operand) -> LaurentPoly:
    """(x^2-1) D_x^2 (a.b) + 2x (ab)_x + (y^2-1) D_y^2 (a.b) + 2y (ab)_y + c_n ab.

    F belongs to lattice site n, whose constant is c_n = -2 n^2.

    The first-order pieces differentiate the ordinary product ab; this is the
    reading forced by the single-variable reduction (see apply_F_weyl) and it
    is what makes the bilinear pair equations close.  Symmetric in a and b.
    Collecting terms gives, with M p = ((x^2-1) p_x)_x + ((y^2-1) p_y)_y,

        (M a + c_n a) b + a (M b) - 2 [(x^2-1) a_x b_x + (y^2-1) a_y b_y].

    In u, v, M p = (d/du L_plus p + d/dv L_minus p) / 2 and the bracket is
    (a_u L_plus b + a_v L_minus b) / 2: four products where the bracket form takes seven.
    """
    c_n = -2 * n * n
    return (a.m + c_n * a.p) * b.p + a.p * b.m - (a.pu * b.plus + a.pv * b.minus)


def apply_F_weyl(n: int, a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Single-variable form of F for inputs depending on x only.

    Computes ((L_X^2 a) b + a (L_X^2 b) - 2 (L_X a)(L_X b)) / (x^2-1) - 2 n^2 ab
    with an exact division.  Every L_X output carries an (x^2-1) factor, so
    the bracket divides even for bad input; the x-only precondition is
    therefore checked up front instead of being left to the division.
    """
    for p, name in ((a, "a"), (b, "b")):
        if any(m.et or m.ey for m, _ in p.terms()):
            raise ValueError(f"argument {name} must depend on x only")
    la, lb = l_x(a), l_x(b)
    bracket = l_x(la) * b + a * l_x(lb) - 2 * (la * lb)
    return exact_divide(bracket, X2_MINUS_1) - (2 * n * n) * (a * b)
