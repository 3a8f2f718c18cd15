"""Differential and bilinear operators on Laurent polynomials.

L_X = (x^2-1) d/dx and L_Y = (y^2-1) d/dy generate the light-cone pair
L_plus = L_X + L_Y and L_minus = L_X - L_Y.  Hirota derivatives are the
antisymmetrized bilinear derivatives built from any of these derivations,
and the deformation operator F couples second-order Hirota terms in x and y
with first-order product derivatives and the constant -2 n^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .laurent import (
    LaurentPoly,
    ZERO,
    differentiate,
    exact_divide,
    monomial,
)

X2_MINUS_1 = LaurentPoly({(0, 2, 0): 1, (0, 0, 0): -1})
Y2_MINUS_1 = LaurentPoly({(0, 0, 2): 1, (0, 0, 0): -1})
_TWO_X = monomial(2, ex=1)
_TWO_Y = monomial(2, ey=1)


def d_x(p: LaurentPoly) -> LaurentPoly:
    return differentiate(p, "x")


def d_y(p: LaurentPoly) -> LaurentPoly:
    return differentiate(p, "y")


def l_x(p: LaurentPoly) -> LaurentPoly:
    return X2_MINUS_1 * differentiate(p, "x")


def l_y(p: LaurentPoly) -> LaurentPoly:
    return Y2_MINUS_1 * differentiate(p, "y")


def l_plus(p: LaurentPoly) -> LaurentPoly:
    return l_x(p) + l_y(p)


def l_minus(p: LaurentPoly) -> LaurentPoly:
    return l_x(p) - l_y(p)


# Derivations usable inside Hirota brackets.  The only S, T bracket the
# identities need is the mixed one, hirota_dst, built from L_plus and L_minus.
_DERIVATIONS: dict[str, Callable[[LaurentPoly], LaurentPoly]] = {
    "x": d_x,
    "y": d_y,
}


def hirota(var: str, f: LaurentPoly, g: LaurentPoly, order: int = 1) -> LaurentPoly:
    """Hirota derivative D_var of order 1 or 2 applied to the pair (f, g).

    Order 1 is (Df)g - f(Dg); order 2 is (D^2 f)g - 2(Df)(Dg) + f(D^2 g).
    """
    try:
        d = _DERIVATIONS[var]
    except KeyError:
        raise ValueError(f"unknown Hirota variable {var!r}") from None
    if order == 1:
        return d(f) * g - f * d(g)
    if order == 2:
        df, dg = d(f), d(g)
        return d(df) * g - 2 * (df * dg) + f * d(dg)
    raise ValueError("Hirota order must be 1 or 2")


def hirota_dst(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Mixed D_S D_T bracket on (f, g)."""
    pf, mf = l_plus(f), l_minus(f)
    pg, mg = l_plus(g), l_minus(g)
    return l_minus(pf) * g - pf * mg - mf * pg + f * l_minus(pg)


@dataclass(frozen=True)
class FOperator:
    """Bilinear deformation operator for lattice site n; its constant is -2 n^2."""

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("operator index must be non-negative")

    @property
    def c_n(self) -> int:
        return -2 * self.n * self.n


def apply_F(fop: FOperator, a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """(x^2-1) D_x^2 (a.b) + 2x (ab)_x + (y^2-1) D_y^2 (a.b) + 2y (ab)_y + c_n ab.

    The first-order pieces differentiate the ordinary product ab; this is the
    reading forced by the single-variable reduction (see apply_F_weyl) and it
    is what makes the bilinear pair equations close.  Symmetric in a and b.
    """
    ab = a * b
    if ab.is_zero:
        return ZERO
    return (
        X2_MINUS_1 * hirota("x", a, b, 2)
        + _TWO_X * differentiate(ab, "x")
        + Y2_MINUS_1 * hirota("y", a, b, 2)
        + _TWO_Y * differentiate(ab, "y")
        + fop.c_n * ab
    )


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
    if bracket.is_zero:
        quotient = ZERO
    else:
        quotient = exact_divide(bracket, X2_MINUS_1)
    return quotient - (2 * n * n) * (a * b)
