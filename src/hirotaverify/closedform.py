"""Exact closed-form reference polynomials for cross-checking the Wronskians.

Covers the derivative-recursion polynomials W_n, their double-sum binomial
formula, the squared-factorial coefficients A_n, the non-rotating (q = 0)
solution pair, and the extreme Laurent coefficients of g_n and f_n whose
rational weights come from half-integer Gamma ratios.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .laurent import (
    LaurentPoly,
    Monomial,
    ONE,
    ZERO,
    differentiate,
    from_uv,
    monomial,
    variable,
)
from .operators import X2_MINUS_1
from .wronskian import SymMatrix, determinant

_X = variable("x")
_X_PLUS_1 = LaurentPoly({Monomial(0, 1, 0): 1, Monomial(0, 0, 0): 1})
_X_MINUS_1 = LaurentPoly({Monomial(0, 1, 0): 1, Monomial(0, 0, 0): -1})


def w_recursive(n: int) -> LaurentPoly:
    """W_1 = x and W_{k+1} = (x^2 - 1) dW_k/dx, returned in the variable x."""
    if n < 1:
        raise ValueError("n must be at least 1")
    w = _X
    for _ in range(n - 1):
        w = X2_MINUS_1 * differentiate(w, "x")
    return w


def w_formula(n: int) -> LaurentPoly:
    """Binomial double-sum form of W_n, valid for n >= 2."""
    if n < 2:
        raise ValueError("the closed formula needs n >= 2")
    total = ZERO
    for m in range(n - 1):
        weight = sum(
            (-1) ** l * (m - l + 1) ** (n - 1) * math.comb(n, l) for l in range(m + 1)
        )
        if weight == 0:
            continue
        total = total + weight * (_X_PLUS_1 ** (m + 1)) * (_X_MINUS_1 ** (n - m - 1))
    return total


def a_coeff(n: int) -> Fraction:
    """Squared product of factorials (0! 1! ... (n-1)!)^2; equals 1 for n <= 2."""
    if n < 0:
        raise ValueError("n must be non-negative")
    prod = 1
    for j in range(1, n):
        prod *= math.factorial(j)
    return Fraction(prod * prod)


def g_q0_closed(n: int) -> LaurentPoly:
    """(A_n/2) (x^2-1)^{n(n-1)/2} ((x+1)^n + (x-1)^n), the non-rotating g_n."""
    return _q0_closed(n, plus=True)


def f_q0_closed(n: int) -> LaurentPoly:
    """(A_n/2) (x^2-1)^{n(n-1)/2} ((x+1)^n - (x-1)^n), the non-rotating f_n."""
    return _q0_closed(n, plus=False)


def _q0_closed(n: int, plus: bool) -> LaurentPoly:
    if n < 1:
        raise ValueError("n must be at least 1")
    body = _X_PLUS_1 ** n
    body = body + (_X_MINUS_1 ** n) if plus else body - (_X_MINUS_1 ** n)
    scale = a_coeff(n) / 2
    return scale * (X2_MINUS_1 ** (n * (n - 1) // 2)) * body


def g_q0_wronskian(n: int) -> LaurentPoly:
    """Determinant route: det of the n x n Hankel matrix of W_1 .. W_{2n-1}."""
    if n < 1:
        raise ValueError("n must be at least 1")
    ws = [w_recursive(k) for k in range(1, 2 * n)]
    rows = tuple(tuple(ws[i + j] for j in range(n)) for i in range(n))
    return determinant(SymMatrix(rows))


def f_q0_wronskian(n: int) -> LaurentPoly:
    """Determinant route for f_n: the Hankel matrix starting at W_3, dim n-1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        return ONE
    ws = [w_recursive(k) for k in range(1, 2 * n)]
    rows = tuple(tuple(ws[i + j + 2] for j in range(n - 1)) for i in range(n - 1))
    return determinant(SymMatrix(rows))


def half_gamma_ratio(m: int, l: int, n: int) -> Fraction:
    """Exact rational value of the half-integer Gamma ratio weight.

    Uses Gamma(k + 1/2) = (2k)! sqrt(pi) / (4^k k!); the sqrt(pi) factors
    cancel against the 1/sqrt(pi) prefactor, leaving a rational.
    Requires 0 <= l <= m <= n-1.
    """
    if not 0 <= l <= m <= n - 1:
        raise ValueError("indices must satisfy 0 <= l <= m <= n-1")

    def half(k: int) -> Fraction:
        return Fraction(math.factorial(2 * k), 4**k * math.factorial(k))

    numerator = half(m) * half(n - l)
    denominator = (
        half(m - l + 1)
        * math.factorial(l)
        * math.factorial(m - l)
        * math.factorial(n - m - 1)
    )
    return numerator / denominator


def _g_extreme_uv(n: int, high: bool) -> LaurentPoly:
    # 2^{n(n-1)} A_n u^a v^b in uv slots (u in the x slot, v in the y slot).
    a = n * (n - 1) // 2
    b = n * (n + 1) // 2
    coeff = Fraction(2 ** (n * (n - 1))) * a_coeff(n)
    if high:
        return monomial(coeff, ex=a, ey=b)
    return monomial(coeff, ex=b, ey=a)


def g_high(n: int) -> LaurentPoly:
    """Coefficient of t^n in g_n, in the x,y basis."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return from_uv(_g_extreme_uv(n, high=True))


def g_low(n: int) -> LaurentPoly:
    """Coefficient of t^-n in g_n (u and v exponents swapped)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return from_uv(_g_extreme_uv(n, high=False))


def _f_extreme(n: int, high: bool) -> LaurentPoly:
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return ZERO
    gamma_sum = ZERO
    for m in range(n):
        for l in range(m + 1):
            weight = (-1) ** (m - l) * half_gamma_ratio(m, l, n)
            if high:
                gamma_sum = gamma_sum + monomial(weight, ex=2 * l, ey=-2 * m - 1)
            else:
                gamma_sum = gamma_sum + monomial(weight, ex=-2 * m - 1, ey=2 * l)
    product = _g_extreme_uv(n, high=high) * gamma_sum
    if product.has_negative_xy():
        raise ArithmeticError(
            f"inverse powers failed to cancel in the order-{n} Gamma sum"
        )
    return from_uv(product)


def f_high(n: int) -> LaurentPoly:
    """Coefficient of t^{n-1} in f_n: the leading g-coefficient times a Gamma sum."""
    return _f_extreme(n, high=True)


def f_low(n: int) -> LaurentPoly:
    """Coefficient of t^{-n+1} in f_n, the u <-> v mirror of f_high."""
    return _f_extreme(n, high=False)

