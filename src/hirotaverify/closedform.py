"""Exact closed-form reference polynomials for cross-checking the Wronskians.

Covers the derivative-recursion polynomials W_n, their double-sum binomial
formula, the squared-factorial coefficients A_n, the non-rotating (q = 0)
solution pair, and the highest Laurent coefficients of g_n and f_n, weighted
by half-integer Gamma ratios, in u = (x+y)/2 (the x slot) and v = (x-y)/2
(the y slot); the lowest coefficients are their u <-> v swap.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from .laurent import (
    LaurentPoly,
    Monomial,
    ONE,
    ZERO,
    monomial,
)
from .operators import X2_MINUS_1, l_x
from .wronskian import tau_f_minors

_X = monomial(1, ex=1)


@cache
def w_recursive(n: int) -> LaurentPoly:
    """W_1 = x and W_{k+1} = (x^2 - 1) dW_k/dx in the variable x, each made once from W_k."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return _X if n == 1 else l_x(w_recursive(n - 1))


@cache
def _x_shift_power(shift: int, k: int) -> LaurentPoly:
    """(x + shift)^k, each made once from the one before."""
    return ONE if k == 0 else _x_shift_power(shift, k - 1) * (_X + shift)


def w_formula(n: int) -> LaurentPoly:
    """Binomial double-sum form of W_n, valid for n >= 2."""
    if n < 2:
        raise ValueError("the closed formula needs n >= 2")
    total = ZERO
    for m in range(n - 1):  # each weight is the Eulerian number <n-1, m>, at least 1
        weight = sum(
            (-1) ** l * (m - l + 1) ** (n - 1) * math.comb(n, l) for l in range(m + 1)
        )
        total = total + weight * _x_shift_power(1, m + 1) * _x_shift_power(-1, n - m - 1)
    return total


def a_coeff(n: int) -> Fraction:
    """Squared product of factorials (0! 1! ... (n-1)!)^2; equals 1 for n <= 2."""
    if n < 0:
        raise ValueError("n must be non-negative")
    prod = 1
    for j in range(1, n):
        prod *= math.factorial(j)
    return Fraction(prod * prod)


@cache
def q0_closed(n: int) -> tuple[LaurentPoly, LaurentPoly]:
    """The non-rotating pair g_n, f_n: (A_n/2) (x^2-1)^{n(n-1)/2} ((x+1)^n +- (x-1)^n)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    prefactor = a_coeff(n) / 2 * (X2_MINUS_1 ** (n * (n - 1) // 2))
    plus, minus = _x_shift_power(1, n), _x_shift_power(-1, n)
    return prefactor * (plus + minus), prefactor * (plus - minus)


@cache
def q0_wronskians(last: int) -> tuple[tuple[LaurentPoly, ...], tuple[LaurentPoly, ...]]:
    """Determinant route for sites 1..last: (g_1..g_last), (f_1..f_last).

    They are the leading principal minors of the Hankel matrix [W_{i+j+1}]
    and, after f_1 = 1, of its lower-right block [W_{i+j+3}].
    """
    if last < 1:
        raise ValueError("last must be at least 1")
    hankel = [[w_recursive(1 + i + j) for j in range(last)] for i in range(last)]
    return tuple(zip(*tau_f_minors(hankel)))


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


def g_high(n: int) -> LaurentPoly:
    """Coefficient of t^n in g_n: 2^{n(n-1)} A_n u^{n(n-1)/2} v^{n(n+1)/2}; ValueError for n < 0."""
    coeff = Fraction(2 ** (n * (n - 1))) * a_coeff(n)
    return monomial(coeff, ex=n * (n - 1) // 2, ey=n * (n + 1) // 2)


def f_high(n: int) -> LaurentPoly:
    """Coefficient of t^{n-1} in f_n: the leading g-coefficient times a Gamma sum.

    g_high(n)'s v^(n(n+1)/2) cancels the sum's v^-(2n-1): no inverse power is left.
    """
    weights = {Monomial(0, 2 * l, -2 * m - 1): (-1) ** (m - l) * half_gamma_ratio(m, l, n)
               for m in range(n) for l in range(m + 1)}
    return g_high(n) * LaurentPoly(weights)
