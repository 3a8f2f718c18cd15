"""Exact complex-rational scalars a + b*i: SU(1,1) parameters, sample points and the
coefficients that LaurentPoly.terms() yields, at the edges of the rational kernel."""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]


def _frac(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not a rational value: {value!r}")


class GaussianRational:
    """Gaussian rational a + b*i.

    Both components are `fractions.Fraction`, so every value is stored in
    lowest terms with a positive denominator and equality is structural.
    Instances are treated as immutable; all arithmetic returns new objects.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        self.re = _frac(re)
        self.im = _frac(im)

    @staticmethod
    def _coerce(value) -> "GaussianRational | None":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        return None

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    @property
    def is_real(self) -> bool:
        return not self.im

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Squared modulus re**2 + im**2, always a rational."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        d = self.abs2()
        if not d:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GaussianRational(self.re / d, -self.im / d)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(other.re - self.re, other.im - self.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, exponent: int) -> "GaussianRational":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = ONE
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:  # the square after the last bit would go unused
                base = base * base
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # A real value equals its Fraction or int, so it hashes like one.
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return f"GaussianRational({self.re!s}, {self.im!s})"

    def __str__(self):
        """Text form of notes and witnesses, e.g. '1/2-3/4*i'."""
        if not self.im:
            return str(self.re)
        im_text = f"{abs(self.im)}*i"
        if not self.re:
            return im_text if self.im > 0 else f"-{im_text}"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{im_text}"


ONE = GaussianRational(1)
