"""Sparse Laurent polynomials in t, x, y over Gaussian rationals.

A polynomial is a finite sum of terms c * t^et * x^ex * y^ey with nonzero
Gaussian-rational coefficients c.  t carries integer exponents of both signs
throughout.  x and y are normally non-negative, but negative exponents are
permitted so that intermediate objects (inverse-power sums that later cancel
against a monomial prefactor) live in the same type.  The canonical term
order sorts by t-exponent descending, then total x,y-degree descending, then
x-exponent descending; serialization, leading terms and the division
algorithm all use this order, which makes text output deterministic and
equality purely structural.

Inside, a polynomial keeps integer numerators over one positive denominator
that shares no factor with all of them:

    re: {key: int},  im: {key: int} or None,  den: int

and the coefficient at a key is (re[key] + i*im[key]) / den.  The imaginary
map exists only when some coefficient is not real.  A key packs a monomial
into one int,

    key = -(et * R**2 + (ex + ey) * R + ex),    R = 2**24,

which is linear, so adding two keys multiplies their monomials, and whose
integer order is the canonical term order: the leading term has the smallest
key.  Each of et, ex + ey and ex must lie in [-2**22, 2**22).  A sum of two
such keys still decodes exactly, so every operation that can leave that
range checks its result and raises OverflowError instead of wrapping.  The
public methods take and return Monomial and GaussianRational.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from re import findall, finditer, search
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

from .gaussian import GaussianRational

ScalarLike = Union[int, Fraction, GaussianRational]


class Monomial(NamedTuple):
    et: int
    ex: int
    ey: int


# -- packed monomial keys -----------------------------------------------------
#
# A key holds three balanced base-R digits (et, ex + ey, ex), negated.  Stored
# digits lie in [-_LIMIT, _LIMIT); the sum of two stored keys has digits in
# [-2*_LIMIT, 2*_LIMIT), which _unpack still reads exactly, and
# (_BIAS - key) & _OUTSIDE is nonzero exactly when such a key has left the
# stored range.

_BITS = 24
_RADIX = 1 << _BITS
_DIGIT_HALF = _RADIX >> 1
_DIGIT_MASK = _RADIX - 1
_LIMIT = _RADIX >> 2
_BIAS = _LIMIT * (1 + _RADIX + _RADIX * _RADIX)
_OUTSIDE = ~((2 * _LIMIT - 1) * (1 + _RADIX + _RADIX * _RADIX))
_T_SHIFT = 2 * _BITS
_T_HALF = 1 << (_T_SHIFT - 1)


def _pack(et: int, ex: int, ey: int) -> int:
    """Key of t^et x^ex y^ey; OverflowError when an exponent is outside its field."""
    s = ex + ey
    if not (-_LIMIT <= et < _LIMIT and -_LIMIT <= s < _LIMIT and -_LIMIT <= ex < _LIMIT):
        raise OverflowError(f"t^{et}*x^{ex}*y^{ey} is outside the exponent fields")
    return -((et << _T_SHIFT) + (s << _BITS) + ex)


def _unpack(key: int) -> Monomial:
    v = -key
    ex = ((v + _DIGIT_HALF) & _DIGIT_MASK) - _DIGIT_HALF
    v = (v - ex) >> _BITS
    s = ((v + _DIGIT_HALF) & _DIGIT_MASK) - _DIGIT_HALF
    return Monomial((v - s) >> _BITS, ex, s - ex)


def _as_coeff(value: ScalarLike) -> GaussianRational:
    c = GaussianRational._coerce(value)
    if c is None:
        raise TypeError(f"not a scalar coefficient: {value!r}")
    return c


def _parts(c: GaussianRational) -> tuple[int, int, int]:
    """(re, im, den) with c = (re + i*im) / den and den > 0."""
    den = lcm(c.re.denominator, c.im.denominator)
    return (c.re.numerator * (den // c.re.denominator),
            c.im.numerator * (den // c.im.denominator), den)


def _canonical(re: dict, im: dict | None, den: int) -> tuple[dict, dict | None, int]:
    """Divide out the factor den shares with every numerator; an empty im becomes None."""
    im = im or None
    if den != 1:
        g = den
        for nums in (re, im or {}):
            for v in nums.values():
                g = gcd(g, v)
                if g == 1:
                    return re, im, den
        re = {k: v // g for k, v in re.items()}
        im = im and {k: v // g for k, v in im.items()}
        den //= g
    return re, im, den


def _times(nums: dict | None, factor: int) -> dict | None:
    return None if nums is None else {k: v * factor for k, v in nums.items()}


class LaurentPoly:
    """Immutable sparse polynomial; zero coefficients are never stored."""

    __slots__ = ("_re", "_im", "_den")

    def __init__(self, terms: Mapping | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        p = _collect([(_pack(*mono), _parts(_as_coeff(value))) for mono, value in items])
        self._re, self._im, self._den = p._re, p._im, p._den

    @classmethod
    def _make(cls, re: dict, im: dict | None = None, den: int = 1) -> "LaurentPoly":
        # Trusted constructor: stored-range keys, nonzero int numerators, den > 0.
        p = object.__new__(cls)
        p._re, p._im, p._den = _canonical(re, im, den)
        return p

    # -- inspection ---------------------------------------------------------

    def _keys(self):
        return self._re.keys() | self._im.keys() if self._im else self._re.keys()

    def _coeff_at(self, key: int) -> GaussianRational:
        im = self._im.get(key, 0) if self._im else 0
        return GaussianRational(Fraction(self._re.get(key, 0), self._den), Fraction(im, self._den))

    @property
    def is_zero(self) -> bool:
        return not self._re and self._im is None

    @property
    def term_count(self) -> int:
        return len(self._keys())

    def terms(self) -> Iterator[tuple[Monomial, GaussianRational]]:
        return ((_unpack(k), self._coeff_at(k)) for k in self._keys())

    def leading_term(self) -> tuple[Monomial, GaussianRational]:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading term")
        key = min(self._keys())
        return _unpack(key), self._coeff_at(key)

    def has_negative_xy(self) -> bool:
        return any(m.ex < 0 or m.ey < 0 for m in map(_unpack, self._keys()))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return _add(self, other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return _add(self, other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return LaurentPoly._make(_times(self._re, -1), _times(self._im, -1), self._den)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            return _product(self, other)
        c = GaussianRational._coerce(other)
        if c is None:
            return NotImplemented
        return self.scale(c)

    __rmul__ = __mul__

    def scale(self, scalar: ScalarLike) -> "LaurentPoly":
        c = _as_coeff(scalar)
        if c.is_zero:
            return ZERO
        if c.im:
            return _product(self, monomial(c))
        n, d = c.re.numerator, c.re.denominator
        return LaurentPoly._make(_times(self._re, n), _times(self._im, n), self._den * d)

    def __pow__(self, exponent: int) -> "LaurentPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be non-negative integers")
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
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self._den == other._den and self._re == other._re and self._im == other._im

    def __hash__(self):
        if self.term_count <= 1 and not any(self._keys()):
            # Zero or a constant equals its scalar, so it hashes like it.
            return hash(self._coeff_at(0))
        return hash((self._den, frozenset(self._re.items()),
                     frozenset(self._im.items()) if self._im else None))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        text = serialize(self)
        if len(text) > 120:
            text = text[:117] + "..."
        return f"LaurentPoly[{text}]"

    # -- t-direction --------------------------------------------------------

    def t_coefficients(self) -> dict[int, "LaurentPoly"]:
        """Split into x,y-polynomials keyed by t-exponent."""
        split: dict[int, tuple[dict, dict]] = {}
        for part, nums in enumerate((self._re, self._im or {})):
            for k, v in nums.items():
                # The et digit; adding et * R**2 to the key drops it.
                et = (_T_HALF - k) >> _T_SHIFT
                split.setdefault(et, ({}, {}))[part][k + (et << _T_SHIFT)] = v
        return {et: LaurentPoly._make(re, im, self._den) for et, (re, im) in split.items()}

    def t_term_counts(self) -> dict[int, int]:
        """The number of terms at each power of t, read off the keys without a split."""
        return Counter((_T_HALF - k) >> _T_SHIFT for k in self._keys())

    def coeff_of_t(self, m: int) -> "LaurentPoly":
        """The x,y-polynomial multiplying t**m (zero if absent), from the keys at t^m only."""
        shift = m << _T_SHIFT
        re, im = ({k + shift: v for k, v in nums.items() if (_T_HALF - k) >> _T_SHIFT == m}
                  for nums in (self._re, self._im or {}))
        return LaurentPoly._make(re, im, self._den)


# -- evaluation ---------------------------------------------------------------

def evaluate(polys: Sequence[LaurentPoly], x: ScalarLike, y: ScalarLike,
             t: ScalarLike) -> tuple[list[tuple[int, int]], int]:
    """([(re_k, im_k), ...], den): polys[k] takes the exact value (re_k + i*im_k) / den.

    The power tables of t, x and y are built once for all polys, and each
    monomial is valued once.  A negative exponent inverts its base.
    """
    exps = {k: _unpack(k) for p in polys for k in p._keys()}
    common = lcm(*(p._den for p in polys))
    tables, den = [], common
    for slot, value in enumerate((t, x, y)):
        table, scale = _powers(_as_coeff(value), {m[slot] for m in exps.values()})
        tables.append(table)
        den *= scale
    t_pow, x_pow, y_pow = tables
    mono = {}
    for k, (et, ex, ey) in exps.items():
        (ar, ai), (br, bi), (cr, ci) = t_pow[et], x_pow[ex], y_pow[ey]
        ar, ai = ar * br - ai * bi, ar * bi + ai * br
        mono[k] = ar * cr - ai * ci, ar * ci + ai * cr
    values = []
    for p in polys:
        re, im = p._re.items(), (p._im or {}).items()
        total_re = sum(c * mono[k][0] for k, c in re) - sum(c * mono[k][1] for k, c in im)
        total_im = sum(c * mono[k][1] for k, c in re) + sum(c * mono[k][0] for k, c in im)
        values.append((total_re * (common // p._den), total_im * (common // p._den)))
    return values, den


def _powers(value: GaussianRational, exponents: set[int]) -> tuple[dict, int]:
    """value**e for each e, as Gaussian-integer pairs over one common denominator."""
    vr, vi, vd = _parts(value)
    top = max(max(exponents, default=0), 0)
    bottom = max(-min(exponents, default=0), 0)
    norm = vr * vr + vi * vi
    if bottom and not norm:
        raise ZeroDivisionError("negative power of zero")
    table = {}
    for e in exponents:
        # value**-k = vd**k * conj(value * vd)**k / norm**k
        if e >= 0:
            zr, zi, k, scale = vr, vi, e, vd ** (top - e) * norm ** bottom
        else:
            zr, zi, k, scale = vr, -vi, -e, vd ** (top - e) * norm ** (bottom + e)
        pr, pi = scale, 0
        for _ in range(k):
            pr, pi = pr * zr - pi * zi, pr * zi + pi * zr
        table[e] = (pr, pi)
    return table, vd ** top * norm ** bottom


# -- kernels on numerator maps ---------------------------------------------------

def _as_poly(value) -> LaurentPoly | None:
    if isinstance(value, LaurentPoly):
        return value
    c = GaussianRational._coerce(value)
    return None if c is None else monomial(c)


def _accumulate(out: dict, nums: dict, factor: int) -> dict:
    """out += factor * nums, dropping the entries that cancel."""
    get = out.get
    for k, v in nums.items():
        s = get(k, 0) + v * factor
        if s:
            out[k] = s
        else:
            del out[k]
    return out


def _add(a: LaurentPoly, b: LaurentPoly, sign: int) -> LaurentPoly:
    """a + sign * b over the least common denominator."""
    den = a._den if a._den == b._den else lcm(a._den, b._den)
    fa, fb = den // a._den, sign * (den // b._den)
    re = _accumulate(dict(a._re) if fa == 1 else _times(a._re, fa), b._re, fb)
    im = None
    if a._im or b._im:
        im = _accumulate(_times(a._im, fa) or {}, b._im or {}, fb)
    return LaurentPoly._make(re, im, den)


def _collect(terms: list[tuple[int | None, tuple[int, int, int]]]) -> LaurentPoly:
    """The sum of (key, (re, im, den)) terms over the lcm of their denominators.

    A term whose numerators are both zero may have key None.
    """
    den = lcm(*(d for _, (_, _, d) in terms))
    re: dict[int, int] = {}
    im: dict[int, int] = {}
    for key, (a, b, d) in terms:
        if a:
            re[key] = re.get(key, 0) + a * (den // d)
        if b:
            im[key] = im.get(key, 0) + b * (den // d)
    return LaurentPoly._make({k: v for k, v in re.items() if v},
                             {k: v for k, v in im.items() if v}, den)


def _convolve(out: dict, x: dict, y: dict, sign: int) -> dict:
    """out += sign * x * y; entries that cancel stay as zeros."""
    if len(x) > len(y):
        x, y = y, x
    get = out.get
    pairs = list(y.items())
    for kx, cx in x.items():
        cx *= sign
        for ky, cy in pairs:
            k = kx + ky
            out[k] = get(k, 0) + cx * cy
    return out


def _checked(re: dict, im: dict | None, den: int) -> LaurentPoly:
    """The polynomial (re + i*im) / den; OverflowError if a key left the stored range."""
    for nums in (re, im or {}):
        for key in nums:
            if (_BIAS - key) & _OUTSIDE:
                raise OverflowError(f"{_unpack(key)} is outside the exponent fields")
    return LaurentPoly._make(re, im, den)


def _product(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    if a._im is None and b._im is None:
        re, im = _convolve({}, a._re, b._re, 1), None
    else:
        a_im, b_im = a._im or {}, b._im or {}
        re = _convolve(_convolve({}, a._re, b._re, 1), a_im, b_im, -1)
        im = _convolve(_convolve({}, a._re, b_im, 1), a_im, b._re, 1)
        im = {k: v for k, v in im.items() if v}
    return _checked({k: v for k, v in re.items() if v}, im, a._den * b._den)


def monomial(coeff: ScalarLike, et: int = 0, ex: int = 0, ey: int = 0) -> LaurentPoly:
    re, im, den = _parts(_as_coeff(coeff))
    key = _pack(et, ex, ey)
    return LaurentPoly._make({key: re} if re else {}, {key: im} if im else None, den)


ZERO = LaurentPoly()
ONE = monomial(1)


def differentiate(p: LaurentPoly, var: str) -> LaurentPoly:
    """Formal partial derivative in x or y (term-wise power rule)."""
    if var not in ("x", "y"):
        raise ValueError("differentiate expects var 'x' or 'y'")
    # Lowering ex lowers ex and ex + ey: the key grows by R + 1; for ey, by R.
    step = _RADIX + 1 if var == "x" else _RADIX

    def part(nums: dict) -> dict:
        out = {}
        for k, v in nums.items():
            # The ex digit of the key, and for y the ex + ey digit minus it (see _unpack).
            e = ((_DIGIT_HALF - k) & _DIGIT_MASK) - _DIGIT_HALF
            if var == "y":
                e = ((((-k - e) >> _BITS) + _DIGIT_HALF) & _DIGIT_MASK) - _DIGIT_HALF - e
            if e:
                out[k + step] = v * e
        return out

    return _checked(part(p._re), p._im and part(p._im), p._den)


# -- substitutions ----------------------------------------------------------

def _transform(p: LaurentPoly, step) -> LaurentPoly:
    """Term-wise map: step(et, ex, ey) gives the new exponents and k, the coefficient gaining i**k."""
    re, im = {}, {}
    p_im = p._im or {}
    for key in p._keys():
        exps, k = step(*_unpack(key))
        new_key = _pack(*exps)
        a, b = p._re.get(key, 0), p_im.get(key, 0)
        for _ in range(k % 4):
            a, b = -b, a
        if a:
            re[new_key] = a
        if b:
            im[new_key] = b
    return LaurentPoly._make(re, im, p._den)


def subst_t_inverse(p: LaurentPoly) -> LaurentPoly:
    return _transform(p, lambda et, ex, ey: ((-et, ex, ey), 0))


def subst_y_negate(p: LaurentPoly) -> LaurentPoly:
    return _transform(p, lambda et, ex, ey: ((et, ex, ey), 2 * (ey % 2)))


def subst_t_negate(p: LaurentPoly) -> LaurentPoly:
    return _transform(p, lambda et, ex, ey: ((et, ex, ey), 2 * (et % 2)))


def subst_t_times_i(p: LaurentPoly) -> LaurentPoly:
    """t -> i*t, multiplying each term by i**et."""
    return _transform(p, lambda et, ex, ey: ((et, ex, ey), et))


def swap_xy(p: LaurentPoly) -> LaurentPoly:
    return _transform(p, lambda et, ex, ey: ((et, ey, ex), 0))


def conjugate_coeffs(p: LaurentPoly) -> LaurentPoly:
    """Conjugate every coefficient, leaving monomials alone."""
    return LaurentPoly._make(p._re, _times(p._im, -1), p._den)


# -- exact division ---------------------------------------------------------

class ExactDivisionError(ArithmeticError):
    """Raised when a divisor does not divide exactly; carries the remainder."""

    def __init__(self, message: str, remainder: LaurentPoly):
        super().__init__(message)
        self.remainder = remainder


def exact_divide(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Quotient a / b of real polynomials when b divides a exactly in the Laurent ring.

    Multivariate division under the canonical term order.  Exactness makes
    every quotient monomial reach at least min(a) - min(b) in each variable,
    the minima taken over the terms of each operand, so the first leading
    remainder term that b's leading term cannot reduce within that bound
    proves non-divisibility; it is reported with the outstanding remainder
    a - q*b.  A non-real operand raises ValueError.
    """
    if a._im or b._im:
        raise ValueError("exact_divide takes real polynomials only")
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero:
        return ZERO
    low = [ea - eb for ea, eb in zip(_lowest(a), _lowest(b))]
    nums, den = _quotient(a, b, low)
    return LaurentPoly._make(_times(nums, b._den), None, den * a._den)


def _lowest(p: LaurentPoly) -> tuple[int, int, int]:
    ets, exs, eys = zip(*map(_unpack, p._keys()))
    return min(ets), min(exs), min(eys)


def _quotient(a: LaurentPoly, b: LaurentPoly, low: list[int]) -> tuple[dict, int]:
    """Quotient numerators and their denominator: a's numerators / b's numerators.

    Heap-ordered sparse division after Monagan and Pearce, "Sparse
    polynomial division using a heap" (JSC 2011): the remainder's keys sit in
    a heap, so each step finds the leading term without rescanning the
    remainder.  A key may be in the heap twice, or after it cancelled; the
    remainder map says which entries are live.  The quotient's denominator
    grows only when a quotient coefficient is not integral, and the
    remainder is kept in the same units.
    """
    rem = dict(a._re)
    get = rem.get
    (lead, lead_coeff), *tail = sorted(b._re.items())
    lead_exps = _unpack(lead)
    heap = list(rem)
    heapify(heap)
    quotient: dict[int, int] = {}
    den = 1
    while heap:
        key = heappop(heap)
        c = get(key)
        if c is None:
            continue
        diff = [e - f for e, f in zip(_unpack(key), lead_exps)]
        if any(d < m for d, m in zip(diff, low)):
            raise ExactDivisionError(
                f"not divisible: leading term {_unpack(key)} not reducible by {lead_exps}",
                _checked(rem, None, den * a._den),
            )
        q_key = _pack(*diff)
        del rem[key]
        if c % lead_coeff:
            m = abs(lead_coeff) // gcd(c, lead_coeff)
            den *= m
            c *= m
            for values in (quotient, rem):
                for k in values:
                    values[k] *= m
        q = c // lead_coeff
        quotient[q_key] = q
        for kb, cb in tail:
            k = q_key + kb
            v = get(k)
            if v is None:
                rem[k] = -q * cb
                heappush(heap, k)
            else:
                v -= q * cb
                if v:
                    rem[k] = v
                else:
                    del rem[k]
    return quotient, den


# -- basis change from (u, v) to (x, y) --------------------------------------
#
# u = (x+y)/2 and v = (x-y)/2.  A polynomial "in u, v" reuses the x slot for
# u and the y slot for v.

@cache
def _uv_row(i: int, j: int) -> tuple[int, ...]:
    """Coefficients of (x+y)^i (x-y)^j; entry k multiplies x^k y^(i+j-k)."""
    if i < 0 or j < 0:
        raise ValueError("basis change requires non-negative u,v exponents")
    if not i + j:
        return (1,)
    row, sign = (_uv_row(i - 1, j), 1) if i else (_uv_row(0, j - 1), -1)
    return tuple(sign * a + b for a, b in zip((*row, 0), (0, *row)))


def from_uv(p: LaurentPoly) -> LaurentPoly:
    """Rewrite a u,v-polynomial in x, y: t^a u^i v^j -> t^a (x+y)^i (x-y)^j / 2^(i+j).

    Every term is put over one denominator 2^top, top the largest u,v-degree.
    """
    top = max((sum(_unpack(k)[1:]) for k in p._keys()), default=0)

    def part(nums: dict) -> dict:
        out = {}
        for k, v in nums.items():
            _, i, j = _unpack(k)
            v <<= top - i - j
            for r, c in enumerate(_uv_row(i, j)):
                if c:  # x^r y^(i+j-r): the key of u^i v^j plus i - r
                    out[k + i - r] = out.get(k + i - r, 0) + v * c
        return {k: v for k, v in out.items() if v}

    return LaurentPoly._make(part(p._re), p._im and part(p._im), p._den << top)


# -- canonical text form ----------------------------------------------------

def serialize(p: LaurentPoly) -> str:
    """Deterministic text form: '(coeff)*t^a*x^b*y^c' terms in canonical order."""
    if p.is_zero:
        return "0"
    re, im, den = p._re, p._im or {}, p._den

    def ratio(num: int) -> str:  # str(Fraction(num, den)), read off the numerators
        g = gcd(num, den)
        return str(num // g) if g == den else f"{num // g}/{den // g}"

    parts = []
    for key in sorted(p._keys()):
        a, b = re.get(key, 0), im.get(key, 0)
        text = ratio(a)
        if b:
            sign = "-" if b < 0 else "+" if a else ""
            text = f"{text if a else ''}{sign}{ratio(abs(b))}*i"
        et, ex, ey = _unpack(key)
        parts.append(f"({text})" + "".join(
            f"*{name}^{e}" for name, e in (("t", et), ("x", ex), ("y", ey)) if e))
    return " + ".join(parts)


class ParseError(ValueError):
    """Syntax error with the offending position in the input text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# A token is one operator or name character, or a run of digits.  Any other
# character outside whitespace is refused up front, so none is skipped.
_TOKEN = r"[()*/^+\-txyi]|\d+"
_BAD_CHARACTER = r"[^\s\dtxyi()*/^+-]"
_SIGNS = ("+", "-")
_VARIABLES = ("t", "x", "y")  # a tuple: "" (end of input) is in every string


class _TokenError(Exception):
    """A parse failure at a token index; parse turns it into a ParseError."""


def parse(text: str) -> LaurentPoly:
    """Parse the canonical grammar (whitespace insignificant) into a polynomial.

    Each term is read into its packed key and one scalar, and the polynomial
    is built once from all the terms by _collect, as LaurentPoly(terms) is.
    An exponent outside its field, in a factor or in a term with a nonzero
    coefficient so far, raises OverflowError.
    """
    bad = search(_BAD_CHARACTER, text)
    if bad is not None:
        raise ParseError(f"unexpected character {bad.group()!r}", bad.start())
    toks = findall(_TOKEN, text)
    toks.append("")  # end of input
    try:
        terms, i = _parse_sum(toks, 0, scalar_only=False)
        if toks[i]:
            raise _TokenError(f"trailing input {toks[i]!r}", i)
    except _TokenError as exc:
        message, i = exc.args
        if i == len(toks) - 1:
            message, position = "unexpected end of input", len(text)
        else:
            position = [m.start() for m in finditer(_TOKEN, text)][i]
        raise ParseError(message, position) from None
    return _collect(terms)


# The readers below take the token list and an index, and return what they
# read with the index after it.  A scalar is (re, im, den): (re + i*im) / den.
# Inside parentheses only scalars are read (scalar_only).

def _parse_sum(toks: list[str], i: int, scalar_only: bool) -> tuple[list, int]:
    """Products joined by '+' and '-', the first with an optional sign."""
    sign = 1
    if toks[i] in _SIGNS:
        sign = -1 if toks[i] == "-" else 1
        i += 1
    terms = []
    while True:
        key, scalar, i = _parse_product(toks, i, sign, scalar_only)
        terms.append((key, scalar))
        if toks[i] not in _SIGNS:
            return terms, i
        sign = -1 if toks[i] == "-" else 1
        i += 1


def _parse_product(toks: list[str], i: int, sign: int, scalar_only: bool) -> tuple:
    """Factors joined by '*': the packed key, the scalar and the next index.

    The key is None for a scalar-only product and for a zero coefficient.
    """
    re, im, den = sign, 0, 1
    et = ex = ey = 0
    while True:
        tok = toks[i]
        if tok in _VARIABLES and not scalar_only:
            e, i = 1, i + 1
            if toks[i] == "^":
                negative = toks[i + 1] == "-"
                i += 2 if toks[i + 1] in _SIGNS else 1
                if not toks[i].isdigit():
                    raise _TokenError(f"expected 'INT', found {toks[i]!r}", i)
                e, i = -int(toks[i]) if negative else int(toks[i]), i + 1
            if not -_LIMIT <= e < _LIMIT:
                raise OverflowError(f"{tok}^{e} is outside the exponent fields")
            if tok == "t":
                et += e
                inside = -_LIMIT <= et < _LIMIT
            elif tok == "x":
                ex += e
                inside = -_LIMIT <= ex < _LIMIT and -_LIMIT <= ex + ey < _LIMIT
            else:
                ey += e
                inside = -_LIMIT <= ex + ey < _LIMIT
            # The running product leaves the fields where a product of
            # polynomials would; a zero coefficient has no term to check.
            if not inside and (re or im):
                raise OverflowError(f"t^{et}*x^{ex}*y^{ey} is outside the exponent fields")
        elif tok == "(" and not scalar_only:
            scalars, i = _parse_sum(toks, i + 1, True)
            if toks[i] != ")":
                raise _TokenError(f"expected ')', found {toks[i]!r}", i)
            i += 1
            a, b, d = 0, 0, 1
            for _, (a2, b2, d2) in scalars:
                a, b, d = a * d2 + a2 * d, b * d2 + b2 * d, d * d2
            re, im, den = re * a - im * b, re * b + im * a, den * d
        elif tok.isdigit():
            n = int(tok)
            re, im = re * n, im * n
            i += 1
            if toks[i] == "/":
                if not toks[i + 1].isdigit():
                    raise _TokenError(f"expected 'INT', found {toks[i + 1]!r}", i + 1)
                d = int(toks[i + 1])
                if d == 0:
                    raise _TokenError("zero denominator", i + 1)
                den *= d
                i += 2
        elif tok == "i":
            re, im = -im, re
            i += 1
        elif scalar_only:
            raise _TokenError(f"expected a rational or 'i', found {tok!r}", i)
        else:
            raise _TokenError(f"unexpected token {tok!r}", i)
        if toks[i] != "*":
            key = None if scalar_only or not (re or im) else _pack(et, ex, ey)
            return key, (re, im, den), i
        i += 1
