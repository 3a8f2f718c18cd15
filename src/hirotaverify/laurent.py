"""Sparse Laurent polynomials in t, x, y over the rationals.

A polynomial is a finite sum of terms c * t^et * x^ex * y^ey with nonzero
rational coefficients c.  t carries integer exponents of both signs
throughout.  x and y are normally non-negative, but negative exponents are
permitted so that intermediate objects (inverse-power sums that later cancel
against a monomial prefactor) live in the same type.  The canonical term
order sorts by t-exponent descending, then total x,y-degree descending, then
x-exponent descending; serialization, leading terms and the division
algorithm all use this order, which makes text output deterministic and
equality purely structural.

Inside, a polynomial keeps one map of nonzero integer numerators over one
positive denominator that shares no factor with all of them:

    nums: {key: int},  den: int

A key packs a monomial into one int,

    key = -(et * R**2 + (ex + ey) * R + ex),    R = 2**12.

The key is linear, so adding two keys multiplies their monomials, and its
integer order is the canonical term order: the leading term has the
smallest key.  Each of et, ex + ey and ex must lie in [-2**10, 2**10), and a
key is one 30-bit CPython digit while |et| <= 63.  A sum of two such keys
still decodes exactly, so every operation that can leave that range checks
its result and raises OverflowError instead of wrapping.

The public methods take int, Fraction and GaussianRational scalars and
return Monomial and GaussianRational.  A non-real scalar is refused where it
would enter a polynomial (ValueError), and a polynomial equals none.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, lcm
from re import findall, finditer, search
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

from .gaussian import GaussianRational

ScalarLike = Union[int, Fraction, GaussianRational]
_SCALARS = (int, Fraction, GaussianRational)


class Monomial(NamedTuple):
    et: int
    ex: int
    ey: int


# -- packed keys ----------------------------------------------------------------
#
# A key holds three balanced base-R digits (et, ex + ey, ex), negated.  Stored
# digits lie in [-_LIMIT, _LIMIT); the sum of two stored keys has digits in
# [-2*_LIMIT, 2*_LIMIT), which _unpack still reads exactly.  (_BIAS - key) &
# _OUTSIDE is nonzero exactly when such a key has left the stored range: a
# digit out of range sets a bit of its field above the low _BITS - 1, or
# borrows from the top field, setting its top bit.  The masks are positive,
# since & on a negative int is slower in CPython.

_BITS = 12
_RADIX = 1 << _BITS
_DIGIT_HALF = _RADIX >> 1
_DIGIT_MASK = _RADIX - 1
_LIMIT = _RADIX >> 2
_DIGITS = 1 + _RADIX + _RADIX * _RADIX
_FIELDS = (1 << 3 * _BITS) - 1
_BIAS = _LIMIT * _DIGITS
_OUTSIDE = _FIELDS - (2 * _LIMIT - 1) * _DIGITS
_HALF_BIAS = (_LIMIT >> 1) * _DIGITS
_HALF_OUTSIDE = _FIELDS - (_LIMIT - 1) * _DIGITS
_T_SHIFT = 2 * _BITS
_T_HALF = 1 << (_T_SHIFT - 1)
_T_UNIT = 1 << _T_SHIFT  # a key's step per power of t


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


def _parts(value: ScalarLike) -> tuple[int, int, int]:
    """(re, im, den) with value = (re + i*im) / den and den > 0; TypeError on a non-scalar."""
    if isinstance(value, int):
        return value, 0, 1
    if isinstance(value, Fraction):
        return value.numerator, 0, value.denominator
    if not isinstance(value, GaussianRational):
        raise TypeError(f"not a scalar coefficient: {value!r}")
    re, im = value.re, value.im
    den = lcm(re.denominator, im.denominator)
    return re.numerator * (den // re.denominator), im.numerator * (den // im.denominator), den


def _ratio(value: ScalarLike) -> tuple[int, int]:
    """(num, den) with value = num / den and den > 0; ValueError on a non-real scalar."""
    num, im, den = _parts(value)
    if im:
        raise ValueError(f"not a real coefficient: {value}")
    return num, den


def _times(nums: dict, factor: int) -> dict:
    return {k: v * factor for k, v in nums.items()}


class LaurentPoly:
    """Immutable sparse polynomial; zero coefficients are never stored."""

    __slots__ = ("_nums", "_den")

    def __init__(self, terms: Mapping | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        p = _collect([(_pack(*mono), _ratio(value)) for mono, value in items])
        self._nums, self._den = p._nums, p._den

    @classmethod
    def _make(cls, nums: dict, den: int = 1) -> "LaurentPoly":
        # Trusted constructor: stored-range keys, nonzero int numerators, den > 0.
        g = gcd(den, *nums.values()) if den != 1 else 1
        if g != 1:  # the factor den shares with every numerator
            nums, den = {k: v // g for k, v in nums.items()}, den // g
        p = object.__new__(cls)
        p._nums, p._den = nums, den
        return p

    # -- inspection ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._nums

    @property
    def term_count(self) -> int:
        return len(self._nums)

    def terms(self) -> Iterator[tuple[Monomial, GaussianRational]]:
        den = self._den
        return ((_unpack(k), GaussianRational(Fraction(v, den))) for k, v in self._nums.items())

    def leading_term(self) -> tuple[Monomial, GaussianRational]:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading term")
        key = min(self._nums)
        return _unpack(key), GaussianRational(Fraction(self._nums[key], self._den))

    def has_negative_xy(self) -> bool:
        return any(m.ex < 0 or m.ey < 0 for m in map(_unpack, self._nums))

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
        return LaurentPoly._make(_times(self._nums, -1), self._den)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            return _product(self, other)
        if isinstance(other, _SCALARS):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, scalar: ScalarLike) -> "LaurentPoly":
        num, den = _ratio(scalar)
        if not num:
            return ZERO
        return LaurentPoly._make(_times(self._nums, num), self._den * den)

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
        try:
            other = _as_poly(other)
        except ValueError:  # a non-real scalar
            return False
        if other is None:
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self):
        if self._nums.keys() <= {0}:
            # Zero or a constant equals its scalar, so it hashes like it.
            return hash(Fraction(self._nums.get(0, 0), self._den))
        return hash((self._den, frozenset(self._nums.items())))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        text = serialize(self)
        if len(text) > 120:
            text = text[:117] + "..."
        return f"LaurentPoly[{text}]"

    # -- t-direction --------------------------------------------------------

    def t_coefficients(self) -> dict[int, "LaurentPoly"]:
        """Split into t-free polynomials keyed by t-exponent."""
        split: dict[int, dict] = {}
        for k, v in self._nums.items():
            et = (_T_HALF - k) >> _T_SHIFT  # the et digit
            split.setdefault(et, {})[k + et * _T_UNIT] = v
        return {et: LaurentPoly._make(nums, self._den) for et, nums in split.items()}


# -- evaluation ---------------------------------------------------------------

def evaluate(polys: Sequence[LaurentPoly], points: Iterable[tuple]) -> Iterator[tuple[list, int]]:
    """([(re_k, im_k), ...], den) at each point (x, y, t): polys[k] is (re_k + i*im_k) / den.

    Each key is unpacked once for all points.  At each point the power tables
    of t, x and y are built once for all polys, and each monomial is valued
    once.  A negative exponent inverts its base.
    """
    exps = {k: _unpack(k) for p in polys for k in p._nums}
    slots = [{m[slot] for m in exps.values()} for slot in range(3)]
    common = lcm(*(p._den for p in polys))
    for x, y, t in points:
        (t_pow, t_den), (x_pow, x_den), (y_pow, y_den) = (
            _powers(value, exponents) for value, exponents in zip((t, x, y), slots))
        den = common * t_den * x_den * y_den
        mono = {}  # the value of t^et * x^ex * y^ey at each key
        for k, (et, ex, ey) in exps.items():
            (ar, ai), (br, bi), (cr, ci) = t_pow[et], x_pow[ex], y_pow[ey]
            ar, ai = ar * br - ai * bi, ar * bi + ai * br
            mono[k] = (ar * cr - ai * ci, ar * ci + ai * cr)
        values = []
        for p in polys:
            nums, factor = p._nums.items(), common // p._den
            values.append((sum(c * mono[k][0] for k, c in nums) * factor,
                           sum(c * mono[k][1] for k, c in nums) * factor))
        yield values, den


def _powers(value: ScalarLike, exponents: set[int]) -> tuple[dict, int]:
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
    return monomial(value) if isinstance(value, _SCALARS) else None


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
    nums = dict(a._nums) if fa == 1 else _times(a._nums, fa)
    return LaurentPoly._make(_accumulate(nums, b._nums, fb), den)


def _collect(terms: list[tuple[int | None, tuple[int, int]]]) -> LaurentPoly:
    """The sum of (key, (num, den)) terms over the lcm of their denominators.

    A term whose numerator is zero may have key None.
    """
    den = lcm(*(d for _, (_, d) in terms))
    nums: dict[int, int] = {}
    for key, (a, d) in terms:
        if a:
            nums[key] = nums.get(key, 0) + a * (den // d)
    return LaurentPoly._make({k: v for k, v in nums.items() if v}, den)


def _checked(nums: dict, den: int) -> LaurentPoly:
    """The polynomial nums / den; OverflowError if a key left the stored range."""
    for key in nums:
        if (_BIAS - key) & _OUTSIDE:
            raise OverflowError(f"{_unpack(key)} is outside the exponent fields")
    return LaurentPoly._make(nums, den)


def _product(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    x, y = a._nums, b._nums
    if len(x) > len(y):
        x, y = y, x
    out: dict[int, int] = {}
    get = out.get
    pairs = list(y.items())
    for kx, cx in x.items():
        for ky, cy in pairs:
            k = kx + ky
            out[k] = get(k, 0) + cx * cy
    nums = {k: v for k, v in out.items() if v}
    # Keys whose digits lie in [-_LIMIT/2, _LIMIT/2) sum to keys in the stored range.
    for k in chain(x, y):
        if (_HALF_BIAS - k) & _HALF_OUTSIDE:
            return _checked(nums, a._den * b._den)
    return LaurentPoly._make(nums, a._den * b._den)


def monomial(coeff: ScalarLike, et: int = 0, ex: int = 0, ey: int = 0) -> LaurentPoly:
    return _collect([(_pack(et, ex, ey), _ratio(coeff))])


ZERO = LaurentPoly()
ONE = monomial(1)


def differentiate(p: LaurentPoly, var: str) -> LaurentPoly:
    """Formal partial derivative in x or y (term-wise power rule)."""
    if var not in ("x", "y"):
        raise ValueError("differentiate expects var 'x' or 'y'")
    # Lowering ex lowers ex and ex + ey: the key grows by R + 1; for ey, by R.
    step = _RADIX + 1 if var == "x" else _RADIX
    out = {}
    for k, c in p._nums.items():
        # The ex digit of the key, and for y the ex + ey digit minus it (see _unpack).
        e = ((_DIGIT_HALF - k) & _DIGIT_MASK) - _DIGIT_HALF
        if var == "y":
            e = ((((-k - e) >> _BITS) + _DIGIT_HALF) & _DIGIT_MASK) - _DIGIT_HALF - e
        if e:
            out[k + step] = c * e
    return _checked(out, p._den)


# -- substitutions ----------------------------------------------------------

def _transform(p: LaurentPoly, step) -> LaurentPoly:
    """Term-wise map: step(et, ex, ey) gives the new exponents and the sign of the coefficient."""
    out = {}
    for key, v in p._nums.items():
        exps, sign = step(*_unpack(key))
        out[_pack(*exps)] = sign * v
    return LaurentPoly._make(out, p._den)


def subst_t_inverse(p: LaurentPoly) -> LaurentPoly:
    return _transform(p, lambda et, ex, ey: ((-et, ex, ey), 1))


def subst_y_negate(p: LaurentPoly) -> LaurentPoly:
    return _transform(p, lambda et, ex, ey: ((et, ex, ey), -1 if ey % 2 else 1))


def subst_t_negate(p: LaurentPoly) -> LaurentPoly:
    return _transform(p, lambda et, ex, ey: ((et, ex, ey), -1 if et % 2 else 1))


def swap_xy(p: LaurentPoly) -> LaurentPoly:
    return _transform(p, lambda et, ex, ey: ((et, ey, ex), 1))


# -- exact division ---------------------------------------------------------

class ExactDivisionError(ArithmeticError):
    """Raised when a divisor does not divide exactly; carries the remainder."""

    def __init__(self, message: str, remainder: LaurentPoly):
        super().__init__(message)
        self.remainder = remainder


def exact_divide(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Quotient a / b when b divides a exactly in the Laurent ring.

    Multivariate division under the canonical term order.  Exactness makes
    every quotient monomial reach at least min(a) - min(b) in each variable,
    the minima taken over the terms of each operand, so the first leading
    remainder term that b's leading term cannot reduce within that bound
    proves non-divisibility; it is reported with the outstanding remainder
    a - q*b.
    """
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero:
        return ZERO
    low = [ea - eb for ea, eb in zip(_lowest(a), _lowest(b))]
    nums, den = _quotient(a, b, low)
    return LaurentPoly._make(_times(nums, b._den), den * a._den)


def _lowest(p: LaurentPoly) -> tuple[int, int, int]:
    ets, exs, eys = zip(*map(_unpack, p._nums))
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
    rem = dict(a._nums)
    get = rem.get
    (lead, lead_coeff), *tail = sorted(b._nums.items())
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
                _checked(rem, den * a._den),
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


# -- basis change between (u, v) and (x, y) -------------------------------------
#
# u = (x+y)/2 and v = (x-y)/2, so x = u+v and y = u-v.  A polynomial "in u, v"
# reuses the x slot for u and the y slot for v.

@cache
def _uv_row(i: int, j: int) -> tuple[int, ...]:
    """Coefficients of (x+y)^i (x-y)^j; entry k multiplies x^k y^(i+j-k)."""
    if i < 0 or j < 0:
        raise ValueError("basis change requires non-negative exponents")
    if not i + j:
        return (1,)
    row, sign = (_uv_row(i - 1, j), 1) if i else (_uv_row(0, j - 1), -1)
    return tuple(sign * a + b for a, b in zip((*row, 0), (0, *row)))


def from_uv(p: LaurentPoly) -> LaurentPoly:
    """Rewrite a u,v-polynomial in x, y: t^a u^i v^j -> t^a (x+y)^i (x-y)^j / 2^(i+j)."""
    degree = {k: sum(_unpack(k)[1:]) for k in p._nums}
    top = max(degree.values(), default=0)
    scaled = {k: v << (top - degree[k]) for k, v in p._nums.items()}  # p(u/2, v/2)
    return to_uv(LaurentPoly._make(scaled, p._den << top))


def to_uv(p: LaurentPoly) -> LaurentPoly:
    """Rewrite an x,y-polynomial in u, v: t^a x^i y^j -> t^a (u+v)^i (u-v)^j."""
    out: dict[int, int] = {}
    for k, v in p._nums.items():
        _, i, j = _unpack(k)
        for r, c in enumerate(_uv_row(i, j)):
            if c:  # slot powers r and i+j-r: the key plus i - r
                key = k + i - r
                out[key] = out.get(key, 0) + v * c
    return LaurentPoly._make({k: v for k, v in out.items() if v}, p._den)


# -- canonical text form ----------------------------------------------------

def serialize(p: LaurentPoly) -> str:
    """Deterministic text form: '(coeff)*t^a*x^b*y^c' terms in canonical order."""
    if p.is_zero:
        return "0"
    den = p._den

    def ratio(num: int) -> str:  # str(Fraction(num, den)), read off the numerators
        g = gcd(num, den)
        return str(num // g) if g == den else f"{num // g}/{den // g}"

    parts = []
    for key, num in sorted(p._nums.items()):
        et, ex, ey = _unpack(key)
        parts.append(f"({ratio(num)})" + "".join(
            f"*{name}^{e}" for name, e in (("t", et), ("x", ex), ("y", ey)) if e))
    return " + ".join(parts)


class ParseError(ValueError):
    """Syntax error with the offending position in the input text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# A token is one operator or name character, or a run of ASCII digits.  Any other
# character but a space, tab, "\n" or "\r" is refused up front, so none is skipped.
_TOKEN = r"[()*/^+\-txy]|[0-9]+"
_BAD_CHARACTER = r"[^ \t\n\r0-9txy()*/^+-]"
_SIGNS = ("+", "-")
_VARIABLES = ("t", "x", "y")  # a tuple: "" (end of input) is in every string


class _TokenError(Exception):
    """A parse failure at a token index; parse turns it into a ParseError."""


def parse(text: str) -> LaurentPoly:
    """Parse the canonical grammar (spaces, tabs and line breaks insignificant).

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
# read with the index after it.  A scalar is (num, den): num / den.
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
    num, den = sign, 1
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
            if not inside and num:
                raise OverflowError(f"t^{et}*x^{ex}*y^{ey} is outside the exponent fields")
        elif tok == "(" and not scalar_only:
            scalars, i = _parse_sum(toks, i + 1, True)
            if toks[i] != ")":
                raise _TokenError(f"expected ')', found {toks[i]!r}", i)
            i += 1
            a, d = 0, 1
            for _, (a2, d2) in scalars:
                a, d = a * d2 + a2 * d, d * d2
            num, den = num * a, den * d
        elif tok.isdigit():
            num *= int(tok)
            i += 1
            if toks[i] == "/":
                if not toks[i + 1].isdigit():
                    raise _TokenError(f"expected 'INT', found {toks[i + 1]!r}", i + 1)
                d = int(toks[i + 1])
                if d == 0:
                    raise _TokenError("zero denominator", i + 1)
                den *= d
                i += 2
        elif scalar_only:
            raise _TokenError(f"expected a rational, found {tok!r}", i)
        else:
            raise _TokenError(f"unexpected token {tok!r}", i)
        if toks[i] != "*":
            key = None if scalar_only or not num else _pack(et, ex, ey)
            return key, (num, den), i
        i += 1
