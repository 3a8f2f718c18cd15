"""Sparse Laurent polynomials in t, x, y over Gaussian rationals.

A polynomial is a finite map from exponent triples to nonzero coefficients:

    Monomial(et, ex, ey)  ->  GaussianRational

t carries integer exponents of both signs throughout.  x and y are normally
non-negative, but negative exponents are permitted so that intermediate
objects (inverse-power sums that later cancel against a monomial prefactor)
live in the same type.  The canonical term order sorts by t-exponent
descending, then total x,y-degree descending, then x-exponent descending;
serialization, leading terms and the division algorithm all use this order,
which makes text output deterministic and equality purely structural.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Union

from .gaussian import GaussianRational, i_power

ScalarLike = Union[int, Fraction, GaussianRational]


class Monomial(NamedTuple):
    et: int
    ex: int
    ey: int


def monomial_key(m: Monomial):
    """Sort key realizing the canonical order (ascending sort puts the leading term first)."""
    return (-m.et, -(m.ex + m.ey), -m.ex)


def _as_coeff(value: ScalarLike) -> GaussianRational:
    c = GaussianRational._coerce(value)
    if c is None:
        raise TypeError(f"not a scalar coefficient: {value!r}")
    return c


class LaurentPoly:
    """Immutable sparse polynomial; zero coefficients are never stored."""

    __slots__ = ("_terms", "_tsplit")

    def __init__(self, terms: Mapping | Iterable = ()):
        data: dict[Monomial, GaussianRational] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for mono, coeff in items:
            if not isinstance(mono, Monomial):
                mono = Monomial(*mono)
            c = _as_coeff(coeff)
            if mono in data:
                c = data[mono] + c
            if c.is_zero:
                data.pop(mono, None)
            else:
                data[mono] = c
        self._terms = data
        self._tsplit = None

    @classmethod
    def _make(cls, data: dict[Monomial, GaussianRational]) -> "LaurentPoly":
        # Trusted constructor: keys are Monomials, values GaussianRational, possibly zero.
        p = object.__new__(cls)
        p._terms = {m: c for m, c in data.items() if not c.is_zero}
        p._tsplit = None
        return p

    # -- inspection ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def term_count(self) -> int:
        return len(self._terms)

    def terms(self) -> Iterator[tuple[Monomial, GaussianRational]]:
        return iter(self._terms.items())

    def sorted_terms(self) -> list[tuple[Monomial, GaussianRational]]:
        return sorted(self._terms.items(), key=lambda kv: monomial_key(kv[0]))

    def leading_term(self) -> tuple[Monomial, GaussianRational]:
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        mono = min(self._terms, key=monomial_key)
        return mono, self._terms[mono]

    def coeff(self, mono: Monomial) -> GaussianRational:
        return self._terms.get(mono, GaussianRational(0))

    def t_span(self) -> tuple[int, int]:
        """(min, max) t-exponent; raises on the zero polynomial."""
        if not self._terms:
            raise ValueError("zero polynomial has no t-span")
        exps = [m.et for m in self._terms]
        return min(exps), max(exps)

    def has_negative_xy(self) -> bool:
        return any(m.ex < 0 or m.ey < 0 for m in self._terms)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            c = GaussianRational._coerce(other)
            if c is None:
                return NotImplemented
            other = constant(c)
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            s = out.get(mono)
            s = coeff if s is None else s + coeff
            if s.is_zero:
                out.pop(mono, None)
            else:
                out[mono] = s
        return LaurentPoly._make(out)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            c = GaussianRational._coerce(other)
            if c is None:
                return NotImplemented
            other = constant(c)
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            s = out.get(mono)
            s = -coeff if s is None else s - coeff
            if s.is_zero:
                out.pop(mono, None)
            else:
                out[mono] = s
        return LaurentPoly._make(out)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return LaurentPoly._make({m: -c for m, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            if not self._terms or not other._terms:
                return ZERO
            out: dict[Monomial, GaussianRational] = {}
            for ma, ca in self._terms.items():
                for mb, cb in other._terms.items():
                    mono = Monomial(ma.et + mb.et, ma.ex + mb.ex, ma.ey + mb.ey)
                    c = ca * cb
                    s = out.get(mono)
                    out[mono] = c if s is None else s + c
            return LaurentPoly._make(out)
        c = GaussianRational._coerce(other)
        if c is None:
            return NotImplemented
        return self.scale(c)

    __rmul__ = __mul__

    def scale(self, scalar: ScalarLike) -> "LaurentPoly":
        c = _as_coeff(scalar)
        if c.is_zero:
            return ZERO
        return LaurentPoly._make({m: v * c for m, v in self._terms.items()})

    def __pow__(self, exponent: int) -> "LaurentPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = ONE
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        c = GaussianRational._coerce(other)
        if c is None:
            return NotImplemented
        return self == constant(c)

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    def __repr__(self):
        text = serialize(self)
        if len(text) > 120:
            text = text[:117] + "..."
        return f"LaurentPoly[{text}]"

    # -- t-direction --------------------------------------------------------

    def t_coefficients(self) -> dict[int, "LaurentPoly"]:
        """Split into x,y-polynomials keyed by t-exponent.  Cached; do not mutate."""
        if self._tsplit is None:
            split: dict[int, dict[Monomial, GaussianRational]] = {}
            for mono, coeff in self._terms.items():
                split.setdefault(mono.et, {})[Monomial(0, mono.ex, mono.ey)] = coeff
            self._tsplit = {m: LaurentPoly._make(d) for m, d in split.items()}
        return self._tsplit

    def coeff_of_t(self, m: int) -> "LaurentPoly":
        """The x,y-polynomial multiplying t**m (zero if absent)."""
        return self.t_coefficients().get(m, ZERO)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, x: ScalarLike, y: ScalarLike, t: ScalarLike) -> GaussianRational:
        """Exact value at a scalar point; negative exponents invert the base."""
        xv, yv, tv = _as_coeff(x), _as_coeff(y), _as_coeff(t)
        powers: dict[tuple[str, int], GaussianRational] = {}

        def power(base: GaussianRational, tag: str, e: int) -> GaussianRational:
            key = (tag, e)
            got = powers.get(key)
            if got is None:
                got = powers[key] = base ** e
            return got

        total = GaussianRational(0)
        for mono, coeff in self._terms.items():
            v = coeff
            if mono.et:
                v = v * power(tv, "t", mono.et)
            if mono.ex:
                v = v * power(xv, "x", mono.ex)
            if mono.ey:
                v = v * power(yv, "y", mono.ey)
            total = total + v
        return total


ZERO = LaurentPoly()
ONE = LaurentPoly({Monomial(0, 0, 0): 1})

_VAR_SLOT = {"t": 0, "x": 1, "y": 2}


def constant(value: ScalarLike) -> LaurentPoly:
    c = _as_coeff(value)
    if c.is_zero:
        return ZERO
    return LaurentPoly._make({Monomial(0, 0, 0): c})


def monomial(coeff: ScalarLike, et: int = 0, ex: int = 0, ey: int = 0) -> LaurentPoly:
    c = _as_coeff(coeff)
    if c.is_zero:
        return ZERO
    return LaurentPoly._make({Monomial(et, ex, ey): c})


def variable(name: str, power: int = 1) -> LaurentPoly:
    if name not in _VAR_SLOT:
        raise ValueError(f"unknown variable {name!r}")
    exps = [0, 0, 0]
    exps[_VAR_SLOT[name]] = power
    return LaurentPoly._make({Monomial(*exps): GaussianRational(1)})


def differentiate(p: LaurentPoly, var: str) -> LaurentPoly:
    """Formal partial derivative in x or y (term-wise power rule)."""
    if var not in ("x", "y"):
        raise ValueError("differentiate expects var 'x' or 'y'")
    slot = _VAR_SLOT[var]
    out: dict[Monomial, GaussianRational] = {}
    for mono, coeff in p.terms():
        e = mono[slot]
        if e == 0:
            continue
        exps = list(mono)
        exps[slot] = e - 1
        out[Monomial(*exps)] = coeff * e
    return LaurentPoly._make(out)


# -- substitutions ----------------------------------------------------------

def subst_t_inverse(p: LaurentPoly) -> LaurentPoly:
    return LaurentPoly._make({Monomial(-m.et, m.ex, m.ey): c for m, c in p.terms()})


def subst_y_negate(p: LaurentPoly) -> LaurentPoly:
    return LaurentPoly._make(
        {m: (-c if m.ey % 2 else c) for m, c in p.terms()}
    )


def subst_t_negate(p: LaurentPoly) -> LaurentPoly:
    return LaurentPoly._make(
        {m: (-c if m.et % 2 else c) for m, c in p.terms()}
    )


def subst_t_times_i(p: LaurentPoly) -> LaurentPoly:
    """t -> i*t, multiplying each term by i**et."""
    return LaurentPoly._make({m: c * i_power(m.et) for m, c in p.terms()})


def swap_xy(p: LaurentPoly) -> LaurentPoly:
    return LaurentPoly._make({Monomial(m.et, m.ey, m.ex): c for m, c in p.terms()})


def conjugate_coeffs(p: LaurentPoly) -> LaurentPoly:
    """Conjugate every coefficient, leaving monomials alone."""
    return LaurentPoly._make({m: c.conjugate() for m, c in p.terms()})


# -- exact division ---------------------------------------------------------

class ExactDivisionError(ArithmeticError):
    """Raised when a divisor does not divide exactly; carries the remainder."""

    def __init__(self, message: str, remainder: LaurentPoly):
        super().__init__(message)
        self.remainder = remainder


def exact_divide(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Quotient a / b when b divides a exactly in the Laurent ring.

    Both operands are shifted by monomials so their exponents become
    non-negative, then ordinary multivariate long division runs under the
    canonical term order.  Exactness makes the divisor's leading monomial
    divide the running remainder's at every step; the first failure proves
    non-divisibility and is reported with the outstanding remainder.
    """
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero:
        return ZERO

    a_shift = _min_exponents(a)
    b_shift = _min_exponents(b)
    rem = {_shift(m, a_shift): c for m, c in a.terms()}
    bterms = {_shift(m, b_shift): c for m, c in b.terms()}
    lead_b = min(bterms, key=monomial_key)
    lead_b_coeff = bterms[lead_b]

    quotient: dict[Monomial, GaussianRational] = {}
    while rem:
        lead_r = min(rem, key=monomial_key)
        diff = Monomial(lead_r.et - lead_b.et, lead_r.ex - lead_b.ex, lead_r.ey - lead_b.ey)
        if diff.et < 0 or diff.ex < 0 or diff.ey < 0:
            witness = LaurentPoly._make({_madd(m, a_shift): c for m, c in rem.items()})
            raise ExactDivisionError(
                f"not divisible: leading term {lead_r} not reducible by {lead_b}", witness
            )
        c = rem[lead_r] / lead_b_coeff
        quotient[diff] = c
        for mb, cb in bterms.items():
            mono = Monomial(diff.et + mb.et, diff.ex + mb.ex, diff.ey + mb.ey)
            s = rem.get(mono)
            s = -(c * cb) if s is None else s - c * cb
            if s.is_zero:
                rem.pop(mono, None)
            else:
                rem[mono] = s

    # Undo the shifts: a = a' * s_a, b = b' * s_b, so q = q' * s_a / s_b.
    back = Monomial(a_shift.et - b_shift.et, a_shift.ex - b_shift.ex, a_shift.ey - b_shift.ey)
    return LaurentPoly._make({_madd(m, back): c for m, c in quotient.items()})


def _min_exponents(p: LaurentPoly) -> Monomial:
    ets, exs, eys = zip(*(m for m, _ in p.terms()))
    return Monomial(min(ets), min(exs), min(eys))


def _shift(m: Monomial, by: Monomial) -> Monomial:
    return Monomial(m.et - by.et, m.ex - by.ex, m.ey - by.ey)


def _madd(m: Monomial, by: Monomial) -> Monomial:
    return Monomial(m.et + by.et, m.ex + by.ex, m.ey + by.ey)


# -- basis change between (x, y) and (u, v) ---------------------------------
#
# u = (x+y)/2 and v = (x-y)/2.  A polynomial "in u, v" reuses the x slot for
# u and the y slot for v.

_HALF = Fraction(1, 2)


def to_uv(p: LaurentPoly) -> LaurentPoly:
    """Rewrite an x,y-polynomial in u, v (x -> u+v, y -> u-v)."""
    u_plus_v = LaurentPoly({Monomial(0, 1, 0): 1, Monomial(0, 0, 1): 1})
    u_minus_v = LaurentPoly({Monomial(0, 1, 0): 1, Monomial(0, 0, 1): -1})
    return _subst_linear(p, u_plus_v, u_minus_v)


def from_uv(p: LaurentPoly) -> LaurentPoly:
    """Rewrite a u,v-polynomial back in x, y (u -> (x+y)/2, v -> (x-y)/2)."""
    u_img = LaurentPoly({Monomial(0, 1, 0): _HALF, Monomial(0, 0, 1): _HALF})
    v_img = LaurentPoly({Monomial(0, 1, 0): _HALF, Monomial(0, 0, 1): -_HALF})
    return _subst_linear(p, u_img, v_img)


def _subst_linear(p: LaurentPoly, x_image: LaurentPoly, y_image: LaurentPoly) -> LaurentPoly:
    if p.has_negative_xy():
        raise ValueError("basis change requires non-negative x,y exponents")
    x_pows: dict[int, LaurentPoly] = {0: ONE}
    y_pows: dict[int, LaurentPoly] = {0: ONE}

    def pow_of(images: dict[int, LaurentPoly], base: LaurentPoly, e: int) -> LaurentPoly:
        got = images.get(e)
        if got is None:
            got = images[e] = pow_of(images, base, e - 1) * base
        return got

    total = ZERO
    for mono, coeff in p.terms():
        term = monomial(coeff, et=mono.et)
        if mono.ex:
            term = term * pow_of(x_pows, x_image, mono.ex)
        if mono.ey:
            term = term * pow_of(y_pows, y_image, mono.ey)
        total = total + term
    return total


# -- canonical text form ----------------------------------------------------

def serialize(p: LaurentPoly) -> str:
    """Deterministic text form: '(coeff)*t^a*x^b*y^c' terms in canonical order."""
    if p.is_zero:
        return "0"
    parts = []
    for mono, coeff in p.sorted_terms():
        factors = [f"({coeff})"]
        for name, e in (("t", mono.et), ("x", mono.ex), ("y", mono.ey)):
            if e:
                factors.append(f"{name}^{e}")
        parts.append("*".join(factors))
    return " + ".join(parts)


class ParseError(ValueError):
    """Syntax error with the offending position in the input text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                self.items.append(("INT", text[i:j], i))
                i = j
            elif ch in "+-*/^()":
                self.items.append((ch, ch, i))
                i += 1
            elif ch in "txyi":
                self.items.append(("NAME", ch, i))
                i += 1
            else:
                raise ParseError(f"unexpected character {ch!r}", i)
        self.pos = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.items[self.pos] if self.pos < len(self.items) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok


def parse(text: str) -> LaurentPoly:
    """Parse the canonical grammar (whitespace insignificant) into a polynomial."""
    toks = _Tokens(text)
    result = _parse_sum(toks)
    left = toks.peek()
    if left is not None:
        raise ParseError(f"trailing input {left[1]!r}", left[2])
    return result


def _parse_sum(toks: _Tokens) -> LaurentPoly:
    total = _parse_signed_term(toks, allow_sign=True)
    while True:
        tok = toks.peek()
        if tok is None or tok[0] not in "+-":
            return total
        toks.next()
        term = _parse_signed_term(toks, allow_sign=False)
        total = total + term if tok[0] == "+" else total - term


def _parse_signed_term(toks: _Tokens, allow_sign: bool) -> LaurentPoly:
    sign = 1
    tok = toks.peek()
    if allow_sign and tok is not None and tok[0] in "+-":
        toks.next()
        if tok[0] == "-":
            sign = -1
    term = _parse_factor(toks)
    while True:
        tok = toks.peek()
        if tok is None or tok[0] != "*":
            break
        toks.next()
        term = term * _parse_factor(toks)
    return term if sign > 0 else -term


def _parse_factor(toks: _Tokens) -> LaurentPoly:
    tok = toks.next()
    kind, value, pos = tok
    if kind == "(":
        scalar = _parse_scalar_sum(toks)
        toks.expect(")")
        return constant(scalar)
    if kind == "INT":
        return constant(_finish_rational(toks, int(value)))
    if kind == "NAME":
        if value == "i":
            return constant(GaussianRational(0, 1))
        exponent = 1
        nxt = toks.peek()
        if nxt is not None and nxt[0] == "^":
            toks.next()
            exponent = _parse_signed_int(toks)
        return variable(value, exponent)
    raise ParseError(f"unexpected token {value!r}", pos)


def _parse_scalar_sum(toks: _Tokens) -> GaussianRational:
    total = _parse_scalar_term(toks, allow_sign=True)
    while True:
        tok = toks.peek()
        if tok is None or tok[0] not in "+-":
            return total
        toks.next()
        term = _parse_scalar_term(toks, allow_sign=False)
        total = total + term if tok[0] == "+" else total - term


def _parse_scalar_term(toks: _Tokens, allow_sign: bool) -> GaussianRational:
    sign = 1
    tok = toks.peek()
    if allow_sign and tok is not None and tok[0] in "+-":
        toks.next()
        if tok[0] == "-":
            sign = -1
    value = _parse_scalar_atom(toks)
    while True:
        tok = toks.peek()
        if tok is None or tok[0] != "*":
            break
        toks.next()
        value = value * _parse_scalar_atom(toks)
    return value if sign > 0 else -value


def _parse_scalar_atom(toks: _Tokens) -> GaussianRational:
    kind, value, pos = toks.next()
    if kind == "INT":
        return GaussianRational(_finish_rational(toks, int(value)))
    if kind == "NAME" and value == "i":
        return GaussianRational(0, 1)
    raise ParseError(f"expected a rational or 'i', found {value!r}", pos)


def _finish_rational(toks: _Tokens, numerator: int) -> Fraction:
    tok = toks.peek()
    if tok is not None and tok[0] == "/":
        toks.next()
        dtok = toks.expect("INT")
        denominator = int(dtok[1])
        if denominator == 0:
            raise ParseError("zero denominator", dtok[2])
        return Fraction(numerator, denominator)
    return Fraction(numerator)


def _parse_signed_int(toks: _Tokens) -> int:
    sign = 1
    tok = toks.peek()
    if tok is not None and tok[0] in "+-":
        toks.next()
        if tok[0] == "-":
            sign = -1
    return sign * int(toks.expect("INT")[1])
