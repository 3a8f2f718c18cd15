"""The packed polynomial kernel against term-wise oracles over Monomial -> GaussianRational maps.

The kernel holds real coefficients only; GaussianRational is the type its terms are read as.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hirotaverify.gaussian import GaussianRational
from hirotaverify.laurent import (
    ExactDivisionError,
    LaurentPoly,
    Monomial,
    ONE,
    ZERO,
    differentiate,
    evaluate,
    exact_divide,
    monomial,
    parse,
    serialize,
    subst_t_inverse,
    subst_t_negate,
    subst_y_negate,
    swap_xy,
    _pack,
)

from conftest import gaussians, laurent_monomials, laurent_polys, polys, rationals

any_polys = st.one_of(polys, laurent_polys)
nonzero_scalars = st.one_of(
    rationals, st.builds(GaussianRational, rationals), st.integers(-6, 6)
).filter(lambda c: c != 0)


# -- the reference kernel: plain dicts of Monomial -> GaussianRational ---------

def terms(p: LaurentPoly) -> dict:
    return dict(p.terms())


def nonzero(d: dict) -> dict:
    return {m: c for m, c in d.items() if not c.is_zero}


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = Monomial(ma.et + mb.et, ma.ex + mb.ex, ma.ey + mb.ey)
            out[mono] = out.get(mono, GaussianRational(0)) + ca * cb
    return nonzero(out)


def ref_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, GaussianRational(0)) + sign * c
    return nonzero(out)


def ref_map(a: dict, step) -> dict:
    """Apply step(mono, coeff) -> (mono, coeff) to every term."""
    out: dict = {}
    for m, c in a.items():
        mono, coeff = step(m, c)
        out[mono] = out.get(mono, GaussianRational(0)) + coeff
    return nonzero(out)


def ref_power(base: GaussianRational, e: int) -> GaussianRational:
    return base ** e if e else GaussianRational(1)


# -- ring operations -------------------------------------------------------------

class TestAgainstReferenceMultiply:
    @given(a=any_polys, b=any_polys)
    def test_product(self, a, b):
        assert terms(a * b) == ref_mul(terms(a), terms(b))

    @given(a=laurent_polys, b=laurent_polys)
    def test_real_product_stays_real(self, a, b):
        assert all(c.is_real for _, c in (a * b).terms())

    @given(a=any_polys, b=any_polys)
    def test_sum_and_difference(self, a, b):
        assert terms(a + b) == ref_add(terms(a), terms(b))
        assert terms(a - b) == ref_add(terms(a), terms(b), -1)
        assert terms(-a) == ref_add({}, terms(a), -1)

    @given(a=any_polys, c=nonzero_scalars)
    def test_scale(self, a, c):
        expected = {m: v * c for m, v in terms(a).items()}
        assert terms(a.scale(c)) == expected
        assert terms(c * a) == expected

    @given(a=any_polys, e=st.integers(0, 3))
    def test_power(self, a, e):
        expected = {Monomial(0, 0, 0): GaussianRational(1)}
        for _ in range(e):
            expected = ref_mul(expected, terms(a))
        assert terms(a ** e) == expected


class TestExactDivision:
    @given(a=laurent_polys, b=laurent_polys.filter(bool))
    def test_divides_its_products(self, a, b):
        assert exact_divide(a * b, b) == a

    def test_remainder_of_a_non_divisor(self):
        x = monomial(1, ex=1)
        with pytest.raises(ExactDivisionError) as exc:
            exact_divide(x ** 2 + 1, x + 1)
        # x^2 + 1 = (x - 1)(x + 1) + 2, and 2 is not reducible by x.
        assert exc.value.remainder == 2

    @given(a=laurent_polys, b=laurent_polys.filter(bool))
    def test_remainder_is_a_minus_q_b(self, a, b):
        try:
            q = exact_divide(a, b)
        except ExactDivisionError as exc:
            r = exc.remainder
            assert not r.is_zero
            # a - r is a multiple of b, and r's leading term is not reducible
            # by b's within the exponents an exact quotient could have.
            assert exact_divide(a - r, b) * b == a - r
            low = [min(m[i] for m, _ in a.terms()) - min(m[i] for m, _ in b.terms())
                   for i in range(3)]
            lead_r, lead_b = r.leading_term()[0], b.leading_term()[0]
            assert any(er - eb < lo for er, eb, lo in zip(lead_r, lead_b, low))
        else:
            assert q * b == a

    @given(a=laurent_polys, m=laurent_monomials, k=gaussians.filter(lambda k: k.im))
    def test_non_real_operand_is_refused(self, a, m, k):
        # A non-real coefficient never reaches a polynomial, so no operand carries one.
        for make in (lambda: LaurentPoly({m: k}), lambda: monomial(k, *m), lambda: a + k,
                     lambda: a.scale(k), lambda: k * a):
            with pytest.raises(ValueError, match="not a real coefficient"):
                make()


# -- derivatives, substitutions, t-split, evaluation ------------------------------

class TestTermWise:
    @given(p=any_polys)
    def test_differentiate(self, p):
        for slot, var in ((1, "x"), (2, "y")):
            def step(m, c, slot=slot):
                exps = list(m)
                exps[slot] -= 1
                return Monomial(*exps), c * m[slot]
            assert terms(differentiate(p, var)) == ref_map(terms(p), step)

    @given(p=any_polys)
    def test_substitutions(self, p):
        t = terms(p)
        assert terms(subst_t_inverse(p)) == ref_map(t, lambda m, c: (Monomial(-m.et, m.ex, m.ey), c))
        assert terms(subst_y_negate(p)) == ref_map(t, lambda m, c: (m, c * (-1) ** (m.ey % 2)))
        assert terms(subst_t_negate(p)) == ref_map(t, lambda m, c: (m, c * (-1) ** (m.et % 2)))
        assert terms(swap_xy(p)) == ref_map(t, lambda m, c: (Monomial(m.et, m.ey, m.ex), c))

    @given(p=any_polys)
    def test_t_coefficients(self, p):
        expected: dict = {}
        for m, c in terms(p).items():
            expected.setdefault(m.et, {})[Monomial(0, m.ex, m.ey)] = c
        assert {et: terms(q) for et, q in p.t_coefficients().items()} == expected
        assert ({et: q.term_count for et, q in p.t_coefficients().items()}
                == {et: len(q) for et, q in expected.items()})
        assert p.term_count == len(terms(p))
        for et in range(-4, 5):
            assert terms(p.t_coefficients().get(et, ZERO)) == expected.get(et, {})
        for et in (-2000, 2000):  # outside the stored t field
            assert p.t_coefficients().get(et, ZERO).is_zero

    @given(ps=st.lists(any_polys, max_size=4),
           points=st.lists(st.tuples(*[gaussians.filter(bool)] * 3), max_size=3))
    def test_evaluate(self, ps, points):
        # Several polynomials at several Gaussian points, over one positive denominator per point.
        at_points = list(evaluate(ps, points))
        assert len(at_points) == len(points)
        for (x, y, t), (values, den) in zip(points, at_points):
            assert den > 0 and len(values) == len(ps)
            for p, (re, im) in zip(ps, values):
                expected = GaussianRational(0)
                for m, c in terms(p).items():
                    expected = (expected + c * ref_power(t, m.et) * ref_power(x, m.ex)
                                * ref_power(y, m.ey))
                assert GaussianRational(Fraction(re, den), Fraction(im, den)) == expected


# -- text form and hashing -------------------------------------------------------

class TestCanonicalForm:
    @given(p=any_polys)
    def test_parse_inverts_serialize(self, p):
        back = parse(serialize(p))
        assert back == p and hash(back) == hash(p)

    @given(a=any_polys, b=any_polys, c=any_polys)
    def test_equal_routes_hash_equal(self, a, b, c):
        routes = [a * (b + c), a * b + a * c, (c + b) * a, LaurentPoly(terms(a * b + c * a))]
        assert all(r == routes[0] for r in routes)
        assert len({hash(r) for r in routes}) == 1

    def test_halves_reduce_to_one_denominator(self):
        half = monomial(Fraction(1, 2))
        assert half + half == ONE and hash(half + half) == hash(ONE)
        assert serialize(half * monomial(1, ex=1) + half) == "(1/2)*x^1 + (1/2)"


class TestHashMatchesEquality:
    def test_scalar_and_its_gaussian(self):
        assert GaussianRational(1) == 1
        assert hash(GaussianRational(1)) == hash(1)
        assert len({GaussianRational(1), 1}) == 1
        assert hash(GaussianRational(Fraction(-3, 4))) == hash(Fraction(-3, 4))

    def test_constant_polynomials(self):
        assert ONE == 1 and hash(ONE) == hash(1)
        assert ZERO == 0 and hash(ZERO) == hash(0)
        assert len({ONE, 1, GaussianRational(1)}) == 1
        half = monomial(Fraction(1, 2))
        assert hash(half) == hash(Fraction(1, 2))
        # A non-real scalar equals no polynomial, and comparing with one does not raise.
        z = GaussianRational(1, -2)
        assert (ONE == z) is False and (z == ONE) is False and ONE != z


# -- exponent fields -------------------------------------------------------------

class TestExponentFields:
    LIMIT = 2 ** 10

    def test_packing_refuses_an_exponent_outside_its_field(self):
        with pytest.raises(OverflowError):
            monomial(1, et=2 ** 40)
        with pytest.raises(OverflowError):
            LaurentPoly({(0, -self.LIMIT - 1, 0): 1})
        with pytest.raises(OverflowError):
            monomial(1, ex=self.LIMIT // 2, ey=self.LIMIT // 2)  # total degree 2**10

    def test_widest_exponents_survive(self):
        top = self.LIMIT - 1
        for a, b in ((3, 1), (GaussianRational(Fraction(3, 2)), Fraction(-1, 7))):
            p = monomial(a, et=top, ex=-self.LIMIT, ey=top) + monomial(b, et=-self.LIMIT)
            assert {m for m, _ in p.terms()} == {
                Monomial(top, -self.LIMIT, top), Monomial(-self.LIMIT, 0, 0)}
            assert parse(serialize(p)) == p

    def test_repeated_squaring_raises_instead_of_wrapping(self):
        with pytest.raises(OverflowError):
            monomial(1, et=2 ** 8) ** 2 ** 4
        with pytest.raises(OverflowError):
            monomial(1, ex=-3) ** 2 ** 9

    def test_power_skips_the_unused_last_square(self):
        p = monomial(1, et=self.LIMIT // 2 - 1)
        assert p ** 2 == p * p

    def test_products_at_the_edge(self):
        half = self.LIMIT // 2
        top = monomial(1, et=half - 1)
        assert top * top == monomial(1, et=2 * half - 2)
        assert monomial(1, et=-half) * monomial(1, et=-half) == monomial(1, et=-2 * half)
        for a, b in ((monomial(1, et=half), monomial(1, et=half)),
                     (monomial(1, ex=self.LIMIT - 1), monomial(1, ey=1)),
                     (monomial(1, ey=-self.LIMIT), monomial(1, ey=-1))):
            with pytest.raises(OverflowError):
                a * b

    def test_other_operations_refuse_to_leave_the_fields(self):
        with pytest.raises(OverflowError):
            subst_t_inverse(monomial(1, et=-self.LIMIT))
        with pytest.raises(OverflowError):
            differentiate(monomial(1, ex=-self.LIMIT), "x")
        with pytest.raises(OverflowError):
            differentiate(monomial(Fraction(2, 3), ey=-self.LIMIT), "y")
        with pytest.raises(OverflowError):
            swap_xy(monomial(1, ex=-self.LIMIT, ey=self.LIMIT + 5))
        with pytest.raises(OverflowError):
            exact_divide(ONE, monomial(1, et=-self.LIMIT))

    def test_keys_fit_one_digit_through_t_degree_63(self):
        # The products of every site through n = 31 have |et| <= 63; their keys stay
        # below 2**30, one 30-bit CPython digit.
        top, low = self.LIMIT - 1, -self.LIMIT
        for et in (63, -63):
            for ex, ey in ((top, 0), (low, 0), (0, top), (0, low), (top, low - top)):
                assert abs(_pack(et, ex, ey)) < 2 ** 30, (et, ex, ey)
