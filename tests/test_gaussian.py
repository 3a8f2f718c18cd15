from fractions import Fraction

import pytest
from hypothesis import given

from hirotaverify.gaussian import GaussianRational

from conftest import gaussians, nonzero_gaussians


I = GaussianRational(0, 1)


class TestFieldAxioms:
    @given(a=gaussians, b=gaussians, c=gaussians)
    def test_addition_associative_commutative(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a

    @given(a=gaussians, b=gaussians, c=gaussians)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(a=gaussians, b=nonzero_gaussians)
    def test_division_inverts_multiplication(self, a, b):
        assert (a * b) / b == a
        assert b * b.inverse() == GaussianRational(1)

    @given(a=gaussians)
    def test_conjugation_involution_and_norm(self, a):
        assert a.conjugate().conjugate() == a
        assert a * a.conjugate() == GaussianRational(a.abs2())


def test_basic_values():
    half = GaussianRational(Fraction(1, 2))
    assert half.is_real and not half.is_zero
    assert (half + half) == 1
    assert I * I == -1
    assert (1 + I) * (1 - I) == 2
    assert GaussianRational(3, 4).abs2() == 25


def test_powers_of_i():
    assert [I ** k for k in range(4)] == [1, I, -1, -I]
    assert I ** -1 == -I
    assert (-I) ** 4 == 1
    assert (-I) ** 9 == -I  # (-i)^(3^2)


def test_integer_powers():
    z = GaussianRational(1, 1)
    assert z**2 == 2 * I
    assert z**0 == 1
    assert z**-2 == (2 * I).inverse()


@given(z=nonzero_gaussians)
def test_powers_are_repeated_products(z):
    product, inverse_product = GaussianRational(1), GaussianRational(1)
    for k in range(10):
        assert z**k == product
        assert z**-k == inverse_product
        product, inverse_product = product * z, inverse_product / z


def test_power_skips_the_unused_last_square(monkeypatch):
    products = []
    multiply = GaussianRational.__mul__

    def counting(a, b):
        products.append((a, b))
        return multiply(a, b)

    monkeypatch.setattr(GaussianRational, "__mul__", counting)
    assert GaussianRational(1, 1) ** 8 == 16
    assert len(products) == 4  # three squares, then 1 * z^8


def test_zero_division_rejected():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(0).inverse()
    with pytest.raises(ZeroDivisionError):
        I / GaussianRational(0)


def test_non_rational_operands_refused():
    z = GaussianRational(1, 2)
    with pytest.raises(TypeError, match="not a rational value"):
        GaussianRational("1")
    for operation in (lambda: z + "a", lambda: "a" + z, lambda: z - "a", lambda: "a" - z,
                      lambda: z / "a", lambda: z ** 0.0):
        with pytest.raises(TypeError):
            operation()
    assert (z == "a") is False and z != "a"


def test_text_forms():
    assert str(GaussianRational(Fraction(3, 2))) == "3/2"
    assert str(GaussianRational(0, 1)) == "1*i"
    assert str(GaussianRational(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4*i"
    assert str(GaussianRational(0, Fraction(-1, 3))) == "-1/3*i"
    assert repr(GaussianRational(Fraction(1, 2), -3)) == "GaussianRational(1/2, -3)"
