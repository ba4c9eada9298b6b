from fractions import Fraction

import pytest

from jumat import GaussianRational, _core, format_rational, parse_rational
from tests.conftest import rand_scalar

GR = GaussianRational
HALF = Fraction(1, 2)


def test_rational_addition():
    assert GR(HALF) + GR(HALF) == GR(1)


def test_imaginary_unit_squares_to_minus_one():
    i = GR(0, 1)
    assert i * i == GR(-1)


def test_division_by_conjugate_direction():
    # (1+i)/(1-i) = i, confirmed by multiplying back.
    a = GR(1, 1)
    b = GR(1, -1)
    q = a / b
    assert q == GR(0, 1)
    assert q * b == a


def test_conjugation():
    assert GR(1, 2).conjugate() == GR(1, -2)
    x = GR(Fraction(-3, 7), Fraction(5, 11))
    assert x.conjugate().conjugate() == x


def test_abs2_on_unit_circle_point():
    x = GR(Fraction(3, 5), Fraction(4, 5))
    assert x.abs2() == 1
    assert x.abs2() == x.conjugate() * x  # Rational == GaussianRational coercion


def test_is_real():
    assert not GR(0, 1).is_real()
    assert GR(Fraction(2, 3)).is_real()
    assert GR(0, 1).is_imaginary()


def test_field_laws_on_random_values(rng):
    for _ in range(200):
        a = rand_scalar(rng)
        b = rand_scalar(rng)
        c = rand_scalar(rng)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) - b == a
        assert (a * b).abs2() == a.abs2() * b.abs2()
        if b:
            assert (a / b) * b == a


def test_canonical_form_is_structural():
    a = GR(Fraction(2, 4), Fraction(-6, 8))
    b = GR(Fraction(1, 2), Fraction(-3, 4))
    assert a == b
    assert hash(a) == hash(b)
    assert a._t == b._t
    # A negative denominator moves its sign to the numerator, and the
    # common factor of all three integers is divided out.
    assert _core.canon(4, -6, -8) == (-2, 3, 4) == GR(-HALF, Fraction(3, 4))._t


def test_real_values_hash_like_fractions():
    assert GR(Fraction(3, 7)) == Fraction(3, 7)
    assert hash(GR(Fraction(3, 7))) == hash(Fraction(3, 7))
    assert GR(2) == 2
    assert hash(GR(2)) == hash(2)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GR(1) / GR(0)
    with pytest.raises(ZeroDivisionError):
        1 / GR(0)
    with pytest.raises(ZeroDivisionError):
        _core.canon(1, 1, 0)


def test_int_and_fraction_coercion():
    x = GR(Fraction(1, 3), 1)
    assert 1 - x == GR(Fraction(2, 3), -1)
    assert x / 2 == GR(Fraction(1, 6), HALF)
    assert 2 * x == GR(Fraction(2, 3), 2)
    assert x + Fraction(1, 3) == GR(Fraction(2, 3), 1)


def test_parse_and_format_rational():
    for text in ("0", "7", "-7", "3/5", "-22/7"):
        assert format_rational(parse_rational(text)) == text
    for bad in ("1.5", "a", "1/0", "1/-2", "", "1 / 2"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_repr_is_readable():
    assert repr(GR(0)) == "0"
    assert repr(GR(Fraction(3, 5), Fraction(4, 5))) == "3/5+4/5i"
    assert repr(GR(0, -1)) == "-i"
    assert repr(GR(1, -2)) == "1-2i"


def test_arbitrary_precision_survives_compounding():
    # Squaring ten times produces thousand-digit components without drift.
    x = GR(Fraction(10**40 + 1, 10**40 - 1), Fraction(3, 10**40 - 1))
    y = x
    for _ in range(10):
        y = y * y
    assert y.re.denominator.bit_length() > 1000
    assert y * y.conjugate() == GR(y.abs2())
    assert (y / x) * x == y
    assert (y / x).abs2() * x.abs2() == y.abs2()
