import random
from fractions import Fraction

import pytest

from leibalg.fields import MAX_PRIME, Field, FieldError


def test_rationals_and_prime_constructors():
    assert str(Field.rationals()) == "Q"
    assert str(Field.prime(3)) == "F_3"
    assert not Field.rationals().is_finite
    assert Field.prime(5).is_finite


def test_characteristic_two_rejected():
    with pytest.raises(FieldError, match="characteristic 2"):
        Field.prime(2)


def test_composite_modulus_rejected():
    with pytest.raises(FieldError, match="not prime"):
        Field.prime(9)


def test_modulus_bound():
    with pytest.raises(FieldError, match="exceeds"):
        Field.prime(1048583)  # smallest prime above 2**20
    Field.prime(1048573)  # largest prime below 2**20


def test_of_canonicalizes_ints_strings_fractions():
    fq = Field.rationals()
    assert fq.of(2) == Fraction(2)
    assert fq.of("-2/3") == Fraction(-2, 3)
    assert fq.of(Fraction(4, 6)) == Fraction(2, 3)
    f5 = Field.prime(5)
    assert f5.of(7) == 2
    assert f5.of(-1) == 4
    assert f5.of("1/2") == 3  # 2 * 3 = 6 = 1 mod 5
    assert f5.of(Fraction(2, 3)) == 4  # 3 * 4 = 12 = 2 mod 5


def test_of_rejects_vanishing_denominator():
    f5 = Field.prime(5)
    with pytest.raises(FieldError, match="denominator"):
        f5.of(Fraction(1, 5))
    with pytest.raises(FieldError, match="denominator"):
        f5.of("3/10")


def test_of_rejects_garbage():
    with pytest.raises(FieldError):
        Field.prime(3).of(object())
    with pytest.raises(FieldError, match="parse"):
        Field.prime(3).of("xyz")
    with pytest.raises(FieldError, match="parse"):
        Field.rationals().of("1/0")


def test_arithmetic_inverses_random():
    rng = random.Random(7)
    for field in (Field.prime(3), Field.prime(101), Field.rationals()):
        for _ in range(50):
            a = field.of(rng.randint(-30, 30))
            b = field.of(rng.randint(1, 30))
            if b == field.zero:
                continue
            assert field.sub(field.add(a, b), b) == a
            assert field.mul(field.inv(b), b) == field.one
            assert field.add(a, field.neg(a)) == field.zero


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Field.prime(3).inv(0)
    with pytest.raises(ZeroDivisionError):
        Field.rationals().inv(Fraction(0))


def test_scalar_json_forms():
    assert Field.prime(7).scalar_to_json(3) == 3
    assert Field.rationals().scalar_to_json(Fraction(-1, 2)) == "-1/2"


def test_bound_constant():
    assert MAX_PRIME == 1 << 20
