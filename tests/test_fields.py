import random
import sys
from fractions import Fraction

import pytest

from leibalg.fields import MAX_PRIME, Field, FieldError, magnitude


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


def test_moduli_below_two_are_not_prime():
    for p in (0, 1, -3):
        with pytest.raises(FieldError, match=f"^modulus {p} is not prime$"):
            Field.prime(p)


def test_magnitude_is_decimal_up_to_64_bits():
    assert [magnitude(n) for n in (0, -3, 2**64 - 1, -(2**64 - 1))] == \
        ["0", "-3", str(2**64 - 1), str(-(2**64 - 1))]
    assert magnitude(2**64) == "about 2^65" and magnitude(-(2**64)) == "about -2^65"
    assert magnitude(10**5000) == f"about 2^{(10**5000).bit_length()}"


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


def read_decimal(text):
    """The int a decimal string names, read in pieces of 500 digits, which
    the int-string limit always allows."""
    sign, digits = (-1, text[1:]) if text.startswith("-") else (1, text)
    value = 0
    for k in range(0, len(digits), 500):
        piece = digits[k:k + 500]
        value = value * 10 ** len(piece) + int(piece)
    return sign * value


def assert_names(text, a):
    """text is the canonical string of the Fraction a: numerator, and
    denominator unless it is 1, without leading zeros."""
    num, slash, den = text.partition("/")
    assert read_decimal(num) == a.numerator and num.lstrip("-")[0] != "0"
    if a.denominator == 1:
        assert not slash
    else:
        assert read_decimal(den) == a.denominator and den[0] != "0"


def test_scalar_json_is_str_below_the_int_string_limit():
    rng = random.Random(5)
    for bits in (1, 64, 1999, 2000, 2001, 4000, 14000):  # 2^14000 has 4,215 digits
        for _ in range(3):
            a = Fraction(rng.getrandbits(bits) * rng.choice((1, -1)), rng.getrandbits(bits) + 1)
            assert Field.rationals().scalar_to_json(a) == str(a)
    for k in (602, 603, 604, 1205, 4299):
        for n in (10 ** k, 10 ** k - 1, -(10 ** k + 1)):
            assert Field.rationals().scalar_to_json(Fraction(n)) == str(n)


def test_scalar_json_past_the_int_string_limit():
    # a residual's numerator and denominator can outgrow any input scalar
    rng = random.Random(6)
    c = Fraction("7" * 3000 + "/3")
    for a in (c * c, -c * c / (c + 1), Fraction(10 ** 6000), Fraction(10 ** 6000 - 1),
              Fraction(-(7 * 10 ** 9000 + 3), 3 ** 9000), Fraction(rng.getrandbits(60000))):
        assert_names(Field.rationals().scalar_to_json(a), a)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the interpreter has no int-string limit")
def test_scalar_json_under_the_lowest_int_string_limit():
    a = Fraction(10 ** 700 + 1, 3 ** 1500)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        text = Field.rationals().scalar_to_json(a)
    finally:
        sys.set_int_max_str_digits(old)
    assert_names(text, a)


def test_bound_constant():
    assert MAX_PRIME == 1 << 20


TOO_MANY_DIGITS = "cannot parse scalar: a number has too many digits"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the interpreter has no int-string limit")
def test_scalar_string_past_the_lowest_int_string_limit_is_one_short_line():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for text in ("1" * 641 + "/3", "-1/" + "3" * 641, "0." + "1" * 641, "1e" + "1" * 641,
                     " " + "1" * 700 + " ", "1_" + "1" * 640, "x" + "1" * 641):
            for field in (Field.rationals(), Field.prime(3)):
                with pytest.raises(FieldError) as info:
                    field.of(text)
                assert str(info.value) == TOO_MANY_DIGITS
        assert Field.rationals().of("1" * 640 + "/3") == Fraction(int("1" * 640), 3)
        # every other parse failure quotes the text, cut as any outside value
        with pytest.raises(FieldError) as info:
            Field.rationals().of("1" * 640 + "/x")
        assert str(info.value) == f"cannot parse scalar '{'1' * 79}..."
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", int)() != 4300,
                    reason="the interpreter's int-string limit is not the default 4,300")
def test_scalar_string_past_the_default_int_string_limit():
    with pytest.raises(FieldError) as info:
        Field.rationals().of("1" * 5000 + "/3")
    assert str(info.value) == TOO_MANY_DIGITS
    assert Field.prime(5).of("1" * 4300 + "/3") == int("1" * 4300) * 2 % 5
