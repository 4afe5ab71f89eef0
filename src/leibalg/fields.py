"""Exact scalar arithmetic over the rationals and over odd prime fields.

Scalars are kept as plain Python values: `int` residues in [0, p) for a
prime field, `fractions.Fraction` (lowest terms, positive denominator,
which Fraction guarantees) for the rationals.  A Field instance supplies
canonical values, inverses and per-scalar arithmetic.  The library's vector
code adds and multiplies the plain values and canonicalises each computed
vector once through linalg.canonical.

`fractions` (and the `decimal` module it loads) is imported on first
rational use: work over F_p with integer scalars never needs it.
"""

from __future__ import annotations

import re
import sys

from ._value import value_class
from .errors import FieldError

# Largest prime modulus accepted.  Moduli come from outside input, and the
# bound keeps _is_prime's trial division (at most 2**10 steps) and the
# pow(a, p - 2, p) inverses cheap.
MAX_PRIME = 1 << 20

# fractions.Fraction once _fraction_type has imported it.  Every Field(None)
# imports it, so the methods of a rational field read this global directly.
Fraction = None


def _fraction_type():
    global Fraction
    if Fraction is None:
        from fractions import Fraction
    return Fraction


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@value_class
class Field:
    """The rationals (p is None) or the prime field F_p for an odd prime p.

    Characteristic 2 is rejected: the constructions downstream divide by 2
    (polarization of symmetric brackets).
    """

    p: int | None = None

    def __post_init__(self):
        p = self.p
        if p is None:
            _fraction_type()
        elif p == 2:
            raise FieldError("characteristic 2 is not supported (2 must be invertible)")
        elif p > MAX_PRIME:
            raise FieldError(f"modulus {magnitude(p)} exceeds the supported bound {MAX_PRIME}")
        elif not _is_prime(p):
            raise FieldError(f"modulus {magnitude(p)} is not prime")

    @classmethod
    def rationals(cls) -> "Field":
        return cls(None)

    @classmethod
    def prime(cls, p: int) -> "Field":
        return cls(int(p))

    @property
    def is_finite(self) -> bool:
        return self.p is not None

    def __str__(self):
        return "Q" if self.p is None else f"F_{self.p}"

    # -- canonical values ---------------------------------------------------

    def of(self, value):
        """Canonicalize an int, Fraction or "a/b" string into this field."""
        # int first: it is the common case, and the Fraction test is an ABC check
        if isinstance(value, int):
            return value % self.p if self.p is not None else Fraction(value)
        fraction = _fraction_type()
        if isinstance(value, str):
            try:
                value = fraction(value)
            except (ValueError, ZeroDivisionError):
                # the interpreter's words only repeat the value, and past the
                # int-string limit they differ between versions
                if past_int_limit(value):
                    raise FieldError("cannot parse scalar: a number has too many digits") from None
                raise FieldError(f"cannot parse scalar {quoted(value)}") from None
        if isinstance(value, fraction):
            if self.p is None:
                return value
            den = value.denominator % self.p
            if den == 0:
                # str(value), which refuses a part past the int-string limit
                text = f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"
                raise FieldError(f"denominator of {cut(text)} vanishes mod {self.p}")
            return value.numerator * pow(den, self.p - 2, self.p) % self.p
        raise FieldError(f"cannot coerce {quoted(value)} into {self}")

    @property
    def zero(self):
        return 0 if self.p is not None else Fraction(0)

    @property
    def one(self):
        return 1 if self.p is not None else Fraction(1)

    # -- arithmetic ---------------------------------------------------------

    def add(self, a, b):
        return (a + b) % self.p if self.p is not None else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p is not None else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.p is not None else a * b

    def neg(self, a):
        return (-a) % self.p if self.p is not None else -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p) if self.p is not None else 1 / a

    # -- serialization ------------------------------------------------------

    def scalar_to_json(self, a):
        """JSON value for a scalar: int for F_p, canonical string for Q.

        The string is str(a) written without the interpreter's int-string
        limit: a residual's numerator and denominator can be far longer than
        any input scalar."""
        if self.p is not None:
            return a
        if a.denominator == 1:
            return _decimal(a.numerator)
        return f"{_decimal(a.numerator)}/{_decimal(a.denominator)}"


def past_int_limit(text: str) -> bool:
    """True when text holds a run of digits, underscores aside, longer than
    the interpreter's int-string limit (none when 0 or absent)."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    return bool(limit) and re.search(rf"\d{{{limit + 1}}}", text.replace("_", "")) is not None


def magnitude(n: int) -> str:
    """n in decimal up to 64 bits, else roughly: a message stays one short
    line, and str() refuses an int of more than 4,300 digits."""
    if n.bit_length() <= 64:
        return str(n)
    return f"about {'-' if n < 0 else ''}2^{n.bit_length()}"


# Longest repr of an outside value that a message quotes whole.
QUOTE_LIMIT = 80


def cut(text: str) -> str:
    """Outside text for a one-line message: whole up to QUOTE_LIMIT
    characters, else cut there and marked with "..."."""
    return text if len(text) <= QUOTE_LIMIT else text[:QUOTE_LIMIT] + "..."


def quoted(value) -> str:
    """repr(value) for a one-line message about an outside value: an int as
    magnitude writes it, any other repr as cut cuts it."""
    if isinstance(value, int):
        return magnitude(value)
    return cut(repr(value))


# str() refuses an int of more digits than the interpreter's int-string limit
# (4,300 by default; a limit set lower is still at least 640).  An int of at
# most this many bits has at most 603 digits.
_STR_BITS = 2000


def _decimal(n: int) -> str:
    """str(n) for an int of any size: an int past _STR_BITS is split at a
    power of ten near half its digits and each half written the same way,
    the low half padded with zeros to the split's width."""
    if n.bit_length() <= _STR_BITS:
        return str(n)
    if n < 0:
        return "-" + _decimal(-n)
    k = n.bit_length() * 3 // 20  # about half of its bit_length * log10(2) digits
    high, low = divmod(n, 10 ** k)
    return _decimal(high) + _decimal(low).rjust(k, "0")
