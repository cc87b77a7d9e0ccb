"""Exact rational arithmetic and digit-certified decimal rendering.

The universal scalar of this package is the arbitrary-precision rational
number.  :class:`fractions.Fraction` carries every value that is read or
printed: it keeps the canonical form (positive denominator, gcd-reduced)
after every operation, which is exactly the invariant the rest of the
package relies on when telescoping sums cancel massively.  A sum formed on
an unreduced integer state is carried instead as an integer numerator over
a positive denominator (:meth:`Enclosure.over`): a gcd of such a state
costs time quadratic in its size, so it is reduced only where it is
printed.

Decimal output never guesses digits.  A value is always rendered from an
:class:`Enclosure` (a pair of rational bounds), and a fraction digit is
reported as proven only when both bounds agree on it after rounding; each
bound is rounded by one floor division of integers.  No floating point is
used anywhere in this module.

Integers are converted to and from base 10 in pieces no longer than the
interpreter's int/str digit limit (4300 digits by default), so a value of
any size can be printed and read back without raising the limit.

Every value here is immutable and every operation pure, so concurrent use
needs no coordination; an enclosure forms its reduced bounds when first
read, and two threads reading at once at most form the same value twice.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, Optional, Union

RationalLike = Union[Fraction, int]

ROUND_TRUNCATE = "truncate"
ROUND_HALF_EVEN = "round-half-even"

_ROUNDINGS = (ROUND_TRUNCATE, ROUND_HALF_EVEN)

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def _max_str_digits() -> int:
    """Digits that str() and int() convert at once; 0 when there is no limit."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _int_to_str(n: int) -> str:
    """str(n), split into pieces within the interpreter's digit limit."""
    limit = _max_str_digits()
    # floor(bits * 0.302) + 1 bounds the number of decimal digits from above
    if not limit or n.bit_length() * 302 // 1000 < limit:
        return str(n)
    if n < 0:
        return "-" + _int_to_str(-n)
    half = n.bit_length() * 301 // 2000
    high, low = divmod(n, 10 ** half)
    return _int_to_str(high) + _int_to_str(low).rjust(half, "0")


def _str_to_int(text: str) -> int:
    """int(text) for an optionally signed digit string of any length."""
    limit = _max_str_digits()
    if not limit or len(text) <= limit:
        return int(text)
    if text[0] == "-":
        return -_str_to_int(text[1:])
    half = len(text) // 2
    return _str_to_int(text[:-half]) * 10 ** half + _str_to_int(text[-half:])


def parse_rational(text: str) -> Fraction:
    """Parse 'n/d' or a plain integer string (no decimals, no whitespace)."""
    m = _RATIONAL_RE.match(text)
    if not m:
        raise ValueError(f"not a rational literal: {text!r}")
    den = _str_to_int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(_str_to_int(m.group(1)), den)


def format_rational(x: RationalLike) -> str:
    """Serialize as 'n/d' in base 10 ('n' alone when the denominator is 1)."""
    x = Fraction(x)
    if x.denominator == 1:
        return _int_to_str(x.numerator)
    return f"{_int_to_str(x.numerator)}/{_int_to_str(x.denominator)}"


class Enclosure:
    """A pair of rational bounds lower <= true value <= upper.

    The bounds are held as two integer numerators over one positive
    denominator, ``low/den`` and ``high/den``, not necessarily in lowest
    terms, so an enclosure formed on an unreduced state (``over``) takes no
    gcd, and ``to_decimal`` renders it by floor division.  ``lower``,
    ``upper`` and ``width`` are reduced Fractions, formed when first read;
    ``over`` may be given a function that forms the width from integers far
    smaller than these.  The attributes are not to be changed.
    """

    __slots__ = ("low", "high", "den", "_width_of", "_lower", "_upper", "_width")

    def __init__(self, lower: RationalLike, upper: RationalLike):
        lower, upper = Fraction(lower), Fraction(upper)
        den = lcm(lower.denominator, upper.denominator)
        self._set(lower.numerator * (den // lower.denominator),
                  upper.numerator * (den // upper.denominator), den, None)
        self._lower, self._upper = lower, upper

    @classmethod
    def over(cls, low: int, high: int, den: int,
             width: Optional[Callable[[], Fraction]] = None) -> "Enclosure":
        """[low/den, high/den]; ``width()``, when given, must equal (high - low)/den."""
        enclosure = cls.__new__(cls)
        enclosure._set(low, high, den, width)
        return enclosure

    def _set(self, low: int, high: int, den: int, width):
        if den <= 0:
            raise ValueError("enclosure denominator must be positive")
        if low > high:
            raise ValueError("enclosure requires lower <= upper")
        self.low, self.high, self.den, self._width_of = low, high, den, width
        self._lower = self._upper = self._width = None

    @property
    def lower(self) -> Fraction:
        if self._lower is None:
            self._lower = Fraction(self.low, self.den)
        return self._lower

    @property
    def upper(self) -> Fraction:
        if self._upper is None:
            self._upper = Fraction(self.high, self.den)
        return self._upper

    @property
    def width(self) -> Fraction:
        if self._width is None:
            self._width = self._width_of() if self._width_of is not None \
                else Fraction(self.high - self.low, self.den)
        return self._width

    def __eq__(self, other):
        if not isinstance(other, Enclosure):
            return NotImplemented
        return self.low * other.den == other.low * self.den \
            and self.high * other.den == other.high * self.den

    def __hash__(self):
        return hash((self.lower, self.upper))

    def __repr__(self):
        return f"Enclosure(lower={self.lower!r}, upper={self.upper!r})"

    @staticmethod
    def point(x: RationalLike) -> "Enclosure":
        x = Fraction(x)
        return Enclosure(x, x)


@dataclass(frozen=True)
class DecimalRendering:
    """Decimal digits proven correct by an enclosure.

    ``fraction_digits`` holds only the digits on which both enclosure
    bounds agree after rounding, so ``digits_proven == len(fraction_digits)``
    and the rendered value differs from any point of the enclosure by less
    than 10^(-digits_proven).  When even the sign or the integer part is
    ambiguous, ``digits_proven`` is 0 and ``width`` tells the caller how
    wide the enclosure was.
    """

    sign: str
    integer_part: str
    fraction_digits: str
    digits_proven: int
    rounding: str
    enclosure: Enclosure = field(repr=False)

    @property
    def width(self) -> Fraction:
        return self.enclosure.width

    def __str__(self) -> str:
        if not self.integer_part:
            return f"(no digits proven; width {format_rational(self.width)})"
        s = "-" if self.sign == "-" else ""
        if self.fraction_digits:
            return f"{s}{self.integer_part}.{self.fraction_digits}"
        return f"{s}{self.integer_part}"

    def value(self) -> Fraction:
        """The rendered digits as an exact rational."""
        if not self.integer_part:
            raise ValueError("rendering proves no digits")
        v = Fraction(_str_to_int(self.integer_part))
        if self.fraction_digits:
            v += Fraction(_str_to_int(self.fraction_digits), 10 ** len(self.fraction_digits))
        return -v if self.sign == "-" else v


def _round(n: int, d: int, rounding: str) -> int:
    """Round n/d, d > 0, to an integer under the given mode."""
    q, r = divmod(n, d)  # floor semantics
    if rounding == ROUND_TRUNCATE:
        # toward zero
        return q + 1 if q < 0 and r else q
    # half-even on the remainder
    if 2 * r > d or (2 * r == d and q % 2):
        q += 1
    return q


def _split_scaled(m: int, k: int) -> tuple[str, str, str]:
    sign = "-" if m < 0 else "+"
    digits = _int_to_str(abs(m)).rjust(k + 1, "0")
    return sign, digits[: len(digits) - k], digits[len(digits) - k:]


def to_decimal(enclosure: Enclosure, requested_digits: int,
               rounding: str = ROUND_TRUNCATE) -> DecimalRendering:
    """Render the decimal digits certified by an enclosure.

    Both bounds are rounded to ``requested_digits`` fraction digits, each by
    one floor division of its numerator times 10^digits by the enclosure's
    denominator; the reported digits are the common prefix.  Truncation is
    toward zero, so for a nonnegative enclosure agreement on p digits means
    both bounds lie in the same half-open cell of width 10^(-p).  An
    enclosure too wide to prove even the integer part yields
    ``digits_proven == 0`` together with the width, never an error.
    """
    if requested_digits < 1:
        raise ValueError("requested_digits must be >= 1")
    if rounding not in _ROUNDINGS:
        raise ValueError(f"unknown rounding {rounding!r}")
    k = requested_digits
    scale = 10 ** k
    ml = _round(enclosure.low * scale, enclosure.den, rounding)
    mh = _round(enclosure.high * scale, enclosure.den, rounding)
    sl, il, fl = _split_scaled(ml, k)
    sh, ih, fh = _split_scaled(mh, k)
    if ml == 0 and mh == 0:
        sl = sh = "+"
    if sl != sh or il != ih:
        return DecimalRendering("+", "", "", 0, rounding, enclosure)
    p = 0
    while p < k and fl[p] == fh[p]:
        p += 1
    return DecimalRendering(sl, il, fl[:p], p, rounding, enclosure)


def digits_capacity(width: Fraction, cap: int = 4096) -> int:
    """Largest p <= cap with width <= 10^(-p); 0 when width > 1/10."""
    if width < 0:
        raise ValueError("width must be nonnegative")
    if width == 0:
        return cap
    # n 10^p <= d: estimate p from the bit lengths (1233/4096 ~ log10 2), then
    # correct it by exact integer comparisons
    n, d = width.numerator, width.denominator
    p = min(cap, max(0, (d.bit_length() - n.bit_length()) * 1233 >> 12))
    while p > 0 and n * 10 ** p > d:
        p -= 1
    while p < cap and n * 10 ** (p + 1) <= d:
        p += 1
    return p
