"""Catalog of series with exact terms and certified decimal output.

Every entry couples an exact term generator with a *certified* tail bound,
so a partial sum always comes back as an enclosure [lower, upper] known to
contain the limit, and decimal digits are only ever reported when proven
by that enclosure.

Each entry is described once, by its first index n0, its first term and
its signed term ratio p/q, integer polynomials in n or, for the two
q-series sides, in y = q^n, kept as factors in the canonical form of
``polys.RationalFunction`` (the builders in n pass theirs to
``polys.integer_ratio``; the q-series sides and Schellbach's series read
theirs off the engines' evaluators); the terms and prefix sums follow on
one unreduced integer state (``hgterm.TermSequence``), stepped on the
ratio in lowest terms.  Everything else is derived for every index, never
by a scan: in n the signs and zeros off the factors (``polys.factor_sign``)
and the rest by ``polys.nonneg_walk``, in y all by
``polys.unit_interval_nonneg``:

* the sign pattern: terms keep their sign (p, q >= 0) or alternate (p <= 0);
* the zero steps: q(n) = 0, or p(n) = 0 on alternating terms, refuses the
  entry at the first one; in n they are the integer roots of the linear
  factors from n0 on, in y only y = 1 can be one;
* the rate: rho is the ratio's limit L when |term(n+1)| <= L |term(n)| is
  certified, else the first certified rung of L + (1-L)/8, L + (1-L)/4,
  L + (1-L)/2, from ``valid_from`` on; L > 1 or no rung refuses the entry;
* alternating terms with rho <= 1 that tend to 0 (at rho = 1 by Raabe's
  test, in n) are bracketed by the next two partial sums;
* every other remainder after N is at most r(N+1) |term(N+1)|, r a
  majorant with r >= 0 and r(n) - r(n+1) |ratio(n)| - 1 >= 0 certified
  from an index m <= N + 1 on (Gosper's certificate as an inequality):
  the constant 1/(1 - rho) for rho < 1, or the entry's own for the direct
  series, the slow n^(-3/2) entry and the transformed q-series.

The closed-form terms are independent checks only (``CLOSED_FORMS``).
``terms_needed`` finds the first index whose term two indices on is at most
10^-digits by galloping and bisecting on binary-splitting spans of the
integer state (past ``valid_from`` that test is monotone), then tests one
enclosure per index from there.  An enclosure is two integer numerators
over one denominator, rendered by floor division, so the search reduces no
``Fraction``; ``evaluate`` reduces only what its report prints.  The
sequence keeps the states of its last three indices, so ``evaluate`` after
``terms_needed`` steps no further.

All arithmetic is exact; nothing rounds until rendering.  Entries are
immutable after registration and evaluation is pure; the kept states
change only under the sequence's lock.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, count
from math import comb, factorial, prod
from typing import Callable, Optional, Sequence

from .exact import (
    ROUND_TRUNCATE,
    DecimalRendering,
    Enclosure,
    digits_capacity,
    format_rational,
    to_decimal,
)
from .hgterm import TermSequence, rising_factorial
from .markov.phi32 import ThreePhiTwo
from .markov.schellbach import SchellbachParams, schellbach_term
from .polys import (
    RationalFunction,
    factor_sign,
    integer_ratio,
    nonneg_walk,
    poly,
    poly_add,
    poly_eval,
    poly_mul,
    poly_scale,
    poly_shift,
    unit_interval_nonneg,
)


class CatalogError(ValueError):
    """Bad entry parameters or an unsatisfiable bound request."""


@dataclass(frozen=True)
class RatioBound:
    """Geometric decay certificate: |term(n+1)| <= rho |term(n)| for n >= valid_from."""

    rho: Fraction
    valid_from: int

    def to_json(self) -> dict:
        return {"rho": format_rational(self.rho), "valid_from": self.valid_from}


#: rungs above a ratio limit L < 1 that has no certificate: rho = L + (1 - L) w
RATE_LADDER = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2))


@dataclass
class FormulaEntry:
    """A catalog series, described by its term sequence, and the bounds derived
    from that description at registration: ``alternating`` and
    ``remainder_nonneg`` from the sign of the ratio and, unless the entry
    brings its own ``majorant`` (r in n, or in y), a certified rate rho <= 1.
    ``ratio_bound`` (rho < 1) and ``leibniz_from`` (alternating, terms -> 0)
    hold from where rho is certified.  ``tail`` = (r, m): the remainder after
    N >= m - 1 is at most r(N+1) |term(N+1)|, r the majorant certified from
    m on or 1/(1 - rho).  ``offset`` is added to every partial sum.
    """

    entry_id: str
    constant: str
    description: str
    terms: TermSequence
    offset: Fraction = Fraction(0)
    majorant: Optional[RationalFunction] = None
    slow: bool = False
    alternating: bool = field(init=False)
    remainder_nonneg: bool = field(init=False)
    leibniz_from: Optional[int] = field(init=False)
    ratio_bound: Optional[RatioBound] = field(init=False)
    tail: Optional[tuple[RationalFunction, int]] = field(init=False)

    def __post_init__(self):
        self.alternating, self.remainder_nonneg, zero_step = self._signs()
        self.leibniz_from = self.ratio_bound = self.tail = None
        if self.majorant is None:
            rate, valid_from = self._rate()
            if self.alternating and (rate < 1 or self._raabe()):
                self.leibniz_from = valid_from
            if rate < 1:  # r = 1/(1 - rho): r - r |ratio| - 1 >= 0 is |ratio| <= rho
                self.ratio_bound = RatioBound(rate, valid_from)
                gap = (rate.denominator - rate.numerator, ())
                self.tail = RationalFunction.of_factors((rate.denominator, ()), gap), valid_from
        else:
            self.tail = self.majorant, self._majorant_from(self.majorant)
        if zero_step is not None:
            raise CatalogError(f"{self.entry_id}: {zero_step}")

    @property
    def n0(self) -> int:
        return self.terms.n0

    @property
    def asymptotic_ratio(self) -> Optional[Fraction]:
        """L = lim |term(n+1)/term(n)|, or None when it is not finite: in n
        lead(num)/lead(den), 0 when deg num < deg den; in y = q^n -> 0,
        num(0)/den(0)."""
        num, den = self.terms.stepped.num, self.terms.stepped.den
        if self.terms.base is None:
            degree = max((i for p in (num, den) for i, c in enumerate(p) if c), default=0)
            top, bottom = (p[degree] if degree < len(p) else 0 for p in (num, den))
        else:
            top, bottom = num[0], den[0]
        return Fraction(abs(top), abs(bottom)) if bottom else None

    def term(self, n: int) -> Fraction:
        return self.terms.term(n)

    def _valid_from(self, p) -> Optional[int]:
        """The first index from which p >= 0 is certified at every later
        index: by ``nonneg_walk`` in n, and in y = q^n at n0 or never."""
        if self.terms.base is None:
            return (nonneg_walk(p, self.n0) or (None,))[0]
        return self.n0 if 0 < self.terms.base < 1 and unit_interval_nonneg(p) else None

    def _sign(self, side: int) -> tuple[Optional[int], Optional[int]]:
        """(s, z) as ``polys.factor_sign`` gives them for the stepped ratio's
        numerator (side 0) or denominator (side 1); a cancelled factor is
        positive from n0 on, so they are the described ratio's.  In y = q^n
        a nonzero p certified on (0, 1] can vanish only at y = 1, n = n0."""
        ratio, base, n0 = self.terms.stepped, self.terms.base, self.n0
        if base is None:
            return factor_sign(ratio.factors[side], n0)
        p = (ratio.num, ratio.den)[side]
        sign = next((s for s in (1, -1) if self._valid_from(poly_scale(p, s)) == n0), None)
        return sign, n0 if poly_eval(p, base ** n0) == 0 else None

    def _signs(self) -> tuple[bool, bool, Optional[str]]:
        """(alternating, remainder_nonneg, the first zero step), from the sign
        of the ratio from n0 on; a vanishing denominator is named first."""
        den_sign, den_zero = self._sign(1)
        if den_sign == 1:
            num_sign, num_zero = self._sign(0)
            if num_sign == 1:
                return False, self.term(self.n0) >= 0, _zero_step(den_zero, None)
            if num_sign == -1:
                return True, False, _zero_step(den_zero, num_zero)
        raise CatalogError(f"{self.entry_id}: terms not certified to keep a sign or alternate")

    def _rate(self) -> tuple[Fraction, int]:
        """(rho, valid_from): L if it is certified, else the first certified rung."""
        limit = self.asymptotic_ratio
        if limit is None or limit > 1:
            raise CatalogError(f"{self.entry_id}: |term(n+1)/term(n)| does not tend "
                               f"to a limit <= 1")
        # |ratio| = sign ratio from n0 on, whose margin at rho is sign margin(sign rho)
        ratio, sign = self.terms.stepped, -1 if self.alternating else 1
        for rho in chain((limit,), (limit + (1 - limit) * w for w in RATE_LADDER)):
            valid_from = self._valid_from(poly_scale(ratio.margin(sign * rho), sign))
            if valid_from is not None:
                return rho, valid_from
        raise CatalogError(f"{self.entry_id}: no rate certificate at the ratio's limit "
                           f"{format_rational(limit)} or at a rung above it")

    def _raabe(self) -> bool:
        """Whether alternating terms at rate 1 tend to 0: in n, when den + num
        (certified >= 0, num <= 0) has degree deg den - 1, |ratio| is
        1 - c/n + O(n^-2) with c > 0 (Raabe); a lower degree leaves |term|
        a nonzero limit.  In y = q^n nothing is decided."""
        num, den = self.terms.stepped.num, self.terms.stepped.den
        return self.terms.base is None and _degree(poly_add(den, num)) == _degree(den) - 1

    def _majorant_from(self, r: RationalFunction) -> int:
        """The first index m >= n0 from which r = u/v >= 0 and
        r(n) - r(n+1) |ratio(n)| - 1 >= 0 are certified; refused without one.

        Over v(n) v(n+1) q > 0, the stepped ratio p/q being sign |p/q|, the
        second is v(n+1) (u(n) - v(n)) q - sign u(n+1) v(n) p >= 0.  In n it,
        u and v - 1 (v > 0 on the integers) are walked.  In y, where r(n+1)
        is r(q y), they and v are certified on (0, q^m] at y = q^m u, with
        v(q^m) > 0; such an m exists iff each has a positive lowest coefficient.
        """
        ratio, base = self.terms.stepped, self.terms.base
        p, q, u, v = ratio.num, ratio.den, r.num, r.den
        if base is None:
            u1, v1, positive = poly_shift(u, 1), poly_shift(v, 1), poly_add(v, [-1])
        else:
            u1, v1 = (_homogeneous(c, *base.as_integer_ratio(), len(u) + len(v)) for c in (u, v))
            positive = v
        excess = poly_mul(poly_mul(v1, poly_add(u, poly_scale(v, -1))), q)
        step = poly_scale(poly_mul(poly_mul(u1, v), p), 1 if self.alternating else -1)
        checks = (u, positive, poly_add(excess, step))
        lowest = (next((c for c in check if c), 0) for check in checks)
        if base is None:
            starts = [self._valid_from(c) for c in checks]
            if None not in starts:
                return max(starts)
        elif 0 < base < 1 and any(v) and min(lowest) >= 0:
            for m in count(self.n0):
                at = [_homogeneous(c, *(base ** m).as_integer_ratio(), len(c) - 1) for c in checks]
                if sum(at[1]) > 0 and all(map(unit_interval_nonneg, at)):
                    return m
        raise CatalogError(f"{self.entry_id}: the tail majorant is not certified")

    # -- tail bounds --------------------------------------------------------

    def enclosure_after(self, last: int) -> Optional[Enclosure]:
        """An enclosure of the limit from the sum through index ``last``.

        Alternating terms past ``leibniz_from`` are bracketed by the next two
        partial sums, which lie inside the first omitted term's bracket and
        so inside the geometric bound; otherwise the tail's majorant bounds
        the remainder by r(last+1) |term(last+1)|.  The width depends only on
        the terms.  The sum, offset + T/B, is read off the sequence's
        unreduced state, and the bounds are formed as integers over one
        denominator, with no gcd; the width is reduced when it is read.
        """
        terms, on, od = self.terms, self.offset.numerator, self.offset.denominator
        _, b, t = terms.state(last)
        s = on * b + t * od
        if self.leibniz_from is not None and last + 1 >= self.leibniz_from:
            a1, b1, _ = terms.state(last + 1)
            a2, b2, _ = terms.state(last + 2)
            # the sum plus term(last+1), and the next partial sum, over od b2;
            # b2 = b1 q(last+1) = b q(last) q(last+1)
            nearer = s * (b2 // b) + od * a1 * (b2 // b1)
            low, high = sorted((nearer, nearer + od * a2))
            return Enclosure.over(low, high, od * b2, lambda: abs(self.term(last + 2)))
        if self.tail is None or last + 1 < self.tail[1]:
            return None
        a1, b1, _ = terms.state(last + 1)
        r, base = self.tail[0], terms.base
        y, w = (last + 1, 1) if base is None else (base ** (last + 1)).as_integer_ratio()
        top, bottom = (sum(_homogeneous(c, y, w, len(r.num) + len(r.den))) for c in (r.num, r.den))
        # r(last+1) |term(last+1)| = |a1| top / (b1 bottom), over od b1 bottom
        radius = od * abs(a1) * top
        high = s * (b1 // b) * bottom + radius
        sides = 1 if self.remainder_nonneg else 2
        return Enclosure.over(high - sides * radius, high, od * b1 * bottom,
                              lambda: sides * abs(self.term(last + 1)) * Fraction(top, bottom))


def _homogeneous(p, y: int, w: int, degree: int) -> list:
    """w^degree p(y u / w) in u, degree >= deg p: integers for w > 0."""
    return [c * y ** i * w ** (degree - i) for i, c in enumerate(p)]


def _degree(p) -> Optional[int]:
    """The degree of a polynomial; None for the zero polynomial."""
    return max((i for i, c in enumerate(p) if c), default=None)


def _zero_step(den_zero: Optional[int], num_zero: Optional[int]) -> Optional[str]:
    """Why the first zero step refuses an entry, the denominator's first at a tie."""
    if den_zero is not None and (num_zero is None or den_zero <= num_zero):
        return f"ratio undefined at n={den_zero}: its denominator vanishes"
    if num_zero is not None:
        return f"terms do not alternate at n={num_zero}"
    return None


@dataclass(frozen=True)
class EvaluationReport:
    entry_id: str
    constant: str
    terms_used: int
    enclosure: Optional[Enclosure]
    rendering: Optional[DecimalRendering]
    digits_proven: int
    ratio_bound: Optional[RatioBound] = None

    def to_json(self) -> dict:
        out = {
            "schema": "1",
            "entry": self.entry_id,
            "constant": self.constant,
            "terms_used": self.terms_used,
            "digits_proven": self.digits_proven,
            "rendering": str(self.rendering) if self.rendering else "",
        }
        if self.enclosure is not None:
            out["enclosure"] = {"lower": format_rational(self.enclosure.lower),
                                "upper": format_rational(self.enclosure.upper)}
        if self.ratio_bound is not None:
            out["ratio_bound"] = self.ratio_bound.to_json()
        return out


def evaluate(entry: FormulaEntry, n_terms: int, digits: Optional[int] = None,
             rounding: str = ROUND_TRUNCATE) -> EvaluationReport:
    """Sum ``n_terms`` exact terms and certify digits from the tail bound."""
    if n_terms < 1:
        raise CatalogError("n_terms must be >= 1")
    last = entry.n0 + n_terms - 1
    enclosure = entry.enclosure_after(last)
    if enclosure is None:
        return EvaluationReport(entry.entry_id, entry.constant, n_terms, None, None, 0,
                                entry.ratio_bound)
    requested = digits if digits is not None else digits_capacity(enclosure.width) + 2
    rendering = to_decimal(enclosure, max(1, requested), rounding)
    return EvaluationReport(entry.entry_id, entry.constant, n_terms, enclosure,
                            rendering, rendering.digits_proven, entry.ratio_bound)


def terms_needed(entry: FormulaEntry, digits: int, rounding: str = ROUND_TRUNCATE,
                 n_cap: int = 100000) -> int:
    """Smallest N with evaluate(entry, N, digits, rounding).digits_proven >= digits.

    Only allowed for entries with a geometric ratio bound.  Every enclosure
    of such an entry holds the next two partial sums, so it is at least
    |term(last+2)| = |A|/|B| wide; past ``valid_from`` the terms shrink, and
    the sequence finds the first index where that is <= 10^-digits by
    galloping and bisecting on spans (bit lengths decide the test unless
    they fall within two bits of the boundary, where one exact product
    does).  From there each index gets one enclosure, on integers, and a
    rendering where it is <= 10^-digits.
    """
    if entry.ratio_bound is None:
        raise CatalogError(f"{entry.entry_id}: no geometric bound")
    if digits <= 0:
        return 1
    scale = 10 ** digits
    scale_bits = scale.bit_length()

    def excess(a: int, b: int) -> int:
        """About log2(|a/b| 10^digits), and positive exactly when |a/b| > 10^-digits."""
        # |a| scale is in [2^(gap+bits(b)-2), 2^(gap+bits(b))), |b| in
        # [2^(bits(b)-1), 2^bits(b)): the bit lengths decide unless gap is 0 or 1
        gap = a.bit_length() + scale_bits - b.bit_length()
        if not a or gap < 0 or gap < 2 and abs(a) * scale <= abs(b):
            return min(gap, 0)
        return max(gap, 1)

    n0 = entry.n0
    start, stop = max(n0, entry.ratio_bound.valid_from), n0 + n_cap - 1
    first = entry.terms.first_index(start, stop, excess)
    for last in range(stop + 1 if first is None else first, stop + 1):
        enclosure = entry.enclosure_after(last)
        if (enclosure.high - enclosure.low) * scale <= enclosure.den and \
                to_decimal(enclosure, digits, rounding).digits_proven >= digits:
            return last - n0 + 1
    raise CatalogError(f"{entry.entry_id}: {digits} digits not reached within {n_cap} terms")


# ---------------------------------------------------------------------------
# Entry builders
# ---------------------------------------------------------------------------

def _entry(entry_id: str, constant: str, description: str, first, ratio: RationalFunction,
           n0: int = 0, base=None, **kwargs) -> FormulaEntry:
    """The entry described by n0, its first term and its signed term ratio."""
    return FormulaEntry(entry_id, constant, description,
                        TermSequence(first, ratio, n0, base=base), **kwargs)


def entry_apery() -> FormulaEntry:
    """zeta(3) = (5/2) sum_{n>=1} (-1)^(n-1) / (binom(2n,n) n^3); rate 1/4.
    Markov (1890); popularized by Apery (1978).

    term(1) = 5/4, term(n+1)/term(n) = -n^3 / (2 (n+1)^2 (2n+1)).
    """
    return _entry(
        "apery", "zeta3",
        "alternating central-binomial series for zeta(3), geometric rate 1/4",
        Fraction(5, 4), integer_ratio(-1, [poly(0, 1)] * 3, [poly(1, 1)] * 2 + [poly(2, 4)]), 1)


def entry_markov_hurwitz(a=Fraction(1)) -> FormulaEntry:
    """sum_{n>=0} (a+n)^(-3) as an alternating series whose ratio tends to -1/4
    (Markov, 1890).

    term(0) = p_a(0) / (4 a^4) and
    term(n+1)/term(n) = -(n+1)^6 p_a(n+1) / ((2n+2)(2n+3)(n+1+a)^4 p_a(n)),
    with p_a(n) = 5(n+1)^2 + 6(a-1)(n+1) + 2(a-1)^2.  Where the ratio tends
    to 1/4 in magnitude from above, as for a = 1/3, the rate is a rung above.
    """
    a = Fraction(a)
    if a.denominator == 1 and a.numerator <= 0:
        raise CatalogError("pole in a: must not be a nonpositive integer")
    # over the integers, with a = u/v and w = v (a-1): p_a(s) holds
    # v^2 p_a(n+s), v (n+1+a) = vn + v + u, and num takes the remaining v^4
    u, v = a.numerator, a.denominator
    w = u - v

    def p_a(s: int) -> list:
        m = s + 1  # v^2 p_a(n+s) = 5 v^2 (n+m)^2 + 6 v w (n+m) + 2 w^2
        return poly(5 * v * v * m * m + 6 * v * w * m + 2 * w * w, 10 * v * v * m + 6 * v * w,
                    5 * v * v)

    ratio = integer_ratio(-v ** 4, [poly(1, 1)] * 6 + [p_a(1)],
                          [poly(2, 2), poly(3, 2)] + [poly(v + u, v)] * 4 + [p_a(0)])
    return _entry(
        "markov-hurwitz", "zeta3" if a == 1 else f"hurwitz3({format_rational(a)})",
        f"rate-1/4 alternating series for sum 1/({format_rational(a)}+n)^3",
        Fraction(p_a(0)[0] * v * v, 4 * u ** 4), ratio, 0)


def entry_ratio27_zeta3() -> FormulaEntry:
    """zeta(3) = (1/4) sum_{n>=1} (-1)^(n-1) (56n^2-32n+5)/((2n-1)^2 n^3) n!^3/(3n)!.
    Markov (1889/1890); rederived via telescoping certificates by Amdeberhan (1996).

    term(1) = 29/24, term(n+1)/term(n)
    = -p(n+1) (2n-1)^2 n^3 / (p(n) (2n+1)^2 (3n+1)(3n+2)(3n+3)), p = 56n^2-32n+5,
    p(n+1) = 56n^2+80n+29.
    """
    ratio = integer_ratio(-1, [poly(29, 80, 56)] + [poly(-1, 2)] * 2 + [poly(0, 1)] * 3,
                          [poly(5, -32, 56)] + [poly(1, 2)] * 2
                          + [poly(1, 3), poly(2, 3), poly(3, 3)])
    return _entry(
        "ratio27-zeta3", "zeta3",
        "rate-1/27 alternating series for zeta(3)",
        Fraction(29, 24), ratio, 1)


def entry_az_zeta3() -> FormulaEntry:
    """zeta(3) = sum_{n>=0} (-1)^n n!^10 (205n^2+250n+77) / (64 (2n+1)!^5)
    (Amdeberhan and Zeilberger, 1997).

    term(0) = 77/64, term(n+1)/term(n)
    = -(n+1)^10 p(n+1) / (p(n) (2n+2)^5 (2n+3)^5), p = 205n^2+250n+77,
    p(n+1) = 205n^2+660n+532.
    """
    ratio = integer_ratio(-1, [poly(1, 1)] * 10 + [poly(532, 660, 205)],
                          [poly(77, 250, 205)] + [poly(2, 2)] * 5 + [poly(3, 2)] * 5)
    return _entry(
        "az-zeta3", "zeta3",
        "rate-2^-10 alternating series for zeta(3)",
        Fraction(77, 64), ratio, 0)


def entry_zeta2_27() -> FormulaEntry:
    """zeta(2) = 5/3 + sum_{k>=1} (-1)^k (2k-1)!!^3/(6k-1)!! (1/(4k^2) + 5/((6k+1)(6k+3)))
    (Markov, 1889).

    term(1) = -83/3780, term(k+1)/term(k)
    = -(2k+1)^3 k^2 (56k^2+136k+83) / ((6k+5)(56k^2+24k+3)(k+1)^2 (6k+7)(6k+9)).
    """
    ratio = integer_ratio(-1, [poly(1, 2)] * 3 + [poly(0, 1)] * 2 + [poly(83, 136, 56)],
                          [poly(5, 6), poly(3, 24, 56)] + [poly(1, 1)] * 2
                          + [poly(7, 6), poly(9, 6)])
    return _entry(
        "zeta2-27", "zeta2",
        "rate-1/27 alternating series for zeta(2), constant offset 5/3",
        Fraction(-83, 3780), ratio, 1, offset=Fraction(5, 3))


#: 3F2(1,1,1; 2,2) = zeta(2), the Schellbach parameters of ``schellbach-zeta2``
ZETA2_SCHELLBACH = SchellbachParams(Fraction(1), Fraction(1), Fraction(2), Fraction(2))


def entry_schellbach_zeta2() -> FormulaEntry:
    """zeta(2) via the transformed 3F2(1,1,1;2,2): terms 3 x!^2/(2x+2)!, rate 1/4
    (Schellbach, 1864; the limit case of the q-series transformation).

    term(0) = V_{0,0} = M_{0,0}, and the ratio is the classical engine's
    V_{x+1,0}/V_{x,0}, both read off its evaluators at (1, 1, 2, 2).
    """
    return _entry(
        "schellbach-zeta2", "zeta2",
        "transformed 3F2(1,1,1;2,2) series for zeta(2), geometric rate 1/4",
        ZETA2_SCHELLBACH.m(0, 0), ZETA2_SCHELLBACH.transformed_ratio(), 0)


# -- closed forms: independent checks of the recurrences ----------------------

def apery_term(n: int) -> Fraction:
    return Fraction(5 * (-1) ** (n - 1), 2 * comb(2 * n, n) * n ** 3)


def markov_hurwitz_term(n: int, a=Fraction(1)) -> Fraction:
    """(1/4) (-1)^n n!^6 / (2n+1)! * p_a(n) / (a(a+1)...(a+n))^4."""
    a = Fraction(a)
    quadratic = 5 * (n + 1) ** 2 + 6 * (a - 1) * (n + 1) + 2 * (a - 1) ** 2
    num = Fraction(factorial(n)) ** 6 * quadratic
    return Fraction((-1) ** n, 4) * num / factorial(2 * n + 1) \
        / rising_factorial(a, n + 1) ** 4


def ratio27_term(n: int) -> Fraction:
    num = (56 * n * n - 32 * n + 5) * Fraction(factorial(n)) ** 3
    return Fraction((-1) ** (n - 1), 4) * num / ((2 * n - 1) ** 2 * n ** 3) / factorial(3 * n)


def az_term(n: int) -> Fraction:
    num = Fraction(factorial(n)) ** 10 * (205 * n * n + 250 * n + 77)
    return (-1) ** n * num / (64 * Fraction(factorial(2 * n + 1)) ** 5)


def zeta2_27_term(k: int) -> Fraction:
    weight = Fraction(1, 4 * k * k) + Fraction(5, (6 * k + 1) * (6 * k + 3))
    return (-1) ** k * Fraction(prod(range(1, 2 * k, 2)) ** 3, prod(range(1, 6 * k, 2))) * weight


def schellbach_zeta2_term(x: int) -> Fraction:
    return schellbach_term(ZETA2_SCHELLBACH, x)


#: entry id -> closed-form term, for the geometric entries
CLOSED_FORMS: dict[str, Callable[[int], Fraction]] = {
    "apery": apery_term,
    "markov-hurwitz": markov_hurwitz_term,
    "ratio27-zeta3": ratio27_term,
    "az-zeta3": az_term,
    "zeta2-27": zeta2_27_term,
    "schellbach-zeta2": schellbach_zeta2_term,
}


def _power_ratio(k: int, shift, sign: int = 1) -> RationalFunction:
    """sign (n+shift)^k / (n+shift+1)^k, over the integers: shift = u/v gives
    sign (vn+u)^k / (vn+u+v)^k."""
    u, v = Fraction(shift).as_integer_ratio()
    return integer_ratio(sign, [poly(u, v)] * k, [poly(u + v, v)] * k)


def _integral_majorant(k: int, shift) -> RationalFunction:
    """(n+shift)^k / ((k-1) (n+shift-1)^(k-1)) over the integers, from shift = u/v:
    times (n+shift)^-k, the integral of x^-k from n+shift-1 on."""
    u, v = Fraction(shift).as_integer_ratio()
    return integer_ratio(Fraction(1, (k - 1) * v), [poly(u, v)] * k, [poly(u - v, v)] * (k - 1))


def entry_direct(kind: str, a=None) -> FormulaEntry:
    """Unaccelerated reference series with majorant or alternating bounds.

    kinds: zeta2, zeta3 (term(1) = 1, ratio n^k/(n+1)^k, tail 1/((k-1) N^(k-1))),
    eta2, eta3 (term(1) = 1, ratio -n^k/(n+1)^k, rate 1: the alternating
    bracket), hurwitz3 (a > 0, term(0) = a^-3, ratio (a+n)^3/(a+n+1)^3,
    tail 1/(2(a+N)^2)).
    """
    if kind in ("zeta2", "zeta3"):
        k = int(kind[-1])
        bound = "1/N" if k == 2 else "1/(2N^2)"
        return _entry(f"{kind}-direct", kind, f"direct sum of n^-{k}, tail <= {bound}",
                      1, _power_ratio(k, 0), 1, majorant=_integral_majorant(k, 0))
    if kind in ("eta2", "eta3"):
        k = int(kind[-1])
        return _entry(f"{kind}-direct", kind, f"alternating sum of (-1)^(n-1) n^-{k}",
                      1, _power_ratio(k, 0, -1), 1)
    if kind == "hurwitz3":
        a = Fraction(a if a is not None else 1)
        if a <= 0:
            raise CatalogError("hurwitz3 needs a > 0")
        return _entry("hurwitz3-direct", f"hurwitz3({format_rational(a)})",
                      f"direct sum of ({format_rational(a)}+n)^-3",
                      1 / a ** 3, _power_ratio(3, a), 0, majorant=_integral_majorant(3, a))
    raise CatalogError(f"unknown direct series kind {kind!r}")


def entry_kummer() -> FormulaEntry:
    """The slow three-halves-power series 4F3(9/2,9/2,9/2,1; 5,5,5), of Kummer's
    summand family.

    term(0) = 1, term(n+1)/term(n) = (2n+9)^3/(2n+10)^3.  The terms decay
    only like n^(-3/2) (the ratio tends to 1), so the entry is flagged slow
    and certifies digits through the majorant 2n+10, certified from n = 0.
    The double-factorial form sometimes quoted, sum ((2n+1)!!/(2n)!!)^3,
    has growing summands and is recorded here without being evaluated.
    """
    return _entry(
        "kummer", "kummer-4f3",
        "slow 4F3(9/2,9/2,9/2,1;5,5,5); terms decay like n^(-3/2)",
        1, integer_ratio(1, [poly(9, 2)] * 3, [poly(10, 2)] * 3), 0,
        majorant=RationalFunction(poly(10, 2), poly(1)), slow=True)


# -- parameterized q-series entries (both sides of the transformation) ------

def _convergent_engine(a, b, c, d, q) -> ThreePhiTwo:
    """The 3phi2 engine at a tuple where its source series converges; either
    side's sum is the value of 3phi2(a,b,1; c,d) only there."""
    engine = ThreePhiTwo(a, b, c, d, q)
    if not (0 < engine.q < 1 and abs(engine.t) < 1):
        raise CatalogError("certified q-series bounds need 0 < q < 1 and |t| < 1")
    return engine


def entry_phi32_series(a, b, c, d, q) -> FormulaEntry:
    """The source series sum_z F_{0,z} = sum_z (a,b;q)_z/(c,d;q)_z t^z, certified.

    term(0) = F_{0,0} = 1 and the ratio is the engine's rz(0, z) in y = q^z.
    Any 0 < q < 1 and |t| < 1 is accepted for which the sign of the ratio
    and a rate, |t| or a rung above it, are certified on y in (0, 1]; the
    ordered regime 0 < c <= a < 1, 0 < d <= b < 1 is one such case, with
    rate |t|.
    """
    engine = _convergent_engine(a, b, c, d, q)
    label = ",".join(format_rational(v) for v in engine.params)
    return _entry(
        f"qsh-3phi2({label})", f"3phi2({label})",
        "source q-series of the transformation, geometric rate t",
        1, engine.source_ratio(), 0, base=engine.q)


def _contraction(a, b, c, d, q, t) -> Fraction:
    """K with term(x+1)/term(x) <= K q^(2x) on the transformed series."""
    return (c * d / q) * (1 + t * (c + d)) / (
        (1 - c) * (1 - d) * (1 - t * (a + b + q)) * (1 - t) ** 2)


def entry_phi32_transformed(a, b, c, d, q) -> FormulaEntry:
    """The transformed series sum_x V_{x,0}, the certificate pair's row series.

    term(0) = V_{0,0} = M_{0,0}, and the ratio is the engine's
    V_{x+1,0}/V_{x,0} in y = q^x.  The conditions below make K finite, and
    the majorant 1/(1 - K y^2) bounds the remainder after x by the next
    term times 1/(1 - K q^(2x+2)).
    """
    engine = _convergent_engine(a, b, c, d, q)
    a, b, c, d, q, t = engine.a, engine.b, engine.c, engine.d, engine.q, engine.t
    if not (0 < max(c, d) <= min(a, b) and max(a, b) < 1 and max(c, d, t) < 1 - q
            and t * (a + b + q) < 1):
        raise CatalogError("certified transformed-series bound needs 0 < max(c,d) <= "
                           "min(a,b), a, b < 1, c, d, t < 1-q and t(a+b+q) < 1")
    big_k = _contraction(a, b, c, d, q, t)
    label = ",".join(format_rational(v) for v in engine.params)
    return _entry(
        f"transformed-3phi2({label})", f"3phi2({label})",
        "transformed series of the q-series transformation, q^(2x)-type decay",
        engine.m(0, 0), engine.transformed_ratio(), 0, base=q,
        majorant=RationalFunction(poly(1), poly(1, 0, -big_k)))


# ---------------------------------------------------------------------------
# Registry and reports
# ---------------------------------------------------------------------------

REGISTRY: dict[str, Callable[..., FormulaEntry]] = {
    "apery": entry_apery,
    "markov-hurwitz": entry_markov_hurwitz,
    "ratio27-zeta3": entry_ratio27_zeta3,
    "az-zeta3": entry_az_zeta3,
    "zeta2-27": entry_zeta2_27,
    "schellbach-zeta2": entry_schellbach_zeta2,
    "zeta3-direct": lambda: entry_direct("zeta3"),
    "zeta2-direct": lambda: entry_direct("zeta2"),
    "eta2-direct": lambda: entry_direct("eta2"),
    "eta3-direct": lambda: entry_direct("eta3"),
    "hurwitz3-direct": lambda a=Fraction(1): entry_direct("hurwitz3", a),
    "kummer": entry_kummer,
}

#: entries targeting each constant, for cross-formula comparison
CONSTANT_GROUPS = {
    "zeta3": ("zeta3-direct", "apery", "markov-hurwitz", "ratio27-zeta3", "az-zeta3"),
    "zeta2": ("zeta2-direct", "schellbach-zeta2", "zeta2-27"),
}

_PARAMETERIZED = {"markov-hurwitz", "hurwitz3-direct"}


def get_entry(entry_id: str, a=None) -> FormulaEntry:
    if entry_id not in REGISTRY:
        raise KeyError(f"unknown formula id {entry_id!r}")
    if a is not None:
        if entry_id not in _PARAMETERIZED:
            raise CatalogError(f"{entry_id} takes no parameter a")
        return REGISTRY[entry_id](Fraction(a))
    return REGISTRY[entry_id]()


def list_entries() -> list[dict]:
    rows = []
    for entry_id in sorted(REGISTRY):
        entry = get_entry(entry_id)
        rows.append({
            "entry": entry.entry_id,
            "constant": entry.constant,
            "ratio_bound": format_rational(entry.ratio_bound.rho) if entry.ratio_bound else "",
            "slow": entry.slow,
            "description": entry.description,
        })
    return rows


CSV_FIELDS = ("entry", "constant", "ratio_bound", "terms_used", "digits_proven", "rendering")


def reports_to_csv(reports: Sequence[EvaluationReport]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=("schema",) + CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for report in reports:
        writer.writerow({
            "schema": "1",
            "entry": report.entry_id,
            "constant": report.constant,
            "ratio_bound": format_rational(report.ratio_bound.rho) if report.ratio_bound else "",
            "terms_used": str(report.terms_used),
            "digits_proven": str(report.digits_proven),
            "rendering": str(report.rendering) if report.rendering else "",
        })
    return buf.getvalue()
