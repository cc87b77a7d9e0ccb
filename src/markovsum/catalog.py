"""Catalog of series with exact terms and certified decimal output.

Every entry couples an exact term generator with a *certified* tail bound,
so a partial sum always comes back as an enclosure [lower, upper] known to
contain the limit, and decimal digits are only ever reported when proven
by that enclosure.  Three bound mechanisms are used:

* geometric: |term(n+1)| <= rho |term(n)| with rho < 1 for n >= valid_from,
  verified exactly on a prefix at registration and, where possible,
  certified for *all* such n by a polynomial positivity certificate on the
  term ratio;
* alternating: for sign-alternating, magnitude-decreasing terms the
  remainder is bounded by the first omitted term and has its sign
  (the classical alternating-series bracket), which is tighter than the
  geometric bound and is preferred when both apply;
* custom integral-comparison bounds for the direct (unaccelerated) series
  and the slow three-halves-power entry.

Each of the six geometric zeta entries is described once: by its first
index n0, its first term and its signed term ratio
term(n+1)/term(n) = p(n)/q(n), with p and q polynomials.  The terms follow
by recurrence and are memoized in the entry's term sequence, so each is
computed once per entry.  The all-n certificate bounds the magnitude ratio
-p/q (or p/q for positive terms) by rho; ``valid_from`` is the first index
from which that certificate holds, and for alternating entries it also
shows p/q <= 0, so from there on no two consecutive terms share a sign.
The closed-form terms are kept only as independent checks
(``CLOSED_FORMS``).

``terms_needed`` is one forward pass.  Every bound of ``enclosure_after``
is the partial sum plus a quantity that depends only on terms, so the
width test needs no sum: the partial sum is formed once, at the first
index whose width is at most 10^-digits, and then grows by one term per
further index.  The rendering check runs only at such indices.

All arithmetic is rational; nothing here rounds until rendering.  Entries
are immutable after registration and evaluation is pure, so concurrent
evaluation needs no coordination: the memoized terms, here and in the
term-algebra module, are extended under a lock and never change a stored
value.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, isqrt, prod
from typing import Callable, Optional, Sequence

from .exact import (
    ROUND_TRUNCATE,
    DecimalRendering,
    Enclosure,
    digits_capacity,
    format_rational,
    parse_rational,
    to_decimal,
)
from .hgterm import HGSpec, TermSequence, rising_factorial, term_sequence
from .markov.phi32 import ThreePhiTwo
from .markov.schellbach import SchellbachParams, ratio_function, schellbach_term
from .polys import (
    RationalFunction,
    leading_coefficient,
    poly,
    poly_mul,
    poly_pow,
    poly_scale,
    poly_shift,
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


@dataclass
class FormulaEntry:
    """A catalog series with tail-bound metadata.

    ``offset`` is an exact constant added to every partial sum (some
    accelerated forms carry one).  ``tail_extra(N)`` returns a certified
    bound on |sum of terms beyond index N| for entries whose decay is not
    a fixed geometric ratio, or None when not yet applicable at N.
    """

    entry_id: str
    constant: str
    description: str
    terms: TermSequence
    ratio_bound: Optional[RatioBound] = None
    asymptotic_ratio: Optional[Fraction] = None
    alternating: bool = False
    remainder_nonneg: bool = False
    offset: Fraction = Fraction(0)
    tail_extra: Optional[Callable[[int], Optional[Fraction]]] = None
    ratio_certified: bool = False
    monotone_certified: bool = False
    slow: bool = False
    provenance: str = ""
    notes: str = ""

    def __post_init__(self):
        self._validate()

    @property
    def n0(self) -> int:
        return self.terms.n0

    def term(self, n: int) -> Fraction:
        return self.terms.term(n)

    def _validate(self, check_span: int = 64):
        """Registration checks: ratio bound, alternation, sign, exactly."""
        n0 = self.n0
        previous = self.term(n0)
        for n in range(n0, n0 + check_span):
            nxt = self.term(n + 1)
            if self.ratio_bound and n >= self.ratio_bound.valid_from:
                if abs(nxt) > self.ratio_bound.rho * abs(previous):
                    raise CatalogError(
                        f"{self.entry_id}: ratio bound {format_rational(self.ratio_bound.rho)} "
                        f"fails at n={n}")
            if self.alternating and nxt * previous >= 0:
                raise CatalogError(f"{self.entry_id}: terms do not alternate at n={n}")
            if self.monotone_certified and abs(nxt) > abs(previous):
                raise CatalogError(f"{self.entry_id}: magnitudes not decreasing at n={n}")
            if self.remainder_nonneg and previous < 0:
                raise CatalogError(f"{self.entry_id}: negative term at n={n}")
            previous = nxt

    # -- tail bounds --------------------------------------------------------

    def _leibniz_ok(self, last: int) -> bool:
        # Magnitude decrease beyond the scanned prefix needs a certificate
        # that covers every index after ``last``.
        if not self.alternating:
            return False
        return self.monotone_certified or (
            self.ratio_certified and last + 1 >= self.ratio_bound.valid_from)

    def enclosure_after(self, partial: Fraction, last: int) -> Optional[Enclosure]:
        """An enclosure of the limit from the partial sum through index ``last``.

        Each bound is ``partial`` plus a quantity that depends only on the
        terms, so the width does not depend on ``partial``.
        """
        lows, highs = [], []
        if self._leibniz_ok(last):
            nxt = self.term(last + 1)
            lo, hi = sorted((partial, partial + nxt))
            lows.append(lo)
            highs.append(hi)
            # the next two partial sums bracket the limit even more tightly
            lo, hi = sorted((partial + nxt, partial + nxt + self.term(last + 2)))
            lows.append(lo)
            highs.append(hi)
        if self.ratio_bound and last + 1 >= self.ratio_bound.valid_from:
            bound = abs(self.term(last + 1)) / (1 - self.ratio_bound.rho)
            lows.append(partial if self.remainder_nonneg else partial - bound)
            highs.append(partial + bound)
        if self.tail_extra is not None:
            bound = self.tail_extra(last)
            if bound is not None:
                lows.append(partial if self.remainder_nonneg else partial - bound)
                highs.append(partial + bound)
        if not lows:
            return None
        return Enclosure(max(lows), min(highs))


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
    """Sum ``n_terms`` exact terms and certify digits from the tail bound.

    When the entry's geometric ratio is not certified for all n, the bound
    is re-verified exactly out to four times the used range before being
    trusted (entries are registered with a 64-term scan regardless).
    """
    if n_terms < 1:
        raise CatalogError("n_terms must be >= 1")
    n0 = entry.n0
    last = n0 + n_terms - 1
    partial = entry.offset
    for n in range(n0, last + 1):
        partial += entry.term(n)
    if entry.ratio_bound and not entry.ratio_certified:
        _rescan_ratio(entry, n0 + 4 * n_terms)
    enclosure = entry.enclosure_after(partial, last)
    if enclosure is None:
        return EvaluationReport(entry.entry_id, entry.constant, n_terms, None, None, 0,
                                entry.ratio_bound)
    requested = digits if digits is not None else digits_capacity(enclosure.width) + 2
    rendering = to_decimal(enclosure, max(1, requested), rounding)
    return EvaluationReport(entry.entry_id, entry.constant, n_terms, enclosure,
                            rendering, rendering.digits_proven, entry.ratio_bound)


def _rescan_ratio(entry: FormulaEntry, upto: int):
    bound = entry.ratio_bound
    previous = entry.term(bound.valid_from)
    for n in range(bound.valid_from, upto):
        nxt = entry.term(n + 1)
        if abs(nxt) > bound.rho * abs(previous):
            raise CatalogError(f"{entry.entry_id}: ratio bound fails at n={n}")
        previous = nxt


def terms_needed(entry: FormulaEntry, digits: int, rounding: str = ROUND_TRUNCATE,
                 n_cap: int = 100000) -> int:
    """Smallest N with evaluate(entry, N, digits, rounding).digits_proven >= digits.

    Only meaningful (and only allowed) for entries carrying a geometric
    ratio bound.  One exact forward pass: the enclosure width after N terms
    does not depend on the partial sum, so the sum is formed only at the
    first N whose width is at most 10^-digits and then grows by one term
    per further N.  The rendering check, and for an uncertified ratio bound
    the exact rescan of ``evaluate``, run only at such N.
    """
    if entry.ratio_bound is None:
        raise CatalogError(f"{entry.entry_id}: no geometric bound")
    if digits <= 0:
        return 1
    target = Fraction(1, 10 ** digits)
    n0 = entry.n0
    partial, summed = entry.offset, n0  # partial holds the terms before index summed
    for n in range(max(1, entry.ratio_bound.valid_from - n0 + 1), n_cap + 1):
        last = n0 + n - 1
        relative = entry.enclosure_after(Fraction(0), last)
        if relative is None or relative.width > target:
            continue
        for k in range(summed, last + 1):
            partial += entry.term(k)
        summed = last + 1
        if not entry.ratio_certified:
            _rescan_ratio(entry, n0 + 4 * n)
        if to_decimal(entry.enclosure_after(partial, last), digits,
                      rounding).digits_proven >= digits:
            return n
    raise CatalogError(f"{entry.entry_id}: {digits} digits not reached within {n_cap} terms")


# ---------------------------------------------------------------------------
# Entry builders
# ---------------------------------------------------------------------------

def _geometric_entry(entry_id: str, constant: str, description: str, first: Fraction,
                     ratio: RationalFunction, n0: int, rho: Fraction,
                     alternating: bool = True, **kwargs) -> FormulaEntry:
    """An entry described by n0, its first term and its signed term ratio.

    The ratio bound holds for every n >= valid_from, the first index from
    which ``bounded_by`` certifies the magnitude ratio (-p/q when the terms
    alternate, p/q otherwise) against rho.  Without such a certificate
    there is no entry.
    """
    magnitude = RationalFunction(poly_scale(ratio.num, -1), ratio.den) if alternating else ratio
    valid_from = magnitude.bounded_from(rho, n0)
    if valid_from is None:
        rate = format_rational(rho)
        if leading_coefficient(magnitude.margin(rho)) < 0:
            raise CatalogError(f"{entry_id}: no rho = {rate} certificate exists: "
                               f"|term(n+1)/term(n)| > {rate} for all large n")
        raise CatalogError(f"{entry_id}: no rho = {rate} certificate found")
    return FormulaEntry(
        entry_id, constant, description, TermSequence.from_ratio(first, ratio, n0, entry_id),
        ratio_bound=RatioBound(rho, valid_from), asymptotic_ratio=rho,
        alternating=alternating, ratio_certified=True, **kwargs)


def entry_apery() -> FormulaEntry:
    """zeta(3) = (5/2) sum_{n>=1} (-1)^(n-1) / (binom(2n,n) n^3); rate 1/4.

    term(1) = 5/4, term(n+1)/term(n) = -n^3 / (2 (n+1)^2 (2n+1)).
    """
    ratio = RationalFunction(poly(0, 0, 0, -1),
                             poly_mul(poly_pow(poly(1, 1), 2), poly(2, 4)))
    return _geometric_entry(
        "apery", "zeta3",
        "alternating central-binomial series for zeta(3), geometric rate 1/4",
        Fraction(5, 4), ratio, 1, Fraction(1, 4),
        provenance="Markov (1890); popularized by Apery (1978)")


def entry_markov_hurwitz(a=Fraction(1)) -> FormulaEntry:
    """sum_{n>=0} (a+n)^(-3) as an alternating series of rate 1/4.

    term(0) = p_a(0) / (4 a^4) and
    term(n+1)/term(n) = -(n+1)^6 p_a(n+1) / ((2n+2)(2n+3)(n+1+a)^4 p_a(n)),
    with p_a(n) = 5(n+1)^2 + 6(a-1)(n+1) + 2(a-1)^2.
    """
    a = Fraction(a)
    if a.denominator == 1 and a.numerator <= 0:
        raise CatalogError("pole in a: must not be a nonpositive integer")
    p_a = poly(5 + 6 * (a - 1) + 2 * (a - 1) ** 2, 10 + 6 * (a - 1), 5)
    num = poly_mul(poly_pow(poly(1, 1), 6), poly_shift(poly_scale(p_a, -1), 1))
    den = poly_mul(poly_mul(poly_mul(poly(2, 2), poly(3, 2)),
                            poly_pow(poly(1 + a, 1), 4)), p_a)
    return _geometric_entry(
        "markov-hurwitz", "zeta3" if a == 1 else f"hurwitz3({format_rational(a)})",
        f"rate-1/4 alternating series for sum 1/({format_rational(a)}+n)^3",
        p_a[0] / (4 * a ** 4), RationalFunction(num, den), 0, Fraction(1, 4),
        provenance="Markov (1890)")


def entry_ratio27_zeta3() -> FormulaEntry:
    """zeta(3) = (1/4) sum_{n>=1} (-1)^(n-1) (56n^2-32n+5)/((2n-1)^2 n^3) n!^3/(3n)!.

    term(1) = 29/24, term(n+1)/term(n)
    = -p(n+1) (2n-1)^2 n^3 / (p(n) (2n+1)^2 (3n+1)(3n+2)(3n+3)), p = 56n^2-32n+5.
    """
    p = poly(5, -32, 56)
    num = poly_mul(poly_mul(poly_shift(p, 1), poly_pow(poly(-1, 2), 2)), poly(0, 0, 0, -1))
    den = poly_mul(poly_mul(p, poly_pow(poly(1, 2), 2)),
                   poly_mul(poly_mul(poly(1, 3), poly(2, 3)), poly(3, 3)))
    return _geometric_entry(
        "ratio27-zeta3", "zeta3",
        "rate-1/27 alternating series for zeta(3)",
        Fraction(29, 24), RationalFunction(num, den), 1, Fraction(1, 27),
        provenance="Markov (1889/1890); rederived via telescoping certificates "
                   "by Amdeberhan (1996)")


def entry_az_zeta3() -> FormulaEntry:
    """zeta(3) = sum_{n>=0} (-1)^n n!^10 (205n^2+250n+77) / (64 (2n+1)!^5).

    term(0) = 77/64, term(n+1)/term(n)
    = -(n+1)^10 p(n+1) / (p(n) (2n+2)^5 (2n+3)^5), p = 205n^2+250n+77.
    """
    p = poly(77, 250, 205)
    num = poly_mul(poly_pow(poly(1, 1), 10), poly_shift(poly_scale(p, -1), 1))
    den = poly_mul(poly_mul(p, poly_pow(poly(2, 2), 5)), poly_pow(poly(3, 2), 5))
    return _geometric_entry(
        "az-zeta3", "zeta3",
        "rate-2^-10 alternating series for zeta(3)",
        Fraction(77, 64), RationalFunction(num, den), 0, Fraction(1, 1024),
        provenance="Amdeberhan-Zeilberger (1997)")


def entry_zeta2_27() -> FormulaEntry:
    """zeta(2) = 5/3 + sum_{k>=1} (-1)^k (2k-1)!!^3/(6k-1)!! (1/(4k^2) + 5/((6k+1)(6k+3))).

    term(1) = -83/3780, term(k+1)/term(k)
    = -(2k+1)^3 k^2 (56k^2+136k+83) / ((6k+5)(56k^2+24k+3)(k+1)^2 (6k+7)(6k+9)).
    """
    num = poly_mul(poly_mul(poly_pow(poly(1, 2), 3), poly(0, 0, -1)), poly(83, 136, 56))
    den = poly_mul(poly_mul(poly_mul(poly(5, 6), poly(3, 24, 56)),
                            poly_pow(poly(1, 1), 2)),
                   poly_mul(poly(7, 6), poly(9, 6)))
    return _geometric_entry(
        "zeta2-27", "zeta2",
        "rate-1/27 alternating series for zeta(2), constant offset 5/3",
        Fraction(-83, 3780), RationalFunction(num, den), 1, Fraction(1, 27),
        offset=Fraction(5, 3), provenance="Markov (1889)")


#: 3F2(1,1,1; 2,2) = zeta(2), the Schellbach parameters of ``schellbach-zeta2``
ZETA2_SCHELLBACH = SchellbachParams(Fraction(1), Fraction(1), Fraction(2), Fraction(2))


def entry_schellbach_zeta2() -> FormulaEntry:
    """zeta(2) via the transformed 3F2(1,1,1;2,2): terms 3 x!^2/(2x+2)!, rate 1/4.

    The first term and the term ratio are Schellbach's, at (1, 1, 2, 2).
    """
    return _geometric_entry(
        "schellbach-zeta2", "zeta2",
        "transformed 3F2(1,1,1;2,2) series for zeta(2), geometric rate 1/4",
        schellbach_term(ZETA2_SCHELLBACH, 0), ratio_function(ZETA2_SCHELLBACH), 0,
        Fraction(1, 4), alternating=False, remainder_nonneg=True,
        provenance="Schellbach (1864); limit case of the q-series transformation")


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


def entry_direct(kind: str, a=None) -> FormulaEntry:
    """Unaccelerated reference series with integral or alternating bounds.

    kinds: zeta2, zeta3 (integral-comparison tails), eta2, eta3
    (alternating, remainder below first omitted term), hurwitz3 (needs
    a > 0; integral-comparison tail).
    """
    if kind == "zeta3":
        return FormulaEntry(
            "zeta3-direct", "zeta3", "direct sum of n^-3, tail <= 1/(2N^2)",
            TermSequence.from_term(lambda n: Fraction(1, n ** 3), n0=1, label="zeta3-direct"),
            remainder_nonneg=True,
            tail_extra=lambda last: Fraction(1, 2 * last * last),
            provenance="definition")
    if kind == "zeta2":
        return FormulaEntry(
            "zeta2-direct", "zeta2", "direct sum of n^-2, tail <= 1/N",
            TermSequence.from_term(lambda n: Fraction(1, n * n), n0=1, label="zeta2-direct"),
            remainder_nonneg=True,
            tail_extra=lambda last: Fraction(1, last),
            provenance="definition")
    if kind in ("eta2", "eta3"):
        k = 2 if kind == "eta2" else 3
        # |t(n+1)|/|t(n)| = n^k/(n+1)^k <= 1 for all n >= 1, certified
        magnitude_ratio = RationalFunction(poly_pow(poly(0, 1), k),
                                           poly_pow(poly(1, 1), k))
        assert magnitude_ratio.bounded_by(Fraction(1), 1) is not None
        return FormulaEntry(
            f"{kind}-direct", kind,
            f"alternating sum of (-1)^(n-1) n^-{k}",
            TermSequence.from_term(lambda n, k=k: Fraction((-1) ** (n - 1), n ** k),
                                   n0=1, label=f"{kind}-direct"),
            alternating=True, monotone_certified=True,
            provenance="definition")
    if kind == "hurwitz3":
        a = Fraction(a if a is not None else 1)
        if a <= 0:
            raise CatalogError("hurwitz3 needs a > 0")
        return FormulaEntry(
            "hurwitz3-direct", f"hurwitz3({format_rational(a)})",
            f"direct sum of ({format_rational(a)}+n)^-3",
            TermSequence.from_term(lambda n, a=a: 1 / (a + n) ** 3, n0=0,
                                   label="hurwitz3-direct"),
            remainder_nonneg=True,
            tail_extra=lambda last, a=a: 1 / (2 * (a + last) ** 2),
            provenance="definition")
    raise CatalogError(f"unknown direct series kind {kind!r}")


def _sqrt_lower(n: int, bits: int = 64) -> Fraction:
    """A rational lower bound on sqrt(n) for integer n >= 1."""
    scale = 1 << bits
    return Fraction(isqrt(n * scale * scale), scale)


def entry_kummer() -> FormulaEntry:
    """The slow three-halves-power series 4F3(9/2,9/2,9/2,1; 5,5,5).

    Terms ((9/2)_n/(5)_n)^3 decay only like n^(-3/2): no geometric ratio
    exists (the term ratio tends to 1), so the entry is flagged slow and
    certifies digits through an integral-comparison bound instead.  The
    double-factorial rewriting sometimes quoted for this sum, namely
    sum ((2n+1)!!/(2n)!!)^3, has growing summands and is recorded here
    without being evaluated.
    """
    spec = HGSpec(upper=(Fraction(9, 2), Fraction(9, 2), Fraction(9, 2), Fraction(1)),
                  lower=(Fraction(5), Fraction(5), Fraction(5)))
    seq = term_sequence(spec)

    # u_n = (9/2)_n/(5)_n satisfies u_n^2 (n + 9/2) nonincreasing, since
    # (n+9/2)^2 (n+11/2) <= (n+5)^2 (n+9/2) reduces to n/4 + 9/8 >= 0;
    # hence term(n) <= ((9/2)/(n+9/2))^(3/2) and
    # tail(N) <= 2 (9/2)^(3/2)/sqrt(N+9/2) = 27/sqrt(2N+9).
    shift = Fraction(9, 2)
    u_sq = Fraction(1)
    for n in range(64):
        ratio = ((n + shift) / (n + 5)) ** 2
        assert u_sq * (n + shift) >= u_sq * ratio * (n + 1 + shift)
        u_sq *= ratio

    def tail(last: int) -> Fraction:
        return 27 / _sqrt_lower(2 * last + 9)

    return FormulaEntry(
        "kummer", "kummer-4f3",
        "slow 4F3(9/2,9/2,9/2,1;5,5,5); terms decay like n^(-3/2)",
        TermSequence(seq.term, seq.ratio, 0, "kummer"),
        remainder_nonneg=True, tail_extra=tail, slow=True,
        provenance="Kummer's summand family",
        notes="double-factorial form sum((2n+1)!!/(2n)!!)^3 recorded, not evaluated")


# -- parameterized q-series entries (both sides of the transformation) ------

def entry_phi32_series(a, b, c, d, q) -> FormulaEntry:
    """The source series sum_z (a,b;q)_z/(c,d;q)_z t^z with a certified tail.

    Certification requires the ordered-positive regime
    0 < c <= a < 1, 0 < d <= b < 1, 0 < q < 1 (then every term is positive
    and term ratios increase toward t, so rho = t is valid for all z).
    """
    engine = ThreePhiTwo(a, b, c, d, q)
    a, b, c, d, q, t = engine.a, engine.b, engine.c, engine.d, engine.q, engine.t
    if not (0 < c <= a < 1 and 0 < d <= b < 1 and 0 < q < 1):
        raise CatalogError("certified source-series bound needs 0 < c <= a < 1, "
                           "0 < d <= b < 1, 0 < q < 1")
    label = ",".join(format_rational(v) for v in engine.params)
    return FormulaEntry(
        f"qsh-3phi2({label})", f"3phi2({label})",
        "source q-series of the transformation, geometric rate t",
        TermSequence.from_term(engine.series_term, n0=0, label="qsh"),
        ratio_bound=RatioBound(t, 0), asymptotic_ratio=t,
        remainder_nonneg=True, ratio_certified=True,
        provenance="q-series 3phi2(a,b,1;c,d)")


def entry_phi32_transformed(a, b, c, d, q) -> FormulaEntry:
    """The transformed series sum_x V_{x,0}, decaying like q^(2x) per step.

    Certification conditions: 0 < max(c,d) <= min(a,b), all of a, b, c, d
    below 1, 0 < q < 1, c, d, t < 1 - q and t(a+b+q) < 1.  Then every term
    is positive and term(x+1)/term(x) <= K q^(2x) with the explicit
    constant K below, giving a one-term-plus-geometric tail bound.
    """
    engine = ThreePhiTwo(a, b, c, d, q)
    a, b, c, d, q, t = engine.a, engine.b, engine.c, engine.d, engine.q, engine.t
    if not (0 < max(c, d) <= min(a, b) and max(a, b) < 1 and 0 < q < 1):
        raise CatalogError("certified transformed-series bound needs "
                           "0 < max(c,d) <= min(a,b) and a, b < 1 and 0 < q < 1")
    if not (c < 1 - q and d < 1 - q and t < 1 - q and t * (a + b + q) < 1):
        raise CatalogError("certified transformed-series bound needs "
                           "c, d, t < 1-q and t(a+b+q) < 1")
    big_k = (c * d / q) * (1 + t * (c + d)) / (
        (1 - c) * (1 - d) * (1 - t * (a + b + q)) * (1 - t) ** 2)

    def tail(last: int) -> Optional[Fraction]:
        contraction = big_k * q ** (2 * (last + 1))
        if contraction >= 1:
            return None
        return abs(engine.v0(last + 1)) / (1 - contraction)

    label = ",".join(format_rational(v) for v in engine.params)
    return FormulaEntry(
        f"transformed-3phi2({label})", f"3phi2({label})",
        "transformed series of the q-series transformation, q^(2x)-type decay",
        TermSequence.from_term(engine.v0, n0=0, label="v0"),
        remainder_nonneg=True, tail_extra=tail,
        provenance="telescoped column sums of the 3phi2 extension")


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


def report_csv_row(report: EvaluationReport) -> dict:
    return {
        "entry": report.entry_id,
        "constant": report.constant,
        "ratio_bound": format_rational(report.ratio_bound.rho) if report.ratio_bound else "",
        "terms_used": str(report.terms_used),
        "digits_proven": str(report.digits_proven),
        "rendering": str(report.rendering) if report.rendering else "",
    }


def reports_to_csv(reports: Sequence[EvaluationReport]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=("schema",) + CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for report in reports:
        row = {"schema": "1"}
        row.update(report_csv_row(report))
        writer.writerow(row)
    return buf.getvalue()


def parse_reports_csv(text: str) -> list[dict]:
    """Parse report CSV back into typed rows (lossless round-trip)."""
    rows = []
    for raw in csv.DictReader(io.StringIO(text)):
        rows.append({
            "schema": raw["schema"],
            "entry": raw["entry"],
            "constant": raw["constant"],
            "ratio_bound": parse_rational(raw["ratio_bound"]) if raw["ratio_bound"] else None,
            "terms_used": int(raw["terms_used"]),
            "digits_proven": int(raw["digits_proven"]),
            "rendering": raw["rendering"],
        })
    return rows
