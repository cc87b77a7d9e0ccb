"""Readers that only tests use: report CSV back to rows, enclosure membership,
the value of a rational function kept as integer factors, and a step-by-step
check of a catalog entry's derived claims."""

import csv
import io
from fractions import Fraction

from markovsum.exact import parse_rational
from oracles import stepped_factors


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


def contains(enclosure, x) -> bool:
    """Whether x lies in the enclosure [lower, upper]."""
    return enclosure.lower <= x <= enclosure.upper


def factors_value(value, x, z):
    """A polys.Factors value at the point (X, Z) = (x, z)."""
    def at(factor):
        return sum(c * x ** i * z ** j for (i, j), c in factor.items())
    out = Fraction(value.n, value.d)
    for factor in value.num:
        out *= at(factor)
    for divisor in value.den:
        out /= at(divisor)
    return out


def claims_failure(entry, span: int = 200):
    """The first of a catalog entry's claims that its first ``span`` steps
    contradict, or None.

    Each step term(n+1)/term(n) = p/q is read as the integers p(n), q(n):
    q must not vanish, the rate (rho below one, or one for an alternating
    entry without a geometric bound) must hold from where it is claimed,
    and the terms must alternate or keep their sign as claimed.
    """
    bound = entry.ratio_bound
    rho, rate_from = (bound.rho, bound.valid_from) if bound else (Fraction(1), entry.leibniz_from)
    for n in range(entry.n0, entry.n0 + span):
        p, q = stepped_factors(entry.terms, n)
        if not q:
            return f"{entry.entry_id}: ratio undefined at n={n}: its denominator vanishes"
        if rate_from is not None and n >= rate_from and \
                abs(p) * rho.denominator > rho.numerator * abs(q):
            return f"{entry.entry_id}: rate {rho} fails at n={n}"
        if entry.alternating and p * q >= 0:
            return f"{entry.entry_id}: terms do not alternate at n={n}"
        if entry.remainder_nonneg and p * q < 0:
            return f"{entry.entry_id}: terms change sign at n={n}"
    return None
