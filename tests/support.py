"""Readers that only tests use: report CSV back to rows, enclosure membership,
and the value of a bivariate rational function."""

import csv
import io

from markovsum.exact import parse_rational


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


def bivariate_value(fraction, x, z):
    """A polys.BivariateFraction's value at the point (X, Z) = (x, z)."""
    def at(p):
        return sum(c * x ** i * z ** j for (i, j), c in p.items())
    den = 1
    for divisor in fraction.den:
        den *= at(divisor)
    return at(fraction.num) / den
