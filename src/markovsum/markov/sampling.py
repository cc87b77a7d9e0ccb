"""Seeded pseudo-random rational parameter tuples for identity checking.

A tiny in-house linear congruential generator keeps runs byte-for-byte
reproducible across interpreter versions (the stdlib generator makes no
such promise for all helper methods).  Numerators and denominators are
drawn uniformly from a small documented range; tuples that would hit a
singular denominator of the target family are rejected and redrawn.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

# Parameters from Knuth's MMIX line; period 2^64.
_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1


class Lcg:
    """Deterministic 64-bit linear congruential generator."""

    def __init__(self, seed: int = 0):
        self.state = (seed ^ 0x9E3779B97F4A7C15) & _MASK
        for _ in range(4):
            self._step()

    def _step(self) -> int:
        self.state = (self.state * _MULT + _INC) & _MASK
        return self.state >> 16

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]."""
        return lo + self._step() % (hi - lo + 1)

    def rational(self, bound: int) -> Fraction:
        """Positive rational with numerator and denominator in [1, bound]."""
        return Fraction(self.randint(1, bound), self.randint(1, bound))


#: the largest numerator and denominator of a sampled parameter
MAX_COMPONENT = 9


def sample_parameter_tuples(count: int, seed: int = 0) -> Iterator[tuple[Fraction, ...]]:
    """Yield (a, b, c, d, q) tuples safe for the q-series certificate.

    All five entries are positive rationals with numerator and denominator
    in [1, MAX_COMPONENT] = [1, 9]; q is kept in (0, 1).  Tuples are rejected when a
    denominator factor of the certificate family could vanish on a small
    grid: c, d or t equal to a nonpositive power of q, or zero inputs.
    """
    rng = Lcg(seed)
    produced = 0
    while produced < count:
        a = rng.rational(MAX_COMPONENT)
        b = rng.rational(MAX_COMPONENT)
        c = rng.rational(MAX_COMPONENT)
        d = rng.rational(MAX_COMPONENT)
        num = rng.randint(1, MAX_COMPONENT)
        den = rng.randint(1, MAX_COMPONENT)
        if num >= den:
            continue
        q = Fraction(num, den)
        t = c * d / (a * b * q)
        if _hits_pole(c, q) or _hits_pole(d, q) or _hits_pole(t, q):
            continue
        produced += 1
        yield (a, b, c, d, q)


def _hits_pole(value: Fraction, q: Fraction, span: int = 64) -> bool:
    """True when value == q^-k for some 0 <= k < span; needs 0 < q < 1.

    With q = n/d in lowest terms, q^-k = d^k/n^k is in lowest terms too,
    so the test compares value's numerator and denominator with d^k and
    n^k.  d^k grows with k (d >= 2), so the search stops once it passes
    the numerator.
    """
    n, d = q.numerator, q.denominator
    n_k = d_k = 1
    for _ in range(span):
        if d_k > value.numerator:
            return False
        if d_k == value.numerator and n_k == value.denominator:
            return True
        n_k, d_k = n_k * n, d_k * d
    return False
