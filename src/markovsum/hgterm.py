"""Series terms from one description, and the Pochhammer symbols of closed forms.

A ``TermSequence`` is a series described by its first term and its signed
term ratio, a quotient of integer polynomials in the index n or, for a
q-series, in y = q^n.  It sums on one unreduced integer state (A, B, T),
with term = A/B and prefix sum = T/B: a step multiplies by the integers
p(n), q(n) of the ratio, with no gcd, and only a reader of a term or a sum
forms a ``Fraction``.  In n these are plain Horner evaluations; for a
q-series the polynomials are evaluated homogeneously at the numerator and
denominator of q^n.  It keeps the states of the last three indices it
reached, under a lock of the sequence's own; an earlier index is stepped
again from n0.

Rising factorials (a)_n = a(a+1)...(a+n-1) and q-rising factorials
(a;q)_n = (1-a)(1-qa)...(1-q^(n-1)a), |q| < 1, serve the closed forms: the
Schellbach terms and the oracles that check the recurrences and the
stepped lattice extensions.  Their prefixes are memoized as running products
keyed by the parameter (and base), so evaluating thousands of consecutive
values stays linear.  A cache is only extended under a module lock, and a
stored value never changes afterwards, so lookups need no lock and
concurrent callers always get exact values.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from typing import Sequence

from .exact import format_rational
from .polys import RationalFunction, poly_eval


class TermError(ValueError):
    """A series term is undefined (vanishing denominator factor)."""


_rising_cache: dict[Fraction, list[Fraction]] = {}
# (a, q) -> (prefix products, box holding q**len(products)-1)
_qpoch_cache: dict[tuple[Fraction, Fraction], tuple[list[Fraction], list[Fraction]]] = {}
_extend_lock = threading.Lock()


def clear_caches():
    with _extend_lock:
        _rising_cache.clear()
        _qpoch_cache.clear()


def rising_factorial(a, n: int) -> Fraction:
    """(a)_n = a(a+1)...(a+n-1); 1 for n = 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    a = Fraction(a)
    prefix = _rising_cache.get(a)
    if prefix is None or len(prefix) <= n:
        with _extend_lock:
            prefix = _rising_cache.setdefault(a, [Fraction(1)])
            while len(prefix) <= n:
                prefix.append(prefix[-1] * (a + len(prefix) - 1))
    return prefix[n]


def q_pochhammer(a, q, n: int) -> Fraction:
    """(a;q)_n = (1-a)(1-qa)...(1-q^(n-1)a); 1 for n = 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    a, q = Fraction(a), Fraction(q)
    state = _qpoch_cache.get((a, q))
    if state is None or len(state[0]) <= n:
        with _extend_lock:
            state = _qpoch_cache.setdefault((a, q), ([Fraction(1)], [Fraction(1)]))
            prefix, power = state
            while len(prefix) <= n:
                prefix.append(prefix[-1] * (1 - power[0] * a))
                power[0] *= q
    return state[0][n]


def _is_nonpositive_integer(x: Fraction) -> bool:
    return x.denominator == 1 and x.numerator <= 0


class TermSequence:
    """A series described by its first term and its signed term ratio.

    term(n+1) = term(n) * ratio(n), or term(n) * ratio(base^n) for a
    q-series, whose ratio is rational in y = q^n; the ratio's integer
    polynomials are evaluated by Horner's rule at n, or homogeneously at
    the integer numerator and denominator of base^n.  The state
    (n, A, B, T) of index n has term(n) = A/B and term(n0) + ... + term(n)
    = T/B; stepping it by p/q = ratio(n) gives (n+1, A p, B q, T q + A p).
    """

    #: states kept: an enclosure reads the sum at ``last`` and the next two terms
    WINDOW = 3

    def __init__(self, first, ratio: RationalFunction, n0: int = 0, *, base=None):
        self.ratio = ratio
        self.n0 = n0
        self.base = None if base is None else Fraction(base)
        # one degree for both in y: base^(n degree) cancels
        width = max(len(ratio.num), len(ratio.den))
        self._num, self._den = (c + [0] * (width - len(c)) for c in (ratio.num, ratio.den))
        first = Fraction(first)
        self._start = (n0, first.numerator, first.denominator, first.numerator)
        self._window = [self._start]
        self._lock = threading.Lock()

    def factors(self, n: int) -> tuple[int, int]:
        """Integers p, q != 0 with term(n+1)/term(n) = p/q."""
        base = self.base
        if base is None:
            p, q = poly_eval(self.ratio.num, n), poly_eval(self.ratio.den, n)
        else:
            y, w = base.numerator ** n, base.denominator ** n
            p, q = _eval_int(self._num, y, w), _eval_int(self._den, y, w)
        if q == 0:
            raise TermError(f"ratio undefined at n={n}: its denominator vanishes")
        return p, q

    def state(self, n: int) -> tuple[int, int, int]:
        """(A, B, T) of index n: term(n) = A/B and the prefix sum through n is T/B."""
        if n < self.n0:
            raise ValueError(f"n must be >= {self.n0}")
        with self._lock:
            window = self._window
            if n < window[0][0]:
                window[:] = [self._start]
            while window[-1][0] < n:
                index, a, b, t = window[-1]
                p, q = self.factors(index)
                a, b = a * p, b * q
                window.append((index + 1, a, b, t * q + a))
                if len(window) > self.WINDOW:
                    del window[0]
            return window[n - window[0][0]][1:]

    def term(self, n: int) -> Fraction:
        a, b, _ = self.state(n)
        return Fraction(a, b)

    def partial_sum(self, last: int) -> Fraction:
        """term(n0) + ... + term(last)."""
        _, b, t = self.state(last)
        return Fraction(t, b)


def _eval_int(coeffs: Sequence[int], y: int, w: int) -> int:
    """w^(len(coeffs)-1) p(y/w), for the integer coefficients of p."""
    v, w_power = 0, 1
    for c in reversed(coeffs):
        v = v * y + c * w_power
        w_power *= w
    return v


def q_limit_check(a, b, n: int, q_sequence: Sequence[Fraction]) -> list[Fraction]:
    """(q^a;q)_n / (q^b;q)_n along a sequence of bases q in (0,1).

    Defined for integer a, b only: q^a has no exact meaning otherwise.  The
    caller compares the output against the plain ratio (a)_n/(b)_n, which
    the values approach as q -> 1.
    """
    a, b = Fraction(a), Fraction(b)
    if a.denominator != 1 or b.denominator != 1:
        raise ValueError("limit check restricted to integer parameters")
    if _is_nonpositive_integer(b):
        raise ValueError("b must not be a nonpositive integer")
    out = []
    for q in q_sequence:
        q = Fraction(q)
        if not 0 < q < 1:
            raise ValueError("q values must lie in (0,1)")
        den = q_pochhammer(q ** int(b), q, n)
        if den == 0:
            raise TermError(f"(q^{int(b)};q)_{n} vanishes at q={format_rational(q)}")
        out.append(q_pochhammer(q ** int(a), q, n) / den)
    return out
