"""Series terms from one description, and the Pochhammer symbols of closed forms.

A ``TermSequence`` is a series described by its first term and its signed
term ratio, rational in the index n or, for a q-series, in y = q^n.  Its
terms follow by memoized recurrence, and it keeps its furthest prefix sum;
both only ever grow, under a lock of the sequence's own.

Rising factorials (a)_n = a(a+1)...(a+n-1) and q-rising factorials
(a;q)_n = (1-a)(1-qa)...(1-q^(n-1)a), |q| < 1, serve the closed forms: the
Schellbach terms, the solver's grid functions and the oracles that check
the recurrences.  Their prefixes are memoized as running products
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
from .polys import RationalFunction


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
    q-series, whose ratio is rational in y = q^n; the ratio's polynomials
    are scaled to integers and evaluated at the integer numerator and
    denominator of n or base^n.  The terms, and the furthest prefix sum as
    one (index, value) pair, only ever grow; a shorter sum starts at n0.
    """

    def __init__(self, first, ratio: RationalFunction, n0: int = 0, *, base=None):
        self.ratio = ratio
        self.n0 = n0
        self.base = None if base is None else Fraction(base)
        coeffs = ratio.integer_coefficients()
        width = max(map(len, coeffs))  # one degree for both: base^(n degree) cancels
        self._num, self._den = (c + [0] * (width - len(c)) for c in coeffs)
        self._values = [Fraction(first)]
        self._sum = (n0, self._values[0])
        self._lock = threading.Lock()

    def step(self, n: int) -> Fraction:
        """term(n+1)/term(n), from the ratio alone."""
        base = self.base
        y, w = (n, 1) if base is None else (base.numerator ** n, base.denominator ** n)
        d = _eval_int(self._den, y, w)
        if d == 0:
            raise TermError(f"ratio undefined at n={n}: its denominator vanishes")
        return Fraction(_eval_int(self._num, y, w), d)

    def term(self, n: int) -> Fraction:
        k = n - self.n0
        if k < 0:
            raise ValueError(f"n must be >= {self.n0}")
        values = self._values
        if k >= len(values):
            with self._lock:
                while len(values) <= k:
                    values.append(values[-1] * self.step(self.n0 + len(values) - 1))
        return values[k]

    def partial_sum(self, last: int) -> Fraction:
        """term(n0) + ... + term(last)."""
        self.term(last)
        with self._lock:
            index, value = self._sum
            if index <= last:
                value = sum(self._values[index - self.n0 + 1:last - self.n0 + 1], value)
                self._sum = (last, value)
                return value
        return sum(self._values[:last - self.n0 + 1], Fraction(0))


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
