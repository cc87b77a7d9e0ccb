"""Series terms from one description, and the Pochhammer symbols of closed forms.

A ``TermSequence`` is a series described by its first term and its signed
term ratio, a quotient of integer polynomials in the index n or, for a
q-series, in y = q^n.  It steps the ratio in lowest terms: in n each
factor the ratio was described by that is found on both sides is
cancelled once, when the sequence is made, wherever it is positive at
every index from n0 on, so the steps keep their signs and zeros; a
q-series steps its ratio as described.  It sums on one unreduced integer
state (A, B, T), formed from that lowest-terms pair, with term = A/B and
prefix sum = T/B: a step multiplies by the integers p(n), q(n) of the
pair, with no gcd, and only a reader of a term or a sum forms a
``Fraction``.  In n these are plain Horner evaluations; for a q-series
the polynomials are evaluated homogeneously at the numerator and
denominator of q^n, both carried from step to step by one multiplication.

Many steps at once form a span (P, Q, T) by binary splitting (Haible and
Papanikolaou, 1998): two halves merge by three products, so reaching index
N costs a few multiplications of N-step integers instead of N steps on an
ever larger state.  A span is pure.  The sequence keeps the states of the
last three indices it reached, under a lock of its own, and reaches any
other index by one span from the nearest kept state at or below it (or
from n0).  ``first_index`` finds the first index that passes a monotone
test on its term by galloping on spans and bisecting the last one.

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
from math import gcd
from typing import Callable, Optional, Sequence

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


#: indices a span steps in one loop; a longer span is split in halves
LEAF = 32

#: bits of a state's denominator past which a term is reduced on a product
#: tree of its ratio's factors rather than by one gcd of the state.  Timed
#: on a 2-vCPU VM on the states of apery, markov-hurwitz (a = 1, whose
#: ratio in lowest terms is Apery's shifted by one index), ratio27-zeta3 and
#: az-zeta3: below 2^15 bits the gcd is 3 to 7 times faster (the tree steps
#: every factor again), the two cross between 150 000 and 300 000 bits,
#: and at 2^20 bits the tree is 3 to 4 times faster.
REDUCE_BITS = 1 << 18


class TermSequence:
    """A series described by its first term and its signed term ratio.

    term(n+1) = term(n) * ratio(n), or term(n) * ratio(base^n) for a
    q-series, whose ratio is rational in y = q^n; the ratio's integer
    polynomials are evaluated by Horner's rule at n, or homogeneously at
    the integer numerator and denominator of base^n.  The state
    (n, A, B, T) of index n has term(n) = A/B and term(n0) + ... + term(n)
    = T/B; stepping it by p/q = ratio(n) gives (n+1, A p, B q, T q + A p).

    p/q is ``stepped``: an n-series' ``ratio`` less each factor found on
    both sides that is positive at every index from n0 on (a linear vn + u
    with v n0 + u > 0, a quadratic with a negative discriminant), so a step
    where a shared factor vanishes still finds its denominator zero; a
    q-series' ``ratio`` itself, as in the catalog a gcd in y cost more than
    it saved.  The states are canonical: A = A(n0) p(n0) ... p(n-1), B
    likewise, and T = the sum of A(j) B/B(j) over j <= n, whatever route
    reached them.
    """

    #: states kept: an enclosure reads the sum at ``last`` and the next two terms
    WINDOW = 3

    def __init__(self, first, ratio: RationalFunction, n0: int = 0, *, base=None):
        self.ratio = ratio
        self.n0 = n0
        self.base = None if base is None else Fraction(base)
        self.stepped = ratio if base is not None else ratio.cancelled(n0)
        num, den = self.stepped.num, self.stepped.den
        if base is not None:
            # one degree for both in y: base^(n degree) cancels
            width = max(len(num), len(den))
            num, den = (c + [0] * (width - len(c)) for c in (num, den))
        # highest degree first, as Horner's rule reads them
        self._num, self._den = tuple(reversed(num)), tuple(reversed(den))
        first = Fraction(first)
        self._start = (n0, first.numerator, first.denominator, first.numerator)
        self._window = [self._start]
        self._lock = threading.Lock()

    def _leaf(self, m: int, n: int, steps: Optional[list] = None) -> tuple[int, int, int]:
        """``span(m, n)``, stepped index by index; each step's (p, q) is
        appended to ``steps`` when it is given."""
        num, den = self._num, self._den
        big_p, big_q, big_t = 1, 1, 0
        if self.base is None:
            for i in range(m, n):
                p = q = 0
                for c in num:
                    p = p * i + c
                for c in den:
                    q = q * i + c
                if not q:
                    raise TermError(f"ratio undefined at n={i}: its denominator vanishes")
                big_t = big_t * q + big_p * p
                big_p *= p
                big_q *= q
                if steps is not None:
                    steps.append((p, q))
            return big_p, big_q, big_t
        step_y, step_w = self.base.numerator, self.base.denominator
        y, w = step_y ** m, step_w ** m
        for i in range(m, n):
            p = q = 0
            w_power = 1
            for a, b in zip(num, den):
                p = p * y + a * w_power
                q = q * y + b * w_power
                w_power *= w
            if not q:
                raise TermError(f"ratio undefined at n={i}: its denominator vanishes")
            big_t = big_t * q + big_p * p
            big_p *= p
            big_q *= q
            if steps is not None:
                steps.append((p, q))
            y *= step_y
            w *= step_w
        return big_p, big_q, big_t

    def _node(self, m: int, n: int, keep: bool = False) -> tuple:
        """(P, Q, T, halves, steps) over [m, n), split at (m + n) // 2 down to
        ``LEAF`` indices.  When ``keep``, a split node holds its two halves'
        nodes and a leaf the (p, q) of its steps; otherwise both are None."""
        if n - m <= LEAF:
            steps = [] if keep else None
            return (*self._leaf(m, n, steps), None, steps)
        middle = (m + n) // 2
        left, right = self._node(m, middle, keep), self._node(middle, n, keep)
        p1, q1, t1 = left[:3]
        p2, q2, t2 = right[:3]
        return p1 * p2, q1 * q2, t1 * q2 + p1 * t2, (left, right) if keep else None, None

    def span(self, m: int, n: int) -> tuple[int, int, int]:
        """(P, Q, T) over the steps m, ..., n-1: the state (A, B, S) of index m
        becomes (A P, B Q, S Q + A T) at index n.

        Binary splitting: the halves' spans merge as P = P1 P2, Q = Q1 Q2,
        T = T1 Q2 + P1 T2, and below ``LEAF`` indices the steps run in one
        loop.  Pure: it reads only the description.
        """
        if not self.n0 <= m <= n:
            raise ValueError(f"need {self.n0} <= m <= n")
        return self._node(m, n)[:3]

    def state(self, n: int) -> tuple[int, int, int]:
        """(A, B, T) of index n: term(n) = A/B and the prefix sum through n is T/B.

        One span from the nearest kept state at or below n (or from n0).
        """
        if n < self.n0:
            raise ValueError(f"n must be >= {self.n0}")
        with self._lock:
            kept = max((s for s in self._window if s[0] <= n), default=self._start)
            if kept[0] != n:
                kept = self._keep(self._apply(kept, n))
            return kept[1:]

    def _apply(self, state: tuple, n: int) -> tuple:
        index, a, b, t = state
        p, q, s = self.span(index, n)
        return n, a * p, b * q, t * q + a * s

    def _keep(self, state: tuple) -> tuple:
        """Keep a state as the last one reached; the caller holds the lock."""
        window = self._window
        window[:] = [s for s in window if s[0] != state[0]]
        window.append(state)
        if len(window) > self.WINDOW:
            del window[0]
        return state

    def first_index(self, start: int, stop: int, excess: Callable[[int, int, int], int],
                    lead: int = WINDOW - 1) -> Optional[int]:
        """The least e in [start, stop] with excess(e, A, B) <= 0 for the term
        A/B = term(e + lead) (by default the last one an enclosure after e
        reads), given a test that holds at every index past one where it
        holds; None when it fails at stop.

        ``excess`` is about the number of bits by which the term must still
        shrink.  The search gallops from ``start`` on spans of doubling
        length, each cut short where the last span's shrinkage, carried on,
        meets the test; it bisects the first span whose end passes on that
        span's own split tree, and keeps the state of the index found.
        Plain doubling would overshoot by up to the last span's length: on a
        2-vCPU VM it took ``compute apery --digits 10000`` from 0.7 to 1.65 s.
        """
        def need(e, a, b):
            p, q, _ = self._leaf(e, e + lead)
            return excess(e, a * p, b * q)

        if start > stop:
            return None
        cursor = (start, *self.state(start))
        behind, length = need(*cursor[:3]), 1
        while behind > 0:
            index, a, b, t = cursor
            if index >= stop:
                return None
            end = min(index + length, stop)
            node = self._node(index, end, keep=True)
            p, q, s = node[:3]
            ahead = need(end, a * p, b * q)
            if ahead <= 0:
                cursor = self._bisect(node, cursor, end, excess, lead)
                break
            cursor = (end, a * p, b * q, t * q + a * s)
            length = 2 * (end - index)
            if behind > ahead:
                length = min(length, -(-ahead * (end - index) // (behind - ahead)))
            behind = ahead
        with self._lock:
            self._keep(cursor)
        return cursor[0]

    def _bisect(self, node: tuple, state: tuple, n: int, excess, lead: int) -> tuple:
        """The first state past ``state`` in the node's span [m, n) whose term
        ``lead`` indices on passes, given that n passes and m does not."""
        m = state[0]
        while node[3] is not None:
            left, right = node[3]
            middle = (m + n) // 2
            _, a, b, t = state
            p, q, s = left[:3]
            ahead = self._leaf(middle, middle + lead)
            if excess(middle, a * p * ahead[0], b * q * ahead[1]) <= 0:
                node, n = left, middle
            else:
                node, state, m = right, (middle, a * p, b * q, t * q + a * s), middle
        # a leaf: its steps, and the ``lead`` after it, one by one
        steps = list(node[4])
        self._leaf(n, n + lead, steps)
        _, a, b, t = state
        for k, (p, q) in enumerate(steps[:n - m], 1):
            a, b, t = a * p, b * q, t * q + a * p
            ahead_p = ahead_q = 1
            for p_ahead, q_ahead in steps[k:k + lead]:
                ahead_p, ahead_q = ahead_p * p_ahead, ahead_q * q_ahead
            if m + k == n or excess(m + k, a * ahead_p, b * ahead_q) <= 0:
                return m + k, a, b, t

    def term(self, n: int) -> Fraction:
        """term(n) in lowest terms.

        Past ``REDUCE_BITS`` the gcd of the state would cost time quadratic
        in its size; the ratio's factors are then reduced on a product tree,
        where each merge takes gcds of reduced halves only.
        """
        a, b, _ = self.state(n)
        if b.bit_length() <= REDUCE_BITS:
            return Fraction(a, b)
        p, q = self._reduced_ratio(self.n0, n)
        return Fraction(self._start[1] * p, self._start[2] * q)

    def _reduced_ratio(self, m: int, n: int) -> tuple[int, int]:
        """Coprime p, q with p/q = ratio(m) ... ratio(n-1)."""
        if n - m <= LEAF:
            p, q, _ = self._leaf(m, n)
            g = gcd(p, q)
            return p // g, q // g
        middle = (m + n) // 2
        (p1, q1), (p2, q2) = self._reduced_ratio(m, middle), self._reduced_ratio(middle, n)
        g1, g2 = gcd(p1, q2), gcd(p2, q1)
        return (p1 // g1) * (p2 // g2), (q1 // g2) * (q2 // g1)

    def partial_sum(self, last: int) -> Fraction:
        """term(n0) + ... + term(last)."""
        _, b, t = self.state(last)
        return Fraction(t, b)


def q_limit_check(a, b, n: int, q_sequence: Sequence[Fraction]) -> list[Fraction]:
    """(q^a;q)_n / (q^b;q)_n along a sequence of bases q in (0,1).

    Defined for integer a, b only: q^a has no exact meaning otherwise.  The
    caller compares the output against the plain ratio (a)_n/(b)_n, which
    the values approach as q -> 1.
    """
    a, b = Fraction(a), Fraction(b)
    if a.denominator != 1 or b.denominator != 1:
        raise ValueError("limit check restricted to integer parameters")
    if b <= 0:
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
