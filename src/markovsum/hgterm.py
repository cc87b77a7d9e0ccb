"""Hypergeometric and basic (q-)hypergeometric term algebra.

Series terms are built from rising factorials (a)_n = a(a+1)...(a+n-1) and
q-rising factorials (a;q)_n = (1-a)(1-qa)...(1-q^(n-1)a).  A plain series
sums (a_1..a_r)_n / (b_1..b_s, 1)_n * z^n, the trailing 1 supplying the n!
in the denominator.  The q-analogue carries the extra correction factor
((-1)^n q^(n(n-1)/2))^(1+s-r) and adopts |q| < 1 throughout; inputs in the
historical |q| > 1 convention must be rebased first (see the engine's
parameter map).

The q-series here always list the literal upper parameter 1 of their
source forms explicitly.  Since (1;q)_n vanishes for n >= 1, one literal
upper 1 is cancelled formally against the implicit lower 1 before
evaluating; a second upper 1 really does truncate the series.

Pochhammer prefixes are memoized as running products keyed by the
parameter (and base), so evaluating thousands of consecutive terms stays
linear.  A cache is only extended under a module lock, and a stored value
never changes afterwards, so lookups need no lock and concurrent callers
always get exact values.  A ``RatioSequence`` (first term and a term ratio
rational in n or in y = q^n) memoizes its terms the same way and keeps its
furthest prefix sum, both under a lock of its own.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Union

from .exact import format_rational, parse_rational
from .polys import RationalFunction

Spec = Union["HGSpec", "BHGSpec"]


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


@dataclass(frozen=True)
class HGSpec:
    """Parameters of a plain hypergeometric series term n -> term(n).

    The implicit lower parameter 1 (i.e. the n! denominator) is handled by
    the term formula and must not be listed.
    """

    upper: tuple[Fraction, ...]
    lower: tuple[Fraction, ...]
    z_arg: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "upper", tuple(Fraction(a) for a in self.upper))
        object.__setattr__(self, "lower", tuple(Fraction(b) for b in self.lower))
        object.__setattr__(self, "z_arg", Fraction(self.z_arg))
        for b in self.lower:
            if _is_nonpositive_integer(b):
                raise ValueError(f"lower parameter {format_rational(b)} is a nonpositive integer")

    def to_json(self) -> dict:
        return {
            "upper": [format_rational(a) for a in self.upper],
            "lower": [format_rational(b) for b in self.lower],
            "z": format_rational(self.z_arg),
        }

    @staticmethod
    def from_json(obj: dict) -> "HGSpec":
        return HGSpec(
            tuple(parse_rational(s) for s in obj["upper"]),
            tuple(parse_rational(s) for s in obj["lower"]),
            parse_rational(obj["z"]),
        )


@dataclass(frozen=True)
class BHGSpec:
    """Parameters of a basic hypergeometric series term, base |q| < 1."""

    upper: tuple[Fraction, ...]
    lower: tuple[Fraction, ...]
    q: Fraction
    z_arg: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "upper", tuple(Fraction(a) for a in self.upper))
        object.__setattr__(self, "lower", tuple(Fraction(b) for b in self.lower))
        object.__setattr__(self, "q", Fraction(self.q))
        object.__setattr__(self, "z_arg", Fraction(self.z_arg))
        if not abs(self.q) < 1:
            raise ValueError("base must satisfy |q| < 1")
        # lower parameters of the form q^(-k) are only detectable per n;
        # they are checked lazily at evaluation time.

    def to_json(self) -> dict:
        return {
            "upper": [format_rational(a) for a in self.upper],
            "lower": [format_rational(b) for b in self.lower],
            "q": format_rational(self.q),
            "z": format_rational(self.z_arg),
        }

    @staticmethod
    def from_json(obj: dict) -> "BHGSpec":
        return BHGSpec(
            tuple(parse_rational(s) for s in obj["upper"]),
            tuple(parse_rational(s) for s in obj["lower"]),
            parse_rational(obj["q"]),
            parse_rational(obj["z"]),
        )


def hg_term(spec: HGSpec, n: int) -> Fraction:
    """Exact term (a_1..a_r)_n / ((b_1..b_s)_n n!) * z^n."""
    num = Fraction(1)
    for a in spec.upper:
        num *= rising_factorial(a, n)
    den = rising_factorial(1, n)
    for b in spec.lower:
        f = rising_factorial(b, n)
        if f == 0:
            raise TermError(f"lower Pochhammer ({format_rational(b)})_{n} vanishes")
        den *= f
    return num / den * spec.z_arg ** n


def _bhg_lists(spec: BHGSpec) -> tuple[list[Fraction], list[Fraction]]:
    """Numerator/denominator parameter lists after the formal 1-cancellation."""
    one = Fraction(1)
    uppers = list(spec.upper)
    lowers = list(spec.lower)
    if one in uppers:
        uppers.remove(one)  # cancels the implicit lower 1
    else:
        lowers.append(one)
    return uppers, lowers


def bhg_term(spec: BHGSpec, n: int) -> Fraction:
    """Exact q-series term, including the ((-1)^n q^(n(n-1)/2))^(1+s-r) factor."""
    uppers, lowers = _bhg_lists(spec)
    num = Fraction(1)
    for a in uppers:
        num *= q_pochhammer(a, spec.q, n)
    den = Fraction(1)
    for b in lowers:
        f = q_pochhammer(b, spec.q, n)
        if f == 0:
            raise TermError(f"lower q-Pochhammer ({format_rational(b)};q)_{n} vanishes")
        den *= f
    exponent = 1 + len(spec.lower) - len(spec.upper)
    term = num / den * spec.z_arg ** n
    if exponent:
        term *= ((-1) ** n * spec.q ** (n * (n - 1) // 2)) ** exponent
    return term


@dataclass
class TermSequence:
    """A series as term/ratio evaluators from a first index.

    term(n+1) == term(n) * ratio(n) wherever both are defined; ratio(n)
    raises TermError when term(n) == 0.
    """

    term: Callable[[int], Fraction]
    ratio: Callable[[int], Fraction]
    n0: int = 0
    label: str = ""

    @staticmethod
    def from_ratio(first, ratio: RationalFunction, n0: int = 0, *, base=None) -> "RatioSequence":
        """The series with term(n0) = ``first`` and term ratio ``ratio`` (see RatioSequence)."""
        return RatioSequence(first, ratio, n0, base=base)


class RatioSequence:
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

    def _step(self, n: int) -> Fraction:
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
                    values.append(values[-1] * self._step(self.n0 + len(values) - 1))
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


def term_sequence(spec: Spec) -> TermSequence:
    """Term/ratio evaluators for a series spec, ratio in closed form."""
    if isinstance(spec, HGSpec):
        def term(n: int) -> Fraction:
            return hg_term(spec, n)

        def ratio(n: int) -> Fraction:
            if term(n) == 0:
                raise TermError(f"ratio undefined at n={n}: term is zero")
            r = spec.z_arg / (n + 1)
            for a in spec.upper:
                r *= (a + n)
            for b in spec.lower:
                r /= (b + n)
            return r

        return TermSequence(term, ratio, 0, "hg")

    if isinstance(spec, BHGSpec):
        uppers, lowers = _bhg_lists(spec)
        exponent = 1 + len(spec.lower) - len(spec.upper)

        def term(n: int) -> Fraction:
            return bhg_term(spec, n)

        def ratio(n: int) -> Fraction:
            if term(n) == 0:
                raise TermError(f"ratio undefined at n={n}: term is zero")
            qn = spec.q ** n
            r = spec.z_arg
            for a in uppers:
                r *= (1 - qn * a)
            for b in lowers:
                d = 1 - qn * b
                if d == 0:
                    raise TermError(f"ratio undefined at n={n}: factor (1-q^{n}*{format_rational(b)}) vanishes")
                r /= d
            if exponent:
                r *= (-qn) ** exponent
            return r

        return TermSequence(term, ratio, 0, "bhg")

    raise TypeError(f"not a series spec: {spec!r}")


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
