"""Grid-function pairs and the discrete Green identity.

A pair of functions U, V on the nonnegative integer lattice is *telescoping*
when U_{x,z} - U_{x+1,z} = V_{x,z} - V_{x,z+1} at every point.  Summing that
condition over a rectangle gives the exact boundary identity

    sum_{z<j} U_{0,z} - sum_{z<j} U_{i,z}
        = sum_{x<i} V_{x,0} - sum_{x<i} V_{x,j},

the engine of every series transformation in this package: when the edge
sums die off, the column series of U and the row series of V share a sum.
Everything here is exact; residuals are rationals, equality means equality.

One wrapper, :class:`GridFunction`, carries every lattice function of the
package: a pair's U and V, and the term extension F that certificates and
the stepwise solver work on.  A grid function is a scale S, stepped from
its shift ratios (see :class:`Scale`), times a reduced part, which its
evaluator gives as the tuple of small rational factors it is made of.
Every built-in extension is all scale (no factors); a bare evaluator gives
one factor, its value, on the unit scale S = 1 with ratios (1, 1).  A
pair's shift ratio may be a factor tuple too.  Factors are multiplied
only where a value is needed.

The pair condition is checked on the reduced parts.  When U and V share
the scale S, with reduced parts u~ and v~,

    U_{x,z} - U_{x+1,z} - V_{x,z} + V_{x,z+1}
        = S_{x,z} (u~_{x,z} - u~_{x+1,z} sx - v~_{x,z} + v~_{x,z+1} sz),

where sx and sz are S's shift ratios at (x, z).  Each of the four terms
reaches the bracket as its factors, never as a reduced product: the
bracket is one integer numerator over the product of their denominators
(:func:`bracket_residual`), tested for zero before any gcd; only a
nonzero bracket is reduced and multiplied by S_{x,z}, which gives the
residual of the values exactly.  A pair whose U and V do not share a
scale is put on the unit scale, where the bracket is the residual of the
values themselves.

The Green rectangle's four edge sums are formed the same way, on integers
(:func:`green_rectangle`).  Each edge is walked once, as one unreduced
integer state (sum numerator, scale numerator, common denominator), which
each point multiplies by the small numerators and denominators of its
reduced part's factors and of the scale's step ratio, as a term
sequence's span does; no gcd of the state is taken on the way.  A sum is
reduced only where it is read: ``verify-pair`` reads the two sides, one
gcd each.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, prod
from typing import Callable, Mapping


class EvaluationError(ArithmeticError):
    """A grid value is undefined; carries the lattice location."""

    def __init__(self, message: str, x: int | None = None, z: int | None = None):
        super().__init__(message)
        self.x = x
        self.z = z


ONE, ZERO = Fraction(1), Fraction(0)


def one(x: int, z: int) -> Fraction:
    """The constant 1: the shift ratio of a scale that does not move."""
    return ONE


def no_factors(x: int, z: int) -> tuple:
    """The reduced part of a grid function that is all scale: no factors."""
    return ()


def as_factors(value) -> tuple:
    """A value, or a tuple of rational factors, as a tuple of factors."""
    return value if type(value) is tuple else (value,)


def product(factors: tuple) -> Fraction:
    """The product of rational factors: 1 for none, the factor itself for one."""
    if not factors:
        return ONE
    value = factors[0]
    for factor in factors[1:]:
        value *= factor
    return value


def memo(table: dict, key: int, value: Callable[[], Fraction]) -> Fraction:
    """table[key], storing value() on a miss: the memo of a one-index lattice value.

    Each entry is a pure function of its key, so threads racing on a miss
    store the same value and need no lock; a value() that raises stores nothing.
    """
    cached = table.get(key)
    if cached is None:
        cached = table[key] = value()
    return cached


class Scale:
    """A lattice function S with S_{0,0} = 1, known by its two shift ratios.

    ``sx(x, z)`` is S_{x+1,z}/S_{x,z} and ``sz(x, z)`` is S_{x,z+1}/S_{x,z},
    each a value, or for a pair's scale a tuple of rational factors.
    ``value`` reads one point: an unknown S_{x,z} is stepped by sz from
    S_{x,z-1} in column 0 or when that is stored, else by sx from S_{x-1,z},
    so the table holds only the points read and a path to them.  The table
    grows under the scale's own lock and never changes a stored value, so
    threads may share a scale.  Every step, of ``value`` or of an edge walk
    of :func:`green_rectangle` (which keeps its own integer state and no
    table), takes its ratio from :meth:`ratio`, where a ZeroDivisionError
    is reported as an EvaluationError at the point stepped to.
    """

    def __init__(self, sx: Callable[[int, int], Fraction], sz: Callable[[int, int], Fraction]):
        self.sx, self.sz = sx, sz
        self._table: dict[tuple[int, int], Fraction] = {(0, 0): ONE}
        self._lock = threading.Lock()

    def value(self, x: int, z: int) -> Fraction:
        """S_{x,z}; a ratio that raises on a step raises for every point stepped through it."""
        if x < 0 or z < 0:
            raise ValueError("lattice points need x, z >= 0")
        table = self._table
        value = table.get((x, z))
        if value is None:
            with self._lock:
                path = []  # unknown points back from (x, z) to a stored one
                while (x, z) not in table:
                    path.append((x, z))
                    if x and (z == 0 or (x, z - 1) not in table):
                        x -= 1
                    else:
                        z -= 1
                value = table[x, z]
                for nx, nz in reversed(path):
                    value *= product(self.ratio(x, z, nx, nz))
                    x, z = nx, nz
                    table[x, z] = value
        return value

    def ratio(self, x: int, z: int, nx: int, nz: int) -> tuple:
        """S_{nx,nz}/S_{x,z} as a tuple of factors, one step from (x, z): by sz
        when nx == x, else by sx.  A ZeroDivisionError in the ratio is
        reported as an EvaluationError at (nx, nz), the point stepped to."""
        try:
            return as_factors(self.sz(x, z) if nx == x else self.sx(x, z))
        except ZeroDivisionError as exc:
            raise EvaluationError(f"scale undefined at (x={nx}, z={nz}): {exc}", nx, nz) from exc


class _UnitScale(Scale):
    """S = 1, whose values need no table."""

    def value(self, x: int, z: int) -> Fraction:
        return ONE


#: S = 1, shift ratios (1, 1): the scale of a grid function given by its values
UNIT_SCALE = _UnitScale(one, one)


def _linear_product(roots: tuple, k):
    """prod (d k + n) over the roots n/d, given as (d, n), by a loop (faster than math.prod)."""
    value = 1
    for d, n in roots:
        value *= d * k + n
    return value


class Kernel:
    """The hypergeometric kernel F_{x,z} = sign^z prod (u)_z / prod (l)_{x+z},
    F_{0,0} = 1, by its shift ratios rx = 1/lower(x+z) and rz = sign
    upper(z)/lower(x+z), with upper(k) = prod (k+u) and lower(k) = prod (k+l).
    A root n/d is kept as the integer factor d k + n, and each side over the
    product of its d: at integers a ratio is one ``Fraction`` of two integers,
    and on ``polys.Factors`` symbols each lower root stays one divisor."""

    def __init__(self, label: str, upper: tuple, lower: tuple, sign: int = 1):
        self.label, self.sign = label, sign
        self._upper = tuple((r.denominator, r.numerator) for r in map(Fraction, upper))
        self._lower = tuple((r.denominator, r.numerator) for r in map(Fraction, lower))
        self._upper_den = prod(d for d, _ in self._upper)
        self._lower_den = prod(d for d, _ in self._lower)

    def rx(self, x, z):
        return self._over_lower(self._lower_den, 1, x + z, x + 1, z)

    def rz(self, x, z):
        top = self.sign * self._lower_den * _linear_product(self._upper, z)
        return self._over_lower(top, self._upper_den, x + z, x, z + 1)

    def _over_lower(self, top, den, k, x: int, z: int):
        """top / (den prod (d k + n)) over the lower roots, F_{x,z}'s last lower factors."""
        bottom = den * _linear_product(self._lower, k)
        if not bottom:  # never on symbols: no lower factor is the zero polynomial
            raise EvaluationError(f"{self.label} undefined at (x={x}, z={z}): lower rising "
                                  f"factorial vanishes at (x={x}, z={z})", x, z)
        return Fraction(top, bottom) if isinstance(bottom, int) else top / bottom


@dataclass(frozen=True)
class GridFunction:
    """Deterministic exact evaluator on lattice points (x, z).

    The value at (x, z) is ``scale.value(x, z)`` times the reduced part,
    which the evaluator gives as a value or as a tuple of rational factors
    (none for a function that is all scale, :func:`no_factors`); on the
    default unit scale the reduced part is the value itself.  ``params``
    records the parameters the evaluator closes over (e.g. the base q),
    which the stepwise solver needs.
    """

    evaluator: Callable[[int, int], Fraction | tuple]
    label: str = ""
    params: Mapping[str, Fraction] = field(default_factory=dict)
    scale: Scale = UNIT_SCALE

    def factors(self, x: int, z: int) -> tuple:
        """The reduced part at (x, z) as a tuple of rational factors."""
        try:
            return as_factors(self.evaluator(x, z))
        except ZeroDivisionError as exc:
            raise EvaluationError(f"{self.label or 'grid function'} undefined at "
                                  f"(x={x}, z={z}): {exc}", x, z) from exc

    def reduced(self, x: int, z: int) -> Fraction:
        """The reduced part at (x, z): the value divided by the scale."""
        return product(self.factors(x, z))

    def __call__(self, x: int, z: int) -> Fraction:
        return self.scale.value(x, z) * self.reduced(x, z)


@dataclass(frozen=True)
class MarkovPair:
    """A (U, V) pair expected to satisfy the telescoping condition.

    U and V that do not share a scale are rewrapped on the unit scale, so
    ``u.scale is v.scale`` always holds.
    """

    u: GridFunction
    v: GridFunction

    def __post_init__(self):
        if self.u.scale is not self.v.scale:
            object.__setattr__(self, "u", GridFunction(self.u, self.u.label, self.u.params))
            object.__setattr__(self, "v", GridFunction(self.v, self.v.label, self.v.params))


@dataclass(frozen=True)
class PairCheck:
    holds: bool
    residual: Fraction


def over(factors: tuple) -> tuple[int, int]:
    """The product of rational factors as (numerator, positive denominator), unreduced."""
    n, d = 1, 1
    for factor in factors:
        n *= factor.numerator
        d *= factor.denominator
    return n, d


def bracket_residual(scale: Scale, x: int, z: int, a: tuple, b: tuple, c: tuple,
                     d: tuple) -> Fraction:
    """S_{x,z} (a - b - c + d), each term given as a tuple of rational factors.

    The four terms are put over the product of their denominators as one
    integer numerator, which is tested for zero before any gcd; only a
    nonzero numerator is reduced, as a ``Fraction``, and multiplied by
    S_{x,z}, the one value of the scale read.
    """
    (an, ad), (bn, bd), (cn, cd), (dn, dd) = over(a), over(b), over(c), over(d)
    lower, upper = ad * bd, cd * dd
    numerator = (an * bd - bn * ad) * upper + (dn * cd - cn * dd) * lower
    if not numerator:
        return ZERO
    return Fraction(numerator, lower * upper) * scale.value(x, z)


def check_pair_condition(pair: MarkovPair, x: int, z: int) -> PairCheck:
    """Residual of U_{x,z} - U_{x+1,z} = V_{x,z} - V_{x,z+1} at one point."""
    u, v, scale = pair.u.factors, pair.v.factors, pair.u.scale
    try:
        residual = bracket_residual(scale, x, z, u(x, z), u(x + 1, z) + as_factors(scale.sx(x, z)),
                                    v(x, z), v(x, z + 1) + as_factors(scale.sz(x, z)))
    except ZeroDivisionError as exc:
        raise EvaluationError(f"pair undefined at (x={x}, z={z}): {exc}", x, z) from exc
    return PairCheck(residual == 0, residual)


def _difference(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """a - b for (numerator, positive denominator) pairs, unreduced."""
    (an, ad), (bn, bd) = a, b
    return an * bd - bn * ad, ad * bd


@dataclass(frozen=True)
class RectangleSums:
    """The edge sums over [0,i] x [0,j]: the series' partial sums u_sum =
    sum_{z<j} U_{0,z}, v_sum = sum_{x<i} V_{x,0} and the far edges u_edge =
    sum_{z<j} U_{i,z}, v_edge = sum_{x<i} V_{x,j}.

    ``unreduced`` holds the four sums in that order as the edge walks left
    them, (numerator, positive denominator) pairs of integers.  A sum is
    reduced to a ``Fraction`` only where it is read, with one gcd; each side
    is reduced once, on first read, and ``equal`` compares the reduced sides.
    """

    unreduced: tuple[tuple[int, int], ...]

    @property
    def u_sum(self) -> Fraction:
        return Fraction(*self.unreduced[0])

    @property
    def u_edge(self) -> Fraction:
        return Fraction(*self.unreduced[1])

    @property
    def v_sum(self) -> Fraction:
        return Fraction(*self.unreduced[2])

    @property
    def v_edge(self) -> Fraction:
        return Fraction(*self.unreduced[3])

    @cached_property
    def lhs(self) -> Fraction:
        u_sum, u_edge = self.unreduced[:2]
        return Fraction(*_difference(u_sum, u_edge))

    @cached_property
    def rhs(self) -> Fraction:
        v_sum, v_edge = self.unreduced[2:]
        return Fraction(*_difference(v_sum, v_edge))

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def _walk(function: GridFunction, start: tuple[int, int], x: int, z: int, along_x: bool, n: int,
          past: bool = False) -> tuple[tuple[int, int], tuple[int, int]]:
    """The sum of ``function`` over n points from (x, z) along one axis,
    where the scale is S_{x,z} = start, an unreduced (numerator, denominator).

    Returns the sum and the scale at the last point, or one step past it
    when ``past``, each as an unreduced (numerator, positive denominator).
    The state (t, a, b) holds the sum so far as t/b and S at the current
    point as a/b.  A point's reduced part rn/rd and the scale's step sn/sd
    to the next point are products of small factors (``over``); b grows by
    the small lcm of rd and sd, so each point multiplies the big state by
    small integers only, as a term sequence's span does, and nothing big is
    reduced.
    """
    factors, ratio = function.factors, function.scale.ratio
    (a, b), t = start, 0
    for k in range(n):
        rn, rd = over(factors(x, z))
        sn = sd = 1  # no step past the last point unless asked
        if past or k < n - 1:
            nx, nz = (x + 1, z) if along_x else (x, z + 1)
            sn, sd = over(ratio(x, z, nx, nz))
            x, z = nx, nz
        g = gcd(rd, sd)
        t = t * (rd // g * sd) + a * (rn * (sd // g))
        a *= rd // g * sn
        b *= rd // g * sd
    return (t, b), (a, b)


def green_rectangle(pair: MarkovPair, i: int, j: int) -> RectangleSums:
    """Exact edge sums; lhs == rhs whenever the pair telescopes there.

    Each edge is walked once on the pair's scale (:func:`_walk`): column 0
    and row 0 from S_{0,0} = 1, each one step past its end, to S_{0,j} and
    S_{i,0}, where the walks of row j and column i start.  The scale's
    table is neither read nor filled; an undefined ratio on a step raises
    the EvaluationError that ``Scale.value`` raises for the point stepped to.
    """
    if i < 1 or j < 1:
        raise ValueError("rectangle requires i, j >= 1")
    u, v = pair.u, pair.v
    u_sum, corner_0j = _walk(u, (1, 1), 0, 0, False, j, past=True)
    v_sum, corner_i0 = _walk(v, (1, 1), 0, 0, True, i, past=True)
    u_edge, _ = _walk(u, corner_i0, i, 0, False, j)
    v_edge, _ = _walk(v, corner_0j, 0, j, True, i)
    return RectangleSums((u_sum, u_edge, v_sum, v_edge))
