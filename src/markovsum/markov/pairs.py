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
the stepwise solver work on.  A grid function is a scale S times a reduced
part, where S is known by its value and its two shift ratios
S_{x+1,z}/S_{x,z} and S_{x,z+1}/S_{x,z} (see :class:`Scale`).  The 3phi2
extension is all scale (reduced part 1); a bare evaluator is all reduced
part, on the unit scale S = 1 with ratios (1, 1).

The pair condition is checked on the reduced parts.  When U and V share
the scale S, with reduced parts u~ and v~,

    U_{x,z} - U_{x+1,z} - V_{x,z} + V_{x,z+1}
        = S_{x,z} (u~_{x,z} - u~_{x+1,z} sx - v~_{x,z} + v~_{x,z+1} sz),

where sx and sz are S's shift ratios at (x, z).  The bracket is formed from
small operands, and only when it is nonzero is it multiplied by S_{x,z},
which gives the residual of the values exactly.  A pair whose U and V do
not share a scale is put on the unit scale, where the bracket is the
residual of the values themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

from ..exact import format_rational


class EvaluationError(ArithmeticError):
    """A grid value is undefined; carries the lattice location."""

    def __init__(self, message: str, x: int | None = None, z: int | None = None):
        super().__init__(message)
        self.x = x
        self.z = z


ONE = Fraction(1)


def one(x: int, z: int) -> Fraction:
    """The constant 1: the reduced part of a grid function that is all scale."""
    return ONE


@dataclass(frozen=True)
class Scale:
    """A lattice function S known by its value and its two shift ratios.

    ``sx(x, z)`` is S_{x+1,z}/S_{x,z} and ``sz(x, z)`` is S_{x,z+1}/S_{x,z}.
    Ratios that are rational in q^x and q^z stay small where the values
    of S grow without bound.
    """

    value: Callable[[int, int], Fraction]
    sx: Callable[[int, int], Fraction]
    sz: Callable[[int, int], Fraction]


#: S = 1, shift ratios (1, 1): the scale of a grid function given by its values
UNIT_SCALE = Scale(one, one, one)


@dataclass(frozen=True)
class GridFunction:
    """Deterministic exact evaluator on lattice points (x, z).

    The value at (x, z) is ``scale.value(x, z) * evaluator(x, z)``: the
    evaluator gives the reduced part, and on the default unit scale it
    gives the value itself.  The same wrapper carries a pair's U and V and
    a term extension F, whose row F_{0,z} is the z-th series term.
    ``params`` records the parameters the evaluator closes over (e.g. the
    base q), which downstream consumers such as the stepwise solver need.
    """

    evaluator: Callable[[int, int], Fraction]
    label: str = ""
    params: Mapping[str, Fraction] = field(default_factory=dict)
    scale: Scale = UNIT_SCALE

    def reduced(self, x: int, z: int) -> Fraction:
        """The reduced part at (x, z): the value divided by the scale."""
        try:
            return self.evaluator(x, z)
        except ZeroDivisionError as exc:
            raise self._undefined(x, z, exc) from exc

    def __call__(self, x: int, z: int) -> Fraction:
        try:
            return self.scale.value(x, z) * self.evaluator(x, z)
        except ZeroDivisionError as exc:
            raise self._undefined(x, z, exc) from exc

    def _undefined(self, x: int, z: int, exc: ZeroDivisionError) -> EvaluationError:
        return EvaluationError(
            f"{self.label or 'grid function'} undefined at (x={x}, z={z}): {exc}", x, z)


@dataclass(frozen=True)
class MarkovPair:
    """A (U, V) pair expected to satisfy the telescoping condition.

    U and V that do not share a scale are rewrapped on the unit scale, so
    ``u.scale is v.scale`` always holds.
    """

    u: GridFunction
    v: GridFunction
    provenance: str = ""

    def __post_init__(self):
        if self.u.scale is not self.v.scale:
            object.__setattr__(self, "u", GridFunction(self.u, self.u.label, self.u.params))
            object.__setattr__(self, "v", GridFunction(self.v, self.v.label, self.v.params))


@dataclass(frozen=True)
class PairCheck:
    holds: bool
    residual: Fraction

    def to_json(self) -> dict:
        return {"holds": self.holds, "residual": format_rational(self.residual)}


def check_pair_condition(pair: MarkovPair, x: int, z: int) -> PairCheck:
    """Residual of U_{x,z} - U_{x+1,z} = V_{x,z} - V_{x,z+1} at one point.

    Formed on the reduced parts and scaled by S_{x,z} only when nonzero.
    """
    u, v, scale = pair.u.reduced, pair.v.reduced, pair.u.scale
    try:
        residual = u(x, z) - u(x + 1, z) * scale.sx(x, z) \
            - v(x, z) + v(x, z + 1) * scale.sz(x, z)
        if residual:
            residual *= scale.value(x, z)
    except ZeroDivisionError as exc:
        raise EvaluationError(f"pair undefined at (x={x}, z={z}): {exc}", x, z) from exc
    return PairCheck(residual == 0, residual)


@dataclass(frozen=True)
class RectangleSums:
    """The edge sums over [0,i] x [0,j]: the series' partial sums u_sum =
    sum_{z<j} U_{0,z}, v_sum = sum_{x<i} V_{x,0} and the far edges u_edge =
    sum_{z<j} U_{i,z}, v_edge = sum_{x<i} V_{x,j}."""

    u_sum: Fraction
    u_edge: Fraction
    v_sum: Fraction
    v_edge: Fraction

    @property
    def lhs(self) -> Fraction:
        return self.u_sum - self.u_edge

    @property
    def rhs(self) -> Fraction:
        return self.v_sum - self.v_edge

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def green_rectangle(pair: MarkovPair, i: int, j: int) -> RectangleSums:
    """Exact edge sums; lhs == rhs whenever the pair telescopes there."""
    if i < 1 or j < 1:
        raise ValueError("rectangle requires i, j >= 1")
    return RectangleSums(sum(pair.u(0, z) for z in range(j)), sum(pair.u(i, z) for z in range(j)),
                         sum(pair.v(x, 0) for x in range(i)), sum(pair.v(x, j) for x in range(i)))
