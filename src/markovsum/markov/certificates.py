"""Telescoping certificates and the bridge to explicit pairs.

A certificate packages an extension F with rational-function data
(P, Q, R) satisfying

    Q(x) F_{x+1,z} - P(x) F_{x,z} = R(x,z+1) F_{x,z+1} - R(x,z) F_{x,z}

at every lattice point.  (Certificate producers conventionally write the
recurrence operator side as P + Q X; matching the identity against the
multiplier construction below forces the relative minus sign on P used
here, and the built-in fixture only verifies under this convention.)

The identity is checked on F's reduced part F~ = F/S, with S the scale of
F and sx, sz its shift ratios (see :class:`~markovsum.markov.pairs.Scale`):
the defect is S_{x,z} times the bracket of small operands

    Q(x) F~_{x+1,z} sx - P(x) F~_{x,z} - R(x,z+1) F~_{x,z+1} sz + R(x,z) F~_{x,z}.

The bracket is formed as the pair condition's is, by
:func:`~markovsum.markov.pairs.bracket_residual`: one integer numerator
over the product of the operands' denominators, tested for zero before
any gcd, and reduced and multiplied by S_{x,z}, giving the defect
exactly, only when nonzero.

Given such data, an undetermined factor per column turns the identity into
a telescoping pair: with A_0 = 1,

    A_{x+1} = A_x Q(x)/P(x),     M_{x,z} = A_x R(x,z)/P(x),
    U_{x,z} = A_x F_{x,z},       V_{x,z} = M_{x,z} F_{x,z}.

The recurrence for A is accumulated by :class:`ColumnMultipliers` alone,
which memoizes 1/P(x) for A, V and M and reports a zero of P there;
every transformation engine (:class:`Transformation`) uses the same class
for its own A_x, so a pair and its certificate are two views of one set of
evaluators.  The induced pair lives on the scale A_x S_{x,z}, whose
x-ratio is (Q(x)/P(x)) sx, with reduced parts U~ = F~ and V~ = (R/P) F~.
Both reach the pair condition's bracket as the factors they are made of,
(A_{x+1}/A_x, sx) and (1/P(x), R(x, z), F~), so a checked point forms no
product of them and no gcd beyond the evaluators' own.

A certificate is a set of exact evaluators.  One built by a transformation
engine (:class:`Transformation`: the 3phi2 engine, or Schellbach's
classical one) also carries a proof (:class:`BracketProof`): at the
engine's parameters, the bracket above, formed by those same evaluators
on symbols for x and z, expands to the zero polynomial, so the identity
holds at every point where none of the bracket's denominators vanishes.
:func:`verify_certificate` answers a grid from the proof when the engine
decides that no denominator vanishes on it (the 3phi2 engine decides this
along x and along x + z, the classical engine for its linear divisors
n + d(x + z) by one integer test each); otherwise, and for every
certificate without a proof (one built from parts, copied by
``dataclasses.replace``, or a black-box extension), it scans the grid
point by point.  With a parameterized family it repeats
this at seeded random parameter tuples.  Certificate *discovery* is out
of scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional

from ..exact import format_rational
from ..polys import Factors, RationalFunction, degrees, divisor_lcm, factored_ratio
from .pairs import (EvaluationError, GridFunction, MarkovPair, Scale, bracket_residual, memo,
                    no_factors, one)


@dataclass(frozen=True)
class Certificate:
    """Extension F with telescoping data (P, Q, R).

    ``proof`` is set only by the engine that owns these evaluators (see
    ``Transformation.certificate``).  A certificate built from
    parts, or copied by ``dataclasses.replace``, has none.
    """

    extension: GridFunction
    p: Callable[[int], Fraction]
    q: Callable[[int], Fraction]
    r: Callable[[int, int], Fraction]
    label: str = ""
    proof: Optional[BracketProof] = field(default=None, init=False, repr=False, compare=False)

    def residual(self, x: int, z: int) -> Fraction:
        """Defect of the certificate identity at one lattice point."""
        f, scale = self.extension.factors, self.extension.scale
        try:
            return bracket_residual(
                scale, x, z, (self.q(x), *f(x + 1, z), scale.sx(x, z)), (self.p(x), *f(x, z)),
                (self.r(x, z + 1), *f(x, z + 1), scale.sz(x, z)), (self.r(x, z), *f(x, z)))
        except ZeroDivisionError as exc:
            raise EvaluationError(f"certificate undefined at (x={x}, z={z}): {exc}", x, z) from exc


@dataclass(frozen=True)
class FailurePoint:
    x: int
    z: int
    residual: Fraction
    instance: str = ""

    def to_json(self) -> dict:
        out = {"x": self.x, "z": self.z, "residual": format_rational(self.residual)}
        if self.instance:
            out["instance"] = self.instance
        return out


@dataclass(frozen=True)
class Verdict:
    """The outcome of ``verify_certificate``: ``checks`` counts the lattice
    points covered, and ``proved`` says that every grid was answered by its
    certificate's proof rather than scanned.  ``proved`` is not serialized."""

    passed: bool
    checks: int
    first_failure: Optional[FailurePoint] = None
    proved: bool = False

    def to_json(self) -> dict:
        out = {"passed": self.passed, "checks": self.checks}
        if self.first_failure is not None:
            out["first_failure"] = self.first_failure.to_json()
        return out


def _check_grid(cert: Certificate, x_max: int, z_max: int
                ) -> tuple[Optional[FailurePoint], int, bool]:
    """(first failing point, points covered, whether the proof answered).

    A certificate whose proof covers the grid is answered by it; any other
    is scanned point by point in row order, up to the first failure.
    """
    if cert.proof is not None and cert.proof.covers(x_max, z_max):
        return None, (x_max + 1) * (z_max + 1), True
    checks = 0
    for x in range(x_max + 1):
        for z in range(z_max + 1):
            res = cert.residual(x, z)
            checks += 1
            if res != 0:
                return FailurePoint(x, z, res), checks, False
    return None, checks, False


def verify_certificate(cert: Certificate, x_max: int, z_max: int, *,
                       family: Optional[Callable[..., Certificate]] = None,
                       random_points: int = 0, seed: int = 0) -> Verdict:
    """Check the certificate identity exactly on a grid.

    With a ``family`` (a parameter tuple -> Certificate factory) the check
    is repeated at ``random_points`` seeded pseudo-random rational
    parameter tuples, each on the ``RANDOM_GRID`` lattice.  Each grid is
    answered by its certificate's proof when that covers it, and scanned
    otherwise; either way ``checks`` counts the points covered, up to the
    first failing point, which the verdict carries.
    """
    if x_max < 0 or z_max < 0:
        raise ValueError("grid must be nonempty")
    failure, checks, proved = _check_grid(cert, x_max, z_max)
    if failure is not None:
        return Verdict(False, checks, failure)
    if random_points:
        if family is None:
            raise ValueError("random parameter checks need a certificate family")
        from .sampling import sample_parameter_tuples
        for params in sample_parameter_tuples(random_points, seed):
            failure, covered, instance_proved = _check_grid(family(*params), *RANDOM_GRID)
            checks += covered
            proved = proved and instance_proved
            if failure is not None:
                instance = ",".join(format_rational(p) for p in params)
                return Verdict(False, checks, replace(failure, instance=instance))
    return Verdict(True, checks, proved=proved)


#: the largest column index evaluated: grid values grow super-exponentially in size
X_CAP = 512

#: the most random parameter tuples one command checks, each costing about 0.4 ms
RANDOM_POINTS_CAP = 1000

#: (x_max, z_max) of the grid checked at each random parameter tuple
RANDOM_GRID = (6, 6)


def check_column(x: int):
    """Refuse a column index outside 0..X_CAP."""
    if x > X_CAP:
        raise EvaluationError(f"x={x} beyond cap {X_CAP}", x=x)
    if x < 0:
        raise ValueError("x must be >= 0")


class ColumnMultipliers:
    """The column multipliers A_0 = 1, A_{x+1} = A_x Q(x)/P(x), for x <= X_CAP.

    Calling it gives A_x, ``ratio(x)`` the step A_{x+1}/A_x and ``over_p(x)``
    1/P(x), which V and the row multipliers read too.  1/P and the step are
    memoized, so P is evaluated once per column; a zero of P is reported
    here alone, as a singular certificate.  A is stepped along z = 0 as a
    scale with ratios (ratio(x), 1).
    """

    def __init__(self, p: Callable[[int], Fraction], q: Callable[[int], Fraction]):
        self._p, self._q = p, q
        self._over_p: dict[int, Fraction] = {}
        self._ratios: dict[int, Fraction] = {}
        self._values = Scale(lambda x, z: self.ratio(x), one)

    def over_p(self, x: int) -> Fraction:
        """1/P(x)."""
        def value():
            px = self._p(x)
            if px == 0:
                raise EvaluationError(f"certificate singular at x={x}", x=x)
            return Fraction(1) / px
        return memo(self._over_p, x, value)

    def ratio(self, x: int) -> Fraction:
        """A_{x+1}/A_x = Q(x)/P(x)."""
        def value():
            check_column(x + 1)
            return self.over_p(x) * self._q(x)
        return memo(self._ratios, x, value)

    def __call__(self, x: int) -> Fraction:
        check_column(x)
        return self._values.value(x, 0)


def pair_from_certificate(cert: Certificate) -> MarkovPair:
    """Build the telescoping pair induced by a certificate (A_0 = 1).

    Its x-ratio is the factors (A_{x+1}/A_x, sx) and V's reduced part the
    factors (1/P(x), R(x, z), F~), so the pair condition's bracket reads
    them as they are, with no product formed.
    """
    a = ColumnMultipliers(cert.p, cert.q)
    f, s = cert.extension.factors, cert.extension.scale
    scale = Scale(lambda x, z: (a.ratio(x), s.sx(x, z)), s.sz)
    name = cert.label or "certificate"
    return MarkovPair(GridFunction(f, f"U[{name}]", scale=scale),
                      GridFunction(lambda x, z: (a.over_p(x), cert.r(x, z), *f(x, z)),
                                   f"V[{name}]", scale=scale))


class Transformation:
    """A series transformation, given by five evaluators: the shift ratios
    rx(x, z) = F_{x+1,z}/F_{x,z} and rz(x, z) = F_{x,z+1}/F_{x,z} of its
    extension F, and its certificate data P(x), Q(x) and R(x, z).

    Everything else is derived from them here, once for every engine: F,
    stepped from F_{0,0} = 1 as a ``pairs.Scale``; the column multipliers A;
    the row multipliers M = A R / P; the certificate with its proof
    (:class:`BracketProof`); and the term ratio of the transformed series
    sum_x V_{x,0}, V = M F.  The proof and the ratio run the evaluators on
    the symbols that ``_symbols`` gives: by default ``polys.Factors`` X = x
    and Z = z, on which evaluators written with +, -, * and / on x and z run
    unchanged.  A subclass names itself (``NAME``) and the parameters its
    extension records (``PARAMS``), and calls ``Transformation.__init__``
    once its parameters are set.
    """

    NAME = ""
    PARAMS = ""

    def __init__(self):
        # set through object, so that a frozen dataclass can be an engine
        object.__setattr__(self, "_f", Scale(self.rx, self.rz))
        #: column multiplier A_x, A_0 = 1
        object.__setattr__(self, "A", ColumnMultipliers(self.P, self.Q))
        #: the certificate identity at these parameters, expanded on first use
        object.__setattr__(self, "proof", BracketProof(self))

    def f(self, x: int, z: int) -> Fraction:
        """The extension F_{x,z}; F_{0,z} is the source series' term."""
        return self._f.value(x, z)

    def extension(self) -> GridFunction:
        """F as a grid function that is all scale: value F, ratios rx and rz."""
        return GridFunction(no_factors, f"{self.NAME} extension",
                            params={name: getattr(self, name) for name in self.PARAMS},
                            scale=self._f)

    def certificate(self) -> Certificate:
        """P, Q and R on the extension, carrying this engine's proof."""
        cert = Certificate(self.extension(), self.P, self.Q, self.R, label=f"markov-{self.NAME}")
        object.__setattr__(cert, "proof", self.proof)
        return cert

    def pair(self) -> MarkovPair:
        """The telescoping pair induced by the certificate: U = A F, V = M F."""
        return pair_from_certificate(self.certificate())

    def B(self, x: int) -> Fraction:
        """A_x / P(x), the row multiplier's factor free of z: M_{x,z} = B_x R(x, z)."""
        return self.A.over_p(x) * self.A(x)

    def m(self, x: int, z: int) -> Fraction:
        """Row multiplier M_{x,z} = A_x R(x, z) / P(x)."""
        return self.B(x) * self.R(x, z)

    def _symbols(self) -> tuple:
        """(engine, x, z): an engine whose evaluators run on the symbols x and z."""
        return self, Factors.monomial(1, 0), Factors.monomial(0, 1)

    def _divisor_vanishes(self, factor: dict, x_max: int, z_max: int) -> Optional[bool]:
        """Whether a divisor of the bracket, a polynomial {(i, j): coefficient}
        in the symbols, vanishes at a point of [0, x_max] x [0, z_max]; None
        when that is not decided, as here, so the grid is scanned."""
        return None

    def transformed_ratio(self) -> RationalFunction:
        """V_{x+1,0}/V_{x,0} = Q(x) R(x+1, 0) rx(x, 0) / (P(x+1) R(x, 0)).

        It follows from V_{x,0} = A_x R(x, 0) F_{x,0} / P(x), and is read off
        the evaluators run on the symbol x, with X^i Z^j read as y^(i+j): a
        rational function of x, or of y = q^x for the 3phi2 engine.
        """
        e, x, z = self._symbols()
        zero = 0 * z
        return factored_ratio(e.Q(x) * e.R(x + 1, zero) * e.rx(x, zero),
                              e.P(x + 1) * e.R(x, zero))


class BracketProof:
    """The certificate identity of one engine, proved by expanding its bracket.

    The four terms of the bracket Q(x) rx - P(x) - R(x, z+1) rz + R(x, z)
    are formed by the engine's own evaluators, run on its symbols (see
    ``Transformation._symbols``), as integer factors over divisor lists,
    and their sum is multiplied out over the integers.  When the sum is
    zero, the identity holds at every lattice point where no divisor met on
    the way vanishes, because each evaluator there returns its rational
    function's value.  This is the rational-function certification of Wilf
    and Zeilberger, done at one parameter tuple.  The expansion is formed
    on first use.
    """

    def __init__(self, engine: Transformation):
        self._engine = engine

    @cached_property
    def _terms(self) -> tuple[Factors, ...]:
        """Q rx, -P, -R(x, z+1) rz and R(x, z)."""
        e, x, z = self._engine._symbols()
        return e.Q(x) * e.rx(x, z), -e.P(x), -e.R(x, z + 1) * e.rz(x, z), e.R(x, z)

    @property
    def factors(self) -> tuple[dict, ...]:
        """The lcm of the four terms' divisor lists, each divisor a primitive
        integer polynomial {(i, j): coefficient of X^i Z^j} with a positive
        coefficient at its lowest monomial; the cleared denominator is their
        product times a constant."""
        return divisor_lcm(self._terms)

    @property
    def degrees(self) -> tuple[int, int]:
        """(d_X, d_Z): the largest degrees in X and in Z of the terms cleared
        over ``factors``, summed from the degrees of their factors."""
        den = self.factors
        found = [degrees(term.cleared(den)) for term in self._terms if term.n]
        return max(dx for dx, _ in found), max(dz for _, dz in found)

    @cached_property
    def holds(self) -> bool:
        """Whether the bracket's sum is zero: its scale is 0."""
        return not sum(self._terms).n

    def covers(self, x_max: int, z_max: int) -> bool:
        """Whether the identity is proved at every point of [0, x_max] x [0, z_max].

        It is when the numerator is zero and the engine decides that no
        divisor vanishes on the grid; an undecided divisor leaves the grid
        to a scan.
        """
        return self.holds and all(self._engine._divisor_vanishes(factor, x_max, z_max) is False
                                  for factor in self.factors)
