"""Telescoping certificates and the bridge to explicit pairs.

A certificate packages an extension F with rational-function data
(P, Q, R) satisfying

    Q(x) F_{x+1,z} - P(x) F_{x,z} = R(x,z+1) F_{x,z+1} - R(x,z) F_{x,z}

at every lattice point.  (Certificate producers conventionally write the
recurrence operator side as P + Q X; matching the identity against the
multiplier construction below forces the relative minus sign on P used
here, and the built-in fixture only verifies under this convention.)

Given such data, an undetermined factor per column turns the identity into
a telescoping pair: with A_0 = 1,

    A_{x+1} = A_x Q(x)/P(x),     M_{x,z} = A_x R(x,z)/P(x),
    U_{x,z} = A_x F_{x,z},       V_{x,z} = M_{x,z} F_{x,z}.

The recurrence for A is accumulated by :func:`column_multipliers` alone;
the worked q-series engine uses the same loop for its own A_x, so a pair
and its certificate are two views of one set of evaluators.

Certificates are consumed as black-box exact evaluators, not symbolic
expressions; verification combines exhaustive small-grid checking with
seeded random parameter instantiation when a parameterized family is
supplied.  Certificate *discovery* is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from ..exact import format_rational
from .pairs import EvaluationError, GridFunction, MarkovPair


@dataclass(frozen=True)
class Certificate:
    """Extension F with telescoping data (P, Q, R)."""

    extension: GridFunction
    p: Callable[[int], Fraction]
    q: Callable[[int], Fraction]
    r: Callable[[int, int], Fraction]
    label: str = ""

    def residual(self, x: int, z: int) -> Fraction:
        """Defect of the certificate identity at one lattice point."""
        try:
            lhs = self.q(x) * self.extension(x + 1, z) - self.p(x) * self.extension(x, z)
            rhs = self.r(x, z + 1) * self.extension(x, z + 1) - self.r(x, z) * self.extension(x, z)
        except ZeroDivisionError as exc:
            raise EvaluationError(f"certificate undefined at (x={x}, z={z}): {exc}", x, z) from exc
        return lhs - rhs


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
    passed: bool
    checks: int
    first_failure: Optional[FailurePoint] = None

    def to_json(self) -> dict:
        out = {"passed": self.passed, "checks": self.checks}
        if self.first_failure is not None:
            out["first_failure"] = self.first_failure.to_json()
        return out


def verify_certificate(cert: Certificate, x_max: int, z_max: int, *,
                       family: Optional[Callable[..., Certificate]] = None,
                       random_points: int = 0, seed: int = 0,
                       random_grid: tuple[int, int] = (6, 6)) -> Verdict:
    """Check the certificate identity exactly on a grid.

    With a ``family`` (a parameter tuple -> Certificate factory) the check
    is repeated at ``random_points`` seeded pseudo-random rational
    parameter tuples, each on a ``random_grid`` lattice.  The verdict
    carries the first failing point, if any.
    """
    if x_max < 0 or z_max < 0:
        raise ValueError("grid must be nonempty")
    checks = 0
    for x in range(x_max + 1):
        for z in range(z_max + 1):
            res = cert.residual(x, z)
            checks += 1
            if res != 0:
                return Verdict(False, checks, FailurePoint(x, z, res))
    if random_points:
        if family is None:
            raise ValueError("random parameter checks need a certificate family")
        from .sampling import sample_parameter_tuples
        rx, rz = random_grid
        for params in sample_parameter_tuples(random_points, seed):
            instance = ",".join(format_rational(p) for p in params)
            inst_cert = family(*params)
            for x in range(rx + 1):
                for z in range(rz + 1):
                    res = inst_cert.residual(x, z)
                    checks += 1
                    if res != 0:
                        return Verdict(False, checks, FailurePoint(x, z, res, instance))
    return Verdict(True, checks)


def column_multipliers(p: Callable[[int], Fraction], q: Callable[[int], Fraction],
                       x_cap: int = 512) -> Callable[[int], Fraction]:
    """The column multipliers A_0 = 1, A_{x+1} = A_x Q(x)/P(x), as x -> A_x.

    Values are accumulated once and memoized.  P(x) must not vanish on the
    working range; ``x_cap`` bounds the range because the grid values grow
    super-exponentially in representation size.
    """
    values = [Fraction(1)]

    def a(x: int) -> Fraction:
        if x > x_cap:
            raise EvaluationError(f"x={x} beyond cap {x_cap}", x=x)
        if x < 0:
            raise ValueError("x must be >= 0")
        while len(values) <= x:
            k = len(values) - 1
            pk = p(k)
            if pk == 0:
                raise EvaluationError(f"certificate singular at x={k}", x=k)
            values.append(values[-1] * q(k) / pk)
        return values[x]

    return a


def pair_from_certificate(cert: Certificate, x_cap: int = 512) -> MarkovPair:
    """Build the telescoping pair induced by a certificate (A_0 = 1)."""
    a = column_multipliers(cert.p, cert.q, x_cap)

    def u(x: int, z: int) -> Fraction:
        return a(x) * cert.extension(x, z)

    def v(x: int, z: int) -> Fraction:
        px = cert.p(x)
        if px == 0:
            raise EvaluationError(f"certificate singular at x={x}", x=x)
        return a(x) * cert.r(x, z) / px * cert.extension(x, z)

    name = cert.label or "certificate"
    return MarkovPair(GridFunction(u, f"U[{name}]"), GridFunction(v, f"V[{name}]"),
                      provenance=f"certificate:{name}")
