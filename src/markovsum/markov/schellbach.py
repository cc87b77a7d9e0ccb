"""Schellbach's geometrically convergent form of 3F2(a,b,1; c,d).

The q -> 1 limit of the q-series transformation, as a transformation
engine of its own (:class:`~markovsum.markov.certificates.Transformation`),
on the extension

    F_{x,z} = (a)_z (b)_z / ((c)_{x+z} (d)_{x+z}),

whose column x = 0 is the source series 3F2(a,b,1; c,d) = sum_z F_{0,z}.
F is the kernel ``pairs.Kernel`` on (a, b; c, d): F_{0,0} = 1 and the shift ratios

    rx = F_{x+1,z}/F_{x,z} = 1 / ((c+x+z)(d+x+z)),
    rz = F_{x,z+1}/F_{x,z} = (a+z)(b+z) / ((c+x+z)(d+x+z)),

and, with t = c+d-a-b-1, the certificate identity holds with

    P(x) = (t+2x)(t+2x+1),
    Q(x) = (c-a+x)(c-b+x)(d-a+x)(d-b+x),
    R(x,z) = p(x) + (t+2x+1) z,
    p(x) = (c+d-a-1+2x)(c+d-b-1+2x) - (c-1+x)(d-1+x).

This is the q = 1 case of the WZ pairs of the 3phi2 engine (Wilf and
Zeilberger, 1990; Mohammed and Zeilberger, 2004).  The five evaluators
are written once, for values, and run unchanged on ``polys.Factors``
symbols x and z, so the engine's ``BracketProof`` expands the bracket to
zero over Q[x, z] at each parameter tuple, which may be any.  Its only
divisors are the kernel's lower factors c+x+z and d+x+z, so whether one
vanishes on a grid is one integer test, and ``verify_certificate``
answers every grid they miss from the proof.  For t > 0 the row series
of the induced pair is Schellbach's:

    3F2(a,b,1; c,d) = sum_x V_{x,0},
    V_{x,0} = A_x R(x,0) F_{x,0} / P(x)
            = (c-a, c-b, d-a, d-b)_x p(x) / ((c,d)_x (t)_{2x+2}).

The catalog reads its first term and term ratio off the engine; the
closed form ``schellbach_term`` is kept as an independent check.

The left side converges like sum n^(-t-1); the right side geometrically:
its terms behave like C 4^(-x) x^(-(a+b-1/2)), and the limit ratio 1/4 and
Gauss's exponent -(a+b-1/2) are read exactly off ``transformed_ratio``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ..hgterm import rising_factorial
from .certificates import Transformation
from .pairs import EvaluationError, Kernel


@dataclass(frozen=True)
class SchellbachParams(Transformation):
    """Parameters (a, b, c, d) with the convergence exponent t = c+d-a-b-1,
    and the classical transformation on them.

    Any parameters are accepted: a nonpositive integer c or d, or t = 0, is
    reported at the first point where an evaluator is undefined.  A
    nonpositive integer c-a, c-b, d-a or d-b is a zero of Q, not a pole: the
    transformed series then ends, and the identity still holds.  Equality,
    hashing and repr read the four parameters only.
    """

    NAME = "3F2"
    PARAMS = "abcdt"

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self):
        for name in "abcd":
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        kernel = Kernel(f"{self.NAME} extension", (self.a, self.b), (self.c, self.d))
        object.__setattr__(self, "rx", kernel.rx)
        object.__setattr__(self, "rz", kernel.rz)
        super().__init__()

    @property
    def t(self) -> Fraction:
        return self.c + self.d - self.a - self.b - 1

    def P(self, x):
        return (self.t + 2 * x) * (self.t + 2 * x + 1)

    def Q(self, x):
        """The column step: A_{x+1}/A_x = Q(x)/P(x)."""
        a, b, c, d = self.a, self.b, self.c, self.d
        return (c - a + x) * (c - b + x) * (d - a + x) * (d - b + x)

    def R(self, x, z):
        """R(x, z) = p(x) + (t+2x+1) z, with p Schellbach's quadratic."""
        a, b, c, d, t = self.a, self.b, self.c, self.d, self.t
        return (c + d - a - 1 + 2 * x) * (c + d - b - 1 + 2 * x) - (c - 1 + x) * (d - 1 + x) \
            + (t + 2 * x + 1) * z

    def _divisor_vanishes(self, factor: dict, x_max: int, z_max: int) -> Optional[bool]:
        """Whether a divisor n + d (x + z), a lower factor of the kernel,
        vanishes on the grid: whether -n/d is an integer in [0, x_max + z_max].
        Any other divisor is not decided."""
        d = factor.get((1, 0))
        slopes = {key: c for key, c in factor.items() if key != (0, 0)}
        if not d or slopes != {(1, 0): d, (0, 1): d}:
            return None
        k, rest = divmod(-factor.get((0, 0), 0), d)
        return not rest and 0 <= k <= x_max + z_max


def schellbach_term(params: SchellbachParams, x: int) -> Fraction:
    """Exact term x of the transformed series, in closed form:
    (c-a, c-b, d-a, d-b)_x p(x) / ((c,d)_x (t)_{2x+2}), p(x) = R(x, 0)."""
    if x < 0:
        raise ValueError("x must be >= 0")
    a, b, c, d = params.a, params.b, params.c, params.d
    num = rising_factorial(c - a, x) * rising_factorial(c - b, x) \
        * rising_factorial(d - a, x) * rising_factorial(d - b, x) * params.R(x, 0)
    den = rising_factorial(c, x) * rising_factorial(d, x) * rising_factorial(params.t, 2 * x + 2)
    if den == 0:
        raise EvaluationError(f"transformed-term denominator vanishes at x={x}", x=x)
    return num / den
