"""Schellbach's geometrically convergent form of 3F2(a,b,1; c,d).

The q -> 1 limit of the q-series transformation: with t = c+d-a-b-1 > 0,

    3F2(a,b,1; c,d) = sum_x  (c-a, c-b, d-a, d-b)_x p(a,b,c,d,x)
                             / ((c,d)_x (t)_{2x+2}),

    p(a,b,c,d,x) = (c+d-a-1+2x)(c+d-b-1+2x) - (c-1+x)(d-1+x).

The left side converges like sum n^(-t-1); the right side geometrically
with limit ratio 1/4 (terms behave like 4^(-x) times a power of x).  The
asymptotic prefactor involves Gamma values at rational points, which exact
arithmetic cannot produce, so only the 4^(-x) power-law trend is exposed,
as a bounded-precision diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..exact import exp2_approx, format_rational, log2_approx
from ..hgterm import _is_nonpositive_integer, rising_factorial
from ..polys import RationalFunction, integer_ratio, poly, poly_mul, poly_shift
from .pairs import EvaluationError


@dataclass(frozen=True)
class SchellbachParams:
    """Parameters (a, b, c, d) with the convergence exponent t = c+d-a-b-1."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self):
        for name in "abcd":
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.t <= 0:
            raise ValueError(f"need c+d-a-b-1 > 0, got {format_rational(self.t)}")
        for name, v in (("c", self.c), ("d", self.d),
                        ("c-a", self.c - self.a), ("c-b", self.c - self.b),
                        ("d-a", self.d - self.a), ("d-b", self.d - self.b)):
            if _is_nonpositive_integer(v):
                raise ValueError(f"{name} must not be a nonpositive integer")

    @property
    def t(self) -> Fraction:
        return self.c + self.d - self.a - self.b - 1

    def p(self, x: int) -> Fraction:
        """The quadratic numerator polynomial."""
        a, b, c, d = self.a, self.b, self.c, self.d
        return (c + d - a - 1 + 2 * x) * (c + d - b - 1 + 2 * x) - (c - 1 + x) * (d - 1 + x)


def schellbach_term(params: SchellbachParams, x: int) -> Fraction:
    """Exact term x of the transformed series."""
    if x < 0:
        raise ValueError("x must be >= 0")
    a, b, c, d = params.a, params.b, params.c, params.d
    num = rising_factorial(c - a, x) * rising_factorial(c - b, x) \
        * rising_factorial(d - a, x) * rising_factorial(d - b, x) * params.p(x)
    den = rising_factorial(c, x) * rising_factorial(d, x) * rising_factorial(params.t, 2 * x + 2)
    if den == 0:
        raise EvaluationError(f"transformed-term denominator vanishes at x={x}", x=x)
    return num / den


def direct_term(params: SchellbachParams, n: int) -> Fraction:
    """Term n of the source series: (a)_n (b)_n / ((c)_n (d)_n)."""
    den = rising_factorial(params.c, n) * rising_factorial(params.d, n)
    if den == 0:
        raise EvaluationError(f"source-term denominator vanishes at n={n}", z=n)
    return rising_factorial(params.a, n) * rising_factorial(params.b, n) / den


def ratio_function(params: SchellbachParams) -> RationalFunction:
    """term(x+1)/term(x) as an exact rational function of x.

    ratio = (c-a+x)(c-b+x)(d-a+x)(d-b+x) p(x+1)
            / ((c+x)(d+x)(t+2x+2)(t+2x+3) p(x)).
    """
    a, b, c, d, t = params.a, params.b, params.c, params.d, params.t
    s = c + d - 1
    # p as a polynomial in x
    p_poly = poly_mul(poly(s - a, 2), poly(s - b, 2))
    p_poly = [pi - qi for pi, qi in
              zip(p_poly, poly_mul(poly(c - 1, 1), poly(d - 1, 1)))]
    return integer_ratio(1, (poly(c - a, 1), poly(c - b, 1), poly(d - a, 1), poly(d - b, 1),
                             poly_shift(p_poly, 1)),
                         (poly(c, 1), poly(d, 1), poly(t + 2, 2), poly(t + 3, 2), p_poly))


def schellbach_asymptotics(params: SchellbachParams, x: int,
                           frac_bits: int = 32) -> Fraction:
    """Diagnostic ratio term(x) * 4^x * x^(a+b-1/2), approximately.

    Computed through bounded-precision base-2 logarithms of exact
    rationals (integer arithmetic only); the sequence flattens to the
    Gamma-product prefactor as x grows.  No exactness claim.
    """
    if x < 2:
        raise ValueError("diagnostic needs x >= 2")
    term = schellbach_term(params, x)
    if term == 0:
        return Fraction(0)
    sign = 1 if term > 0 else -1
    lg = log2_approx(abs(term), frac_bits) + 2 * x \
        + (params.a + params.b - Fraction(1, 2)) * log2_approx(Fraction(x), frac_bits)
    return sign * exp2_approx(lg, frac_bits)
