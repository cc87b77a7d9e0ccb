"""The worked q-series transformation: 3phi2(a,b,1; c,d; q, t), t = cd/(abq).

This module holds the five evaluators of the transformation, the only
place where its algebra is written; everything derived from them (F, A,
M, the certificate, its proof and the transformed series' ratio) is
derived once, for this engine and for its q -> 1 limit, Schellbach's
classical one, by :class:`~markovsum.markov.certificates.Transformation`.
The extension F is given by F_{0,0} = 1 and its two shift ratios,
rational in X = q^x and Z = q^z:

    rx = F_{x+1,z}/F_{x,z} = cd X^2 Z^2 / ((1-cXZ)(1-dXZ)),
    rz = F_{x,z+1}/F_{x,z} = t X^2 (1-aZ)(1-bZ) / ((1-cXZ)(1-dXZ)).

Stepping from the origin gives the product form

    F_{x,z} = (a;q)_z (b;q)_z t^z / ((c;q)_{x+z} (d;q)_{x+z})
              * (c d q^(2z))^x * q^(x(x-1)),

which is kept as a test oracle, not evaluated here.  F satisfies the
certificate identity with

    P(x) = 1 - t q^(2x),
    Q(x) = (1-(c/a)q^x)(1-(c/b)q^x)(1-(d/a)q^x)(1-(d/b)q^x) / (q(1-tq^(2x+1))),
    R(x,z) = 1 + t q^(2x+z) ((c+d)q^x - (a+b)) / (1 - t q^(2x+1)),

for any nonzero parameters away from poles.  That is proved in code, one
parameter tuple at a time: ``certificates.BracketProof`` runs the
evaluators of rx, rz, P, Q and R on X and Z as symbols (the engine's
symbolic twin, which ``_symbols`` hands it), keeps their results as integer
factors, multiplies the bracket Q rx - P - R(X, qZ) rz + R(X, Z) out over
the integers and finds the zero polynomial, with the divisors (1-tqX^2),
(1-cXZ) and (1-dXZ) and degrees (6, 3) in (X, Z) read off the factors.
The engine tests those divisors at the powers of q for the proof; a grid
on which one of them vanishes is scanned point by point instead, and
raises at the first point where an evaluator is undefined.

Everything else is derived from F, P, Q and R, and all of them read one
per-engine table of powers of q.  F is the extension's scale (its reduced
part is 1), stepped by ``pairs.Scale``, so certificate and pair checks run
on rx, rz, P, Q and R, all small, and touch an F value only to report a
nonzero residual.  The column multipliers follow the certificate
recurrence A_{x+1} = A_x Q(x)/P(x), A_0 = 1, and the row multipliers are
M_{x,z} = A_x R(x,z)/P(x) = B_x + C_x q^z with

    B_x / A_x = 1 / (1 - t q^(2x)),
    C_x / A_x = t q^(2x) ((c+d) q^x - (a+b))
                / ((1 - t q^(2x)) (1 - t q^(2x+1))).

The pair of the transformation is the pair induced by the certificate.
When |q| < 1 and |t| < 1 both series converge; the transformed series has terms
V_{x,0} = M_{x,0} F_{x,0}, whose step-to-step decay is of order q^(2x),
much faster than the original t^z.  The catalog reads both series' term
ratios off the evaluators, run on a symbol as in the proof: ``source_ratio``
is rz(0, z) in y = q^z, and ``transformed_ratio`` is V_{x+1,0}/V_{x,0} =
Q(x) R(x+1,0) rx(x,0) / (P(x+1) R(x,0)) in y = q^x.  The product form
A_x = (c/a, c/b, d/a, d/b; q)_x / (q^x (t;q)_{2x}), the closed form of
V_{x,0} and the coefficient equations are kept as independent checks of
the derived values.

Every one-index table (the powers of q, the factors of F's shift ratios,
Q, R's slope in q^z, and the column multipliers' 1/P and steps) holds pure
values, stored by ``pairs.memo`` without a lock; only F's ``pairs.Scale``,
which is stepped along a path, takes one.  No stored value ever changes,
so one engine may be shared between threads.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ..exact import format_rational
from ..hgterm import q_pochhammer
from ..polys import Factors, RationalFunction, factored_ratio, vanishes_at_powers
from .certificates import Certificate, Transformation, check_column
from .pairs import EvaluationError, memo

#: Parameter tuples (a, b, c, d, q) used across tests and fixtures; all have
#: 0 < t < 1 and poles nowhere near the working grids.
SAMPLE_TUPLES = (
    (Fraction(1, 3), Fraction(1, 5), Fraction(1, 7), Fraction(1, 11), Fraction(1, 2)),
    (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7), Fraction(1, 3)),
    (Fraction(2, 3), Fraction(1, 2), Fraction(1, 4), Fraction(1, 5), Fraction(1, 2)),
    (Fraction(3, 4), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(2, 5)),
    (Fraction(2, 3), Fraction(3, 5), Fraction(1, 6), Fraction(1, 7), Fraction(1, 2)),
)


def markov_param_map(r, rp, s, sp, qq) -> tuple[Fraction, ...]:
    """Map the historical parameterization (r, r', s, s', q), all nonzero.

    Returns (a, b, c, d, q, t) in the modern convention:
    a=1/r, b=1/r', c=1/s, d=1/s', q = 1/qq, t = r r' qq / (s s').
    """
    r, rp, s, sp, qq = (Fraction(v) for v in (r, rp, s, sp, qq))
    for name, v in (("r", r), ("r'", rp), ("s", s), ("s'", sp), ("q", qq)):
        if v == 0:
            raise ValueError(f"parameter {name} must be nonzero")
    return (1 / r, 1 / rp, 1 / s, 1 / sp, 1 / qq, r * rp * qq / (s * sp))


def markov_form_term(r, rp, s, sp, qq, n: int) -> Fraction:
    """Term n of the series in the historical form.

    term = q^n * prod_{i<n} (r q^i - 1)(r' q^i - 1) / ((s q^i - 1)(s' q^i - 1)),
    termwise equal to the modern form under markov_param_map.
    """
    r, rp, s, sp, qq = (Fraction(v) for v in (r, rp, s, sp, qq))
    prod = Fraction(1)
    power = Fraction(1)
    for _ in range(n):
        den = (s * power - 1) * (sp * power - 1)
        if den == 0:
            raise ZeroDivisionError(f"historical form denominator vanishes at step {n}")
        prod *= (r * power - 1) * (rp * power - 1) / den
        power *= qq
    return prod * qq ** n


@dataclass(frozen=True)
class _Exponent:
    """i x + j z + k with x and z symbols: q^(ix + jz + k) = q^k X^i Z^j."""

    i: int
    j: int
    k: int = 0

    def __add__(self, other) -> "_Exponent":
        if isinstance(other, _Exponent):
            return _Exponent(self.i + other.i, self.j + other.j, self.k + other.k)
        return _Exponent(self.i, self.j, self.k + other)

    def __sub__(self, other: int) -> "_Exponent":
        return self + -other

    def __rmul__(self, n: int) -> "_Exponent":
        return _Exponent(n * self.i, n * self.j, n * self.k)


class ThreePhiTwo(Transformation):
    """The 3phi2(a,b,1; c,d) transformation at any nonzero rational parameters.

    The five evaluators rx, rz, P, Q and R, their symbolic twin, the test of
    the proof's divisors at the powers of q, the source series' ratio and
    the closed forms; F, A, M, the certificate and its proof, the pair and
    the transformed ratio are derived by
    :class:`~markovsum.markov.certificates.Transformation`.  Nothing here
    needs convergence: an undefined point raises ``EvaluationError``.
    """

    NAME = "3phi2"
    PARAMS = "abcdqt"

    def __init__(self, a, b, c, d, q):
        self.a, self.b, self.c, self.d, self.q = (Fraction(v) for v in (a, b, c, d, q))
        for name, v in (("a", self.a), ("b", self.b), ("c", self.c), ("d", self.d), ("q", self.q)):
            if v == 0:
                raise ValueError(f"parameter {name} must be nonzero")
        self._cd = self.c * self.d
        self.t = self._cd / (self.a * self.b * self.q)
        # one-index values, each a pure function of its key: k -> q^k,
        # k -> (1-cq^k)(1-dq^k), z -> (1-aq^z)(1-bq^z), x -> Q(x) and
        # x -> the slope K(x) of R(x, z) in q^z
        self._powers: dict[int, Fraction] = {}
        self._poles: dict[int, Fraction] = {}
        self._uppers: dict[int, Fraction] = {}
        self._q_values: dict[int, Fraction] = {}
        self._r_slopes: dict[int, Fraction] = {}
        super().__init__()

    @property
    def params(self) -> tuple[Fraction, ...]:
        return (self.a, self.b, self.c, self.d, self.q)

    def _power(self, k: int) -> Fraction:
        """q^k, k >= 0."""
        return memo(self._powers, k, lambda: self.q ** k)

    # -- the extension, by its shift ratios --------------------------------------

    def _pole(self, x: int, z: int) -> Fraction:
        """(1 - c q^(x+z-1)) (1 - d q^(x+z-1)), the last factor of F_{x,z}'s denominator."""
        k = x + z - 1
        den = memo(self._poles, k, lambda: (1 - self.c * self._power(k))
                   * (1 - self.d * self._power(k)))
        if den == 0:
            raise EvaluationError(
                f"(c,d;q)_{x + z} vanishes for c={format_rational(self.c)}, "
                f"d={format_rational(self.d)}", x, z)
        return den

    def rx(self, x: int, z: int) -> Fraction:
        """F_{x+1,z}/F_{x,z} = cd X^2 Z^2 / ((1-cXZ)(1-dXZ))."""
        return self._cd * self._power(2 * (x + z)) / self._pole(x + 1, z)

    def rz(self, x: int, z: int) -> Fraction:
        """F_{x,z+1}/F_{x,z} = t X^2 (1-aZ)(1-bZ) / ((1-cXZ)(1-dXZ))."""
        upper = memo(self._uppers, z, lambda: (1 - self.a * self._power(z))
                     * (1 - self.b * self._power(z)))
        return self.t * self._power(2 * x) * upper / self._pole(x, z + 1)

    # -- certificate -----------------------------------------------------------

    def _d1(self, x: int) -> Fraction:
        d1 = 1 - self.t * self._power(2 * x + 1)
        if d1 == 0:
            raise EvaluationError(f"(1 - t q^(2x+1)) vanishes at x={x}", x=x)
        return d1

    def P(self, x: int) -> Fraction:
        return 1 - self.t * self._power(2 * x)

    def Q(self, x: int) -> Fraction:
        """The column step: A_{x+1}/A_x = Q(x)/P(x)."""
        def value():
            a, b, c, d, q = self.params
            y = self._power(x)
            return (1 - (c / a) * y) * (1 - (c / b) * y) \
                * (1 - (d / a) * y) * (1 - (d / b) * y) / (q * self._d1(x))
        return memo(self._q_values, x, value)

    def R(self, x: int, z: int) -> Fraction:
        """R(x, z) = 1 + K(x) q^z, K(x) = t q^(2x) ((c+d)q^x - (a+b)) / (1 - tq^(2x+1))."""
        def slope():
            a, b, c, d, _ = self.params
            return self.t * self._power(2 * x) * ((c + d) * self._power(x) - (a + b)) \
                / self._d1(x)
        return 1 + memo(self._r_slopes, x, slope) * self._power(z)

    def C(self, x: int) -> Fraction:
        """C_x in the row multiplier M_{x,z} = B_x + C_x q^z."""
        return self.B(x) * (self.R(x, 0) - 1)

    # -- the evaluators on symbols -----------------------------------------------

    def _symbolic(self) -> "ThreePhiTwo":
        """A copy of this engine whose evaluators run on symbols.

        The evaluators P, Q, R, rx and rz read x and z only through q's
        powers, with exponents linear in x and z, and never branch on them.
        The copy takes ``_Exponent``s for x and z and gives q^(ix + jz + k)
        as the ``polys.Factors`` monomial q^k X^i Z^j, so each evaluator
        returns its rational function of X = q^x and Z = q^z, kept as
        integer factors, and R at (x, z + 1) is R at (X, qZ).  A vanishing
        test of a denominator is then false, since none is the zero
        polynomial.  The copy has its own one-index tables.
        """
        twin = copy.copy(self)
        twin._poles, twin._uppers, twin._q_values, twin._r_slopes = {}, {}, {}, {}
        twin._power = lambda k: Factors.monomial(k.i, k.j, self.q ** k.k)
        return twin

    def _symbols(self) -> tuple:
        """The symbolic twin, with x and z as the exponents of X = q^x and Z = q^z."""
        return self._symbolic(), _Exponent(1, 0), _Exponent(0, 1)

    def _divisor_vanishes(self, factor: dict, x_max: int, z_max: int) -> Optional[bool]:
        """Whether a divisor in X = q^x and Z = q^z vanishes on the grid.

        One in X alone is read along x <= x_max and one in XZ alone along
        x + z <= x_max + z_max, by ``polys.vanishes_at_powers``; any other
        is not decided.
        """
        if all(j == 0 for _, j in factor):
            span = x_max
        elif all(i == j for i, j in factor):
            span = x_max + z_max
        else:
            return None
        coeffs = [0] * (1 + max(i for i, _ in factor))
        for (i, _), c in factor.items():
            coeffs[i] = c
        return vanishes_at_powers(coeffs, self.q, span)

    def source_ratio(self) -> RationalFunction:
        """F_{0,z+1}/F_{0,z} = rz(0, z), a rational function of y = q^z."""
        e, x, z = self._symbols()
        return factored_ratio(e.rz(0 * x, z))

    # -- closed forms, independent of the certificate ----------------------------

    def A_closed(self, x: int) -> Fraction:
        """Product form (c/a, c/b, d/a, d/b; q)_x / (q^x (t;q)_{2x})."""
        check_column(x)
        a, b, c, d, q, t = self.a, self.b, self.c, self.d, self.q, self.t
        num = q_pochhammer(c / a, q, x) * q_pochhammer(c / b, q, x) \
            * q_pochhammer(d / a, q, x) * q_pochhammer(d / b, q, x)
        den = q ** x * q_pochhammer(t, q, 2 * x)
        if den == 0:
            raise EvaluationError(f"(t;q)_{2 * x} vanishes at x={x}", x=x)
        return num / den

    def v0(self, x: int) -> Fraction:
        """Term x of the transformed series, in fully reduced closed form."""
        check_column(x)
        a, b, c, d, q, t = self.a, self.b, self.c, self.d, self.q, self.t
        num = q_pochhammer(c / a, q, x) * q_pochhammer(c / b, q, x) \
            * q_pochhammer(d / a, q, x) * q_pochhammer(d / b, q, x)
        den = q_pochhammer(c, q, x) * q_pochhammer(d, q, x) * q_pochhammer(t, q, 2 * x + 2)
        if den == 0:
            raise EvaluationError(f"transformed-term denominator vanishes at x={x}", x=x)
        return num / den * (c * d) ** x * q ** (x * (x - 2)) \
            * (1 - t * q ** (2 * x) * (a + b + q) + t * q ** (3 * x) * (c + d))


def make_certificate(a, b, c, d, q) -> Certificate:
    """The built-in certificate fixture for the 3phi2 extension.

    Any nonzero rational parameters are accepted, whatever q and t are, and
    the certificate carries the engine's proof of its identity at them.
    """
    return ThreePhiTwo(a, b, c, d, q).certificate()


def coefficient_residuals(a, b, c, d, q, x: int, *,
                          A_x=None, A_next=None, B_x=None, C_x=None) -> tuple[Fraction, ...]:
    """Residuals of the four coefficient equations at column x.

    The telescoping condition for the 3phi2 ansatz reduces to a degree-3
    polynomial identity in q^z; its four coefficients give, with the
    closed-form A, B, C substituted (the defaults), four vanishing
    residuals.  The cubic coefficient vanishes identically in C_x because
    t = cd/(abq); override A_x/B_x/C_x to probe soundness.
    """
    engine = ThreePhiTwo(a, b, c, d, q)
    a, b, c, d, q, t = engine.a, engine.b, engine.c, engine.d, engine.q, engine.t
    A0 = engine.A(x) if A_x is None else Fraction(A_x)
    A1 = engine.A(x + 1) if A_next is None else Fraction(A_next)
    B0 = engine.B(x) if B_x is None else Fraction(B_x)
    C0 = engine.C(x) if C_x is None else Fraction(C_x)
    r0 = A0 - B0 * (1 - t * q ** (2 * x))
    r1 = -A0 * (c + d) * q ** x - (
        C0 - B0 * (c + d) * q ** x + B0 * (a + b) * q ** (2 * x) * t - C0 * q ** (2 * x + 1) * t)
    r2 = (A0 - A1) * c * d * q ** (2 * x) - (
        B0 * (c * d - a * b * t) * q ** (2 * x)
        + C0 * ((a + b) * q ** (2 * x + 1) * t - (c + d) * q ** x))
    r3 = C0 * (c * d * q ** (2 * x) - a * b * q ** (2 * x + 1) * t)
    return (r0, r1, r2, r3)
