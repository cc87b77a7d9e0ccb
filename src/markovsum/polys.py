"""Small exact-polynomial toolkit over the integers and the rationals.

Coefficient lists are ordered low degree first; integer coefficients stay
``int``, and a ``Fraction`` input gives ``Fraction`` results.  This backs
three needs:

* describing a term ratio in one canonical integer form
  (:class:`RationalFunction`: cleared of denominators, divided by its
  content) with the factors it was built from, each primitive, off which
  signs and zeros are read (:func:`factor_sign`) and shared factors
  cancelled; and certifying a polynomial nonnegative at *all* indices past
  some point, the catalog's rates and tail majorants, by a shift-and-inspect
  certificate whose walk over the gap points also finds its first zero
  (:func:`nonneg_walk`), or on y in (0, 1] (:func:`unit_interval_nonneg`);
* solving the small exact linear systems of the stepwise multiplier solver
  by fraction-free (Bareiss) elimination over the integers;
* running a transformation engine's formulas on X and Z as symbols, kept
  as integer factors {(i, j): coefficient of X^i Z^j} (:class:`Factors`):
  X = q^x and Z = q^z for the 3phi2 engine, X = x and Z = z for
  Schellbach's classical one; to expand its certificate identity to zero
  over the integers, to check the 3phi2 identity's denominators at the
  powers of q (:func:`vanishes_at_powers`), and to read a term ratio in
  x or in y = q^x off the formulas (:func:`factored_ratio`).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property, reduce
from math import comb, gcd, isqrt, lcm, prod
from typing import Optional, Sequence

Poly = list


def poly(*coeffs) -> Poly:
    """Build a polynomial from low-degree-first coefficients."""
    return list(coeffs)


def poly_add(p: Sequence, q: Sequence) -> Poly:
    n = max(len(p), len(q))
    return [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)]


def poly_mul(p: Sequence, q: Sequence) -> Poly:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def poly_scale(p: Sequence, c) -> Poly:
    return [a * c for a in p]


def poly_shift(p: Sequence, s) -> Poly:
    """Coefficients of p(x + s)."""
    if s == 0:
        return list(p)
    out = [0] * len(p)
    for i, a in enumerate(p):
        if a:
            for j in range(i + 1):
                out[j] += a * comb(i, j) * s ** (i - j)
    return out


def poly_eval(p: Sequence, x):
    v = 0
    for a in reversed(p):
        v = v * x + a
    return v


def _certificate_shift(p: Sequence, n0: int) -> Optional[int]:
    """Smallest s >= 0 with every coefficient of p(n0 + s + m) nonnegative.

    Such coefficients stay nonnegative at every larger shift, and they are
    nonnegative once n0 + s is at least the real part of every root of p:
    each linear or quadratic real factor of p(n0 + s + m) then has them.
    The Cauchy bound 1 + max |p_i / lead(p)| exceeds every root's modulus,
    so the shift is bisected between 0 and its ceiling, formed by floor
    division.  None when p tends to -infinity, where no shift can work.
    """
    lead = next((c for c in reversed(p) if c), 0)
    if lead < 0:
        return None

    def certifies(s: int) -> bool:
        return all(c >= 0 for c in poly_shift(p, n0 + s))

    if certifies(0):
        return 0
    failing, certified = 0, max(1, 1 - (-max(map(abs, p)) // lead) - n0)
    while certified - failing > 1:
        middle = (failing + certified) // 2
        if certifies(middle):
            certified = middle
        else:
            failing = middle
    return certified


def eventually_nonneg(p: Sequence, n0: int) -> Optional[int]:
    """Certify p(n) >= 0 for every integer n >= n0: the smallest shift s with
    every coefficient of p(n0 + s + m) nonnegative, when the gap points
    n0 .. n0+s-1 hold too, else None."""
    s = _certificate_shift(p, n0)
    if s is None or any(poly_eval(p, n0 + j) < 0 for j in range(s)):
        return None
    return s


def nonneg_walk(p: Sequence, n0: int) -> Optional[tuple[int, Optional[int]]]:
    """(v, z): the first index v >= n0 with p(n) >= 0 certified for every
    integer n >= v, and the first integer z >= v with p(z) = 0, None when p
    has no zero there; None only when p has a negative leading coefficient.

    Same certificate as ``eventually_nonneg``; the gap points below the
    shifted start n0 + s are checked exactly, downwards, for as long as
    they hold.  Past n0 + s a nonzero p is positive, so the walk meets
    every zero at or past v.
    """
    s = _certificate_shift(p, n0)
    if s is None:
        return None
    start = n0 + s
    zero = start if poly_eval(p, start) == 0 else None
    for n in range(start - 1, n0 - 1, -1):
        value = poly_eval(p, n)
        if value <= 0:
            if value:
                break
            zero = n
        start = n
    return start, zero


def unit_interval_nonneg(p: Sequence) -> bool:
    """Certify p(y) >= 0 for every y in (0, 1].

    y = 1/(1+s) maps s >= 0 onto (0, 1], and (1+s)^deg p(1/(1+s)) =
    sum_i p_i (1+s)^(deg-i) has the sign of p(y): all its coefficients in s
    must be nonnegative.
    """
    degree = len(p) - 1
    return all(sum(c * comb(degree - i, j) for i, c in enumerate(p[:degree - j + 1])) >= 0
               for j in range(degree + 1))


def vanishes_at_powers(p: Sequence, q: Fraction, span: int) -> bool:
    """Whether p(q^k) = 0 for some integer 0 <= k <= span, q a nonzero rational.

    With q = n/d, d^(k deg p) p(q^k) = sum_i p_i n^(ik) d^(k(deg p - i)),
    formed in integers once the coefficients are cleared of denominators.
    """
    scale = lcm(*(Fraction(c).denominator for c in p))
    coeffs = [c.numerator * (scale // c.denominator) for c in p]
    degree = len(coeffs) - 1
    n, d = q.numerator, q.denominator
    n_k = d_k = 1
    for _ in range(span + 1):
        if not sum(c * n_k ** i * d_k ** (degree - i) for i, c in enumerate(coeffs) if c):
            return True
        n_k, d_k = n_k * n, d_k * d
    return False


def _normal(p: Sequence[int]) -> tuple[int, tuple]:
    """An integer polynomial p as (c, (f_1, ..., f_k)), p = c f_1 ... f_k, in the
    normal form of :class:`RationalFunction`; (0, ()) for the zero polynomial."""
    degree = max((i for i, c in enumerate(p) if c), default=-1)
    if degree < 0:
        return 0, ()
    content = gcd(*p) if p[degree] > 0 else -gcd(*p)
    factor = [c // content for c in p[:degree + 1]]
    if degree == 2:
        c, b, a = factor
        disc = b * b - 4 * a * c
        root = isqrt(max(disc, 0))
        if root * root == disc:
            # (2an + b - root)(2an + b + root) = 4a (an^2 + bn + c)
            return content, _normal([b - root, 2 * a])[1] + _normal([b + root, 2 * a])[1]
    return content, (factor,) if degree else ()


def factor_sign(side: tuple, n0: int) -> tuple[Optional[int], Optional[int]]:
    """(s, z) for p = c f_1 ... f_k, side = (c, (f_1, ..., f_k)) in the normal
    form of :class:`RationalFunction`: s = 1 or -1 when s p(n) >= 0 at every
    integer n >= n0, and z the first such n with p(n) = 0; (None, None) when
    p has no such sign, and (1, n0) for the zero polynomial.

    A linear factor vn + u is read by its root -u/v, and a quadratic with a
    negative discriminant is positive; any other factor must be certified
    nonnegative from n0 by its own :func:`nonneg_walk`, which finds its first
    zero.  The linear factors keep their signs between two adjacent roots,
    so p's is read at n0 and at the first integer past each root from n0 on.
    Where another factor's walk fails, or no sign is read while one is
    walked (its zeros may hide the linear factors' sign), the multiplied-out
    p is walked instead, once per sign.
    """
    constant, factors = side
    if not constant:
        return 1, n0
    linear, zeros, points, walked = [], [], {n0}, False
    for factor in factors:
        if len(factor) == 2:
            u, v = factor
            linear.append(factor)
            if -u >= v * n0:
                points.add(-u // v + 1)
                if u % v == 0:
                    zeros.append(-u // v)
        elif len(factor) != 3 or factor[1] ** 2 >= 4 * factor[0] * factor[2]:
            walk = nonneg_walk(factor, n0)
            if walk is None or walk[0] != n0:
                break
            walked = True
            if walk[1] is not None:
                zeros.append(walk[1])
    else:
        signs = {(value > 0) - (value < 0) for value in
                 (constant * prod(u + v * n for u, v in linear) for n in points)} - {0}
        if len(signs) == 1:
            return signs.pop(), min(zeros, default=None)
        if not walked:
            return None, None
    p = reduce(poly_mul, factors, [constant])
    for sign in (1, -1):
        walk = nonneg_walk(poly_scale(p, sign), n0)
        if walk is not None and walk[0] == n0:
            return sign, walk[1]
    return None, None


class RationalFunction:
    """Quotient num/den of two integer polynomials in one variable, in one
    canonical form, and the factors it was described by.

    Rational coefficients are cleared once: num and den are multiplied by
    the lcm of their coefficients' denominators, then divided by the gcd of
    all their coefficients.  Any positive multiple of the same pair of
    polynomials therefore gives the same integers.

    ``factors`` holds each side as (c, (f_1, ..., f_k)), the polynomial
    c f_1 ... f_k, each f_i in the normal form: primitive, with a positive
    leading coefficient, and a quadratic whose discriminant is a square
    split into its two linear factors.  num/den given here is one factor a
    side; :func:`integer_ratio` keeps the factors it is given, and num and
    den are multiplied out when they are first read.
    """

    def __init__(self, num: Sequence, den: Sequence):
        scale = lcm(*(c.denominator for c in (*num, *den)))
        num, den = ([c.numerator * (scale // c.denominator) for c in p] for p in (num, den))
        content = gcd(*num, *den) or 1
        self.num, self.den = ([c // content for c in p] for p in (num, den))
        self.factors = _normal(self.num), _normal(self.den)

    @classmethod
    def of_factors(cls, num: tuple, den: tuple) -> "RationalFunction":
        """The quotient of two sides (c, factors) in the normal form whose
        constants are coprime: the canonical form, once multiplied out."""
        ratio = cls.__new__(cls)
        ratio.factors = num, den
        return ratio

    @cached_property
    def num(self) -> Poly:
        return reduce(poly_mul, self.factors[0][1], [self.factors[0][0]])

    @cached_property
    def den(self) -> Poly:
        return reduce(poly_mul, self.factors[1][1], [self.factors[1][0]])

    def cancelled(self, n0: int) -> "RationalFunction":
        """This quotient less each factor found on both sides that is
        positive at every integer n >= n0, so that no sign or zero there
        changes; itself when there is none."""
        (c_num, num), (c_den, den) = self.factors
        num, den = list(num), list(den)
        for factor in self.factors[0][1]:
            if factor in den and factor_sign((1, (factor,)), n0) == (1, None):
                num.remove(factor)
                den.remove(factor)
        if len(num) == len(self.factors[0][1]):
            return self
        # the cancelled factors are primitive: the constants stay coprime
        return RationalFunction.of_factors((c_num, tuple(num)), (c_den, tuple(den)))

    def __call__(self, n) -> Fraction:
        d = poly_eval(self.den, n)
        if d == 0:
            raise ZeroDivisionError(f"rational function denominator vanishes at {n}")
        return Fraction(poly_eval(self.num, n), d)

    def bounded_by(self, rho, n0: int) -> Optional[int]:
        """Certify num(n)/den(n) <= rho for all integers n >= n0, num and den
        each certified nonnegative first: the main certificate's shift, or
        None."""
        if eventually_nonneg(self.num, n0) is None:
            return None
        if eventually_nonneg(self.den, n0) is None:
            return None
        return eventually_nonneg(self.margin(rho), n0)

    def margin(self, rho) -> Poly:
        """rho.numerator den - rho.denominator num: a positive multiple of
        rho den - num, nonnegative exactly where num/den <= rho (den > 0)."""
        return poly_add(poly_scale(self.den, rho.numerator),
                        poly_scale(self.num, -rho.denominator))


def integer_ratio(scale, num_factors: Sequence[Sequence],
                  den_factors: Sequence[Sequence]) -> RationalFunction:
    """scale * prod(num_factors) / prod(den_factors), kept as its factors.

    Each factor is cleared of its coefficients' denominators on its own, the
    other side taking the same positive multiple, and put in the normal form
    of :class:`RationalFunction`, and the two constants are divided by their
    gcd: the canonical form that any other route to the same quotient gives.
    :func:`factored_ratio`, which reads every engine-derived ratio off the
    evaluators, is built by it.
    """
    scale = Fraction(scale)
    constants, sides = [scale.numerator, scale.denominator], ([], [])
    for side, factors in enumerate((num_factors, den_factors)):
        for factor, power in Counter(map(tuple, factors)).items():
            multiple = lcm(*(c.denominator for c in factor))
            constant, normal = _normal([c.numerator * (multiple // c.denominator)
                                        for c in factor])
            constants[side] *= constant ** power
            constants[1 - side] *= multiple ** power
            sides[side].extend(normal * power)
    content = gcd(*constants) or 1
    return RationalFunction.of_factors(*((c // content, tuple(f))
                                         for c, f in zip(constants, sides)))


def solve_linear(rows: Sequence[Sequence[int]], rhs: Sequence[int], den: int):
    """Exact fraction-free (Bareiss) elimination over every row.

    The system is given on the integers: integer rows, and right-hand
    sides as integer numerators over one positive denominator ``den``.
    Each row is divided by its content, and its right-hand side by the
    same content, in lowest terms against it: the right-hand sides stay
    integer numerators, over ``den`` times the lcm of what is left of the
    contents, which never enters a coefficient.  A pivot step replaces
    each entry of a lower row, right-hand side included, by
    (pv a - f b) // prev, prev the pivot of the step before: a minor of
    the cleared system, so every division is exact, and a remainder raises
    ``ArithmeticError``.  Back-substitution finds det x, det the last
    pivot, on the integers and divides once per unknown.

    Returns ``((numerators, denominator), "unique")`` when the system has
    exactly one solution, given as integer numerators over one positive
    denominator, not reduced; ``(None, "underdetermined")`` when it is
    consistent but rank deficient, and ``(None, "inconsistent")`` otherwise.
    """
    m, scales = [], []
    for row, value in zip(rows, rhs):
        content = gcd(*row) or 1
        shared = gcd(content, value)
        m.append([c // content for c in row] + [value // shared])
        scales.append(content // shared)
    common = lcm(*scales)  # row i's right-hand side is m[i][-1] / (den common)
    for row, scale in zip(m, scales):
        row[-1] *= common // scale
    n_rows, n_cols = len(m), len(m[0]) - 1
    r, prev = 0, 1
    for col in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top, pv = m[r], m[r][col]
        for i in range(r + 1, n_rows):
            row, f = m[i], m[i][col]
            row[col] = 0
            for j in range(col + 1, n_cols + 1):
                row[j], remainder = divmod(pv * row[j] - f * top[j], prev)
                if remainder:
                    raise ArithmeticError("fraction-free elimination left a remainder")
        prev = pv
        r += 1
        if r == n_rows:
            break
    if any(row[n_cols] for row in m[r:]):
        return None, "inconsistent"
    if r < n_cols:
        return None, "underdetermined"
    # every column has its pivot, on the diagonal; det x is integral (Cramer)
    det, scaled = prev, [0] * n_cols
    for i in reversed(range(n_cols)):
        row = m[i]
        scaled[i], remainder = divmod(det * row[n_cols] - sum(
            row[j] * scaled[j] for j in range(i + 1, n_cols)), row[i])
        if remainder:
            raise ArithmeticError("fraction-free back-substitution left a remainder")
    den *= det * common
    if den < 0:
        den, scaled = -den, [-s for s in scaled]
    return (scaled, den), "unique"


# -- rational functions of X and Z, kept as integer factors ------------------

def _mul(p: dict, q: dict) -> dict:
    """The product of two polynomials {(i, j): coefficient of X^i Z^j}; a
    coefficient that cancels stays in as 0."""
    out: dict = {}
    for (i, j), a in p.items():
        for (k, m), b in q.items():
            out[i + k, j + m] = out.get((i + k, j + m), 0) + a * b
    return out


def _without(den: Sequence, divisors: Sequence) -> list:
    """The divisor list ``den`` less one copy of each of ``divisors`` it holds."""
    rest = list(den)
    for divisor in divisors:
        if divisor in rest:
            rest.remove(divisor)
    return rest


def _lcm(p: tuple, q: tuple) -> tuple:
    """The least common multiple of two divisor lists, as a divisor list."""
    return (*p, *_without(q, p))


def divisor_lcm(values: Sequence[Factors]) -> tuple:
    """The least common multiple of the values' divisor lists."""
    den: tuple = ()
    for value in values:
        den = _lcm(den, value.den)
    return den


def degrees(factors: Sequence[dict]) -> tuple[int, int]:
    """(degree in X, degree in Z) of the product of nonzero polynomials."""
    return (sum(max(i for i, _ in factor) for factor in factors),
            sum(max(j for _, j in factor) for factor in factors))


class Factors:
    """n/d * prod(num) / prod(den): a rational function of X and Z kept as
    integer factors, on which a formula written once for values runs.

    Each factor is a primitive integer polynomial {(i, j): coefficient of
    X^i Z^j} whose lowest monomial has a positive coefficient, so equal
    factors compare equal.  A product joins factor lists, and only a sum
    multiplies out, over the lcm of the two divisor lists, into one new
    factor.  No divisor is ever cancelled, so ``den`` holds every
    polynomial divided by on the way: every factor whose zeros make the
    formula's evaluation divide by zero.  The scale n/d (d > 0) is kept as
    two unreduced integers.  No factor is the zero polynomial, so the value
    is zero exactly when n is.
    """

    __slots__ = ("n", "d", "num", "den")

    def __init__(self, n: int, d: int = 1, num: tuple = (), den: tuple = ()):
        self.n, self.d, self.num, self.den = n, d, num, den

    @classmethod
    def monomial(cls, i: int, j: int, coefficient=1) -> "Factors":
        """coefficient X^i Z^j."""
        return cls(coefficient.numerator, coefficient.denominator,
                   ({(i, j): 1},) if i or j else ())

    @staticmethod
    def _lift(value) -> "Factors":
        return value if isinstance(value, Factors) else Factors(value.numerator,
                                                                value.denominator)

    def cleared(self, den: tuple) -> tuple:
        """The factors of this value's numerator over ``den``, a multiple of
        its divisor list."""
        return (*self.num, *_without(den, self.den))

    def __add__(self, other) -> "Factors":
        other = self._lift(other)
        if not (self.n and other.n):
            return self if other.n == 0 else other
        den = _lcm(self.den, other.den)
        total: dict = {}
        for term, scale in ((self, self.n * other.d), (other, other.n * self.d)):
            product = {(0, 0): scale}
            for factor in term.cleared(den):
                product = _mul(product, factor)
            for key, c in product.items():
                total[key] = total.get(key, 0) + c
        total = {key: c for key, c in total.items() if c}
        if not total:
            return Factors(0)
        content = gcd(*total.values())
        if total[min(total)] < 0:
            content = -content
        return Factors(content, self.d * other.d,
                       ({key: c // content for key, c in total.items()},), den)

    __radd__ = __add__

    def __neg__(self) -> "Factors":
        return Factors(-self.n, self.d, self.num, self.den)

    def __sub__(self, other) -> "Factors":
        return self + -self._lift(other)

    def __rsub__(self, other) -> "Factors":
        return -self + other

    def __mul__(self, other) -> "Factors":
        other = self._lift(other)
        return Factors(self.n * other.n, self.d * other.d, self.num + other.num,
                       self.den + other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Factors":
        other = self._lift(other)
        if not other.n:
            raise ZeroDivisionError("division by zero")
        sign = 1 if other.n > 0 else -1
        return Factors(sign * self.n * other.d, sign * self.d * other.n,
                       self.num + other.den, self.den + other.num)

    def __rtruediv__(self, other) -> "Factors":
        return self._lift(other) / self

    def __eq__(self, other) -> bool:
        """Equality as rational functions."""
        return not (self - other).n


def _in_y(factor: dict) -> list:
    """A factor's coefficients in y, low degree first, with X^i Z^j read as y^(i+j)."""
    out = [0] * (1 + max(i + j for i, j in factor))
    for (i, j), c in factor.items():
        out[i + j] += c
    return out


def factored_ratio(top: Factors, bottom=1) -> RationalFunction:
    """top / bottom as the canonical :class:`RationalFunction` of y, with
    X^i Z^j read as y^(i+j).

    Only a divisor of both sides (like 1 - tqX^2 in the transformed ratio)
    cancels; the rest are multiplied out over the integers by
    :func:`integer_ratio`.
    """
    bottom = Factors._lift(bottom)
    return integer_ratio(Fraction(top.n * bottom.d, top.d * bottom.n),
                         [_in_y(f) for f in (*top.num, *_without(bottom.den, top.den))],
                         [_in_y(f) for f in (*bottom.num, *_without(top.den, bottom.den))])
