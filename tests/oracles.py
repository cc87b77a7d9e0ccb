"""Independent evaluations that the engine's stepped values are checked against."""

from fractions import Fraction
from math import gcd, isqrt

from markovsum.catalog import CatalogError
from markovsum.exact import ROUND_TRUNCATE, Enclosure, to_decimal
from markovsum.hgterm import q_pochhammer, rising_factorial
from markovsum.markov.pairs import EvaluationError
from markovsum.markov.solver import _SHAPE, FORM_U1, MultiplierData, SolveResult
from markovsum.polys import (
    RationalFunction,
    nonneg_walk,
    poly,
    poly_eval,
    poly_mul,
    poly_scale,
    poly_shift,
)


def f_product(engine, x: int, z: int):
    """The 3phi2 extension in q-Pochhammer product form:

    F_{x,z} = (a;q)_z (b;q)_z t^z / ((c;q)_{x+z} (d;q)_{x+z}) (c d q^(2z))^x q^(x(x-1)).
    """
    a, b, c, d, q, t = engine.a, engine.b, engine.c, engine.d, engine.q, engine.t
    num = q_pochhammer(a, q, z) * q_pochhammer(b, q, z) * t ** z
    den = q_pochhammer(c, q, x + z) * q_pochhammer(d, q, x + z)
    return num / den * (c * d * q ** (2 * z)) ** x * q ** (x * (x - 1))


def m0(engine, x: int):
    """M_{x,0} = A_x (1 - tq^(2x)(a+b+q) + tq^(3x)(c+d)) / ((1-tq^(2x))(1-tq^(2x+1)))."""
    a, b, c, d, q, t = engine.a, engine.b, engine.c, engine.d, engine.q, engine.t
    return engine.A(x) * (1 - t * q ** (2 * x) * (a + b + q) + t * q ** (3 * x) * (c + d)) \
        / ((1 - t * q ** (2 * x)) * (1 - t * q ** (2 * x + 1)))


def f4f3_product(a, h, b, x: int, z: int):
    """The 4F3 extension in product form:

    F_{x,z} = (a)_z (a+h)_z (a-h)_z / ((b)_{x+z} (b+h)_{x+z} (b-h)_{x+z}).
    """
    num = rising_factorial(a, z) * rising_factorial(a + h, z) * rising_factorial(a - h, z)
    return num / (rising_factorial(b, x + z) * rising_factorial(b + h, x + z)
                  * rising_factorial(b - h, x + z))


def schellbach_product(a, b, c, d, x: int, z: int):
    """The classical extension in product form: F_{x,z} = (a)_z (b)_z / ((c)_{x+z} (d)_{x+z})."""
    return rising_factorial(a, z) * rising_factorial(b, z) \
        / (rising_factorial(c, x + z) * rising_factorial(d, x + z))


def well_poised_product(a, b, x: int, z: int):
    """The well-poised extension in product form: F_{x,z} = (a)_z^3 (-1)^z / (b)_{x+z}^3."""
    return rising_factorial(a, z) ** 3 * (-1) ** z / rising_factorial(b, x + z) ** 3


def certificate_value_residual(engine, p, q, r, x: int, z: int):
    """Q(x) F_{x+1,z} - P(x) F_{x,z} - R(x,z+1) F_{x,z+1} + R(x,z) F_{x,z}, F in product form."""
    f00, f10, f01 = (f_product(engine, x + i, z + j) for i, j in ((0, 0), (1, 0), (0, 1)))
    return q(x) * f10 - p(x) * f00 - r(x, z + 1) * f01 + r(x, z) * f00


def pair_value_residual(u, v, x: int, z: int):
    """U_{x,z} - U_{x+1,z} - V_{x,z} + V_{x,z+1} from value evaluators u and v."""
    return u(x, z) - u(x + 1, z) - v(x, z) + v(x, z + 1)


def green_rectangle_sums(pair, i: int, j: int) -> tuple:
    """(u_sum, u_edge, v_sum, v_edge) over [0,i] x [0,j], one ``Fraction``
    addition per edge term, each value read through ``Scale.value``."""
    return (sum(pair.u(0, z) for z in range(j)), sum(pair.u(i, z) for z in range(j)),
            sum(pair.v(x, 0) for x in range(i)), sum(pair.v(x, j) for x in range(i)))


def gauss_jordan(rows, rhs):
    """Exact Gauss-Jordan elimination on Fractions: the same (solution, status)
    contract as ``polys.solve_linear`` ("unique", "underdetermined" or
    "inconsistent", solution None unless unique)."""
    m = [list(r) + [v] for r, v in zip(rows, rhs)]
    n_rows = len(m)
    n_cols = len(m[0]) - 1
    pivots = []
    r = 0
    for col in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = Fraction(m[r][col])
        m[r] = [v / pv for v in m[r]]
        for i in range(n_rows):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [u - f * v for u, v in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == n_rows:
            break
    for i in range(r, n_rows):
        if m[i][n_cols] != 0:
            return None, "inconsistent"
    if len(pivots) < n_cols:
        return None, "underdetermined"
    sol = [Fraction(0)] * n_cols
    for i, col in enumerate(pivots):
        sol[col] = m[i][n_cols]
    return sol, "unique"


def fraction_stepwise(extension, form: str, x_max: int, z_samples=None) -> SolveResult:
    """The stepwise solver with every row, right-hand side and column kept as
    ``Fraction``s and eliminated by :func:`gauss_jordan`: the same
    ``SolveResult``, or the same ``EvaluationError`` at the same point, as
    ``solver.solve_multipliers_stepwise``."""
    if form not in _SHAPE:
        raise ValueError(f"unknown ansatz form {form!r}")
    deg_u, deg_v = _SHAPE[form]
    unknowns = deg_u + deg_v
    if z_samples is None:
        z_samples = unknowns + 2
    if z_samples < unknowns + 2:
        raise ValueError(f"form {form} needs z_samples >= {unknowns + 2}")
    q = extension.params.get("q")
    if form == FORM_U1 and q is None:
        raise ValueError("form u1 needs the base q in the extension params")

    u_coeffs = [[Fraction(1)] + [Fraction(0)] * (deg_u - 1)]
    v_coeffs = []
    reduced, sx, sz = extension.reduced, extension.scale.sx, extension.scale.sz
    for x in range(x_max + 1):
        rows, rhs = [], []
        nonzero = True
        for z in range(z_samples):
            try:
                step_z, step_x = sz(x, z), sx(x, z)
            except ZeroDivisionError as exc:
                raise EvaluationError(f"{extension.label or 'extension'} undefined on a step "
                                      f"from (x={x}, z={z}): {exc}", x, z) from exc
            # F_{x,z}, F_{x,z+1} and F_{x+1,z} over S_{x,z}
            f_xz, f_xz1, f_x1z = (reduced(x, z), reduced(x, z + 1) * step_z,
                                  reduced(x + 1, z) * step_x) if nonzero else (0, 0, 0)
            nonzero = nonzero and step_z != 0
            row = [z ** k * f_x1z for k in range(deg_u)]
            if form == FORM_U1:
                row += [f_xz - f_xz1, q ** z * f_xz - q ** (z + 1) * f_xz1]
            else:
                row += [z ** k * f_xz - (z + 1) ** k * f_xz1 for k in range(deg_v)]
            rows.append(row)
            rhs.append(sum(c * z ** k for k, c in enumerate(u_coeffs[x])) * f_xz)
        solution, status = gauss_jordan(rows, rhs)
        if status == "underdetermined":
            return SolveResult(False, reason=f"ansatz underdetermined at x={x}", failed_x=x)
        if solution is None:
            return SolveResult(False, reason=f"ansatz does not close at x={x}", failed_x=x)
        u_coeffs.append(list(solution[:deg_u]))
        v_coeffs.append(list(solution[deg_u:]))
    return SolveResult(True, data=MultiplierData(form, u_coeffs, v_coeffs,
                                                 q=q if form == FORM_U1 else None))


def column_products(p, q, count: int) -> list:
    """A_0 = 1, A_{x+1} = A_x Q(x)/P(x) for x < count, as a plain running product."""
    values = [1]
    for x in range(count):
        values.append(values[-1] * q(x) / p(x))
    return values


def hits_pole_loop(value, q, span: int = 64) -> bool:
    """value == q^-k for some 0 <= k < span, by comparing value with 1/q^k as Fractions."""
    probe = Fraction(1)
    for _ in range(span):
        if value == 1 / probe:
            return True
        probe *= q
    return False


def markov_hurwitz_ratio(a) -> RationalFunction:
    """The markov-hurwitz term ratio built on Fraction coefficients:

    -(n+1)^6 p_a(n+1) / ((2n+2)(2n+3)(n+1+a)^4 p_a(n)), p_a(n) = 5(n+1)^2 + 6(a-1)(n+1) + 2(a-1)^2.
    """
    a = Fraction(a)
    p_a = poly(5 + 6 * (a - 1) + 2 * (a - 1) ** 2, 10 + 6 * (a - 1), 5)
    num = poly_mul(poly_pow(poly(1, 1), 6), poly_shift(poly_scale(p_a, -1), 1))
    den = poly_mul(poly_mul(poly_mul(poly(2, 2), poly(3, 2)),
                            poly_pow(poly(1 + a, 1), 4)), p_a)
    return RationalFunction(num, den)


def hurwitz3_ratio(a) -> RationalFunction:
    """The hurwitz3-direct term ratio (n+a)^3/(n+a+1)^3 built on Fraction coefficients."""
    a = Fraction(a)
    return RationalFunction(poly_pow(poly(a, 1), 3), poly_pow(poly(a + 1, 1), 3))


def phi32_series_ratio(engine) -> RationalFunction:
    """The qsh-3phi2 term ratio t (1-ay)(1-by) / ((1-cy)(1-dy)) built on Fraction coefficients."""
    a, b, c, d, t = engine.a, engine.b, engine.c, engine.d, engine.t
    return RationalFunction(poly_scale(poly_mul(poly(1, -a), poly(1, -b)), t),
                            poly_mul(poly(1, -c), poly(1, -d)))


def phi32_transformed_h(engine) -> RationalFunction:
    """h(y) of the transformed series built on Fraction coefficients:

    cd (1-(c/a)y)(1-(c/b)y)(1-(d/a)y)(1-(d/b)y) g(qy) / (q (1-cy)(1-dy)(1-tq^2 y^2)(1-tq^3 y^2) g(y)),
    g(y) = 1 - t(a+b+q) y^2 + t(c+d) y^3.
    """
    a, b, c, d, q, t = engine.a, engine.b, engine.c, engine.d, engine.q, engine.t
    g = poly(1, 0, -t * (a + b + q), t * (c + d))
    h_num = [c * d * coeff * q ** i for i, coeff in enumerate(g)]
    for ratio in (c / a, c / b, d / a, d / b):
        h_num = poly_mul(h_num, poly(1, -ratio))
    h_den = poly_mul(poly_mul(poly_scale(poly(1, -c), q), poly(1, -d)),
                     poly_mul(poly_mul(poly(1, 0, -t * q ** 2), poly(1, 0, -t * q ** 3)), g))
    return RationalFunction(h_num, h_den)


def schellbach_ratio(params) -> RationalFunction:
    """Schellbach's term ratio built on Fraction coefficients:

    (c-a+x)(c-b+x)(d-a+x)(d-b+x) p(x+1) / ((c+x)(d+x)(t+2x+2)(t+2x+3) p(x)).
    """
    a, b, c, d, t = params.a, params.b, params.c, params.d, params.t
    s = c + d - 1
    p_poly = poly_mul(poly(s - a, 2), poly(s - b, 2))
    p_poly = [pi - qi for pi, qi in zip(p_poly, poly_mul(poly(c - 1, 1), poly(d - 1, 1)))]
    num = poly_mul(poly_mul(poly(c - a, 1), poly(c - b, 1)), poly_mul(poly(d - a, 1), poly(d - b, 1)))
    num = poly_mul(num, poly_shift(p_poly, 1))
    den = poly_mul(poly_mul(poly(c, 1), poly(d, 1)), poly_mul(poly(t + 2, 2), poly(t + 3, 2)))
    return RationalFunction(num, poly_mul(den, p_poly))


def stepped_factors(seq, n: int) -> tuple[int, int]:
    """The integers p(n), q(n) of a TermSequence, read off its ratio's polynomials
    directly: at n, or for a q-series as w^deg num(y/w), w^deg den(y/w) at
    y/w = base^n, deg the larger degree."""
    num, den = seq.ratio.num, seq.ratio.den
    if seq.base is None:
        return poly_eval(num, n), poly_eval(den, n)
    degree = max(len(num), len(den)) - 1
    power, scale = seq.base ** n, seq.base.denominator ** (n * degree)
    return (int(poly_eval(num, power) * scale), int(poly_eval(den, power) * scale))


def fraction_enclosure(entry, partial: Fraction, last: int):
    """The enclosure of an entry's limit from the partial sum through ``last``,
    on Fractions: the tightest of every bound that applies (the two Leibniz
    brackets, the geometric remainder, the entry's own majorant r times the
    next term, from where registration certified it)."""
    lows, highs = [], []
    if entry.leibniz_from is not None and last + 1 >= entry.leibniz_from:
        nxt = entry.term(last + 1)
        for lo, hi in (sorted((partial, partial + nxt)),
                       sorted((partial + nxt, partial + nxt + entry.term(last + 2)))):
            lows.append(lo)
            highs.append(hi)
    bounds = []
    if entry.ratio_bound and last + 1 >= entry.ratio_bound.valid_from:
        bounds.append(abs(entry.term(last + 1)) / (1 - entry.ratio_bound.rho))
    if entry.majorant is not None and last + 1 >= entry.tail[1]:
        base = entry.terms.base
        at = last + 1 if base is None else base ** (last + 1)
        bounds.append(abs(entry.term(last + 1)) * entry.majorant(at))
    for bound in bounds:
        lows.append(partial if entry.remainder_nonneg else partial - bound)
        highs.append(partial + bound)
    return Enclosure(max(lows), min(highs)) if lows else None


# -- the remainder bounds the catalog used before its majorants ---------------

def zeta_direct_tail(k: int, last: int) -> Fraction:
    """sum_{n > N} n^-k <= integral of x^-k from N on = 1/((k-1) N^(k-1))."""
    return Fraction(1, (k - 1) * last ** (k - 1))


def hurwitz3_direct_tail(a, last: int) -> Fraction:
    """sum_{n > N} (a+n)^-3 <= integral of x^-3 from a+N on = 1/(2 (a+N)^2)."""
    return 1 / (2 * (a + last) ** 2)


def _sqrt_lower(n: int, bits: int = 64) -> Fraction:
    """A rational lower bound on sqrt(n) for integer n >= 1."""
    scale = 1 << bits
    return Fraction(isqrt(n * scale * scale), scale)


def kummer_tail(last: int) -> Fraction:
    """27/sqrt(2N+9), sqrt bounded below: u_n = (9/2)_n/(5)_n has u_n^2 (n + 9/2)
    nonincreasing, so term(n) <= ((9/2)/(n+9/2))^(3/2), whose integral from N on
    is 2 (9/2)^(3/2)/sqrt(N+9/2)."""
    return 27 / _sqrt_lower(2 * last + 9)


def transformed_tail_factor(engine, last: int):
    """1/(1 - K q^(2N+2)), or None where K q^(2N+2) >= 1: the transformed
    series' remainder after N is at most the next term times this, for
    term(x+1)/term(x) <= K q^(2x) with the explicit constant K."""
    a, b, c, d, q, t = engine.a, engine.b, engine.c, engine.d, engine.q, engine.t
    big_k = (c * d / q) * (1 + t * (c + d)) / (
        (1 - c) * (1 - d) * (1 - t * (a + b + q)) * (1 - t) ** 2)
    contraction = big_k * q ** (2 * (last + 1))
    return None if contraction >= 1 else 1 / (1 - contraction)


def linear_terms_needed(entry, digits: int, rounding: str = ROUND_TRUNCATE,
                        n_cap: int = 100000) -> int:
    """terms_needed by one forward pass over every index, on Fractions.

    An index is skipped while the term two past it exceeds 10^-digits
    (bit lengths decide unless they fall within two bits of the boundary);
    every other index gets a Fraction enclosure and, when it is at most
    10^-digits wide, a rendering.
    """
    if entry.ratio_bound is None:
        raise CatalogError(f"{entry.entry_id}: no geometric bound")
    if digits <= 0:
        return 1
    scale = 10 ** digits
    target, scale_bits = Fraction(1, scale), scale.bit_length()
    n0, terms = entry.n0, entry.terms
    for n in range(max(1, entry.ratio_bound.valid_from - n0 + 1), n_cap + 1):
        last = n0 + n - 1
        a, b, _ = terms.state(last + 2)
        gap = b.bit_length() - a.bit_length() - scale_bits
        if a and (gap <= -2 or gap <= 0 and abs(a) * scale > abs(b)):
            continue
        enclosure = fraction_enclosure(entry, entry.offset + terms.partial_sum(last), last)
        if enclosure.width <= target and \
                to_decimal(enclosure, digits, rounding).digits_proven >= digits:
            return n
    raise CatalogError(f"{entry.entry_id}: {digits} digits not reached within {n_cap} terms")


def monic_gcd(p, q) -> list:
    """The monic greatest common divisor of two polynomials over the
    rationals, by Euclid's algorithm on ``Fraction`` coefficients."""
    def trimmed(r):
        r = [Fraction(c) for c in r]
        while len(r) > 1 and not r[-1]:
            r.pop()
        return r

    p, q = trimmed(p), trimmed(q)
    while any(q):
        r = list(p)
        while len(r) >= len(q) and any(r):
            c, shift = r[-1] / q[-1], len(r) - len(q)
            for i, b in enumerate(q):
                r[i + shift] -= c * b
            r = trimmed(r)
        p, q = q, r
    return [c / p[-1] for c in p]


def poly_pow(p, e: int) -> list:
    """p^e by repeated multiplication."""
    out = [1]
    for _ in range(e):
        out = poly_mul(out, p)
    return out


def _trimmed(p) -> list:
    """p without zero coefficients above its degree."""
    top = len(p)
    while top > 1 and not p[top - 1]:
        top -= 1
    return list(p[:top])


def poly_quotient(p, d):
    """The integer polynomial p/d when d divides p in Z[x], else None; d nonzero."""
    rest, d = _trimmed(p), _trimmed(d)
    lead, m = d[-1], len(d) - 1
    if len(rest) <= m:
        return None if any(rest) else [0]
    lower = d[-2::-1]
    out = []
    for k in range(len(rest) - 1, m - 1, -1):
        c, r = divmod(rest[k], lead)
        if r:
            return None
        out.append(c)
        if c:
            for b in lower:
                k -= 1
                rest[k] -= c * b
    if any(rest[:m]):
        return None
    out.reverse()
    return out


def gcd_cofactors(p, q) -> tuple[list, list, list]:
    """(g, p/g, q/g), g the primitive greatest common divisor of two nonzero
    integer polynomials with a positive leading coefficient.

    Heuristic gcd (Char, Geddes and Gonnet, 1989).  At an integer
    xi >= 2 B + 2, B the largest coefficient of p and q, every root r of
    either has |r| < B + 1, and the balanced xi-adic digits of
    gamma = gcd(p(xi), q(xi)) form a polynomial G with G(xi) = gamma > 0,
    whose leading digit is then positive.  The gcd d has d(xi) | gamma.
    When G's primitive part g divides both, g is d: d = g h, h(xi) divides
    the content of G, which is at most xi/2, and a nonconstant h has
    |h(xi)| > (xi - B - 1)^deg h >= xi/2.  So gamma <= xi/2 (G a constant)
    proves d = 1 with no division.  Otherwise xi is squared and the test
    repeated; it ends, since gamma / |d(xi)| divides the resultant of the
    cofactors, and once xi exceeds twice that times d's coefficients, G is
    a constant multiple of d.  The cofactors come from exact divisions, so
    p = g (p/g) and q = g (q/g) hold whatever the argument above; it only
    makes g the greatest.
    """
    p, q = _trimmed(p), _trimmed(q)
    xi = 2 * max(map(abs, (*p, *q))) + 2
    while True:
        gamma = gcd(poly_eval(p, xi), poly_eval(q, xi))
        if 2 * gamma <= xi:
            return [1], p, q
        digits = []
        while gamma:
            digit = gamma % xi
            if 2 * digit > xi:
                digit -= xi
            digits.append(digit)
            gamma = (gamma - digit) // xi
        content = gcd(*digits)
        g = [c // content for c in _trimmed(digits)]
        p_cofactor = poly_quotient(p, g)
        if p_cofactor is not None:
            q_cofactor = poly_quotient(q, g)
            if q_cofactor is not None:
                return g, p_cofactor, q_cofactor
        xi *= xi


def lowest_terms(ratio, n0: int) -> tuple[list, list]:
    """The (num, den) an n-series steps, by the reference rule: the gcd g of
    the ratio's two polynomials is cancelled when ``nonneg_walk`` certifies
    g > 0 at every index from n0 on, else the ratio is stepped as it is."""
    if not any(ratio.num):
        return ratio.num, ratio.den
    g, num, den = gcd_cofactors(ratio.num, ratio.den)
    if len(g) == 1 or nonneg_walk(g, n0) != (n0, None):
        return ratio.num, ratio.den
    return num, den
