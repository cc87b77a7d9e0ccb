"""Independent evaluations that the engine's stepped values are checked against."""

from fractions import Fraction

from markovsum.hgterm import q_pochhammer, rising_factorial
from markovsum.polys import RationalFunction, poly, poly_mul, poly_pow, poly_scale, poly_shift


def f_product(engine, x: int, z: int):
    """The 3phi2 extension in q-Pochhammer product form:

    F_{x,z} = (a;q)_z (b;q)_z t^z / ((c;q)_{x+z} (d;q)_{x+z}) (c d q^(2z))^x q^(x(x-1)).
    """
    a, b, c, d, q, t = engine.a, engine.b, engine.c, engine.d, engine.q, engine.t
    num = q_pochhammer(a, q, z) * q_pochhammer(b, q, z) * t ** z
    den = q_pochhammer(c, q, x + z) * q_pochhammer(d, q, x + z)
    return num / den * (c * d * q ** (2 * z)) ** x * q ** (x * (x - 1))


def f4f3_product(a, h, b, x: int, z: int):
    """The 4F3 extension in product form:

    F_{x,z} = (a)_z (a+h)_z (a-h)_z / ((b)_{x+z} (b+h)_{x+z} (b-h)_{x+z}).
    """
    num = rising_factorial(a, z) * rising_factorial(a + h, z) * rising_factorial(a - h, z)
    return num / (rising_factorial(b, x + z) * rising_factorial(b + h, x + z)
                  * rising_factorial(b - h, x + z))


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
