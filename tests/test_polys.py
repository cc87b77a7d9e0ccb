from fractions import Fraction as Q
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from markovsum import catalog
from markovsum.polys import (
    Factors,
    RationalFunction,
    degrees,
    divisor_lcm,
    eventually_nonneg,
    factor_sign,
    factored_ratio,
    integer_ratio,
    nonneg_walk,
    poly,
    poly_add,
    poly_eval,
    poly_mul,
    poly_scale,
    poly_shift,
    unit_interval_nonneg,
    vanishes_at_powers,
)
from markovsum.markov import SAMPLE_TUPLES
from oracles import gcd_cofactors, monic_gcd, poly_pow, poly_quotient
from support import factors_value

GEOMETRIC_IDS = ("apery", "markov-hurwitz", "ratio27-zeta3", "az-zeta3",
                 "zeta2-27", "schellbach-zeta2")


def reference_eventually_nonneg(p, n0, max_shift=256):
    """The shift search without the leading-coefficient test."""
    for s in range(max_shift + 1):
        shifted = poly_shift(p, n0 + s)
        if all(c >= 0 for c in shifted):
            if all(poly_eval(p, n0 + j) >= 0 for j in range(s)):
                return s
            return None
    return None


def certificate_polys(num, den, rho):
    return (num, den, RationalFunction(num, den).margin(rho))


def hurwitz_certificate_polys(a):
    """num, den and margin of the markov-hurwitz magnitude ratio at a."""
    p_a = poly(5 + 6 * (a - 1) + 2 * (a - 1) ** 2, 10 + 6 * (a - 1), 5)
    num = poly_mul(poly_pow(poly(1, 1), 6), poly_shift(p_a, 1))
    den = poly_mul(poly_mul(poly_mul(poly(2, 2), poly(3, 2)),
                            poly_pow(poly(1 + a, 1), 4)), p_a)
    return certificate_polys(num, den, Q(1, 4))


class TestPolyShift:
    def test_shift_zero_returns_the_coefficients(self):
        p = poly(3, Q(-1, 2), 0, 7)
        shifted = poly_shift(p, 0)
        assert shifted == p and shifted is not p

    def test_helpers_keep_the_coefficient_type(self):
        p = poly(3, -1, 0, 7)
        for result in (p, poly_shift(p, 0), poly_shift(p, 2), poly_mul(p, p),
                       poly_add(p, poly(1, 1)), poly_scale(p, -2), [poly_eval(p, 5)]):
            assert all(type(c) is int for c in result), result
        assert all(type(c) is Q for c in poly_shift(p, Q(1, 2)))
        assert type(poly_eval(p, Q(1, 3))) is Q

    def test_shift_moves_the_argument(self):
        p = poly(3, Q(-1, 2), 0, 7)
        for s in (Q(-2), Q(1, 3), Q(5)):
            shifted = poly_shift(p, s)
            assert all(poly_eval(shifted, x) == poly_eval(p, x + s) for x in range(-3, 4))


class TestEventuallyNonneg:
    @pytest.mark.parametrize("p", [poly(1, 0, -1), poly(100, 5, -1, 0), poly(-3)])
    def test_negative_leading_coefficient_gives_none(self, p):
        assert eventually_nonneg(p, 0) is None
        assert nonneg_walk(p, 0) is None

    def test_zero_polynomial(self):
        assert eventually_nonneg(poly(0, 0), 3) == 0

    @pytest.mark.parametrize("entry_id", GEOMETRIC_IDS)
    def test_shifts_unchanged_on_registry_certificates(self, entry_id):
        entry = catalog.get_entry(entry_id)
        ratio = entry.terms.ratio
        num = poly_scale(ratio.num, -1) if entry.alternating else ratio.num
        for p in certificate_polys(num, ratio.den, entry.ratio_bound.rho):
            assert eventually_nonneg(p, entry.n0) == reference_eventually_nonneg(p, entry.n0)

    def test_shifts_unchanged_on_all_hurwitz_values(self):
        values = [Q(n, d) for n in range(1, 13) for d in range(1, 13) if gcd(n, d) == 1]
        assert len(values) == 91
        for a in values:
            for p in hurwitz_certificate_polys(a):
                assert eventually_nonneg(p, 0) == reference_eventually_nonneg(p, 0), a


class TestNonnegFrom:
    def test_first_index_of_a_certified_tail(self):
        # (n - 2)(n - 5) is negative exactly at n = 3, 4
        p = poly(10, -7, 1)
        assert nonneg_walk(p, 0)[0] == 5
        assert nonneg_walk(p, 6)[0] == 6
        assert eventually_nonneg(p, 0) is None

    def test_walk_finds_the_first_zero(self):
        # (n - 2)^2 ((n - 10)^2 + 1): shift 10, and the walk down passes n = 2
        p = poly_mul(poly(4, -4, 1), poly(101, -20, 1))
        assert nonneg_walk(p, 0) == (0, 2)
        assert nonneg_walk(p, 3) == (3, None)
        # (n - 2)(n - 5): the walk stops below 5, its zero
        assert nonneg_walk(poly(10, -7, 1), 0) == (5, 5)
        assert nonneg_walk(poly(0, 0), 4) == (4, 4)  # zero everywhere
        assert nonneg_walk(poly(1, 0, -1), 0) is None

    def test_margin_nonneg_from(self):
        # (n + 3)/(4n + 4) <= 1/2 exactly for n >= 1
        ratio = RationalFunction(poly(3, 1), poly(4, 4))
        assert ratio.bounded_by(Q(1, 2), 0) is None
        assert nonneg_walk(ratio.margin(Q(1, 2)), 0)[0] == 1
        assert nonneg_walk(ratio.margin(Q(1, 5)), 0) is None

    def test_construction_clears_denominators(self):
        # (1/2 + n/3)/(5/6), both sides times 6
        ratio = RationalFunction(poly(Q(1, 2), Q(1, 3)), poly(Q(5, 6)))
        assert (ratio.num, ratio.den) == ([3, 2], [5])
        assert all(type(c) is int for c in ratio.num + ratio.den)
        assert type(ratio(1)) is Q and ratio(1) == 1
        # 2 den - 3 num = 1 - 6n: 18 times 2/3 (5/6) - (1/2 + n/3)
        assert ratio.margin(Q(2, 3)) == [1, -6]


class TestUnitIntervalNonneg:
    @pytest.mark.parametrize("params", SAMPLE_TUPLES)
    def test_accepts_source_margin_in_the_ordered_regime(self, params):
        # 0 < c <= a < 1, 0 < d <= b < 1: (1-cy)(1-dy) - (1-ay)(1-by) >= 0
        a, b, c, d, _ = params
        margin = poly_mul(poly(1, -c), poly(1, -d))
        margin = [m - p for m, p in zip(margin, poly_mul(poly(1, -a), poly(1, -b)))]
        assert unit_interval_nonneg(margin)

    def test_rejects_a_dip_below_zero(self):
        # (2y - 1)^2 - 1/100 < 0 at y = 1/2
        p = poly_mul(poly(-1, 2), poly(-1, 2))
        p[0] -= Q(1, 100)
        assert poly_eval(p, Q(1, 2)) < 0
        assert not unit_interval_nonneg(p)

    def test_touching_zero_at_the_ends(self):
        assert unit_interval_nonneg(poly(0, 1))  # y: zero only at the excluded end 0
        assert unit_interval_nonneg(poly(1, -1))  # 1 - y: zero at y = 1
        assert not unit_interval_nonneg(poly(-1, 1))  # y - 1 < 0 on (0, 1)

    def test_grid_of_products(self):
        # every (1 - u y) with u <= 1 is certified, and so is any product of them
        for u in (Q(-3), Q(0), Q(1, 2), Q(1)):
            for v in (Q(-1, 2), Q(1, 3), Q(1)):
                assert unit_interval_nonneg(poly_mul(poly(1, -u), poly(1, -v)))
        assert not unit_interval_nonneg(poly(1, Q(-11, 10)))


ONE = Factors.monomial(0, 0)
X = Factors.monomial(1, 0)
Z = Factors.monomial(0, 1)

COEFFICIENTS = st.fractions(min_value=-3, max_value=3, max_denominator=12)
POINTS = st.fractions(min_value=-2, max_value=2, max_denominator=9)
DRAWS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _bracket_like(one, x, z, u, v, w, s, r):
    """One formula, run on Fractions and on Factors alike."""
    return (u - x * z) * (1 + v * z) / (1 - w * x * x) - s * one / (1 - r * x * z)


class TestFactors:
    def test_products_keep_their_factors(self):
        f = (1 - Q(1, 2) * X) * (3 - 6 * X) / (2 * X)
        assert f.num == ({(0, 0): 2, (1, 0): -1}, {(0, 0): 1, (1, 0): -2})
        assert f.den == ({(1, 0): 1},)
        assert Q(f.n, f.d) == Q(3, 4)
        assert factors_value(f, Q(1, 3), 5) == (1 - Q(1, 6)) * (3 - 2) / Q(2, 3)

    def test_divisors_are_kept_and_scaled(self):
        f = (1 - X) / (2 - 2 * X)
        assert f.num == f.den == ({(0, 0): 1, (1, 0): -1},)
        assert Q(f.n, f.d) == Q(1, 2)
        assert f == Q(1, 2) and f != 1

    def test_a_sum_multiplies_out_over_the_lcm(self):
        f = 1 + X / (1 - X)
        assert f.num == ({(0, 0): 1},) and f.den == ({(0, 0): 1, (1, 0): -1},)
        g = Q(1, 3) * X - Q(1, 2)
        assert g.num == ({(0, 0): 3, (1, 0): -2},) and Q(g.n, g.d) == Q(-1, 6)
        assert factors_value(g + f, 3, 0) == 0 and factors_value(g + f, 2, 0) == Q(-5, 6)

    def test_sums_over_the_lcm(self):
        one_over = ONE / (1 - X * Z)
        assert (one_over + one_over).den == one_over.den
        assert len((one_over + ONE / (1 + X)).den) == 2
        assert ((one_over * one_over) + one_over).den == one_over.den * 2

    @DRAWS
    @given(st.lists(COEFFICIENTS, min_size=5, max_size=5), POINTS, POINTS)
    @example([Q(1, 3), Q(2, 5), Q(1, 7), Q(3, 2), Q(1)], Q(1, 2), Q(1, 3))
    @example([Q(1, 3), Q(2, 5), Q(1, 7), Q(3, 2), Q(1)], Q(-2), Q(5, 7))
    @example([Q(1, 3), Q(2, 5), Q(1, 7), Q(3, 2), Q(1)], Q(0), Q(4))
    def test_values_match_rational_arithmetic(self, coefficients, x, z):
        f = _bracket_like(ONE, X, Z, *coefficients)
        _, _, w, _, r = coefficients
        if (1 - w * x * x) and (1 - r * x * z):
            assert factors_value(f, x, z) == _bracket_like(1, x, z, *coefficients)
        # sums that cancel to zero, over divisor lists that differ
        assert (f - _bracket_like(ONE, X, Z, *coefficients)).n == 0
        u, v, _, s, _ = coefficients
        rest = (u - X * Z) * (1 + v * Z) - s * (1 - w * X * X) / (1 - r * X * Z)
        assert f * (1 - w * X * X) - rest == 0
        assert f - (f + X * Z) + X * Z == 0

    @DRAWS
    @given(st.lists(COEFFICIENTS, min_size=3, max_size=3), POINTS)
    def test_factored_ratio_matches_evaluation(self, coefficients, y):
        u, v, w = coefficients

        def top(s):
            return (u - s) * (1 + v * s) / (1 - w * s * s)

        def bottom(s):
            return (1 + s * s) / (1 - w * s * s) + v * s

        if not ((1 - w * y * y) and bottom(y)):
            return
        # X^i Z^j reads as y^(i+j), so XZ reads as y^2
        for symbol in (X, Z):
            assert factored_ratio(top(symbol), bottom(symbol))(y) == top(y) / bottom(y)
        assert factored_ratio(top(X) * X * Z)(y) == top(y) * y * y

    def test_any_nonzero_value_divides(self):
        f = X / (ONE / (1 - X))
        assert f.num == ({(1, 0): 1}, {(0, 0): 1, (1, 0): -1}) and f.den == ()
        assert factors_value(f, 3, 1) == -6
        with pytest.raises(ZeroDivisionError):
            X / (Z - Z)

    def test_zero_is_a_zero_scale(self):
        assert X - X == 0 and (X - X).n == 0
        assert (1 - X) * (1 + X) != 0
        with pytest.raises(ZeroDivisionError):
            X / (X - X)

    def test_cleared_numerators_and_degrees(self):
        # X/(1-X) - Z/(1-Z) = (X-Z)/((1-X)(1-Z))
        terms = (X / (1 - X), -Z / (1 - Z), -(X - Z) / (1 - X) / (1 - Z))
        den = divisor_lcm(terms)
        assert len(den) == 2
        assert divisor_lcm([(X - Z) / ((1 - X) * (1 - Z))]) == den
        assert [degrees(term.cleared(den)) for term in terms] == [(1, 1), (1, 1), (1, 1)]
        assert sum(terms).n == 0

    def test_only_divisors_of_both_sides_cancel(self):
        ratio = factored_ratio(X / (1 - X), 2 * X / (1 - X))
        assert (ratio.num, ratio.den) == ([0, 1], [0, 2])
        ratio = factored_ratio((1 - X) / (1 - X))
        assert (ratio.num, ratio.den) == ([1, -1], [1, -1])


class TestVanishesAtPowers:
    def test_first_power_at_a_root(self):
        # 1 - 8y vanishes at y = q^3 for q = 1/2, and 1 + 8y at q = -1/2
        assert not vanishes_at_powers([1, -8], Q(1, 2), 2)
        assert vanishes_at_powers([1, -8], Q(1, 2), 3)
        assert vanishes_at_powers([1, 8], Q(-1, 2), 3)
        assert not vanishes_at_powers([1, 8], Q(1, 2), 50)

    def test_agrees_with_evaluation(self):
        for p in ([Q(1), Q(-18, 77), Q(1, 77)], [1, 0, Q(-4, 1)], [Q(1, 3), -1], [-1, 0, 0, 8]):
            for q in (Q(1, 2), Q(1, 3), Q(-2, 3), Q(3, 2)):
                expected = any(poly_eval(p, q ** k) == 0 for k in range(9))
                assert vanishes_at_powers(p, q, 8) == expected, (p, q)


def _trim(p) -> list:
    p = list(p)
    while len(p) > 1 and not p[-1]:
        p.pop()
    return p


@st.composite
def positive_from(draw, n0: int) -> list:
    """An integer polynomial positive at every integer n >= n0: a positive
    constant times linear factors positive there and quadratics with no
    real root."""
    g = [draw(st.integers(1, 4))]
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            slope = draw(st.integers(1, 3))
            factor = [1 - slope * n0 + draw(st.integers(0, 5)), slope]
        else:
            center = draw(st.integers(-5, 5))
            factor = [center * center + draw(st.integers(1, 4)), -2 * center, 1]
        g = poly_mul(g, factor)
    return g


SMALL_POLYS = st.lists(st.integers(-6, 6), min_size=1, max_size=4)


class TestGcdCofactors:
    @DRAWS
    @given(SMALL_POLYS, SMALL_POLYS, SMALL_POLYS)
    # the first xi's digits give (x + 3)(x^2 - 1), which does not divide
    # 3 - 15x^2 + 12x^4: xi is squared once
    @example([3, 0, -3], [1, 0, -4], [-3, -1])
    def test_the_gcd_and_its_cofactors(self, g, a, b):
        p, q = poly_mul(g, a), poly_mul(g, b)
        if not (any(p) and any(q)):
            return
        d, p_cofactor, q_cofactor = gcd_cofactors(p, q)
        assert _trim(poly_mul(d, p_cofactor)) == _trim(p)
        assert _trim(poly_mul(d, q_cofactor)) == _trim(q)
        assert gcd(*d) == 1 and d[-1] > 0
        assert [Q(c, d[-1]) for c in d] == monic_gcd(p, q)

    def test_coprime_pairs_give_one(self):
        assert gcd_cofactors([0, 0, 0, -1], [2, 8, 10, 4]) == ([1], [0, 0, 0, -1], [2, 8, 10, 4])

    @pytest.mark.parametrize("entry_id, shared", [
        ("markov-hurwitz", [4, 16, 25, 19, 7, 1]),  # (n+1)^3 (n+2)^2
        ("schellbach-zeta2", [4, 12, 13, 6, 1]),  # (n+1)^2 (n+2)^2
        ("az-zeta3", [1, 5, 10, 10, 5, 1]),  # (n+1)^5
        ("apery", [1]), ("ratio27-zeta3", [1]), ("zeta2-27", [1])])
    def test_catalog_ratios(self, entry_id, shared):
        ratio = catalog.get_entry(entry_id).terms.ratio
        assert gcd_cofactors(ratio.num, ratio.den)[0] == shared

    def test_quotient(self):
        assert poly_quotient([2, 3, 1], [1, 1]) == [2, 1]
        assert poly_quotient([2, 3, 1, 0], [2, 2]) is None
        assert poly_quotient([1, 3, 1], [1, 1]) is None
        assert poly_quotient([0], [1, 1]) == [0]
        assert poly_quotient([5], [1, 1]) is None


class TestWalkUnderPositiveFactors:
    @DRAWS
    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=5), st.integers(-3, 3), st.data())
    # negative between its zeros 2 and 5: v = 5 = z; and the zero polynomial
    @example([10, -7, 1], 0, None)
    @example([0], 1, None)
    def test_a_factor_positive_on_the_indices_keeps_the_walk(self, p, n0, data):
        # nonneg_walk's (v, z) depend only on the signs of p at n >= n0
        g = data.draw(positive_from(n0)) if data is not None else [3, 1]
        assert nonneg_walk(poly_mul(g, p), n0) == nonneg_walk(p, n0)


#: factors read whole: definite quadratics, n^2 - 2 (irrational roots), n^3 + 1 and n^3 - 8
WHOLE_FACTORS = ([5, -2, 1], [2, 0, 1], [3, 1, 1], [-2, 0, 1], [1, 0, 0, 1], [-8, 0, 0, 1])


class TestFactorSign:
    @DRAWS
    @given(st.integers(-3, 3), st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 4)),
                                        max_size=5),
           st.lists(st.sampled_from(WHOLE_FACTORS), max_size=2), st.integers(-3, 6))
    # n^2 - 2 times n - 1 is >= 0 at every n >= 0, but only the whole walk sees it
    @example(1, [(-1, 1)], [[-2, 0, 1]], 0)
    # n^3 + 1 vanishes at n = -1, where 2n + 1 is negative: p >= 0 from -1 on
    @example(1, [(1, 2)], [[1, 0, 0, 1]], -1)
    @example(0, [(1, 1)], [], 2)
    def test_the_factors_give_the_walks_sign_and_first_zero(self, c, linear, whole, n0):
        ratio = integer_ratio(c, [poly(u, v) for u, v in linear] + whole, [])
        p, side = ratio.num, ratio.factors[0]
        walks = [nonneg_walk(poly_scale(p, s), n0) for s in (1, -1)]
        expected = next(((s, walk[1]) for s, walk in zip((1, -1), walks)
                         if walk is not None and walk[0] == n0), (None, None))
        assert factor_sign(side, n0) == expected

    def test_normal_form(self):
        # content and sign in the constant; a square discriminant splits
        assert integer_ratio(1, [poly(-6, 0, 6), poly(Q(1, 2), Q(-3, 2))], [poly(4)]).factors == \
            ((-3, ([-1, 1], [1, 1], [-1, 3])), (4, ()))
        assert RationalFunction(poly(5, 10, 5), poly(-2, 0, 2)).factors == \
            ((5, ([1, 1], [1, 1])), (2, ([-1, 1], [1, 1])))
        assert RationalFunction(poly(0, 0), poly(7)).factors == ((0, ()), (1, ()))
        assert RationalFunction(poly(-2, 0, 1), poly(1)).factors[0] == (1, ([-2, 0, 1],))

    def test_a_far_root_costs_no_walk(self):
        # (2n - 10^9 + 1)^4 (5n^2 + 1) is positive from 0 with no zero, read off one root
        side = integer_ratio(1, [poly(1 - 10 ** 9, 2)] * 4 + [poly(1, 0, 5)], []).factors[0]
        assert factor_sign(side, 0) == (1, None)
        assert factor_sign(integer_ratio(-1, [poly(-10 ** 9, 1)], []).factors[0], 0) == \
            (None, None)
        assert factor_sign(integer_ratio(1, [poly(-10 ** 9, 1)] * 2, []).factors[0], 0) == \
            (1, 10 ** 9)
