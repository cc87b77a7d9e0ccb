from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovsum.hgterm import (
    LEAF,
    TermError,
    TermSequence,
    q_limit_check,
    q_pochhammer,
    rising_factorial,
)
from markovsum.polys import RationalFunction, integer_ratio, poly, poly_add, poly_mul, poly_scale
from oracles import poly_pow, stepped_factors


class TestRisingFactorial:
    def test_basic(self):
        assert rising_factorial(Q(3), 4) == 360  # 3*4*5*6

    def test_empty_product(self):
        assert rising_factorial(Q(-7, 3), 0) == 1

    def test_factorial(self):
        assert rising_factorial(Q(1), 5) == 120

    def test_recurrence(self):
        a = Q(2, 7)
        for n in range(12):
            assert rising_factorial(a, n + 1) == rising_factorial(a, n) * (a + n)


class TestQPochhammer:
    def test_empty_product(self):
        assert q_pochhammer(Q(5, 9), Q(1, 3), 0) == 1

    def test_two_factors(self):
        assert q_pochhammer(Q(1, 2), Q(1, 3), 2) == Q(5, 12)  # (1/2)(5/6)

    def test_q_factorial_of_three(self):
        assert q_pochhammer(Q(1, 2), Q(1, 2), 3) == Q(21, 64)  # (1/2)(3/4)(7/8)

    def test_recurrence(self):
        a, q = Q(2, 3), Q(1, 5)
        for n in range(10):
            assert q_pochhammer(a, q, n + 1) == q_pochhammer(a, q, n) * (1 - q ** n * a)


class TestQLimitCheck:
    def test_approach(self):
        values = q_limit_check(2, 3, 1, [Q(9, 10), Q(99, 100), Q(999, 1000)])
        assert values == [Q(190, 271), Q(19900, 29701), Q(1999000, 2997001)]
        target = rising_factorial(Q(2), 1) / rising_factorial(Q(3), 1)
        assert target == Q(2, 3)
        gaps = [abs(v - target) for v in values]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_equal_parameters(self):
        assert q_limit_check(4, 4, 3, [Q(1, 2), Q(3, 4)]) == [1, 1]

    def test_n_zero(self):
        assert q_limit_check(2, 5, 0, [Q(1, 2)]) == [1]

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="integer parameters"):
            q_limit_check(Q(1, 2), 3, 1, [Q(1, 2)])

    @pytest.mark.parametrize("b", [0, -1])
    def test_nonpositive_b_rejected(self, b):
        with pytest.raises(ValueError, match="nonpositive integer"):
            q_limit_check(2, b, 1, [Q(1, 2)])

    def test_q_range_validated(self):
        with pytest.raises(ValueError):
            q_limit_check(2, 3, 1, [Q(3, 2)])


#: an n-series (the apery ratio) and a q-series with a factor in y and one in y^2
SEQUENCES = {
    "n-series": lambda: TermSequence(Q(5, 4), RationalFunction(
        poly(0, 0, 0, -1), poly_mul(poly_pow(poly(1, 1), 2), poly(2, 4))), 1),
    "q-series": lambda: TermSequence(Q(3, 7), RationalFunction(
        poly_mul(poly(3, -1), poly(2, 0, -1)), poly(5, -2)), base=Q(1, 2)),
}


def stepped_spans(seq, m: int, count: int) -> list:
    """(P, Q, T) over [m, m + k) for k = 0..count, one step per index."""
    spans = [(1, 1, 0)]
    for i in range(m, m + count):
        p, q = stepped_factors(seq, i)
        big_p, big_q, t = spans[-1]
        spans.append((big_p * p, big_q * q, t * q + big_p * p))
    return spans


class TestSpans:
    @pytest.mark.parametrize("kind", sorted(SEQUENCES))
    def test_every_length_equals_linear_stepping(self, kind):
        seq = SEQUENCES[kind]()
        assert 300 > 8 * LEAF
        m = seq.n0 + 3
        expected = stepped_spans(seq, m, 300)
        assert [seq.span(m, m + k) for k in range(301)] == expected

    @pytest.mark.parametrize("kind", sorted(SEQUENCES))
    def test_states_by_any_route_are_one_state(self, kind):
        seq = SEQUENCES[kind]()
        n0, first = seq.n0, seq.term(seq.n0)
        a, b = first.numerator, first.denominator
        for n in (n0 + 250, n0 + 3, n0 + 97, n0 + 98, n0 + 251, n0):
            p, q, t = seq.span(n0, n)
            assert seq.state(n) == (a * p, b * q, a * q + a * t)

    def test_spans_reject_indices_before_n0(self):
        with pytest.raises(ValueError):
            SEQUENCES["n-series"]().span(0, 5)
        with pytest.raises(ValueError):
            SEQUENCES["n-series"]().span(6, 5)


class TestFirstIndex:
    @pytest.mark.parametrize("bits", [0, 1, 5, 63, 64, 65, 700, 2999])
    def test_first_index_equals_a_linear_scan(self, bits):
        # the ratio (n+1)/(6n+8) stays below 1/6, so the terms shrink
        seq = TermSequence(1, RationalFunction(poly(1, 1), poly(8, 6)))

        def excess(e, a, b):
            return a.bit_length() + bits - b.bit_length() + (a << bits > b)

        found = seq.first_index(0, 10 ** 5, excess)
        linear = next(e for e in range(10 ** 5)
                      if seq.term(e + 2) <= Q(1, 2 ** bits))
        assert found == linear
        if linear:
            assert seq.first_index(0, linear - 1, excess) is None


class TestLowestTerms:
    def test_a_step_where_both_sides_vanish_is_still_undefined(self):
        # -(n-3)^2 (n+2) / ((n-3)^2 (4n+4)): the shared factor vanishes at n = 3
        shared = [poly(-3, 1)] * 2
        seq = TermSequence(1, integer_ratio(1, shared + [poly(-2, -1)], shared + [poly(4, 4)]))
        assert seq.stepped is seq.ratio
        assert seq.term(3) == Q(-1, 2) * Q(-3, 8) * Q(-1, 3)
        for stepped_across in (lambda: seq.term(4), lambda: seq.span(0, 40),
                               lambda: seq.partial_sum(70)):
            with pytest.raises(TermError, match=r"ratio undefined at n=3: its denominator"):
                stepped_across()

    @pytest.mark.parametrize("n0, cancelled", [(0, False), (1, True)])
    def test_a_factor_that_changes_sign_is_kept(self, n0, cancelled):
        # (2n-1)(n+1) / ((2n-1)^2 (n+2)): the shared 2n-1 is -1 at n = 0
        ratio = integer_ratio(1, [poly(-1, 2), poly(1, 1)], [poly(-1, 2)] * 2 + [poly(2, 1)])
        seq = TermSequence(Q(3, 5), ratio, n0)
        assert (seq.stepped is not ratio) == cancelled
        if cancelled:
            assert (seq.stepped.num, seq.stepped.den) == ([1, 1], [-2, 3, 2])
        term = Q(3, 5)
        for n in range(n0, n0 + 80):
            _, b, _ = seq.state(n)
            assert b > 0 and seq.term(n) == term, n
            term *= ratio(n)

    def test_a_square_quadratic_splits_and_cancels(self):
        # 5n^2 + 10n + 5 = 5 (n+1)^2, given whole: one n + 1 cancels against the denominator's
        assert RationalFunction(poly(5, 10, 5), poly(1)).factors == ((5, ([1, 1], [1, 1])), (1, ()))
        ratio = integer_ratio(1, [poly(5, 10, 5)], [poly(1, 1), poly(6, 4)])
        seq = TermSequence(1, ratio)
        assert (seq.stepped.num, seq.stepped.den) == ([5, 5], [6, 4])
        assert_steps_the_ratio(seq, ratio, 40)

    @pytest.mark.parametrize("n0, cancelled", [(0, False), (1, False), (2, True)])
    def test_a_quadratic_with_irrational_roots_cancels_only_where_positive(self, n0, cancelled):
        # (n^2 - 2)(n+1) / ((n^2 - 2)(3n+4)): n^2 - 2 is -2 and -1 at n = 0, 1
        ratio = integer_ratio(1, [poly(-2, 0, 1), poly(1, 1)], [poly(-2, 0, 1), poly(4, 3)])
        seq = TermSequence(1, ratio, n0)
        assert (seq.stepped is not ratio) == cancelled
        if cancelled:
            assert (seq.stepped.num, seq.stepped.den) == ([1, 1], [4, 3])
        assert_steps_the_ratio(seq, ratio, n0 + 40)

    @pytest.mark.parametrize("n0", [2, 5])
    def test_a_shared_linear_factor_vanishing_from_n0_on_is_kept(self, n0):
        # (n-5)(n+1) / ((n-5)(2n+7)): the shared n - 5 vanishes at n = 5 >= n0
        ratio = integer_ratio(1, [poly(-5, 1), poly(1, 1)], [poly(-5, 1), poly(7, 2)])
        seq = TermSequence(1, ratio, n0)
        assert seq.stepped is ratio
        assert_steps_the_ratio(seq, ratio, 6)
        for stepped_across in (lambda: seq.term(6), lambda: seq.span(n0, 40)):
            with pytest.raises(TermError, match=r"ratio undefined at n=5: its denominator"):
                stepped_across()


def assert_steps_the_ratio(seq, ratio, stop: int):
    """term(n) = term(n0) ratio(n0) ... ratio(n-1) for n0 <= n < stop."""
    term = seq.term(seq.n0)
    for n in range(seq.n0, stop):
        assert seq.term(n) == term, n
        if n + 1 < stop:
            term *= ratio(n)


def degree(p) -> int:
    return max((i for i, c in enumerate(p) if c), default=0)


def _integer_polys(max_size: int = 3):
    return st.lists(st.integers(0, 5), min_size=1, max_size=max_size)


@st.composite
def shared_factor_series(draw):
    """(first, p, q, g, n0, base): p/q a term ratio below 1/2 in size, q > 0,
    and g a list of factors > 0 at every index from n0 on (in n) or on
    (0, 1] (in y)."""
    base = draw(st.sampled_from([None, Q(1, 2), Q(2, 3), Q(1, 5)]))
    n0 = draw(st.integers(0, 3)) if base is None else 0
    p = draw(_integer_polys())
    q = poly_add(poly_scale(p, 2), [c + 1 for c in draw(_integer_polys())])
    if draw(st.booleans()):
        p = poly_scale(p, -1)
    g = [[draw(st.integers(1, 3))]]
    for _ in range(draw(st.integers(1, 3))):
        if base is None:
            factor = draw(st.sampled_from([[1, 1], [3, 2], [1 - n0, 1], [5, -2, 1], [2, 0, 1]]))
        else:
            factor = draw(st.sampled_from([[1, 1], [3, -1], [2, -1], [1, 0, 1], [4, 1, -2]]))
        g.append(factor)
    first = Q(draw(st.integers(-50, 50)), draw(st.integers(1, 50)))
    return first, p, q, g, n0, base


class TestSteppingInLowestTerms:
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(shared_factor_series(), st.sampled_from([3, 40, 200]))
    def test_a_shared_factor_changes_no_value(self, series, bits):
        first, p, q, g, n0, base = series
        shared = TermSequence(first, integer_ratio(1, g + [p], g + [q]), n0, base=base)
        plain = TermSequence(first, RationalFunction(p, q), n0, base=base)
        if base is None and any(p):
            # q > 0 from n0 on, so each sequence cancels every shared factor
            stepped = shared.stepped
            assert stepped is not shared.ratio
            assert degree(stepped.den) == degree(plain.stepped.den)
            canonical = RationalFunction(stepped.num, stepped.den)
            assert (stepped.num, stepped.den) == (canonical.num, canonical.den)
        elif base is not None:
            assert shared.stepped is shared.ratio
        for n in (n0, n0 + 1, n0 + 5, n0 + 33, n0 + 70):
            assert shared.term(n) == plain.term(n)
            assert shared.partial_sum(n) == plain.partial_sum(n)
            assert shared.state(n)[1] > 0
        for m, n in ((n0, n0 + 1), (n0 + 2, n0 + 40), (n0 + 7, n0 + 75)):
            (p1, q1, t1), (p2, q2, t2) = shared.span(m, n), plain.span(m, n)
            assert (Q(p1, q1), Q(t1, q1)) == (Q(p2, q2), Q(t2, q2))

        def excess(e, a, b):
            # positive exactly when |a/b| > 2^-bits, like the catalog's test
            a = abs(a)
            return a.bit_length() + bits - b.bit_length() + (a << bits > b) if a else -1

        for start in (n0, n0 + 3):
            assert shared.first_index(start, n0 + 400, excess) == \
                plain.first_index(start, n0 + 400, excess)
