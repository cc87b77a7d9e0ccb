from fractions import Fraction as Q

import pytest

from markovsum.hgterm import LEAF, TermSequence, q_limit_check, q_pochhammer, rising_factorial
from markovsum.polys import RationalFunction, poly, poly_mul, poly_pow
from oracles import stepped_factors


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

    def test_nonpositive_b_rejected(self):
        with pytest.raises(ValueError):
            q_limit_check(2, -1, 1, [Q(1, 2)])

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

        def excess(a, b):
            return a.bit_length() + bits - b.bit_length() + (a << bits > b)

        found = seq.first_index(0, 10 ** 5, excess)
        linear = next(e for e in range(10 ** 5)
                      if seq.term(e + 2) <= Q(1, 2 ** bits))
        assert found == linear
        if linear:
            assert seq.first_index(0, linear - 1, excess) is None
