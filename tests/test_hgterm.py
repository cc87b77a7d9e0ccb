from fractions import Fraction as Q

import pytest

from markovsum.hgterm import q_limit_check, q_pochhammer, rising_factorial


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
