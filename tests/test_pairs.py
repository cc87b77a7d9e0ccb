from fractions import Fraction as Q

import pytest

from markovsum.markov import (
    EvaluationError,
    GridFunction,
    MarkovPair,
    Scale,
    ThreePhiTwo,
    check_pair_condition,
    green_rectangle,
)
from markovsum.markov.pairs import one

CANONICAL = (Q(1, 3), Q(1, 5), Q(1, 7), Q(1, 11), Q(1, 2))


@pytest.fixture(scope="module")
def engine():
    return ThreePhiTwo(*CANONICAL)


@pytest.fixture(scope="module")
def pair(engine):
    return engine.pair()


class TestPairCondition:
    def test_canonical_origin(self, pair):
        result = check_pair_condition(pair, 0, 0)
        assert result.holds and result.residual == 0

    def test_canonical_grid(self, pair):
        for x in range(6):
            for z in range(6):
                assert check_pair_condition(pair, x, z).holds

    def test_zero_pair(self):
        zero = GridFunction(lambda x, z: Q(0), "zero")
        result = check_pair_condition(MarkovPair(zero, zero), 3, 5)
        assert result.holds

    def test_perturbation_detected(self, engine):
        base = engine.pair()

        def v(x, z):
            return (engine.m(x, z) + (1 if x == 2 else 0)) * engine.f(x, z)

        bad = MarkovPair(base.u, GridFunction(v, "perturbed"))
        assert check_pair_condition(bad, 1, 1).holds
        result = check_pair_condition(bad, 2, 3)
        assert not result.holds and result.residual != 0

    def test_undefined_value_reports_location(self):
        def u(x, z):
            if (x, z) == (2, 1):
                raise ZeroDivisionError("synthetic pole")
            return Q(1)

        pair = MarkovPair(GridFunction(u, "u"), GridFunction(lambda x, z: Q(0), "v"))
        with pytest.raises(EvaluationError) as info:
            check_pair_condition(pair, 2, 1)
        assert (info.value.x, info.value.z) == (2, 1)


class TestGreenRectangle:
    def test_base_case_is_pair_condition(self, pair):
        rect = green_rectangle(pair, 1, 1)
        check = check_pair_condition(pair, 0, 0)
        assert rect.lhs - rect.rhs == check.residual == 0

    def test_exact_equality_10x10(self, pair):
        rect = green_rectangle(pair, 10, 10)
        assert rect.lhs == rect.rhs

    def test_requires_positive_sides(self, pair):
        with pytest.raises(ValueError):
            green_rectangle(pair, 0, 3)


class TestEdgeSums:
    def test_identity_restatement(self, pair):
        sums = green_rectangle(pair, 12, 12)
        assert sums.u_sum - sums.v_sum == sums.u_edge - sums.v_edge

    def test_edges_shrink(self, pair):
        widths = []
        for k in (10, 20, 40):
            sums = green_rectangle(pair, k, k)
            widths.append(abs(sums.u_edge) + abs(sums.v_edge))
        assert widths[0] > widths[1] > widths[2]

    def test_sides_are_derived_from_the_edge_sums(self, pair):
        sums = green_rectangle(pair, 3, 2)
        assert sums.lhs == sums.u_sum - sums.u_edge
        assert sums.rhs == sums.v_sum - sums.v_edge
        assert sums.u_sum == pair.u(0, 0) + pair.u(0, 1)
        assert sums.v_edge == pair.v(0, 2) + pair.v(1, 2) + pair.v(2, 2)

class TestScale:
    def test_ratio_dividing_by_zero_reports_the_point_stepped_to(self):
        # sx(2, z) = 1/0: the scale is undefined from column 3 on
        scale = Scale(lambda x, z: Q(1, x - 2), lambda x, z: Q(1))
        assert scale.value(2, 4) == Q(1, 2)
        for read in (scale.value, GridFunction(one, "F", scale=scale)):
            with pytest.raises(EvaluationError, match=r"undefined at \(x=3, z=1\)") as info:
                read(5, 1)
            assert (info.value.x, info.value.z) == (3, 1)
