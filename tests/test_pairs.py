from fractions import Fraction as Q

import pytest

from markovsum.cli import _fuzzed_pair
from markovsum.markov import (
    FORM_U2,
    SAMPLE_TUPLES,
    EvaluationError,
    GridFunction,
    MarkovPair,
    Scale,
    SchellbachParams,
    ThreePhiTwo,
    check_pair_condition,
    f4f3_family,
    green_rectangle,
    pairs,
    solve_multipliers_stepwise,
)
from markovsum.markov.pairs import one
from oracles import green_rectangle_sums

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

def _bare_pair():
    return MarkovPair(GridFunction(lambda x, z: Q(x - 2 * z, 3 + x * z), "u"),
                      GridFunction(lambda x, z: Q(5 * x + z - 7, 2 + x + z * z), "v"))


def _solved_4f3_pair():
    extension = f4f3_family(Q(1), Q(1, 3), Q(2))
    return solve_multipliers_stepwise(extension, FORM_U2, 10).data.pair(extension)


def _zero_at_edge_points_pair():
    """The 3phi2 pair with U's reduced part 0 at (0, 2) and V's at (3, 0) and (1, 4)."""
    base = ThreePhiTwo(*CANONICAL).pair()

    def u(x, z):
        return Q(0) if (x, z) == (0, 2) else base.u.factors(x, z)

    def v(x, z):
        return (Q(0),) if (x, z) in ((3, 0), (1, 4)) else base.v.factors(x, z)

    return MarkovPair(GridFunction(u, "u", scale=base.u.scale),
                      GridFunction(v, "v", scale=base.v.scale))


def _vanishing_scale_pair():
    """A pair on a scale whose z-ratio is 0 from z = 3 on, reduced parts shared."""
    scale = Scale(lambda x, z: Q(x + 2, 2 * x + 3), lambda x, z: Q(3 - z, z + 5))
    return MarkovPair(GridFunction(lambda x, z: (Q(x + 1, z + 2), Q(-3, 7)), "u", scale=scale),
                      GridFunction(lambda x, z: Q(z - x, x + 4), "v", scale=scale))


EDGE_PAIRS = {
    "bare": _bare_pair,
    **{f"3phi2-{k}": (lambda k=k: ThreePhiTwo(*SAMPLE_TUPLES[k]).pair())
       for k in range(len(SAMPLE_TUPLES))},
    "schellbach": lambda: SchellbachParams(Q(1, 3), Q(1, 5), Q(7, 2), Q(11, 3)).pair(),
    "solved-4f3": _solved_4f3_pair,
    "fuzz": lambda: _fuzzed_pair(ThreePhiTwo(*CANONICAL)),
    "zero-at-edge-points": _zero_at_edge_points_pair,
    "vanishing-scale": _vanishing_scale_pair,
}


class TestEdgeWalks:
    """The edge walks against the Fraction-at-a-time oracle, on every kind of pair."""

    @pytest.mark.parametrize("name", EDGE_PAIRS)
    @pytest.mark.parametrize("i, j", [(1, 1), (7, 5), (10, 1), (1, 9)])
    def test_edge_sums_equal_the_oracle(self, name, i, j):
        sums = green_rectangle(EDGE_PAIRS[name](), i, j)
        expected = green_rectangle_sums(EDGE_PAIRS[name](), i, j)
        assert (sums.u_sum, sums.u_edge, sums.v_sum, sums.v_edge) == expected
        assert sums.lhs == expected[0] - expected[1]
        assert sums.rhs == expected[2] - expected[3]
        assert sums.equal == (sums.lhs == sums.rhs)
        assert all(d > 0 for _, d in sums.unreduced)

    def test_walks_leave_the_scale_table_alone(self):
        pair = ThreePhiTwo(*CANONICAL).pair()
        green_rectangle(pair, 6, 6)
        assert pair.u.scale._table == {(0, 0): 1}

    def test_no_fraction_is_formed_until_a_side_is_read(self, monkeypatch):
        pair = ThreePhiTwo(*CANONICAL).pair()
        made = []

        def counted(*args):
            made.append(args)
            return Q(*args)

        monkeypatch.setattr(pairs, "Fraction", counted)
        sums = green_rectangle(pair, 30, 30)
        assert made == []
        assert sums.equal and sums.lhs == sums.rhs
        assert len(made) == 2  # each side reduced once

    @pytest.mark.parametrize("sx, sz, i, j, point", [
        (lambda x, z: Q(1, x - 2), one, 5, 2, (3, 0)),  # row 0, between its ends
        (one, lambda x, z: Q(1, z - 3), 2, 6, (0, 4)),  # column 0
        (lambda x, z: Q(1, x - 2) if z == 4 else Q(1), one, 5, 4, (3, 4)),  # row j
        (one, lambda x, z: Q(1, z - 2) if x == 3 else Q(1), 3, 6, (3, 3)),  # column i
    ], ids=["row-0", "column-0", "row-j", "column-i"])
    def test_ratio_dividing_by_zero_raises_as_scale_value(self, sx, sz, i, j, point):
        def pair():
            scale = Scale(sx, sz)
            return MarkovPair(GridFunction(lambda x, z: Q(x + 1), "U", scale=scale),
                              GridFunction(lambda x, z: Q(z + 1), "V", scale=scale))

        with pytest.raises(EvaluationError) as walked:
            green_rectangle(pair(), i, j)
        # the oracle reads each edge value through Scale.value
        with pytest.raises(EvaluationError) as stepped:
            green_rectangle_sums(pair(), i, j)
        assert str(walked.value) == str(stepped.value)
        assert str(walked.value).startswith(f"scale undefined at (x={point[0]}, z={point[1]}): ")
        assert (walked.value.x, walked.value.z) == (stepped.value.x, stepped.value.z) == point


class TestScale:
    def test_ratio_dividing_by_zero_reports_the_point_stepped_to(self):
        # sx(2, z) = 1/0: the scale is undefined from column 3 on
        scale = Scale(lambda x, z: Q(1, x - 2), lambda x, z: Q(1))
        assert scale.value(2, 4) == Q(1, 2)
        for read in (scale.value, GridFunction(one, "F", scale=scale)):
            with pytest.raises(EvaluationError, match=r"undefined at \(x=3, z=1\)") as info:
                read(5, 1)
            assert (info.value.x, info.value.z) == (3, 1)
