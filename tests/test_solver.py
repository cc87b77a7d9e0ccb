import dataclasses
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovsum.markov import (
    FORM_U1,
    FORM_U2,
    FORM_U3,
    EvaluationError,
    GridFunction,
    Scale,
    ThreePhiTwo,
    check_pair_condition,
    f4f3_family,
    green_rectangle,
    phi32_family,
    solve_multipliers_stepwise,
    well_poised_family,
)
from markovsum.markov import solver
from markovsum.markov.pairs import one
from markovsum.polys import solve_linear
from oracles import f4f3_product, gauss_jordan, well_poised_product

CANONICAL = (Q(1, 3), Q(1, 5), Q(1, 7), Q(1, 11), Q(1, 2))


class TestU1RecoversClosedForms:
    def test_exact_match(self):
        engine = ThreePhiTwo(*CANONICAL)
        result = solve_multipliers_stepwise(engine.extension(), FORM_U1, 10)
        assert result.ok
        data = result.data
        for x in range(11):
            assert data.a(x) == engine.A(x)
            assert data.v_coeffs[x] == [engine.B(x), engine.C(x)]

    def test_normalization_row(self):
        result = solve_multipliers_stepwise(phi32_family(*CANONICAL), FORM_U1, 2)
        assert result.ok and result.data.a(0) == 1

    def test_q_taken_from_extension_params(self):
        ext = phi32_family(*CANONICAL)
        assert ext.params["q"] == Q(1, 2)
        assert solve_multipliers_stepwise(ext, FORM_U1, 1).ok


@pytest.fixture(scope="module")
def solved():
    ext = f4f3_family(Q(1), Q(1, 3), Q(2))
    result = solve_multipliers_stepwise(ext, FORM_U2, 10)
    assert result.ok
    return ext, result.data


class TestU2Closes:
    def test_b0_normalization(self, solved):
        _, data = solved
        assert data.u_coeffs[0] == [Q(1), Q(0)]

    def test_pair_verifies_on_grid(self, solved):
        ext, data = solved
        pair = data.pair(ext)
        for x in range(10):
            for z in range(11):
                assert check_pair_condition(pair, x, z).holds
        rect = green_rectangle(pair, 10, 10)
        assert rect.lhs == rect.rhs

    def test_transformed_series_agrees(self, solved):
        # sum_x V(x,0) converges to the same limit as the source series
        ext, data = solved
        pair = data.pair(ext)
        direct = sum(ext(0, z) for z in range(400))
        transformed = sum(pair.v(x, 0) for x in range(10))
        assert abs(direct - transformed) < Q(1, 10 ** 4)

    def test_zeta3_specialization_closes(self):
        # h = 0, a = 1, b = 2: the source series is sum 1/(1+z)^3
        ext = f4f3_family(Q(1), Q(0), Q(2))
        result = solve_multipliers_stepwise(ext, FORM_U2, 8)
        assert result.ok
        pair = result.data.pair(ext)
        transformed = sum(pair.v(x, 0) for x in range(9))
        direct = sum(Q(1, (1 + z) ** 3) for z in range(300))
        assert abs(transformed - direct) < Q(1, 10 ** 4)


class TestU3Closes:
    def test_well_poised(self):
        ext = well_poised_family(Q(1), Q(2))
        result = solve_multipliers_stepwise(ext, FORM_U3, 6)
        assert result.ok
        pair = result.data.pair(ext)
        for x in range(6):
            for z in range(8):
                assert check_pair_condition(pair, x, z).holds


class TestSteppedFamilies:
    """Both product families are stepped from their shift ratios."""

    @pytest.mark.parametrize("build, product, params", [
        (f4f3_family, f4f3_product, (Q(1), Q(1, 3), Q(2))),
        (f4f3_family, f4f3_product, (Q(-1), Q(1, 3), Q(2))),  # (a)_z = 0 from z = 2 on
        (f4f3_family, f4f3_product, (Q(1), Q(0), Q(2))),
        (well_poised_family, well_poised_product, (Q(1), Q(2))),
        (well_poised_family, well_poised_product, (Q(-2), Q(2))),  # (a)_z = 0 from z = 3 on
    ], ids=["4f3", "4f3-a=-1", "4f3-h=0", "well-poised", "well-poised-a=-2"])
    def test_stepped_f_equals_product_form(self, build, product, params):
        ext = build(*params)
        for x in range(30):
            for z in range(30):
                assert ext(x, z) == product(*params, x, z), (x, z)
                assert ext.reduced(x, z) == 1

    @pytest.mark.parametrize("ext, point", [
        (f4f3_family(Q(1), Q(1, 3), Q(-1)), (0, 2)),  # (b)_n = 0 from n = 2 on
        (well_poised_family(Q(1), Q(-3)), (0, 4)),
    ], ids=["4f3-b=-1", "well-poised-b=-3"])
    def test_first_undefined_point_is_named(self, ext, point):
        x, z = point
        ext(x, z - 1)
        with pytest.raises(EvaluationError, match="lower rising factorial vanishes") as info:
            ext(x, z)
        assert (info.value.x, info.value.z) == point
        with pytest.raises(EvaluationError) as info:
            ext.scale.sx(x, z - 1)
        assert (info.value.x, info.value.z) == (x + 1, z - 1)

    def test_unit_scale_extension_solves_like_the_described_one(self):
        # the same F given by its values: rows of values, the same unknowns
        params = (Q(1), Q(1, 3), Q(2))
        described = solve_multipliers_stepwise(f4f3_family(*params), FORM_U2, 6)
        values = GridFunction(lambda x, z: f4f3_product(*params, x, z), params=dict(
            zip("ahb", params)))
        assert solve_multipliers_stepwise(values, FORM_U2, 6).data == described.data


class TestFailures:
    def test_ratio_dividing_by_zero_is_an_evaluation_error(self):
        # sz(x, 1) = 1/0: the row of sample z = 1 cannot be formed
        ext = GridFunction(one, "F", scale=Scale(lambda x, z: Q(1, 2), lambda x, z: Q(1, z - 1)))
        with pytest.raises(EvaluationError, match=r"F undefined on a step from \(x=0, z=1\)") \
                as info:
            solve_multipliers_stepwise(ext, FORM_U2, 3)
        assert (info.value.x, info.value.z) == (0, 1)

    def test_u1_wrong_family(self):
        ext = well_poised_family(Q(1), Q(2))
        ext = dataclasses.replace(ext, params={**ext.params, "q": Q(1, 2)})
        result = solve_multipliers_stepwise(ext, FORM_U1, 3)
        assert not result.ok
        assert "does not close at x=0" in result.reason
        assert result.failed_x == 0

    def test_u2_on_u3_family(self):
        result = solve_multipliers_stepwise(well_poised_family(Q(1), Q(2)), FORM_U2, 3)
        assert not result.ok and result.failed_x == 0

    def test_u3_on_q_series_family(self):
        result = solve_multipliers_stepwise(phi32_family(*CANONICAL), FORM_U3, 3)
        assert not result.ok
        assert "does not close" in result.reason

    def test_sample_floor_enforced(self):
        with pytest.raises(ValueError, match="z_samples"):
            solve_multipliers_stepwise(f4f3_family(Q(1), Q(1, 3), Q(2)), FORM_U2,
                                       2, z_samples=5)

    def test_unknown_form(self):
        with pytest.raises(ValueError, match="ansatz form"):
            solve_multipliers_stepwise(f4f3_family(Q(1), Q(1, 3), Q(2)), "u9", 2)

    def test_u1_requires_q(self):
        ext = f4f3_family(Q(1), Q(1, 3), Q(2))  # no q among its params
        with pytest.raises(ValueError, match="base q"):
            solve_multipliers_stepwise(ext, FORM_U1, 2)


def _systems(monkeypatch, family: str, x_max: int) -> list:
    """Every (rows, rhs) the solver builds for a family's defaults through column x_max."""
    systems = []

    def capture(rows, rhs):
        systems.append((rows, rhs))
        return solve_linear(rows, rhs)

    monkeypatch.setattr(solver, "solve_linear", capture)
    family = solver.FAMILIES[family]
    assert solve_multipliers_stepwise(family.build(*family.defaults), family.form, x_max).ok
    return systems


_ENTRIES = st.builds(Q, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def _systems_drawn(draw):
    """A rational system with some zero columns, repeated (scaled) rows, and
    right-hand sides from a solution, drawn at random, or broken on an extra row."""
    n = draw(st.integers(1, 4))
    zero = draw(st.sets(st.integers(0, n - 1), max_size=1)) if draw(st.booleans()) else ()
    rows = [[Q(0) if j in zero else draw(_ENTRIES) for j in range(n)]
            for _ in range(draw(st.integers(max(1, n - 1), n + 2)))]
    solution = [draw(_ENTRIES) for _ in range(n)]
    rhs = [sum(c * x for c, x in zip(row, solution)) for row in rows]
    for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3)):
        k = draw(st.sampled_from([Q(1), Q(-2), Q(3, 5)]))
        rows.append([k * c for c in rows[i]])
        rhs.append(k * rhs[i])
    mode = draw(st.sampled_from(["consistent", "drawn", "extra"]))
    if mode == "drawn":
        rhs = [draw(_ENTRIES) for _ in rows]
    elif mode == "extra":
        i = draw(st.integers(0, len(rows) - 1))
        rows.append(list(rows[i]))
        rhs.append(rhs[i] + draw(_ENTRIES.filter(bool)))
    return rows, rhs


class TestFractionFreeElimination:
    """The solver's fraction-free elimination against Gauss-Jordan on Fractions."""

    @pytest.mark.parametrize("family, x_max", [
        ("3phi2-u1", 20), ("4f3-u2", 20), ("4f3-wp-u3", 20),  # the 63 systems of `solve`
        ("3phi2-u1", 150)])
    def test_the_solve_systems(self, monkeypatch, family, x_max):
        systems = _systems(monkeypatch, family, x_max)
        assert len(systems) == x_max + 1
        for rows, rhs in systems:
            assert solve_linear(rows, rhs) == gauss_jordan(rows, rhs)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_systems_drawn())
    def test_drawn_systems(self, system):
        rows, rhs = system
        solution, status = solve_linear(rows, rhs)
        assert (solution, status) == gauss_jordan(rows, rhs)
        if status == "unique":
            assert all(type(c) is Q for c in solution)
            assert all(sum(c * x for c, x in zip(row, solution)) == b
                       for row, b in zip(rows, rhs))

    @pytest.mark.parametrize("rows, rhs, expected", [
        ([[Q(0), Q(1)], [Q(0), Q(2)]], [Q(1), Q(2)], (None, "underdetermined")),
        ([[Q(1), Q(1)], [Q(2), Q(2)], [Q(1), Q(-1)]], [Q(1), Q(3), Q(0)], (None, "inconsistent")),
        ([[Q(1, 2), Q(1, 3)], [Q(1, 4), Q(-1, 6)], [Q(3, 4), Q(1, 6)]], [Q(1), Q(0), Q(1)],
         ([Q(1), Q(3, 2)], "unique")),
        ([[Q(0)], [Q(0)]], [Q(0), Q(0)], (None, "underdetermined")),
        ([[Q(0)], [Q(0)]], [Q(0), Q(1)], (None, "inconsistent")),
        ([[Q(2), Q(0)], [Q(0), Q(-3)]], [0, 1], ([Q(0), Q(-1, 3)], "unique")),
    ], ids=["zero-column", "repeated-row-inconsistent", "cleared-rows", "zero-rows",
            "zero-row-nonzero-rhs", "integer-rhs"])
    def test_small_systems(self, rows, rhs, expected):
        assert solve_linear(rows, rhs) == gauss_jordan(rows, rhs) == expected
