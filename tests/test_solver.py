import dataclasses
from fractions import Fraction as Q
from math import lcm

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
from markovsum.markov import SchellbachParams, solver
from markovsum.markov.pairs import one
from markovsum.polys import solve_linear
from oracles import (
    f4f3_product,
    fraction_stepwise,
    gauss_jordan,
    schellbach_product,
    well_poised_product,
)

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

    @pytest.mark.parametrize("params", [
        (Q(1, 3), Q(1, 5), Q(1, 7), Q(1, 11), Q(2)),
        (Q(1, 3), Q(1, 5), Q(3), Q(5), Q(1, 2)),
        (Q(-1, 3), Q(1, 5), Q(1, 7), Q(1, 11), Q(-2, 3)),
    ], ids=["q=2", "t=450", "negative-a-and-q"])
    def test_exact_match_whatever_q_and_t(self, params):
        # the family needs no convergence, as the certificate does not
        engine = ThreePhiTwo(*params)
        result = solve_multipliers_stepwise(phi32_family(*params), FORM_U1, 10)
        assert result.ok
        for x in range(11):
            assert result.data.a(x) == engine.A(x)
            assert result.data.v_coeffs[x] == [engine.B(x), engine.C(x)]

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


def classical_family(a, b, c, d) -> GridFunction:
    """The classical engine's extension, on the same kernel as the 4F3 families."""
    return SchellbachParams(a, b, c, d).extension()


class TestSteppedFamilies:
    """The product families and the classical engine's F are stepped from their shift ratios."""

    @pytest.mark.parametrize("build, product, params", [
        (f4f3_family, f4f3_product, (Q(1), Q(1, 3), Q(2))),
        (f4f3_family, f4f3_product, (Q(-1), Q(1, 3), Q(2))),  # (a)_z = 0 from z = 2 on
        (f4f3_family, f4f3_product, (Q(1), Q(0), Q(2))),
        (well_poised_family, well_poised_product, (Q(1), Q(2))),
        (well_poised_family, well_poised_product, (Q(-2), Q(2))),  # (a)_z = 0 from z = 3 on
        (classical_family, schellbach_product, (Q(1), Q(1), Q(2), Q(2))),
        (classical_family, schellbach_product, (Q(1, 2), Q(1, 3), Q(2), Q(5, 2))),
        # (a)_z = 0 from z = 2 on
        (classical_family, schellbach_product, (Q(-1), Q(1, 3), Q(7, 2), Q(11, 3))),
        (classical_family, schellbach_product, (Q(1, 3), Q(-5, 2), Q(-1, 2), Q(9, 4))),
    ], ids=["4f3", "4f3-a=-1", "4f3-h=0", "well-poised", "well-poised-a=-2", "classical-zeta2",
            "classical-general", "classical-a=-1", "classical-negative-roots"])
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


_PARAMS = st.builds(Q, st.integers(-7, 7), st.integers(1, 5))
_NONZERO = _PARAMS.filter(bool)
_BASES = st.builds(Q, st.integers(-5, 5).filter(bool), st.integers(1, 4))  # |numerator| up to 5


@st.composite
def _solver_cases(draw):
    """A built-in family at drawn parameters, optionally given by its values on
    the unit scale; its own or an overridden form; z_samples at or above the floor."""
    name = draw(st.sampled_from(sorted(solver.FAMILIES)))
    family = solver.FAMILIES[name]
    if name == "3phi2-u1":
        params = (*(draw(_NONZERO) for _ in range(4)), draw(_BASES))
    else:
        params = tuple(draw(_PARAMS) for _ in family.defaults)
    form = draw(st.sampled_from([family.form, FORM_U1, FORM_U2, FORM_U3]))
    floor = sum(solver._SHAPE[form]) + 2
    z_samples = draw(st.one_of(st.none(), st.integers(floor, floor + 3)))
    as_values = draw(st.booleans())
    q = draw(_BASES)  # the base of form u1 on a family that records none

    def build():
        ext = family.build(*params)
        ext = dataclasses.replace(ext, params={"q": q, **ext.params})
        return GridFunction(ext, ext.label, ext.params) if as_values else ext

    return build, form, draw(st.integers(0, 5)), z_samples


def _outcome(solve, build, form, x_max, z_samples):
    """A solve's result fields, or its error's type, text and point."""
    try:
        result = solve(build(), form, x_max, z_samples)
    except (EvaluationError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "x", None), getattr(exc, "z", None)
    data = result.data
    return (result.ok, result.reason, result.failed_x,
            data and (data.u_coeffs, data.v_coeffs, data.q))


class TestAgainstFractionRows:
    """The integer rows, columns and family ratios give what the same method
    on Fraction rows eliminated by Gauss-Jordan gives."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_solver_cases())
    def test_drawn_cases(self, case):
        assert _outcome(solve_multipliers_stepwise, *case) == _outcome(fraction_stepwise, *case)


def _systems(monkeypatch, family: str, x_max: int) -> list:
    """Every (rows, rhs, den) the solver builds for a family's defaults through column x_max."""
    systems = []

    def capture(rows, rhs, den):
        systems.append((rows, rhs, den))
        return solve_linear(rows, rhs, den)

    monkeypatch.setattr(solver, "solve_linear", capture)
    family = solver.FAMILIES[family]
    assert solve_multipliers_stepwise(family.build(*family.defaults), family.form, x_max).ok
    return systems


def _fractions(result):
    """A ``solve_linear`` result with its solution read as Fractions."""
    solution, status = result
    if solution is not None:
        numerators, den = solution
        assert den > 0 and all(type(c) is int for c in (*numerators, den))
        solution = [Q(c, den) for c in numerators]
    return solution, status


def _gauss_jordan(rows, rhs, den):
    return gauss_jordan(rows, [Q(v, den) for v in rhs])


_ENTRIES = st.builds(Q, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def _systems_drawn(draw):
    """An integer system with some zero columns and repeated (scaled) rows,
    whose right-hand sides, over one drawn denominator, come from a rational
    solution, are drawn at random, or are broken on an extra row."""
    n = draw(st.integers(1, 4))
    zero = draw(st.sets(st.integers(0, n - 1), max_size=1)) if draw(st.booleans()) else ()
    rows = [[0 if j in zero else draw(st.integers(-6, 6)) for j in range(n)]
            for _ in range(draw(st.integers(max(1, n - 1), n + 2)))]
    solution = [draw(_ENTRIES) for _ in range(n)]
    values = [sum(c * x for c, x in zip(row, solution)) for row in rows]
    for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3)):
        k = draw(st.sampled_from([1, -2, 3]))
        rows.append([k * c for c in rows[i]])
        values.append(k * values[i])
    mode = draw(st.sampled_from(["consistent", "drawn", "extra"]))
    if mode == "drawn":
        values = [draw(_ENTRIES) for _ in rows]
    elif mode == "extra":
        i = draw(st.integers(0, len(rows) - 1))
        rows.append(list(rows[i]))
        values.append(values[i] + draw(_ENTRIES.filter(bool)))
    den = lcm(*(Q(v).denominator for v in values)) * draw(st.integers(1, 3))
    return rows, [int(v * den) for v in values], den


class TestFractionFreeElimination:
    """The solver's fraction-free elimination against Gauss-Jordan on Fractions."""

    @pytest.mark.parametrize("family, x_max", [
        ("3phi2-u1", 20), ("4f3-u2", 20), ("4f3-wp-u3", 20),  # the 63 systems of `solve`
        ("3phi2-u1", 150)])
    def test_the_solve_systems(self, monkeypatch, family, x_max):
        systems = _systems(monkeypatch, family, x_max)
        assert len(systems) == x_max + 1
        assert any(den != 1 for _, _, den in systems)
        for rows, rhs, den in systems:
            assert all(type(c) is int for c in (*rhs, den, *(c for row in rows for c in row)))
            assert _fractions(solve_linear(rows, rhs, den)) == _gauss_jordan(rows, rhs, den)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_systems_drawn())
    def test_drawn_systems(self, system):
        rows, rhs, den = system
        result = solve_linear(rows, rhs, den)
        solution, status = _fractions(result)
        assert (solution, status) == _gauss_jordan(rows, rhs, den)
        if status == "unique":
            numerators, d = result[0]
            assert all(sum(c * x for c, x in zip(row, numerators)) * den == b * d
                       for row, b in zip(rows, rhs))

    @pytest.mark.parametrize("rows, rhs, den, expected", [
        ([[0, 1], [0, 2]], [1, 2], 1, (None, "underdetermined")),
        ([[1, 1], [2, 2], [1, -1]], [1, 3, 0], 1, (None, "inconsistent")),
        ([[3, 2], [3, -2], [9, 2]], [12, 0, 24], 2, ([Q(1), Q(3, 2)], "unique")),
        ([[0], [0]], [0, 0], 1, (None, "underdetermined")),
        ([[0], [0]], [0, 1], 3, (None, "inconsistent")),
        ([[2, 0], [0, -3]], [0, 1], 1, ([Q(0), Q(-1, 3)], "unique")),
        ([[2, 0], [0, -3]], [0, 1], 5, ([Q(0), Q(-1, 15)], "unique")),
    ], ids=["zero-column", "repeated-row-inconsistent", "cleared-rows", "zero-rows",
            "zero-row-nonzero-rhs", "integer-rhs", "rhs-over-denominator"])
    def test_small_systems(self, rows, rhs, den, expected):
        assert _fractions(solve_linear(rows, rhs, den)) == _gauss_jordan(rows, rhs, den) \
            == expected
