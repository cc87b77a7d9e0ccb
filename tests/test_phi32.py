from fractions import Fraction as Q
from types import SimpleNamespace

import pytest

from markovsum.catalog import CatalogError, entry_phi32_series, entry_phi32_transformed
from markovsum.hgterm import q_pochhammer
from markovsum.markov import (
    EvaluationError,
    Lcg,
    ThreePhiTwo,
    coefficient_residuals,
    green_rectangle,
    make_certificate,
    markov_form_term,
    markov_param_map,
    sample_parameter_tuples,
)
from markovsum.markov import certificates
from markovsum.markov.phi32 import SAMPLE_TUPLES, _Exponent
from markovsum.polys import Factors
from oracles import f_product, m0
from support import factors_value

CANONICAL = SAMPLE_TUPLES[0]
ONE, X, Z = Factors(1), Factors.monomial(1, 0), Factors.monomial(0, 1)


@pytest.fixture(scope="module")
def engine():
    return ThreePhiTwo(*CANONICAL)


class TestClosedForms:
    def test_t(self, engine):
        assert engine.t == Q(30, 77)

    def test_a0_normalization(self):
        for params in SAMPLE_TUPLES:
            assert ThreePhiTwo(*params).A(0) == 1

    def test_b0_c0_printed_forms(self):
        for params in SAMPLE_TUPLES:
            e = ThreePhiTwo(*params)
            a, b, c, d, q, t = e.a, e.b, e.c, e.d, e.q, e.t
            assert e.B(0) == 1 / (1 - t)
            assert e.C(0) == t * (c + d - a - b) / ((1 - t) * (1 - t * q))

    def test_recurrent_equals_product_form(self, engine):
        for x in range(16):
            assert engine.A(x) == engine.A_closed(x)

    def test_f_at_z_zero(self, engine):
        c, d, q = engine.c, engine.d, engine.q
        for x in range(6):
            expected = q ** (x * (x - 1)) * (c * d) ** x \
                / (q_pochhammer(c, q, x) * q_pochhammer(d, q, x))
            assert engine.f(x, 0) == expected

    def test_v0_at_origin(self):
        for params in SAMPLE_TUPLES:
            e = ThreePhiTwo(*params)
            a, b, c, d, q, t = e.a, e.b, e.c, e.d, e.q, e.t
            expected = (1 - t * (a + b + q) + t * (c + d)) / ((1 - t) * (1 - t * q))
            assert e.v0(0) == expected

    def test_v0_equals_m0_times_f(self, engine):
        for x in range(10):
            assert engine.v0(x) == m0(engine, x) * engine.f(x, 0)

    def test_m0_is_m_at_z_zero(self, engine):
        for x in range(8):
            assert m0(engine, x) == engine.m(x, 0)

    def test_series_spec_matches_terms(self, engine):
        for n in range(12):
            assert f_product(engine, 0, n) == engine.f(0, n)

    def test_t_geq_one_accepted(self):
        # no evaluator needs convergence; t = 450 and tq = 225 leave every divisor nonzero
        e = ThreePhiTwo(Q(1, 3), Q(1, 5), Q(3), Q(5), Q(1, 2))
        assert e.t == 450
        assert all(e.A(x) == e.A_closed(x) for x in range(11))
        assert all(e.v0(x) == m0(e, x) * e.f(x, 0) for x in range(8))
        assert e.proof.holds

    def test_base_outside_unit_disc_accepted(self):
        e = ThreePhiTwo(Q(1, 3), Q(1, 5), Q(1, 7), Q(1, 11), Q(2))
        assert all(e.A(x) == e.A_closed(x) for x in range(11))
        assert e.proof.holds

    def test_certificate_accepts_any_base(self):
        cert = make_certificate(Q(1, 3), Q(1, 5), Q(1, 7), Q(1, 11), Q(2))
        assert all(cert.residual(x, z) == 0 for x in range(3) for z in range(3))

    def test_zero_parameter_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            ThreePhiTwo(Q(0), Q(1, 5), Q(1, 7), Q(1, 11), Q(1, 2))

    def test_x_cap_enforced(self, monkeypatch):
        e = ThreePhiTwo(*CANONICAL)
        for column in (e.A, e.A_closed, e.v0, lambda x: e.A.ratio(x - 1)):
            with pytest.raises(EvaluationError, match=f"beyond cap {certificates.X_CAP}"):
                column(certificates.X_CAP + 1)
        monkeypatch.setattr(certificates, "X_CAP", 8)
        e = ThreePhiTwo(*CANONICAL)
        assert e.A(8) == e.A_closed(8)
        with pytest.raises(EvaluationError, match="cap"):
            e.A(9)


class TestCoefficientEquations:
    def test_closed_forms_zero_residuals(self):
        for x in range(11):
            assert coefficient_residuals(*CANONICAL, x) == (0, 0, 0, 0)

    def test_many_parameter_tuples(self):
        for params in SAMPLE_TUPLES:
            for x in range(6):
                assert coefficient_residuals(*params, x) == (0, 0, 0, 0)

    def test_fifty_seeded_random_parameter_tuples(self):
        kept = 0
        for params in sample_parameter_tuples(400, seed=1):
            a, b, c, d, q = params
            if not 0 < abs(c * d / (a * b * q)) < 1:
                continue
            for x in range(6):
                assert coefficient_residuals(*params, x) == (0, 0, 0, 0), (params, x)
            kept += 1
            if kept == 50:
                break
        assert kept == 50

    def test_perturbed_a_breaks_first_equation(self):
        e = ThreePhiTwo(*CANONICAL)
        res = coefficient_residuals(*CANONICAL, 3, A_x=e.A(3) + 1)
        assert res[0] != 0

    def test_cubic_equation_holds_for_any_multipliers(self):
        # the q^z-cubic coefficient vanishes identically because t = cd/(abq)
        rng = Lcg(42)
        for params in SAMPLE_TUPLES:
            for _ in range(3):
                res = coefficient_residuals(
                    *params, rng.randint(0, 5),
                    A_x=rng.rational(12), A_next=rng.rational(12),
                    B_x=rng.rational(12), C_x=rng.rational(12))
                assert res[3] == 0


class TestSampling:
    def test_rational_draws(self):
        # one bound for numerator and denominator, drawn in that order
        rng = Lcg(2024)
        assert [rng.rational(12) for _ in range(6)] == [
            Q(7, 4), Q(1, 3), Q(10, 11), Q(11, 8), Q(5, 2), Q(8, 5)]
        rng = Lcg(2024)
        assert [rng.rational(9) for _ in range(6)] == [
            Q(1), Q(1), Q(1, 5), Q(5, 2), Q(1, 7), Q(1)]


class TestParamMap:
    def test_identity_tuple_rejected_downstream(self):
        # the engine takes the mapped tuple; tq = 1 makes its certificate
        # singular at x = 0, and the catalog refuses t = 2
        mapped = markov_param_map(1, 1, 1, 1, 2)
        assert mapped == (1, 1, 1, 1, Q(1, 2), 2)
        engine = ThreePhiTwo(*mapped[:5])
        with pytest.raises(EvaluationError, match=r"\(1 - t q\^\(2x\+1\)\) vanishes at x=0"):
            engine.A(1)
        for build in (entry_phi32_series, entry_phi32_transformed):
            with pytest.raises(CatalogError, match=r"\|t\| < 1"):
                build(*mapped[:5])

    def test_canonical_mapping(self):
        a, b, c, d, q, t = markov_param_map(3, 5, 7, 11, 2)
        assert (a, b, c, d, q) == CANONICAL
        assert t == Q(30, 77)

    @pytest.mark.parametrize("base", [2, Q(1, 2)], ids=["q=2", "q=1/2"])
    def test_termwise_equality(self, base):
        engine = ThreePhiTwo(*markov_param_map(3, 5, 7, 11, base)[:5])
        for n in range(12):
            assert markov_form_term(3, 5, 7, 11, base, n) == engine.f(0, n)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            markov_param_map(0, 1, 1, 1, 2)
        with pytest.raises(ValueError, match="parameter q must be nonzero"):
            markov_param_map(3, 5, 7, 11, 0)

    def test_base_inside_unit_disc_accepted(self):
        # |q| > 1 is a convention of the historical form, not a condition of the algebra
        assert markov_param_map(3, 5, 7, 11, Q(1, 2))[4] == 2


class TestSteppedExtension:
    @pytest.mark.parametrize("params", SAMPLE_TUPLES, ids=lambda p: str(p[4]))
    def test_stepped_f_equals_product_form(self, params):
        engine = ThreePhiTwo(*params)
        for x in range(30):
            for z in range(30):
                assert engine.f(x, z) == f_product(engine, x, z), (x, z)

    def test_f_read_in_any_order_equals_product_form(self):
        # each read steps from whatever points earlier reads left in the table
        engine = ThreePhiTwo(*SAMPLE_TUPLES[3])
        points = [(x, z) for x in range(16) for z in range(16)]
        rng = Lcg(5)
        for k in range(len(points) - 1, 0, -1):
            swap = rng.randint(0, k)
            points[k], points[swap] = points[swap], points[k]
        for x, z in points:
            assert engine.f(x, z) == f_product(engine, x, z), (x, z)

    def test_rectangle_steps_f_along_its_edges_only(self):
        engine = ThreePhiTwo(*CANONICAL)
        pair, i, j = engine.pair(), 20, 12
        assert green_rectangle(pair, i, j).equal
        # the pair's scale A_x F is stepped on its own table, not engine.f's
        assert len(pair.u.scale._table) <= 2 * (i + j)  # not the (i + 1)(j + 1) points inside
        edges = [(x, z) for x in (0, i) for z in range(j)] + \
            [(x, z) for z in (0, j) for x in range(i)]
        for x, z in edges:
            assert engine.f(x, z) == f_product(engine, x, z)
        assert len(engine._f._table) <= 2 * (i + j)

    def test_shift_ratios_are_ratios_of_f(self, engine):
        for x in range(10):
            for z in range(10):
                assert engine.rx(x, z) == f_product(engine, x + 1, z) / f_product(engine, x, z)
                assert engine.rz(x, z) == f_product(engine, x, z + 1) / f_product(engine, x, z)

    def test_extension_is_all_scale(self, engine):
        ext = engine.extension()
        for x, z in ((0, 0), (3, 7), (9, 2)):
            assert ext.reduced(x, z) == 1
            assert ext(x, z) == ext.scale.value(x, z) == engine.f(x, z)

    def test_singular_point_is_named(self):
        # c = q^-2: (c;q)_n vanishes from n = 3 on, so F is undefined at x + z = 3
        ext = make_certificate(Q(1, 3), Q(1, 5), Q(4), Q(1, 11), Q(1, 2)).extension
        assert ext(2, 0) == f_product(SimpleNamespace(**ext.params), 2, 0)
        for evaluate in (ext, ext.scale.value):
            with pytest.raises(EvaluationError, match=r"\(c,d;q\)_3 vanishes") as info:
                evaluate(1, 2)
            assert (info.value.x, info.value.z) == (1, 2)
        for ratio, point in ((ext.scale.sx, (0, 2)), (ext.scale.sz, (1, 1))):
            with pytest.raises(EvaluationError) as info:
                ratio(*point)
            assert (info.value.x, info.value.z) == (1, 2)

    def test_negative_point_rejected(self, engine):
        with pytest.raises(ValueError, match="x, z >= 0"):
            engine.f(-1, 3)


class TestBracketProof:
    """The proof expands the evaluators themselves, run on X = q^x and Z = q^z."""

    @pytest.mark.parametrize("params", list(SAMPLE_TUPLES) + list(sample_parameter_tuples(10)),
                             ids=str)
    def test_zero_numerator_and_derived_degrees(self, params):
        proof = make_certificate(*params).proof
        assert proof.holds
        assert proof.degrees == (6, 3)
        # the divisors multiply to (1 - tqX^2)(1 - cXZ)(1 - dXZ), up to a constant
        a, b, c, d, q = params
        t = c * d / (a * b * q)
        expected = (1 - t * q * X * X) * (1 - c * X * Z) * (1 - d * X * Z)
        product = ONE
        for divisor in proof.factors:
            product *= Factors(1, 1, (divisor,))
        ratio = product / expected
        assert ratio == Q(ratio.n, ratio.d)

    def test_symbolic_evaluators_are_the_evaluators(self, engine):
        twin = engine._symbolic()
        x, z = _Exponent(1, 0), _Exponent(0, 1)
        symbolic = {"P": twin.P(x), "Q": twin.Q(x), "R": twin.R(x, z),
                    "R+": twin.R(x, z + 1), "rx": twin.rx(x, z), "rz": twin.rz(x, z)}
        for i, j in ((0, 0), (1, 4), (5, 2), (7, 7)):
            numeric = {"P": engine.P(i), "Q": engine.Q(i), "R": engine.R(i, j),
                       "R+": engine.R(i, j + 1), "rx": engine.rx(i, j), "rz": engine.rz(i, j)}
            qx, qz = engine.q ** i, engine.q ** j
            assert {k: factors_value(f, qx, qz) for k, f in symbolic.items()} == numeric, (i, j)

    def test_one_variable_twin_runs_the_evaluators(self, engine):
        twin = engine._symbolic()
        x, z, zero = _Exponent(1, 0), _Exponent(0, 1), _Exponent(0, 0)
        along_x = {"P": twin.P(x), "Q": twin.Q(x), "R": twin.R(x, zero), "rx": twin.rx(x, zero)}
        along_z = twin.rz(zero, z)
        for i in (0, 1, 5, 9):
            y = engine.q ** i
            assert {k: factors_value(f, y, 1) for k, f in along_x.items()} == {
                "P": engine.P(i), "Q": engine.Q(i), "R": engine.R(i, 0), "rx": engine.rx(i, 0)}
            assert factors_value(along_z, 1, y) == engine.rz(0, i)

    def test_symbolic_run_leaves_the_engine_tables_alone(self):
        engine = ThreePhiTwo(*CANONICAL)
        assert engine.proof.holds
        assert engine.source_ratio().den and engine.transformed_ratio().den
        assert not (engine._powers or engine._poles or engine._uppers or engine._q_values
                    or engine._r_slopes)

    def test_perturbed_description_is_not_proved(self):
        class Perturbed(ThreePhiTwo):
            def R(self, x, z):
                return super().R(x, z) + Q(1, 10 ** 6)

        assert not Perturbed(*CANONICAL).proof.holds

    def test_exponent_arithmetic(self):
        x, z = _Exponent(1, 0), _Exponent(0, 1)
        assert 2 * (x + z) - 1 == _Exponent(2, 2, -1)
        assert z + 1 == _Exponent(0, 1, 1)
        assert 2 * x + 1 == _Exponent(2, 0, 1)
