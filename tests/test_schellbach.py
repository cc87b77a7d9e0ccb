from fractions import Fraction as Q
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovsum.markov import (
    EvaluationError,
    SchellbachParams,
    check_pair_condition,
    green_rectangle,
    pair_from_certificate,
    schellbach_term,
    verify_certificate,
)
from markovsum.polys import Factors
from oracles import schellbach_ratio
from support import factors_value

ZETA2_PARAMS = SchellbachParams(Q(1), Q(1), Q(2), Q(2))
GENERAL_PARAMS = SchellbachParams(Q(1, 2), Q(1, 3), Q(2), Q(5, 2))


def _regular(params) -> bool:
    a, b, c, d = params
    return c + d - a - b - 1 > 0 and not any(v.denominator == 1 and v <= 0 for v in (c, d))


#: (a, b, c, d) with t > 0 and c, d off the poles, so that every evaluator is defined
#: on the lattice; nonpositive integers c-a, ... are drawn
TUPLES = st.tuples(*[st.fractions(-6, 6, max_denominator=6)] * 4).filter(_regular) \
    .map(lambda params: SchellbachParams(*params))
DRAWS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


class TestParams:
    def test_t(self):
        assert ZETA2_PARAMS.t == 1
        assert SchellbachParams(Q(1, 2), Q(1, 3), Q(2), Q(5, 2)).t == Q(8, 3)

    def test_nonconvergent_accepted(self):
        # t = 0: the identity is proved, and P(0) = t(t+1) = 0 is reported where it is met
        params = SchellbachParams(Q(1), Q(1), Q(1), Q(2))
        assert params.t == 0 and params.proof.holds
        for read in (lambda: params.B(0), lambda: params.m(0, 0), lambda: params.A(1),
                     lambda: params.pair().v(0, 0)):
            with pytest.raises(EvaluationError, match="certificate singular at x=0") as caught:
                read()
            assert caught.value.x == 0
        with pytest.raises(EvaluationError, match="vanishes at x=2"):
            schellbach_term(params, 2)

    @pytest.mark.parametrize("params, point", [
        ((Q(1), Q(1), Q(-1), Q(6)), (1, 1)),  # (c)_{x+z} = 0 from x + z = 2
        ((Q(1), Q(1), Q(6), Q(0)), (1, 0)),  # (d)_{x+z} = 0 from x + z = 1
    ], ids=["c=-1", "d=0"])
    def test_pochhammer_poles_accepted(self, params, point):
        # a nonpositive integer c or d is reported at the first point a scan meets
        cert = SchellbachParams(*params).certificate()
        with pytest.raises(EvaluationError, match="lower rising factorial vanishes") as caught:
            verify_certificate(cert, 4, 4)
        assert (caught.value.x, caught.value.z) == point

    def test_numerator_zeros_accepted(self):
        # c = a is a zero of Q(0): the transformed series is its first term,
        # V(0,0) = (d-1)/(d-b-1), Gauss's sum of 2F1(b, 1; d; 1)
        params = SchellbachParams(Q(2), Q(-3), Q(2), Q(4))
        assert [schellbach_term(params, x) for x in range(4)] == [Q(1, 2), 0, 0, 0]
        assert sum(params.f(0, n) for n in range(8)) == Q(1, 2)  # (-3)_n ends it
        assert params.proof.holds
        gauss = SchellbachParams(Q(2), Q(1, 2), Q(2), Q(4))
        assert gauss.m(0, 0) == schellbach_term(gauss, 0) == Q(6, 5)
        assert schellbach_term(gauss, 1) == 0
        assert 0 < Q(6, 5) - sum(gauss.f(0, n) for n in range(200)) < Q(1, 10 ** 4)


class TestTerm:
    def test_first_values(self):
        assert schellbach_term(ZETA2_PARAMS, 0) == Q(3, 2)
        assert schellbach_term(ZETA2_PARAMS, 1) == Q(1, 8)

    def test_reduces_to_factorial_quotient(self):
        # for (1,1,2,2): term(x) = 3 x!^2 / (2x+2)!
        for x in range(25):
            assert schellbach_term(ZETA2_PARAMS, x) == \
                3 * Q(factorial(x)) ** 2 / factorial(2 * x + 2)

    def test_partial_sums_approach_zeta2(self):
        # the direct series sum 1/(k+1)^2 brackets the same limit:
        # |S_trans(X) - S_direct(N)| <= geometric tail + integral tail
        s_trans = sum(schellbach_term(ZETA2_PARAMS, x) for x in range(30))
        s_direct = sum(Q(1, (k + 1) ** 2) for k in range(4000))
        trans_tail = schellbach_term(ZETA2_PARAMS, 30) / (1 - Q(1, 4))
        direct_tail = Q(1, 4000)
        assert abs(s_trans - s_direct) <= trans_tail + direct_tail

    def test_first_partial_sums_from_spec_examples(self):
        partial = sum(schellbach_term(ZETA2_PARAMS, x) for x in range(4))
        assert partial == Q(3, 2) + Q(1, 8) + Q(1, 60) + 3 * Q(36, 40320)


class TestRatioFunction:
    def test_matches_term_quotient(self):
        for params in (ZETA2_PARAMS, GENERAL_PARAMS):
            ratio = params.transformed_ratio()
            for x in range(12):
                assert ratio(x) == schellbach_term(params, x + 1) / schellbach_term(params, x)

    def test_quarter_bound_certificate(self):
        assert ZETA2_PARAMS.transformed_ratio().bounded_by(Q(1, 4), 0) is not None


class _PerturbedR(SchellbachParams):
    """The classical engine with R raised by x z; its proof expands the perturbed R."""

    def R(self, x, z):
        return super().R(x, z) + x * z


class TestClassicalEngine:
    """Schellbach's series read off the five classical evaluators."""

    @DRAWS
    @given(TUPLES)
    def test_bracket_proved(self, params):
        assert params.proof.holds
        assert params.proof.degrees == (4, 3)
        assert len(params.proof.factors) == 2  # (c+x+z)(d+x+z)

    @pytest.mark.parametrize("params", [
        ZETA2_PARAMS, GENERAL_PARAMS, SchellbachParams(Q(-1), Q(1, 3), Q(-1, 2), Q(11, 3)),
    ], ids=["zeta2", "general", "negative-roots"])
    def test_symbolic_evaluators_are_the_evaluators(self, params):
        # the kernel's Factors path, which the proof expands, is its integer path
        x, z = Factors.monomial(1, 0), Factors.monomial(0, 1)
        symbolic = {"P": params.P(x), "Q": params.Q(x), "R": params.R(x, z),
                    "R+": params.R(x, z + 1), "rx": params.rx(x, z), "rz": params.rz(x, z)}
        for i, j in ((0, 0), (1, 4), (5, 2), (7, 7), (12, 3)):
            numeric = {"P": params.P(i), "Q": params.Q(i), "R": params.R(i, j),
                       "R+": params.R(i, j + 1), "rx": params.rx(i, j), "rz": params.rz(i, j)}
            assert {k: factors_value(f, i, j) for k, f in symbolic.items()} == numeric, (i, j)

    def test_perturbed_r_not_proved(self):
        for params in (ZETA2_PARAMS, GENERAL_PARAMS):
            assert not _PerturbedR(params.a, params.b, params.c, params.d).proof.holds

    @DRAWS
    @given(TUPLES)
    def test_transformed_ratio_is_schellbachs(self, params):
        # the canonical form fixes the integers up to one common sign: the
        # engine's factors keep a positive constant term, the oracle's a
        # positive leading one, so a negative c, d or p(0) flips both sides
        derived, oracle = params.transformed_ratio(), schellbach_ratio(params)
        sign = 1 if derived.den[-1] > 0 else -1
        assert ([sign * c for c in derived.num], [sign * c for c in derived.den]) \
            == (oracle.num, oracle.den)

    def test_transformed_ratio_integers_at_positive_parameters(self):
        for params in (ZETA2_PARAMS, GENERAL_PARAMS, SchellbachParams(1, 1, 2, 3)):
            derived, oracle = params.transformed_ratio(), schellbach_ratio(params)
            assert (derived.num, derived.den) == (oracle.num, oracle.den)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(TUPLES)
    def test_row_terms_are_the_closed_form(self, params):
        for x in range(65):
            assert params.m(x, 0) * params.f(x, 0) == schellbach_term(params, x)

    def test_pair_telescopes(self):
        for params in (ZETA2_PARAMS, GENERAL_PARAMS, SchellbachParams(Q(2), Q(-3), Q(2), Q(4))):
            pair = pair_from_certificate(params.certificate())
            assert all(check_pair_condition(pair, x, z).holds
                       for x in range(12) for z in range(12))
            assert green_rectangle(pair, 12, 12).equal

    @pytest.mark.parametrize("params", [
        ZETA2_PARAMS, SchellbachParams(Q(1, 3), Q(1, 5), Q(7, 2), Q(11, 3)),
    ], ids=["zeta2", "thirds"])
    def test_certificate_verified_by_the_proof(self, params):
        # the divisors c+x+z and d+x+z miss the grid: one integer test each, no scan
        cert = params.certificate()
        assert cert.proof is params.proof and cert.label == "markov-3F2"
        verdict = verify_certificate(cert, 40, 40)
        assert (verdict.passed, verdict.checks, verdict.proved) == (True, 1681, True)

    def test_grid_through_a_pole_is_scanned(self):
        # c = -3: the divisor 3 - x - z vanishes where x + z = 3, so a grid
        # that reaches it is scanned and raises where the scan first meets it
        params = SchellbachParams(1, 1, -3, 2)
        assert params.proof.holds and params.proof.covers(1, 1)
        assert not params.proof.covers(3, 0) and not params.proof.covers(40, 40)
        with pytest.raises(EvaluationError) as info:
            verify_certificate(params.certificate(), 40, 40)
        assert (info.value.x, info.value.z, str(info.value)) == (1, 3, (
            "3F2 extension undefined at (x=1, z=3): lower rising factorial vanishes at (x=1, z=3)"))

    def test_divisor_test(self):
        # only n + d(x + z) is decided
        assert ZETA2_PARAMS._divisor_vanishes({(0, 0): 1, (1, 0): 1, (0, 1): 2}, 4, 4) is None
        assert ZETA2_PARAMS._divisor_vanishes({(0, 0): 1, (1, 0): 1}, 4, 4) is None
        assert ZETA2_PARAMS._divisor_vanishes({(1, 0): 1, (0, 1): 1}, 0, 0) is True
        assert ZETA2_PARAMS._divisor_vanishes({(0, 0): -9, (1, 0): 2, (0, 1): 2}, 9, 9) is False

    def test_equality_and_hash_read_the_fields(self):
        used = SchellbachParams(1, 1, 2, 2)
        assert used.proof.holds and used.f(3, 4) and used.m(2, 0)
        assert used == ZETA2_PARAMS and hash(used) == hash(ZETA2_PARAMS)
        assert used != GENERAL_PARAMS
        assert {used: 1}[SchellbachParams(Q(1), Q(1), Q(2), Q(2))] == 1
        assert repr(used) == "SchellbachParams(a=Fraction(1, 1), b=Fraction(1, 1), " \
            "c=Fraction(2, 1), d=Fraction(2, 1))"


class TestDirectSide:
    def test_direct_term(self):
        params = SchellbachParams(Q(1, 2), Q(1, 3), Q(2), Q(5, 2))
        n = 3
        expected = Q(1, 2) * Q(3, 2) * Q(5, 2) * Q(1, 3) * Q(4, 3) * Q(7, 3) \
            / (2 * 3 * 4 * Q(5, 2) * Q(7, 2) * Q(9, 2))
        assert params.f(0, n) == expected

    def test_general_parameters_bracket(self):
        # rational non-integer parameters: both sides of the identity agree
        # within the sum of their tail bounds
        params = GENERAL_PARAMS
        s_trans = sum(schellbach_term(params, x) for x in range(40))
        s_direct = sum(params.f(0, n) for n in range(3000))
        ratio = params.transformed_ratio()
        assert ratio.bounded_by(Q(3, 10), 8) is not None  # rho certified past x=8
        trans_tail = abs(schellbach_term(params, 40)) / (1 - Q(3, 10))
        # direct term ratio (n+1/2)(n+1/3)/((n+2)(n+5/2)) <= (n+1)^2/(n+2)^2,
        # so term(n) <= t0 (n0+1)^2/(n+1)^2 for n >= n0 and
        # tail <= t0 (n0+1)^2 sum_{n>n0} (n+1)^-2 <= t0 (n0+1)
        n0 = 3000
        t0 = params.f(0, n0)
        direct_tail = t0 * (n0 + 1)
        assert abs(s_trans - s_direct) <= trans_tail + direct_tail


#: the three tuples at which the transformed terms' trend is read
ASYMPTOTIC_TUPLES = pytest.mark.parametrize("params", [
    ZETA2_PARAMS, SchellbachParams(Q(1, 3), Q(1, 5), Q(7, 2), Q(11, 3)),
    SchellbachParams(Q(1, 2), Q(2, 3), Q(5, 2), Q(9, 4)),
], ids=["zeta2", "thirds", "halves"])


class TestAsymptotics:
    """The transformed terms behave like C 4^(-x) x^e, e = -(a+b-1/2): the
    limit ratio and Gauss's exponent are read exactly off the derived ratio,
    num(x)/den(x) = L (1 + e/x + O(x^-2))."""

    @ASYMPTOTIC_TUPLES
    def test_limit_ratio_is_a_quarter(self, params):
        ratio = params.transformed_ratio()
        assert len(ratio.num) == len(ratio.den)
        assert Q(ratio.num[-1], ratio.den[-1]) == Q(1, 4)

    @ASYMPTOTIC_TUPLES
    def test_gauss_exponent(self, params):
        ratio = params.transformed_ratio()
        num, den = ratio.num, ratio.den
        exponent = Q(num[-2], num[-1]) - Q(den[-2], den[-1])
        assert exponent == -(params.a + params.b - Q(1, 2))

    @ASYMPTOTIC_TUPLES
    def test_terms_follow_the_exponent(self, params):
        # on the closed-form terms, 4 term(x+1)/term(x) = 1 + e/x + O(x^-2)
        e = -(params.a + params.b - Q(1, 2))

        def defect(x):
            return abs(4 * schellbach_term(params, x + 1) / schellbach_term(params, x) - 1 - e / x)

        assert 0 < defect(64) < defect(32) / 3 < defect(16) / 9
