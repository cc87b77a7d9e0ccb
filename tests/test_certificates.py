import dataclasses
from fractions import Fraction as Q
from types import SimpleNamespace

import pytest

from markovsum import cli, hgterm
from markovsum.cli import _fuzzed_pair
from markovsum.markov import (
    Certificate,
    EvaluationError,
    FailurePoint,
    GridFunction,
    MarkovPair,
    Scale,
    ThreePhiTwo,
    check_pair_condition,
    green_rectangle,
    make_certificate,
    pair_from_certificate,
    sample_parameter_tuples,
    verify_certificate,
)
from markovsum.markov.pairs import bracket_residual, one
from markovsum.markov.phi32 import SAMPLE_TUPLES
from markovsum.markov.sampling import _hits_pole
from oracles import (
    certificate_value_residual,
    column_products,
    f_product,
    hits_pole_loop,
    m0,
    pair_value_residual,
)

CANONICAL = SAMPLE_TUPLES[0]


class TestVerifyCertificate:
    def test_canonical_20x20(self):
        cert = make_certificate(*CANONICAL)
        verdict = verify_certificate(cert, 20, 20)
        assert verdict.passed
        assert verdict.checks == 21 * 21

    def test_random_parameter_instantiations(self):
        cert = make_certificate(*CANONICAL)
        verdict = verify_certificate(cert, 4, 4, family=make_certificate,
                                     random_points=10, seed=0)
        assert verdict.passed

    def test_single_point_grid(self):
        cert = make_certificate(*CANONICAL)
        verdict = verify_certificate(cert, 0, 0)
        assert verdict.passed and verdict.checks == 1

    def test_broken_r_fails_at_origin(self):
        good = make_certificate(*CANONICAL)
        bad = Certificate(good.extension, good.p, good.q,
                          lambda x, z: good.r(x, z) + 1, label="broken")
        verdict = verify_certificate(bad, 5, 5)
        assert not verdict.passed
        assert (verdict.first_failure.x, verdict.first_failure.z) == (0, 0)
        assert verdict.first_failure.residual != 0

    def test_verdict_serialization(self):
        cert = make_certificate(*CANONICAL)
        bad = Certificate(cert.extension, cert.p, cert.q, lambda x, z: Q(0))
        verdict = verify_certificate(bad, 2, 2)
        payload = verdict.to_json()
        assert payload["passed"] is False
        assert "/" in payload["first_failure"]["residual"] or \
            payload["first_failure"]["residual"].lstrip("-").isdigit()

    def test_sampling_reproducible(self):
        first = list(sample_parameter_tuples(8, seed=7))
        second = list(sample_parameter_tuples(8, seed=7))
        assert first == second
        assert first != list(sample_parameter_tuples(8, seed=8))


class TestPairFromCertificate:
    @pytest.mark.parametrize("params", SAMPLE_TUPLES, ids=lambda p: str(p[4]))
    def test_reproduces_closed_forms(self, params):
        engine = ThreePhiTwo(*params)
        pair = pair_from_certificate(engine.certificate())
        for x in range(16):
            assert pair.u(x, 0) == engine.A(x) * engine.f(x, 0)
            assert pair.v(x, 0) == m0(engine, x) * engine.f(x, 0)

    def test_normalization(self):
        pair = pair_from_certificate(make_certificate(*CANONICAL))
        engine = ThreePhiTwo(*CANONICAL)
        assert pair.u(0, 0) == engine.f(0, 0)  # A_0 = 1

    def test_induced_pair_telescopes(self):
        pair = pair_from_certificate(make_certificate(*CANONICAL))
        for x in range(8):
            for z in range(8):
                assert check_pair_condition(pair, x, z).holds

    def test_constant_certificate(self):
        # P = Q = 1, R = 0 on F == 1: telescoping is trivial and U == 1, V == 0
        ext = GridFunction(lambda x, z: Q(1), "ones")
        cert = Certificate(ext, lambda x: Q(1), lambda x: Q(1), lambda x, z: Q(0),
                           label="constant")
        assert verify_certificate(cert, 6, 6).passed
        pair = pair_from_certificate(cert)
        for x in range(6):
            for z in range(6):
                assert pair.u(x, z) == 1
                assert pair.v(x, z) == 0
                assert check_pair_condition(pair, x, z).holds

    def test_singular_certificate_reported(self):
        ext = GridFunction(lambda x, z: Q(1), "ones")
        cert = Certificate(ext, lambda x: Q(x - 2), lambda x: Q(1), lambda x, z: Q(0))
        pair = pair_from_certificate(cert)
        with pytest.raises(EvaluationError, match="singular at x=2"):
            pair.u(5, 0)

    def test_p_is_read_once_per_column(self):
        engine = ThreePhiTwo(*CANONICAL)
        calls = []

        def p(x):
            calls.append(x)
            return engine.P(x)

        pair = pair_from_certificate(Certificate(engine.extension(), p, engine.Q, engine.R))
        assert all(check_pair_condition(pair, x, z).holds for x in range(7) for z in range(7))
        assert green_rectangle(pair, 6, 6).equal
        assert sorted(calls) == list(range(7))


class _FactorsOnly(GridFunction):
    """A grid function whose composite value raises if it is formed."""

    def reduced(self, x, z):
        raise AssertionError(f"the composite {self.label} was formed at ({x}, {z})")

    __call__ = reduced


class TestFactoredPair:
    """The induced pair reaches the bracket as factors: V~ as (1/P, R, F~)
    and the x-ratio as (A_{x+1}/A_x, sx); no product of them is formed."""

    def test_scan_reads_the_factors_only(self):
        engine = ThreePhiTwo(*CANONICAL)
        pair = engine.pair()
        for x, z in ((0, 0), (3, 5), (7, 2)):
            assert pair.u.factors(x, z) == ()
            assert pair.v.factors(x, z) == (engine.A.over_p(x), engine.R(x, z))
            assert pair.u.scale.sx(x, z) == (engine.A.ratio(x), engine.rx(x, z))
        unformed = MarkovPair(_FactorsOnly(pair.u.evaluator, "U", scale=pair.u.scale),
                              _FactorsOnly(pair.v.evaluator, "V", scale=pair.v.scale))
        assert sum(not check_pair_condition(unformed, x, z).holds
                   for x in range(11) for z in range(11)) == 0

    def test_perturbed_r_residual_is_the_value_residual(self):
        good = make_certificate(*CANONICAL)
        pair = pair_from_certificate(
            Certificate(good.extension, good.p, good.q, lambda x, z: good.r(x, z) + x * z))
        nonzero = 0
        for x in range(8):
            for z in range(8):
                residual = check_pair_condition(pair, x, z).residual
                assert residual == pair.u(x, z) - pair.u(x + 1, z) - pair.v(x, z) \
                    + pair.v(x, z + 1), (x, z)
                nonzero += residual != 0
        assert nonzero == 7 * 8  # R is raised off column 0

    @pytest.mark.parametrize("params, first", [
        (("1/3", "1/5", "2/3", "1/5", "1/2"), (1, None, "certificate singular at x=1")),
        (("1/3", "1/5", "4", "1/11", "1/2"), (1, 2, "(c,d;q)_3 vanishes for c=4, d=1/11")),
        (("1/3", "1/5", "2/3", "2/5", "1/2"), (1, None, "(1 - t q^(2x+1)) vanishes at x=1")),
    ], ids=["P(1)=0", "(c,d;q)_3=0", "1-tq^3=0"])
    def test_singular_tuple_raises_the_first_error(self, params, first, capsys):
        pair = ThreePhiTwo(*map(Q, params)).pair()
        with pytest.raises(EvaluationError) as info:
            for x in range(11):
                for z in range(11):
                    check_pair_condition(pair, x, z)
        assert (info.value.x, info.value.z, str(info.value)) == first
        argv = ["verify-pair", "3phi2", "--grid", "10x10"]
        for name, value in zip("abcdq", params):
            argv += [f"--{name}", value]
        assert cli.main(argv) == 65
        out, err = capsys.readouterr()
        assert out == "" and err == f"evaluation singularity at (x={first[0]}, z={first[1]}): " \
            f"{first[2]}\n"


GRID = 20


def _certificates() -> dict:
    """Every certificate whose reduced residual must match the value residual, by name."""
    cases = {f"sample-{i}": ThreePhiTwo(*params).certificate()
             for i, params in enumerate(SAMPLE_TUPLES)}
    cases["sample-0-unproved"] = dataclasses.replace(cases["sample-0"])
    cases.update((f"random-{i}", make_certificate(*params))
                 for i, params in enumerate(sample_parameter_tuples(20, seed=5)))
    good = make_certificate(*CANONICAL)
    cases["R+1"] = Certificate(good.extension, good.p, good.q, lambda x, z: good.r(x, z) + 1)
    cases["R=0"] = Certificate(good.extension, good.p, good.q, lambda x, z: Q(0))
    return cases


CERTIFICATES = _certificates()


class TestReducedResidual:
    """Reduced residual times scale equals the residual of the product-form values
    at every point of the grid, so a failing pair or certificate fails first
    where the values do, with the same residual."""

    @pytest.mark.parametrize("name", CERTIFICATES)
    def test_certificate_residual_equals_value_residual(self, name):
        cert = CERTIFICATES[name]
        engine = SimpleNamespace(**cert.extension.params)
        for x in range(GRID):
            for z in range(GRID):
                assert cert.residual(x, z) == certificate_value_residual(
                    engine, cert.p, cert.q, cert.r, x, z), (x, z)

    @pytest.mark.parametrize("name", CERTIFICATES)
    def test_pair_residual_equals_value_residual(self, name):
        cert = CERTIFICATES[name]
        engine = SimpleNamespace(**cert.extension.params)
        a = column_products(cert.p, cert.q, GRID + 1)
        pair = pair_from_certificate(cert)

        def u(x, z):
            return a[x] * f_product(engine, x, z)

        def v(x, z):
            return a[x] * cert.r(x, z) / cert.p(x) * f_product(engine, x, z)

        for x in range(GRID):
            for z in range(GRID):
                assert check_pair_condition(pair, x, z).residual \
                    == pair_value_residual(u, v, x, z), (x, z)

    def test_fuzzed_pair_residual_equals_value_residual(self):
        engine = ThreePhiTwo(*CANONICAL)
        pair = _fuzzed_pair(engine)

        def u(x, z):
            return engine.A(x) * f_product(engine, x, z)

        def v(x, z):
            return (engine.m(x, z) + (1 if x == 0 else 0)) * f_product(engine, x, z)

        failures = 0
        for x in range(GRID):
            for z in range(GRID):
                residual = check_pair_condition(pair, x, z).residual
                assert residual == pair_value_residual(u, v, x, z), (x, z)
                failures += residual != 0
        assert failures == GRID  # the bump breaks column 0 only

    def test_random_certificate_checks_leave_qpochhammer_cache_empty(self, capsys):
        hgterm.clear_caches()
        assert cli.main(["verify-certificate", "--random-points", "200"]) == 0
        assert "passed: True" in capsys.readouterr().out
        assert not hgterm._qpoch_cache


class TestOneBracket:
    """Certificate.residual and check_pair_condition form one integer bracket,
    pairs.bracket_residual."""

    def test_zero_bracket_reads_no_scale_value(self):
        class Unread(Scale):
            def value(self, x, z):
                raise AssertionError("a zero bracket read S")

        half = Q(1, 2)
        assert bracket_residual(Unread(one, one), 0, 0, (half, Q(4)), (Q(2),), (Q(1, 3),),
                                (Q(2, 3), half)) == 0
        scale = Scale(lambda x, z: Q(3), one)  # S(1, 0) = 3
        assert bracket_residual(scale, 1, 0, (half,), (Q(1, 3),), (Q(0),), (Q(1, 3), half)) \
            == 3 * (half - Q(1, 3) + Q(1, 6))

    def test_singular_grid_without_proof_raises_at_its_first_singular_point(self):
        # the grid of `verify-certificate --c 4 --q 1/2 --grid 6x6`: c = q^-2
        a, b, _, d, _ = CANONICAL
        cert = make_certificate(a, b, Q(4), d, Q(1, 2))
        for scanned in (cert, _scanned(cert)):
            with pytest.raises(EvaluationError) as info:
                verify_certificate(scanned, 6, 6)
            assert (info.value.x, info.value.z) == (1, 2)
            assert str(info.value) == "(c,d;q)_3 vanishes for c=4, d=1/11"


def _scanned(cert: Certificate) -> Certificate:
    """The same evaluators without the proof: ``dataclasses.replace`` drops it."""
    return dataclasses.replace(cert)


def _scanned_family(*params) -> Certificate:
    return _scanned(make_certificate(*params))


def _outcome(verdict):
    return verdict.passed, verdict.checks, verdict.first_failure


class _PerturbedP(ThreePhiTwo):
    """The engine with P raised by 1/7; its proof expands the perturbed P."""

    def P(self, x):
        return super().P(x) + Q(1, 7)


class TestProofAndScanAgree:
    """A proved grid gives the verdict a point-by-point scan gives."""

    @pytest.mark.parametrize("params", list(SAMPLE_TUPLES)
                             + list(sample_parameter_tuples(20, seed=9)), ids=str)
    def test_same_verdict(self, params):
        cert = make_certificate(*params)
        proved = verify_certificate(cert, 8, 8)
        assert proved.proved and cert.proof.holds
        scanned = verify_certificate(_scanned(cert), 8, 8)
        assert not scanned.proved
        assert _outcome(proved) == _outcome(scanned) == (True, 81, None)

    def test_golden_random_request(self):
        # the golden `verify-certificate --grid 8x8 --random-points 10 --seed 3`
        cert = make_certificate(*CANONICAL)
        proved = verify_certificate(cert, 8, 8, family=make_certificate,
                                    random_points=10, seed=3)
        scanned = verify_certificate(_scanned(cert), 8, 8, family=_scanned_family,
                                     random_points=10, seed=3)
        assert proved.proved and not scanned.proved
        assert _outcome(proved) == _outcome(scanned) == (True, 571, None)

    def test_every_sample_and_seed0_instance_proved(self):
        for params in SAMPLE_TUPLES:
            verdict = verify_certificate(make_certificate(*params), 20, 20)
            assert verdict.proved and verdict.checks == 441
        verdict = verify_certificate(make_certificate(*CANONICAL), 20, 20,
                                     family=make_certificate, random_points=50, seed=0)
        assert (verdict.passed, verdict.checks, verdict.proved) == (True, 2891, True)
        assert verdict.to_json() == {"passed": True, "checks": 2891}

    def test_unproved_instance_makes_the_verdict_unproved(self):
        def family(*params):
            cert = make_certificate(*params)
            return _scanned(cert) if params == first else cert

        first = next(sample_parameter_tuples(1, seed=0))
        verdict = verify_certificate(make_certificate(*CANONICAL), 4, 4, family=family,
                                     random_points=3, seed=0)
        assert (verdict.passed, verdict.checks, verdict.proved) == (True, 25 + 3 * 49, False)


GOOD = make_certificate(*CANONICAL)


class TestUnprovedCertificatesAreScanned:
    """Wrong certificates report the first failing point of the scan."""

    @pytest.mark.parametrize("name, cert, failure", [
        ("R+1", Certificate(GOOD.extension, GOOD.p, GOOD.q, lambda x, z: GOOD.r(x, z) + 1),
         (1, (0, 0, Q(11, 15)))),
        ("R=0", Certificate(GOOD.extension, GOOD.p, GOOD.q, lambda x, z: Q(0)),
         (1, (0, 0, Q(-7253, 11935)))),
        ("P+1/7", Certificate(GOOD.extension, lambda x: GOOD.p(x) + Q(1, 7), GOOD.q, GOOD.r),
         (1, (0, 0, Q(-1, 7)))),
        ("replaced R", dataclasses.replace(
            GOOD, r=lambda x, z: GOOD.r(x, z) * (1 + Q(x * z, 1000))),
         (10, (1, 0, Q(-736, 769894125)))),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_first_failure(self, name, cert, failure):
        assert cert.proof is None
        verdict = verify_certificate(cert, 8, 8)
        point = verdict.first_failure
        assert not verdict.passed and not verdict.proved
        assert (verdict.checks, (point.x, point.z, point.residual)) == failure

    def test_failing_instance_is_named(self):
        def broken(*params):
            cert = make_certificate(*params)
            return Certificate(cert.extension, cert.p, cert.q, lambda x, z: cert.r(x, z) + 1)

        first = next(sample_parameter_tuples(1, seed=0))
        verdict = verify_certificate(GOOD, 4, 4, family=broken, random_points=3, seed=0)
        assert (verdict.passed, verdict.checks, verdict.proved) == (False, 26, False)
        assert verdict.first_failure.instance == ",".join(map(str, first))
        assert (verdict.first_failure.x, verdict.first_failure.z) == (0, 0)

    def test_perturbed_engine_expands_to_a_nonzero_numerator(self):
        cert = _PerturbedP(*CANONICAL).certificate()
        assert not cert.proof.holds and not cert.proof.covers(8, 8)
        verdict = verify_certificate(cert, 8, 8)
        assert not verdict.proved
        assert (verdict.checks, verdict.first_failure) == (1, FailurePoint(0, 0, Q(-1, 7)))


class TestSingularGrids:
    """A grid on which a denominator vanishes is scanned, and raises where the scan does."""

    @pytest.mark.parametrize("params, message, where", [
        # c = q^-2: (1 - cq^k) vanishes at k = x + z = 2
        ((Q(1, 3), Q(1, 5), Q(4), Q(1, 11), Q(1, 2)),
         "(c,d;q)_3 vanishes for c=4, d=1/11", (1, 2)),
        # t = cd/(abq) = 8 = q^-3: (1 - tq^(2x+1)) vanishes at x = 1
        ((Q(1, 3), Q(1, 5), Q(2, 3), Q(2, 5), Q(1, 2)),
         "(1 - t q^(2x+1)) vanishes at x=1", (1, None)),
    ])
    def test_same_error_as_the_scan(self, params, message, where):
        cert = make_certificate(*params)
        assert cert.proof.holds and not cert.proof.covers(6, 6)
        for candidate in (cert, _scanned(cert)):
            with pytest.raises(EvaluationError) as info:
                verify_certificate(candidate, 6, 6)
            assert (str(info.value), (info.value.x, info.value.z)) == (message, where)

    def test_grid_short_of_the_pole_is_proved(self):
        cert = make_certificate(Q(1, 3), Q(1, 5), Q(2, 3), Q(2, 5), Q(1, 2))
        verdict = verify_certificate(cert, 0, 6)
        assert verdict.passed and verdict.proved and verdict.checks == 7


class TestProofMatchesTheProductForm:
    @pytest.mark.parametrize("params", SAMPLE_TUPLES, ids=lambda p: str(p[4]))
    def test_value_residual_vanishes_where_proved(self, params):
        engine = ThreePhiTwo(*params)
        cert = engine.certificate()
        assert cert.proof.covers(6, 6)
        for x, z in ((0, 0), (1, 3), (4, 2), (6, 6)):
            assert certificate_value_residual(engine, cert.p, cert.q, cert.r, x, z) == 0


class TestHitsPole:
    """The integer test decides as the Fraction loop it replaced."""

    QS = [Q(n, d) for d in range(2, 10) for n in range(1, d)]

    def test_agrees_with_the_loop_on_small_values(self):
        values = {Q(n, d) for n in range(-12, 13) for d in range(1, 13)}
        for q in self.QS:
            for value in values:
                assert _hits_pole(value, q) == hits_pole_loop(value, q), (value, q)

    def test_span_edges(self):
        for q in self.QS:
            assert _hits_pole(Q(1), q) and hits_pole_loop(Q(1), q)  # k = 0
            assert _hits_pole(q ** -63, q) and hits_pole_loop(q ** -63, q)
            assert not _hits_pole(q ** -64, q) and not hits_pole_loop(q ** -64, q)
            assert _hits_pole(q ** -64, q, span=65)

    @pytest.mark.parametrize("q", [Q(1, 2), Q(2, 3), Q(8, 9)], ids=str)
    def test_t_one_is_the_k0_pole(self, q):
        # the sampler refuses t = 1 through this test alone; a span of one
        # looks only at k = 0
        assert _hits_pole(Q(1), q, span=1)
        assert not _hits_pole(Q(1), q, span=0)

    def test_sampler_refuses_t_one_as_the_k0_pole(self):
        # 8 of the draws behind these 1000 tuples have t = 1 = q^0; only
        # _hits_pole(t, q) rejects them
        for a, b, c, d, q in sample_parameter_tuples(1000, seed=0):
            assert c * d / (a * b * q) != 1
