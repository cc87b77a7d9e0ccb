from fractions import Fraction as Q
from types import SimpleNamespace

import pytest

from markovsum import cli, hgterm
from markovsum.cli import _fuzzed_pair
from markovsum.markov import (
    Certificate,
    EvaluationError,
    GridFunction,
    ThreePhiTwo,
    check_pair_condition,
    make_certificate,
    pair_from_certificate,
    sample_parameter_tuples,
    verify_certificate,
)
from markovsum.markov.phi32 import SAMPLE_TUPLES
from oracles import (
    certificate_value_residual,
    column_products,
    f_product,
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
            assert pair.v(x, 0) == engine.m0(x) * engine.f(x, 0)

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


GRID = 12


def _certificates() -> dict:
    """Every certificate whose reduced residual must match the value residual, by name."""
    cases = {f"sample-{i}": ThreePhiTwo(*params).certificate()
             for i, params in enumerate(SAMPLE_TUPLES)}
    cases.update((f"random-{i}", make_certificate(*params))
                 for i, params in enumerate(sample_parameter_tuples(20, seed=5)))
    good = make_certificate(*CANONICAL)
    cases["R+1"] = Certificate(good.extension, good.p, good.q, lambda x, z: good.r(x, z) + 1)
    cases["R=0"] = Certificate(good.extension, good.p, good.q, lambda x, z: Q(0))
    return cases


CERTIFICATES = _certificates()


class TestReducedResidual:
    """Reduced residual times scale equals the residual of the product-form values."""

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
