from fractions import Fraction as Q

import pytest

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
