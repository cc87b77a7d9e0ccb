"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own verdicts.  Every tolerance is pinned here;
nothing is deferred to later calibration.
"""

from __future__ import annotations

import contextlib
import io
import time
from fractions import Fraction as Q

from property_suites import ALL_SUITES

from markovsum import catalog, cli
from markovsum.markov import (
    ThreePhiTwo,
    check_pair_condition,
    green_rectangle,
    make_certificate,
    pair_from_certificate,
    solve_multipliers_stepwise,
    verify_certificate,
)
from markovsum.markov.phi32 import SAMPLE_TUPLES
from markovsum.markov.solver import f4f3_family
from oracles import m0

MARKOV_33 = "202056903159594285399738161511450"  # zeta(3) to 33 decimals, rounded


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"\nACCEPTANCE {number}: PASS - {description}")


def run_cli(*argv) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(list(argv))
    return code, buffer.getvalue()


def test_c01_thirty_three_digit_reproduction():
    with criterion(1, "33-digit value of zeta(3) from both rate-1/4 series"):
        for argv in (("compute", "markov-hurwitz", "--a", "1", "--digits", "33"),
                     ("compute", "apery", "--digits", "33")):
            started = time.perf_counter()
            code, out = run_cli(*argv)
            elapsed = time.perf_counter() - started
            assert code == 0
            value = next(l.split(": ")[1] for l in out.splitlines()
                         if l.startswith("value"))
            proven = int(next(l.split(": ")[1] for l in out.splitlines()
                              if l.startswith("digits proven")))
            assert proven >= 33
            assert value.startswith("1.")
            assert value[2:2 + 33] == MARKOV_33
            assert elapsed < 1.0, f"{argv} took {elapsed:.2f}s"


def test_c02_thirteen_terms_twenty_decimals():
    with criterion(2, "13 terms of the 1/27-rate series prove 20 decimals"):
        started = time.perf_counter()
        report = catalog.evaluate(catalog.entry_ratio27_zeta3(), 13)
        elapsed = time.perf_counter() - started
        assert report.digits_proven >= 20
        assert report.rendering.fraction_digits[:20] == MARKOV_33[:20]
        assert elapsed < 0.1, f"took {elapsed:.3f}s"


def test_c03_quoted_convergence_rates():
    with criterion(3, "term ratios at n=32 within 25% of quoted rates"):
        for entry_id, quoted in (("apery", Q(1, 4)),
                                 ("ratio27-zeta3", Q(1, 27)),
                                 ("az-zeta3", Q(1, 1024))):
            entry = catalog.get_entry(entry_id)
            assert entry.asymptotic_ratio == quoted
            ratio = abs(entry.term(33) / entry.term(32))
            assert abs(ratio - quoted) <= quoted / 4, (entry_id, float(ratio))


def test_c04_zeta2_cross_oracle():
    with criterion(4, "zeta(2): accelerated entries prove 20 digits and all "
                      "entries agree on shared proven digits"):
        started = time.perf_counter()
        fast = []
        for entry_id in ("zeta2-27", "schellbach-zeta2"):
            entry = catalog.get_entry(entry_id)
            fast.append(catalog.evaluate(entry, catalog.terms_needed(entry, 20)))
        assert all(r.digits_proven >= 20 for r in fast)
        assert (fast[0].rendering.fraction_digits[:20]
                == fast[1].rendering.fraction_digits[:20])
        # the direct series' telescoping pair proves 16 digits at 1000 terms;
        # it must agree on every digit it proves, and the enclosures meet
        direct = catalog.evaluate(catalog.get_entry("zeta2-direct"), 1000)
        assert direct.digits_proven >= 16 and direct.enclosure.width < Q(1, 10 ** 16)
        for accelerated in fast:
            shared = min(direct.digits_proven, accelerated.digits_proven)
            assert (direct.rendering.fraction_digits[:shared]
                    == accelerated.rendering.fraction_digits[:shared])
            assert direct.enclosure.lower <= accelerated.enclosure.upper
            assert accelerated.enclosure.lower <= direct.enclosure.upper
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_c05_discrete_green_identity():
    with criterion(5, "pair condition and boundary identity exact on all "
                      "five parameter tuples"):
        assert SAMPLE_TUPLES[0] == (Q(1, 3), Q(1, 5), Q(1, 7), Q(1, 11), Q(1, 2))
        assert len(SAMPLE_TUPLES) >= 5
        started = time.perf_counter()
        for params in SAMPLE_TUPLES:
            pair = ThreePhiTwo(*params).pair()
            for x in range(16):
                for z in range(16):
                    result = check_pair_condition(pair, x, z)
                    assert result.holds and result.residual == 0, (params, x, z)
            for i in (1, 5, 10, 20):
                for j in (1, 5, 10, 20):
                    rect = green_rectangle(pair, i, j)
                    assert rect.lhs == rect.rhs, (params, i, j)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_c06_certificate_bridge():
    with criterion(6, "certificate reproduces closed-form multipliers and "
                      "verifies on grid plus 50 random instantiations"):
        for params in SAMPLE_TUPLES:
            engine = ThreePhiTwo(*params)
            pair = pair_from_certificate(engine.certificate())
            for x in range(16):
                assert pair.u(x, 0) == engine.A(x) * engine.f(x, 0)
                assert pair.v(x, 0) == m0(engine, x) * engine.f(x, 0)
        verdict = verify_certificate(make_certificate(*SAMPLE_TUPLES[0]), 20, 20,
                                     family=make_certificate,
                                     random_points=50, seed=0)
        assert verdict.passed, verdict.to_json()


def test_c07_termwise_specialization():
    with criterion(7, "Hurwitz entry at a=1 equals the shifted rate-1/4 series"):
        hurwitz = catalog.entry_markov_hurwitz(Q(1))
        apery = catalog.entry_apery()
        for n in range(33):
            assert hurwitz.term(n) == apery.term(n + 1)


def test_c08_stepwise_solver_closure():
    with criterion(8, "stepwise solver: exact closed forms on the q-series "
                      "family, closure plus verified pair on the 4F3 family"):
        engine = ThreePhiTwo(*SAMPLE_TUPLES[0])
        result = solve_multipliers_stepwise(engine.extension(), "u1", 10)
        assert result.ok
        for x in range(11):
            assert result.data.a(x) == engine.A(x)
            assert result.data.v_coeffs[x] == [engine.B(x), engine.C(x)]
        extension = f4f3_family(Q(1), Q(1, 3), Q(2))
        result = solve_multipliers_stepwise(extension, "u2", 10)
        assert result.ok
        pair = result.data.pair(extension)
        for x in range(10):
            for z in range(10):
                assert check_pair_condition(pair, x, z).holds, (x, z)
        rect = green_rectangle(pair, 10, 10)
        assert rect.lhs == rect.rhs


def test_c09_transform_equality_to_twenty_digits():
    with criterion(9, "source and transformed q-series agree to 20 proven digits"):
        started = time.perf_counter()
        source = catalog.entry_phi32_series(*SAMPLE_TUPLES[0])
        transformed = catalog.entry_phi32_transformed(*SAMPLE_TUPLES[0])
        n_source = next(n for n in range(1, 200)
                        if catalog.evaluate(source, n).digits_proven >= 20)
        n_trans = next(n for n in range(1, 60)
                       if catalog.evaluate(transformed, n).digits_proven >= 20)
        lhs = catalog.evaluate(source, n_source)
        rhs = catalog.evaluate(transformed, n_trans)
        assert lhs.digits_proven >= 20 and rhs.digits_proven >= 20
        assert lhs.rendering.integer_part == rhs.rendering.integer_part
        assert (lhs.rendering.fraction_digits[:20]
                == rhs.rendering.fraction_digits[:20])
        elapsed = time.perf_counter() - started
        assert elapsed < 2.0, f"took {elapsed:.2f}s"


def test_c10_property_suites():
    with criterion(10, "all module invariant suites pass (>= 200 cases per "
                       "randomized property)"):
        started = time.perf_counter()
        for name, suite in ALL_SUITES:
            suite()
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
