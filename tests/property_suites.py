"""Seeded property suites shared by the property tests and the acceptance run.

Each suite checks one invariant from the library's contracts.  Randomized
suites draw from either hypothesis (derandomized, 200 examples) or the
package's deterministic generator with a fixed seed and at least 200 cases;
suites whose quantification domain is a fixed finite set (for example the
termwise identity on indices 0..32) run that domain exhaustively.
"""

from __future__ import annotations

import contextlib
import io
from fractions import Fraction as Q

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from markovsum import catalog, cli
from markovsum.exact import (
    ROUND_HALF_EVEN,
    ROUND_TRUNCATE,
    Enclosure,
    format_rational,
    parse_rational,
    to_decimal,
)
from markovsum.hgterm import TermSequence, q_pochhammer, rising_factorial
from markovsum.markov import (
    Lcg,
    SchellbachParams,
    ThreePhiTwo,
    coefficient_residuals,
    green_rectangle,
    markov_form_term,
    pair_from_certificate,
    schellbach_term,
    solve_multipliers_stepwise,
)
from markovsum.markov.phi32 import SAMPLE_TUPLES
from markovsum.polys import RationalFunction, poly
from oracles import poly_pow
from support import parse_reports_csv

CASES = 200

_SETTINGS = settings(max_examples=CASES, deadline=None, derandomize=True,
                     database=None, suppress_health_check=list(HealthCheck))


def _rationals(bits=256):
    scale = 2 ** bits
    return st.builds(Q, st.integers(min_value=-scale, max_value=scale),
                     st.integers(min_value=1, max_value=scale))


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------

@_SETTINGS
@given(_rationals(), _rationals(), _rationals())
def exact_field_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@_SETTINGS
@given(st.integers(min_value=-(2 ** 128), max_value=2 ** 128),
       st.integers(min_value=1, max_value=2 ** 128))
def exact_normalize_idempotent(n, d):
    once = parse_rational(f"{n}/{d}")
    assert once == Q(n, d)
    assert parse_rational(format_rational(once)) == once
    assert once.denominator > 0


@_SETTINGS
@given(_rationals(bits=40),
       st.tuples(*(st.integers(min_value=0, max_value=10 ** 9) for _ in range(4))),
       st.integers(min_value=1, max_value=25),
       st.sampled_from([ROUND_TRUNCATE, ROUND_HALF_EVEN]))
def exact_to_decimal_monotone(center, offsets, digits, mode):
    o = sorted(Q(v, 10 ** 10) for v in offsets)
    outer = Enclosure(center - o[3], center + o[2])
    inner = Enclosure(center - o[1], center + o[0])
    assert (to_decimal(inner, digits, mode).digits_proven
            >= to_decimal(outer, digits, mode).digits_proven)


@_SETTINGS
@given(_rationals(bits=40), st.integers(min_value=0, max_value=10 ** 8),
       st.integers(min_value=1, max_value=25),
       st.sampled_from([ROUND_TRUNCATE, ROUND_HALF_EVEN]))
def exact_round_trip_within_one_ulp(center, width, digits, mode):
    # a terminating decimal cannot lie inside every enclosure (e.g. the
    # point [1/3, 1/3]), so the round-trip contract is: the parsed rendering
    # lies within one proven ulp (10^-digits_proven) of the enclosure
    enclosure = Enclosure(center, center + Q(width, 10 ** 10))
    rendering = to_decimal(enclosure, digits, mode)
    if rendering.integer_part:
        ulp = Q(1, 10 ** rendering.digits_proven)
        parsed = rendering.value()
        assert enclosure.lower - ulp <= parsed <= enclosure.upper + ulp


# ---------------------------------------------------------------------------
# hgterm
# ---------------------------------------------------------------------------

@_SETTINGS
@given(_rationals(bits=64), st.integers(min_value=0, max_value=40))
def hgterm_rising_recurrence(a, n):
    assert rising_factorial(a, n + 1) == rising_factorial(a, n) * (a + n)


@_SETTINGS
@given(_rationals(bits=32), _rationals(bits=32), st.integers(min_value=0, max_value=30))
def hgterm_qpoch_recurrence(a, q, n):
    assert q_pochhammer(a, q, n + 1) == q_pochhammer(a, q, n) * (1 - q ** n * a)


def hgterm_integer_rising_is_factorial_quotient():
    from math import factorial
    cases = 0
    for a in range(1, 21):
        for n in range(16):
            assert rising_factorial(Q(a), n) == factorial(a + n - 1) // factorial(a - 1)
            cases += 1
    assert cases >= CASES


def hgterm_series_terms_decay_monotonically():
    # balanced series at z=1 with positive lower-minus-upper parameter sum:
    # 4F3(9/2,9/2,9/2,1; 5,5,5) and 3F2(1,1,1; 2,2)
    ratios = [
        RationalFunction(poly_pow(poly(9, 2), 3), poly_pow(poly(10, 2), 3)),
        RationalFunction(poly_pow(poly(1, 1), 2), poly_pow(poly(2, 1), 2)),
    ]
    cases = 0
    for ratio in ratios:
        seq = TermSequence(1, ratio)
        for n in range(200):
            assert abs(seq.term(n + 1)) <= abs(seq.term(n))
            cases += 1
    assert cases >= CASES


# ---------------------------------------------------------------------------
# the transformation engine
# ---------------------------------------------------------------------------

_RECT_SIDES = (1, 2, 3, 4, 5, 8, 10, 13, 16, 20)


def markov_green_identity_exhaustive():
    cases = 0
    for params in SAMPLE_TUPLES:
        pair = ThreePhiTwo(*params).pair()
        for i in _RECT_SIDES:
            for j in _RECT_SIDES:
                rect = green_rectangle(pair, i, j)
                assert rect.lhs == rect.rhs, (params, i, j)
                cases += 1
    assert cases >= CASES


def markov_certificate_matches_closed_forms():
    cases = 0
    for params in SAMPLE_TUPLES:
        engine = ThreePhiTwo(*params)
        pair = pair_from_certificate(engine.certificate())
        for x in range(16):
            assert pair.u(x, 0) == engine.A(x) * engine.f(x, 0)
            for z in range(3):
                assert pair.v(x, z) == engine.m(x, z) * engine.f(x, z)
            cases += 4
    assert cases >= CASES


def markov_cubic_coefficient_always_vanishes():
    rng = Lcg(2024)
    for case in range(CASES):
        params = SAMPLE_TUPLES[case % len(SAMPLE_TUPLES)]
        residuals = coefficient_residuals(
            *params, rng.randint(0, 6),
            A_x=rng.rational(12), A_next=rng.rational(12),
            B_x=rng.rational(12), C_x=rng.rational(12))
        assert residuals[3] == 0


def _certified_rho(params):
    ratio = params.transformed_ratio()
    for rho in (Q(1, 4), Q(3, 10), Q(1, 3), Q(2, 5), Q(1, 2)):
        for n0 in (0, 4, 8, 16):
            if ratio.bounded_by(rho, n0) is not None:
                return rho, n0
    raise AssertionError(f"no geometric certificate found for {params}")


def markov_schellbach_brackets_direct_sum():
    # both sides of the limit identity stay within their combined tails;
    # the direct side's tail uses ratio <= ((n+u)/(n+u+1))^2 with
    # u = max(a,b), valid when min(c,d) >= u + 1
    table = [
        (SchellbachParams(Q(1), Q(1), Q(2), Q(2)), 2000),
        (SchellbachParams(Q(1), Q(1), Q(2), Q(3)), 2000),
        (SchellbachParams(Q(1), Q(1), Q(3), Q(3)), 2000),
        (SchellbachParams(Q(1, 2), Q(1, 3), Q(2), Q(5, 2)), 600),
    ]
    cases = 0
    for params, n_direct in table:
        u = max(params.a, params.b)
        assert min(params.c, params.d) >= u + 1
        rho, n0 = _certified_rho(params)
        direct_sum = Q(0)
        direct_terms = []
        for n in range(n_direct):
            den = rising_factorial(params.c, n) * rising_factorial(params.d, n)
            term = rising_factorial(params.a, n) * rising_factorial(params.b, n) / den
            direct_terms.append(term)
            direct_sum += term
        direct_tail = direct_terms[-1] * (n_direct - 1 + u)
        trans_sum = sum(schellbach_term(params, x) for x in range(5))
        for big_x in range(5, 55):
            trans_sum += schellbach_term(params, big_x)
            if big_x + 1 > n0:
                trans_tail = abs(schellbach_term(params, big_x + 1)) / (1 - rho)
                assert abs(trans_sum - direct_sum) <= trans_tail + direct_tail, \
                    (params, big_x)
                cases += 1
    assert cases >= 190  # 50 truncation depths x 4 parameter sets, minus warmup


def markov_historical_form_termwise_equal():
    cases = 0
    for params in SAMPLE_TUPLES:
        a, b, c, d, q = params
        engine = ThreePhiTwo(*params)
        historical = (1 / a, 1 / b, 1 / c, 1 / d, 1 / q)
        for n in range(41):
            assert markov_form_term(*historical, n) == engine.f(0, n)
            cases += 1
    assert cases >= CASES


def markov_stepwise_u1_reproduces_closed_forms():
    cases = 0
    for params in SAMPLE_TUPLES:
        engine = ThreePhiTwo(*params)
        result = solve_multipliers_stepwise(engine.extension(), "u1", 15)
        assert result.ok, params
        for x in range(16):
            assert result.data.a(x) == engine.A(x)
            assert result.data.v_coeffs[x] == [engine.B(x), engine.C(x)]
            cases += 3
    assert cases >= CASES


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

_GEOMETRIC_IDS = ("apery", "markov-hurwitz", "ratio27-zeta3", "az-zeta3",
                  "zeta2-27", "schellbach-zeta2")


def catalog_ratio_bounds_hold_on_long_prefix():
    cases = 0
    for entry_id in _GEOMETRIC_IDS:
        entry = catalog.get_entry(entry_id)
        bound = entry.ratio_bound
        previous = entry.term(bound.valid_from)
        for n in range(bound.valid_from, bound.valid_from + 200):
            nxt = entry.term(n + 1)
            assert abs(nxt) <= bound.rho * abs(previous), (entry_id, n)
            previous = nxt
            cases += 1
    assert cases >= CASES


def catalog_consecutive_enclosures_share_a_point():
    cases = 0
    for entry_id in _GEOMETRIC_IDS:
        entry = catalog.get_entry(entry_id)
        previous = catalog.evaluate(entry, 2).enclosure
        for n in range(3, 38):
            current = catalog.evaluate(entry, n).enclosure
            assert current.lower <= previous.upper and previous.lower <= current.upper
            previous = current
            cases += 1
    assert cases >= CASES


def catalog_alternating_bound_is_tighter():
    cases = 0
    for entry_id in ("apery", "markov-hurwitz", "ratio27-zeta3", "az-zeta3", "zeta2-27"):
        entry = catalog.get_entry(entry_id)
        for n in range(1, 41):
            report = catalog.evaluate(entry, n)
            nxt = abs(entry.term(entry.n0 + n))
            geometric = nxt / (1 - entry.ratio_bound.rho)
            assert report.enclosure.width <= nxt <= geometric
            cases += 1
    assert cases >= CASES


def catalog_hurwitz_specializes_to_apery():
    hurwitz = catalog.entry_markov_hurwitz(Q(1))
    apery = catalog.entry_apery()
    for n in range(33):
        assert hurwitz.term(n) == apery.term(n + 1)


def catalog_cross_formula_agreement():
    for constant, ids in catalog.CONSTANT_GROUPS.items():
        reports = []
        for entry_id in ids:
            entry = catalog.get_entry(entry_id)
            n = catalog.terms_needed(entry, 20) if entry.ratio_bound else 300
            reports.append(catalog.evaluate(entry, n))
        for i in range(len(reports)):
            for j in range(i + 1, len(reports)):
                shared = min(reports[i].digits_proven, reports[j].digits_proven)
                assert (reports[i].rendering.fraction_digits[:shared]
                        == reports[j].rendering.fraction_digits[:shared]), (constant, i, j)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _run_cli(*argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(list(argv))
    return code, buffer.getvalue()


def cli_reproducible_byte_identical():
    for argv in (("verify-certificate", "--grid", "4x4", "--random-points", "3"),
                 ("compute", "apery", "--digits", "12"),
                 ("compare", "zeta2", "--digits", "8", "--max-terms", "8")):
        assert _run_cli(*argv) == _run_cli(*argv)


def cli_exit_codes():
    with contextlib.redirect_stderr(io.StringIO()):
        assert _run_cli("compute", "apery", "--digits", "10")[0] == 0
        # the telescoping pair proves 11 digits at 64 terms: the cap binds
        assert _run_cli("compute", "zeta3-direct", "--digits", "12",
                        "--max-terms", "64")[0] == 2
        assert _run_cli("compute", "nosuch")[0] == 64
        assert _run_cli("verify-pair", "3phi2", "--grid", "2x2", "--fuzz")[0] == 1
        assert _run_cli("verify-pair", "3phi2", "--q", "2")[0] == 0
        assert _run_cli("verify-pair", "3phi2", "--a", "1/2", "--b", "1/3", "--c", "1/2",
                        "--d", "1/3", "--q", "1/2")[0] == 65
        assert _run_cli("verify-pair", "3phi2", "--q", "0")[0] == 64
        assert _run_cli("solve", "3phi2-u1", "--form", "u2", "--x-max", "1")[0] == 1


def cli_csv_round_trip():
    code, out = _run_cli("compare", "zeta2", "--digits", "8", "--max-terms", "8")
    assert code == 0
    rows = parse_reports_csv(out)
    assert [r["entry"] for r in rows] == list(catalog.CONSTANT_GROUPS["zeta2"])
    again = catalog.reports_to_csv  # formatting back re-parses identically
    assert parse_reports_csv(out) == rows


ALL_SUITES = [
    ("exact: field axioms", exact_field_axioms),
    ("exact: normalize idempotent", exact_normalize_idempotent),
    ("exact: to_decimal monotone", exact_to_decimal_monotone),
    ("exact: render round-trip within one ulp", exact_round_trip_within_one_ulp),
    ("hgterm: rising recurrence", hgterm_rising_recurrence),
    ("hgterm: q-Pochhammer recurrence", hgterm_qpoch_recurrence),
    ("hgterm: integer rising factorial", hgterm_integer_rising_is_factorial_quotient),
    ("hgterm: balanced terms decay", hgterm_series_terms_decay_monotonically),
    ("markov: discrete Green identity", markov_green_identity_exhaustive),
    ("markov: certificate equals closed forms", markov_certificate_matches_closed_forms),
    ("markov: cubic coefficient vanishes", markov_cubic_coefficient_always_vanishes),
    ("markov: transformed/direct sums bracket", markov_schellbach_brackets_direct_sum),
    ("markov: historical form termwise equal", markov_historical_form_termwise_equal),
    ("markov: stepwise u1 closed forms", markov_stepwise_u1_reproduces_closed_forms),
    ("catalog: ratio bounds on long prefix", catalog_ratio_bounds_hold_on_long_prefix),
    ("catalog: consecutive enclosures overlap", catalog_consecutive_enclosures_share_a_point),
    ("catalog: alternating bound tighter", catalog_alternating_bound_is_tighter),
    ("catalog: termwise specialization", catalog_hurwitz_specializes_to_apery),
    ("catalog: cross-formula agreement", catalog_cross_formula_agreement),
    ("cli: byte-identical reruns", cli_reproducible_byte_identical),
    ("cli: exit code table", cli_exit_codes),
    ("cli: csv round-trip", cli_csv_round_trip),
]
