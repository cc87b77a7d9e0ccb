import itertools
from fractions import Fraction as Q
from math import gcd

import pytest

from markovsum import catalog, hgterm, polys
from markovsum.catalog import (
    CatalogError,
    FormulaEntry,
    RatioBound,
    entry_apery,
    entry_az_zeta3,
    entry_direct,
    entry_kummer,
    entry_markov_hurwitz,
    entry_phi32_series,
    entry_phi32_transformed,
    entry_ratio27_zeta3,
    entry_schellbach_zeta2,
    entry_zeta2_27,
    evaluate,
    get_entry,
    reports_to_csv,
    terms_needed,
)
from markovsum.exact import (
    ROUND_HALF_EVEN,
    ROUND_TRUNCATE,
    Enclosure,
    to_decimal,
)
from markovsum.hgterm import TermSequence, rising_factorial
from markovsum.markov import SAMPLE_TUPLES, ThreePhiTwo, sample_parameter_tuples
from markovsum.polys import RationalFunction, poly, poly_eval, poly_mul, poly_shift
from oracles import (
    fraction_enclosure,
    gcd_cofactors,
    hurwitz3_direct_tail,
    hurwitz3_ratio,
    kummer_tail,
    linear_terms_needed,
    lowest_terms,
    markov_hurwitz_ratio,
    phi32_series_ratio,
    phi32_transformed_h,
    schellbach_ratio,
    transformed_tail_factor,
    zeta_direct_tail,
)
from support import claims_failure, contains, parse_reports_csv

CANONICAL = (Q(1, 3), Q(1, 5), Q(1, 7), Q(1, 11), Q(1, 2))


class TestAperyEntry:
    def test_first_term(self):
        assert entry_apery().term(1) == Q(5, 4)

    def test_partial_sum(self):
        e = entry_apery()
        assert e.term(1) + e.term(2) == Q(115, 96)

    def test_certified(self):
        e = entry_apery()
        assert e.ratio_bound.valid_from == e.n0
        assert e.ratio_bound == RatioBound(Q(1, 4), 1)

    def test_one_term_enclosure_brackets_limit(self):
        report = evaluate(entry_apery(), 1)
        assert contains(report.enclosure, Q("1.202056903"))


class TestMarkovHurwitzEntry:
    def test_a1_first_term(self):
        assert entry_markov_hurwitz(Q(1)).term(0) == Q(5, 4)

    def test_a1_second_term(self):
        assert entry_markov_hurwitz(Q(1)).term(1) == Q(-5, 96)

    def test_termwise_specialization(self):
        hurwitz = entry_markov_hurwitz(Q(1))
        apery = entry_apery()
        for n in range(33):
            assert hurwitz.term(n) == apery.term(n + 1)

    def test_pole_rejected(self):
        with pytest.raises(CatalogError, match="pole in a"):
            entry_markov_hurwitz(Q(-3))

    def test_half_parameter_agrees_with_direct_sum(self):
        # zeta(3, 1/2) cross-oracle: accelerated vs direct with integral tail
        accelerated = evaluate(entry_markov_hurwitz(Q(1, 2)), 40)
        direct = evaluate(entry_direct("hurwitz3", Q(1, 2)), 600)
        assert accelerated.digits_proven >= 20
        lo, hi = direct.enclosure.lower, direct.enclosure.upper
        assert not (accelerated.enclosure.upper < lo or accelerated.enclosure.lower > hi)


class TestRatio27Entry:
    def test_first_terms(self):
        e = entry_ratio27_zeta3()
        assert e.term(1) == Q(29, 24)
        assert e.term(2) == Q(-11, 1728)

    def test_thirteen_terms_give_twenty_decimals(self):
        report = evaluate(entry_ratio27_zeta3(), 13)
        assert report.digits_proven >= 20

    def test_certified(self):
        e = entry_ratio27_zeta3()
        assert e.ratio_bound.valid_from == e.n0


class TestAZEntry:
    def test_first_terms(self):
        e = entry_az_zeta3()
        assert e.term(0) == Q(77, 64)
        assert e.term(1) == Q(-(205 + 250 + 77), 64 * 6 ** 5)

    def test_thirty_digit_agreement_with_apery(self):
        az = evaluate(entry_az_zeta3(), terms_needed(entry_az_zeta3(), 30))
        ap = evaluate(entry_apery(), terms_needed(entry_apery(), 30))
        assert az.digits_proven >= 30 and ap.digits_proven >= 30
        assert az.rendering.fraction_digits[:30] == ap.rendering.fraction_digits[:30]


class TestZeta227Entry:
    def test_first_terms(self):
        e = entry_zeta2_27()
        assert e.term(1) == Q(-83, 3780)
        assert e.term(2) == Q(27 * 55, 10395 * 624)

    def test_offset(self):
        assert entry_zeta2_27().offset == Q(5, 3)

    def test_agreement_with_schellbach(self):
        z27 = evaluate(entry_zeta2_27(), terms_needed(entry_zeta2_27(), 25))
        sch = evaluate(entry_schellbach_zeta2(), terms_needed(entry_schellbach_zeta2(), 25))
        assert z27.digits_proven >= 25 and sch.digits_proven >= 25
        assert z27.rendering.fraction_digits[:25] == sch.rendering.fraction_digits[:25]


class TestDirectEntries:
    def test_zeta3_partial(self):
        e = entry_direct("zeta3")
        assert e.term(1) + e.term(2) == Q(9, 8)

    def test_eta3_terms(self):
        e = entry_direct("eta3")
        assert e.term(1) == 1
        assert e.term(2) == Q(-1, 8)

    def test_hurwitz_shift(self):
        h = entry_direct("hurwitz3", Q(1))
        z = entry_direct("zeta3")
        for n in range(20):
            assert h.term(n) == z.term(n + 1)

    def test_hurwitz_needs_positive_a(self):
        with pytest.raises(CatalogError):
            entry_direct("hurwitz3", Q(-1, 2))

    def test_unknown_kind(self):
        with pytest.raises(CatalogError):
            entry_direct("zeta5")

    def test_integral_bound_brackets(self):
        report = evaluate(entry_direct("zeta3"), 400)
        assert contains(report.enclosure, Q("1.2020569"))
        assert report.digits_proven >= 4


class TestKummerEntry:
    def test_first_terms(self):
        e = entry_kummer()
        assert e.term(0) == 1
        assert e.term(1) == Q(729, 1000)

    def test_ratio_tends_to_one(self):
        e = entry_kummer()
        r10 = e.term(11) / e.term(10)
        r100 = e.term(101) / e.term(100)
        assert Q(8, 10) < r10 < 1
        assert Q(97, 100) < r100 < 1

    def test_flagged_slow_with_no_geometric_bound(self):
        e = entry_kummer()
        assert e.slow and e.ratio_bound is None
        with pytest.raises(CatalogError, match="no geometric bound"):
            terms_needed(e, 3)

    def test_enclosure_contains_reference(self):
        # 9.04658676497... is an independently computed reference value for
        # this sum; the 300-term enclosure is wide (~1.3) but must contain it
        report = evaluate(entry_kummer(), 300)
        assert contains(report.enclosure, Q("9.0465867"))
        assert report.enclosure.width < 2


class TestPhi32Entries:
    def test_both_sides_agree_to_twenty_digits(self):
        lhs = entry_phi32_series(*CANONICAL)
        rhs = entry_phi32_transformed(*CANONICAL)
        r1 = evaluate(lhs, 60)
        r2 = evaluate(rhs, 9)
        assert r1.digits_proven >= 20 and r2.digits_proven >= 20
        assert r1.rendering.fraction_digits[:20] == r2.rendering.fraction_digits[:20]
        assert r1.rendering.integer_part == r2.rendering.integer_part

    def test_source_ratio_bound_is_t(self):
        lhs = entry_phi32_series(*CANONICAL)
        assert lhs.ratio_bound.rho == Q(30, 77)

    def test_conditions_enforced(self):
        # t = 19/25 < 1, but a + b < c + d: the term ratio exceeds t for all
        # large z, and at z = 0 it exceeds 1, so neither t nor a rung certifies
        with pytest.raises(CatalogError, match="no rate certificate at the ratio's limit 19/25"):
            entry_phi32_series(Q(1, 2), Q(1, 2), Q(19, 20), Q(1, 10), Q(1, 2))


class TestEvaluate:
    def test_rejects_zero_terms(self):
        with pytest.raises(CatalogError):
            evaluate(entry_apery(), 0)

    def test_enclosures_share_the_limit(self):
        e = entry_apery()
        previous = evaluate(e, 2).enclosure
        for n in range(3, 24):
            current = evaluate(e, n).enclosure
            assert current.lower <= previous.upper and previous.lower <= current.upper
            previous = current

    def test_alternating_bound_tighter_than_geometric(self):
        e = entry_apery()
        n = 10
        report = evaluate(e, n)
        geometric = abs(e.term(n + 1)) / (1 - Q(1, 4))
        assert report.enclosure.width <= geometric

    def test_vanishing_tail_gives_point_enclosure(self):
        # term ratio 0: every term after the first vanishes, and the rate is 0
        entry = FormulaEntry(
            "finite", "other", "one nonzero term",
            TermSequence(Q(3, 2), RationalFunction(poly(0), poly(1))))
        assert entry.remainder_nonneg and entry.ratio_bound == RatioBound(Q(0), 0)
        report = evaluate(entry, 10)
        assert report.enclosure.width == 0
        assert report.enclosure.lower == Q(3, 2)

    def test_registration_rejects_bad_ratio(self):
        # term ratio (3n + 1)/(2n + 1) tends to 3/2: the terms grow
        with pytest.raises(CatalogError, match="does not tend to a limit <= 1"):
            FormulaEntry(
                "bogus", "zeta3", "ratio limit above one",
                TermSequence(1, RationalFunction(poly(1, 3), poly(1, 2))))

    def test_registration_scan_catches_a_wrong_certificate(self, monkeypatch):
        # (n+1)^2/(2(n^2+10)) tends to 1/2 from above only from n = 5 on; a
        # rate certifier that claims every margin nonnegative from n0 passes
        # rate 1/2 from n = 0 (the signs are read off the factors, and hold),
        # and the step-by-step check refuses it
        monkeypatch.setattr(catalog, "nonneg_walk", lambda p, n0: (n0, None))
        entry = FormulaEntry(
            "bogus", "other", "rate 1/2 broken at n = 5",
            TermSequence(1, RationalFunction(poly(1, 2, 1), poly(20, 0, 2))))
        assert entry.ratio_bound == RatioBound(Q(1, 2), 0)
        assert claims_failure(entry) == "bogus: rate 1/2 fails at n=5"

    def test_registration_rejects_wrong_alternation(self):
        # term ratio (n - 3)/(n + 1) changes sign at n = 3
        with pytest.raises(CatalogError, match="alternate"):
            FormulaEntry(
                "bogus", "zeta3", "neither one sign nor alternating",
                TermSequence(1, RationalFunction(poly(-3, 1), poly(1, 1))))


class TestTermsNeeded:
    def test_zero_digits(self):
        assert terms_needed(entry_apery(), 0) == 1

    def test_apery_scan_values(self):
        # frozen from the implementation's exact scan; the alternating
        # bracket is tighter than the pure 1/4-geometric estimate
        assert terms_needed(entry_apery(), 33) == 49
        assert terms_needed(entry_apery(), 33, rounding=ROUND_HALF_EVEN) == 48

    def test_ratio27_twenty_digits(self):
        assert terms_needed(entry_ratio27_zeta3(), 20) <= 13

    def test_consistent_with_evaluate(self):
        for digits in (5, 12, 20):
            e = entry_az_zeta3()
            n = terms_needed(e, digits)
            assert evaluate(e, n, digits=digits).digits_proven >= digits
            if n > 1:
                assert evaluate(e, n - 1, digits=digits).digits_proven < digits


class TestRegistryAndReports:
    def test_get_entry_unknown(self):
        with pytest.raises(KeyError):
            get_entry("nosuch")

    def test_parameter_only_where_allowed(self):
        with pytest.raises(CatalogError):
            get_entry("apery", a=Q(2))

    def test_listing_covers_registry(self):
        rows = catalog.list_entries()
        assert {r["entry"] for r in rows} == set(catalog.REGISTRY)

    def test_csv_round_trip(self):
        reports = [evaluate(entry_apery(), 10), evaluate(entry_direct("zeta3"), 50)]
        text = reports_to_csv(reports)
        rows = parse_reports_csv(text)
        assert [r["entry"] for r in rows] == ["apery", "zeta3-direct"]
        assert rows[0]["ratio_bound"] == Q(1, 4)
        assert rows[0]["terms_used"] == 10
        assert rows[0]["digits_proven"] == reports[0].digits_proven
        assert rows[0]["rendering"] == str(reports[0].rendering)

    def test_json_schema_field(self):
        payload = evaluate(entry_apery(), 5).to_json()
        assert payload["schema"] == "1"
        assert "/" in payload["enclosure"]["lower"]

    def test_cross_formula_agreement(self):
        for constant, ids in catalog.CONSTANT_GROUPS.items():
            reports = []
            for entry_id in ids:
                entry = get_entry(entry_id)
                n = terms_needed(entry, 20) if entry.ratio_bound else 400
                reports.append(evaluate(entry, n))
            for i in range(len(reports)):
                for j in range(i + 1, len(reports)):
                    shared = min(reports[i].digits_proven, reports[j].digits_proven)
                    asides = reports[i].rendering.fraction_digits[:shared]
                    bsides = reports[j].rendering.fraction_digits[:shared]
                    assert asides == bsides, (constant, i, j)


# ---------------------------------------------------------------------------
# One description per geometric entry: first term and term ratio
# ---------------------------------------------------------------------------

GEOMETRIC_IDS = ("apery", "markov-hurwitz", "ratio27-zeta3", "az-zeta3",
                 "zeta2-27", "schellbach-zeta2")
HURWITZ_VALUES = [Q(n, d) for n in range(1, 13) for d in range(1, 13) if gcd(n, d) == 1]
#: a <= 12 whose term ratio tends to 1/4 from above, so rate 1/4 has no
#: certificate: a -> valid_from of the first rung, 1/4 + (1 - 1/4)/8 = 11/32
HURWITZ_RUNG = Q(11, 32)
HURWITZ_RUNG_FROM = {
    Q(1, 3): 1, Q(1, 4): 1, Q(1, 5): 2, Q(1, 6): 2, Q(1, 7): 3, Q(1, 8): 3,
    Q(1, 9): 3, Q(1, 10): 3, Q(1, 11): 3, Q(1, 12): 3, Q(2, 7): 1, Q(2, 9): 2,
    Q(2, 11): 2, Q(3, 8): 0, Q(3, 10): 1, Q(3, 11): 1, Q(4, 11): 0}


def scanned_terms_needed(entry, max_digits, rounding) -> list[int]:
    """terms_needed at 1..max_digits digits by the search before the single pass.

    One enclosure at every index, from a running sum of the terms read one
    by one rather than the sequence's own sums, and no bit-length test.
    """
    found = {}
    n = max(1, entry.ratio_bound.valid_from - entry.n0 + 1)
    partial = sum((entry.term(k) for k in range(entry.n0, entry.n0 + n - 1)), entry.offset)
    while len(found) < max_digits:
        last = entry.n0 + n - 1
        partial += entry.term(last)
        enclosure = fraction_enclosure(entry, partial, last)
        for digits in range(1, max_digits + 1):
            if digits not in found and enclosure.width <= Q(1, 10 ** digits) \
                    and to_decimal(enclosure, digits, rounding).digits_proven >= digits:
                found[digits] = n
        n += 1
    return [found[digits] for digits in range(1, max_digits + 1)]


class TestRecurrenceTerms:
    @pytest.mark.parametrize("entry_id", GEOMETRIC_IDS)
    def test_terms_equal_closed_form(self, entry_id):
        entry = get_entry(entry_id)
        closed = catalog.CLOSED_FORMS[entry_id]
        assert all(entry.term(n) == closed(n) for n in range(entry.n0, entry.n0 + 301))

    @pytest.mark.parametrize("a", [Q(1, 2), Q(2, 5), Q(5, 12), Q(8, 19), Q(3, 7), Q(2, 3),
                                   Q(11, 12), Q(1), Q(3, 2), Q(7, 3), Q(5), Q(12)])
    def test_hurwitz_terms_equal_closed_form(self, a):
        entry = entry_markov_hurwitz(a)
        assert all(entry.term(n) == catalog.markov_hurwitz_term(n, a) for n in range(301))

    def test_terms_before_n0_rejected(self):
        with pytest.raises(ValueError):
            entry_apery().term(0)

    @pytest.mark.parametrize("entry_id", GEOMETRIC_IDS)
    def test_ratio_certified_from_n0(self, entry_id):
        entry = get_entry(entry_id)
        assert entry.ratio_bound.valid_from == entry.n0


class TestHurwitzValidFrom:
    def test_every_value_up_to_twelve(self):
        for a in HURWITZ_VALUES:
            entry = entry_markov_hurwitz(a)
            if a in HURWITZ_RUNG_FROM:
                assert entry.ratio_bound == RatioBound(HURWITZ_RUNG, HURWITZ_RUNG_FROM[a]), a
                continue
            expected = 1 if a in (Q(2, 5), Q(5, 12)) else 0
            assert entry.ratio_bound == RatioBound(Q(1, 4), expected), a

    @pytest.mark.parametrize("a", [Q(2, 5), Q(5, 12)])
    def test_ratio_above_quarter_only_at_zero(self, a):
        entry = entry_markov_hurwitz(a)
        assert abs(entry.term(1) / entry.term(0)) > Q(1, 4)
        report = evaluate(entry, terms_needed(entry, 20), digits=20)
        assert report.digits_proven == 20
        direct = evaluate(entry_direct("hurwitz3", a), 600)
        assert report.enclosure.lower <= direct.enclosure.upper
        assert direct.enclosure.lower <= report.enclosure.upper


def proven(entry, digits=40) -> Enclosure:
    report = evaluate(entry, terms_needed(entry, digits), digits=digits)
    assert report.digits_proven >= digits, entry.constant
    return report.enclosure


def hurwitz_zeta(a) -> Enclosure:
    return proven(entry_markov_hurwitz(a))


def residual(terms, constant=0) -> Enclosure:
    """The enclosure of constant + sum of c * x over the (c, enclosure of x) terms."""
    lower = upper = Q(constant)
    for c, x in terms:
        lower += min(c * x.lower, c * x.upper)
        upper += max(c * x.lower, c * x.upper)
    return Enclosure(lower, upper)


def assert_identity(terms, constant=0):
    enclosure = residual(terms, constant)
    assert contains(enclosure, 0) and enclosure.width < Q(1, 10 ** 37), enclosure


class TestHurwitzIdentities:
    """The values certified at a rung above 1/4, against identities of zeta(3, a)
    whose other side is computed at rate 1/4 or by the apery series."""

    @pytest.mark.parametrize("a", sorted(HURWITZ_RUNG_FROM))
    def test_shift(self, a):
        # zeta(3, a) - zeta(3, a + 1) = a^-3
        assert_identity([(1, hurwitz_zeta(a)), (-1, hurwitz_zeta(a + 1))], -a ** -3)

    def test_multiplication_formula(self):
        # sum_{k<m} zeta(3, a + k/m) = m^3 zeta(3, m a) at a = 1/m, m = 3 and 4
        zeta3 = proven(entry_apery())
        assert_identity([(1, hurwitz_zeta(Q(1, 3))), (1, hurwitz_zeta(Q(2, 3))), (-26, zeta3)])
        assert_identity([(1, hurwitz_zeta(Q(1, 4))), (1, hurwitz_zeta(Q(1, 2))),
                         (1, hurwitz_zeta(Q(3, 4))), (-63, zeta3)])

    @pytest.mark.parametrize("a", [Q(-301, 2), Q(-299, 2)])
    def test_shift_far_below_zero(self, a):
        # the rate certificate of either side holds only from n = 1958 or later
        left, right = (proven(entry_markov_hurwitz(b), digits=20) for b in (a, a + 1))
        enclosure = residual([(1, left), (-1, right)], -a ** -3)
        assert contains(enclosure, 0) and enclosure.width < Q(1, 10 ** 19), enclosure

    def test_negative_a(self):
        # zeta(3, -1/2) = -8 + zeta(3, 1/2) = 7 zeta(3) - 8
        assert_identity([(1, hurwitz_zeta(Q(-1, 2))), (-7, proven(entry_apery()))], 8)
        # zeta(3, -7/3) = (-7/3)^-3 + (-4/3)^-3 + (-1/3)^-3 + zeta(3, 2/3)
        shifts = sum((Q(-7, 3) + k) ** -3 for k in range(3))
        assert_identity([(1, hurwitz_zeta(Q(-7, 3))), (-1, hurwitz_zeta(Q(2, 3)))], -shifts)


#: case -> (entry builder, top digits): the geometric registry entries, the
#: source q-series at every sample tuple to the 20 digits the benchmark asks
#: (its integers grow like q^(-n^2)), and markov-hurwitz at negative a
SEARCH_CASES = {
    **{entry_id: (lambda entry_id=entry_id: get_entry(entry_id), 60)
       for entry_id in GEOMETRIC_IDS},
    **{f"qsh-{i}": (lambda params=params: entry_phi32_series(*params), 20)
       for i, params in enumerate(SAMPLE_TUPLES)},
    "markov-hurwitz(-1/2)": (lambda: entry_markov_hurwitz(Q(-1, 2)), 60),
    "markov-hurwitz(-7/3)": (lambda: entry_markov_hurwitz(Q(-7, 3)), 60),
}


class TestSinglePassTermsNeeded:
    @pytest.mark.parametrize("rounding", [ROUND_TRUNCATE, ROUND_HALF_EVEN])
    @pytest.mark.parametrize("entry_id", sorted(SEARCH_CASES))
    def test_equals_quadratic_search(self, entry_id, rounding):
        build, max_digits = SEARCH_CASES[entry_id]
        entry = build()
        assert [terms_needed(entry, digits, rounding) for digits in range(1, max_digits + 1)] \
            == scanned_terms_needed(entry, max_digits, rounding)

    def test_late_rate_is_certified_where_it_holds(self):
        # 1001/(2n+2) tends to 0; the first rung, 1/8, holds exactly from n = 4003 on
        entry = FormulaEntry(
            "late-rate", "other", "ratio 1/8 only from n = 4003",
            TermSequence(1, RationalFunction(poly(1001), poly(2, 2))))
        assert entry.ratio_bound == RatioBound(Q(1, 8), 4003)
        assert entry.terms.ratio(4002) > Q(1, 8) >= entry.terms.ratio(4003)
        assert evaluate(entry, terms_needed(entry, 20), digits=20).digits_proven == 20

    @pytest.mark.parametrize("rounding", [ROUND_TRUNCATE, ROUND_HALF_EVEN])
    def test_zeta3_formulas_agree_at_1000_digits(self, rounding):
        renderings = {entry_id: evaluate(entry, terms_needed(entry, 1000, rounding),
                                         digits=1000, rounding=rounding).rendering
                      for entry_id, entry in (("apery", entry_apery()),
                                              ("ratio27-zeta3", entry_ratio27_zeta3()),
                                              ("az-zeta3", entry_az_zeta3()))}
        assert all(r.digits_proven == 1000 for r in renderings.values())
        assert len({str(r) for r in renderings.values()}) == 1, renderings


# ---------------------------------------------------------------------------
# One description per entry: the remaining eight entries and the derived fields
# ---------------------------------------------------------------------------

#: entry -> closed form of its terms, the oracle of its recurrence
DIRECT_ORACLES = {
    "zeta3-direct": lambda n: Q(1, n ** 3),
    "zeta2-direct": lambda n: Q(1, n * n),
    "eta2-direct": lambda n: Q((-1) ** (n - 1), n * n),
    "eta3-direct": lambda n: Q((-1) ** (n - 1), n ** 3),
    "hurwitz3-direct": lambda n: 1 / (1 + Q(n)) ** 3,
    "kummer": lambda n: (rising_factorial(Q(9, 2), n) / rising_factorial(5, n)) ** 3,
}

#: (alternating, remainder_nonneg, Leibniz start, valid_from) as hand-set
#: before these fields were derived from the term ratio
HAND_SET = {
    "apery": (True, False, 1, 1),
    "az-zeta3": (True, False, 0, 0),
    "eta2-direct": (True, False, 1, None),
    "eta3-direct": (True, False, 1, None),
    "hurwitz3-direct": (False, True, None, None),
    "kummer": (False, True, None, None),
    "markov-hurwitz": (True, False, 0, 0),
    "ratio27-zeta3": (True, False, 1, 1),
    "schellbach-zeta2": (False, True, None, 0),
    "zeta2-27": (True, False, 1, 1),
    "zeta2-direct": (False, True, None, None),
    "zeta3-direct": (False, True, None, None),
}
Q_SOURCE_HAND_SET = (False, True, None, 0)
Q_TRANSFORMED_HAND_SET = (False, True, None, None)


def derived(entry):
    valid_from = entry.ratio_bound.valid_from if entry.ratio_bound else None
    return (entry.alternating, entry.remainder_nonneg, entry.leibniz_from, valid_from)


class TestDescriptions:
    @pytest.mark.parametrize("entry_id", sorted(DIRECT_ORACLES))
    def test_terms_equal_oracle(self, entry_id):
        entry = get_entry(entry_id)
        oracle = DIRECT_ORACLES[entry_id]
        assert all(entry.term(n) == oracle(n) for n in range(entry.n0, entry.n0 + 301))

    @pytest.mark.parametrize("a", [Q(1, 2), Q(5, 7), Q(3), Q(11, 4)])
    def test_hurwitz_direct_terms(self, a):
        entry = entry_direct("hurwitz3", a)
        assert all(entry.term(n) == 1 / (a + n) ** 3 for n in range(301))

    @pytest.mark.parametrize("params", SAMPLE_TUPLES)
    def test_q_sides_equal_closed_forms(self, params):
        engine = ThreePhiTwo(*params)
        source, transformed = entry_phi32_series(*params), entry_phi32_transformed(*params)
        assert all(source.term(z) == engine.f(0, z) for z in range(61))
        assert all(transformed.term(x) == engine.v0(x) for x in range(61))

    def test_registry_fields_equal_hand_set_ones(self):
        assert {entry_id: derived(get_entry(entry_id)) for entry_id in catalog.REGISTRY} \
            == HAND_SET

    def test_hurwitz_fields_equal_hand_set_ones(self):
        for a in HURWITZ_VALUES:
            start = HURWITZ_RUNG_FROM.get(a, 1 if a in (Q(2, 5), Q(5, 12)) else 0)
            assert derived(entry_markov_hurwitz(a)) == (True, False, start, start), a

    @pytest.mark.parametrize("params", SAMPLE_TUPLES)
    def test_q_fields_equal_hand_set_ones(self, params):
        assert derived(entry_phi32_series(*params)) == Q_SOURCE_HAND_SET
        assert derived(entry_phi32_transformed(*params)) == Q_TRANSFORMED_HAND_SET

    def test_eta_rate_one_certifies_the_decrease(self):
        # |ratio| = 1 - c/n + O(n^-2), c = 2 and 3: the terms tend to 0 (Raabe)
        for kind in ("eta2", "eta3"):
            entry = entry_direct(kind)
            assert entry.asymptotic_ratio == 1 and entry.ratio_bound is None
            assert entry.leibniz_from == entry.n0

    @pytest.mark.parametrize("ratio, base", [
        (RationalFunction(poly(0, -2, -1), poly(1, 2, 1)), None),  # 1 - 1/(n+1)^2
        (RationalFunction(poly(-1), poly(1)), None),
        (RationalFunction(poly(-1), poly(1)), Q(1, 2)),
    ], ids=["n-series-1/n^2", "n-series-constant", "y-series"])
    def test_rate_one_without_vanishing_terms_gets_no_bracket(self, ratio, base):
        # the alternating terms keep a nonzero magnitude, 10^-8/2 or 10^-8,
        # so the series diverges and no digit may be reported
        entry = FormulaEntry("div", "div", "", TermSequence(Q(1, 10 ** 8), ratio, 1, base=base))
        assert entry.alternating and entry.asymptotic_ratio == 1
        assert entry.leibniz_from is None and entry.ratio_bound is None
        report = evaluate(entry, 1000, digits=12)
        assert (report.enclosure, report.digits_proven) == (None, 0)

    @pytest.mark.parametrize("params", [
        (Q(1, 3), Q(1, 5), Q(1, 7), Q(1, 11), Q(2)),  # q = 2
        (Q(1, 3), Q(1, 5), Q(3), Q(5), Q(1, 2)),  # t = 450
        (Q(1), Q(1), Q(1), Q(1), Q(1, 2)),  # t = 2
        (Q(1, 2), Q(1, 2), Q(-100), Q(1, 10), Q(1, 2)),  # t = -80
    ], ids=["q=2", "t=450", "t=2", "t=-80"])
    def test_q_sides_refuse_a_divergent_source(self, params):
        # the engine takes any nonzero tuple; the catalog sums only where the
        # source series converges.  At t = -80 the transformed side's own
        # conditions hold, and its series converges, to another value
        ThreePhiTwo(*params)
        for build in (entry_phi32_series, entry_phi32_transformed):
            with pytest.raises(CatalogError, match=r"0 < q < 1 and \|t\| < 1"):
                build(*params)

    def test_source_outside_the_ordered_regime(self):
        # c = 1/20 <= a but d = 7/10 > b = 1/2: refused before the rate-t
        # certificate replaced the ordering conditions
        params = (Q(3, 4), Q(1, 2), Q(1, 20), Q(7, 10), Q(9, 10))
        entry = entry_phi32_series(*params)
        assert entry.ratio_bound == RatioBound(ThreePhiTwo(*params).t, 0)
        report = evaluate(entry, terms_needed(entry, 20), digits=20)
        assert report.digits_proven == 20
        pair = ThreePhiTwo(*params).pair()
        assert contains(report.enclosure, sum(pair.v(x, 0) for x in range(60)))

    def test_halved_contraction_is_refused(self, monkeypatch):
        # small c, d and t: term(x+1)/(q^(2x) term(x)) tends to cd/q > K/2
        params = (Q(1, 2), Q(1, 2), Q(1, 100), Q(1, 100), Q(1, 2))
        entry_phi32_transformed(*params)
        contraction = catalog._contraction
        monkeypatch.setattr(catalog, "_contraction", lambda *args: contraction(*args) / 2)
        with pytest.raises(CatalogError, match="is not certified"):
            entry_phi32_transformed(*params)


class TestPrefixSums:
    def test_any_order_of_requests(self):
        entry = entry_apery()
        closed = catalog.CLOSED_FORMS["apery"]
        for last in (5, 40, 12, 40, 41, 1, 90):
            assert entry.terms.partial_sum(last) == sum(closed(n) for n in range(1, last + 1))

    def test_evaluate_after_terms_needed_steps_no_further(self, monkeypatch):
        entry = entry_az_zeta3()
        n = terms_needed(entry, 40)
        span = entry.terms.span
        calls = []
        monkeypatch.setattr(entry.terms, "span", lambda m, k: calls.append((m, k)) or span(m, k))
        report = evaluate(entry, n, digits=40)
        assert calls == []
        assert report.enclosure == evaluate(entry_az_zeta3(), n, digits=40).enclosure


def integer_ratio(entry) -> bool:
    ratio = entry.terms.ratio
    return all(type(c) is int for c in ratio.num + ratio.den)


class TestIntegerDescription:
    @pytest.mark.parametrize("entry_id", sorted(catalog.REGISTRY))
    def test_registry_ratios_are_integer_polynomials(self, entry_id):
        assert integer_ratio(get_entry(entry_id))

    def test_hurwitz_sweep_ratios_are_integer_polynomials(self):
        assert len(HURWITZ_VALUES) == 91
        assert all(integer_ratio(entry_markov_hurwitz(a)) for a in HURWITZ_VALUES)

    @pytest.mark.parametrize("params", SAMPLE_TUPLES)
    def test_q_side_ratios_are_integer_polynomials(self, params):
        assert integer_ratio(entry_phi32_series(*params))
        assert integer_ratio(entry_phi32_transformed(*params))

    def test_values_are_fractions(self):
        entry = get_entry("zeta3-direct")  # term(1) = 1, ratio n^3/(n+1)^3
        assert type(entry.terms.ratio(1)) is Q and entry.terms.ratio(1) == Q(1, 8)
        assert type(entry.term(1)) is Q and type(entry.terms.partial_sum(1)) is Q
        assert entry.terms.partial_sum(2) == Q(9, 8)

    def test_a_step_equal_to_the_rate_passes(self):
        # every step is exactly -1/2, so the rate 1/2 holds with equality
        entry = FormulaEntry("halving", "other", "sum of (-1/2)^n",
                             TermSequence(1, RationalFunction(poly(-1), poly(2))))
        assert entry.alternating and entry.ratio_bound == RatioBound(Q(1, 2), 0)
        assert contains(evaluate(entry, terms_needed(entry, 20), digits=20).enclosure, Q(2, 3))

    def test_a_zero_step_on_an_alternating_entry_fails(self):
        # -(n-3)^2/(4(n+1)^2) is certified <= 0 and below 1/4 in magnitude from
        # n = 1, with equality there, but it vanishes at n = 3
        ratio = RationalFunction(poly(-9, 6, -1), poly(4, 8, 4))
        with pytest.raises(CatalogError, match=r"terms do not alternate at n=3\b"):
            FormulaEntry("bogus", "other", "zero step at n = 3", TermSequence(1, ratio))

    def test_a_denominator_vanishing_past_the_first_steps_is_refused(self):
        # 1/((n-100)^2 ((n-200)^2 + 1)) keeps its sign and is below 1/8 from
        # n = 101, but it is undefined at n = 100
        ratio = RationalFunction(poly(1), poly_mul(poly(10000, -200, 1), poly(40001, -400, 1)))
        with pytest.raises(CatalogError, match=r"ratio undefined at n=100: its denominator "
                                               r"vanishes$"):
            FormulaEntry("bogus", "other", "pole at n = 100", TermSequence(1, ratio))

    def test_the_denominator_is_named_where_both_vanish(self):
        # -(n-3)^2/((n-3)^2 (4n+4)): alternating, but p and q both vanish at n = 3
        ratio = RationalFunction(poly(-9, 6, -1), poly_mul(poly(9, -6, 1), poly(4, 4)))
        with pytest.raises(CatalogError, match=r"ratio undefined at n=3: its denominator"):
            FormulaEntry("bogus", "other", "zero step at n = 3", TermSequence(1, ratio))

    def test_a_vanishing_numerator_on_a_one_sign_entry_passes(self):
        # (n-3)^2/(4(n+1)^2) >= 0: term(4) and every later term are 0
        ratio = RationalFunction(poly(9, -6, 1), poly(4, 8, 4))
        entry = FormulaEntry("finite", "other", "zero step at n = 3", TermSequence(1, ratio))
        assert entry.remainder_nonneg and entry.ratio_bound == RatioBound(Q(1, 4), 1)
        assert evaluate(entry, 5).enclosure == Enclosure(Q(245, 64), Q(245, 64))

    def test_a_sign_only_the_whole_numerator_shows_is_accepted(self):
        # (n - 1)(n^2 - 2) >= 0 at every n >= 0, though n^2 - 2 is negative at 0 and 1
        ratio = polys.integer_ratio(1, [poly(-1, 1), poly(-2, 0, 1)],
                                    [poly(2, 2), poly(2, 1), poly(3, 1)])
        for described in (ratio, RationalFunction(ratio.num, ratio.den)):
            entry = FormulaEntry("whole", "other", "", TermSequence(1, described))
            assert entry.ratio_bound == RatioBound(Q(1, 2), 0)

    @pytest.mark.parametrize("n0, refused", [(0, True), (1, False)])
    def test_a_q_series_denominator_vanishes_only_at_y_one(self, n0, refused):
        # 1/(2 - 2y), y = (1/2)^n: a zero at y = 1, which is n = 0
        def build():
            return FormulaEntry("bogus", "other", "pole at y = 1",
                                TermSequence(1, RationalFunction(poly(1), poly(2, -2)), n0,
                                             base=Q(1, 2)),
                                majorant=RationalFunction(poly(3), poly(1)))
        if refused:
            with pytest.raises(CatalogError, match=r"ratio undefined at n=0: its denominator"):
                build()
        else:
            assert build().remainder_nonneg


#: the nine a at which the benchmark's hurwitz-sweep samples hurwitz3-direct (seed 0)
DIRECT_SAMPLED = [Q(7, 4), Q(7, 9), Q(1, 6), Q(5, 2), Q(9, 4), Q(8, 11), Q(7, 6), Q(5, 8),
                  Q(8, 9)]
NEGATIVE_AND_EXTRA = [Q(-1, 2), Q(-7, 3), Q(-101, 2), Q(7, 2), Q(12, 7)]


def same_description(entry, oracle_ratio) -> bool:
    """The entry's ratio has the oracle's integers, and an entry built on the
    oracle's ratio derives the same signs and bounds."""
    ratio = entry.terms.ratio
    rebuilt = FormulaEntry(entry.entry_id, entry.constant, entry.description,
                           TermSequence(entry.term(entry.n0), oracle_ratio, entry.n0),
                           majorant=entry.majorant)
    return (ratio.num, ratio.den) == (oracle_ratio.num, oracle_ratio.den) \
        and derived(rebuilt) == derived(entry) and rebuilt.ratio_bound == entry.ratio_bound


class TestCanonicalIntegers:
    def test_canonical_form_is_independent_of_the_route(self):
        # (n + 1/2)/(2n + 3) as halves, as integers, and as a multiple of 6
        routes = (RationalFunction(poly(Q(1, 2), 1), poly(3, 2)),
                  RationalFunction(poly(1, 2), poly(6, 4)),
                  RationalFunction(poly(6, 12), poly(36, 24)))
        assert {(tuple(r.num), tuple(r.den)) for r in routes} == {((1, 2), (6, 4))}
        assert RationalFunction(poly(-2, 4), poly(6)).num == [-1, 2]  # the sign stays

    @pytest.mark.parametrize("a", HURWITZ_VALUES + NEGATIVE_AND_EXTRA, ids=str)
    def test_markov_hurwitz_equals_the_fraction_construction(self, a):
        assert same_description(entry_markov_hurwitz(a), markov_hurwitz_ratio(a))

    @pytest.mark.parametrize("a", DIRECT_SAMPLED, ids=str)
    def test_hurwitz3_direct_equals_the_fraction_construction(self, a):
        assert same_description(entry_direct("hurwitz3", a), hurwitz3_ratio(a))


class TestClaims:
    """Every derived claim holds on the first 200 steps, read one by one."""

    @pytest.mark.parametrize("entry_id", sorted(catalog.REGISTRY))
    def test_registry(self, entry_id):
        assert claims_failure(get_entry(entry_id)) is None

    def test_hurwitz_values(self):
        for a in HURWITZ_VALUES + NEGATIVE_AND_EXTRA:
            assert claims_failure(entry_markov_hurwitz(a)) is None, a

    @pytest.mark.parametrize("params", SAMPLE_TUPLES)
    def test_q_sides(self, params):
        assert claims_failure(entry_phi32_series(*params)) is None
        assert claims_failure(entry_phi32_transformed(*params)) is None


# ---------------------------------------------------------------------------
# The spanned search and the integer enclosures against the linear pass
# ---------------------------------------------------------------------------

ORACLE_DIGITS = (*range(1, 61), 100, 150, 1000)
SWEEP_DIGITS = (1, 2, 3, 5, 10, 20, 33, 60)


def assert_same_n(build, digit_counts):
    """terms_needed on one shared entry, whose kept states move from count to
    count, equals the linear pass on a fresh entry, in both roundings."""
    shared = build()
    for rounding in (ROUND_TRUNCATE, ROUND_HALF_EVEN):
        for digits in digit_counts:
            assert terms_needed(shared, digits, rounding) == \
                linear_terms_needed(build(), digits, rounding), (digits, rounding)


class TestSearchEqualsLinearPass:
    @pytest.mark.parametrize("entry_id", GEOMETRIC_IDS)
    def test_registry_entries(self, entry_id):
        assert_same_n(lambda: get_entry(entry_id), ORACLE_DIGITS)

    @pytest.mark.parametrize("entry_id", sorted(catalog.REGISTRY) + ["qsh", "transformed"])
    def test_enclosures_equal_the_fraction_bounds(self, entry_id):
        q_sides = {"qsh": entry_phi32_series, "transformed": entry_phi32_transformed}

        def build():
            return q_sides[entry_id](*CANONICAL) if entry_id in q_sides else get_entry(entry_id)

        entry, fresh = build(), build()
        for n in (1, 2, 5, 40, 120):
            last = entry.n0 + n - 1
            oracle = fraction_enclosure(fresh, fresh.offset + fresh.terms.partial_sum(last), last)
            report = evaluate(entry, n)
            if oracle is None:
                assert report.enclosure is None
                continue
            assert report.enclosure == oracle
            assert (report.enclosure.lower, report.enclosure.upper, report.enclosure.width) \
                == (oracle.lower, oracle.upper, oracle.width)

    def test_hurwitz_sweep_values(self):
        for a in HURWITZ_VALUES:
            assert_same_n(lambda: entry_markov_hurwitz(a), SWEEP_DIGITS)

    @pytest.mark.parametrize("a", [Q(-1, 2), Q(-7, 3), Q(-51, 2), Q(-101, 2)], ids=str)
    def test_negative_hurwitz_values(self, a):
        assert_same_n(lambda: entry_markov_hurwitz(a), ORACLE_DIGITS)

    @pytest.mark.parametrize("params", SAMPLE_TUPLES)
    def test_source_q_series(self, params):
        # a q-series state grows quadratically in the index, so fewer digits
        assert_same_n(lambda: entry_phi32_series(*params), range(1, 26))

    def test_n_cap_is_kept(self):
        for search in (terms_needed, linear_terms_needed):
            with pytest.raises(CatalogError, match="not reached within 42 terms"):
                search(entry_apery(), 30, n_cap=42)
            assert search(entry_apery(), 30, n_cap=43) == 43


class TestIntegerEnclosures:
    @pytest.mark.parametrize("entry_id", sorted(catalog.REGISTRY))
    def test_widths_formed_from_the_terms_equal_the_bounds(self, entry_id):
        entry = get_entry(entry_id)
        for n in (1, 2, 7, 40):
            enclosure = evaluate(entry, n).enclosure
            if enclosure is not None:
                assert enclosure.width == enclosure.upper - enclosure.lower, n

    def test_a_term_past_the_gcd_limit_is_reduced_on_the_product_tree(self, monkeypatch):
        monkeypatch.setattr(hgterm, "REDUCE_BITS", 1 << 10)
        for entry, n in ((entry_apery(), 1200), (entry_phi32_series(*CANONICAL), 100),
                         (entry_markov_hurwitz(Q(-51, 2)), 400)):
            a, b, _ = entry.terms.state(n)
            assert b.bit_length() > hgterm.REDUCE_BITS
            assert entry.term(n) == Q(a, b)
        assert entry_apery().term(1200) == catalog.apery_term(1200)


def seeded_pair_tuples(count: int = 5) -> list:
    """The first seed-0 tuples with |t| < 1, the regime of the 3phi2 pair."""
    def converges(params):
        a, b, c, d, q = params
        return abs(c * d / (a * b * q)) < 1
    return list(itertools.islice(filter(converges, sample_parameter_tuples(10 ** 6, 0)), count))


def phi32_oracle_ratios(engine) -> dict:
    """Each q-series builder's term ratio built on Fraction coefficients; the
    transformed ratio is y^2 h(y)."""
    h = phi32_transformed_h(engine)
    return {entry_phi32_series: phi32_series_ratio(engine),
            entry_phi32_transformed: RationalFunction(poly_mul(poly(0, 0, 1), h.num), h.den)}


#: the signed sweep: a, b, c, d from SIGNED_VALUES, q from SIGNED_BASES
SIGNED_VALUES = (Q(-1, 3), Q(1, 5), Q(2, 3))
SIGNED_BASES = (Q(1, 2), Q(9, 10))


class TestIntegerBuilders:
    @pytest.mark.parametrize("params", list(SAMPLE_TUPLES) + seeded_pair_tuples())
    def test_q_sides_equal_the_fraction_construction(self, params):
        engine = ThreePhiTwo(*params)
        oracles = phi32_oracle_ratios(engine)
        for build, derived in ((entry_phi32_series, engine.source_ratio()),
                               (entry_phi32_transformed, engine.transformed_ratio())):
            oracle = oracles[build]
            assert (derived.num, derived.den) == (oracle.num, oracle.den)
            try:
                ratio = build(*params).terms.ratio
            except CatalogError:
                continue
            assert (ratio.num, ratio.den) == (oracle.num, oracle.den)

    @pytest.mark.parametrize("params", SAMPLE_TUPLES)
    def test_transformed_terms_are_the_pair_row_series(self, params):
        entry, pair = entry_phi32_transformed(*params), ThreePhiTwo(*params).pair()
        assert all(entry.term(x) == pair.v(x, 0) for x in range(61))

    def test_signed_sweep_accepts_the_oracle_ratios(self):
        accepted = {entry_phi32_series: 0, entry_phi32_transformed: 0}
        for params in itertools.product(*[SIGNED_VALUES] * 4, SIGNED_BASES):
            for build in accepted:
                try:
                    entry = build(*params)
                except ValueError:
                    continue
                engine = ThreePhiTwo(*params)
                oracle = phi32_oracle_ratios(engine)[build]
                assert (entry.terms.ratio.num, entry.terms.ratio.den) \
                    == (oracle.num, oracle.den), params
                first = engine.v0(0) if build is entry_phi32_transformed else 1
                assert entry.term(0) == first, params
                accepted[build] += 1
        # the transformed side's conditions also hold at two tuples with c or d
        # = -1/3, where K < 0 and the terms alternate: its majorant certifies
        # nothing there, and they are refused
        assert list(accepted.values()) == [38, 1]

    def test_transformed_ratio_without_its_y2_factor_is_refused(self, monkeypatch):
        # y + y^2 exceeds K y^2 near y = 0: the majorant's certificate has lowest term -y
        monkeypatch.setattr(ThreePhiTwo, "transformed_ratio",
                            lambda self: RationalFunction([0, 1, 1], [1]))
        with pytest.raises(CatalogError, match="is not certified"):
            entry_phi32_transformed(*SAMPLE_TUPLES[0])

    def test_schellbach_equals_the_fraction_construction(self):
        for params in (catalog.ZETA2_SCHELLBACH,
                       catalog.SchellbachParams(Q(1, 2), Q(1, 3), Q(2), Q(5, 2))):
            built, oracle = params.transformed_ratio(), schellbach_ratio(params)
            assert (built.num, built.den) == (oracle.num, oracle.den)


# ---------------------------------------------------------------------------
# Steps in lowest terms
# ---------------------------------------------------------------------------

#: markov-hurwitz below zero, where the denominator's n + 1 + a changes sign
NEGATIVE_A = [Q(-1, 2), Q(-7, 3), Q(-5, 3), Q(-101, 2), Q(-2399, 2)]
SCHELLBACH_TUPLES = [catalog.SchellbachParams(*map(Q, params)) for params in (
    (1, 1, 2, 2), (Q(1, 3), Q(1, 5), Q(7, 2), Q(11, 3)), (Q(1, 2), Q(1, 2), Q(3, 2), Q(5, 2)),
    (1, 2, 3, 4))]


def _degrees(ratio) -> tuple[int, int]:
    return tuple(max((i for i, c in enumerate(p) if c), default=0) for p in (ratio.num, ratio.den))


def _claims(build) -> tuple:
    """What registration derives from a description, or its refusal."""
    try:
        entry = build()
    except CatalogError as error:
        return str(error)
    return (entry.alternating, entry.remainder_nonneg, entry.leibniz_from, entry.ratio_bound,
            entry.asymptotic_ratio)


class TestLowestTermsSteps:
    @pytest.mark.parametrize("entry_id, described, stepped", [
        ("markov-hurwitz", (8, 8), (3, 3)), ("schellbach-zeta2", (6, 6), (2, 2)),
        ("az-zeta3", (12, 12), (7, 7)), ("apery", (3, 3), (3, 3)),
        ("ratio27-zeta3", (7, 7), (7, 7)), ("zeta2-27", (7, 7), (7, 7))])
    def test_stepped_degrees(self, entry_id, described, stepped):
        terms = get_entry(entry_id).terms
        assert (_degrees(terms.ratio), _degrees(terms.stepped)) == (described, stepped)

    def test_hurwitz_at_one_steps_aperys_ratio_shifted_by_one(self):
        apery, stepped = entry_apery().terms.ratio, entry_markov_hurwitz(1).terms.stepped
        assert (stepped.num, stepped.den) == (poly_shift(apery.num, 1), poly_shift(apery.den, 1))

    def test_registration_derives_the_same_claims_from_either_pair(self, monkeypatch):
        builds = [lambda entry_id=entry_id: get_entry(entry_id) for entry_id in catalog.REGISTRY]
        builds += [lambda a=a: entry_markov_hurwitz(a)
                   for a in HURWITZ_VALUES + [Q(-1, 2), Q(-7, 3), Q(-101, 2), Q(-2399, 2), Q(0)]]
        builds += [lambda params=params, side=side: side(*params) for params in SAMPLE_TUPLES
                   for side in (entry_phi32_series, entry_phi32_transformed)]
        stepped = [_claims(build) for build in builds]
        monkeypatch.setattr(RationalFunction, "cancelled", lambda self, n0: self)
        terms = get_entry("markov-hurwitz").terms
        assert terms.stepped is terms.ratio
        assert stepped == [_claims(build) for build in builds]

    def test_stepped_pair_equals_the_gcd_oracle(self):
        # the oracle cancels the whole gcd of the multiplied-out pair where it
        # is certified positive from n0; the factors give the same integers
        sequences = [get_entry(entry_id).terms for entry_id in catalog.REGISTRY]
        sequences += [entry_markov_hurwitz(a).terms for a in HURWITZ_VALUES + NEGATIVE_A]
        sequences += [TermSequence(params.m(0, 0), params.transformed_ratio())
                      for params in SCHELLBACH_TUPLES]
        for terms in sequences:
            assert terms.base is None
            stepped = terms.stepped
            assert (stepped.num, stepped.den) == lowest_terms(terms.ratio, terms.n0)

    def test_far_negative_hurwitz_builds_without_a_sign_walk(self, monkeypatch):
        # signs and zero steps are read off the factors' roots, and only the
        # rate's margin is walked; a sign walk over the denominator's gap
        # points, about 0.7 |a| of them, made 1 400 006 evaluations here
        calls = []

        def counted(p, x):
            calls.append(x)
            return poly_eval(p, x)

        monkeypatch.setattr(polys, "poly_eval", counted)
        monkeypatch.setattr(catalog, "poly_eval", counted)
        entry = entry_markov_hurwitz(Q(-2000001, 2))
        assert entry.alternating and len(calls) < 1000

    def test_transformed_side_whose_ratio_shares_a_factor_in_y(self):
        # the ratio shares y - 3, negative on (0, 1]: a q-series steps its
        # described pair, and every state keeps a positive denominator
        entry, fresh = (entry_phi32_transformed(*SAMPLE_TUPLES[3]) for _ in range(2))
        ratio = entry.terms.ratio
        assert gcd_cofactors(ratio.num, ratio.den)[0] == [-3, 1]
        assert entry.terms.stepped is ratio
        for n in (1, 2, 5, 40):
            last = n - 1
            assert entry.terms.state(last + 1)[1] > 0
            oracle = fraction_enclosure(fresh, fresh.terms.partial_sum(last), last)
            assert evaluate(entry, n).enclosure == oracle
        assert evaluate(entry, 40, digits=20).digits_proven == 20


# ---------------------------------------------------------------------------
# Tail majorants against the bounds they replaced
# ---------------------------------------------------------------------------

#: case -> (entry builder, the integral-comparison tail it used before its majorant)
DIRECT_TAILS = {
    "zeta2-direct": (lambda: entry_direct("zeta2"), lambda last: zeta_direct_tail(2, last)),
    "zeta3-direct": (lambda: entry_direct("zeta3"), lambda last: zeta_direct_tail(3, last)),
    **{f"hurwitz3-direct({a})": (lambda a=a: entry_direct("hurwitz3", a),
                                 lambda last, a=a: hurwitz3_direct_tail(a, last))
       for a in DIRECT_SAMPLED + [Q(1, 2), Q(1)]},
}


def remainder_bound(entry, last: int) -> tuple[int, int]:
    """The bound the enclosure after ``last`` puts on a nonnegative remainder,
    as the integers (high - low, den): no gcd of the state's integers."""
    assert entry.remainder_nonneg
    enclosure = entry.enclosure_after(last)
    return enclosure.high - enclosure.low, enclosure.den


class TestTailMajorants:
    @pytest.mark.parametrize("case", sorted(DIRECT_TAILS))
    def test_direct_bounds_equal_the_integral_tails(self, case):
        build, oracle = DIRECT_TAILS[case]
        entry = build()
        for last in range(entry.n0, 301):
            width, den = remainder_bound(entry, last)
            bound = oracle(last)
            assert width * bound.denominator == bound.numerator * den, last

    @pytest.mark.parametrize("params", SAMPLE_TUPLES)
    def test_transformed_bound_equals_the_one_term_plus_geometric_tail(self, params):
        entry, engine = entry_phi32_transformed(*params), ThreePhiTwo(*params)
        (r, start), q = entry.tail, engine.q
        for last in range(301):
            factor = transformed_tail_factor(engine, last)
            assert (last + 1 >= start) == (factor is not None), last
            if factor is not None:
                assert r(q ** (last + 1)) == factor, last
            if last > 60:  # the enclosures themselves where their integers stay small
                continue
            if factor is None:
                assert entry.enclosure_after(last) is None, last
                continue
            # width = |term(last+1)| factor, term(last+1) = a1/b1
            a1, b1, _ = entry.terms.state(last + 1)
            width, den = remainder_bound(entry, last)
            assert width * b1 * factor.denominator == den * abs(a1) * factor.numerator, last

    def test_kummer_bound_is_below_the_integral_tail(self):
        entry = entry_kummer()
        assert (entry.tail[0].num, entry.tail[0].den, entry.tail[1]) == ([10, 2], [1], 0)
        for last in range(2001):
            width, den = remainder_bound(entry, last)
            bound = kummer_tail(last)
            assert width * bound.denominator <= bound.numerator * den, last

    def test_the_transformed_certificate_starts_where_k_q_2m_falls_below_one(self):
        # the sample tuples, then the seeded draws the transformed side accepts
        starts = []
        for params in itertools.chain(SAMPLE_TUPLES, sample_parameter_tuples(10 ** 6, 0)):
            try:
                entry = entry_phi32_transformed(*params)
            except CatalogError as error:
                assert "is not certified" not in str(error), params
                continue
            engine = ThreePhiTwo(*params)
            first = next(m for m in itertools.count()
                         if transformed_tail_factor(engine, m - 1) is not None)
            starts.append((params, entry.tail[1], first))
            if len(starts) == 32:
                break
        assert all(start == first for _, start, first in starts), starts

    def test_geometric_entries_bound_by_the_constant_majorant(self):
        for entry_id in GEOMETRIC_IDS:
            entry = get_entry(entry_id)
            rho, valid_from = entry.ratio_bound.rho, entry.ratio_bound.valid_from
            r, start = entry.tail
            assert entry.majorant is None and start == valid_from
            assert (r.num, r.den) == ([rho.denominator], [rho.denominator - rho.numerator])

    @pytest.mark.parametrize("build, majorant", [
        # 2n + 8: the certificate is (1 - 3m)/m^2 with m = 2n + 10
        (entry_kummer, RationalFunction(poly(8, 2), poly(1))),
        # half of n^3/(2(n-1)^2): the certificate tends to -1/2
        (lambda: entry_direct("zeta3"), RationalFunction(poly(0, 0, 0, 1), poly(4, -8, 4))),
    ], ids=["kummer", "zeta3-direct"])
    def test_a_wrong_majorant_is_refused(self, build, majorant):
        entry = build()
        with pytest.raises(CatalogError, match="is not certified"):
            FormulaEntry(entry.entry_id, entry.constant, entry.description, entry.terms,
                         majorant=majorant)

    def test_transformed_side_with_alternating_terms_is_refused(self):
        # c = -1/3 meets the side's conditions, but K < 0: r = 1/(1 - K y^2) < 1
        with pytest.raises(CatalogError, match="is not certified"):
            entry_phi32_transformed(Q(2, 3), Q(2, 3), Q(-1, 3), Q(1, 5), Q(1, 2))
