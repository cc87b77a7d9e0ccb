import random
from decimal import ROUND_05UP, ROUND_DOWN, Context, Decimal
from decimal import ROUND_HALF_EVEN as DECIMAL_HALF_EVEN
from fractions import Fraction as Q

import pytest

from markovsum.exact import (
    ROUND_HALF_EVEN,
    ROUND_TRUNCATE,
    Enclosure,
    digits_capacity,
    format_rational,
    parse_rational,
    to_decimal,
)
from support import contains


class TestNormalize:
    """parse_rational returns the canonical form of its literal."""

    def test_gcd_reduction(self):
        assert parse_rational("2/4") == Q(1, 2)

    def test_sign_normalization(self):
        x = parse_rational("-3/6")
        assert x == Q(-1, 2)
        assert x.denominator > 0

    def test_zero(self):
        x = parse_rational("0/7")
        assert (x.numerator, x.denominator) == (0, 1)

    def test_zero_denominator(self):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational("1/0")

    def test_idempotent(self):
        x = parse_rational("21/91")
        assert parse_rational(format_rational(x)) == x


class TestSerialization:
    def test_rational_round_trip(self):
        for text in ("3/4", "-7/5", "12", "-3", "0"):
            assert format_rational(parse_rational(text)) == text

    def test_5000_digit_round_trip(self):
        # past the interpreter's default 4300-digit int/str limit
        for x in (Q(10 ** 4999 + 7, 3 ** 10000), Q(-(7 ** 6000)), Q(1, 10 ** 5000)):
            text = format_rational(x)
            assert len(text) > 5000
            assert parse_rational(text) == x

    def test_ordinary_sizes_render_as_str(self):
        for x in (Q(-10 ** 4000 + 1, 3), Q(2 ** 13000 + 1), Q(5, 7)):
            assert format_rational(x) == (str(x.numerator) if x.denominator == 1
                                          else f"{x.numerator}/{x.denominator}")

    def test_rejects_decimal(self):
        with pytest.raises(ValueError):
            parse_rational("1.5")


class TestEnclosure:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            Enclosure(Q(1), Q(0))

    def test_width_and_contains(self):
        e = Enclosure(Q(1, 3), Q(1, 2))
        assert e.width == Q(1, 6)
        assert contains(e, Q(2, 5))
        assert not contains(e, Q(3, 5))

    def test_unreduced_integers_give_the_reduced_bounds(self):
        e = Enclosure.over(-6 * 7, 9 * 7, 18 * 7)  # [-1/3, 1/2] over 126
        assert (e.low, e.high, e.den) == (-42, 63, 126)
        assert (e.lower, e.upper, e.width) == (Q(-1, 3), Q(1, 2), Q(5, 6))
        assert e == Enclosure(Q(-1, 3), Q(1, 2)) and hash(e) == hash(Enclosure(Q(-1, 3), Q(1, 2)))
        assert e != Enclosure(Q(-1, 3), Q(1, 3))
        assert repr(e) == "Enclosure(lower=Fraction(-1, 3), upper=Fraction(1, 2))"

    def test_a_given_width_is_read_only_when_asked(self):
        calls = []
        e = Enclosure.over(2, 8, 12, lambda: calls.append(1) or Q(1, 2))
        r = to_decimal(e, 3)
        assert calls == [] and r.digits_proven == 0
        assert (r.width, e.width, calls) == (Q(1, 2), Q(1, 2), [1])

    def test_unreduced_rendering_equals_the_reduced_one(self):
        rng = random.Random(7)
        for _ in range(200):
            lower = Q(rng.randrange(-10 ** 9, 10 ** 9), rng.randrange(1, 10 ** 6))
            upper = lower + Q(rng.randrange(0, 10 ** 4), rng.randrange(1, 10 ** 9))
            scale = rng.randrange(1, 10 ** 12)
            den = lower.denominator * upper.denominator * scale
            e = Enclosure.over(int(lower * den), int(upper * den), den)
            for rounding in (ROUND_TRUNCATE, ROUND_HALF_EVEN):
                for k in (1, 4, 9):
                    assert to_decimal(e, k, rounding) == to_decimal(Enclosure(lower, upper), k,
                                                                     rounding)

    @pytest.mark.parametrize("low, high, den", [(1, 0, 3), (0, 1, 0), (0, 1, -2)])
    def test_unreduced_bounds_are_checked(self, low, high, den):
        with pytest.raises(ValueError):
            Enclosure.over(low, high, den)


class TestToDecimal:
    def test_third_truncated(self):
        r = to_decimal(Enclosure.point(Q(1, 3)), 5, ROUND_TRUNCATE)
        assert str(r) == "0.33333"
        assert r.digits_proven == 5

    def test_integer_point(self):
        r = to_decimal(Enclosure.point(Q(1)), 3)
        assert str(r) == "1.000"
        assert r.digits_proven == 3

    def test_wide_enclosure_reports_width(self):
        r = to_decimal(Enclosure(Q(0), Q(2)), 4)
        assert r.digits_proven == 0
        assert r.width == 2

    def test_negative_value(self):
        r = to_decimal(Enclosure.point(Q(-1, 3)), 4, ROUND_TRUNCATE)
        assert str(r) == "-0.3333"
        assert r.value() == Q(-3333, 10000)

    def test_half_even(self):
        assert str(to_decimal(Enclosure.point(Q(1, 8)), 2, ROUND_HALF_EVEN)) == "0.12"
        assert str(to_decimal(Enclosure.point(Q(3, 8)), 2, ROUND_HALF_EVEN)) == "0.38"
        assert str(to_decimal(Enclosure.point(Q(7, 8)), 2, ROUND_HALF_EVEN)) == "0.88"

    def test_partial_agreement(self):
        # [0.12341, 0.12349]: the first four digits are proven, not the fifth
        r = to_decimal(Enclosure(Q(12341, 100000), Q(12349, 100000)), 5, ROUND_TRUNCATE)
        assert r.fraction_digits == "1234"
        assert r.digits_proven == 4

    def test_zeta3_thirty_three_decimals(self):
        # an enclosure of zeta(3) of width < 1e-33 renders Markov's 33
        # decimals under nearest rounding (the printed value is rounded:
        # the true expansion continues ...44999...)
        from markovsum import catalog
        entry = catalog.entry_apery()
        n = catalog.terms_needed(entry, 33, rounding=ROUND_HALF_EVEN)
        report = catalog.evaluate(entry, n, digits=33, rounding=ROUND_HALF_EVEN)
        assert report.enclosure.width < Q(1, 10 ** 33)
        assert str(report.rendering) == "1.202056903159594285399738161511450"

    def test_requested_digits_validated(self):
        with pytest.raises(ValueError):
            to_decimal(Enclosure.point(Q(1)), 0)

    def test_monotone_under_shrinking(self):
        wide = Enclosure(Q(610, 1000), Q(640, 1000))
        narrow = Enclosure(Q(617, 1000), Q(618, 1000))
        for mode in (ROUND_TRUNCATE, ROUND_HALF_EVEN):
            assert (to_decimal(narrow, 3, mode).digits_proven
                    >= to_decimal(wide, 3, mode).digits_proven)


class TestLongRendering:
    def test_to_decimal_at_4400_digits(self):
        third = Q(1, 3)
        r = to_decimal(Enclosure(third - Q(1, 10 ** 4405), third + Q(1, 10 ** 4405)), 4400)
        assert r.digits_proven == 4400
        assert str(r) == "0." + "3" * 4400
        assert r.value() == Q(10 ** 4400 // 3, 10 ** 4400)


class TestRenderingGuarantee:
    def test_every_enclosed_point_within_one_ulp(self):
        # brute-force oracle over seeded random enclosures: the rendered
        # value must sit within 10^-digits_proven of every enclosed point
        from markovsum.markov import Lcg
        rng = Lcg(99)
        for case in range(500):
            scale = 10 ** rng.randint(1, 6)
            lo = Q(rng.randint(1, 10 ** 6), scale) - rng.randint(0, 3)
            width = Q(rng.randint(0, 10 ** 4), scale * 100)
            enclosure = Enclosure(lo, lo + width)
            digits = rng.randint(1, 12)
            mode = ROUND_TRUNCATE if case % 2 else ROUND_HALF_EVEN
            rendering = to_decimal(enclosure, digits, mode)
            if not rendering.integer_part:
                continue
            parsed = rendering.value()
            ulp = Q(1, 10 ** rendering.digits_proven)
            samples = [enclosure.lower, enclosure.upper,
                       (enclosure.lower + enclosure.upper) / 2,
                       enclosure.lower + width * Q(1, 7),
                       enclosure.lower + width * Q(6, 7)]
            for x in samples:
                assert abs(x - parsed) < ulp, (enclosure, digits, mode, x)


def decimal_digits(x, k, rounding):
    """(sign, integer part, k fraction digits) of x rounded by the stdlib decimal module.

    x is first rounded with ROUND_05UP to at least k + 2 fraction digits,
    which makes the second rounding, to k digits, exact in either mode.
    """
    integer_digits = len(str(abs(x.numerator) // x.denominator))
    context = Context(prec=integer_digits + k + 4, rounding=ROUND_05UP)
    coarse = context.divide(Decimal(x.numerator), Decimal(x.denominator))
    mode = ROUND_DOWN if rounding == ROUND_TRUNCATE else DECIMAL_HALF_EVEN
    rounded = coarse.quantize(Decimal(1).scaleb(-k), rounding=mode, context=context)
    integer, _, fraction = format(rounded.copy_abs(), "f").partition(".")
    return ("-" if rounded < 0 else "+"), integer, fraction


def random_enclosure(rng, k):
    scale = 10 ** rng.randint(0, 12)
    lower = Q(rng.randint(-10 ** 8, 10 ** 8), rng.randint(1, scale))
    kind = rng.randrange(4)
    if kind == 0:
        return Enclosure.point(lower)
    if kind == 1:  # a point on or next to a tie at k digits
        tie = Q(rng.randint(-10 ** 6, 10 ** 6) * 2 + 1, 2 * 10 ** k)
        return Enclosure.point(tie + rng.choice((-1, 0, 1)) * Q(1, 10 ** (k + 30)))
    width = Q(rng.randint(0, 10 ** 4), scale * 10 ** rng.randint(0, 8))
    return Enclosure(lower, lower + width)


class TestRenderingAgainstDecimal:
    def test_seeded_enclosures_in_both_modes(self):
        rng = random.Random(20040505)
        points = 0
        for _ in range(400):
            k = rng.randint(1, 30)
            enclosure = random_enclosure(rng, k)
            points += enclosure.width == 0
            for rounding in (ROUND_TRUNCATE, ROUND_HALF_EVEN):
                rendering = to_decimal(enclosure, k, rounding)
                low = decimal_digits(enclosure.lower, k, rounding)
                high = decimal_digits(enclosure.upper, k, rounding)
                if low[:2] != high[:2]:
                    assert (rendering.integer_part, rendering.digits_proven) == ("", 0)
                    continue
                proven = 0
                while proven < k and low[2][proven] == high[2][proven]:
                    proven += 1
                assert (rendering.sign, rendering.integer_part, rendering.fraction_digits) \
                    == (low[0], low[1], low[2][:proven]), (enclosure, k, rounding)
        assert points >= 100


class TestDigitsCapacity:
    def test_values(self):
        assert digits_capacity(Q(1, 100)) == 2
        assert digits_capacity(Q(1, 10)) == 1
        assert digits_capacity(Q(3, 10)) == 0
        assert digits_capacity(Q(1, 10 ** 33)) == 33

    def test_zero_width_capped(self):
        assert digits_capacity(Q(0), cap=50) == 50

    def test_edge_widths_match_scaling_by_ten(self):
        def scaled(width, cap):
            p, n = 0, width.numerator * 10
            while p < cap and n <= width.denominator:
                p, n = p + 1, n * 10
            return p

        widths = [Q(7, 2), Q(10), Q(1, 10 ** 5000), Q(3, 10 ** 4097),
                  Q(10 ** 4096 - 1, 10 ** 8192)]
        for k in (1, 2, 16, 17, 99, 100, 101, 1000, 4095, 4096):
            widths += [Q(1, 10 ** k + delta) for delta in (-1, 1)]
            widths += [Q(10 ** k + delta, 10 ** (2 * k)) for delta in (-1, 1)]
        for width in widths:
            for cap in (0, 50, 4096):
                assert digits_capacity(width, cap) == scaled(width, cap), (width, cap)
        assert digits_capacity(Q(1, 10 ** 5000)) == 4096
        assert digits_capacity(Q(1, 10 ** 4096 - 1)) == 4095

