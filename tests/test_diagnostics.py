from fractions import Fraction as Q
from types import SimpleNamespace

import pytest

from markovsum.hgterm import TermSequence
from markovsum.markov import ThreePhiTwo, remainder_diagnostics
from markovsum.polys import RationalFunction, poly

CANONICAL = (Q(1, 3), Q(1, 5), Q(1, 7), Q(1, 11), Q(1, 2))


def geometric_row(first, ratio):
    return TermSequence(first, RationalFunction(poly(ratio), poly(1)))


def term_row(term):
    """A row given by a term function, with the two members the diagnostics read."""
    return SimpleNamespace(n0=0, term=term)


def test_zero_rows():
    rows = [geometric_row(0, 0) for _ in range(3)]
    assert remainder_diagnostics(rows, m_max=4, k_max=2) == [0] * 5


def test_geometric_row_closed_form_tail():
    row = geometric_row(1, Q(1, 2))
    n_cap = 60
    estimates = remainder_diagnostics([row], m_max=5, k_max=0, n_cap=n_cap)
    for m, value in enumerate(estimates):
        exact_tail = 2 * Q(1, 2) ** m
        truncation = 2 * Q(1, 2) ** (n_cap + 1)
        assert exact_tail - truncation <= value <= exact_tail


def test_pair_columns_decrease_toward_zero():
    engine = ThreePhiTwo(*CANONICAL)
    pair = engine.pair()
    rows = [term_row(lambda n, k=k: pair.u(k, n)) for k in range(4)]
    estimates = remainder_diagnostics(rows, m_max=6, k_max=3, n_cap=50)
    assert all(estimates[m + 1] < estimates[m] for m in range(6))
    assert estimates[6] < estimates[0] / 100
    assert all(e > 0 for e in estimates)


def test_argument_validation():
    row = geometric_row(0, 0)
    with pytest.raises(ValueError):
        remainder_diagnostics([row], m_max=5, k_max=0, n_cap=3)
