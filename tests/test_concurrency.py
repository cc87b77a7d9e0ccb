"""The memoized prefix caches stay correct under concurrent extension.

Four threads extend the same cold cache at once while the interpreter
switches threads every microsecond, which interleaves the extension loops
as finely as CPython allows.  Every cached value must still equal the
product computed directly.
"""

import sys
import threading
from fractions import Fraction as Q
from math import prod

import pytest

from markovsum import catalog, hgterm

THREADS = 4
TRIALS = 10
LENGTH = 120


def _race(fn, length: int) -> list:
    """Run fn(0..length) in THREADS threads at once; return each thread's values."""
    barrier = threading.Barrier(THREADS)
    results = [None] * THREADS

    def worker(slot: int):
        barrier.wait(timeout=30)
        results[slot] = [fn(k) for k in range(length + 1)]

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return results


def _running_products(first, factors) -> list:
    values = [first]
    for factor in factors:
        values.append(values[-1] * factor)
    return values


def _rising(trial: int):
    a = Q(2 * trial + 1, 7)  # a fresh cache key per trial
    return (lambda n: hgterm.rising_factorial(a, n),
            _running_products(Q(1), (a + k for k in range(LENGTH))))


def _qpoch(trial: int):
    a, q = Q(trial + 2, 3), Q(1, trial + 2)
    return (lambda n: hgterm.q_pochhammer(a, q, n),
            _running_products(Q(1), (1 - a * q ** k for k in range(LENGTH))))


def _odd_double_factorial(trial: int):
    base = 1000 + trial * (LENGTH + 1)  # beyond every value cached so far
    return (lambda n: catalog._odd_double_factorial(base + n),
            _running_products(prod(range(1, 2 * base, 2)),
                              range(2 * base + 1, 2 * (base + LENGTH), 2)))


@pytest.mark.parametrize("cache", [_rising, _qpoch, _odd_double_factorial],
                         ids=["rising_factorial", "q_pochhammer", "odd_double_factorial"])
def test_concurrent_extension_keeps_cached_values_exact(cache):
    for trial in range(TRIALS):
        fn, truth = cache(trial)
        results = _race(fn, LENGTH)
        assert all(values == truth for values in results), f"trial {trial}"
        assert [fn(n) for n in range(LENGTH + 1)] == truth, f"trial {trial}"
