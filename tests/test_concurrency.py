"""The memoized prefix caches stay correct under concurrent extension.

Four threads extend the same cold cache at once while the interpreter
switches threads every microsecond, which interleaves the extension loops
as finely as CPython allows.  Every cached value must still equal the
product computed directly, threads evaluating one shared catalog entry
must all get the enclosures of its closed-form terms, threads searching
one shared entry for mixed digit counts must find what one thread finds,
threads sharing one 3phi2 engine, or one stepped 4F3 or well-poised
extension, must all get its product-form values, and threads calling
``cli.main`` on its one shared parser must write what a sequential run
writes.
"""

import sys
import threading
from fractions import Fraction as Q

import pytest

from markovsum import catalog, cli, hgterm
from markovsum.hgterm import TermSequence
from markovsum.markov import SAMPLE_TUPLES, ThreePhiTwo, f4f3_family, well_poised_family
from markovsum.polys import RationalFunction, poly
from oracles import f4f3_product, f_product, fraction_enclosure, well_poised_product

THREADS = 4
TRIALS = 10
LENGTH = 120


def _race(fn, length: int, stagger: int = 0) -> list:
    """Run fn(0..length) in THREADS threads at once; return each thread's values.

    With a stagger, thread s makes the same calls starting from
    k = s * stagger (cyclically), so that different calls overlap; its
    values are still listed in the order of k.
    """
    barrier = threading.Barrier(THREADS)
    results = [None] * THREADS

    def worker(slot: int):
        barrier.wait(timeout=30)
        order = [(k + slot * stagger) % (length + 1) for k in range(length + 1)]
        values = {k: fn(k) for k in order}
        results[slot] = [values[k] for k in range(length + 1)]

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


def _term_recurrence(trial: int):
    # a fresh sequence per trial: term(n+1) = term(n) (n+1)/(trial+2)
    seq = TermSequence(Q(1), RationalFunction(poly(1, 1), poly(trial + 2)))
    return seq.term, _running_products(Q(1), (Q(k + 1, trial + 2) for k in range(LENGTH)))


@pytest.mark.parametrize("cache", [_rising, _qpoch, _term_recurrence],
                         ids=["rising_factorial", "q_pochhammer", "term_recurrence"])
def test_concurrent_extension_keeps_cached_values_exact(cache):
    for trial in range(TRIALS):
        fn, truth = cache(trial)
        results = _race(fn, LENGTH)
        assert all(values == truth for values in results), f"trial {trial}"
        assert [fn(n) for n in range(LENGTH + 1)] == truth, f"trial {trial}"


def test_threads_evaluating_one_shared_entry_agree():
    span = 60
    for trial in range(TRIALS):
        a = Q(trial + 1, 2)  # a cold entry per trial
        truth = [catalog.markov_hurwitz_term(n, a) for n in range(span + 2)]
        entry = catalog.entry_markov_hurwitz(a)
        results = _race(lambda k: catalog.evaluate(entry, k + 1).enclosure, span)
        expected = [fraction_enclosure(entry, sum(truth[:k + 1]), k) for k in range(span + 1)]
        assert all(values == expected for values in results), f"trial {trial}"


def test_threads_searching_one_shared_entry_agree():
    digit_counts = (3, 40, 17, 90, 8, 150, 25, 60, 1, 120)

    def search(entry, k):
        digits = digit_counts[k % len(digit_counts)]
        n = catalog.terms_needed(entry, digits)
        report = catalog.evaluate(entry, n, digits=digits)
        return n, str(report.rendering), report.enclosure

    for trial in range(3):
        a = Q(trial + 1, 3)  # a cold entry per trial, valid_from > 0 at a = 1/3
        sequential = [search(catalog.entry_markov_hurwitz(a), k) for k in range(LENGTH // 4 + 1)]
        entry = catalog.entry_markov_hurwitz(a)
        results = _race(lambda k: search(entry, k), LENGTH // 4, stagger=7)
        assert all(values == sequential for values in results), f"trial {trial}"


def test_threads_sharing_one_3phi2_engine_agree():
    side = 11  # lattice points k -> (k % side, k // side), 0 <= k <= LENGTH

    def point(k):
        return k % side, k // side

    for trial in range(TRIALS):
        engine = ThreePhiTwo(*SAMPLE_TUPLES[trial % len(SAMPLE_TUPLES)])  # cold tables

        def values(k):
            x, z = point(k)
            return (engine.f(x, z), engine.rx(x, z), engine.rz(x, z),
                    engine._power(k), engine.A(x), engine.B(x))

        truth = []
        for k in range(LENGTH + 1):
            x, z = point(k)
            f = f_product(engine, x, z)
            a_x = engine.A_closed(x)
            truth.append((f, f_product(engine, x + 1, z) / f, f_product(engine, x, z + 1) / f,
                          engine.q ** k, a_x, a_x / (1 - engine.t * engine.q ** (2 * x))))
        results = _race(values, LENGTH)
        assert all(result == truth for result in results), f"trial {trial}"

        # the 4F3 and well-poised extensions step on the same stepper, cold per trial
        for build, product, params in (
                (f4f3_family, f4f3_product, (Q(2 * trial + 1, 7), Q(1, 3), Q(2))),
                (well_poised_family, well_poised_product, (Q(2 * trial + 1, 7), Q(2)))):
            scale = build(*params).scale
            truth = []
            for k in range(LENGTH + 1):
                x, z = point(k)
                f = product(*params, x, z)
                truth.append((f, product(*params, x + 1, z) / f,
                              product(*params, x, z + 1) / f))
            results = _race(lambda k: (scale.value(*point(k)), scale.sx(*point(k)),
                                       scale.sz(*point(k))), LENGTH)
            assert all(result == truth for result in results), f"trial {trial}, {params}"


#: requests of every verb that computes, each small; thread s starts at the s-th
CLI_REQUESTS = (
    ("compute", "apery", "--digits", "20"),
    ("verify-pair", "3phi2", "--grid", "4x4"),
    ("solve", "3phi2-u1", "--x-max", "3"),
    ("--format", "json", "compute", "markov-hurwitz", "--a", "1/3", "--digits", "15"),
    ("--format", "json", "verify-pair", "3phi2", "--grid", "3x3", "--fuzz"),
    ("--format", "json", "solve", "4f3-u2", "--x-max", "3"),
)


def test_threads_calling_cli_main_write_what_a_sequential_run_writes(tmp_path):
    def request(k):
        # threads alive at once have distinct idents, so each call has its own file
        path = tmp_path / f"{threading.get_ident()}-{k}.out"
        code = cli.main(["--output", str(path), *CLI_REQUESTS[k]])
        return code, path.read_bytes()

    truth = [request(k) for k in range(len(CLI_REQUESTS))]
    assert [code for code, _ in truth] == [0, 0, 0, 0, 1, 0]
    for trial in range(3):
        results = _race(request, len(CLI_REQUESTS) - 1, stagger=1)
        assert all(result == truth for result in results), f"trial {trial}"
