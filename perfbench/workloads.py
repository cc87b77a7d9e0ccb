"""Request generators and correctness gates of the markovsum benchmark.

Each workload turns a seed into a fixed list of requests.  A request is
either a CLI invocation, run in-process through ``markovsum.cli.main`` with
stdout captured, or a library evaluation of one side of the q-series
transformation through the public ``catalog`` calls.  Every request starts
with cold term caches (``hgterm.clear_caches``), as a fresh CLI process does.

A gate takes the results of one pass, keyed by request key, and returns
the list of violated agreements; any entry aborts the run.  Exit codes
outside a request's ``expect`` set are counted as failed requests instead,
so defects that are known today (``markov-hurwitz`` rejecting a <= 5/12)
stay visible in the failure count without stopping the run.

Importing ``run`` first puts the checkout's ``src`` directory on
``sys.path``, which this module needs.
"""

from __future__ import annotations

import gc
import hashlib
import io
import itertools
import random
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from time import perf_counter
from typing import Callable, Optional

from markovsum import catalog, cli, hgterm
from markovsum.exact import format_rational
from markovsum.markov import SAMPLE_TUPLES, sample_parameter_tuples


@dataclass(frozen=True)
class Request:
    """One closed-loop request; ``key`` names it for the gates."""

    key: tuple
    argv: tuple[str, ...] = ()
    phi32: Optional[tuple[str, tuple[Fraction, ...]]] = None
    expect: frozenset[int] = frozenset({0})
    proves_digits: bool = False
    checks: int = 0  # identity evaluations of a verify-pair grid

    def run(self) -> int:
        # attribute lookups at call time, so the traced run sees its wrappers
        if self.phi32 is not None:
            return phi32_side(*self.phi32)
        return cli.main(list(self.argv))


@dataclass(frozen=True)
class Result:
    request: Request
    code: int
    stdout: str
    seconds: float
    fields: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        parsed = {}
        for line in self.stdout.splitlines():
            key, sep, value = line.partition(": ")
            if sep:
                parsed.setdefault(key, value)
        object.__setattr__(self, "fields", parsed)

    @property
    def passed(self) -> bool:
        return self.code in self.request.expect

    @property
    def digits_proven(self) -> int:
        return int(self.fields.get("digits proven", 0))

    @property
    def terms_used(self) -> int:
        return int(self.fields.get("terms used", 0))

    @property
    def value(self) -> str:
        return self.fields.get("value", "")

    @property
    def checks(self) -> int:
        """Identity evaluations: the certificate verdict's count, or the pair grid."""
        return int(self.fields.get("checks", self.request.checks))

    @property
    def digest(self) -> str:
        """Hash of the exit code and the captured stdout."""
        return hashlib.sha256(f"{self.code}\n{self.stdout}".encode()).hexdigest()


def execute(request: Request, during=None) -> Result:
    """Run one request as a fresh CLI process would; only the call itself is timed.

    Term caches start cold, and no garbage of earlier requests is left for
    the cyclic collector, which otherwise makes a request's time depend on
    what ran before it.  ``during`` is a context entered just around the
    timed call.
    """
    hgterm.clear_caches()
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), during or nullcontext():
        start = perf_counter()
        try:
            code = request.run()
        except Exception:  # an uncaught error is a failed request, as in a CLI process
            traceback.print_exc()
            code = 1
        seconds = perf_counter() - start
    return Result(request, code, out.getvalue(), seconds)


def _split_value(value: str) -> tuple[str, str]:
    integer, _, fraction = value.partition(".")
    return integer, fraction


# ---------------------------------------------------------------------------
# zeta-ladder: the six geometric zeta entries at deep precision
# ---------------------------------------------------------------------------

ZETA3_ENTRIES = ("apery", "ratio27-zeta3", "az-zeta3", "markov-hurwitz")
ZETA2_ENTRIES = ("zeta2-27", "schellbach-zeta2")
LADDER = (33, 100, 150)
#: the 33-digit zeta(3) rendering quoted in the README
ZETA3_33 = "1.202056903159594285399738161511450"


def zeta_ladder_requests(seed: int) -> list[Request]:
    requests = [Request(("compute", entry, digits),
                        ("compute", entry, "--digits", str(digits)), proves_digits=True)
                for digits in LADDER for entry in ZETA3_ENTRIES + ZETA2_ENTRIES]
    random.Random(seed).shuffle(requests)
    return requests


def zeta_ladder_gate(results: dict) -> list[str]:
    errors = []
    for digits in LADDER:
        for group in (ZETA3_ENTRIES, ZETA2_ENTRIES):
            renderings = {}
            for entry in group:
                result = results[("compute", entry, digits)]
                if result.code != 0 or result.digits_proven < digits:
                    errors.append(f"compute {entry} --digits {digits}: exit {result.code}, "
                                  f"{result.digits_proven} digits proven")
                renderings[entry] = result.value
            if len(set(renderings.values())) != 1:
                errors.append(f"{digits} digits: renderings differ: {renderings}")
    for entry in ZETA3_ENTRIES:
        value = results[("compute", entry, 33)].value
        if value != ZETA3_33:
            errors.append(f"compute {entry} --digits 33 gave {value}, expected {ZETA3_33}")
    return errors


# ---------------------------------------------------------------------------
# hurwitz-sweep: many cold, shallow parameterized entries
# ---------------------------------------------------------------------------

HURWITZ_DIGITS = 20
DIRECT_DIGITS = 4
DIRECT_COUNT = 9


def hurwitz_values() -> list[str]:
    """Every reduced n/d with 1 <= n, d <= 12, in a fixed order (91 values)."""
    return [str(Fraction(n, d)) for n in range(1, 13) for d in range(1, 13) if gcd(n, d) == 1]


def hurwitz_sweep_requests(seed: int) -> list[Request]:
    rng = random.Random(seed)
    values = hurwitz_values()
    requests = [Request(("markov-hurwitz", a),
                        ("compute", "markov-hurwitz", "--a", a, "--digits", str(HURWITZ_DIGITS),
                         "--rounding", "truncate"), proves_digits=True)
                for a in values]
    # the direct series is the oracle; exit 2 is its honest precision shortfall
    requests += [Request(("hurwitz3-direct", a),
                         ("compute", "hurwitz3-direct", "--a", a, "--digits", str(DIRECT_DIGITS),
                          "--max-terms", "512", "--rounding", "truncate"),
                         expect=frozenset({0, 2}), proves_digits=True)
                 for a in rng.sample(values, DIRECT_COUNT)]
    requests.append(Request(("apery",), ("compute", "apery", "--digits", str(HURWITZ_DIGITS),
                                         "--rounding", "truncate"), proves_digits=True))
    rng.shuffle(requests)
    return requests


def hurwitz_sweep_gate(results: dict) -> list[str]:
    errors = []
    for key, result in results.items():
        if key[0] == "markov-hurwitz" and result.code == 0 \
                and result.digits_proven < HURWITZ_DIGITS:
            errors.append(f"markov-hurwitz a={key[1]}: exit 0 with "
                          f"{result.digits_proven} digits proven")
        if key[0] != "hurwitz3-direct" or result.digits_proven == 0:
            continue
        accelerated = results[("markov-hurwitz", key[1])]
        if accelerated.code != 0:
            continue  # only where both entries answer
        integer, fraction = _split_value(result.value)
        acc_integer, acc_fraction = _split_value(accelerated.value)
        if integer != acc_integer or not acc_fraction.startswith(fraction):
            errors.append(f"a={key[1]}: markov-hurwitz {accelerated.value} disagrees "
                          f"with hurwitz3-direct {result.value}")
    at_one, apery = results[("markov-hurwitz", "1")], results[("apery",)]
    if at_one.code == 0 and apery.code == 0 and at_one.value != apery.value:
        errors.append(f"markov-hurwitz a=1 gave {at_one.value}, apery {apery.value}")
    return errors


# ---------------------------------------------------------------------------
# lattice: exact identity checks and the q-series transformation
# ---------------------------------------------------------------------------

GRID = 20
SAMPLED_PAIRS = 5
SOLVE_FAMILIES = ("3phi2-u1", "4f3-u2", "4f3-wp-u3")
PHI32_DIGITS = 20
PHI32_SCAN_CAP = 512


def sampled_pair_tuples(seed: int) -> list[tuple[Fraction, ...]]:
    """The first seeded tuples with |t| < 1, the regime of the 3phi2 pair."""
    def converges(params):
        a, b, c, d, q = params
        return abs(c * d / (a * b * q)) < 1
    return list(itertools.islice(filter(converges, sample_parameter_tuples(10 ** 6, seed)),
                                 SAMPLED_PAIRS))


def _param_args(params) -> tuple[str, ...]:
    return tuple(arg for name, value in zip("abcdq", params)
                 for arg in (f"--{name}", format_rational(value)))


def phi32_side(side: str, params: tuple[Fraction, ...], digits: int = PHI32_DIGITS) -> int:
    """Evaluate one side of the 3phi2 transformation to ``digits`` proven digits.

    The source series has a geometric bound, so ``terms_needed`` applies;
    the transformed series has a custom tail bound, so its term count is
    found by the forward scan the acceptance test uses.  Prints the same
    fields as ``compute``; returns 0, or 2 on a precision shortfall.
    """
    build = catalog.entry_phi32_series if side == "series" else catalog.entry_phi32_transformed
    entry = build(*params)
    if entry.ratio_bound is not None:
        n_terms = catalog.terms_needed(entry, digits)
    else:
        n_terms = next((n for n in range(1, PHI32_SCAN_CAP)
                        if catalog.evaluate(entry, n).digits_proven >= digits), PHI32_SCAN_CAP)
    report = catalog.evaluate(entry, n_terms, digits=digits)
    print(f"entry: {report.entry_id}")
    print(f"terms used: {report.terms_used}")
    print(f"digits proven: {report.digits_proven}")
    print(f"value: {report.rendering}")
    return 0 if report.digits_proven >= digits else 2


def lattice_requests(seed: int) -> list[Request]:
    grid = f"{GRID}x{GRID}"
    grid_checks = (GRID + 1) * (GRID + 1)
    requests = [Request(("verify-certificate",),
                        ("verify-certificate", "--grid", grid, "--random-points", "50",
                         "--seed", str(seed)))]
    for i, params in enumerate(list(SAMPLE_TUPLES) + sampled_pair_tuples(seed)):
        requests.append(Request(("verify-pair", i),
                                ("verify-pair", "3phi2", "--grid", grid) + _param_args(params),
                                checks=grid_checks))
    requests.append(Request(("verify-pair", "fuzz"),
                            ("verify-pair", "3phi2", "--grid", grid, "--fuzz"),
                            expect=frozenset({1}), checks=grid_checks))
    requests += [Request(("solve", family), ("solve", family, "--x-max", str(GRID)))
                 for family in SOLVE_FAMILIES]
    requests += [Request(("phi32", side, i), phi32=(side, params), proves_digits=True)
                 for i, params in enumerate(SAMPLE_TUPLES) for side in ("series", "transformed")]
    return requests


def lattice_gate(results: dict) -> list[str]:
    errors = []
    for key, result in results.items():
        kind = key[0]
        if kind == "verify-certificate" and (result.code != 0
                                             or result.fields.get("passed") != "True"):
            errors.append(f"verify-certificate: exit {result.code}, passed "
                          f"{result.fields.get('passed')}")
        elif kind == "verify-pair" and key[1] == "fuzz":
            if result.code != 1 or result.fields.get("residual_failures") in (None, "0"):
                errors.append(f"verify-pair --fuzz was not detected: exit {result.code}")
        elif kind == "verify-pair" and (result.code != 0
                                        or result.fields.get("residual_failures") != "0"
                                        or result.fields.get("boundary_equal") != "True"):
            errors.append(f"verify-pair {result.request.argv[4:]}: exit {result.code}")
        elif kind == "solve" and result.code != 0:
            errors.append(f"solve {key[1]}: exit {result.code}")
    for i in range(len(SAMPLE_TUPLES)):
        series, transformed = results[("phi32", "series", i)], results[("phi32", "transformed", i)]
        for side in (series, transformed):
            if side.code != 0 or side.digits_proven < PHI32_DIGITS:
                errors.append(f"{side.fields.get('entry')}: exit {side.code}, "
                              f"{side.digits_proven} digits proven")
        (si, sf), (ti, tf) = _split_value(series.value), _split_value(transformed.value)
        if si != ti or sf[:PHI32_DIGITS] != tf[:PHI32_DIGITS]:
            errors.append(f"SAMPLE_TUPLES[{i}]: source {series.value} "
                          f"!= transformed {transformed.value}")
    return errors


@dataclass(frozen=True)
class Workload:
    name: str
    requests: Callable[[int], list[Request]]
    gate: Callable[[dict], list[str]]


WORKLOADS = {w.name: w for w in (
    Workload("zeta-ladder", zeta_ladder_requests, zeta_ladder_gate),
    Workload("hurwitz-sweep", hurwitz_sweep_requests, hurwitz_sweep_gate),
    Workload("lattice", lattice_requests, lattice_gate),
)}
