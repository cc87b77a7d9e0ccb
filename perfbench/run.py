"""Benchmark of markovsum: closed-loop workloads through the public entry points.

    python3 perfbench/run.py --workload zeta-ladder --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

One client sends each request only after the previous one returned, in a
single thread.  A pass runs the workload's whole request list; the run
repeats passes until ``--seconds`` would be exceeded, and always makes at
least two, so every request's output digest can be compared with its first
pass (the CLI promises byte-identical output).  Every pass goes through the
workload's correctness gate before any timing counts: a tripped gate prints
the violations, reports ``"correct": false`` without metrics and exits 1.

``--trace 0`` reports the end-to-end metrics.  The speed of this kind of
shared machine drifts by a third and more over seconds to minutes, and the
program's speed drifts with it.  So two fixed stdlib reference kernels
are timed between requests and, on a timer signal every
``SAMPLE_INTERVAL`` seconds, during them; the handler's time is taken out
of the request's latency.  Every end-to-end time is scaled to the nominal
machine on which the geometric mean of the kernel times is
``REFERENCE_SECONDS``: a request's latency is multiplied by
``REFERENCE_SECONDS`` over the median of those means from just before to
just after it.  The unscaled pass times and the kernel times are printed
and kept in the run record.

``--trace 1`` alternates untraced and traced passes, at least two of each,
and reports the per-layer metrics beside both pass times, so the tracing
overhead shows; it checks that every count repeats exactly between traced
passes and writes the spans to ``perfbench/out``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

if not (SRC / "markovsum" / "cli.py").is_file():
    raise SystemExit(f"error: no markovsum sources under {SRC}")
sys.path.insert(0, str(SRC))  # the program under test is always this checkout's

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2
SETUP_REPEATS = 11
SAMPLE_INTERVAL = 0.1  # seconds between reference samples during a request
#: the reference kernels' mean time on the nominal machine that end-to-end times are scaled to
REFERENCE_SECONDS = 0.0004
#: fresh interpreter -> import markovsum.cli -> the workload's inputs generated (no site:
#: the program needs nothing from site-packages, and ``.pth`` files of the machine add noise)
SETUP_CODE = ("import sys; sys.path[:0] = sys.argv[1:3]; import markovsum.cli, workloads; "
              "workloads.WORKLOADS[sys.argv[3]].requests(int(sys.argv[4]))")
#: the reference for set-up: a fresh interpreter that imports some of the stdlib
STARTUP_CODE = "import argparse, dataclasses, decimal, fractions, hashlib, json, random, statistics"
#: its time on the nominal machine that ``setup_s`` is scaled to
STARTUP_SECONDS = 0.06

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "request_s.p50": "s",
    "request_s.p90": "s",
    "proven_digits_per_s": "digits/s",
    "peak_rss_mb": "MB",
}


class GateTripped(Exception):
    pass


def _small_fractions():
    total = Fraction(0)
    for k in range(1, 100):
        total += Fraction(1, k * k * k)


def _big_fractions():
    total = sum(Fraction(2 ** k, 3 ** k + k) for k in range(40))
    for _ in range(2):
        total = total * total / (total + 1)


#: The reference kernels: exact arithmetic on small and on big fractions.
#: A machine's slow and fast stretches move these by different factors; the
#: program does both kinds, and their mean follows it better than either.
KERNELS = (_small_fractions, _big_fractions)


def reference_time() -> float:
    """Geometric mean of the times of one run of each reference kernel."""
    times = []
    for kernel in KERNELS:
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return statistics.geometric_mean(times)


class Sampler:
    """Times the reference kernels every SAMPLE_INTERVAL seconds while a request runs.

    A timer signal interrupts the request and runs the kernels in its handler;
    ``spent`` is the handler's time, which the caller takes out of the request's.
    """

    def __init__(self):
        self.times, self.spent = [], 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        start = perf_counter()
        self.times.append(reference_time())
        self.spent += perf_counter() - start

    def __enter__(self):
        self.times, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)


@dataclass
class Pass:
    results: list = field(default_factory=list)
    own: list = field(default_factory=list)  # request latencies without the sampler's time
    speeds: list = field(default_factory=list)  # per request: median reference time around it

    @property
    def latencies(self) -> list[float]:
        """Scaled request latencies, in request order."""
        return [seconds * REFERENCE_SECONDS / speed
                for seconds, speed in zip(self.own, self.speeds)]

    @property
    def wall(self) -> float:
        """Time the program spent on the pass: the sum of its scaled request latencies."""
        return sum(self.latencies)

    @property
    def raw_wall(self) -> float:
        """The sum of the unscaled request latencies."""
        return sum(self.own)


def _interpreter(*args: str) -> float:
    """Run time of a fresh interpreter, without site, that runs ``-c`` with ``args``.

    Measured as the child's CPU time (user plus system): waiting for a child
    with a timeout polls with sleeps of up to 50 ms, which rounds its wall
    time up to such steps, and the child never sleeps or waits itself.
    """
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, "-S", "-c", *args], check=True, stdout=subprocess.DEVNULL,
                   timeout=120)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def measure_setup(name: str, seed: int) -> float:
    """Median run time of fresh interpreters that import and generate inputs, scaled.

    Start-up and imports do not speed up and slow down with the machine as
    much as the reference kernels do, so each time is scaled by the mean
    time of a stdlib-only interpreter (``STARTUP_CODE``) run just before and
    just after it, to a machine on which that takes ``STARTUP_SECONDS``.
    """
    setup = (SETUP_CODE, str(SRC), str(BENCH), name, str(seed))
    _interpreter(*setup), _interpreter(STARTUP_CODE)  # warm-up: file caches
    times = []
    before = _interpreter(STARTUP_CODE)
    for _ in range(SETUP_REPEATS):
        seconds = _interpreter(*setup)
        after = _interpreter(STARTUP_CODE)
        times.append(seconds * 2 * STARTUP_SECONDS / (before + after))
        before = after
    return statistics.median(times)


def run_pass(workload, requests, tracer=None) -> Pass:
    """One pass; untraced passes sample the machine's speed, traced ones only run."""
    done = Pass()
    sampler = Sampler() if tracer is None else None
    between = reference_time() if sampler else None
    for number, request in enumerate(requests):
        if tracer is not None:
            tracer.request = number
        result = workloads.execute(request, sampler)
        done.results.append(result)
        if sampler is None:
            done.own.append(result.seconds)
            continue
        after = reference_time()
        done.own.append(result.seconds - sampler.spent)
        done.speeds.append(statistics.median([between, *sampler.times, after]))
        between = after
    errors = workload.gate({r.request.key: r for r in done.results})
    if errors:
        raise GateTripped(errors)
    return done


def timed_rounds(run_round, seconds: float) -> list[list[Pass]]:
    """Repeat ``run_round`` at least MIN_PASSES times, then while the next round fits."""
    rounds = []
    start = perf_counter()
    last = 0.0
    while len(rounds) < MIN_PASSES or perf_counter() - start + last <= seconds:
        round_start = perf_counter()
        rounds.append(run_round())
        last = perf_counter() - round_start
    return rounds


def _rate(done: Pass, amount) -> float:
    """Sum of ``amount`` over passing requests that have one, per scaled second of their time."""
    chosen = [(amount(r), seconds) for r, seconds in zip(done.results, done.latencies)
              if r.passed and amount(r) is not None]
    seconds = sum(s for _, s in chosen)
    return sum(a for a, _ in chosen) / seconds if seconds else 0.0


def _proven_digits(result):
    return result.digits_proven if result.request.proves_digits else None


def _checks(result):
    return result.checks if result.request.argv[:1] in (("verify-pair",), ("verify-certificate",)) \
        else None


def _percentile(done: Pass, tenths: int) -> float:
    return statistics.quantiles(done.latencies, n=10, method="inclusive")[tenths - 1]


def end_to_end(passes: list[Pass], setup: float) -> dict[str, float]:
    """Medians over passes, so the number of passes does not shift a percentile."""
    return {
        "setup_s": setup,
        "wall_s": statistics.median(p.wall for p in passes),
        "request_s.p50": statistics.median(_percentile(p, 5) for p in passes),
        "request_s.p90": statistics.median(_percentile(p, 9) for p in passes),
        "proven_digits_per_s": statistics.median(_rate(p, _proven_digits) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, traced: list[Pass], untraced: list[Pass]) -> dict[str, float]:
    layers = [tracing.layer_metrics(trace, sum(r.terms_used for r in p.results))
              for trace, p in zip(tracer.passes, traced)]
    metrics = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        if tracing.LAYER_UNITS[name] == "s":
            metrics[name] = statistics.median(values)
        elif len(set(values)) != 1:
            raise GateTripped([f"{name} differs between traced passes: {values}"])
        else:
            metrics[name] = values[0]
    metrics["trace.wall_s"] = statistics.median(p.raw_wall for p in traced)
    metrics["trace.untraced_wall_s"] = statistics.median(p.raw_wall for p in untraced)
    return metrics


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    workload = workloads.WORKLOADS[name]
    requests = workload.requests(seed)
    tracer = None
    try:
        if traced:
            tracer = tracing.Tracer()

            def traced_round():
                plain = run_pass(workload, requests)
                tracer.new_pass()
                tracer.install()
                try:
                    return [plain, run_pass(workload, requests, tracer)]
                finally:
                    tracer.uninstall()

            rounds = timed_rounds(traced_round, seconds)
            metrics = per_layer(tracer, [r[1] for r in rounds], [r[0] for r in rounds])
            units = tracing.LAYER_UNITS
        else:
            rounds = timed_rounds(lambda: [run_pass(workload, requests)], seconds)
            metrics = end_to_end([r[0] for r in rounds], measure_setup(name, seed))
            units = E2E_UNITS
        passes = [p for r in rounds for p in r]
    except GateTripped as exc:
        for error in exc.args[0]:
            print(f"gate: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": len(requests), "failed": 0,
                          "metrics": {}}))
        return 1

    reference = [r.digest for r in passes[0].results]
    mismatched = sum(r.digest != digest for p in passes[1:]
                     for r, digest in zip(p.results, reference))
    attempted = sum(len(p.results) for p in passes)
    failed = sum(not r.passed or r.digest != digest for p in passes
                 for r, digest in zip(p.results, reference))
    run_digest = hashlib.sha256("".join(f"{r.request.key!r}{r.digest}"
                                        for r in passes[0].results).encode()).hexdigest()
    extras = {"fail_ratio": (failed / attempted, "ratio"),
              "digest_mismatches": (mismatched, "count")}
    if not traced:
        if any(_checks(r) is not None for r in passes[0].results):
            extras["checks_per_s"] = (statistics.median(_rate(p, _checks) for p in passes),
                                      "checks/s")
        # what the scaling started from
        extras["raw_wall_s"] = (statistics.median(p.raw_wall for p in passes), "s")
        extras["reference_ms"] = (1000 * statistics.median(t for p in passes
                                                           for t in p.speeds), "ms")

    print(f"{name}  seed {seed}  trace {int(traced)}  passes {len(passes)} x {len(requests)} "
          f"requests  gate passed  output digest {run_digest}")
    for metric, value in metrics.items():
        print(f"  {metric:<42} {value:>14.6g} {units[metric]}")
    for metric, (value, unit) in extras.items():
        print(f"  {metric:<42} {value:>14.6g} {unit}")
    print(f"  ({failed} of {attempted} requests failed; percentiles over the "
          f"{len(requests)} request latencies of each pass, median over passes"
          + ("; per-layer times unscaled)" if traced else
             f"; times scaled to a {REFERENCE_SECONDS * 1000:g} ms reference time)"))
    if traced:
        overhead = metrics["trace.wall_s"] / metrics["trace.untraced_wall_s"] - 1
        print(f"  tracing overhead {overhead:+.1%} of the untraced pass wall time "
              f"(medians of alternating passes)")

    reported = {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(traced)}"
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "passes": len(passes), "requests_per_pass": len(requests), "digest": run_digest,
        "pass_walls": [p.wall for p in passes],
        "raw_pass_walls": [p.raw_wall for p in passes],
        "requests": [[repr(r.request.key), r.code, r.digest] for r in passes[0].results],
        "metrics": reported,
        "extras": {m: {"value": v, "unit": u} for m, (v, u) in extras.items()},
        "attempted": attempted, "failed": failed,
        "environment": {"python": platform.python_version(), "machine": platform.machine(),
                        "cpus": os.cpu_count()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.jsonl")

    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0


def run_all(names, seed: int, seconds: float, traced: bool) -> int:
    """Run each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(traced))],
                              capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        status = status or proc.returncode
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(list(workloads.WORKLOADS), args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
