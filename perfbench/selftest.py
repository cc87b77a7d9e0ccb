"""Self-test of the benchmark's correctness gates and output digests.

    python3 perfbench/selftest.py

Runs one pass of every workload at seed 0 and checks that each gate
accepts the real answers.  Then it perturbs single answers (a changed
digit, a fuzzed pair that goes undetected, a broken pair, a failed
request) and checks that the gate trips on each.  Exits 1 if any
expectation fails.
"""

from __future__ import annotations

import dataclasses
import sys

import run  # noqa: F401  (puts the checkout's src on sys.path)
import workloads


def perturbed(result, value=None, **changes):
    """``result`` with its rendering's last digit changed, or other fields replaced."""
    if value is None and not changes:
        value = result.value[:-1] + str((int(result.value[-1]) + 1) % 10)
    if value is not None:
        changes["stdout"] = result.stdout.replace(f"value: {result.value}", f"value: {value}")
    return dataclasses.replace(result, **changes)


def _zeta_same_wrong_digit(results):
    for entry in workloads.ZETA3_ENTRIES:
        key = ("compute", entry, 33)
        results[key] = perturbed(results[key])


def _hurwitz_direct_digit(results):
    key = next(k for k, r in results.items()
               if k[0] == "hurwitz3-direct" and r.digits_proven
               and results[("markov-hurwitz", k[1])].code == 0)
    results[key] = perturbed(results[key])


def _undetected_fuzz(results):
    # the fuzzed pair perturbs SAMPLE_TUPLES[0]; undetected, it reads like the clean pair
    key = ("verify-pair", "fuzz")
    results[key] = perturbed(results[key], code=0, stdout=results[("verify-pair", 0)].stdout)


def _replace(key, **changes):
    def mutate(results):
        results[key] = perturbed(results[key], **changes)
    return mutate


MUTATIONS = {
    "zeta-ladder": [
        ("a changed digit of apery at 100 digits", _replace(("compute", "apery", 100))),
        ("the same changed digit in all four 33-digit zeta(3) renderings",
         _zeta_same_wrong_digit),
        ("schellbach-zeta2 exiting 2 at 150 digits",
         _replace(("compute", "schellbach-zeta2", 150), code=2)),
    ],
    "hurwitz-sweep": [
        ("a changed digit of the direct series", _hurwitz_direct_digit),
        ("apery disagreeing with markov-hurwitz at a=1", _replace(("apery",))),
    ],
    "lattice": [
        ("the fuzzed pair passing", _undetected_fuzz),
        ("a pair check exiting 1", _replace(("verify-pair", 0), code=1)),
        ("a changed digit of the transformed series", _replace(("phi32", "transformed", 0))),
        ("a failed certificate verdict", _replace(("verify-certificate",), code=1)),
    ],
}


def main() -> int:
    failures = []

    def expect(ok: bool, what: str):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for name, workload in workloads.WORKLOADS.items():
        results = {r.request.key: r for r in map(workloads.execute, workload.requests(0))}
        errors = workload.gate(results)
        expect(not errors, f"{name}: the gate accepts the real answers {errors or ''}")
        for description, mutate in MUTATIONS[name]:
            broken = dict(results)
            mutate(broken)
            expect(bool(workload.gate(broken)), f"{name}: the gate trips on {description}")

    request = workloads.WORKLOADS["zeta-ladder"].requests(0)[0]
    first, again = workloads.execute(request), workloads.execute(request)
    expect(first.digest == again.digest, "a rerun reproduces the output digest")
    expect(perturbed(first).digest != first.digest, "a changed digit changes the output digest")
    expect(perturbed(first, code=2).digest != first.digest, "another exit code changes the digest")

    print(f"{len(failures)} self-test failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
