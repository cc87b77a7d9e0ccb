"""Per-layer tracing for the markovsum benchmark.

The tracer wraps the public callables of each layer from outside the
program.  Each wrapper goes on the name the caller actually looks up (for
example ``catalog``'s own binding of ``to_decimal``, ``FormulaEntry.term``
at class level, and ``markovsum.cli.verify_certificate``), and ``uninstall``
puts the originals back.  Timed wrappers record a span (name, start, end,
parent span, request id); the cheap, very frequent calls are only counted.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional


@dataclass
class PassTrace:
    spans: list = field(default_factory=list)  # [name, start, end, parent, request]
    counts: Counter = field(default_factory=Counter)
    operand_bits_max: int = 0
    checks: int = 0
    columns: int = 0


def _enclosure_bits(report) -> int:
    enclosure = report.enclosure
    if enclosure is None:
        return 0
    return max(x.bit_length() for bound in (enclosure.lower, enclosure.upper)
               for x in (bound.numerator, bound.denominator))


class Tracer:
    def __init__(self):
        self.passes: list[PassTrace] = []
        self.request: Optional[int] = None
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    @property
    def current(self) -> PassTrace:
        return self.passes[-1]

    def new_pass(self) -> PassTrace:
        self.passes.append(PassTrace())
        return self.current

    # -- wrappers -------------------------------------------------------------

    def _spanned(self, name: str, fn: Callable, on_result: Optional[Callable] = None):
        stack = self._stack

        def wrapper(*args, **kwargs):
            spans = self.current.spans
            record = [name, perf_counter(), None, stack[-1] if stack else None, self.request]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def _counted(self, name: str, fn: Callable):
        def wrapper(*args, **kwargs):
            self.current.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _on_evaluate(self, report):
        trace = self.current
        trace.operand_bits_max = max(trace.operand_bits_max, _enclosure_bits(report))

    def _on_verdict(self, verdict):
        self.current.checks += verdict.checks

    def _on_solve(self, result):
        if result.ok:
            self.current.columns += len(result.data.v_coeffs)

    def install(self):
        from markovsum import catalog, cli, hgterm, polys
        from markovsum.markov import phi32, schellbach, solver

        spanned = (
            ("cli.main", [(cli, "main")], None),
            ("catalog.get_entry", [(catalog, "get_entry")], None),
            ("catalog.terms_needed", [(catalog, "terms_needed")], None),
            ("catalog.evaluate", [(catalog, "evaluate")], self._on_evaluate),
            ("exact.to_decimal", [(catalog, "to_decimal")], None),
            ("polys.bounded_by", [(polys.RationalFunction, "bounded_by")], None),
            ("polys.solve_linear", [(solver, "solve_linear")], None),
            ("markov.certificates.verify_certificate", [(cli, "verify_certificate")],
             self._on_verdict),
            ("markov.pairs.check_pair_condition", [(cli, "check_pair_condition")], None),
            ("markov.pairs.green_rectangle", [(cli, "green_rectangle")], None),
            ("markov.solver.solve", [(cli, "solve_multipliers_stepwise")], self._on_solve),
        )
        counted = (
            ("catalog.term", [(catalog.FormulaEntry, "term")]),
            ("catalog.enclosure_after", [(catalog.FormulaEntry, "enclosure_after")]),
            # the solver imports rising_factorial from hgterm at call time
            ("hgterm.rising_factorial", [(hgterm, "rising_factorial"),
                                         (catalog, "rising_factorial"),
                                         (schellbach, "rising_factorial")]),
            ("hgterm.q_pochhammer", [(hgterm, "q_pochhammer"), (phi32, "q_pochhammer")]),
            ("markov.schellbach.schellbach_term", [(schellbach, "schellbach_term"),
                                                   (catalog, "schellbach_term")]),
            ("polys.eventually_nonneg", [(polys, "eventually_nonneg")]),
            ("markov.phi32.f", [(phi32.ThreePhiTwo, "f")]),
            ("markov.phi32.v0", [(phi32.ThreePhiTwo, "v0")]),
            ("markov.phi32.make_certificate", [(cli, "make_certificate")]),
        )
        for name, sites, hook in spanned:
            self._replace(sites, self._spanned(name, getattr(*sites[0]), hook))
        for name, sites in counted:
            self._replace(sites, self._counted(name, getattr(*sites[0])))

    def _replace(self, sites, wrapper):
        for owner, attr in sites:
            self._originals.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for number, trace in enumerate(self.passes):
                for index, (name, start, end, parent, request) in enumerate(trace.spans):
                    handle.write(json.dumps({"pass": number, "span": index, "name": name,
                                             "start": start, "end": end, "parent": parent,
                                             "request": request}) + "\n")


#: per-layer metric -> unit; BENCHMARK.json lists the same names
LAYER_UNITS = {
    "catalog.terms_needed_s": "s",
    "catalog.evaluate_s": "s",
    "catalog.evaluate_calls": "count",
    "catalog.enclosure_after_calls": "count",
    "catalog.term_calls": "count",
    "catalog.terms_used": "count",
    "catalog.term_useful_ratio": "ratio",
    "catalog.operand_bits_max": "bits",
    "catalog.get_entry_s": "s",
    "hgterm.rising_factorial_calls": "count",
    "hgterm.q_pochhammer_calls": "count",
    "markov.schellbach.schellbach_term_calls": "count",
    "exact.to_decimal_s": "s",
    "exact.to_decimal_calls": "count",
    "polys.bounded_by_s": "s",
    "polys.eventually_nonneg_calls": "count",
    "polys.solve_linear_s": "s",
    "polys.solve_linear_calls": "count",
    "markov.certificates.verify_certificate_s": "s",
    "markov.certificates.checks": "count",
    "markov.pairs.check_pair_condition_s": "s",
    "markov.pairs.check_pair_condition_calls": "count",
    "markov.pairs.green_rectangle_s": "s",
    "markov.phi32.f_calls": "count",
    "markov.phi32.v0_calls": "count",
    "markov.phi32.make_certificate_calls": "count",
    "markov.solver.solve_s": "s",
    "markov.solver.columns": "count",
    "cli.self_s": "s",
    "cli.requests": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
}


def layer_metrics(trace: PassTrace, terms_used: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``<span>_s`` is the total duration of the named spans, children
    included; ``cli.self_s`` is the ``cli.main`` spans minus their child
    spans.  ``terms_used`` is the sum over the pass's answers.
    """
    seconds, calls, children = Counter(), Counter(), Counter()
    for name, start, end, parent, _ in trace.spans:
        seconds[name] += end - start
        calls[name] += 1
        if parent is not None:
            children[parent] += end - start
    cli_self = sum(end - start - children[index]
                   for index, (name, start, end, _, _) in enumerate(trace.spans)
                   if name == "cli.main")
    counts = trace.counts
    return {
        "catalog.terms_needed_s": seconds["catalog.terms_needed"],
        "catalog.evaluate_s": seconds["catalog.evaluate"],
        "catalog.evaluate_calls": calls["catalog.evaluate"],
        "catalog.enclosure_after_calls": counts["catalog.enclosure_after"],
        "catalog.term_calls": counts["catalog.term"],
        "catalog.terms_used": terms_used,
        "catalog.term_useful_ratio": terms_used / max(counts["catalog.term"], 1),
        "catalog.operand_bits_max": trace.operand_bits_max,
        "catalog.get_entry_s": seconds["catalog.get_entry"],
        "hgterm.rising_factorial_calls": counts["hgterm.rising_factorial"],
        "hgterm.q_pochhammer_calls": counts["hgterm.q_pochhammer"],
        "markov.schellbach.schellbach_term_calls": counts["markov.schellbach.schellbach_term"],
        "exact.to_decimal_s": seconds["exact.to_decimal"],
        "exact.to_decimal_calls": calls["exact.to_decimal"],
        "polys.bounded_by_s": seconds["polys.bounded_by"],
        "polys.eventually_nonneg_calls": counts["polys.eventually_nonneg"],
        "polys.solve_linear_s": seconds["polys.solve_linear"],
        "polys.solve_linear_calls": calls["polys.solve_linear"],
        "markov.certificates.verify_certificate_s":
            seconds["markov.certificates.verify_certificate"],
        "markov.certificates.checks": trace.checks,
        "markov.pairs.check_pair_condition_s": seconds["markov.pairs.check_pair_condition"],
        "markov.pairs.check_pair_condition_calls": calls["markov.pairs.check_pair_condition"],
        "markov.pairs.green_rectangle_s": seconds["markov.pairs.green_rectangle"],
        "markov.phi32.f_calls": counts["markov.phi32.f"],
        "markov.phi32.v0_calls": counts["markov.phi32.v0"],
        "markov.phi32.make_certificate_calls": counts["markov.phi32.make_certificate"],
        "markov.solver.solve_s": seconds["markov.solver.solve"],
        "markov.solver.columns": trace.columns,
        "cli.self_s": cli_self,
        "cli.requests": calls["cli.main"],
    }
