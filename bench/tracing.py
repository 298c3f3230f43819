"""Spans around the calls into each layer, recorded from the benchmark's own files.

``Tracer.install`` rebinds the names that ``currencynet.engine`` calls
(solver, rate construction, settlement rounding, mint choice, snapshot
builds), ``History.append_step``, and the public post-run calls that a job
makes, each to a wrapper that records a span. ``uninstall`` puts the
original objects back and notes any name that is not the original again.
Timed runs never have the wrappers installed.

A span is (name, start_ns, end_ns, parent span id, job id); spans stay in
memory until ``write`` dumps them. A span's self time is its duration minus
the durations of its direct children.
"""
from __future__ import annotations

import csv
import gzip
import time

from currencynet import accounting, engine, identity, outputs
from currencynet.accounting import History
from currencynet.engine import RunResult

# (owner, attribute, span name); span names follow the module that owns the code
TARGETS = (
    (engine, "validate_config", "engine.validate"),
    (engine, "run_scenario", "engine.run"),
    (engine, "solve_equilibrium", "economy.solve_equilibrium"),
    (engine, "mrs_matrix", "economy.mrs_matrix"),
    (engine, "coin_exchange_rates", "economy.coin_exchange_rates"),
    (engine, "largest_remainder_targets", "economy.largest_remainder_targets"),
    (engine, "most_valued_coin", "minting.most_valued_coin"),
    (engine, "CurrencyNetwork", "ledger.snapshot"),
    (History, "append_step", "accounting.append_step"),
    (accounting, "check_accounting_identity", "accounting.check"),
    (RunResult, "justice_report", "justice.report"),
    (identity, "sybil_locality_report", "identity.sybil_report"),
    (outputs, "write_bundle", "outputs.bundle"),
    (outputs, "write_metrics_csv", "outputs.metrics_csv"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.job = 0
        self.unrestored: set = set()
        self._stack: list = [None]
        self._originals: list = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (name, start, end, parent, self.job)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            original = vars(owner)[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in self._originals:
            setattr(owner, attr, original)
        self.unrestored.update(
            f"{owner.__name__}.{attr}"
            for owner, attr, original in self._originals
            if vars(owner)[attr] is not original
        )
        self._originals = []

    def per_job(self) -> dict:
        """job id -> span name -> [inclusive ns, self ns, calls]."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict = {}
        for span_id, (name, start, end, parent, job) in enumerate(self.spans):
            entry = out.setdefault(job, {}).setdefault(name, [0, 0, 0])
            entry[0] += end - start
            entry[1] += end - start - child_ns[span_id]
            entry[2] += 1
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("span", "parent", "job", "name", "start_ns", "end_ns"))
            for span_id, (name, start, end, parent, job) in enumerate(self.spans):
                writer.writerow(
                    (span_id, "" if parent is None else parent, job, name, start, end)
                )
