"""The currencynet benchmark: end-to-end job times and memory, or a traced per-layer run.

    python3 bench/run.py --workload {endo_pair,exo_wide,settle_tri} --seed N
                         --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its ``src``.
One client runs one job at a time in one process (a closed loop). A job is
what ``currencynet run`` does, followed by verification: validate the
config, run the scenario, check the accounting identity, build the justice
report, build the sybil locality report when the config names owners, and
write the output bundle to a temporary directory.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over fresh
interpreters that import the package, build the config and validate it,
started between jobs throughout the window), ``run_s`` and ``job_s`` (over
the jobs of a ``--seconds`` window) and ``peak_rss_mb`` (a fresh process
running one job). ``--trace 1`` alternates untraced jobs with jobs that
record layer spans (see tracing.py), so both see the same host, then
measures the memory the run's history retains in a tracemalloc pass that
times nothing, and reports the per-layer metrics.

Job times are reported as the fastest job of the window, with the median and
a high percentile printed beside it. On a shared 2-vCPU x86_64 Xeon host,
other tenants slowed identical work by up to twofold for minutes at a time.
Over ten runs, the quartile spread of the window median of 0.15-0.3 s jobs
was 15-25%. The spread of the fastest job was 3-5% while the host was quiet
and grew with the job's length while it was busy: 6-17% for 0.07 s jobs and
20-31% for 0.17 s jobs. Interference only adds time, so the fastest job is
the closest reading of the program's cost.

Progress lines go to standard output; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Generated files go
under ``.bench_work`` in the checkout.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("endo_pair", "exo_wide", "settle_tri")

SETUP_RUNS = 15           # fresh interpreters timed per run, after one that is not
MIN_JOBS = 3              # per timed window, whatever --seconds says
WORKER_TIMEOUT_S = 60

# per-layer metric -> span name; a time is the sum over all calls in one job,
# and the fastest traced job's sum is reported
LAYER_TIMES = {
    "economy.solve_equilibrium.s": "economy.solve_equilibrium",
    "economy.coin_exchange_rates.s": "economy.coin_exchange_rates",
    "economy.mrs_matrix.s": "economy.mrs_matrix",
    "economy.largest_remainder_targets.s": "economy.largest_remainder_targets",
    "minting.most_valued_coin.s": "minting.most_valued_coin",
    "engine.validate_s": "engine.validate",
    "accounting.append_step.s": "accounting.append_step",
    "accounting.check_s": "accounting.check",
    "ledger.snapshot_s": "ledger.snapshot",
    "justice.report_s": "justice.report",
    "identity.sybil_report_s": "identity.sybil_report",
    "outputs.bundle_s": "outputs.bundle",
    "outputs.metrics_csv_s": "outputs.metrics_csv",
}
LAYER_CALLS = {
    "economy.solve_equilibrium.calls": "economy.solve_equilibrium",
    "economy.coin_exchange_rates.calls": "economy.coin_exchange_rates",
    "economy.largest_remainder_targets.calls": "economy.largest_remainder_targets",
    "minting.most_valued_coin.calls": "minting.most_valued_coin",
    "accounting.append_step.calls": "accounting.append_step",
    "ledger.snapshots": "ledger.snapshot",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def fastest_s(values_ns) -> float:
    return min(values_ns) / 1e9


def median_s(values_ns) -> float:
    return statistics.median(values_ns) / 1e9


def describe(values_ns) -> str:
    """Fastest, median, and the highest percentile with ten samples above it."""
    ordered = sorted(values_ns)
    n = len(ordered)
    text = f"fastest {ordered[0] / 1e9:.4g} s, median {statistics.median(ordered) / 1e9:.4g} s"
    if n > 10:
        text += f", p{100 * (n - 10) // n} {ordered[n - 11] / 1e9:.4g} s"
    return text + f" over {n} jobs"


class Session:
    """Runs jobs in this process, counting attempts and failures.

    A job fails if it raises or fails its output check; its bundle digest and
    work counts must also equal those of the first good job of the session.
    """

    def __init__(self, name, config, workdir):
        self.name = name
        self.config = config
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.digest = None
        self.counts = None
        self.max_deviation = None

    def job(self, tracer=None):
        """Run one job, traced if ``tracer`` is given.

        Returns (job id, run ns, job ns), or None if the job failed.
        """
        from job import job_counts, job_problems, run_job

        gc.collect()
        job_id = self.attempted
        self.attempted += 1
        if tracer is not None:
            tracer.job = job_id
            tracer.install()
        try:
            job = run_job(self.config, self.workdir)
        except Exception:
            self.failed += 1
            print(f"job {job_id} raised:", file=sys.stderr)
            traceback.print_exc()
            return None
        finally:
            if tracer is not None:
                tracer.uninstall()
        problems = job_problems(self.name, job)
        counts = job_counts(job)
        if self.digest is None and not problems:
            self.digest, self.counts = job.digest, counts
            self.max_deviation = job.justice.max_final_deviation()
        if self.digest is not None and job.digest != self.digest:
            problems.append("bundle sha256 differs from the first job's")
        if self.counts is not None and counts != self.counts:
            problems.append(f"work counts {counts} differ from the first job's {self.counts}")
        if problems:
            self.failed += 1
            print(f"job {job_id} failed its check: {'; '.join(problems)}", file=sys.stderr)
            return None
        return job_id, job.run_ns, job.job_ns

    def window(self, seconds: float, minimum: int = MIN_JOBS, between=None) -> list:
        """Run jobs back to back for ``seconds`` (and at least ``minimum`` jobs).

        ``between``, if given, is called after each job with the fraction of
        the window elapsed.
        """
        done = []
        tried = 0
        start = time.perf_counter()
        while tried < minimum or time.perf_counter() < start + seconds:
            tried += 1
            outcome = self.job()
            if outcome is not None:
                done.append(outcome)
            if between is not None:
                between((time.perf_counter() - start) / seconds)
        if not done:
            raise BenchError("every job in the window failed")
        return done


def worker(args):
    """Start bench/worker.py with src importable; returns the process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )


def finish(proc, timeout=WORKER_TIMEOUT_S) -> str:
    """Wait for a worker and return the rest of its output."""
    try:
        rest, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return rest


def setup_seconds(name: str, seed: int) -> float:
    """Wall time from starting a fresh interpreter to its "ready" line."""
    start = time.perf_counter()
    proc = worker(["setup", name, str(seed)])
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    finish(proc)
    if line.strip() != "ready":
        raise BenchError(f"setup worker printed {line!r} instead of 'ready'")
    return elapsed


def rss_pass(session: Session, seed: int) -> float:
    """Peak resident memory, in MB, of a fresh process that runs one job."""
    session.attempted += 1
    report = json.loads(finish(worker(["rss", session.name, str(seed), str(session.workdir)])))
    problems = report["problems"]
    if session.digest is not None and report["digest"] != session.digest:
        problems.append("bundle sha256 of the fresh process differs from this process's")
    if problems:
        session.failed += 1
        print(f"fresh-process job failed its check: {'; '.join(problems)}", file=sys.stderr)
    return report["maxrss_kb"] / 1024


def history_retained_mb(config) -> float:
    """Memory the run's history holds once the run returns, from tracemalloc.

    Nothing is timed here: tracemalloc slows the run many times over.
    """
    import tracemalloc

    from currencynet import engine

    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = engine.run_scenario(config)
        history = result.history  # held while measuring; the rest of the result is freed
        del result
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
        del history
    finally:
        tracemalloc.stop()
    return retained / 2**20


def end_to_end(session: Session, seed: int, seconds: float) -> dict:
    setup = []

    def sample_setup(progress):
        # spread over the window, so the median sees the same host as the jobs
        if len(setup) < SETUP_RUNS * progress:
            setup.append(setup_seconds(session.name, seed))

    setup_seconds(session.name, seed)  # not counted: the first start may compile bytecode
    session.job()  # warm-up: the reference digest, and lazy set-up done before timing
    peak_mb = rss_pass(session, seed)
    jobs = session.window(seconds, between=sample_setup)
    while len(setup) < SETUP_RUNS:
        setup.append(setup_seconds(session.name, seed))
    runs = [run for _, run, _ in jobs]
    totals = [total for _, _, total in jobs]
    print(f"setup_s: median of {len(setup)} fresh interpreters")
    print(f"run_s: {describe(runs)} in {seconds:g} s")
    print(f"job_s: {describe(totals)} in {seconds:g} s")
    print("peak_rss_mb: one job in a fresh process")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (fastest_s(runs), "s"),
        "job_s": (fastest_s(totals), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def per_layer(session: Session, seed: int, seconds: float) -> tuple:
    """Per-layer metrics and the self-check problems of the traced run."""
    from tracing import Tracer

    problems = []
    tracer = Tracer()
    traced = []

    def traced_job(progress):
        outcome = session.job(tracer)
        if outcome is not None:
            traced.append(outcome)

    session.job()  # warm-up
    untraced = session.window(seconds, minimum=2, between=traced_job)
    if tracer.unrestored:
        problems.append(f"names not restored after tracing: {sorted(tracer.unrestored)}")
    if len(traced) < 2:
        raise BenchError("fewer than two traced jobs passed their checks")

    layers = tracer.per_job()
    traced_layers = [layers.get(job_id, {}) for job_id, _, _ in traced]
    for (job_id, _, job_ns), spans in zip(traced, traced_layers):
        self_ns = sum(entry[1] for entry in spans.values())
        if self_ns > job_ns:
            problems.append(f"job {job_id}: span self times {self_ns} ns exceed job {job_ns} ns")
    calls = [{name: entry[2] for name, entry in spans.items()} for spans in traced_layers]
    if any(c != calls[0] for c in calls):
        problems.append("call counts differ between traced jobs")

    def span_fastest(name, field):
        return fastest_s([spans.get(name, (0, 0, 0))[field] for spans in traced_layers])

    counts = session.counts
    untraced_run = fastest_s([run for _, run, _ in untraced])
    # each traced job directly follows an untraced one, so the pair shares the
    # host's state; the median difference over pairs is the tracing overhead
    traced_runs = {job_id: run for job_id, run, _ in traced}
    pairs = [
        traced_runs[job_id + 1] - run for job_id, run, _ in untraced if job_id + 1 in traced_runs
    ]
    if not pairs:
        raise BenchError("no traced job directly follows a good untraced one")
    overhead = median_s(pairs)
    metrics = {metric: (span_fastest(span, 0), "s") for metric, span in LAYER_TIMES.items()}
    metrics.update(
        {metric: (calls[0].get(span, 0), "count") for metric, span in LAYER_CALLS.items()}
    )
    metrics.update(
        {
            "economy.solver_iterations": (counts["economy.solver_iterations"], "count"),
            "engine.self_s": (span_fastest("engine.run", 1), "s"),
            "engine.agent_steps": (counts["engine.agent_steps"], "count"),
            "engine.us_per_agent_step": (
                untraced_run * 1e6 / counts["engine.agent_steps"], "us"
            ),
            "accounting.checks": (counts["accounting.checks"], "count"),
            "accounting.history_retained_mb": (history_retained_mb(session.config), "MB"),
            "justice.max_final_deviation": (session.max_deviation, "ratio"),
            "outputs.metrics_rows": (counts["outputs.metrics_rows"], "count"),
            "outputs.bundle_bytes": (counts["outputs.bundle_bytes"], "bytes"),
            "trace.untraced_run_s": (untraced_run, "s"),
            "trace.run_s": (fastest_s(traced_runs.values()), "s"),
            "trace.job_s": (fastest_s([total for _, _, total in traced]), "s"),
            "trace.overhead_s": (overhead, "s"),
            "trace.overhead_ratio": (overhead / untraced_run, "ratio"),
        }
    )
    spans_path = WORK / f"trace-{session.name}-{seed}.csv.gz"
    tracer.write(spans_path)
    print(f"{len(untraced)} untraced and {len(traced)} traced jobs; spans in {spans_path}")
    return metrics, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "currencynet" / "__init__.py").is_file():
        print(f"error: no currencynet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    try:
        config = workloads.build(args.workload, args.seed)
    except workloads.WorkloadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    agents = {a for cc in config.communities for a in cc.members}
    print(
        f"{args.workload} seed {args.seed}: {len(agents)} agents, k={config.k}, "
        f"{config.steps} steps, rates {config.rates.mode}"
    )

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    session = Session(args.workload, config, workdir)
    try:
        if args.trace:
            metrics, problems = per_layer(session, args.seed, args.seconds)
        else:
            metrics, problems = end_to_end(session, args.seed, args.seconds), []
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print(f"self-check failed: {problem}", file=sys.stderr)
    error_rate = session.failed / session.attempted
    for name, (value, unit) in metrics.items():
        print(f"  {name:40} {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    print(
        f"  {'error_rate':40} {error_rate:.6g} ratio "
        f"({session.failed} of {session.attempted} jobs)"
    )
    print(
        json.dumps(
            {
                "correct": session.failed == 0 and not problems,
                "attempted": session.attempted,
                "failed": session.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
