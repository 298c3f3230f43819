"""One benchmark job: what `currencynet run` does, followed by verification.

The job calls every layer through its module attribute (``engine.run_scenario``
and not an imported name), so the traced run can rebind those attributes.
"""
from __future__ import annotations

import hashlib
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from currencynet import accounting, engine, identity, outputs
from currencynet.justice import JusticeReport

import workloads


@dataclass
class Job:
    run_ns: int
    job_ns: int
    result: engine.RunResult
    accounting_report: accounting.AccountingReport
    justice: JusticeReport
    digest: str
    bundle_bytes: int
    metrics_rows: int


def run_job(config: engine.ScenarioConfig, workdir: Path) -> Job:
    """Steps 1-6 of a job, timed; the bundle goes to a temporary directory."""
    clock = time.perf_counter_ns
    outdir = Path(tempfile.mkdtemp(dir=workdir))
    try:
        start = clock()
        engine.validate_config(config)
        run_start = clock()
        result = engine.run_scenario(config)
        run_end = clock()
        report = accounting.check_accounting_identity(result.history)
        justice = result.justice_report()
        if config.owners:
            identity.sybil_locality_report(
                result.history,
                identity.OwnershipMap.from_pairs(config.owners),
                result.rates_timeline,
            )
        outputs.write_bundle(result, outdir)
        end = clock()
        digest, size, rows = bundle_digest(outdir)
    finally:
        shutil.rmtree(outdir)
    return Job(run_end - run_start, end - start, result, report, justice, digest, size, rows)


def bundle_digest(outdir: Path) -> tuple:
    """sha256 over the bundle's file names and bytes, its size, and the metrics rows."""
    sha = hashlib.sha256()
    size = 0
    rows = 0
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        sha.update(path.name.encode() + b"\0" + data)
        size += len(data)
        if path.name == "metrics.csv":
            rows = data.count(b"\n") - 1
    return sha.hexdigest(), size, rows


def job_problems(name: str, job: Job) -> list:
    """The per-job output check; an empty list means the job is correct."""
    problems = []
    if not job.accounting_report.ok:
        first = job.accounting_report.violations[0]
        problems.append(
            f"accounting identity violated {len(job.accounting_report.violations)} "
            f"times, first at t={first.t}: {first.detail}"
        )
    problems += workloads.output_problems(name, job.result, job.justice)
    return problems


def job_counts(job: Job) -> dict:
    """Work counts that must repeat exactly for one config."""
    history = job.result.history
    return {
        "economy.solver_iterations": sum(e.iterations for e in job.result.solver_log),
        "engine.agent_steps": sum(
            history.member_count(t) for t in range(1, history.last_step + 1)
        ),
        "accounting.checks": job.accounting_report.checks,
        "outputs.metrics_rows": job.metrics_rows,
        "outputs.bundle_bytes": job.bundle_bytes,
    }
