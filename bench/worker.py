"""Fresh-process passes of the benchmark, started by run.py with src on PYTHONPATH.

    worker.py setup WORKLOAD SEED         import, build and validate the config,
                                          then print "ready"
    worker.py rss WORKLOAD SEED WORKDIR   run one job and print one JSON line with
                                          the peak resident memory and the bundle digest
"""
from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

import workloads
from job import job_problems, run_job


def main(argv: list) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    config = workloads.build(name, seed)
    if mode == "setup":
        print("ready", flush=True)
        return 0
    job = run_job(config, Path(argv[3]))
    print(
        json.dumps(
            {
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "digest": job.digest,
                "problems": job_problems(name, job),
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
