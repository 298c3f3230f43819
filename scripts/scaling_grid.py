#!/usr/bin/env python3
"""Scaling grid: run time per agent-step and retained memory against agent count.

Each point is an exogenous joint-myopic run on two overlapping communities:
a third of the agents only in community 1, a third in both, a third only in
community 2, one to three initial coins each, a constant substitution rate
of 1.5 and n/4 random payments a step. The time is the fastest of
``REPEATS`` untraced runs, and ``bundle`` the fastest of ``REPEATS`` writes
of the last run's output bundle to a temporary directory. Memory comes from
a separate ``tracemalloc`` pass that times nothing (tracing slows a run many
times over): ``retained`` is what the run's history holds once the run
returns, ``peak`` the most the run had allocated at once. ``peak RSS`` is
the resident high-water mark of one more run of the point, in a fresh
interpreter, so that neither this process's earlier points nor the parent
it was forked from count: ``VmHWM`` from ``/proc/self/status``, which exec
resets, or ``ru_maxrss`` where ``/proc`` is missing, which keeps the
parent's mark.

    python scripts/scaling_grid.py                              # 30 x 2000, 300 x 1000, 3000 x 300
    python scripts/scaling_grid.py --agents 30 300 --steps 200
    python scripts/scaling_grid.py --one-point 3000 10000       # one run: time and peak RSS
"""
import argparse
import gc
import os
import random
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import currencynet
from currencynet import outputs
from currencynet.engine import (
    CommunityConfig,
    MrsSchedule,
    RatesConfig,
    ScenarioConfig,
    run_scenario,
)

DEFAULT_GRID = ((30, 2000), (300, 1000), (3000, 300))
REPEATS = 3  # untraced runs per point


def grid_config(agents: int, steps: int, seed: int = 1) -> ScenarioConfig:
    rng = random.Random(seed)
    names = [f"a{n:05d}" for n in range(agents)]
    third = agents // 3
    members_1 = tuple(names[: 2 * third])
    members_2 = tuple(names[third:])
    return ScenarioConfig(
        name=f"scaling_{agents}x{steps}",
        communities=(
            CommunityConfig(1, members_1, {a: rng.randint(1, 3) for a in members_1}),
            CommunityConfig(2, members_2, {a: rng.randint(1, 3) for a in members_2}),
        ),
        steps=steps,
        seed=seed,
        regime="joint_myopic",
        rates=RatesConfig(mode="exogenous", mrs12=MrsSchedule(kind="constant", value=1.5)),
        k_eq=1,
        trade_noise=agents // 4,
        final_snapshot=False,
    )


def time_point(config: ScenarioConfig, repeats: int) -> tuple:
    """The fastest of ``repeats`` untraced runs, in seconds, and the last run's result."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = run_scenario(config)
        best = min(best, time.perf_counter() - start)
    return best, result


def bundle_point(result, repeats: int) -> float:
    """The fastest of ``repeats`` writes of ``result``'s output bundle, in seconds."""
    best = float("inf")
    with tempfile.TemporaryDirectory() as outdir:
        for _ in range(repeats):
            start = time.perf_counter()
            outputs.write_bundle(result, outdir)
            best = min(best, time.perf_counter() - start)
    return best


def memory_point(config: ScenarioConfig) -> tuple:
    """(retained, peak) in MB, from one traced run that is not timed."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        history = run_scenario(config).history  # the rest of the result is freed
        gc.collect()
        current, peak = tracemalloc.get_traced_memory()
        del history
    finally:
        tracemalloc.stop()
    return (current - base) / 2**20, (peak - base) / 2**20


def peak_rss_mb(status: str = "/proc/self/status") -> float:
    """This process's resident high-water mark in MB.

    ``VmHWM`` from ``status``; where that file is missing, ``ru_maxrss``.
    """
    try:
        with open(status) as lines:
            for line in lines:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except FileNotFoundError:
        pass
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return maxrss / 2**20 if sys.platform == "darwin" else maxrss / 1024  # bytes there, else kB


def one_point(agents: int, steps: int) -> tuple:
    """One run of the point in this process: its seconds and the process's peak RSS in MB."""
    start = time.perf_counter()
    run_scenario(grid_config(agents, steps))
    return time.perf_counter() - start, peak_rss_mb()


def rss_point(agents: int, steps: int) -> float:
    """Peak RSS in MB of one run of the point, in a fresh interpreter."""
    # the child imports the package this process imported
    src = str(Path(currencynet.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    done = subprocess.run(
        [sys.executable, __file__, "--one-point", str(agents), str(steps)],
        env=env, capture_output=True, text=True, check=True,
    )
    return float(done.stdout.split()[-2])


def grid(points, repeats: int) -> list:
    rows = []
    for agents, steps in points:
        config = grid_config(agents, steps)
        seconds, result = time_point(config, repeats)
        bundle = bundle_point(result, repeats)
        del result  # freed before the memory pass
        retained, peak = memory_point(config)
        rss = rss_point(agents, steps)
        per_agent_step = seconds / (agents * steps) * 1e6
        rows.append((agents, steps, seconds, per_agent_step, bundle, retained, peak, rss))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--agents", type=int, nargs="+", help="agent counts, default 30 300 3000")
    parser.add_argument(
        "--steps", type=int, nargs="+",
        help="steps, one for every agent count or one for all; default 2000 1000 300",
    )
    parser.add_argument(
        "--one-point", type=int, nargs=2, metavar=("AGENTS", "STEPS"),
        help="run one point once, in this process, and print its time and peak RSS",
    )
    args = parser.parse_args(argv)
    if args.one_point:
        agents, steps = args.one_point
        if agents < 3 or steps < 1:
            parser.error("need at least 3 agents and 1 step")
        seconds, rss = one_point(agents, steps)
        print(f"{agents} × {steps}: run {seconds:.3f} s, peak RSS {rss:.2f} MB")
        return 0
    agents = args.agents or [n for n, _ in DEFAULT_GRID]
    steps = args.steps or [s for _, s in DEFAULT_GRID]
    if len(steps) == 1:
        steps = steps * len(agents)
    if len(steps) != len(agents) or min(agents) < 3 or min(steps) < 1:
        parser.error("need at least 3 agents and 1 step a point, and one --steps or one per agent count")
    print("| agents × steps | run | µs/agent-step | bundle | retained | peak | peak RSS |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for n, t, seconds, per_agent_step, bundle, retained, peak, rss in grid(
        zip(agents, steps), REPEATS
    ):
        print(
            f"| {n} × {t} | {seconds:.3g} s | {per_agent_step:.2f} | {bundle:.3g} s "
            f"| {retained:.2f} MB | {peak:.2f} MB | {rss:.2f} MB |"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
