"""Seeded scenario configs for the benchmark workloads, and their output checks.

Every workload keeps its shape (agent count, community layout, steps) fixed
and draws only the details from the seed: who sits in an overlap, initial
endowments, preference weights, schedule time constant and the run's own
random stream. That keeps the amount of work per job the same across seeds,
so run-to-run spread reflects the machine rather than the inputs.

Jobs are kept short (40 to 200 steps, where the paper's runs take 10k) so
that one timed window holds a hundred or more of them; the benchmark reports
the fastest, and the shorter the job, the likelier it is that some run of it
sees no interference from other work on a shared host.
"""
from __future__ import annotations

import random

from currencynet import scenarios
from currencynet.engine import (
    CommunityConfig,
    MrsSchedule,
    RatesConfig,
    ScenarioConfig,
    validate_config,
)
from currencynet.justice import convergence_report

ENDO_PAIR_STEPS = 200

EXO_WIDE_AGENTS = 60  # a third only in 1, a third in both, a third only in 2
# at 60 steps, 1 seed in 60 to 1 in 400 (for 120 to 300 agents) ended with
# trailing ex12 just outside the 0.01 band; at 90 the worst of 800 seeds was
# 0.0078 for 60 agents and 0.0079 for 120
EXO_WIDE_STEPS = 90
EXO_WIDE_LIMIT = 1.5

SETTLE_TRI_BLOCKS = (5, 4, 6, 4, 5)   # only 1, 1 and 2, only 2, 2 and 3, only 3
SETTLE_TRI_STEPS = 40
SETTLE_TRI_SNAPSHOT_INTERVAL = 5


def endo_pair(seed: int) -> ScenarioConfig:
    return scenarios.pair_convergence_endogenous(seed=seed, steps=ENDO_PAIR_STEPS)


def exo_wide(seed: int) -> ScenarioConfig:
    rng = random.Random(seed)
    names = [f"v{n:03d}" for n in range(EXO_WIDE_AGENTS)]
    rng.shuffle(names)
    third = EXO_WIDE_AGENTS // 3
    only_1, both, only_2 = names[:third], names[third:2 * third], names[2 * third:]
    members_1 = tuple(sorted(only_1 + both))
    members_2 = tuple(sorted(both + only_2))
    return ScenarioConfig(
        name="exo_wide",
        communities=(
            CommunityConfig(1, members_1, {a: rng.randint(1, 3) for a in members_1}),
            CommunityConfig(2, members_2, {a: rng.randint(1, 3) for a in members_2}),
        ),
        steps=EXO_WIDE_STEPS,
        seed=seed,
        regime="joint_myopic",
        rates=RatesConfig(
            mode="exogenous",
            mrs12=MrsSchedule(
                kind="exp_approach",
                value=EXO_WIDE_LIMIT,
                start=1.0,
                tau=rng.uniform(20.0, 40.0),
            ),
        ),
        k_eq=1,
        trade_noise=EXO_WIDE_AGENTS // 4,
        final_snapshot=False,
    )


def settle_tri(seed: int) -> ScenarioConfig:
    """Three chained communities: 1 overlaps 2, 2 overlaps 3, 1 and 3 are apart."""
    rng = random.Random(seed)
    names = [f"s{n:02d}" for n in range(sum(SETTLE_TRI_BLOCKS))]
    rng.shuffle(names)
    blocks = []
    for size in SETTLE_TRI_BLOCKS:
        blocks.append(names[:size])
        names = names[size:]
    only_1, x12, only_2, x23, only_3 = blocks
    members = (
        tuple(sorted(only_1 + x12)),
        tuple(sorted(x12 + only_2 + x23)),
        tuple(sorted(x23 + only_3)),
    )
    preferences = {}
    agents = sorted(a for block in blocks for a in block)
    for agent in agents:
        mine = [i + 1 for i, who in enumerate(members) if agent in who]
        raw = {i: rng.uniform(0.5, 1.0) for i in mine}
        total = sum(raw.values())
        preferences[agent] = {i: w / total for i, w in raw.items()}
    # one person runs two agents of community 2; everyone else owns one agent
    duplicate = sorted(only_2)[:2]
    owners = [(f"P_{a}", a) for a in agents if a not in duplicate]
    owners += [("P_dup", a) for a in duplicate]
    return ScenarioConfig(
        name="settle_tri",
        communities=tuple(
            CommunityConfig(i + 1, who, {a: rng.randint(1, 3) for a in who})
            for i, who in enumerate(members)
        ),
        steps=SETTLE_TRI_STEPS,
        seed=seed,
        regime="joint_myopic",
        rates=RatesConfig(mode="endogenous", tol=1e-12, max_iter=5000),
        k_eq=1,
        settlement=True,
        preferences=preferences,
        owners=tuple(sorted(owners)),
        snapshot_interval=SETTLE_TRI_SNAPSHOT_INTERVAL,
    )


BUILDERS = {"endo_pair": endo_pair, "exo_wide": exo_wide, "settle_tri": settle_tri}

# repro thm1 bounds: trailing ex12 within EX12_BAND of 1 and every final
# share within SHARE_TOL of 1/n
EX12_BAND = {"endo_pair": 0.02, "exo_wide": 0.01}
SHARE_TOL = 1e-2


class WorkloadError(Exception):
    """A generated config the benchmark refuses to run."""


def build(name: str, seed: int) -> ScenarioConfig:
    """The workload's config for ``seed``, after the config checks pass."""
    config = BUILDERS[name](seed)
    diagnostics = validate_config(config)
    errors = [d for d in diagnostics if d.level == "error"]
    if errors:
        raise WorkloadError(
            f"{name} seed {seed}: "
            + "; ".join(f"{d.code}: {d.message}" for d in errors)
        )
    if name == "exo_wide" and not any(
        d.level == "info" and d.code == "convergence" for d in diagnostics
    ):
        raise WorkloadError(f"exo_wide seed {seed}: convergence condition not reported")
    return config


def output_problems(name: str, result, justice) -> list:
    """Workload-specific result checks; an empty list means the job passed them."""
    problems = []
    if name in EX12_BAND:
        ex12 = convergence_report(result.ex12).trailing_mean
        if abs(ex12 - 1.0) >= EX12_BAND[name]:
            problems.append(f"trailing ex12 {ex12} not within {EX12_BAND[name]} of 1")
        worst = justice.max_final_deviation()
        if worst >= SHARE_TOL:
            problems.append(f"max |share - 1/n| = {worst} not below {SHARE_TOL}")
    return problems
