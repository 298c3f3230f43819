"""Canned scenario builders used by the repro suites, scripts and tests."""
from __future__ import annotations

import random

from .engine import CommunityConfig, MrsSchedule, RatesConfig, ScenarioConfig


def single_community_dilution(seed: int = 1, steps: int = 10_000) -> ScenarioConfig:
    """One currency, 10 agents, unequal endowments, per-member minting.

    Seven agents are present from the start with random endowments of 0..50
    coins; three more join early on. Every member mints one coin per step
    and a little random trade churns the holder map. The per-agent justice
    value should approach the equal share 1/10.
    """
    endow_rng = random.Random(seed * 7919 + 13)
    initial = [f"a{n}" for n in range(7)]
    joiners = [("a7", 10), ("a8", 20), ("a9", 30)]
    return ScenarioConfig(
        name="single_community_dilution",
        communities=(
            CommunityConfig(
                index=1,
                members=tuple(initial),
                initial_coins={a: endow_rng.randint(0, 50) for a in initial},
            ),
        ),
        steps=steps,
        seed=seed,
        regime="egalitarian_single",
        community=1,
        joins={step: ((agent, 1),) for agent, step in joiners},
        trade_noise=2,
        final_snapshot=False,  # counters carry the metrics; the holder map is large
    )


def pair_convergence_exogenous(seed: int = 7, steps: int = 10_000) -> ScenarioConfig:
    """Two overlapping communities under a substitution schedule heading to 1.5.

    Communities {a, b, c} and {b, c, d}; the overlap pair chooses where to
    mint myopically. With the substitution limit 1.5 the predicted fraction
    of steps minting currency 1 is 0.7 and per-coin rates converge to 1:1.
    """
    return ScenarioConfig(
        name="pair_convergence_exogenous",
        communities=(
            CommunityConfig(1, ("a", "b", "c"), {"a": 1, "b": 1, "c": 1}),
            CommunityConfig(2, ("b", "c", "d"), {"b": 1, "c": 1, "d": 1}),
        ),
        steps=steps,
        seed=seed,
        regime="joint_myopic",
        rates=RatesConfig(
            mode="exogenous",
            mrs12=MrsSchedule(kind="exp_approach", value=1.5, start=1.3, tau=100.0),
        ),
        k_eq=1,
    )


def pair_convergence_endogenous(seed: int = 7, steps: int = 20_000) -> ScenarioConfig:
    """Same communities with preference-driven rates.

    The overlap agents weight the two currencies 0.6/0.4; the outer agents
    only value their own currency. The measured substitution rate should
    stabilize near (1 + 2*0.6)/(3 - 2*0.6) and per-coin rates near 1:1.
    """
    return ScenarioConfig(
        name="pair_convergence_endogenous",
        communities=(
            CommunityConfig(1, ("a", "b", "c"), {"a": 1, "b": 1, "c": 1}),
            CommunityConfig(2, ("b", "c", "d"), {"b": 1, "c": 1, "d": 1}),
        ),
        steps=steps,
        seed=seed,
        regime="joint_myopic",
        rates=RatesConfig(mode="endogenous"),
        k_eq=1,
        preferences={
            "a": {1: 1.0},
            "b": {1: 0.6, 2: 0.4},
            "c": {1: 0.6, 2: 0.4},
            "d": {2: 1.0},
        },
    )


def disjoint_pair_control(seed: int = 3, steps: int = 10_000) -> ScenarioConfig:
    """Negative control: no overlap, so rates cannot be steered to 1:1.

    Two disjoint two-member communities under a constant substitution rate
    of 1.5. Coin volumes grow in lockstep, per-coin rates stay near 1.5, and
    the skewed endowment in community 1 keeps at least one agent visibly
    away from the equal share.
    """
    return ScenarioConfig(
        name="disjoint_pair_control",
        communities=(
            CommunityConfig(1, ("a", "b"), {"a": 49, "b": 1}),
            CommunityConfig(2, ("c", "d"), {"c": 1, "d": 1}),
        ),
        steps=steps,
        seed=seed,
        regime="joint_myopic",
        rates=RatesConfig(
            mode="exogenous", mrs12=MrsSchedule(kind="constant", value=1.5)
        ),
        k_eq=1,
    )


def sybil_locality(seed: int = 11, steps: int = 10_000) -> ScenarioConfig:
    """A genuine community next to one harbouring a duplicate owner.

    Community 1 ("green") has four genuinely owned agents, two of which also
    belong to community 2 ("blue"). Blue additionally contains a genuine
    blue-only agent and a pair of agents run by one person. Green owners'
    value shares should equalize; the duplicate owner should end up with
    about twice a genuine blue owner's share of the blue currency.
    """
    green_only = ("g1", "g2")
    overlap = ("m1", "m2")
    blue_only = ("b1", "s1", "s2")
    owners = [
        ("P_g1", "g1"),
        ("P_g2", "g2"),
        ("P_m1", "m1"),
        ("P_m2", "m2"),
        ("P_b1", "b1"),
        ("P_s", "s1"),
        ("P_s", "s2"),
    ]
    members1 = green_only + overlap
    members2 = overlap + blue_only
    return ScenarioConfig(
        name="sybil_locality",
        communities=(
            CommunityConfig(1, members1, {a: 1 for a in members1}),
            CommunityConfig(2, members2, {a: 1 for a in members2}),
        ),
        steps=steps,
        seed=seed,
        regime="joint_myopic",
        rates=RatesConfig(
            mode="exogenous", mrs12=MrsSchedule(kind="constant", value=1.0)
        ),
        k_eq=1,
        owners=tuple(owners),
    )


CANNED = {
    "single_community_dilution": single_community_dilution,
    "pair_convergence_exogenous": pair_convergence_exogenous,
    "pair_convergence_endogenous": pair_convergence_endogenous,
    "disjoint_pair_control": disjoint_pair_control,
    "sybil_locality": sybil_locality,
}
