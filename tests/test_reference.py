"""The engine against the value-semantics reference layer, step by step.

The reference replays a run on ``ledger`` networks: joins through
``with_member``, minting through ``minting.mint_step``, join grants as a
second ``mint_step`` with a birth grant, and settlement through
``economy.settle_trades`` toward the demand at the engine's equilibrium
prices. On random small configs, every regime and strategy, its minted
record and holder map must equal the engine's at every step.
"""
import random

import hypothesis.strategies as st
from hypothesis import assume, example, given, settings

from currencynet.economy import (
    PreferenceProfile,
    demand,
    diluted_balances,
    mrs_matrix,
    settle_trades,
)
from currencynet.engine import (
    CommunityConfig,
    MrsSchedule,
    RatesConfig,
    ScenarioConfig,
    _mask_weights,
    initial_network,
    parse_regime,
    run_scenario,
    validate_config,
)
from currencynet.errors import DegenerateEconomyError
from currencynet.minting import EqualBirthGrant, mint_step

AGENTS = ("a", "b", "c", "d", "e")
NEWCOMER = "f"  # joins without an initial membership
REGIMES = (
    "joint_myopic",
    "joint_defensive",
    "joint_egocentric",
    "joint_fixed",
    "joint_random",
    "equal_birth_grant",
    "egalitarian_single",
)


@st.composite
def weight_rows(draw, memberships):
    """Explicit Cobb-Douglas weights for some agents, zero weights included."""
    rows = {}
    for agent, own in sorted(memberships.items()):
        raw = [draw(st.integers(0, 4)) for _ in own]
        if any(raw) and draw(st.booleans()):
            rows[agent] = {i: w / sum(raw) for i, w in zip(own, raw)}
    return rows


@st.composite
def configs(draw):
    k = draw(st.integers(1, 3))
    regime = draw(st.sampled_from(REGIMES))
    endogenous = k >= 2 and draw(st.booleans())
    members = [
        draw(st.sets(st.sampled_from(AGENTS), min_size=1, max_size=4)) for _ in range(k)
    ]
    if endogenous:  # chain the communities, or the prices are indeterminate
        for i in range(1, k):
            members[i].add(draw(st.sampled_from(sorted(members[i - 1]))))
    extra = {}
    joiners = AGENTS + (NEWCOMER,)
    if regime == "joint_fixed":
        # every agent, joiners included, must be a member of the fixed currency
        fixed = draw(st.integers(1, k))
        members[fixed - 1] = set().union(*members)
        joiners = tuple(sorted(members[fixed - 1]))
        regime = f"joint_fixed:{fixed}"
    elif regime == "equal_birth_grant":
        extra["grant"] = draw(st.integers(1, 3))
    elif regime == "egalitarian_single":
        extra["community"] = draw(st.integers(1, k))
    steps = draw(st.integers(1, 25))

    eventual = [set(who) for who in members]
    joins = {}
    for _ in range(draw(st.integers(0, 3))):
        t = draw(st.integers(1, steps))
        agent = draw(st.sampled_from(joiners))
        i = draw(st.integers(1, k))
        if agent not in eventual[i - 1]:
            eventual[i - 1].add(agent)
            joins[t] = joins.get(t, ()) + ((agent, i),)

    communities = tuple(
        CommunityConfig(
            i + 1,
            tuple(sorted(who)),
            {a: n for a in sorted(who) if (n := draw(st.integers(0, 3)))},
        )
        for i, who in enumerate(members)
    )
    memberships = {}
    for i, who in enumerate(eventual, 1):
        for agent in who:
            memberships.setdefault(agent, []).append(i)
    if endogenous:
        rates = RatesConfig(mode="endogenous")
    elif k == 2 and draw(st.booleans()):
        mrs12 = MrsSchedule(kind="constant", value=draw(st.floats(0.2, 5.0)))
        rates = RatesConfig(mode="exogenous", mrs12=mrs12)
    elif k >= 2:
        prices = [draw(st.floats(0.2, 5.0)) for _ in range(k)]
        rates = RatesConfig(mode="exogenous", mrs_matrix=mrs_matrix(prices))
    else:
        rates = RatesConfig(mode="exogenous")
    t_fix = draw(st.integers(0, steps))
    config = ScenarioConfig(
        name="reference_replay",
        communities=communities,
        steps=steps,
        seed=draw(st.integers(0, 1000)),
        regime=regime,
        joins=joins,
        join_grant=draw(st.integers(0, 2)),
        rates=rates,
        k_eq=draw(st.integers(1, 3)),
        settlement=endogenous and draw(st.booleans()),
        preferences=draw(weight_rows(memberships)) or None,
        preferences_initial=(draw(weight_rows(memberships)) or None) if t_fix else None,
        t_fix=t_fix,
        snapshot_interval=1,
        **extra,
    )
    assume(not [d for d in validate_config(config) if d.level == "error"])
    return config


def masked_weights(config, network, t):
    """Each agent's weights at step t, masked to its current memberships."""
    memberships = {
        agent: {i for i in network.currencies if agent in network.members(i)}
        for agent in network.agents
    }
    initial = config.preferences_initial is not None and t < config.t_fix
    source = config.preferences_initial if initial else config.preferences
    return _mask_weights(source, memberships, config.k)


# settlement: b's lowest-serial coin of currency 2 moves, not the newest
SETTLED_PAIR = ScenarioConfig(
    name="settled_pair",
    communities=(
        CommunityConfig(1, ("a", "b")),
        CommunityConfig(2, ("a", "b"), {"b": 2}),
    ),
    steps=1,
    seed=0,
    regime="joint_fixed:1",
    settlement=True,
    snapshot_interval=1,
)
# egocentric gains w / b that tie exactly, whatever coins the others mint first
EGOCENTRIC_TIES = ScenarioConfig(
    name="egocentric_ties",
    communities=(
        CommunityConfig(1, ("a", "b", "e")),
        CommunityConfig(2, ("a", "b", "c", "d", "e"), {"b": 1, "d": 2}),
    ),
    steps=13,
    seed=0,
    regime="joint_egocentric",
    snapshot_interval=1,
)


@settings(max_examples=400)
@given(configs())
@example(SETTLED_PAIR)
@example(EGOCENTRIC_TIES)
def test_reference_layer_replays_every_engine_step(config):
    try:
        result = run_scenario(config)
    except DegenerateEconomyError:
        assume(False)  # the prices turned indeterminate mid-run
    regime = parse_regime(config)
    steps = result.history.steps
    prices = {event.t: event.prices for event in result.solver_log}
    rng = random.Random(config.seed)
    network = initial_network(config)
    assert network.holder == steps[0].network.holder
    for t in range(1, config.steps + 1):
        joiners = config.joins.get(t, ())
        for agent, i in joiners:
            network = network.with_member(agent, i)
        weights = masked_weights(config, network, t)
        network, minted = mint_step(
            network,
            regime,
            rates=result.rates_timeline[t],
            prefs=PreferenceProfile(weights, config.k),
            rng=rng,
            joiners=joiners,
        )
        if config.join_grant and not isinstance(regime, EqualBirthGrant):
            network, granted = mint_step(
                network, EqualBirthGrant(config.join_grant), joiners=joiners
            )
            for key, n in granted.items():
                minted[key] = minted.get(key, 0) + n
        if config.settlement and t in prices:
            agents, endowment = diluted_balances(network)
            allocation = demand(endowment, [weights[a] for a in agents], prices[t])
            network = settle_trades(network, allocation, agents)
        assert minted == steps[t].minted, t
        assert network.holder == steps[t].network.holder, t
        assert network.communities == steps[t].network.communities, t
