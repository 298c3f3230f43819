"""The engine against the value-semantics reference layer, step by step.

The reference replays a run on ``ledger`` networks: joins through
``with_member``, minting through ``minting.mint_step``, join grants as a
second ``mint_step`` with a birth grant, and settlement through
``economy.settle_trades`` toward the demand at the engine's equilibrium
prices. Trade noise is replayed with ``ledger.pay``, taking the engine's
draws from the same generator. It solves each equilibrating step itself, with ``solve_equilibrium``
on the replayed network's diluted balances, and builds the rates with the
fully validated ``coin_exchange_rates``. Its counters come from
``History.extend`` on the replayed networks. On random small configs, every
regime and strategy, its minted record, holder map and counters must equal
the engine's at every step, over the same key index, and its prices and
rates must match the engine's to 1e-12 relative: the engine solves from
exact integer market sums, and k = 3 sums are taken in another order.
"""
import math
import random

import hypothesis.strategies as st
from hypothesis import assume, example, given, settings

from currencynet.accounting import History
from currencynet.economy import (
    ExchangeRateMatrix,
    PreferenceProfile,
    coin_exchange_rates,
    demand,
    diluted_balances,
    mrs_matrix,
    settle_trades,
    solve_equilibrium,
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
from currencynet.ledger import Coin, pay
from currencynet.minting import EqualBirthGrant, mint_step

from conftest import tally

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
def configs(draw, currencies=(1, 3)):
    k = draw(st.integers(*currencies))
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
        trade_noise=draw(st.integers(0, 3)),
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


def exogenous_mrs(config, t):
    """The configured substitution rates in force at step t."""
    if config.rates.mrs_matrix is not None:
        return config.rates.mrs_matrix
    m = float(config.rates.mrs12.at(t))
    return ((1.0, m), (1.0 / m, 1.0))


def trade_noise(network, draws, start_counts, rng):
    """The engine's noise trades: each pays a random coin that existed at the
    step's start (currency drawn only when several had coins) to a random
    member of its community, both drawn from ``rng`` in the engine's order."""
    candidates = [i for i, n in zip(network.currencies, start_counts) if n]
    for _ in range(draws if candidates else 0):
        i = candidates[0]
        if len(candidates) > 1:
            i = candidates[int(rng.random() * len(candidates))]
        coin = Coin(i, int(rng.random() * start_counts[i - 1]))
        group = sorted(network.members(i))
        payee = group[int(rng.random() * len(group))]
        payer = network.holder[coin]
        if payer != payee:
            network = pay(network, coin, payer, payee)
    return network


def assert_close(actual, expected, what):
    """Equal shapes, and every entry within 1e-12 relative."""
    actual = [x for row in actual for x in row]
    expected = [x for row in expected for x in row]
    assert len(actual) == len(expected), what
    for a, b in zip(actual, expected):
        assert math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0), (what, actual, expected)


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
    endogenous = config.rates.mode == "endogenous"
    prices = {event.t: event.prices for event in result.solver_log}
    events = {event.t: event for event in result.rates_log}
    rng = random.Random(config.seed)
    network = initial_network(config)
    assert network.holder == steps[0].network.holder
    history = History(network)
    rates = ExchangeRateMatrix.ones(config.k).ex
    for t in range(1, config.steps + 1):
        assert_close(result.rates_timeline[t].ex, rates, ("rates in force", t))
        joiners = config.joins.get(t, ())
        for agent, i in joiners:
            network = network.with_member(agent, i)
        weights = masked_weights(config, network, t)
        start_counts = [network.coin_count(i) for i in network.currencies]
        # the engine's matrix, held to ``rates`` above, carries the exact
        # ranking that the replay's float rates cannot
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
        network = trade_noise(network, config.trade_noise, start_counts, rng)
        counts = [network.coin_count(i) for i in network.currencies]
        equilibrates = config.k >= 2 and t % config.k_eq == 0 and all(counts)
        assert (t in events) == equilibrates, t
        if equilibrates:
            agents, endowment = diluted_balances(network)
            if endogenous:
                solution = solve_equilibrium(endowment, [weights[a] for a in agents])
                assert_close([prices[t]], [solution.prices], ("prices", t))
                mrs = mrs_matrix(solution.prices)
            else:
                mrs = exogenous_mrs(config, t)
            rates = coin_exchange_rates(mrs, counts).ex
            assert_close(events[t].ex, rates, ("rates", t))
        if config.settlement and endogenous and equilibrates:
            # toward the engine's prices, now held to the solve above: the
            # rounding of the targets may turn on their last bits
            allocation = demand(endowment, [weights[a] for a in agents], prices[t])
            network = settle_trades(network, allocation, agents)
        history.extend(network, minted)
        assert minted == tally(result.history, steps[t].minted_cols), t
        assert network.holder == steps[t].network.holder, t
        assert network.communities == steps[t].network.communities, t
        replayed = history.steps[t]
        for field in ("members", "counts"):
            assert getattr(replayed, field) == getattr(steps[t], field), (field, t)
        # both histories sit on one key index, checked below, so their rows
        # and flow columns compare directly
        assert replayed.row == steps[t].row, t
        for field in ("minted_cols", "income_cols", "revenue_cols", "expenses_cols"):
            assert sorted(getattr(replayed, field)) == sorted(getattr(steps[t], field)), (field, t)
    assert history.keys == result.history.keys


@settings(max_examples=200)
@given(configs(currencies=(4, 5)))
def test_reference_layer_replays_engine_steps_at_four_and_five_currencies(config):
    # the general rate code and the Bareiss branch of coin_values_from_market_sums
    # run in a tested engine run only here: k = 2 and 3 are spelled out
    test_reference_layer_replays_every_engine_step.hypothesis.inner_test(config)
