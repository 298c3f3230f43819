"""The myopic mint choice is decided exactly, in one place.

Under joint egalitarian minting the rates between overlapping currencies
are driven to 1:1, so the myopic agents choose on a near-tie by design.
These tests hold the engine's choices to an exact rational reference and
to the independence from how agents happen to be named;
``test_reference.py`` holds them to the value-semantics ``mint_step``.
"""
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from currencynet import scenarios
from currencynet.economy import (
    ExchangeRateMatrix,
    coin_exchange_rates,
    coin_values_from_market_sums,
    coin_values_from_mrs,
    market_equilibrium,
    mrs_matrix,
    solve_equilibrium,
)
from currencynet.engine import (
    CommunityConfig,
    RatesConfig,
    ScenarioConfig,
    _mask_weights,
    run_scenario,
)
from currencynet.minting import most_valued_coin

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402
from conftest import elimination_prices, tally  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def exact_prices(market):
    """Solve (M - I) p = 0, sum(p) = 1 in Fractions."""
    k = len(market)
    rows = [
        [market[i][j] - (1 if i == j else 0) for j in range(k)] + [Fraction(0)]
        for i in range(k)
    ]
    rows[-1] = [Fraction(1)] * k + [Fraction(1)]
    for c in range(k):
        pivot = next(r for r in range(c, k) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(k):
            if r != c and rows[r][c]:
                factor = rows[r][c] / rows[c][c]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[c])]
    return [rows[i][k] / rows[i][i] for i in range(k)]


def exact_order(values):
    """Currencies by decreasing value, equal values in index order."""
    return tuple(sorted(range(1, len(values) + 1), key=lambda i: (-values[i - 1], i)))


def exact_coin_values(balances, counts, weights):
    """p_i / c_i from integer balances and the float weights read as exact rationals."""
    k = len(counts)
    market = [
        [
            sum(
                Fraction(row[i]) * balances.get((agent, j + 1), 0)
                for agent, row in weights.items()
            )
            / counts[j]
            for j in range(k)
        ]
        for i in range(k)
    ]
    prices = exact_prices(market)
    return [p / c for p, c in zip(prices, counts)]


def chosen(minted, agent):
    (choice,) = [i for (who, i), n in minted.items() if who == agent and n]
    return choice


def test_endogenous_mints_follow_the_exact_ranking():
    config = scenarios.pair_convergence_endogenous(steps=200)
    weights = {
        agent: [row.get(i, 0.0) for i in (1, 2)]
        for agent, row in config.preferences.items()
    }
    history = run_scenario(config).history
    near_ties = 0
    for t in range(1, config.steps):
        step = history.steps[t]
        values = exact_coin_values(dict(zip(history.keys, step.row)), step.counts, weights)
        winner = exact_order(values)[0]
        near_ties += abs(values[0] / values[1] - 1) <= Fraction(1, 10**15)
        for agent in ("b", "c"):
            assert chosen(tally(history, history.steps[t + 1].minted_cols), agent) == winner, t
    # the run does sit on near-ties, so the test decides something
    assert near_ties >= 10


def test_three_currency_near_tie_decided_exactly():
    # exactly v1 = v3 = 1/9 > v2 = 1/18 per coin; the float elimination puts v3 ahead
    sums = [[10, 13, 9], [26, 14, 8], [9, 4, 3]]  # sums[j][i] = S_ij
    counts = [4, 6, 2]
    denominator = 8
    market = [[sums[j][i] / (denominator * counts[j]) for j in range(3)] for i in range(3)]
    float_prices = elimination_prices(market)
    float_values = [p / c for p, c in zip(float_prices, counts)]
    assert exact_order(float_values)[0] == 3

    exact_market = [
        [Fraction(sums[j][i], denominator * counts[j]) for j in range(3)] for i in range(3)
    ]
    values = [p / c for p, c in zip(exact_prices(exact_market), counts)]
    assert values[0] == values[2] == Fraction(1, 9)
    trees = coin_values_from_market_sums(sums)
    assert [Fraction(tree, trees[0]) for tree in trees] == [v / values[0] for v in values]
    # the engine's prices divide c_r T_r by their sum, so p1 = 2 p3 holds exactly
    prices, _ = market_equilibrium(market, [c * tree for c, tree in zip(counts, trees)])
    assert prices[0] == 2 * prices[2]

    ranked = ExchangeRateMatrix.from_values(trees)
    assert ranked.ranking == exact_order(values) == (1, 3, 2)
    unranked = coin_exchange_rates(mrs_matrix(float_prices), counts)
    assert most_valued_coin(ranked, [1, 3]) == 1
    assert most_valued_coin(ranked, [2, 3]) == 3
    assert most_valued_coin(unranked, [1, 3]) == 3


@settings(max_examples=200)
@given(st.integers(2, 4).flatmap(
    lambda k: st.tuples(
        st.lists(st.lists(st.integers(0, 6), min_size=k, max_size=k), min_size=k, max_size=k),
        st.lists(st.integers(1, 5), min_size=k, max_size=k),
    )
))
def test_market_ranking_matches_a_rational_solve(case):
    sums, counts = case
    k = len(counts)
    # scale each column so it sums to D * c_j, as weights summing to one make it
    totals = [sum(column) for column in sums]
    assume(all(totals))
    denominator = 1
    for total in totals:
        denominator *= total
    scaled = [
        [s * denominator * c // total for s in column]
        for column, c, total in zip(sums, counts, totals)
    ]
    market = [
        [Fraction(scaled[j][i], denominator * counts[j]) for j in range(k)] for i in range(k)
    ]
    try:
        prices = exact_prices(market)
    except StopIteration:  # singular: the economy is reducible
        assume(False)
    assume(all(p > 0 for p in prices))
    values = [p / c for p, c in zip(prices, counts)]
    # the spanning-tree integers are the exact coin values, up to one factor
    trees = coin_values_from_market_sums(scaled)
    assert [Fraction(tree, trees[0]) for tree in trees] == [v / values[0] for v in values]
    assert ExchangeRateMatrix.from_values(trees).ranking == exact_order(values)


def test_exogenous_pair_rule_is_exact():
    # currency 2 wins exactly when c1 > m * c2: the float 0.3 is a little
    # below 3/10, though 0.3 * 10 rounds to 3.0 and the float rates tie
    m = 0.3
    mrs = ((1.0, m), (1.0 / m, 1.0))
    assert m * 10 == 3.0 and Fraction(m) * 10 < 3
    values = coin_values_from_mrs(mrs, [3, 10])
    # one coin of 1 is worth m * 10 / 3 coins of 2, exactly
    assert Fraction(values[0], values[1]) == Fraction(m) * 10 / 3
    rates = ExchangeRateMatrix.from_values(values)
    # the rates round to 1.0; the ranking keeps the exact order
    assert rates.ex == ((1.0, 1.0), (1.0, 1.0))
    assert rates.ranking == (2, 1)
    assert most_valued_coin(rates, [1, 2]) == 2
    # the validated float rates tie too, and a tie goes to currency 1
    assert most_valued_coin(coin_exchange_rates(mrs, [3, 10]), [1, 2]) == 1
    assert exact_order(coin_values_from_mrs(((1.0, 1.5), (1.0 / 1.5, 1.0)), [3, 2])) == (1, 2)
    assert exact_order(coin_values_from_mrs(((1.0, 1.5), (1.0 / 1.5, 1.0)), [4, 2])) == (2, 1)


def test_validated_rates_rank_their_first_column():
    # a matrix built from outside ranks its column-1 rates, ties to the lower index
    assert coin_exchange_rates(((1.0, 1.0), (1.0, 1.0)), [1, 1]).ranking == (1, 2)
    assert coin_exchange_rates(((1.0, 0.5), (2.0, 1.0)), [1, 1]).ranking == (2, 1)
    assert ExchangeRateMatrix.ones(3).ranking == (1, 2, 3)


def test_market_sums_follow_every_coin():
    # joins with grants, trade noise and a weight switch at t_fix: every
    # solve must see the market a from-scratch float solve sees
    members = (("a", "b", "c"), ("b", "c", "d"), ("d", "e"))
    config = ScenarioConfig(
        name="busy_triple",
        communities=tuple(
            CommunityConfig(i + 1, who, {a: 2 for a in who}) for i, who in enumerate(members)
        ),
        steps=60,
        seed=4,
        regime="joint_myopic",
        rates=RatesConfig(mode="endogenous"),
        joins={12: (("a", 2),), 30: (("e", 2), ("f", 3))},
        join_grant=2,
        trade_noise=3,
        preferences={
            "a": {1: 0.7, 2: 0.3}, "b": {1: 0.2, 2: 0.8}, "c": {1: 0.5, 2: 0.5},
            "d": {2: 0.35, 3: 0.65}, "e": {2: 0.1, 3: 0.9},
        },
        preferences_initial={"c": {1: 0.9, 2: 0.1}, "d": {2: 0.6, 3: 0.4}},
        t_fix=20,
    )
    result = run_scenario(config)
    history = result.history
    assert len(result.solver_log) == config.steps
    for event in result.solver_log:
        step = history.steps[event.t]
        memberships = {}
        for i, who in step.members.items():
            for agent in who:
                memberships.setdefault(agent, set()).add(i)
        source = config.preferences_initial if event.t < config.t_fix else config.preferences
        weights = _mask_weights(source, memberships, 3)
        agents = sorted(memberships)
        balances = dict(zip(history.keys, step.row))
        endowment = [
            [balances.get((a, i), 0) / step.counts[i - 1] for i in (1, 2, 3)] for a in agents
        ]
        expected = solve_equilibrium(endowment, [weights[a] for a in agents]).prices
        assert max(abs(p - q) for p, q in zip(event.prices, expected)) < 1e-13, event.t


def renamed(config, names):
    return config._replace(
        communities=tuple(
            CommunityConfig(
                cc.index,
                tuple(names[a] for a in cc.members),
                {names[a]: n for a, n in cc.initial_coins.items()},
            )
            for cc in config.communities
        ),
        preferences={names[a]: row for a, row in config.preferences.items()},
    )


def test_agent_names_do_not_change_the_mints():
    # two overlapping communities; three overlap agents with unequal weights
    # make the float market sums depend on the order agents are added in
    overlap = {"m0": 0.3, "m1": 0.6, "m2": 0.9}
    members_1 = ("l0", "l1", "m0", "m1", "m2")
    members_2 = ("m0", "m1", "m2", "r0", "r1")
    preferences = {"l0": {1: 1.0}, "l1": {1: 1.0}, "r0": {2: 1.0}, "r1": {2: 1.0}}
    preferences.update({a: {1: w, 2: 1.0 - w} for a, w in overlap.items()})
    config = ScenarioConfig(
        name="weighted_pair",
        communities=(
            CommunityConfig(1, members_1, {a: 1 for a in members_1}),
            CommunityConfig(2, members_2, {a: 1 for a in members_2}),
        ),
        steps=400,
        seed=1,
        regime="joint_myopic",
        rates=RatesConfig(mode="endogenous"),
        preferences=preferences,
    )
    agents = sorted(preferences)
    names = {a: f"z{len(agents) - n:02d}" for n, a in enumerate(agents)}  # order reverses
    original = run_scenario(config).history
    mirrored = run_scenario(renamed(config, names)).history
    for step, other in zip(original.steps[1:], mirrored.steps[1:]):
        minted = tally(original, step.minted_cols)
        assert {(names[a], i): n for (a, i), n in minted.items()} == tally(
            mirrored, other.minted_cols
        ), step.t


def in_force_configs():
    configs = [
        pytest.param(build(steps=300), id=name)
        for name, build in sorted(scenarios.CANNED.items())
    ]
    configs += [
        pytest.param(workloads.build(name, seed), id=f"{name}-{seed}")
        for name in ("endo_pair", "exo_wide", "settle_tri")
        for seed in (1, 2, 3)
    ]
    return configs


@pytest.mark.parametrize("config", in_force_configs())
def test_every_in_force_matrix_passes_full_validation(config):
    result = run_scenario(config)
    for matrix in result.rates_timeline:
        ExchangeRateMatrix(matrix.ex)  # raises if not arbitrage-free within RATE_TOL


def test_package_import_leaves_hashlib_and_fractions_out():
    script = (
        "import sys\n"
        "import currencynet, currencynet.outputs, currencynet.scenarios\n"
        "print(sorted(m for m in ('hashlib', 'fractions') if m in sys.modules))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[0] == "[]"
