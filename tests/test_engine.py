import gc
import importlib.util
import math
import random
import sys
import tracemalloc
from pathlib import Path

import pytest

from currencynet import accounting, economy, engine
from currencynet.accounting import check_accounting_identity
from currencynet.engine import (
    CommunityConfig,
    Diagnostic,
    MrsSchedule,
    RatesConfig,
    ScenarioConfig,
    config_hash,
    run_scenario,
    validate_config,
)
from currencynet.errors import ConfigError
from currencynet.justice import predicted_mint_fraction
from currencynet.ledger import Coin, network_from_dict, network_to_dict
from currencynet.minting import most_valued_coin
from currencynet import scenarios

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import tracing  # noqa: E402
import workloads  # noqa: E402

import test_reference  # noqa: E402
from conftest import tally  # noqa: E402

# the reference replay of one config, without the random configs around it
replay = test_reference.test_reference_layer_replays_every_engine_step.hypothesis.inner_test


def tiny_pair(steps=50, **overrides):
    base = dict(
        name="tiny_pair",
        communities=(
            CommunityConfig(1, ("a", "b", "c"), {"a": 1, "b": 1, "c": 1}),
            CommunityConfig(2, ("b", "c", "d"), {"b": 1, "c": 1, "d": 1}),
        ),
        steps=steps,
        seed=5,
        regime="joint_myopic",
        rates=RatesConfig(
            mode="exogenous", mrs12=MrsSchedule(kind="constant", value=1.5)
        ),
        k_eq=1,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestDeterminism:
    def test_same_seed_same_series(self):
        config = scenarios.single_community_dilution(seed=4, steps=300)
        first = run_scenario(config)
        second = run_scenario(config)
        assert first.justice_series() == second.justice_series()
        assert [tally(first.history, s.minted_cols) for s in first.history.steps] == [
            tally(second.history, s.minted_cols) for s in second.history.steps
        ]

    def test_different_seed_differs(self):
        a = run_scenario(scenarios.single_community_dilution(seed=1, steps=200))
        b = run_scenario(scenarios.single_community_dilution(seed=2, steps=200))
        assert a.justice_series() != b.justice_series()


class TestRatesInForce:
    def test_bootstrap_is_flat_until_first_equilibration(self):
        result = run_scenario(tiny_pair(steps=10))
        assert result.ex12[0] == 1.0  # step 1 mints at the bootstrap rates

    def test_minting_sees_previous_step_rates(self):
        result = run_scenario(tiny_pair(steps=30))
        for t in range(2, 31):
            event = result.rates_log[t - 2]
            assert event.t == t - 1
            assert result.ex12[t - 1] == event.ex[0][1]

    def test_schedule_jump_takes_effect_next_step(self):
        schedule = MrsSchedule(kind="table", points=((1, 1.0), (50, 3.0)))
        result = run_scenario(
            tiny_pair(
                steps=60,
                rates=RatesConfig(mode="exogenous", mrs12=schedule),
            )
        )
        jump = [event for event in result.rates_log if event.mrs[0][1] == 3.0]
        assert jump[0].t == 50
        # the overlap agents can only react one step later: at step 50 the
        # pre-jump rates are in force and value currency 2's coin more, so
        # b and c mint currency 2; from step 51 ex12 = 3 and they mint 1
        assert result.rates_timeline[50].ex[0][1] < 1.0
        history = result.history
        assert tally(history, history.steps[50].minted_cols) == {
            ("a", 1): 1, ("b", 2): 1, ("c", 2): 1, ("d", 2): 1
        }
        for t in range(51, 61):
            minted = tally(history, history.steps[t].minted_cols)
            assert minted.get(("b", 1)) == minted.get(("c", 1)) == 1, t
        assert result.ex12[50] == jump[0].ex[0][1] == 3.0


class TestRegimes:
    def test_fixed_on_single_currency_mints_everyone(self):
        config = ScenarioConfig(
            name="fixed",
            communities=(CommunityConfig(1, ("a", "b", "c"), {"a": 1}),),
            steps=20,
            seed=0,
            regime="joint_fixed:1",
        )
        result = run_scenario(config)
        for step in result.history.steps[1:]:
            assert len(step.minted_cols) == 3

    def test_joint_minting_is_one_per_agent(self):
        result = run_scenario(tiny_pair(steps=40))
        for step in result.history.steps[1:]:
            per_agent = {}
            for (agent, _), n in tally(result.history, step.minted_cols).items():
                per_agent[agent] = per_agent.get(agent, 0) + n
            assert per_agent == {"a": 1, "b": 1, "c": 1, "d": 1}

    def test_birth_grant_regime_is_just_throughout(self):
        config = ScenarioConfig(
            name="grants",
            communities=(
                CommunityConfig(1, ("a", "b"), {"a": 4, "b": 4}),
            ),
            steps=30,
            seed=1,
            regime="equal_birth_grant",
            grant=4,
            joins={10: (("c", 1),), 20: (("d", 1),)},
        )
        result = run_scenario(config)
        series = result.justice_series()
        for t in range(31):
            present = result.history.members_at(t, 1)
            for agent in present:
                assert series[agent][t] == pytest.approx(1 / len(present), abs=1e-12)

    def test_joiners_mint_from_join_step(self):
        config = scenarios.single_community_dilution(seed=2, steps=40)
        result = run_scenario(config)
        history = result.history
        step = history.steps[10]  # a7 joins at 10
        assert "a7" in step.members[1] - history.steps[9].members[1]
        assert tally(history, step.minted_cols)[("a7", 1)] == 1
        assert result.history.balance(9, "a7", 1) == 0

    def test_defensive_balances_currencies(self):
        config = tiny_pair(steps=200, regime="joint_defensive")
        result = run_scenario(config)
        # the overlap agents keep their two balances within one coin
        for agent in ("b", "c"):
            b1 = result.history.balance(200, agent, 1)
            b2 = result.history.balance(200, agent, 2)
            assert abs(b1 - b2) <= 1

    def test_random_strategy_depends_only_on_seed(self):
        config = tiny_pair(steps=100, regime="joint_random")
        assert run_scenario(config).justice_series() == run_scenario(
            config
        ).justice_series()

    def test_egocentric_minting_follows_weights(self):
        config = ScenarioConfig(
            name="ego",
            communities=(
                CommunityConfig(1, ("a", "b"), {"a": 2, "b": 2}),
                CommunityConfig(2, ("a", "b"), {"a": 2, "b": 2}),
            ),
            steps=40,
            seed=0,
            regime="joint_egocentric",
            rates=RatesConfig(mode="endogenous"),
            k_eq=10,
            preferences={"a": {1: 0.9, 2: 0.1}, "b": {1: 0.1, 2: 0.9}},
        )
        result = run_scenario(config)
        minted_a = {i: 0 for i in (1, 2)}
        minted_b = {i: 0 for i in (1, 2)}
        for step in result.history.steps[1:]:
            for (agent, i), n in tally(result.history, step.minted_cols).items():
                (minted_a if agent == "a" else minted_b)[i] += n
        # each agent leans toward the currency it values most
        assert minted_a[1] > minted_a[2]
        assert minted_b[2] > minted_b[1]


class TestEngineAccounting:
    def test_identity_holds_with_noise(self):
        config = scenarios.single_community_dilution(seed=8, steps=500)
        result = run_scenario(config)
        report = check_accounting_identity(result.history)
        assert report.ok, report.violations[:3]

    def test_snapshot_cross_check(self):
        config = tiny_pair(steps=60, snapshot_interval=1, trade_noise=2)
        result = run_scenario(config)
        report = check_accounting_identity(result.history)
        assert report.ok, report.violations[:3]
        assert all(step.network is not None for step in result.history.steps)

    def test_snapshots_are_built_from_the_holder_records(self):
        config = tiny_pair(
            steps=30,
            snapshot_interval=1,
            trade_noise=2,
            rates=RatesConfig(mode="endogenous"),
            settlement=True,
            joins={10: (("a", 2),)},
        )
        result = run_scenario(config)
        steps = result.history.steps
        assert steps[10].members[2] - steps[9].members[2] == {"a"} and result.solver_log
        report = check_accounting_identity(result.history)
        assert report.ok, report.violations[:3]
        for step in steps:
            network = step.network
            assert network_from_dict(network_to_dict(network)) == network
            # built anew on each read from the step's members and holder record
            assert step.network is not network and step.network == network
            assert step.holders == tuple(
                tuple(network.holder[Coin(i, s)] for s in range(network.coin_count(i)))
                for i in network.currencies
            )
            assert {i: network.members(i) for i in network.currencies} == step.members
        assert list(map(len, steps[-1].holders)) == list(steps[-1].counts)

    def test_every_step_snapshots_retain_little(self):
        # a snapshot keeps one holder slot per coin, not a network
        config = scenarios.pair_convergence_endogenous(steps=250)._replace(snapshot_interval=1)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            history = run_scenario(config).history
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert retained < 3 * 2**20
        assert all(step.network is not None for step in history.steps)

    def test_membership_record_changes_only_at_joins(self):
        # single_community_dilution has joins at steps 10, 20 and 30
        steps = run_scenario(scenarios.single_community_dilution(steps=40)).history.steps
        changed = [
            t for t in range(2, len(steps))
            if steps[t].members is not steps[t - 1].members
        ]
        assert changed == [10, 20, 30]
        assert len(steps[30].members[1]) == 10

    def test_collector_state_restored_after_run(self):
        assert gc.isenabled()
        run_scenario(tiny_pair(steps=5))
        assert gc.isenabled()
        gc.disable()
        try:
            run_scenario(tiny_pair(steps=5))
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_collector_restored_when_run_fails(self):
        config = tiny_pair(steps=5, rates=RatesConfig(mode="exogenous"))
        with pytest.raises(ConfigError):
            run_scenario(config)
        assert gc.isenabled()

    def test_final_snapshot_always_retained(self):
        result = run_scenario(tiny_pair(steps=25))
        assert result.history.steps[-1].network is not None
        assert result.final_network == result.history.steps[-1].network

    def test_trades_do_not_move_value(self):
        quiet = run_scenario(tiny_pair(steps=80, trade_noise=0))
        noisy = run_scenario(tiny_pair(steps=80, trade_noise=4))
        # balance minus cashflow per agent and currency is trade-invariant
        for history in (quiet.history, noisy.history):
            pass
        t = 80
        for agent in ("a", "b", "c", "d"):
            for i in (1, 2):
                def held_net(result):
                    return result.history.balance(t, agent, i) - (
                        result.history.cumulative_cashflow(t, agent, i)
                    )

                assert held_net(quiet) == held_net(noisy)


def shared_minted(steps) -> bool:
    """Whether some two of ``steps`` record one minted tuple object."""
    return len({id(step.minted_cols) for step in steps}) < len(steps)


class TestMintPlans:
    def test_equal_choices_share_one_minted_tuple(self):
        config = workloads.exo_wide(1)
        result = run_scenario(config)
        steps = result.history.steps
        # only the agents in both communities choose, and they choose alike
        by_choice: dict = {}
        for t in range(1, config.steps + 1):
            choice = most_valued_coin(result.rates_timeline[t], (1, 2))
            assert steps[t].minted_cols is by_choice.setdefault(choice, steps[t].minted_cols), t
            assert steps[t].income_cols is steps[t].minted_cols
        assert sorted(by_choice) == [1, 2] and by_choice[1] != by_choice[2]
        assert len({id(step.minted_cols) for step in steps[1:]}) == 2

    @pytest.mark.parametrize(
        "config, boundary",
        [
            # a joins currency 2 at step 10 without a grant: its tuple changes
            (tiny_pair(steps=24, trade_noise=2, joins={10: (("a", 2),)}, snapshot_interval=1), 10),
            # the weights, and so the scaled market sums, change at t_fix
            (
                tiny_pair(
                    steps=24,
                    trade_noise=2,
                    rates=RatesConfig(mode="endogenous"),
                    settlement=True,
                    preferences={"b": {1: 0.7, 2: 0.3}, "c": {1: 0.2, 2: 0.8}},
                    preferences_initial={"b": {1: 0.4, 2: 0.6}, "c": {1: 0.9, 2: 0.1}},
                    t_fix=12,
                    snapshot_interval=1,
                ),
                12,
            ),
        ],
        ids=["myopic-join-without-grant", "endogenous-across-t_fix"],
    )
    def test_plans_are_rebuilt_at_an_epoch(self, config, boundary):
        result = run_scenario(config)
        steps = result.history.steps
        keys = result.history.keys
        for before, step in zip(steps, steps[1:]):
            tally = [0] * config.k
            for c in step.minted_cols:
                tally[keys[c][1] - 1] += 1
            assert tally == [n - m for n, m in zip(step.counts, before.counts)], step.t
        # plans are shared within an epoch and never across its start
        early, late = steps[1:boundary], steps[boundary:]
        assert shared_minted(early) and shared_minted(late)
        assert not {id(s.minted_cols) for s in early} & {id(s.minted_cols) for s in late}
        replay(config)

    def test_grid_history_retains_shared_mint_tuples(self):
        # the 300 x 300 scaling-grid point retained 2.19 MB while each step
        # kept its own minted tuple of 300 columns; sharing leaves about 1.5 MB
        spec = importlib.util.spec_from_file_location(
            "scaling_grid", ROOT / "scripts" / "scaling_grid.py"
        )
        scaling_grid = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(scaling_grid)
        retained, _ = scaling_grid.memory_point(scaling_grid.grid_config(300, 300))
        assert retained < 1.75

    def test_tracer_targets_resolve(self):
        # bench/tracing.py rebinds these names; a refactor must keep them
        for owner, attr, name in tracing.TARGETS:
            assert callable(vars(owner).get(attr)), name
        assert {owner for owner, _, _ in tracing.TARGETS} >= {accounting, engine}
        assert vars(engine)["largest_remainder_targets"] is economy.largest_remainder_targets


class TestKeyColumnCorners:
    """Runs whose holders, kept as key columns, take the rarer paths; each is
    replayed by the reference layer, which names agents throughout."""

    @staticmethod
    def joining_payee(**overrides):
        """a, sorting before every founder, joins 1 at step 3 and is paid by the noise at once."""
        base = dict(
            name="joining_payee",
            communities=(
                CommunityConfig(1, ("b", "c"), {"b": 2, "c": 2}),
                CommunityConfig(2, ("c", "d"), {"c": 1, "d": 1}),
            ),
            steps=6,
            seed=0,
            regime="joint_myopic",
            joins={3: (("a", 1),)},
            rates=RatesConfig(mode="exogenous", mrs12=MrsSchedule(kind="constant", value=1.0)),
            trade_noise=4,
            snapshot_interval=1,
        )
        base.update(overrides)
        return ScenarioConfig(**base)

    def test_a_joiner_is_a_noise_payee_at_its_join_step(self):
        config = self.joining_payee()
        history = run_scenario(config).history
        assert history.columns[("a", 1)] in history.steps[3].revenue_cols
        replay(config)

    def test_settlement_hands_over_a_fresh_coin(self):
        # a values only currency 2, so at step 1 it settles the coin of 1 it
        # has just minted to b: income follows the holder, not the minter
        config = ScenarioConfig(
            name="fresh_settled",
            communities=(CommunityConfig(1, ("a", "b")), CommunityConfig(2, ("a", "b"), {"b": 2})),
            steps=3,
            seed=0,
            regime="joint_fixed:1",
            rates=RatesConfig(mode="endogenous"),
            settlement=True,
            preferences={"a": {1: 0.0, 2: 1.0}},
            snapshot_interval=1,
        )
        step = run_scenario(config).history.steps[1]
        assert sorted(step.income_cols) != sorted(step.minted_cols)
        assert step.holders[0] == ("b", "b")
        replay(config)

    def test_snapshots_name_holders_whose_columns_are_out_of_name_order(self):
        config = self.joining_payee(joins={3: (("a", 1),), 4: (("b", 2),)}, join_grant=1)
        history = run_scenario(config).history
        keys = history.keys
        assert keys[-2:] == [("a", 1), ("b", 2)] and keys != sorted(keys)
        final = history.steps[-1].holders
        assert "a" in final[0] and "b" in final[1]
        replay(config)


class TestSettlement:
    def endo_config(self, settlement, k_eq=5):
        return ScenarioConfig(
            name="endo",
            communities=(
                CommunityConfig(1, ("a", "b", "c"), {"a": 4, "b": 4, "c": 4}),
                CommunityConfig(2, ("b", "c", "d"), {"b": 4, "c": 4, "d": 4}),
            ),
            steps=60,
            seed=9,
            regime="joint_myopic",
            rates=RatesConfig(mode="endogenous"),
            k_eq=k_eq,
            settlement=settlement,
            preferences={
                "a": {1: 1.0},
                "b": {1: 0.7, 2: 0.3},
                "c": {1: 0.3, 2: 0.7},
                "d": {2: 1.0},
            },
        )

    def test_settlement_realizes_the_equilibrium_allocation(self):
        import numpy as np
        from currencynet.economy import (
            diluted_balances,
            largest_remainder_targets,
            solve_equilibrium,
        )

        # one equilibration at the very last step, so the unsettled twin run
        # reproduces the settled run's pre-settlement state exactly
        plain = run_scenario(self.endo_config(False, k_eq=60))
        settled = run_scenario(self.endo_config(True, k_eq=60))
        assert check_accounting_identity(settled.history).ok
        agents, endowment = diluted_balances(plain.final_network)
        weights = np.array(
            [
                [1.0, 0.0],
                [0.7, 0.3],
                [0.3, 0.7],
                [0.0, 1.0],
            ]
        )
        allocation = np.asarray(solve_equilibrium(endowment, weights).allocation)
        for col, i in enumerate((1, 2)):
            targets = largest_remainder_targets(
                allocation[:, col], plain.final_network.coin_count(i)
            )
            for row, agent in enumerate(agents):
                assert settled.history.balance(60, agent, i) == targets[row]

    def test_settlement_moves_coins(self):
        settled = run_scenario(self.endo_config(True))
        traded = sum(
            len(step.revenue_cols) for step in settled.history.steps[1:]
        )
        assert traded > 0

    def test_settlement_leaves_justice_near_the_plain_run(self):
        plain = run_scenario(self.endo_config(False)).justice_series()
        settled = run_scenario(self.endo_config(True)).justice_series()
        for agent, values in plain.items():
            assert abs(values[-1] - settled[agent][-1]) < 0.05

    @staticmethod
    def chained_triple(seed, settlement):
        """24 agents in communities 1-2-3, chained by two overlaps; settled at every step."""
        rng = random.Random(seed)
        names = [f"s{n:02d}" for n in range(24)]
        rng.shuffle(names)
        only_1, x12, only_2, x23, only_3 = (
            names[:5], names[5:9], names[9:15], names[15:19], names[19:]
        )
        members = (sorted(only_1 + x12), sorted(x12 + only_2 + x23), sorted(x23 + only_3))
        preferences = {}
        for agent in sorted(names):
            raw = {i + 1: rng.uniform(0.5, 1.0) for i, who in enumerate(members) if agent in who}
            total = math.fsum(raw.values())
            preferences[agent] = {i: w / total for i, w in raw.items()}
        return ScenarioConfig(
            name="chained_triple",
            communities=tuple(
                CommunityConfig(i + 1, tuple(who), {a: rng.randint(1, 3) for a in who})
                for i, who in enumerate(members)
            ),
            steps=40,
            seed=seed,
            regime="joint_myopic",
            rates=RatesConfig(mode="endogenous"),
            k_eq=1,
            settlement=settlement,
            preferences=preferences,
        )

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_settlement_moves_justice_by_rounding_only(self, seed):
        # settling to the largest-remainder targets moves each agent's final
        # justice value by a rounding-sized amount, at k = 3 too (at most
        # 0.0026 over these seeds)
        plain = run_scenario(self.chained_triple(seed, False)).justice_final()
        settled = run_scenario(self.chained_triple(seed, True)).justice_final()
        assert max(abs(plain[agent] - settled[agent]) for agent in plain) < 0.005

    def test_a_step_already_at_its_targets_moves_nothing(self, monkeypatch):
        # two agents with the same uniform weights and the same coins mint
        # alike, so the equilibrium gives each half of every currency: each
        # settled step's targets equal the holdings, and no currency is scanned
        scans = []
        monkeypatch.setattr(engine, "settlement_moves", lambda *args: scans.append(args) or [])
        config = ScenarioConfig(
            name="balanced",
            communities=(
                CommunityConfig(1, ("a", "b"), {"a": 2, "b": 2}),
                CommunityConfig(2, ("a", "b"), {"a": 2, "b": 2}),
            ),
            steps=12,
            seed=2,
            regime="joint_myopic",
            rates=RatesConfig(mode="endogenous"),
            settlement=True,
        )
        settled = run_scenario(config)
        plain = run_scenario(config._replace(settlement=False))
        assert [event.t for event in settled.solver_log] == list(range(1, 13))
        assert scans == []
        for step, twin in zip(settled.history.steps, plain.history.steps):
            assert step.revenue_cols == step.expenses_cols == ()
            assert step.row == twin.row


class TestBracketing:
    def test_mint_fraction_tracks_target_after_burn_in(self):
        config = tiny_pair(steps=3000)
        result = run_scenario(config)
        x = predicted_mint_fraction({"a", "b", "c"}, {"b", "c", "d"}, 1.5)
        deviations = [abs(v - x) for v in result.a_over_t]
        for t in range(300, 3000):
            assert deviations[t] <= deviations[t - 1] + 2.0 / t

    def test_a_over_t_counts_the_steps_that_rank_currency_1_first(self):
        # the exact order the myopic choice follows, not ex12 >= 1.0
        result = run_scenario(scenarios.pair_convergence_endogenous(steps=400))
        firsts = [rates.ranking[0] == 1 for rates in result.rates_timeline[1:]]
        assert result.a_over_t == [sum(firsts[:t]) / t for t in range(1, len(firsts) + 1)]


@pytest.mark.parametrize("name", ["endo_pair", "exo_wide", "settle_tri"])
def test_a_run_builds_every_matrix_from_coin_values(monkeypatch, name):
    # the O(k^3) check of ExchangeRateMatrix(ex) is for matrices from outside
    def refuse(self, ex):
        raise AssertionError("a run built a rate matrix through the full check")

    monkeypatch.setattr(economy.ExchangeRateMatrix, "__init__", refuse)
    result = run_scenario(workloads.build(name, 1))
    assert result.rates_log and len(result.rates_timeline) == result.config.steps + 1


class TestValidateConfig:
    def test_clean_config(self):
        diags = validate_config(scenarios.single_community_dilution(steps=100))
        assert not [d for d in diags if d.level == "error"]

    def test_condition_violation_warns(self):
        config = scenarios.disjoint_pair_control(steps=100)
        diags = validate_config(config)
        assert any(d.level == "warning" and d.code == "convergence" for d in diags)

    @pytest.mark.parametrize(
        "v2, limit, band",
        [(("b", "c", "d"), 5.0, "[0.333333, 3]"), (("b", "c"), 0.25, "[0.5, inf]")],
    )
    def test_condition_violation_states_the_band(self, v2, limit, band):
        config = tiny_pair(
            communities=(
                CommunityConfig(1, ("a", "b", "c"), {"a": 1, "b": 1, "c": 1}),
                CommunityConfig(2, v2, dict.fromkeys(v2, 1)),
            ),
            rates=RatesConfig(mode="exogenous", mrs12=MrsSchedule(kind="constant", value=limit)),
        )
        notes = [d for d in validate_config(config) if d.code == "convergence"]
        assert notes == [
            Diagnostic(
                "warning",
                "convergence",
                f"condition violated: substitution limit {limit} outside {band}; "
                "1:1 rates are not expected",
            )
        ]

    def test_schedule_and_matrix_together_rejected(self):
        # the run would use the matrix, so the schedule's band would mislead
        config = scenarios.pair_convergence_exogenous(steps=3000)._replace(
            rates=RatesConfig(
                mode="exogenous",
                mrs12=MrsSchedule(kind="constant", value=1.5),
                mrs_matrix=((1.0, 5.0), (0.2, 1.0)),
            )
        )
        diags = validate_config(config)
        assert [d.code for d in diags if d.level == "error"] == ["rates"]
        assert not [d for d in diags if d.code == "convergence"]
        with pytest.raises(ConfigError, match="not both"):
            run_scenario(config)

    def test_condition_holding_reports_prediction(self):
        diags = validate_config(tiny_pair())
        notes = [d for d in diags if d.code == "convergence"]
        assert notes and notes[0].level == "info"
        assert "0.7" in notes[0].message

    def test_settlement_needs_endogenous_rates(self):
        config = tiny_pair(settlement=True)
        diags = validate_config(config)
        assert any(d.level == "error" and d.code == "settlement" for d in diags)

    def test_degenerate_preferences_rejected(self):
        # currency 2's only members both value currency 1 exclusively
        config = ScenarioConfig(
            name="degenerate",
            communities=(
                CommunityConfig(1, ("a", "b", "c", "d"), {"a": 1}),
                CommunityConfig(2, ("b", "c"), {"b": 1}),
            ),
            steps=10,
            seed=0,
            regime="joint_myopic",
            rates=RatesConfig(mode="endogenous"),
            preferences={"b": {1: 1.0}, "c": {1: 1.0}},
        )
        diags = validate_config(config)
        assert any(d.code == "degenerate_economy" for d in diags)

    def test_disjoint_endogenous_economy_rejected(self):
        # no agent belongs to both communities, so the prices are indeterminate
        config = scenarios.disjoint_pair_control(steps=10)._replace(
            rates=RatesConfig(mode="endogenous")
        )
        diags = validate_config(config)
        assert [d.code for d in diags if d.level == "error"] == ["degenerate_economy"]

    def test_weight_uncoupled_economy_warned(self):
        # b and c value only currency 1, so no member of currency 1 values
        # currency 2: memberships link the currencies but the weights do not
        config = scenarios.pair_convergence_endogenous(steps=50)
        preferences = dict(config.preferences, b={1: 1.0}, c={1: 1.0})
        diags = validate_config(config._replace(preferences=preferences))
        assert [(d.level, d.code) for d in diags if d.level != "info"] == [
            ("warning", "degenerate_economy")
        ]
        assert not any(
            d.code == "degenerate_economy"
            for d in validate_config(scenarios.pair_convergence_endogenous(steps=50))
        )

    @pytest.mark.parametrize(
        "schedule",
        [
            MrsSchedule(kind="exp_approach", value=1.5, start=1.0, tau=0.0),
            MrsSchedule(kind="exp_approach", value=1.5, start=0.0, tau=30.0),
            MrsSchedule(kind="table", points=((1, 1.0), (10, 0.0), (20, 1.5))),
            MrsSchedule(kind="table", points=((1, -1.0), (20, 1.5))),
            MrsSchedule(kind="constant", value=0.0),
        ],
    )
    def test_nonpositive_schedule_rejected(self, schedule):
        config = tiny_pair(rates=RatesConfig(mode="exogenous", mrs12=schedule))
        diags = validate_config(config)
        assert [d.code for d in diags if d.level == "error"] == ["rates"]

    @pytest.mark.parametrize(
        "schedule",
        [
            MrsSchedule(kind="table"),
            MrsSchedule(kind="bogus"),
            MrsSchedule(kind="table", points=((5, 1.5), (1, 1.2))),
        ],
        ids=["empty-table", "unknown-kind", "unsorted-table"],
    )
    def test_ill_posed_schedule_rejected(self, schedule):
        # each one used to raise a bare IndexError or silently apply 1.5 from step 1
        config = scenarios.pair_convergence_exogenous(steps=5)._replace(
            rates=RatesConfig(mode="exogenous", mrs12=schedule)
        )
        diags = validate_config(config)
        assert [d.code for d in diags if d.level == "error"] == ["rates"]
        assert not [d for d in diags if d.code == "convergence"]
        with pytest.raises(ConfigError, match="rates: "):
            run_scenario(config)

    @pytest.mark.parametrize("points", [[[5, 2.0], [5, 1.0]], [[5, 1.0], [5, 2.0]]])
    def test_two_table_points_at_one_step_rejected(self, points):
        schedule = MrsSchedule.from_dict({"kind": "table", "points": [[9, 1.5], *points]})
        # sorted by step alone: the two points keep the file's order
        assert schedule.points == ((5, points[0][1]), (5, points[1][1]), (9, 1.5))
        config = scenarios.pair_convergence_exogenous(steps=5)._replace(
            rates=RatesConfig(mode="exogenous", mrs12=schedule)
        )
        diags = validate_config(config)
        assert [d.code for d in diags if d.level == "error"] == ["rates"]
        with pytest.raises(ConfigError, match="rates: .*one per step"):
            run_scenario(config)

    def test_ignored_solver_knobs_noted(self):
        assert not any(
            d.code == "solver" for d in validate_config(scenarios.pair_convergence_endogenous())
        )
        config = scenarios.pair_convergence_endogenous()._replace(
            rates=RatesConfig(mode="endogenous", tol=1e-15, max_iter=1),
        )
        diags = validate_config(config)
        assert [d.level for d in diags if d.code == "solver"] == ["info"]

    def test_weight_on_unjoined_currency_rejected(self):
        config = tiny_pair(
            rates=RatesConfig(mode="endogenous"),
            preferences={"a": {1: 0.5, 2: 0.5}},  # a never joins currency 2
        )
        diags = validate_config(config)
        assert any(
            d.level == "error" and d.code == "preferences" for d in diags
        )

    def test_double_join_rejected(self):
        config = tiny_pair(joins={3: (("a", 1),)})
        diags = validate_config(config)
        assert any(d.level == "error" and d.code == "joins" for d in diags)

    def test_run_refuses_invalid_config(self):
        with pytest.raises(ConfigError):
            run_scenario(tiny_pair(settlement=True))

    def test_bounded_minting_warns(self):
        config = ScenarioConfig(
            name="grants",
            communities=(CommunityConfig(1, ("a",), {"a": 1}),),
            steps=10,
            seed=0,
            regime="equal_birth_grant",
            grant=1,
        )
        diags = validate_config(config)
        assert any(d.code == "bounded_minting" for d in diags)


class TestPreferencePrefix:
    def test_weights_switch_at_t_fix(self):
        def config(prefix):
            kwargs = dict(
                name="prefix",
                communities=(
                    CommunityConfig(1, ("a", "b"), {"a": 10}),
                    CommunityConfig(2, ("a", "b"), {"b": 10}),
                ),
                steps=20,
                seed=0,
                regime="joint_defensive",
                rates=RatesConfig(mode="endogenous"),
                k_eq=1,
                preferences={"a": {1: 0.5, 2: 0.5}, "b": {1: 0.5, 2: 0.5}},
            )
            if prefix:
                kwargs["preferences_initial"] = {
                    "a": {1: 0.9, 2: 0.1},
                    "b": {1: 0.9, 2: 0.1},
                }
                kwargs["t_fix"] = 10
            return ScenarioConfig(**kwargs)

        with_prefix = run_scenario(config(True))
        without = run_scenario(config(False))
        early_with = with_prefix.solver_log[0]
        early_without = without.solver_log[0]
        # shared weights price both currencies equally; the skewed prefix
        # pushes currency 1's price up until t_fix
        assert early_with.prices[0] > 0.6
        assert early_without.prices == pytest.approx((0.5, 0.5), abs=1e-9)
        late = [e for e in with_prefix.solver_log if e.t >= 10][0]
        assert late.prices == pytest.approx((0.5, 0.5), abs=1e-9)

    def test_joiner_weights_masked_until_arrival(self):
        # b joins currency 2 at step 5; until then its configured weight on
        # currency 2 must not create demand for it
        config = ScenarioConfig(
            name="masked",
            communities=(
                CommunityConfig(1, ("a", "b"), {"a": 5, "b": 5}),
                CommunityConfig(2, ("a",), {"a": 5}),
            ),
            steps=10,
            seed=0,
            regime="joint_defensive",
            rates=RatesConfig(mode="endogenous"),
            k_eq=1,
            joins={5: (("b", 2),)},
            preferences={"a": {1: 0.5, 2: 0.5}, "b": {1: 0.5, 2: 0.5}},
        )
        result = run_scenario(config)
        before = [e for e in result.solver_log if e.t < 5]
        after = [e for e in result.solver_log if e.t >= 5]
        assert before and after
        # with b's currency-2 weight masked, only a demands currency 2 early;
        # once b joins, both do, which moves the equilibrium price
        assert before[0].prices != after[-1].prices


class TestConfigRoundTrip:
    def test_to_dict_from_dict_round_trips(self):
        for build in scenarios.CANNED.values():
            config = build(steps=100)
            clone = ScenarioConfig.from_dict(config.to_dict())
            assert clone == config
            assert config_hash(clone) == config_hash(config)

    def test_weights_survive_round_trip(self):
        config = scenarios.pair_convergence_endogenous(steps=50)
        clone = ScenarioConfig.from_dict(config.to_dict())
        assert clone.preferences == config.preferences
