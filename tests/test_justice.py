import csv
import math

import pytest

from currencynet import scenarios
from currencynet.accounting import History
from currencynet.economy import ExchangeRateMatrix, coin_exchange_rates, mrs_matrix
from currencynet.engine import (
    CommunityConfig,
    RatesConfig,
    ScenarioConfig,
    run_scenario,
)
from currencynet.errors import ConditionViolatedError, TooShortError
from currencynet.justice import (
    convergence_condition,
    convergence_report,
    justice_value_network,
    justice_value_single,
    justice_values,
    predicted_mint_fraction,
)
from currencynet.ledger import pay
from currencynet.minting import EgalitarianSingle, EqualBirthGrant, mint_step
from currencynet.outputs import write_metrics_csv

from conftest import make_network, tally


class TestJusticeValueSingle:
    def test_birth_grant_history_is_just_at_every_step(self):
        x = 5
        network = make_network({1: (["a", "b"], {"a": x, "b": x})})
        history = History(network)
        history.extend(network, {})  # a quiet step
        grown = network.with_member("c", 1)
        grown, minted = mint_step(grown, EqualBirthGrant(x), joiners={("c", 1)})
        history.extend(grown, minted)
        for t in range(history.last_step + 1):
            members = history.members_at(t, 1)
            for agent in members:
                assert justice_value_single(history, t, agent) == 1.0 / len(members)

    def test_sole_holder_at_start(self):
        network = make_network({1: (["a", "b"], {"a": 7})})
        history = History(network)
        assert justice_value_single(history, 0, "a") == 1.0

    def test_unequal_endowments_match_replay_oracle(self):
        # with trades of old coins only, the value reduces to
        # (b_0 + accumulated income) / |C_t|; both sides computed separately
        import random

        rng = random.Random(3)
        network = make_network({1: (["a", "b", "c"], {"a": 6, "b": 1})})
        history = History(network)
        current = network
        for _ in range(12):
            old_coins = sorted(current.community(1).coins)
            current, minted = mint_step(current, EgalitarianSingle(1))
            for _ in range(rng.randrange(3)):
                coin = old_coins[rng.randrange(len(old_coins))]
                payee = ("a", "b", "c")[rng.randrange(3)]
                current = pay(current, coin, current.holder[coin], payee)
            history.extend(current, minted)

        for agent in ("a", "b", "c"):
            for t in (0, 5, 12):
                endowment = history.balance(0, agent, 1)
                minted_total = sum(
                    tally(history, history.steps[s].minted_cols)[(agent, 1)]
                    for s in range(1, t + 1)
                )
                expected = (endowment + minted_total) / history.coin_count(t, 1)
                assert justice_value_single(history, t, agent) == pytest.approx(
                    expected, abs=1e-12
                )

    def test_undefined_without_coins(self):
        network = make_network({1: (["a"], {})})
        history = History(network)
        assert math.isnan(justice_value_single(history, 0, "a"))

    def test_requires_single_currency(self):
        network = make_network({1: (["a"], {"a": 1}), 2: (["a"], {"a": 1})})
        history = History(network)
        with pytest.raises(ValueError):
            justice_value_single(history, 0, "a")


class TestJusticeValueNetwork:
    def test_reduces_to_single_for_one_currency(self):
        network = make_network({1: (["a", "b"], {"a": 3, "b": 1})})
        history = History(network)
        grown, minted = mint_step(network, EgalitarianSingle(1))
        history.extend(grown, minted)
        ones = ExchangeRateMatrix.ones(1)
        for t in (0, 1):
            for agent in ("a", "b"):
                assert justice_value_network(history, t, agent, ones) == (
                    justice_value_single(history, t, agent)
                )

    def test_symmetric_network_gives_equal_share(self):
        network = make_network(
            {
                1: (["a", "b"], {"a": 1, "b": 1}),
                2: (["a", "b"], {"a": 1, "b": 1}),
            }
        )
        history = History(network)
        ones = ExchangeRateMatrix.ones(2)
        for agent in ("a", "b"):
            assert justice_value_network(history, 0, agent, ones) == 0.5

    def test_reference_independence(self):
        network = make_network(
            {
                1: (["a", "b", "c"], {"a": 4, "b": 2}),
                2: (["b", "c"], {"b": 3, "c": 2}),
                3: (["a", "c"], {"c": 7}),
            }
        )
        history = History(network)
        ex = coin_exchange_rates(
            mrs_matrix([0.5, 0.3, 0.2]), [network.coin_count(i) for i in (1, 2, 3)]
        )
        for agent in network.agents:
            values = [
                justice_value_network(history, 0, agent, ex, reference=j)
                for j in (1, 2, 3)
            ]
            assert max(values) - min(values) < 1e-9


class TestConvergenceCondition:
    def test_overlapping_pair_within_band(self):
        assert convergence_condition({"a", "b", "c"}, {"b", "c", "d"}, 1.5)

    def test_disjoint_equal_pair_outside_band(self):
        # both bounds collapse to 1, so 1.5 violates
        assert not convergence_condition({"a", "b"}, {"c", "d"}, 1.5)
        assert convergence_condition({"a", "b"}, {"c", "d"}, 1.0)

    def test_identical_communities_always_hold(self):
        v = {"a", "b"}
        for limit in (0.1, 1.0, 42.0):
            assert convergence_condition(v, v, limit)

    def test_band_arithmetic(self):
        v1 = {"a", "b", "c"}
        v2 = {"b", "c", "d"}
        # band is [1/3, 3]
        assert convergence_condition(v1, v2, 1 / 3)
        assert convergence_condition(v1, v2, 3.0)
        assert not convergence_condition(v1, v2, 0.2)
        assert not convergence_condition(v1, v2, 3.5)


class TestPredictedMintFraction:
    def test_hand_solved_case(self):
        # 1.5 = (1 + 2x) / (1 + 2(1 - x))  =>  x = 0.7
        x = predicted_mint_fraction({"a", "b", "c"}, {"b", "c", "d"}, 1.5)
        assert x == pytest.approx(0.7, abs=1e-12)

    def test_symmetric_limit_gives_half(self):
        x = predicted_mint_fraction({"a", "b", "c"}, {"b", "c", "d"}, 1.0)
        assert x == pytest.approx(0.5, abs=1e-12)

    def test_lower_boundary_gives_zero(self):
        v1 = {"a", "b", "c"}
        v2 = {"b", "c", "d"}
        x = predicted_mint_fraction(v1, v2, len(v1 - v2) / len(v2))
        assert x == pytest.approx(0.0, abs=1e-12)

    def test_plugging_back_reproduces_limit(self):
        v1 = set("abcde")
        v2 = set("cdefg")
        shared = len(v1 & v2)
        for limit in (0.8, 1.0, 1.7, 2.2):
            x = predicted_mint_fraction(v1, v2, limit)
            implied = (len(v1 - v2) + x * shared) / (
                len(v2 - v1) + (1 - x) * shared
            )
            assert implied == pytest.approx(limit, abs=1e-12)

    def test_condition_violation_raises(self):
        with pytest.raises(ConditionViolatedError):
            predicted_mint_fraction({"a", "b"}, {"c", "d"}, 1.5)
        with pytest.raises(ConditionViolatedError):
            predicted_mint_fraction({"a", "b", "c"}, {"b", "c", "d"}, 9.0)


class TestConvergenceReport:
    def test_constant_series(self):
        report = convergence_report([2.5] * 50)
        assert report.trailing_mean == 2.5
        assert report.max_deviation == 0.0
        assert report.window == 5

    def test_window_covers_tail(self):
        series = [0.0] * 90 + [1.0] * 10
        report = convergence_report(series)
        assert report.trailing_mean == 1.0

    def test_too_short(self):
        with pytest.raises(TooShortError):
            convergence_report([1.0])

    def test_trailing_mean_adds_left_to_right(self):
        # the builtin sum compensates rounding from Python 3.12 on and would
        # give 1/3 here; left to right, 1e16 + 1.0 rounds back to 1e16
        report = convergence_report([0.0] * 27 + [1e16, 1.0, -1e16])
        assert report.window == 3
        assert report.trailing_mean == 0.0

    def test_network_justice_values_add_left_to_right(self):
        # a holds one coin of currencies 1, 3 and 4, b one coin of 2; left to
        # right, the denominator's 1e16 + 1.0 rounds back to 1e16, so it ends
        # at 1.0 and both values are 1.0 (a compensated sum gives 2.0 and 1/2)
        history = History(
            make_network(
                {
                    1: (["a"], {"a": 1}),
                    2: (["b"], {"b": 1}),
                    3: (["a"], {"a": 1}),
                    4: (["a"], {"a": 1}),
                }
            )
        )
        ((step, balance, cashflow),) = history.cashflow_steps()
        columns = history.key_columns(("a", "b"))
        weights = [1e16, 1.0, -1e16, 1.0]
        assert justice_values(columns, step, balance, cashflow, weights) == [1.0, 1.0]


def settled_triple(steps=30):
    """k = 3 endogenous rates with settlement and a snapshot every third step.

    Each overlap holds two agents with opposite leanings, so settlement has
    counterparties and moves coins.
    """
    return ScenarioConfig(
        name="settled_triple",
        communities=(
            CommunityConfig(1, ("a", "b", "c"), {"a": 3, "b": 2, "c": 1}),
            CommunityConfig(2, ("b", "c", "d", "e"), {"b": 1, "c": 2, "d": 3, "e": 1}),
            CommunityConfig(3, ("d", "e", "f"), {"d": 1, "e": 2, "f": 3}),
        ),
        steps=steps,
        seed=4,
        regime="joint_myopic",
        rates=RatesConfig(mode="endogenous"),
        settlement=True,
        preferences={
            "b": {1: 0.7, 2: 0.3},
            "c": {1: 0.3, 2: 0.7},
            "d": {2: 0.6, 3: 0.4},
            "e": {2: 0.3, 3: 0.7},
        },
        trade_noise=1,
        snapshot_interval=3,
    )


class TestRunSeriesAgainstOracle:
    """The one-pass series and metrics.csv against the per-key reference."""

    @pytest.fixture(
        params=["single_with_joins", "pair_exogenous", "triple_settled"]
    )
    def result(self, request):
        config = {
            "single_with_joins": lambda: scenarios.single_community_dilution(steps=35),
            "pair_exogenous": lambda: scenarios.pair_convergence_exogenous(steps=40),
            "triple_settled": settled_triple,
        }[request.param]()
        return run_scenario(config)

    def test_justice_series_matches_value_semantics(self, result):
        history = result.history
        assert history.k > 1 or history.steps[-1].members != history.steps[0].members
        series = result.justice_series()
        for v in history.agents:
            for t in range(history.last_step + 1):
                if history.k == 1:
                    expected = justice_value_single(history, t, v)
                else:
                    expected = justice_value_network(history, t, v, result.rates_timeline[t])
                assert series[v][t] == pytest.approx(expected, abs=1e-12, nan_ok=True)

    def test_metrics_csv_cashflow_matches_history(self, result, tmp_path):
        history = result.history
        write_metrics_csv(history, tmp_path / "metrics.csv")
        with open(tmp_path / "metrics.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == (history.last_step + 1) * len(history.agents) * history.k
        for row in rows:
            t, v, i = int(row["t"]), row["agent"], int(row["currency"])
            assert int(row["cumulative_cashflow"]) == history.cumulative_cashflow(t, v, i)
