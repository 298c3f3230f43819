import math

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from currencynet.economy import (
    ExchangeRateMatrix,
    PreferenceProfile,
    coin_exchange_rates,
    diluted_balances,
    fractional_equity,
    largest_remainder_targets,
    mrs_matrix,
    settle_trades,
    solve_equilibrium,
    strongly_connected,
)
from currencynet.errors import (
    DegenerateEconomyError,
    EmptyCurrencyError,
    InfeasibleAllocationError,
    InvalidRatesError,
    NonPositivePriceError,
    ZeroCoinsError,
)

from conftest import make_network


def two_agent_price_oracle(a1, b1, e_a, e_b):
    """Price of currency 1, solved by hand from the linear fixed point.

    p1 = a1 * (e_a . p) + b1 * (e_b . p) with p2 = 1 - p1 rearranges to
    p1 * (1 - a1*(e_a1 - e_a2) - b1*(e_b1 - e_b2)) = a1*e_a2 + b1*e_b2.
    """
    slope = 1.0 - a1 * (e_a[0] - e_a[1]) - b1 * (e_b[0] - e_b[1])
    return (a1 * e_a[1] + b1 * e_b[1]) / slope


class TestDilutedBalances:
    def test_single_agent_owns_everything(self):
        network = make_network({1: (["a"], {"a": 4}), 2: (["a"], {"a": 2})})
        agents, matrix = diluted_balances(network)
        assert agents == ["a"]
        assert np.asarray(matrix).tolist() == [[1.0, 1.0]]

    def test_even_split(self):
        network = make_network({1: (["a", "b"], {"a": 3, "b": 3})})
        _, matrix = diluted_balances(network)
        assert np.asarray(matrix)[:, 0].tolist() == [0.5, 0.5]

    def test_columns_sum_to_one(self):
        network = make_network(
            {1: (["a", "b", "c"], {"a": 2, "b": 1}), 2: (["b", "c"], {"c": 5})}
        )
        _, matrix = diluted_balances(network)
        assert np.allclose(np.asarray(matrix).sum(axis=0), 1.0)
        # direct count / total for a spot entry
        assert matrix[0][0] == 2 / 3

    def test_empty_currency_rejected(self):
        network = make_network({1: (["a"], {"a": 1}), 2: (["a"], {})})
        with pytest.raises(EmptyCurrencyError):
            diluted_balances(network)


class TestSolveEquilibrium:
    def test_single_currency(self):
        endowment = np.array([[0.25], [0.75]])
        weights = np.array([[1.0], [1.0]])
        result = solve_equilibrium(endowment, weights)
        assert np.asarray(result.prices).tolist() == [1.0]
        assert np.allclose(result.allocation, endowment)

    def test_symmetric_two_by_two(self):
        endowment = np.eye(2)
        weights = np.full((2, 2), 0.5)
        result = solve_equilibrium(endowment, weights)
        assert np.allclose(result.prices, [0.5, 0.5])
        assert np.allclose(result.allocation, 0.5)

    def test_matches_hand_solved_case(self):
        # a owns all of currency 1, b all of currency 2
        endowment = np.eye(2)
        weights = np.array([[0.75, 0.25], [0.25, 0.75]])
        expected_p1 = two_agent_price_oracle(0.75, 0.25, (1, 0), (0, 1))
        assert expected_p1 == 0.5  # sanity of the oracle algebra
        result = solve_equilibrium(endowment, weights)
        assert abs(result.prices[0] - expected_p1) < 1e-10
        assert np.allclose(result.allocation, [[0.75, 0.25], [0.25, 0.75]])

    def test_market_clearing(self):
        rng = np.random.default_rng(7)
        endowment = rng.random((5, 3)) + 0.01
        endowment /= endowment.sum(axis=0, keepdims=True)
        weights = rng.random((5, 3)) + 0.05
        weights /= weights.sum(axis=1, keepdims=True)
        result = solve_equilibrium(endowment, weights)
        assert np.all(np.abs(np.asarray(result.allocation).sum(axis=0) - 1.0) < 1e-8)
        assert result.residual < 1e-12

    def test_allocation_weakly_improves_utility(self):
        rng = np.random.default_rng(11)
        endowment = rng.random((4, 2)) + 0.05
        endowment /= endowment.sum(axis=0, keepdims=True)
        weights = rng.random((4, 2)) + 0.1
        weights /= weights.sum(axis=1, keepdims=True)
        result = solve_equilibrium(endowment, weights)

        def log_utility(row, alloc):
            return float(np.sum(weights[row] * np.log(alloc)))

        for row in range(4):
            assert log_utility(row, result.allocation[row]) >= (
                log_utility(row, endowment[row]) - 1e-9
            )

    def test_degenerate_currency_rejected(self):
        endowment = np.eye(2)
        weights = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DegenerateEconomyError):
            solve_equilibrium(endowment, weights)

    def test_reducible_economy_rejected(self):
        # each agent holds and values only its own currency: prices are indeterminate
        endowment = np.eye(2)
        weights = np.eye(2)
        with pytest.raises(DegenerateEconomyError):
            solve_equilibrium(endowment, weights)

    @pytest.mark.parametrize("eps", [1e-3, 1e-6])
    def test_weakly_coupled_economy_solved_exactly(self, eps):
        # p1 = (1 - eps) p1 + 2 eps p2 gives p1 = 2 p2, so p1 = 2/3
        endowment = np.eye(2)
        weights = np.array([[1.0 - eps, eps], [2.0 * eps, 1.0 - 2.0 * eps]])
        result = solve_equilibrium(endowment, weights)
        assert abs(result.prices[0] - 2.0 / 3.0) < 1e-12

    def test_matches_numpy_linear_solve(self):
        # reference: the same system solved by LAPACK through numpy
        rng = np.random.default_rng(5)
        for k in (2, 3, 4):
            for _ in range(50):
                n = int(rng.integers(2, 8))
                endowment = rng.random((n, k)) + 0.01
                endowment /= endowment.sum(axis=0, keepdims=True)
                weights = rng.random((n, k)) * (rng.random((n, k)) < 0.7) + 1e-3
                weights /= weights.sum(axis=1, keepdims=True)
                market = weights.T @ endowment
                system = market - np.diag(market.sum(axis=0))
                system[-1] = 1.0
                expected = np.linalg.solve(system, np.eye(k)[-1])
                result = solve_equilibrium(endowment, weights)
                assert np.allclose(result.prices, expected, rtol=0, atol=1e-14)
                prices = np.array(result.prices)
                assert np.allclose(
                    result.allocation,
                    weights * (endowment @ prices)[:, None] / prices,
                    rtol=1e-13,
                    atol=0,
                )
                assert all(type(p) is float for p in result.prices)

    def test_bad_column_sums_rejected(self):
        endowment = np.array([[0.7, 0.1], [0.7, 0.9]])
        weights = np.full((2, 2), 0.5)
        with pytest.raises(ValueError):
            solve_equilibrium(endowment, weights)


class TestStronglyConnected:
    def test_matches_matrix_power_definition(self):
        # reference: (I + A)^(k-1) has no zero entry exactly when strongly connected
        rng = np.random.default_rng(3)
        for k in range(1, 6):
            for _ in range(200):
                links = rng.random((k, k)) < 0.35
                reach = np.linalg.matrix_power(links | np.eye(k, dtype=bool), k - 1)
                assert strongly_connected(links) == bool(reach.all())
                assert strongly_connected(links.tolist()) == bool(reach.all())


class TestMrsMatrix:
    def test_equal_prices_all_ones(self):
        assert np.asarray(mrs_matrix([0.5, 0.5])).tolist() == [[1.0, 1.0], [1.0, 1.0]]

    def test_three_currency_arithmetic(self):
        mrs = np.asarray(mrs_matrix([0.6, 0.3, 0.1]))
        assert mrs[0, 2] == pytest.approx(6.0, rel=1e-12)
        assert mrs[0, 1] * mrs[1, 2] == pytest.approx(6.0, rel=1e-12)
        assert np.all(np.diag(mrs) == 1.0)

    def test_matches_equilibrium_ratio(self):
        endowment = np.eye(2)
        weights = np.array([[0.75, 0.25], [0.25, 0.75]])
        result = solve_equilibrium(endowment, weights)
        mrs = np.asarray(mrs_matrix(result.prices))
        assert abs(mrs[0, 1] - 1.0) < 1e-9  # oracle: p = (0.5, 0.5)

    def test_nonpositive_prices_rejected(self):
        with pytest.raises(NonPositivePriceError):
            mrs_matrix([0.5, 0.0])


class TestCoinExchangeRates:
    def test_volume_absorbs_value_gap(self):
        ex = coin_exchange_rates(np.array([[1.0, 2.0], [0.5, 1.0]]), [200, 100])
        assert ex.rate(1, 2) == 1.0

    def test_flat_rates(self):
        ex = coin_exchange_rates(np.ones((2, 2)), [100, 100])
        assert ex.as_lists() == [[1.0, 1.0], [1.0, 1.0]]

    def test_equal_volumes_passthrough(self):
        ex = coin_exchange_rates(np.array([[1.0, 1.5], [1 / 1.5, 1.0]]), [100, 100])
        assert ex.rate(1, 2) == 1.5

    def test_zero_coins_rejected(self):
        with pytest.raises(ZeroCoinsError):
            coin_exchange_rates(np.ones((2, 2)), [100, 0])

    def test_perfect_balance_is_exactly_one(self):
        # volume ratios exactly equal to the substitution rates
        for counts, mrs12 in (
            ((200, 100), 2.0),
            ((150, 100), 1.5),
            ((100, 200), 0.5),
            ((125, 100), 1.25),
            ((96, 128), 0.75),
        ):
            mrs = np.array([[1.0, mrs12], [1.0 / mrs12, 1.0]])
            ex = coin_exchange_rates(mrs, list(counts))
            assert ex.rate(1, 2) == 1.0
            assert ex.rate(2, 1) == 1.0

    @given(
        st.lists(st.floats(0.1, 10.0), min_size=2, max_size=4),
        st.data(),
    )
    def test_rate_axioms_hold(self, prices, data):
        counts = data.draw(
            st.lists(
                st.integers(1, 1000), min_size=len(prices), max_size=len(prices)
            )
        )
        ex = np.asarray(coin_exchange_rates(mrs_matrix(prices), counts).ex)
        k = len(prices)
        for i in range(k):
            assert ex[i, i] == 1.0
            for j in range(k):
                assert abs(ex[i, j] * ex[j, i] - 1.0) <= 1e-9
                for l in range(k):
                    assert abs(ex[i, j] * ex[j, l] - ex[i, l]) <= 1e-9 * max(
                        1.0, ex[i, l]
                    )


class TestExchangeRateMatrixValidation:
    def test_bad_diagonal_rejected(self):
        with pytest.raises(InvalidRatesError):
            ExchangeRateMatrix(np.array([[1.0, 2.0], [0.5, 1.1]]))

    def test_arbitrage_violation_rejected(self):
        bad = np.array([[1.0, 2.0, 2.0], [0.5, 1.0, 3.0], [0.5, 1 / 3, 1.0]])
        with pytest.raises(InvalidRatesError):
            ExchangeRateMatrix(bad)

    def test_nonpositive_rejected(self):
        with pytest.raises(InvalidRatesError):
            ExchangeRateMatrix(np.array([[1.0, -2.0], [-0.5, 1.0]]))


class TestFractionalEquity:
    def test_sole_holder_owns_everything(self):
        network = make_network({1: (["a", "b"], {"a": 3})})
        assert fractional_equity(network, ExchangeRateMatrix.ones(1), "a") == 1.0

    def test_half_of_each_at_flat_rates(self):
        network = make_network(
            {1: (["a", "b"], {"a": 1, "b": 1}), 2: (["a", "b"], {"a": 1, "b": 1})}
        )
        assert fractional_equity(network, ExchangeRateMatrix.ones(2), "a") == 0.5

    def test_asymmetric_holdings_hand_computed(self):
        # v holds 1 of 2 coins in currency 1 and 1 of 4 in currency 2,
        # one coin of currency 1 worth two of currency 2:
        # (1*1 + 1*0.5) / (2*1 + 4*0.5) = 0.375
        network = make_network(
            {
                1: (["v", "w"], {"v": 1, "w": 1}),
                2: (["v", "w"], {"v": 1, "w": 3}),
            }
        )
        ex = ExchangeRateMatrix(np.array([[1.0, 2.0], [0.5, 1.0]]))
        assert fractional_equity(network, ex, "v") == pytest.approx(0.375, abs=1e-12)

    def test_sums_to_one(self):
        network = make_network(
            {
                1: (["a", "b", "c"], {"a": 5, "b": 2}),
                2: (["b", "c"], {"b": 1, "c": 6}),
            }
        )
        ex = ExchangeRateMatrix(np.array([[1.0, 0.8], [1.25, 1.0]]))
        total = sum(fractional_equity(network, ex, v) for v in network.agents)
        assert abs(total - 1.0) < 1e-9


class TestSettleTrades:
    def test_no_op_when_allocation_matches(self):
        network = make_network({1: (["a", "b"], {"a": 1, "b": 1})})
        _, current = diluted_balances(network)
        assert settle_trades(network, current) == network

    def test_even_split_moves_half(self):
        network = make_network({1: (["a", "b"], {"a": 10})})
        settled = settle_trades(network, np.array([[0.5], [0.5]]))
        counts = {"a": 0, "b": 0}
        for coin, agent in settled.holder.items():
            counts[agent] += 1
        assert counts == {"a": 5, "b": 5}

    def test_largest_remainder_tie_goes_to_first_agent(self):
        network = make_network({1: (["a", "b"], {"a": 10})})
        settled = settle_trades(network, np.array([[0.25], [0.75]]))
        counts = {"a": 0, "b": 0}
        for coin, agent in settled.holder.items():
            counts[agent] += 1
        assert counts == {"a": 3, "b": 7}

    def test_column_totals_preserved(self):
        network = make_network(
            {1: (["a", "b", "c"], {"a": 7, "b": 2}), 2: (["a", "b", "c"], {"c": 5})}
        )
        allocation = np.array([[0.2, 0.5], [0.5, 0.2], [0.3, 0.3]])
        settled = settle_trades(network, allocation)
        for i in (1, 2):
            assert settled.coin_count(i) == network.coin_count(i)

    def test_bad_allocation_rejected(self):
        network = make_network({1: (["a", "b"], {"a": 2})})
        with pytest.raises(InfeasibleAllocationError):
            settle_trades(network, np.array([[0.9], [0.9]]))


class TestLargestRemainder:
    def test_hand_enumerated_tie(self):
        assert largest_remainder_targets([0.25, 0.75], 10) == [3, 7]

    def test_exact_fractions(self):
        assert largest_remainder_targets([0.2, 0.3, 0.5], 10) == [2, 3, 5]

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
        st.integers(0, 200),
    )
    def test_totals_always_exact(self, raw, total):
        weight = sum(raw)
        if weight == 0:
            fractions = [1.0 / len(raw)] * len(raw)
        else:
            fractions = [x / weight for x in raw]
        targets = largest_remainder_targets(fractions, total)
        assert sum(targets) == total
        assert all(n >= 0 for n in targets)


class TestPreferenceProfile:
    def test_valid_profile(self):
        profile = PreferenceProfile({"a": (0.6, 0.4), "b": (0.0, 1.0)}, k=2)
        assert profile.weight("a", 1) == 0.6
        assert np.asarray(profile.matrix(["a", "b"])).shape == (2, 2)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            PreferenceProfile({"a": (0.6, 0.6)}, k=2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            PreferenceProfile({"a": (1.2, -0.2)}, k=2)
