import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
import hypothesis.strategies as st

from currencynet.economy import (
    ExchangeRateMatrix,
    PreferenceProfile,
    _dot,
    coin_exchange_rates,
    coin_values_from_market_sums,
    coin_values_from_mrs,
    demand,
    demand_columns,
    diluted_balances,
    fractional_equity,
    largest_remainder_targets,
    market_equilibrium,
    mrs_matrix,
    settle_trades,
    settlement_moves,
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
from currencynet.ledger import Coin, network_from_dict

from conftest import elimination_prices, make_network


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

    def test_nan_endowment_rejected_as_bad_columns(self):
        # a NaN column sum is not within 1e-6 of 1, so it is no reducible economy
        endowment = [[math.nan, 0.5], [0.5, 0.5]]
        with pytest.raises(ValueError, match="endowment columns must sum to 1"):
            solve_equilibrium(endowment, [[0.5, 0.5], [0.5, 0.5]])

    def test_nan_market_entry_rejected(self):
        with pytest.raises(ValueError, match="column 1 sums to nan, not 1"):
            market_equilibrium([[math.nan, 0.5], [0.5, 0.5]])

    @pytest.mark.parametrize(
        "endowment, weights, message",
        [
            # the solve used to return an allocation with a holding of -0.06
            (
                [[0.6, 0.5, 0.5], [0.6, 0.5, 0.5], [-0.2, 0.0, 0.0]],
                [[0.3, 0.3, 0.4]] * 3,
                r"endowment entry \(3, 1\) is negative: -0.2$",
            ),
            ([[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [1.25, -0.25]], r"weights entry \(2, 2\)"),
            # the endowment is read first
            ([[1.5, 0.5], [-0.5, 0.5]], [[1.25, -0.25], [0.5, 0.5]], r"endowment entry \(2, 1\)"),
        ],
    )
    def test_negative_entries_rejected(self, endowment, weights, message):
        with pytest.raises(ValueError, match=message):
            solve_equilibrium(endowment, weights)

    @pytest.mark.parametrize(
        "market, entry",
        [
            # reducible by its tree integers: this used to be the error
            ([[0.5, 0.5, 0.5], [0.75, 0.25, 0.5], [-0.25, 0.25, 0.0]], "(3, 1)"),
            ([[-0.25, 0.5], [1.25, 0.5]], "(1, 1)"),
            ([[0.5, -0.5], [0.5, 1.5]], "(1, 2)"),
            ([[1.25, 0.5], [-0.25, 0.5]], "(2, 1)"),
            ([[0.5, 1.5], [0.5, -0.5]], "(2, 2)"),
            # negative and reducible: the negative entry is named first
            ([[-0.25, 0.0], [1.25, 1.0]], "(1, 1)"),
        ],
    )
    def test_negative_market_entries_rejected(self, market, entry):
        with pytest.raises(ValueError) as info:
            market_equilibrium(market)
        assert str(info.value).startswith(f"market matrix entry {entry} is negative: -")

    def test_given_tree_weights_skip_the_entry_scan(self):
        # a caller with the tree integers has exact nonnegative sums behind them
        market = [[0.5, 0.5, 0.5], [0.75, 0.25, 0.5], [-0.25, 0.25, 0.0]]
        prices, _ = market_equilibrium(market, [1, 1, 2])
        assert prices == (0.25, 0.25, 0.5)


def general_path(market):
    """The float elimination for any k, with market_equilibrium's checks: the oracle for k = 2."""
    k = len(market)
    for j in range(k):
        total = 0.0
        for row in market:
            total += row[j]
        if not abs(total - 1.0) <= 1e-6:  # a NaN total fails too
            raise ValueError(f"market matrix column {j + 1} sums to {total}, not 1")
    for r, row in enumerate(market, 1):
        for j, m in enumerate(row, 1):
            if m < 0.0:
                raise ValueError(f"market matrix entry ({r}, {j}) is negative: {m!r}")
    if not strongly_connected([[m > 0.0 for m in row] for row in market]):
        raise DegenerateEconomyError("prices are indeterminate: the economy is reducible")
    prices = elimination_prices(market)
    residual = max(abs(_dot(row, prices) - p) for row, p in zip(market, prices))
    dead = [i + 1 for i, p in enumerate(prices) if p <= 1e-12]
    if dead:
        raise DegenerateEconomyError(
            f"currencies priced at zero (valued only by zero-wealth agents): {dead}"
        )
    return tuple(prices), residual


def outcome(solve, market):
    """The bits of (prices, residual), or the error's type and message."""
    try:
        prices, residual = solve(market)
    except (ValueError, DegenerateEconomyError) as exc:
        return type(exc), str(exc)
    return [p.hex() for p in prices], residual.hex()


def pair_market(m12, m21):
    return [[1.0 - m21, m12], [m21, 1.0 - m12]]


def engine_shaped_sums(rng, k, agents=5, denominator=16):
    """(sums, counts): sums[j][i] = S_ij from integer balances and weights over D."""
    while True:
        balances = [[rng.randint(0, 40) for _ in range(k)] for _ in range(agents)]
        weights = []
        for _ in range(agents):
            cuts = sorted(rng.randint(0, denominator) for _ in range(k - 1))
            weights.append([b - a for a, b in zip([0] + cuts, cuts + [denominator])])
        counts = [sum(row[j] for row in balances) for j in range(k)]
        sums = [
            [sum(w[i] * b[j] for w, b in zip(weights, balances)) for i in range(k)]
            for j in range(k)
        ]
        market = [[sums[j][i] / (denominator * counts[j]) for j in range(k)] for i in range(k)]
        if all(counts) and strongly_connected([[m > 0.0 for m in row] for row in market]):
            return sums, counts, market


class TestTwoCurrencyClosedForm:
    """For k = 2 market_equilibrium uses p_2 = M_21 / (M_12 + M_21): the elimination's bits."""

    def test_random_markets_match_the_elimination_bit_for_bit(self):
        rng = random.Random(8)
        markets = [pair_market(rng.random(), rng.random()) for _ in range(4000)]
        markets += [engine_shaped_sums(rng, 2)[2] for _ in range(2000)]
        # off-diagonal masses across the whole exponent range, down to 1e-300
        markets += [
            pair_market(2.0 ** -rng.uniform(0, 1000), 2.0 ** -rng.uniform(0, 1000))
            for _ in range(2000)
        ]
        solved = 0
        for market in markets:
            expected = outcome(general_path, market)
            assert outcome(market_equilibrium, market) == expected, market
            solved += expected[0] is not ValueError and expected[0] is not DegenerateEconomyError
        assert solved > 6000

    @pytest.mark.parametrize(
        "m12, m21",
        [
            (1e-300, 3e-300),
            (1e-300, 1e-300),
            (5e-324, 5e-324),
            (0.5, 1.0 - 2.0 ** -53),
            (1.0 - 2.0 ** -53, 0.5),
        ],
    )
    def test_extreme_entries_match_the_elimination(self, m12, m21):
        market = pair_market(m12, m21)
        assert outcome(market_equilibrium, market) == outcome(general_path, market)

    @pytest.mark.parametrize("m12", [0.25, 0.5, 1.0, 1e-300])
    def test_pivot_tie_keeps_the_elimination(self, m12):
        # M_21 = 1 ties the pivot, so the solve is the general elimination's
        market = pair_market(m12, 1.0)
        assert outcome(market_equilibrium, market) == outcome(general_path, market)
        if m12 >= 0.25:
            prices, residual = market_equilibrium(market)
            assert residual < 1e-15
            assert abs(prices[0] - m12 / (1.0 + m12)) < 1e-15

    @pytest.mark.parametrize(
        "market, error, message",
        [
            (pair_market(0.0, 0.5), DegenerateEconomyError, "economy is reducible"),
            (pair_market(0.5, 0.0), DegenerateEconomyError, "economy is reducible"),
            (pair_market(0.0, 0.0), DegenerateEconomyError, "economy is reducible"),
            (pair_market(1e-300, 0.5), DegenerateEconomyError, "priced at zero .*: \\[1\\]"),
            (pair_market(0.5, 1e-300), DegenerateEconomyError, "priced at zero .*: \\[2\\]"),
            ([[0.5, 0.5], [0.6, 0.5]], ValueError, "column 1 sums to 1.1, not 1"),
            ([[0.5, 0.5], [0.5, 0.4]], ValueError, "column 2 sums to 0.9, not 1"),
            ([[0.5, 0.5], [0.5 + 2**-18, 0.5]], ValueError, "column 1 sums to 1.0000038146"),
            ([[0.5, 0.5], [0.5, 0.5 - 2**-18]], ValueError, "column 2 sums to 0.9999961853"),
            ([[0.5, math.nan], [0.5, 0.5]], ValueError, "column 2 sums to nan, not 1"),
            ([[math.inf, 0.5], [-math.inf, 0.5]], ValueError, "column 1 sums to nan, not 1"),
            ([[0.5, math.inf], [0.5, 0.5]], ValueError, "column 2 sums to inf, not 1"),
        ],
    )
    def test_ill_posed_markets_raise_as_the_general_path(self, market, error, message):
        with pytest.raises(error, match=message):
            market_equilibrium(market)
        assert outcome(market_equilibrium, market) == outcome(general_path, market)

    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.sampled_from([0.0, 5e-7, -5e-7, 1.5e-6, -1.5e-6, math.nan, math.inf]),
        st.booleans(),
    )
    def test_column_check_is_the_loops(self, m12, m21, off, second):
        # the k = 2 branch adds 0.0 + m_1j + m_2j, as the general loop does
        market = pair_market(m12, m21)
        market[1 if second else 0][1 if second else 0] += off
        assert outcome(market_equilibrium, market) == outcome(general_path, market)

    def test_prices_are_python_floats_in_a_tuple(self):
        prices, residual = market_equilibrium(((0.75, 0.25), (0.25, 0.75)))
        assert prices == (0.5, 0.5)
        assert type(residual) is float and all(type(p) is float for p in prices)


def sparse_sums(k):
    """sums[j][i] = S_ij, about half of them zero, each column with a positive total."""
    entry = st.just(0) | st.integers(1, 50)
    return st.lists(
        st.lists(entry, min_size=k, max_size=k).filter(any), min_size=k, max_size=k
    )


class TestTreeRule:
    """For k >= 3 the prices are p_r = c_r T_r / sum(c T), T the spanning-tree integers."""

    @given(st.integers(3, 5).flatmap(sparse_sums))
    def test_tree_prices_on_sparse_markets(self, sums):
        # with D = 1 each coin count is its column's total, so M_ij = S_ij / c_j
        k = len(sums)
        counts = [sum(column) for column in sums]
        market = [[sums[j][i] / counts[j] for j in range(k)] for i in range(k)]
        trees = coin_values_from_market_sums(sums)
        weights = [c * t for c, t in zip(counts, trees)]
        connected = strongly_connected([[sums[j][i] > 0 for j in range(k)] for i in range(k)])
        assert all(trees) == connected
        # the tree theorem in integers: what flows into each currency flows out
        for i in range(k):
            assert sum(sums[j][i] * trees[j] for j in range(k)) == trees[i] * counts[i]
        if not connected:
            for given_weights in (weights, None):
                with pytest.raises(DegenerateEconomyError) as caught:
                    market_equilibrium(market, given_weights)
                assert str(caught.value) == "prices are indeterminate: the economy is reducible"
            return
        prices, residual = market_equilibrium(market, weights)
        assert prices == tuple(float(Fraction(w, sum(weights))) for w in weights)
        assert residual < 1e-15
        # read off the float market itself, the prices agree to rounding
        from_floats, _ = market_equilibrium(market)
        assert max(abs(p - q) for p, q in zip(prices, from_floats)) < 1e-15

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_tree_prices_on_engine_shaped_markets(self, k):
        rng = random.Random(k)
        for _ in range(200):
            sums, counts, market = engine_shaped_sums(rng, k)
            weights = [c * t for c, t in zip(counts, coin_values_from_market_sums(sums))]
            prices, residual = market_equilibrium(market, weights)
            assert prices == tuple(float(Fraction(w, sum(weights))) for w in weights)
            assert all(type(p) is float for p in prices)
            assert residual < 1e-15
            assert max(abs(p - q) for p, q in zip(prices, elimination_prices(market))) < 1e-14


def assert_close_rates(ex, expected, tol=1e-12):
    for row, expected_row in zip(ex, expected):
        for x, y in zip(row, expected_row):
            assert abs(x - y) <= tol * y


def dyadic_coin_values(row, counts) -> list:
    """coin_values_from_mrs's general rule, in fractions: prod(w) // w_i, w_i = n_i c_i."""
    ratios = [Fraction(x) for x in row]
    denominator = max(r.denominator for r in ratios)
    weights = [int(r * denominator) * c for r, c in zip(ratios, counts)]
    product = math.prod(weights)
    return [product // w for w in weights]


def rate_bits(values):
    """The bits of from_values(values).ex, or the message of its InvalidRatesError."""
    try:
        matrix = ExchangeRateMatrix.from_values(values)
    except InvalidRatesError as exc:
        return str(exc)
    return [x.hex() for row in matrix.ex for x in row], matrix.ranking


class TestRankedRates:
    """``ExchangeRateMatrix.from_values``: the one rule a run builds its rates by."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_ranked_rates_equal_the_validated_rates(self, k):
        # engine-shaped inputs: integer market sums and the solved prices; the
        # exact coin values give the validated float rates up to rounding
        rng = random.Random(k)
        for _ in range(500):
            sums, counts, market = engine_shaped_sums(rng, k)
            prices, _ = market_equilibrium(market)
            ranked = ExchangeRateMatrix.from_values(coin_values_from_market_sums(sums))
            assert_close_rates(ranked.ex, coin_exchange_rates(mrs_matrix(prices), counts).ex)

    def test_mrs_values_equal_the_validated_rates(self):
        rng = random.Random(5)
        for _ in range(500):
            k = rng.randint(1, 5)
            mrs = mrs_matrix([rng.random() + 0.01 for _ in range(k)])
            counts = [rng.randint(1, 1000) for _ in range(k)]
            ranked = ExchangeRateMatrix.from_values(coin_values_from_mrs(mrs, counts))
            assert_close_rates(ranked.ex, coin_exchange_rates(mrs, counts).ex)

    @given(
        st.lists(st.integers(1, 6) | st.integers(1, 2**200), min_size=1, max_size=5),
        st.integers(-3, 0),
        st.data(),
    )
    def test_values_make_a_ranked_arbitrage_free_matrix(self, values, bad, data):
        matrix = ExchangeRateMatrix.from_values(values)
        assert matrix.ex == tuple(tuple(v / w for w in values) for v in values)
        assert ExchangeRateMatrix(matrix.ex).ex == matrix.ex  # passes the full check
        k = len(values)
        assert all(matrix.ex[i][i] == 1.0 for i in range(k))
        assert matrix.ranking == tuple(sorted(range(1, k + 1), key=lambda i: (-values[i - 1], i)))
        for i in range(k):
            for j in range(k):
                if values[i] >= values[j]:
                    assert matrix.ex[i][j] >= 1.0
        spot = data.draw(st.integers(0, k - 1))
        with pytest.raises(InvalidRatesError):
            ExchangeRateMatrix.from_values(values[:spot] + [bad] + values[spot + 1:])

    @given(st.floats(5e-324, 1e300), st.integers(1, 10**6), st.integers(1, 10**6))
    @example(5e-324, 1, 10**6)
    @example(1e300, 10**6, 1)
    @example(0.3, 3, 10)
    def test_pair_values_are_the_general_rule(self, m, c1, c2):
        values = coin_values_from_mrs(((1.0, m), (1.0 / m, 1.0)), [c1, c2])
        assert values == dyadic_coin_values((1.0, m), [c1, c2])
        assert rate_bits(values) == rate_bits(dyadic_coin_values((1.0, m), [c1, c2]))

    @given(
        st.floats(0.01, 100.0).filter(lambda x: x != 1.0),
        st.floats(0.01, 100.0),
        st.integers(1, 10**6),
        st.integers(1, 10**6),
    )
    @example(2.0, 0.75, 3, 5)
    def test_a_pair_row_not_led_by_one_takes_the_general_rule(self, first, m, c1, c2):
        assert coin_values_from_mrs(((first, m), (1.0, 1.0)), [c1, c2]) == dyadic_coin_values(
            (first, m), [c1, c2]
        )

    @pytest.mark.parametrize("values", [(1, 2.0), (1, None), (1, 2**1100)])
    def test_values_that_make_no_float_rates_rejected(self, values):
        with pytest.raises(InvalidRatesError):
            ExchangeRateMatrix.from_values(values)


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

    @given(
        st.lists(
            st.floats(0.0, exclude_min=True, allow_infinity=False) | st.integers(1, 10**6),
            min_size=1,
            max_size=5,
        ),
        st.sampled_from([0.0, -0.0, -1.5, -math.inf, math.inf, math.nan]),
        st.integers(0, 4),
    )
    @example([0.5, 0.25], math.inf, 1)
    @example([0.5, 0.25], math.nan, 0)
    def test_ratios_are_the_general_formula(self, prices, bad, spot):
        p = [float(x) for x in prices]
        expected = tuple(tuple(pi / pj for pj in p) for pi in p)
        mrs = mrs_matrix(prices)
        assert [[x.hex() for x in row] for row in mrs] == [[x.hex() for x in row] for row in expected]
        prices[spot % len(prices)] = bad
        with pytest.raises(NonPositivePriceError) as caught:
            mrs_matrix(prices)
        assert str(caught.value) == f"prices must be positive, got {[float(x) for x in prices]}"


class TestCoinExchangeRates:
    def test_volume_absorbs_value_gap(self):
        ex = coin_exchange_rates(np.array([[1.0, 2.0], [0.5, 1.0]]), [200, 100])
        assert ex.rate(1, 2) == 1.0

    def test_flat_rates(self):
        ex = coin_exchange_rates(np.ones((2, 2)), [100, 100])
        assert ex.ex == ((1.0, 1.0), (1.0, 1.0))

    def test_equal_volumes_passthrough(self):
        ex = coin_exchange_rates(np.array([[1.0, 1.5], [1 / 1.5, 1.0]]), [100, 100])
        assert ex.rate(1, 2) == 1.5

    def test_zero_coins_rejected(self):
        with pytest.raises(ZeroCoinsError):
            coin_exchange_rates(np.ones((2, 2)), [100, 0])

    @pytest.mark.parametrize(
        "mrs, counts, error",
        [
            (((1.0, 2.0), (0.5, 2.0)), [1, 1], InvalidRatesError),  # diagonal
            (((1.0, math.inf), (0.0, 1.0)), [1, 1], InvalidRatesError),
            (((1.0, math.nan), (math.nan, 1.0)), [1, 1], InvalidRatesError),
            (((1.0, 2.0),), [1, 1], InvalidRatesError),  # shape
            (((1.0, 2.0), (0.5,)), [1, 1], InvalidRatesError),
            (None, [1, 1], InvalidRatesError),
            (((1.0, 2.0), (0.5, 1.0)), [1, 0], ZeroCoinsError),
        ],
    )
    def test_bad_inputs_rejected(self, mrs, counts, error):
        with pytest.raises(error):
            coin_exchange_rates(mrs, counts)

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

    @pytest.mark.parametrize("j", [0, -1, 3])
    def test_column_index_checked(self, j):
        # column(0) used to read column 2 through index -1
        rates = ExchangeRateMatrix(((1.0, 2.0), (0.5, 1.0)))
        assert rates.column(2) == [2.0, 1.0]
        with pytest.raises(InvalidRatesError, match="out of range"):
            rates.column(j)


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

    def test_holder_without_allocation_row_rejected(self):
        network = make_network({1: (["a", "b"], {"a": 1, "b": 1})})
        with pytest.raises(
            InfeasibleAllocationError, match=r"coin holders without an allocation row: \['b'\]"
        ):
            settle_trades(network, [[1.0]], ["a"])


class TestSettlementMoves:
    def test_donors_give_their_lowest_serials_and_stop_scanning(self):
        class Scanned(list):
            # records the last position any scan of the holders read
            last = -1

            def __iter__(self):
                for position, agent in enumerate(list.__iter__(self)):
                    self.last = max(self.last, position)
                    yield agent

        # serials 0..7; a holds 1, 3, 5, 6 and must give 2; b holds 0, 4 and
        # must give 1; c needs 2 and d needs 1
        holders = Scanned(["b", "a", "c", "a", "b", "a", "a", "d"])
        moves = settlement_moves(["a", "b", "c", "d"], [4, 2, 1, 1], [2, 1, 3, 2], holders)
        # donors in agent order, each from its lowest serial; recipients in
        # agent order
        assert moves == [(1, "a", "c"), (3, "a", "c"), (0, "b", "d")]
        assert holders.last == 3

    def test_settle_trades_moves_lowest_serials_across_gaps(self):
        network = network_from_dict(
            {
                "communities": [
                    {"index": 1, "members": ["a", "b"], "coins": ["1:0", "1:3", "1:7", "1:12"]}
                ],
                "holder": {"1:0": "b", "1:3": "a", "1:7": "a", "1:12": "a"},
            }
        )
        settled = settle_trades(network, [[0.25], [0.75]])
        # a keeps 1 of its 3 coins and gives serials 3 and 7, the lowest by
        # number (as tokens "1:12" would sort first)
        assert settled.holder == {
            Coin(1, 0): "b",
            Coin(1, 3): "b",
            Coin(1, 7): "b",
            Coin(1, 12): "a",
        }


class TestLargestRemainder:
    def test_hand_enumerated_tie(self):
        assert largest_remainder_targets([0.25, 0.75], 10) == [3, 7]

    def test_exact_fractions(self):
        assert largest_remainder_targets([0.2, 0.3, 0.5], 10) == [2, 3, 5]

    @pytest.mark.parametrize(
        "fractions, total", [([0.125] * 3, 4), ([], 3)], ids=["below_one", "no_positions"]
    )
    def test_a_total_it_cannot_keep_is_refused(self, fractions, total):
        with pytest.raises(InfeasibleAllocationError, match="sum below one"):
            largest_remainder_targets(fractions, total)

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


def sorted_rule(fractions, total):
    """Largest remainder by a full sort on (-remainder, position).

    None when more coins are left over than there are positions.
    """
    exact = [float(f) * total for f in fractions]
    base = [math.floor(x) for x in exact]
    if total - sum(base) > len(base):
        return None
    order = sorted(range(len(exact)), key=lambda idx: (-(exact[idx] - base[idx]), idx))
    for idx in order[: total - sum(base)]:
        base[idx] += 1
    return base


@st.composite
def tying_fractions(draw):
    """Fractions in 32nds, so that equal parts tie exactly, or arbitrary ones."""
    if draw(st.booleans()):
        parts = draw(st.lists(st.integers(0, 3), min_size=1, max_size=8))
        return [n / 32 for n in parts]  # sum at most 3/4
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    total = sum(raw)
    return [x / total for x in raw] if total else [1.0 / len(raw)] * len(raw)


class TestLargestRemainderRule:
    @given(tying_fractions(), st.integers(0, 64))
    @example([0.25, 0.25, 0.5], 4)   # nothing left over
    @example([0.25, 0.25, 0.5], 0)
    @example([0.25, 0.25, 0.25, 0.25], 2)  # four tied remainders, two coins over
    def test_matches_the_sorted_rule(self, fractions, total):
        expected = sorted_rule(fractions, total)
        if expected is None:
            with pytest.raises(InfeasibleAllocationError):
                largest_remainder_targets(fractions, total)
        else:
            assert largest_remainder_targets(fractions, total) == expected


@st.composite
def parted_fractions(draw):
    """Fractions p / sum(parts) of small integer parts, so equal parts tie exactly."""
    parts = draw(st.lists(st.integers(0, 4), min_size=1, max_size=8).filter(any))
    return [p / sum(parts) for p in parts]


class TestLargestRemainderProperties:
    @given(st.one_of(parted_fractions(), tying_fractions()), st.integers(0, 64))
    @example([1 / 3] * 3, 7)  # three tied remainders, one coin over
    def test_exact_total_within_one_and_ties_to_the_earlier(self, fractions, total):
        exact = [f * total for f in fractions]
        base = [math.floor(x) for x in exact]
        assume(sum(base) <= total <= sum(base) + len(base))
        targets = largest_remainder_targets(fractions, total)
        assert sum(targets) == total
        assert all(0 <= n - b <= 1 and abs(n - x) <= 1 for n, b, x in zip(targets, base, exact))
        # a coin left over goes to a larger remainder first, and between
        # equal remainders to the earlier position
        extra = [n - b for n, b in zip(targets, base)]
        remainders = [x - b for x, b in zip(exact, base)]
        for j in range(len(fractions)):
            for i in range(j):
                if remainders[i] >= remainders[j]:
                    assert extra[i] >= extra[j]
                else:
                    assert extra[i] <= extra[j]


@st.composite
def column_economies(draw):
    """Coin counts, weights and prices of k currencies and n agents, in columns.

    Agents may hold no coins and weights may be zero; every currency has a coin.
    """
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    holdings = [draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)) for _ in range(k)]
    counts = [sum(column) or 1 for column in holdings]
    weight = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    weights = [draw(st.lists(weight, min_size=n, max_size=n)) for _ in range(k)]
    prices = draw(st.lists(st.floats(1e-6, 1.0), min_size=k, max_size=k))
    return holdings, counts, weights, prices


class TestDemandColumns:
    @given(column_economies())
    @example(([[0, 3], [0, 1]], [3, 1], [[0.0, 0.5], [0.0, 0.5]], [0.3, 0.7]))
    @example(([[0, 0]], [1], [[0.0, 1.0]], [1.0]))
    def test_equals_the_transposed_rows_bit_for_bit(self, economy):
        holdings, counts, weights, prices = economy
        endowment = [[n / c for n, c in zip(row, counts)] for row in zip(*holdings)]
        rows = demand(endowment, list(zip(*weights)), prices)
        columns = demand_columns(holdings, counts, weights, prices)
        assert [list(map(float.hex, column)) for column in columns] == [
            list(map(float.hex, column)) for column in zip(*rows)
        ]


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
