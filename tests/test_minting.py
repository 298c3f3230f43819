import random

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from currencynet.economy import ExchangeRateMatrix, PreferenceProfile, mrs_matrix
from currencynet.errors import InvalidRatesError, NotMemberError
from currencynet.minting import (
    Defensive,
    Egocentric,
    EgalitarianSingle,
    EqualBirthGrant,
    FixedCurrency,
    JointEgalitarian,
    Myopic,
    UniformRandom,
    egocentric_choice,
    mint_step,
    most_valued_coin,
)

from conftest import make_network


def rates_2(ex12):
    return ExchangeRateMatrix(np.array([[1.0, ex12], [1.0 / ex12, 1.0]]))


def overlap_network():
    return make_network(
        {
            1: (["a", "b", "c"], {"a": 1, "b": 1, "c": 1}),
            2: (["b", "c", "d"], {"b": 1, "c": 1, "d": 1}),
        }
    )


class TestMostValuedCoin:
    def test_single_currency(self):
        assert most_valued_coin(ExchangeRateMatrix.ones(1), [1]) == 1

    def test_higher_rate_wins(self):
        assert most_valued_coin(rates_2(1.5), [1, 2]) == 1
        assert most_valued_coin(rates_2(0.5), [1, 2]) == 2

    def test_tie_breaks_to_minimum_index(self):
        assert most_valued_coin(rates_2(1.0), [1, 2]) == 1
        assert most_valued_coin(rates_2(1.0), [2, 1]) == 1

    def test_membership_restricts_choice(self):
        assert most_valued_coin(rates_2(1.5), [2]) == 2

    def test_index_outside_matrix_rejected(self):
        with pytest.raises(InvalidRatesError):
            most_valued_coin(rates_2(1.5), [1, 3])

    @given(
        st.lists(
            st.floats(0.1, 10.0).map(lambda x: round(x, 3)), min_size=2, max_size=4
        ),
        st.data(),
    )
    def test_choice_independent_of_reference(self, prices, data):
        counts = data.draw(
            st.lists(st.integers(1, 50), min_size=len(prices), max_size=len(prices))
        )
        from currencynet.economy import coin_exchange_rates

        ex = coin_exchange_rates(mrs_matrix(prices), counts)
        memberships = list(range(1, len(prices) + 1))
        winners = set()
        for reference in memberships:
            column = [(ex.rate(i, reference), i) for i in memberships]
            best = max(v for v, _ in column)
            winners.add(min(i for v, i in column if v == best))
        assert winners == {most_valued_coin(ex, memberships)}


class TestEgocentricChoice:
    def test_all_weight_on_one_currency(self):
        assert egocentric_choice((1.0, 0.0), {1: 3, 2: 3}, [1, 2]) == 1

    def test_tie_breaks_to_minimum(self):
        assert egocentric_choice((0.5, 0.5), {1: 2, 2: 2}, [1, 2]) == 1

    def test_smaller_share_wins(self):
        # gains 0.5/1 vs 0.5/2
        assert egocentric_choice((0.5, 0.5), {1: 1, 2: 2}, [1, 2]) == 1
        assert egocentric_choice((0.5, 0.5), {1: 2, 2: 1}, [1, 2]) == 2

    def test_zero_balance_wins_outright(self):
        assert egocentric_choice((0.1, 0.9), {1: 0, 2: 5}, [1, 2]) == 1


class TestMintStep:
    def test_myopic_overlap_agents_follow_rates(self):
        network = overlap_network()
        grown, minted = mint_step(
            network, JointEgalitarian(Myopic()), rates=rates_2(1.5)
        )
        assert minted == {("a", 1): 1, ("b", 1): 1, ("c", 1): 1, ("d", 2): 1}
        assert grown.coin_count(1) == 6
        assert grown.coin_count(2) == 4

    def test_egalitarian_single_mints_one_per_member(self):
        members = [f"m{i}" for i in range(10)]
        network = make_network({1: (members, {})})
        grown, minted = mint_step(network, EgalitarianSingle(1))
        assert grown.coin_count(1) == 10
        assert all(minted[(m, 1)] == 1 for m in members)

    def test_defensive_targets_smallest_balance(self):
        network = make_network(
            {1: (["v", "w"], {"v": 5, "w": 1}), 2: (["v", "w"], {"v": 2, "w": 1})}
        )
        grown, minted = mint_step(network, JointEgalitarian(Defensive()))
        assert minted[("v", 2)] == 1  # balances (5, 2): the least is currency 2

    def test_fixed_currency_requires_membership(self):
        network = overlap_network()
        with pytest.raises(NotMemberError):
            mint_step(network, JointEgalitarian(FixedCurrency(2)))

    def test_fixed_currency_mints_there(self):
        network = make_network({1: (["a", "b"], {}), 2: (["a", "b"], {})})
        grown, minted = mint_step(network, JointEgalitarian(FixedCurrency(2)))
        assert minted == {("a", 2): 1, ("b", 2): 1}

    def test_birth_grant_only_for_joiners(self):
        network = overlap_network()
        grown, minted = mint_step(
            network, EqualBirthGrant(5), joiners={("b", 1), ("d", 2)}
        )
        assert minted == {("b", 1): 5, ("d", 2): 5}
        assert grown.coin_count(1) == 8
        assert grown.coin_count(2) == 8

    def test_egocentric_uses_preferences(self):
        network = make_network(
            {1: (["v"], {"v": 2}), 2: (["v"], {"v": 1})}
        )
        prefs = PreferenceProfile({"v": (0.5, 0.5)}, k=2)
        grown, minted = mint_step(
            network, JointEgalitarian(Egocentric()), prefs=prefs
        )
        # balances (2, 1) at equal weights: the smaller holding gives the bigger gain
        assert minted == {("v", 2): 1}

    def test_random_strategy_is_seed_deterministic(self):
        network = overlap_network()
        runs = []
        for _ in range(2):
            _, minted = mint_step(
                network, JointEgalitarian(UniformRandom()), rng=random.Random(42)
            )
            runs.append(minted)
        assert runs[0] == runs[1]

    def test_joint_regime_mints_exactly_one_per_agent(self):
        network = overlap_network()
        for strategy in (Myopic(), Defensive(), UniformRandom()):
            _, minted = mint_step(
                network,
                JointEgalitarian(strategy),
                rates=rates_2(1.2),
                rng=random.Random(1),
            )
            per_agent = {}
            for (agent, _), n in minted.items():
                per_agent[agent] = per_agent.get(agent, 0) + n
            assert per_agent == {a: 1 for a in network.agents}

    def test_minted_coins_are_fresh_and_held_by_members(self):
        network = overlap_network()
        grown, _ = mint_step(network, JointEgalitarian(Myopic()), rates=rates_2(2.0))
        new = {
            c
            for i in grown.currencies
            for c in grown.community(i).coins - network.community(i).coins
        }
        assert len(new) == len(grown.holder) - len(network.holder)
        for coin in new:
            assert coin not in network.holder
            assert grown.holder[coin] in grown.community(coin.currency).members

    def test_input_untouched(self):
        network = overlap_network()
        mint_step(network, JointEgalitarian(Myopic()), rates=rates_2(2.0))
        assert network.coin_count(1) == 3
