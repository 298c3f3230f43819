import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from currencynet.accounting import History, HistoryStep, check_accounting_identity
from currencynet.errors import BadIndexError, MonotonicityViolationError, RecordError
from currencynet.ledger import Coin, CurrencyCommunity, CurrencyNetwork, pay
from currencynet.minting import EgalitarianSingle, mint_step

from conftest import make_network, tally


def grant_network(agents, coins_each):
    return make_network({1: (list(agents), {a: coins_each for a in agents})})


def build_random_history(seed, steps=30, agents=("a", "b", "c", "d")):
    """Random mint/trade history with full snapshots, via the ledger ops."""
    rng = random.Random(seed)
    network = grant_network(agents, 2)
    history = History(network)
    for t in range(1, steps + 1):
        minted = {}
        if rng.random() < 0.7:
            network, minted = mint_step(network, EgalitarianSingle(1))
        for _ in range(rng.randrange(3)):
            coins = sorted(network.community(1).coins)
            coin = coins[rng.randrange(len(coins))]
            payee = agents[rng.randrange(len(agents))]
            network = pay(network, coin, network.holder[coin], payee)
        history.extend(network, minted)
    return history


class TestBalance:
    def test_equal_grant_at_start(self):
        history = History(grant_network(["a", "b", "c"], 5))
        for agent in ("a", "b", "c"):
            assert history.balance(0, agent, 1) == 5

    def test_non_member_is_zero(self):
        history = History(grant_network(["a", "b"], 5))
        assert history.balance(0, "zz", 1) == 0

    def test_zero_after_paying_only_coin(self):
        network = grant_network(["a", "b"], 0)
        coin = Coin(1, 0)
        network = network.with_coins({coin: "a"})
        history = History(network)
        history.extend(pay(network, coin, "a", "b"), minted={})
        assert history.balance(1, "a", 1) == 0
        assert history.balance(1, "b", 1) == 1

    def test_bad_index(self):
        history = History(grant_network(["a"], 1))
        with pytest.raises(BadIndexError):
            history.balance(3, "a", 1)


class TestIncome:
    def test_egalitarian_step_gives_one_each(self):
        network = grant_network(["a", "b", "c"], 0)
        grown, minted = mint_step(network, EgalitarianSingle(1))
        history = History(network)
        history.extend(grown, minted)
        for agent in ("a", "b", "c"):
            assert history.income(1, agent, 1) == 1

    def test_no_minting_no_income(self):
        network = grant_network(["a", "b"], 2)
        history = History(network)
        history.extend(network, minted={})
        assert history.income(1, "a", 1) == 0

    def test_minted_then_paid_away_within_step(self):
        # the coin counts as income for whoever holds it at the snapshot
        network = grant_network(["a", "b"], 0)
        grown, minted = mint_step(network, EgalitarianSingle(1))
        coin = min(c for c in grown.community(1).coins if grown.holder[c] == "a")
        settled = pay(grown, coin, "a", "b")
        history = History(network)
        history.extend(settled, minted)
        assert history.income(1, "a", 1) == 0
        assert history.income(1, "b", 1) == 2

    def test_flow_quantities_need_positive_t(self):
        history = History(grant_network(["a"], 1))
        with pytest.raises(BadIndexError):
            history.income(0, "a", 1)


class TestRevenueExpenses:
    def test_receive_old_coin(self):
        network = grant_network(["a", "b"], 1)
        coin = min(network.community(1).coins, key=lambda c: network.holder[c])
        history = History(network)
        history.extend(pay(network, coin, "a", "b"), minted={})
        assert history.revenue(1, "b", 1) == 1
        assert history.expenses(1, "b", 1) == 0
        assert history.expenses(1, "a", 1) == 1

    def test_swap_same_currency(self):
        network = grant_network(["a", "b"], 1)
        coin_a = next(c for c in network.community(1).coins if network.holder[c] == "a")
        coin_b = next(c for c in network.community(1).coins if network.holder[c] == "b")
        swapped = pay(pay(network, coin_a, "a", "b"), coin_b, "b", "a")
        history = History(network)
        history.extend(swapped, minted={})
        for agent in ("a", "b"):
            assert history.revenue(1, agent, 1) == 1
            assert history.expenses(1, agent, 1) == 1

    def test_coin_returned_within_step_is_invisible(self):
        network = grant_network(["a", "b"], 1)
        coin = next(c for c in network.community(1).coins if network.holder[c] == "a")
        out_and_back = pay(pay(network, coin, "a", "b"), coin, "b", "a")
        history = History(network)
        history.extend(out_and_back, minted={})
        for agent in ("a", "b"):
            assert history.revenue(1, agent, 1) == 0
            assert history.expenses(1, agent, 1) == 0


class TestAppendStep:
    def test_identical_network_accepted(self):
        network = grant_network(["a", "b"], 1)
        history = History(network)
        history.extend(network, minted={})
        assert history.last_step == 1

    def test_minting_recorded(self):
        network = grant_network(["a", "b"], 1)
        grown, minted = mint_step(network, EgalitarianSingle(1))
        history = History(network)
        history.extend(grown, minted)
        assert tally(history, history.steps[1].minted_cols) == {("a", 1): 1, ("b", 1): 1}

    def test_deleted_coin_rejected(self):
        network = grant_network(["a", "b"], 2)
        smaller = CurrencyNetwork(
            (
                CurrencyCommunity(
                    1,
                    network.community(1).members,
                    frozenset(sorted(network.community(1).coins)[:-1]),
                ),
            ),
            {
                coin: agent
                for coin, agent in network.holder.items()
                if coin != max(network.community(1).coins)
            },
        )
        history = History(network)
        with pytest.raises(MonotonicityViolationError):
            history.extend(smaller, minted={})

    def test_removed_member_rejected(self):
        network = grant_network(["a", "b"], 0)
        shrunk = CurrencyNetwork(
            (CurrencyCommunity(1, frozenset({"a"}), frozenset()),), {}
        )
        history = History(network)
        with pytest.raises(MonotonicityViolationError):
            history.extend(shrunk, minted={})

    def test_wrong_step_index_rejected(self):
        network = grant_network(["a"], 1)
        history = History(network)
        start = history.steps[0]
        step = HistoryStep(5, start.members, start.counts, start.row, (), (), (), ())
        with pytest.raises(BadIndexError):
            history.append_step(step)

    def test_flow_column_outside_the_index_is_refused(self):
        # every flow column must name an indexed key, or one the step indexes
        network = grant_network(["a", "b"], 1)
        history = History(network)
        start = history.steps[0]
        for flows in (((), (), (7,), ()), ((), (), (), (2,)), ((2,), (2,), (), ()), ((), (5,), (), ())):
            step = HistoryStep(1, start.members, start.counts, start.row, *flows)
            with pytest.raises(RecordError, match="outside its 2 indexed keys"):
                history.append_step(step)
        assert history.last_step == 0
        assert history.keys == [("a", 1), ("b", 1)]
        assert check_accounting_identity(history).ok

    def test_negative_flow_column_is_refused(self):
        # a negative column would wrap round the index: revenue (-1,) would
        # read as b's in the minted tally and the accounting check, but land
        # on the never-indexed column in cashflow_steps
        network = grant_network(["a", "b"], 1)
        history = History(network)
        start = history.steps[0]
        paid = ((), (), (-1,), (0,))
        for flows in (paid, ((), (), (0,), (-1,)), ((-1,), (-1,), (), ()), ((0,), (-2,), (), ())):
            step = HistoryStep(1, start.members, start.counts, [0, 2], *flows)
            with pytest.raises(RecordError, match="outside its 2 indexed keys"):
                history.append_step(step)
        assert history.last_step == 0
        assert check_accounting_identity(history).ok

    def test_row_must_span_the_key_index(self):
        network = grant_network(["a", "b"], 1)
        history = History(network)
        start = history.steps[0]
        short = HistoryStep(
            1, start.members, start.counts, start.row[:1],
            start.minted_cols, start.income_cols, start.revenue_cols, start.expenses_cols,
        )
        with pytest.raises(RecordError):
            history.append_step(short)
        # a newcomer's key counts as indexed only once its step is appended
        members = {1: start.members[1] | {"c"}}
        for row, accepted in ((start.row, False), ([1, 1, 0], True)):
            step = HistoryStep(1, members, start.counts, row, (), (), (), ())
            if accepted:
                history.append_step(step)
            else:
                with pytest.raises(RecordError):
                    history.append_step(step)
                assert history.keys == [("a", 1), ("b", 1)]
                assert history.columns == {("a", 1): 0, ("b", 1): 1}
        assert history.keys == [("a", 1), ("b", 1), ("c", 1)]
        assert list(history.steps[1].row) == [1, 1, 0]

    def test_joiner_mints_in_its_join_step(self):
        # the minted column of a key the step indexes is read after the index
        history = History(grant_network(["a", "b"], 1))
        start = history.steps[0]
        step = HistoryStep(
            1, {1: start.members[1] | {"c"}}, (3,), [1, 1, 1], (2,), (2,), (), ()
        )
        history.append_step(step)
        assert history.keys == [("a", 1), ("b", 1), ("c", 1)]
        assert tally(history, history.steps[1].minted_cols) == {("c", 1): 1}
        assert history.income(1, "c", 1) == 1
        assert check_accounting_identity(history).ok

    def test_extend_refuses_a_bad_minted_record(self):
        network = grant_network(["a", "b"], 1)
        history = History(network)
        for minted, key in (({("a", 1): -1}, r"\('a', 1\)"), ({("z", 1): 1}, r"\('z', 1\)")):
            with pytest.raises(RecordError, match=key):
                history.extend(network, minted)
        assert history.last_step == 0
        assert history.keys == [("a", 1), ("b", 1)]

    def test_serial_gap_is_refused(self):
        # coins of a currency must be the serials 0..n-1
        network = grant_network(["a", "b"], 1)
        gapped = network.with_coins({Coin(1, 3): "a"})
        with pytest.raises(RecordError, match="lacks serial 2"):
            History(gapped)
        history = History(network)
        with pytest.raises(RecordError, match="lacks serial 2"):
            history.extend(gapped, minted={("a", 1): 1})
        # a serial the last snapshot had is a lost coin, wherever the gap is
        lost = CurrencyNetwork(
            (CurrencyCommunity(1, frozenset({"a", "b"}), frozenset({Coin(1, 1), Coin(1, 2)})),),
            {Coin(1, 1): "b", Coin(1, 2): "a"},
        )
        with pytest.raises(MonotonicityViolationError, match="lost coins"):
            history.extend(lost, minted={("a", 1): 1})
        assert history.last_step == 0

    def test_holder_record_is_checked(self):
        network = grant_network(["a", "b"], 1)
        history = History(network)
        start = history.steps[0]
        assert start.holders == (("a", "b"),)
        records = (
            (("a", "z"),),  # z is no member of currency 1
            (("a",),),  # one coin short of the count
            (("a", "b", "b"),),  # one coin too many
            (),  # no currency at all
        )
        for holders in records:
            step = HistoryStep(
                1, start.members, start.counts, start.row, (), (), (), (), holders
            )
            with pytest.raises(RecordError, match="holder record"):
                history.append_step(step)
        assert history.last_step == 0
        history.extend(network, minted={})
        assert history.steps[1].holders == start.holders
        assert history.steps[1].network == network

    def test_minted_record_must_match_growth(self):
        network = grant_network(["a"], 0)
        grown = network.with_coins({Coin(1, 0): "a"})
        history = History(network)
        with pytest.raises(MonotonicityViolationError):
            history.extend(grown, minted={})  # one coin appeared unrecorded


class TestAccountingIdentity:
    def test_clean_history_has_no_violations(self):
        report = check_accounting_identity(build_random_history(seed=5))
        assert report.ok, report.violations[:5]

    def test_corrupted_snapshot_detected(self):
        history = build_random_history(seed=6, steps=10)
        # teleport coin 0 in one holder record, between two retained snapshots
        step = history.steps[5]
        (held,) = step.holders
        owner = held[0]
        other = next(a for a in history.agents if a != owner)
        step.holders = ((other,) + held[1:],)
        report = check_accounting_identity(history)
        assert not report.ok
        assert any(v.t == 5 or v.t == 6 for v in report.violations)
        assert any(v.t == 5 and v.kind == "record" for v in report.violations)
        # the accessors read the record, not the corrupted snapshot
        row = dict(zip(history.keys, step.row))
        assert history.balance(5, owner, 1) == row[(owner, 1)]
        assert history.balance(5, other, 1) == row[(other, 1)]

    def test_corrupted_counter_steps_detected(self):
        # counter-only steps with no snapshot to derive them from: each
        # identity is checked on the records alone (column 0 is a, 1 is b)
        history = History(grant_network(["a", "b"], 1))
        members = history.steps[0].members
        records = (  # minted, coins, balance row, income, revenue, expenses
            ((), 2, (1, 1), (), (1,), (0,)),  # a payment left out of the balances
            ((), 2, (1, 1), (), (), ()),  # consistent again: nothing is reported twice
            ((), 2, (2, 0), (), (), ()),  # a coin moved with no flow recorded
            ((0,), 3, (2, 0), (0,), (), ()),  # a minted coin held by no one
        )
        for t, (minted, coins, row, income, revenue, expenses) in enumerate(records, 1):
            history.append_step(
                HistoryStep(t, members, (coins,), row, minted, income, revenue, expenses)
            )
        report = check_accounting_identity(history)
        assert report.steps_checked == 4
        assert report.checks == 8
        flow = "income {} + revenue {} - expenses {} != balance delta {}".format
        cumulative = "b0 + accumulated flows {} != balance {}".format
        assert sorted(report.violations) == sorted(
            [
                (1, "a", 1, "flow", flow(0, 0, 1, 0)),
                (1, "a", 1, "cumulative", cumulative(0, 1)),
                (1, "b", 1, "flow", flow(0, 1, 0, 0)),
                (1, "b", 1, "cumulative", cumulative(2, 1)),
                (3, "a", 1, "flow", flow(0, 0, 0, 1)),
                (3, "a", 1, "cumulative", cumulative(1, 2)),
                (3, "b", 1, "flow", flow(0, 0, 0, -1)),
                (3, "b", 1, "cumulative", cumulative(1, 0)),
                (4, "a", 1, "flow", flow(1, 0, 0, 0)),
                (4, "a", 1, "cumulative", cumulative(3, 2)),
                (4, "*", 1, "conservation", "balances sum to 2 but currency has 3 coins"),
            ]
        )

    @given(st.integers(0, 10_000))
    @settings(max_examples=10)
    def test_random_histories_hold_exactly(self, seed):
        report = check_accounting_identity(build_random_history(seed=seed, steps=40))
        assert report.ok

    def test_flow_quantities_nonnegative_and_bounded(self):
        history = build_random_history(seed=9, steps=40)
        for t in range(1, history.last_step + 1):
            new_coins = history.coin_count(t, 1) - history.coin_count(t - 1, 1)
            for agent in history.agents:
                m = history.income(t, agent, 1)
                assert m >= 0 and m <= new_coins
                assert history.revenue(t, agent, 1) >= 0
                assert history.expenses(t, agent, 1) >= 0

    def test_balances_sum_to_coin_count(self):
        history = build_random_history(seed=12, steps=40)
        for t in range(history.last_step + 1):
            total = sum(
                history.balance(t, agent, 1) for agent in history.agents
            )
            assert total == history.coin_count(t, 1)


class TestMixedRetention:
    def test_counter_steps_extend_snapshot_histories(self):
        # a thinned (counters-only) step after snapshot steps keeps every
        # query and the identity check working
        network = grant_network(["a", "b"], 1)
        history = History(network)
        grown, minted = mint_step(network, EgalitarianSingle(1))
        history.extend(grown, minted)
        step = history.steps[1]
        thin = HistoryStep(2, step.members, step.counts, step.row, (), (), (), ())
        history.append_step(thin)
        assert history.balance(2, "a", 1) == history.balance(1, "a", 1)
        assert history.income(2, "a", 1) == 0
        assert check_accounting_identity(history).ok

    def test_join_and_mint_in_one_derived_step(self):
        network = grant_network(["a", "b"], 1)
        history = History(network)
        grown = network.with_member("c", 1)
        grown, minted = mint_step(grown, EgalitarianSingle(1))
        history.extend(grown, minted)
        assert "c" in history.steps[1].members[1] - history.steps[0].members[1]
        assert history.income(1, "c", 1) == 1
        assert check_accounting_identity(history).ok

    def test_balance_of_member_in_other_currency_is_zero(self):
        network = make_network({1: (["a", "b"], {"a": 1}), 2: (["a"], {})})
        history = History(network)
        assert history.balance(0, "b", 2) == 0
        assert history.balance(0, "a", 2) == 0


class TestCumulativeCashflow:
    def test_never_trades_is_zero(self):
        network = grant_network(["a", "b"], 1)
        history = History(network)
        current = network
        for _ in range(4):
            current, minted = mint_step(current, EgalitarianSingle(1))
            history.extend(current, minted)
        for t in range(history.last_step + 1):
            assert history.cumulative_cashflow(t, "a", 1) == 0

    def test_single_receipt_sticks(self):
        network = grant_network(["a", "b"], 1)
        history = History(network)
        coin = next(c for c in network.community(1).coins if network.holder[c] == "a")
        current = network
        for t in range(1, 6):
            if t == 3:
                current = pay(current, coin, "a", "b")
            history.extend(current, minted={})
        for t in range(0, 3):
            assert history.cumulative_cashflow(t, "b", 1) == 0
        for t in range(3, 6):
            assert history.cumulative_cashflow(t, "b", 1) == 1
            assert history.cumulative_cashflow(t, "a", 1) == -1

    def test_matches_replay_oracle(self):
        history = build_random_history(seed=21, steps=35)

        def replayed(t, v):
            # recompute rev - exp per step straight from the snapshots
            total = 0
            for s in range(1, t + 1):
                before = history.steps[s - 1].network
                after = history.steps[s].network
                old = before.community(1).coins
                gained = sum(
                    1
                    for c in old
                    if after.holder[c] == v and before.holder[c] != v
                )
                lost = sum(
                    1
                    for c in old
                    if before.holder[c] == v and after.holder[c] != v
                )
                total += gained - lost
            return total

        for agent in history.agents:
            for t in (0, 7, 20, history.last_step):
                assert history.cumulative_cashflow(t, agent, 1) == replayed(t, agent)
