"""Monotone step histories and the per-step accounting quantities.

A history records one entry per step: who joined, who minted what, and the
derived per-agent counters (balance, income, revenue, expenses). Full
network snapshots are optional per step; when a step and its predecessor
both retain snapshots, every quantity is recomputed from raw holder-map set
differences, which is the authoritative definition. Otherwise the counters
frozen at append time are used. Long simulations keep counters for every
step and thin the snapshots to stay within memory.

Definitions, for agent v, currency i and step t >= 1:

* balance   b = number of coins of i held by v at t
* income    m = coins minted at t (new at t) held by v at t
* revenue   r = old coins held by v at t that v did not hold at t-1
* expenses  e = coins v held at t-1 but no longer holds at t

These satisfy the exact integer flow identity m + r - e = b_t - b_{t-1},
and cumulatively b_t = b_0 + sum(m + r - e).
"""
from __future__ import annotations

from typing import Mapping, NamedTuple, Optional, Sequence

from .errors import BadIndexError, MonotonicityViolationError
from .ledger import CurrencyNetwork

Key = tuple  # (agent, currency)


class HistoryStep:
    """One step of a network history. Treat instances as immutable.

    ``minted`` records who created each new coin, which can differ from
    ``income`` when a freshly minted coin changes hands within the step:
    income follows the holder at the snapshot.
    """

    __slots__ = (
        "t", "minted", "joins", "members", "coin_counts", "balances",
        "income", "revenue", "expenses", "network",
    )

    def __init__(
        self,
        t: int,
        minted: Mapping,
        joins: frozenset,
        members: Mapping,           # currency -> frozenset of agents
        coin_counts: Mapping,       # currency -> int
        balances: Mapping,          # (agent, currency) -> int, dense over members
        income: Mapping,            # sparse, nonzero entries only
        revenue: Mapping,
        expenses: Mapping,
        network: Optional[CurrencyNetwork] = None,
    ):
        self.t = t
        self.minted = minted
        self.joins = joins
        self.members = members
        self.coin_counts = coin_counts
        self.balances = balances
        self.income = income
        self.revenue = revenue
        self.expenses = expenses
        self.network = network

    @classmethod
    def initial(cls, network: CurrencyNetwork) -> "HistoryStep":
        members = {i: network.members(i) for i in network.currencies}
        joins = frozenset(
            (agent, i) for i, who in members.items() for agent in who
        )
        balances = {}
        for i in network.currencies:
            for agent in members[i]:
                balances[(agent, i)] = 0
        for coin, agent in network.holder.items():
            balances[(agent, coin.currency)] += 1
        return cls(
            t=0,
            minted={},
            joins=joins,
            members=members,
            coin_counts={i: network.coin_count(i) for i in network.currencies},
            balances=balances,
            income={},
            revenue={},
            expenses={},
            network=network,
        )

    @classmethod
    def from_networks(
        cls,
        previous: CurrencyNetwork,
        network: CurrencyNetwork,
        t: int,
        minted: Mapping,
        keep_network: bool = True,
    ) -> "HistoryStep":
        """Derive all counters from two consecutive snapshots."""
        members = {i: network.members(i) for i in network.currencies}
        joins = frozenset(
            (agent, i)
            for i in network.currencies
            for agent in members[i] - previous.members(i)
        )
        balances = {}
        for i in network.currencies:
            for agent in members[i]:
                balances[(agent, i)] = 0
        income: dict = {}
        revenue: dict = {}
        expenses: dict = {}
        prev_holder = previous.holder
        for coin, agent in network.holder.items():
            key = (agent, coin.currency)
            balances[key] += 1
            before = prev_holder.get(coin)
            if before is None:
                income[key] = income.get(key, 0) + 1
            elif before != agent:
                revenue[key] = revenue.get(key, 0) + 1
        for coin, agent in prev_holder.items():
            if network.holder.get(coin) != agent:
                key = (agent, coin.currency)
                expenses[key] = expenses.get(key, 0) + 1
        return cls(
            t=t,
            minted=dict(minted),
            joins=joins,
            members=members,
            coin_counts={i: network.coin_count(i) for i in network.currencies},
            balances=balances,
            income=income,
            revenue=revenue,
            expenses=expenses,
            network=network if keep_network else None,
        )


class History:
    """Append-only sequence of steps with monotone agents and coins."""

    def __init__(self, initial_network: CurrencyNetwork):
        self._steps = [HistoryStep.initial(initial_network)]
        self._currencies = tuple(range(1, len(self._steps[0].members) + 1))

    @property
    def steps(self) -> Sequence[HistoryStep]:
        return self._steps

    @property
    def last_step(self) -> int:
        return len(self._steps) - 1

    @property
    def currencies(self) -> tuple:
        return self._currencies

    @property
    def k(self) -> int:
        return len(self._steps[0].members)

    @property
    def agents(self) -> tuple:
        out = set()
        for who in self._steps[-1].members.values():
            out.update(who)
        return tuple(sorted(out))

    def members_at(self, t: int, i: int) -> frozenset:
        return self._step(t).members[i]

    def member_count(self, t: int) -> int:
        seen = set()
        for who in self._step(t).members.values():
            seen.update(who)
        return len(seen)

    def coin_count(self, t: int, i: int) -> int:
        return self._step(t).coin_counts[i]

    def _step(self, t: int) -> HistoryStep:
        if not 0 <= t <= self.last_step:
            raise BadIndexError(f"step {t} outside history 0..{self.last_step}")
        return self._steps[t]

    def append_step(self, step: HistoryStep) -> None:
        last = self._steps[-1]
        if step.t != last.t + 1:
            raise BadIndexError(f"expected step {last.t + 1}, got {step.t}")
        if step.members is not last.members:
            for i, who in last.members.items():
                now = step.members.get(i)
                if now is None or (now is not who and not who <= now):
                    raise MonotonicityViolationError(
                        f"community {i} lost members at step {step.t}"
                    )
        for i, count in last.coin_counts.items():
            if step.coin_counts.get(i, 0) < count:
                raise MonotonicityViolationError(
                    f"currency {i} lost coins at step {step.t}"
                )
        if step.network is not None and last.network is not None:
            for i in self.currencies:
                if not last.network.community(i).coins <= step.network.community(i).coins:
                    raise MonotonicityViolationError(
                        f"currency {i} lost coins at step {step.t}"
                    )
        for agent, i in step.joins:
            if agent not in step.members[i]:
                raise MonotonicityViolationError(
                    f"join record ({agent!r}, {i}) not reflected in membership"
                )
        minted_per_currency: dict = {}
        for (_, i), count in step.minted.items():
            minted_per_currency[i] = minted_per_currency.get(i, 0) + count
        for i in self.currencies:
            delta = step.coin_counts[i] - last.coin_counts[i]
            if minted_per_currency.get(i, 0) != delta:
                raise MonotonicityViolationError(
                    f"minted record for currency {i} at step {step.t} does not "
                    f"match the coin growth ({minted_per_currency.get(i, 0)} vs {delta})"
                )
        self._steps.append(step)

    def extend(self, network: CurrencyNetwork, minted: Mapping, keep_network: bool = True) -> None:
        """Append the next step, deriving counters from snapshots."""
        last = self._steps[-1]
        if last.network is None:
            raise ValueError("cannot extend a history whose last step has no snapshot")
        self.append_step(
            HistoryStep.from_networks(
                last.network, network, last.t + 1, minted, keep_network=keep_network
            )
        )

    # -- quantities ---------------------------------------------------

    def balance(self, t: int, v: str, i: int) -> int:
        """Coins of currency i held by v at step t; 0 for non-members."""
        step = self._step(t)
        if step.network is not None:
            return sum(
                1
                for coin, agent in step.network.holder.items()
                if agent == v and coin.currency == i
            )
        return step.balances.get((v, i), 0)

    def income(self, t: int, v: str, i: int) -> int:
        step, previous = self._flow_steps(t)
        if step.network is not None and previous.network is not None:
            new = step.network.community(i).coins - previous.network.community(i).coins
            return sum(1 for coin in new if step.network.holder[coin] == v)
        return step.income.get((v, i), 0)

    def revenue(self, t: int, v: str, i: int) -> int:
        step, previous = self._flow_steps(t)
        if step.network is not None and previous.network is not None:
            old = previous.network.community(i).coins
            return sum(
                1
                for coin in old
                if step.network.holder[coin] == v and previous.network.holder[coin] != v
            )
        return step.revenue.get((v, i), 0)

    def expenses(self, t: int, v: str, i: int) -> int:
        step, previous = self._flow_steps(t)
        if step.network is not None and previous.network is not None:
            old = previous.network.community(i).coins
            return sum(
                1
                for coin in old
                if previous.network.holder[coin] == v and step.network.holder[coin] != v
            )
        return step.expenses.get((v, i), 0)

    def cashflow_steps(self):
        """Yield ``(step, cashflow)`` for t = 0..T in one running pass.

        ``cashflow`` maps every (agent, currency) of ``agents × currencies``
        to its revenue minus expenses over steps 1..t. It is one dict,
        updated in place as the pass advances: read it before asking for the
        next step, and copy it to keep it.
        """
        cashflow = dict.fromkeys(
            [(a, i) for a in self.agents for i in self._currencies], 0
        )
        steps = iter(self._steps)
        yield next(steps), cashflow
        for step in steps:
            for key, amount in step.revenue.items():
                cashflow[key] += amount
            for key, amount in step.expenses.items():
                cashflow[key] -= amount
            yield step, cashflow

    def cumulative_cashflow(self, t: int, v: str, i: int) -> int:
        """Sum of revenue minus expenses for (v, i) over steps 1..t.

        The per-key reference for :meth:`cashflow_steps`; O(t) per call.
        """
        self._step(t)
        key = (v, i)
        total = 0
        for step in self._steps[1 : t + 1]:
            total += step.revenue.get(key, 0) - step.expenses.get(key, 0)
        return total

    def _flow_steps(self, t: int):
        if t < 1:
            raise BadIndexError("flow quantities are defined for t >= 1")
        return self._step(t), self._step(t - 1)


class AccountingViolation(NamedTuple):
    t: int
    agent: str
    currency: int
    kind: str
    detail: str


class AccountingReport:
    def __init__(self, steps_checked: int, checks: int, violations: Optional[list] = None):
        self.steps_checked = steps_checked
        self.checks = checks
        self.violations = [] if violations is None else violations

    @property
    def ok(self) -> bool:
        return not self.violations


def check_accounting_identity(history: History) -> AccountingReport:
    """Verify the flow and cumulative identities over a whole history.

    Checks, for every (t, v, i): income + revenue - expenses equals the
    balance delta; the balance equals the initial balance plus accumulated
    income and cashflow; and balances of a currency sum to its coin count.
    All checks are exact integer comparisons. When consecutive snapshots are
    retained the quantities are recomputed from holder-map set differences
    and compared against the stored step records, so a coin teleported in a
    snapshot without a matching record is caught as well.
    """
    report = AccountingReport(steps_checked=history.last_step, checks=0)
    steps = history.steps
    prev_bal = _balances_of(steps[0])
    running = dict(prev_bal)  # b_0 + accumulated flows
    for t in range(1, len(steps)):
        step = steps[t]
        set_based = step.network is not None and steps[t - 1].network is not None
        if set_based:
            bal, inc, rev, exp = _set_quantities(steps[t - 1], step)
            for name, derived, recorded in (
                ("balance", bal, step.balances),
                ("income", inc, step.income),
                ("revenue", rev, step.revenue),
                ("expenses", exp, step.expenses),
            ):
                for key in set(derived) | set(recorded):
                    if derived.get(key, 0) != recorded.get(key, 0):
                        report.violations.append(
                            AccountingViolation(
                                t, key[0], key[1], "record",
                                f"snapshot-derived {name} {derived.get(key, 0)} "
                                f"does not match the recorded {recorded.get(key, 0)}",
                            )
                        )
        else:
            bal, inc, rev, exp = (
                step.balances,
                step.income,
                step.revenue,
                step.expenses,
            )
        keys = set(bal) | set(prev_bal) | set(inc) | set(rev) | set(exp)
        for key in keys:
            m = inc.get(key, 0)
            r = rev.get(key, 0)
            e = exp.get(key, 0)
            b_now = bal.get(key, 0)
            b_before = prev_bal.get(key, 0)
            report.checks += 1
            if m + r - e != b_now - b_before:
                report.violations.append(
                    AccountingViolation(
                        t, key[0], key[1], "flow",
                        f"income {m} + revenue {r} - expenses {e} != "
                        f"balance delta {b_now - b_before}",
                    )
                )
            running[key] = running.get(key, 0) + m + r - e
            if running[key] != b_now:
                report.violations.append(
                    AccountingViolation(
                        t, key[0], key[1], "cumulative",
                        f"b0 + accumulated flows {running[key]} != balance {b_now}",
                    )
                )
                running[key] = b_now  # resync so one corruption reports once
        totals: dict = {}
        for (agent, i), b in bal.items():
            totals[i] = totals.get(i, 0) + b
        for i in history.currencies:
            if totals.get(i, 0) != step.coin_counts[i]:
                report.violations.append(
                    AccountingViolation(
                        t, "*", i, "conservation",
                        f"balances sum to {totals.get(i, 0)} but currency has "
                        f"{step.coin_counts[i]} coins",
                    )
                )
        prev_bal = bal
    return report


def _balances_of(step: HistoryStep) -> dict:
    if step.network is None:
        return dict(step.balances)
    out: dict = {}
    for coin, agent in step.network.holder.items():
        key = (agent, coin.currency)
        out[key] = out.get(key, 0) + 1
    return out


def _set_quantities(previous: HistoryStep, step: HistoryStep):
    derived = HistoryStep.from_networks(
        previous.network, step.network, step.t, step.minted, keep_network=False
    )
    return derived.balances, derived.income, derived.revenue, derived.expenses
