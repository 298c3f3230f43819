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

A history stores its counters as columns over one append-only key index:
the initial members' (agent, currency) keys sorted, then each step's new
member keys sorted. Each step keeps one ``array('q')`` balance row over
the keys indexed so far, its coin counts per currency, and its minted,
income, revenue and expenses records as tuples of columns, one entry per
coin. A tuple entry costs one pointer, as an ``array('q')`` entry costs
eight bytes, because the column ints are the index's own objects; and a
tuple is built several times faster. ``HistoryStep``'s dict attributes are
built from these on access.
"""
from __future__ import annotations

from array import array
from itertools import compress
from operator import add, sub
from typing import Mapping, NamedTuple, Optional, Sequence

from .errors import BadIndexError, MonotonicityViolationError, RecordError
from .ledger import CurrencyNetwork

Key = tuple  # (agent, currency)

def _tally(keys: list, columns) -> dict:
    counts: dict = {}
    for c in columns:
        key = keys[c]
        counts[key] = counts.get(key, 0) + 1
    return counts


class HistoryStep:
    """One step of a network history. Treat instances as immutable.

    ``minted`` records who created each new coin, which can differ from
    ``income`` when a freshly minted coin changes hands within the step:
    income follows the holder at the snapshot.

    The record is columnar: ``row[c]`` is the balance of ``keys[c]``,
    ``counts[i - 1]`` the coins of currency i, and ``minted_cols``,
    ``income_cols``, ``revenue_cols`` and ``expenses_cols`` hold one column
    per coin. ``keys`` is the history's key index once the step is
    appended, and the step's own keys before. The dict attributes
    (``balances``, ``coin_counts``, ``minted``, ``income``, ``revenue``,
    ``expenses``) are built from the columns on every access.
    """

    __slots__ = (
        "t", "joins", "members", "network", "keys", "row", "counts",
        "minted_cols", "income_cols", "revenue_cols", "expenses_cols",
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
        # the step's own keys: the balance keys, then any key only a flow names
        keys = list(balances)
        column = {key: c for c, key in enumerate(keys)}
        flows = []
        for flow in (minted, income, revenue, expenses):
            cols: list = []
            for key, n in flow.items():
                if n < 0:
                    raise RecordError(f"step {t} records a negative flow {n} for {key!r}")
                if n:
                    c = column.get(key)
                    if c is None:
                        c = column[key] = len(keys)
                        keys.append(key)
                    cols += [c] * n
            flows.append(tuple(cols))
        self._fill(
            t, joins, members, network, keys,
            array("q", balances.values()),
            tuple(coin_counts[i] for i in range(1, len(coin_counts) + 1)),
            *flows,
        )

    @classmethod
    def from_columns(
        cls,
        keys: list,
        t: int,
        joins: frozenset,
        members: Mapping,
        counts: tuple,
        row: Sequence[int],
        minted: Sequence[int],
        income: Sequence[int],
        revenue: Sequence[int],
        expenses: Sequence[int],
        network: Optional[CurrencyNetwork] = None,
    ) -> "HistoryStep":
        """A step already over ``keys``, the key index of the history it joins.

        ``row`` holds the balance of every indexed key, and each flow one
        key column per coin; the row is copied into an array and the flows
        into tuples (income passed as the very object of minted shares its
        tuple).
        """
        step = cls.__new__(cls)
        minted_cols = tuple(minted)
        step._fill(
            t, joins, members, network, keys, array("q", row), counts, minted_cols,
            minted_cols if income is minted else tuple(income),
            tuple(revenue), tuple(expenses),
        )
        return step

    def _fill(self, t, joins, members, network, keys, row, counts, minted, income, revenue, expenses):
        self.t = t
        self.joins = joins
        self.members = members
        self.network = network
        self.keys = keys
        self.row = row
        self.counts = counts
        self.minted_cols = minted
        self.income_cols = income
        self.revenue_cols = revenue
        self.expenses_cols = expenses

    balances = property(lambda self: dict(zip(self.keys, self.row)))
    coin_counts = property(lambda self: dict(enumerate(self.counts, 1)))
    minted = property(lambda self: _tally(self.keys, self.minted_cols))
    income = property(lambda self: _tally(self.keys, self.income_cols))
    revenue = property(lambda self: _tally(self.keys, self.revenue_cols))
    expenses = property(lambda self: _tally(self.keys, self.expenses_cols))

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
            minted=minted,
            joins=joins,
            members=members,
            coin_counts={i: network.coin_count(i) for i in network.currencies},
            balances=balances,
            income=income,
            revenue=revenue,
            expenses=expenses,
            network=network if keep_network else None,
        )


def _stray_key(step: HistoryStep) -> Optional[Key]:
    """The first of the step's own keys that is no member key but holds or moves a coin."""
    members = step.members
    moved = set(step.minted_cols).union(step.income_cols, step.revenue_cols, step.expenses_cols)
    row = step.row
    for c, key in enumerate(step.keys):
        if key[0] not in members.get(key[1], ()) and (c in moved or (c < len(row) and row[c])):
            return key
    return None


class History:
    """Append-only sequence of steps with monotone agents and coins."""

    def __init__(self, initial_network: CurrencyNetwork):
        step = HistoryStep.initial(initial_network)
        self._currencies = tuple(range(1, len(step.members) + 1))
        self._keys: list = []
        self._columns: dict = {}
        self._member_counts: list = []
        self.extend_index(step.members)
        self._rekey(step)
        self._steps = [step]

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
        return len(self._currencies)

    @property
    def keys(self) -> list:
        """The key index: (agent, currency) per column. Append-only; read it only."""
        return self._keys

    @property
    def columns(self) -> Mapping:
        """(agent, currency) -> its column in the key index. Read it only."""
        return self._columns

    def extend_index(self, members: Mapping) -> list:
        """Index the keys of ``members`` (currency -> agents) not indexed yet, sorted.

        Returns the keys it indexed, in column order.
        """
        new = self._unindexed(members)
        self._index(new)
        return new

    def _unindexed(self, members: Mapping) -> list:
        columns = self._columns
        return sorted(
            (agent, i) for i, who in members.items() for agent in who
            if (agent, i) not in columns
        )

    def _index(self, keys: list) -> None:
        for key in keys:
            self._columns[key] = len(self._keys)
            self._keys.append(key)

    def key_columns(self, agents: Sequence) -> list:
        """Per currency 1..k, the column of (agent, currency) for each of ``agents``.

        A key the history never indexed gets ``len(keys)``, the trailing
        column of :meth:`cashflow_steps`, which reads 0 at every step.
        """
        absent = len(self._keys)
        get = self._columns.get
        return [[get((a, i), absent) for a in agents] for i in self._currencies]

    @property
    def agents(self) -> tuple:
        out = set()
        for who in self._steps[-1].members.values():
            out.update(who)
        return tuple(sorted(out))

    def members_at(self, t: int, i: int) -> frozenset:
        return self._step(t).members[i]

    def member_count(self, t: int) -> int:
        return self.member_counts()[self._step(t).t]

    def member_counts(self) -> list:
        """|V_t| per step t = 0..T, counted once per membership record. Read it only."""
        counts = self._member_counts
        steps = self._steps
        for t in range(len(counts), len(steps)):
            members = steps[t].members
            if t and members is steps[t - 1].members:
                counts.append(counts[-1])
            else:
                counts.append(len(set().union(*members.values())))
        return counts

    def coin_count(self, t: int, i: int) -> int:
        return self._step(t).counts[i - 1]

    def _step(self, t: int) -> HistoryStep:
        if not 0 <= t <= self.last_step:
            raise BadIndexError(f"step {t} outside history 0..{self.last_step}")
        return self._steps[t]

    def append_step(self, step: HistoryStep) -> None:
        """Check ``step`` against the last one, put it on the key index and append it.

        A step built from dicts is re-keyed in place onto the index, its new
        members' keys indexed first; a coin held or moved by a key outside
        the member set raises :class:`RecordError`. A step from
        :meth:`HistoryStep.from_columns` must already span the index, its new
        members' keys included. A refused step leaves the index as it was.
        """
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
        new = self._unindexed(step.members) if step.members is not last.members else []
        keys = step.keys
        if keys is not self._keys:
            stray = _stray_key(step)
            if stray is not None:
                raise RecordError(
                    f"step {step.t} records coins of {stray!r}, which is not a member key"
                )
        elif len(step.row) != len(keys) + len(new):
            raise RecordError(
                f"step {step.t} has {len(step.row)} balances for "
                f"{len(keys) + len(new)} indexed keys"
            )
        minted = [0] * len(self._currencies)
        for c in step.minted_cols:
            minted[keys[c][1] - 1] += 1
        growth = list(map(sub, step.counts, last.counts))
        if minted != growth:
            # a currency that lost coins is reported first
            for i in self.currencies:
                if i > len(growth) or growth[i - 1] < 0:
                    raise MonotonicityViolationError(
                        f"currency {i} lost coins at step {step.t}"
                    )
            i = next(i for i in self.currencies if minted[i - 1] != growth[i - 1])
            raise MonotonicityViolationError(
                f"minted record for currency {i} at step {step.t} does not "
                f"match the coin growth ({minted[i - 1]} vs {growth[i - 1]})"
            )
        # every check has passed: only now grow the index
        self._index(new)
        if keys is not self._keys:
            self._rekey(step)
        self._steps.append(step)

    def _rekey(self, step: HistoryStep) -> None:
        # every key holding or moving a coin is indexed; the rest stay behind
        target = [self._columns.get(key) for key in step.keys]
        row = array("q", [0]) * len(self._keys)
        for c, b in zip(target, step.row):
            if b:
                row[c] = b
        step.keys = self._keys
        step.row = row
        for name in ("minted_cols", "income_cols", "revenue_cols", "expenses_cols"):
            setattr(step, name, tuple(map(target.__getitem__, getattr(step, name))))

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
        c = self._columns.get((v, i))
        return step.row[c] if c is not None and c < len(step.row) else 0

    def income(self, t: int, v: str, i: int) -> int:
        step, previous = self._flow_steps(t)
        if step.network is not None and previous.network is not None:
            new = step.network.community(i).coins - previous.network.community(i).coins
            return sum(1 for coin in new if step.network.holder[coin] == v)
        return self._coins(step.income_cols, v, i)

    def revenue(self, t: int, v: str, i: int) -> int:
        step, previous = self._flow_steps(t)
        if step.network is not None and previous.network is not None:
            old = previous.network.community(i).coins
            return sum(
                1
                for coin in old
                if step.network.holder[coin] == v and previous.network.holder[coin] != v
            )
        return self._coins(step.revenue_cols, v, i)

    def expenses(self, t: int, v: str, i: int) -> int:
        step, previous = self._flow_steps(t)
        if step.network is not None and previous.network is not None:
            old = previous.network.community(i).coins
            return sum(
                1
                for coin in old
                if previous.network.holder[coin] == v and step.network.holder[coin] != v
            )
        return self._coins(step.expenses_cols, v, i)

    def _coins(self, cols: tuple, v: str, i: int) -> int:
        c = self._columns.get((v, i))
        return 0 if c is None else cols.count(c)

    def cashflow_steps(self):
        """Yield ``(step, balance, cashflow)`` for t = 0..T in one running pass.

        Both are lists over the key index plus one trailing column, which
        stands for every key the history never indexed (see
        :meth:`key_columns`) and reads 0; a key indexed after step t reads 0
        at t as well. ``balance`` is new at each step. ``cashflow[c]`` is the
        revenue minus expenses of ``keys[c]`` over steps 1..t: one list,
        updated in place as the pass advances, so read it before asking for
        the next step, and copy it to keep it.
        """
        width = len(self._keys) + 1
        cashflow = [0] * width
        for step in self._steps:
            for c in step.revenue_cols:
                cashflow[c] += 1
            for c in step.expenses_cols:
                cashflow[c] -= 1
            balance = step.row.tolist()
            balance += [0] * (width - len(balance))
            yield step, balance, cashflow

    def dense_flows(self, step: HistoryStep) -> list:
        """``step``'s income, revenue and expenses over the columns of :meth:`cashflow_steps`.

        Read them only: the flows a step does not have share one list of zeros.
        """
        zeros = [0] * (len(self._keys) + 1)
        flows = []
        for cols in (step.income_cols, step.revenue_cols, step.expenses_cols):
            dense = zeros
            if cols:
                dense = zeros.copy()
                for c in cols:
                    dense[c] += 1
            flows.append(dense)
        return flows

    def cumulative_cashflow(self, t: int, v: str, i: int) -> int:
        """Sum of revenue minus expenses for (v, i) over steps 1..t.

        The per-key reference for :meth:`cashflow_steps`; O(t) per call.
        """
        self._step(t)
        c = self._columns.get((v, i))
        if c is None:
            return 0
        total = 0
        for step in self._steps[1 : t + 1]:
            total += step.revenue_cols.count(c) - step.expenses_cols.count(c)
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
    All checks are exact integer comparisons, one step's columns at a time.
    When consecutive snapshots are retained the quantities are recomputed
    from holder-map set differences, compared against the stored step
    records, and checked in their place, so a coin teleported in a snapshot
    without a matching record is caught as well.
    """
    report = AccountingReport(steps_checked=history.last_step, checks=0)
    steps = history.steps
    keys = history.keys
    columns = history.columns
    masks = [[key[1] == i for key in keys] for i in history.currencies]
    first = steps[0]
    before = (
        _snapshot_row(HistoryStep.initial(first.network), columns, len(first.row))[0]
        if first.network is not None
        else first.row.tolist()
    )
    running = list(before)  # b_0 + accumulated flows
    for t in range(1, len(steps)):
        step = steps[t]
        if step.network is not None and steps[t - 1].network is not None:
            derived = HistoryStep.from_networks(
                steps[t - 1].network, step.network, step.t, {}, keep_network=False
            )
            report.violations += _record_violations(derived, step)
            row, income, revenue, expenses = _snapshot_row(derived, columns, len(step.row))
        else:
            row = step.row.tolist()
            income, revenue, expenses = step.income_cols, step.revenue_cols, step.expenses_cols
        grown = [0] * (len(row) - len(before))
        before += grown
        running += grown
        net = [0] * len(row)
        for c in income:
            net[c] += 1
        for c in revenue:
            net[c] += 1
        for c in expenses:
            net[c] -= 1
        report.checks += len(row)
        delta = list(map(sub, row, before))
        running = list(map(add, running, net))
        if delta != net or running != row:
            for c, b_now in enumerate(row):
                agent, i = keys[c]
                if delta[c] != net[c]:
                    m, r, e = income.count(c), revenue.count(c), expenses.count(c)
                    report.violations.append(
                        AccountingViolation(
                            t, agent, i, "flow",
                            f"income {m} + revenue {r} - expenses {e} != "
                            f"balance delta {delta[c]}",
                        )
                    )
                if running[c] != b_now:
                    report.violations.append(
                        AccountingViolation(
                            t, agent, i, "cumulative",
                            f"b0 + accumulated flows {running[c]} != balance {b_now}",
                        )
                    )
                    running[c] = b_now  # resync so one corruption reports once
        for i, mask in enumerate(masks, 1):
            total = sum(compress(row, mask))
            if total != step.counts[i - 1]:
                report.violations.append(
                    AccountingViolation(
                        t, "*", i, "conservation",
                        f"balances sum to {total} but currency has "
                        f"{step.counts[i - 1]} coins",
                    )
                )
        before = row
    return report


def _snapshot_row(derived: HistoryStep, columns: Mapping, width: int) -> tuple:
    """A snapshot-derived step's balance row and income, revenue and expenses
    columns over the history's first ``width`` columns.

    Keys outside those columns are left out: they belong to no member at
    the step, and any coin they hold or move already shows as a record
    violation.
    """
    target = [columns.get(key, width) for key in derived.keys]
    row = [0] * (width + 1)  # the extra column collects the keys left out
    for c, b in zip(target, derived.row):
        row[min(c, width)] = b
    del row[width]
    flows = (
        [target[c] for c in cols if target[c] < width]
        for cols in (derived.income_cols, derived.revenue_cols, derived.expenses_cols)
    )
    return (row, *flows)


def _record_violations(derived: HistoryStep, step: HistoryStep) -> list:
    violations = []
    for name in ("balances", "income", "revenue", "expenses"):
        found, recorded = getattr(derived, name), getattr(step, name)
        for key in set(found) | set(recorded):
            if found.get(key, 0) != recorded.get(key, 0):
                violations.append(
                    AccountingViolation(
                        step.t, key[0], key[1], "record",
                        f"snapshot-derived {name} {found.get(key, 0)} "
                        f"does not match the recorded {recorded.get(key, 0)}",
                    )
                )
    return violations
