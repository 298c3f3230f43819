"""Monotone step histories and the per-step accounting quantities.

A history records one entry per step: who joined, who minted what, and the
per-agent counters (balance, income, revenue, expenses). The counters are
the record every accessor and post-run pass reads. A step may also retain a
snapshot: ``holders[i - 1][s]`` holds coin s of currency i, and the network
is built from it only when read. A step built from snapshots derives its
counters from its holder record and the one before by one rule,
:func:`snapshot_diff`, and :func:`check_accounting_identity` derives them
again wherever two consecutive snapshots are retained, so a snapshot that
disagrees with its record is reported. Long simulations keep counters for
every step and thin the snapshots to stay within memory.

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
tuple is built several times faster. A step records only what the history
cannot derive: its columns are read against the history's key index, and
the keys new at step t are the ones its row adds to the index.
"""
from __future__ import annotations

from array import array
from collections import Counter
from itertools import compress
from operator import add, sub
from typing import Mapping, NamedTuple, Optional, Sequence

from .errors import BadIndexError, MonotonicityViolationError, RecordError
from .ledger import Coin, CurrencyCommunity, CurrencyNetwork


def snapshot_diff(previous: Optional[tuple], holders: tuple, column: Mapping, width: int) -> tuple:
    """A step's counters over key columns, from its holder record and the one before.

    ``column`` maps (agent, currency) keys to columns. Returns ``(row, income,
    revenue, expenses)``: ``row[c]`` counts the coins of the key in column c;
    income lists the holder's column of each coin past the end of ``previous``,
    revenue and expenses the new and the old holder's of each old coin that
    moved. A key from column ``width`` on is no member: its coins are left out,
    so the identities report them.
    """
    row = [0] * (width + 1)
    income: list = []
    revenue: list = []
    expenses: list = []
    for i, now in enumerate(holders, 1):
        for agent, n in Counter(now).items():
            row[min(column.get((agent, i), width), width)] += n
        if previous is not None:
            before = previous[i - 1]
            income += [column.get((agent, i), width) for agent in now[len(before):]]
            for was, agent in zip(before, now):
                if was != agent:
                    revenue.append(column.get((agent, i), width))
                    expenses.append(column.get((was, i), width))
    del row[width]
    return (row, *([c for c in flow if c < width] for flow in (income, revenue, expenses)))


def _holder_record(network: CurrencyNetwork, t: int, kept: Sequence[int]) -> tuple:
    """Per currency of ``network``, the holder of each coin by serial.

    A network that lacks one of the ``kept[i - 1]`` serials the step before
    had raises :class:`MonotonicityViolationError`; one whose serials are
    otherwise not 0..n-1 raises :class:`RecordError`.
    """
    holder = network.holder
    record = []
    for i, before in zip(network.currencies, kept):
        n = network.coin_count(i)
        # a Coin equals the plain tuple (currency, serial), so that finds it
        who = tuple([holder.get((i, s)) for s in range(n)])
        gap = who.index(None) if None in who else n
        if gap < before:
            raise MonotonicityViolationError(f"currency {i} lost coins at step {t}")
        if gap < n:
            raise RecordError(f"currency {i} at step {t} lacks serial {gap} of 0..{n - 1}")
        record.append(who)
    return tuple(record)


class HistoryStep:
    """One step of a network history. Treat instances as immutable.

    The record is columnar over the key index of the history the step is
    appended to: ``row[c]`` is the balance of ``keys[c]``, ``counts[i - 1]``
    the coins of currency i, and the ``minted``, ``income``, ``revenue`` and
    ``expenses`` arguments give one key column per coin (kept as
    ``minted_cols``, ``income_cols``, ``revenue_cols`` and
    ``expenses_cols``). ``row`` spans every indexed key, the keys of members
    new at the step included: those are indexed, after the ones before
    them, when the step is appended. The row is copied into an array and
    the flows into tuples; income passed as the very object of minted
    shares its tuple.

    ``minted`` records who created each new coin, which can differ from
    ``income`` when a freshly minted coin changes hands within the step:
    income follows the holder at the snapshot.
    """

    __slots__ = (
        "t", "members", "holders", "row", "counts",
        "minted_cols", "income_cols", "revenue_cols", "expenses_cols",
    )

    def __init__(
        self,
        t: int,
        members: Mapping,           # currency -> frozenset of agents
        counts: tuple,              # coins per currency 1..k
        row: Sequence[int],
        minted: Sequence[int],
        income: Sequence[int],
        revenue: Sequence[int],
        expenses: Sequence[int],
        holders: Optional[tuple] = None,   # per currency, its coins' holders by serial
    ):
        self.t = t
        self.members = members
        self.holders = holders
        self.row = array("q", row)
        self.counts = counts
        self.minted_cols = tuple(minted)
        self.income_cols = self.minted_cols if income is minted else tuple(income)
        self.revenue_cols = tuple(revenue)
        self.expenses_cols = tuple(expenses)

    @property
    def network(self) -> Optional[CurrencyNetwork]:
        """The step's snapshot as a validated network, built anew on each read."""
        if self.holders is None:
            return None
        coins = [[Coin(i, s) for s in range(len(who))] for i, who in enumerate(self.holders, 1)]
        return CurrencyNetwork(
            tuple(
                CurrencyCommunity(i, self.members[i], frozenset(c)) for i, c in enumerate(coins, 1)
            ),
            {coin: agent for c, who in zip(coins, self.holders) for coin, agent in zip(c, who)},
        )


class History:
    """Append-only sequence of steps with monotone agents and coins."""

    def __init__(self, network: CurrencyNetwork):
        members = {i: network.members(i) for i in network.currencies}
        self._currencies = tuple(network.currencies)
        self._keys: list = []
        self._columns: dict = {}
        self._member_counts: list = []
        self._tallies: dict = {}  # id -> (minted tuple, coins per currency)
        self.extend_index(members)
        holders = _holder_record(network, 0, [0] * network.k)
        row = snapshot_diff(None, holders, self._columns, len(self._keys))[0]
        self._steps = [
            HistoryStep(0, members, tuple(map(len, holders)), row, (), (), (), (), holders)
        ]

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

        ``step``'s row must span the index, its new members' keys included;
        every flow column must fall inside that span, from 0 to below its
        end. A refused step leaves the index as it was.
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
        # a holder record spans its currency's coins, held by members only;
        # with the minted-versus-growth check below, no coin is lost either
        holders = step.holders
        if holders is not None and (
            list(map(len, holders)) != list(step.counts)
            or not all(step.members[i].issuperset(who) for i, who in enumerate(holders, 1))
        ):
            raise RecordError(f"step {step.t} has a holder record off its coin counts or members")
        new = self._unindexed(step.members) if step.members is not last.members else []
        keys = self._keys + new if new else self._keys
        width = len(keys)
        if len(step.row) != width:
            raise RecordError(
                f"step {step.t} has {len(step.row)} balances for {width} indexed keys"
            )
        # one min() and one max() per flow keep the check cheap; a negative
        # column would wrap round the index, and the minted columns are
        # bounded from above by their lookup in the tally. A minted tuple
        # that passed before passes again (it is immutable and the index
        # only grows), so its tally is kept, and the tuple with it
        kept = self._tallies.get(id(step.minted_cols), (None, None))
        minted = kept[1] if kept[0] is step.minted_cols else None
        outside = False
        if minted is None:
            minted = [0] * len(self._currencies)
            outside = bool(step.minted_cols) and min(step.minted_cols) < 0
            try:
                for c in step.minted_cols:
                    minted[keys[c][1] - 1] += 1
            except IndexError:
                outside = True
        for cols in (step.revenue_cols, step.expenses_cols, step.income_cols):
            if cols and cols is not step.minted_cols and (min(cols) < 0 or max(cols) >= width):
                outside = True
        if outside:
            raise RecordError(
                f"step {step.t} records a flow on a column outside its {width} indexed keys"
            )
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
        if len(self._tallies) == 64:  # a bound for runs that mint a new tuple each step
            self._tallies.clear()
        self._tallies[id(step.minted_cols)] = (step.minted_cols, minted)
        self._index(new)
        self._steps.append(step)

    def extend(self, network: CurrencyNetwork, minted: Mapping) -> None:
        """Append the next step, its counters derived from ``network`` and the last snapshot.

        ``minted`` maps (agent, currency) to the coins it created at the
        step; a negative count, or coins for a key that is no member key,
        raise :class:`RecordError`. The step retains ``network`` as its
        holder record.
        """
        last = self._steps[-1]
        previous = last.holders
        if previous is None:
            raise ValueError("cannot extend a history whose last step has no snapshot")
        t = last.t + 1
        holders = _holder_record(network, t, last.counts)
        members = {i: network.members(i) for i in network.currencies}
        new = self._unindexed(members)
        width = len(self._keys) + len(new)
        column = {**self._columns, **dict(zip(new, range(len(self._keys), width)))}
        minted_cols: list = []
        for key, n in minted.items():
            if n < 0:
                raise RecordError(f"step {t} records a negative minted count {n} for {key!r}")
            if n:
                c = column.get(key)
                if c is None:
                    raise RecordError(
                        f"step {t} records coins minted by {key!r}, which is not a member key"
                    )
                minted_cols += [c] * n
        row, income, revenue, expenses = snapshot_diff(previous, holders, column, width)
        self.append_step(
            HistoryStep(
                t, members, tuple(map(len, holders)),
                row, minted_cols, income, revenue, expenses, holders,
            )
        )

    # -- quantities ---------------------------------------------------

    def balance(self, t: int, v: str, i: int) -> int:
        """Coins of currency i held by v at step t; 0 for non-members."""
        row = self._step(t).row
        c = self._columns.get((v, i))
        return row[c] if c is not None and c < len(row) else 0

    def income(self, t: int, v: str, i: int) -> int:
        return self._coins(t, "income_cols", v, i)

    def revenue(self, t: int, v: str, i: int) -> int:
        return self._coins(t, "revenue_cols", v, i)

    def expenses(self, t: int, v: str, i: int) -> int:
        return self._coins(t, "expenses_cols", v, i)

    def _coins(self, t: int, flow: str, v: str, i: int) -> int:
        if t < 1:
            raise BadIndexError("flow quantities are defined for t >= 1")
        cols = getattr(self._step(t), flow)
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
    When consecutive snapshots are retained the quantities are derived again
    by :func:`snapshot_diff`, compared against the stored step records, and
    checked in their place, so a coin teleported in a snapshot without a
    matching record is caught as well.
    """
    report = AccountingReport(steps_checked=history.last_step, checks=0)
    steps = history.steps
    keys = history.keys
    columns = history.columns
    masks = [[key[1] == i for key in keys] for i in history.currencies]

    before = steps[0].row.tolist()
    running = list(before)  # b_0 + accumulated flows
    for t in range(1, len(steps)):
        step = steps[t]
        if step.holders is not None and steps[t - 1].holders is not None:
            row, income, revenue, expenses = snapshot_diff(
                steps[t - 1].holders, step.holders, columns, len(step.row)
            )
            report.violations += _record_violations(step, keys, row, income, revenue, expenses)
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


def _record_violations(step: HistoryStep, keys: list, row: list, *flows: list) -> list:
    """Where ``step``'s record disagrees with the key columns derived from its snapshot."""
    recorded = (step.row, *map(Counter, (step.income_cols, step.revenue_cols, step.expenses_cols)))
    return [
        AccountingViolation(
            step.t, *keys[c], "record",
            f"snapshot-derived {name} {found[c]} does not match the recorded {kept[c]}",
        )
        for name, found, kept in zip(
            ("balances", "income", "revenue", "expenses"), (row, *map(Counter, flows)), recorded
        )
        for c in range(len(row))
        if found[c] != kept[c]
    ]
