"""Pure exchange economy over diluted currency portfolios.

Agents value the *fraction* of each currency they hold (their diluted
balance), with Cobb-Douglas preferences. The competitive equilibrium of
this economy yields prices over whole currencies; the price ratios are the
marginal rates of substitution (MRS) between currencies, and dividing the
MRS by the coin-volume ratio gives per-coin exchange rates.

The equilibrium prices are the stationary vector of the column-stochastic
M = W^T E (weights W, endowment fractions E); they are determinate exactly
when M is irreducible. For k >= 3 they are read off exact integers, the
spanning-tree weights of :func:`coin_values_from_market_sums`, and for
k = 2 they are a float closed form. The engine's rates come from the same
integer coin values (see :meth:`ExchangeRateMatrix.from_values`), so which
coin is worth most never hangs on rounding.

Matrices are nested tuples or lists of Python floats. The economies have a
handful of currencies, so every k x k computation here is cheap in plain
Python; functions also accept 2-d arrays as input.
"""
from __future__ import annotations

import math
from collections import Counter
from itertools import compress, count, islice
from operator import sub
from typing import Mapping, NamedTuple, Optional, Sequence

from .errors import (
    DegenerateEconomyError,
    EmptyCurrencyError,
    InfeasibleAllocationError,
    InvalidRatesError,
    NonPositivePriceError,
    ZeroCoinsError,
)
from .ledger import CurrencyNetwork, pay

RATE_TOL = 1e-9


def _float_rows(matrix) -> list:
    """``matrix`` (nested sequences or a 2-d array) as a list of float lists."""
    return [list(map(float, row)) for row in matrix]


def ordered_sum(values) -> float:
    """Sum of ``values``, added left to right.

    The builtin ``sum`` compensates float rounding from Python 3.12 on, so
    it would make results depend on the Python version.
    """
    total = 0.0
    for x in values:
        total += x
    return total


def _dot(xs, ys) -> float:
    """Sum of products, added left to right like :func:`ordered_sum`."""
    total = 0.0
    for x, y in zip(xs, ys):
        total += x * y
    return total


class ExchangeRateMatrix:
    """Per-coin exchange rates: ex[i-1][j-1] coins of j buy one coin of i.

    ``ex`` is stored as a tuple of row tuples of floats. Validated at
    construction: unit diagonal (exactly), arbitrage-free chains and
    reciprocal pairs within RATE_TOL. Immutable; equal only to itself.

    ``ranking`` lists the currencies from the most to the least valuable
    coin, equal values in index order. It is the exact order of the values
    when the matrix comes from :meth:`from_values`, and read off the rates
    in column 1 otherwise.
    """

    __slots__ = ("ex", "ranking")

    def __init__(self, ex):
        try:
            ex = tuple(tuple(map(float, row)) for row in ex)
        except TypeError:
            raise InvalidRatesError("rate matrix must be square") from None
        object.__setattr__(self, "ex", ex)
        k = len(ex)
        if any(len(row) != k for row in ex):
            raise InvalidRatesError("rate matrix must be square")
        if not all(math.isfinite(x) and x > 0.0 for row in ex for x in row):
            raise InvalidRatesError("rates must be finite and positive")
        for i in range(k):
            if ex[i][i] != 1.0:
                raise InvalidRatesError(f"fungibility violated at currency {i + 1}")
        for i in range(k):
            row_i = ex[i]
            for j in range(k):
                ex_ij = row_i[j]
                row_j = ex[j]
                lhs = ex_ij * row_j[i]
                if abs(lhs - 1.0) > RATE_TOL:
                    raise InvalidRatesError(
                        f"reciprocity violated for ({i + 1},{j + 1}): {lhs}"
                    )
                for l in range(k):
                    chained = ex_ij * row_j[l]
                    if abs(chained - row_i[l]) > RATE_TOL * max(1.0, abs(row_i[l])):
                        raise InvalidRatesError(
                            f"arbitrage-free trade violated for "
                            f"({i + 1},{j + 1},{l + 1})"
                        )
        object.__setattr__(self, "ranking", _ranking([row[0] for row in ex]))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"ExchangeRateMatrix(ex={self.ex!r})"

    @property
    def k(self) -> int:
        return len(self.ex)

    def rate(self, i: int, j: int) -> float:
        if not (1 <= i <= self.k and 1 <= j <= self.k):
            raise InvalidRatesError(f"currency index out of range: ({i}, {j})")
        return self.ex[i - 1][j - 1]

    def column(self, j: int) -> list:
        """Values of one coin of each currency, expressed in currency j coins."""
        if not 1 <= j <= self.k:
            raise InvalidRatesError(f"currency index out of range: {j}")
        return [row[j - 1] for row in self.ex]

    @classmethod
    def from_values(cls, values) -> "ExchangeRateMatrix":
        """ex[i][j] = values[i] / values[j], from positive integers proportional to coin values.

        Each rate is one correctly rounded division of two integers, so the
        matrix is arbitrage-free by construction and skips the O(k^3) check;
        ``ranking`` is the exact order of ``values``.
        """
        values = tuple(values)
        if len(values) == 2:  # the k = 2 case of the general rule, spelled out
            a, b = values
            if not (isinstance(a, int) and a > 0 and isinstance(b, int) and b > 0):
                raise InvalidRatesError(f"coin values must be positive integers, got {values}")
            try:
                ex = ((1.0, a / b), (b / a, 1.0))  # v / v is exactly 1.0
            except OverflowError:
                raise InvalidRatesError("coin values too far apart for float rates") from None
            ranking = (1, 2) if a >= b else (2, 1)
        else:
            if not all(isinstance(v, int) and v > 0 for v in values):
                raise InvalidRatesError(f"coin values must be positive integers, got {values}")
            try:
                ex = tuple([tuple([v / w for w in values]) for v in values])
            except OverflowError:
                raise InvalidRatesError("coin values too far apart for float rates") from None
            ranking = _ranking(values)
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "ex", ex)
        object.__setattr__(matrix, "ranking", ranking)
        return matrix

    @classmethod
    def ones(cls, k: int) -> "ExchangeRateMatrix":
        return cls.from_values((1,) * k)


class _PreferenceFields(NamedTuple):
    weights: Mapping
    k: int


class PreferenceProfile(_PreferenceFields):
    """Cobb-Douglas weights per agent over the k currencies.

    Weights are nonnegative and sum to one per agent; an agent should carry
    zero weight on currencies it is not a member of.
    """

    __slots__ = ()

    def __new__(cls, weights: Mapping, k: int):
        normalized = {}
        for agent, row in weights.items():
            row = tuple(float(w) for w in row)
            if len(row) != k:
                raise ValueError(f"agent {agent!r} has {len(row)} weights, expected {k}")
            if any(w < 0 for w in row):
                raise ValueError(f"agent {agent!r} has a negative weight")
            if abs(sum(row) - 1.0) > 1e-9:
                raise ValueError(f"weights of agent {agent!r} must sum to 1")
            normalized[agent] = row
        return super().__new__(cls, normalized, k)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # so that _replace validates too

    def weight(self, agent: str, i: int) -> float:
        return self.weights[agent][i - 1]

    def matrix(self, agents: Sequence[str]) -> list:
        """Rows of weights in ``agents`` order."""
        return [list(self.weights[a]) for a in agents]


class EquilibriumResult(NamedTuple):
    prices: tuple            # normalized to sum 1
    allocation: list         # n rows of k diluted holdings at equilibrium
    residual: float          # max |M p - p|


def diluted_balances(network: CurrencyNetwork):
    """Return (agents, matrix) of per-agent currency fractions.

    Rows follow sorted agent order, columns are currencies 1..k; every
    column sums to one.
    """
    agents = list(network.agents)
    index = {agent: row for row, agent in enumerate(agents)}
    counts = [float(network.coin_count(i)) for i in network.currencies]
    if any(count == 0 for count in counts):
        empty = [i for i in network.currencies if network.coin_count(i) == 0]
        raise EmptyCurrencyError(f"currencies without coins: {empty}")
    matrix = [[0.0] * network.k for _ in agents]
    for coin, agent in network.holder.items():
        matrix[index[agent]][coin.currency - 1] += 1.0
    return agents, [[x / count for x, count in zip(row, counts)] for row in matrix]


def strongly_connected(links) -> bool:
    """Whether the directed graph with boolean adjacency ``links`` is strongly connected."""
    rows = [[bool(x) for x in row] for row in links]
    k = len(rows)

    def reaches_all(adjacency) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            for j, linked in enumerate(adjacency[stack.pop()]):
                if linked and j not in seen:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == k

    # node 1 reaches every node, and every node reaches node 1
    return k == 0 or (reaches_all(rows) and reaches_all(list(zip(*rows))))


def _refuse_negative(rows, what: str) -> None:
    """Raise ValueError naming the first negative entry of ``rows``, row by row."""
    for r, row in enumerate(rows, 1):
        for j, x in enumerate(row, 1):
            if x < 0:
                raise ValueError(f"{what} entry ({r}, {j}) is negative: {x!r}")


def market_equilibrium(market: list, price_weights: Optional[Sequence[int]] = None) -> tuple:
    """(prices, residual) of the economy with market matrix ``market``.

    ``market`` is M = W^T E as k row lists of Python floats, read but not
    copied; its columns must sum to one. The residual is max |M p - p|.
    Raises ValueError naming a negative entry of M (at k >= 3 only when
    ``price_weights`` is not given), and DegenerateEconomyError when M is
    reducible or a price comes out zero.

    For k != 2 the prices are p_r = w_r / sum(w), one correctly rounded
    division of two integers each. By the Markov chain tree theorem the
    integers w_r = c_r T_r, the tree integers T of
    :func:`coin_values_from_market_sums` times the coin counts c, are
    proportional to the stationary vector of M; a caller that has them
    passes them as ``price_weights``, and otherwise they are read off M
    itself, as integers over one power of two (every c is then 1). M is
    reducible exactly when some w_r is 0.

    For k = 2 the prices stay in floats: M is reducible unless M_12 > 0 and
    M_21 > 0, and the prices are the operations of Gaussian elimination with
    partial pivoting on (M - I) p = 0, its last row replaced by sum(p) = 1.
    With M_21 < 1 the pivot is the sum row, which gives
    p_2 = M_21 / (M_12 + M_21), p_1 = 1 - p_2; at M_21 >= 1 the rows keep
    their order.
    """
    k = len(market)
    if k == 2:  # the column loop below, spelled out: the same reads and additions in order
        row1, row2 = market
        for j in (0, 1):
            total = 0.0 + row1[j] + row2[j]
            if not abs(total - 1.0) <= 1e-6:  # a NaN total fails too
                raise ValueError(f"market matrix column {j + 1} sums to {total}, not 1")
        (m11, m12), (m21, m22) = market
        if not (m12 > 0.0 and m21 > 0.0 and m11 >= 0.0 and m22 >= 0.0):
            _refuse_negative(market, "market matrix")
            raise DegenerateEconomyError("prices are indeterminate: the economy is reducible")
        if m21 < 1.0:
            p2 = m21 / (m12 + m21)
            p1 = 1.0 - p2
        else:  # the pivot tie (or M_21 > 1): no row swap
            p2 = 1.0 / (1.0 - 1.0 / -m21 * m12)
            p1 = (0.0 - m12 * p2) / -m21
        prices = [p1, p2]
        residual = max(abs(m11 * p1 + m12 * p2 - p1), abs(m21 * p1 + m22 * p2 - p2))
    else:
        for j in range(k):
            total = 0.0
            for row in market:
                total += row[j]
            if not abs(total - 1.0) <= 1e-6:  # a NaN total fails too
                raise ValueError(f"market matrix column {j + 1} sums to {total}, not 1")
        if price_weights is None:
            _refuse_negative(market, "market matrix")
            flat, _ = dyadic_integers([m for row in market for m in row])
            price_weights = coin_values_from_market_sums([flat[j::k] for j in range(k)])
        if not all(price_weights):
            raise DegenerateEconomyError("prices are indeterminate: the economy is reducible")
        total = sum(price_weights)
        prices = [w / total for w in price_weights]
        residual = max([abs(_dot(row, prices) - p) for row, p in zip(market, prices)])
    if min(prices) <= 1e-12:
        dead = [i + 1 for i, p in enumerate(prices) if p <= 1e-12]
        raise DegenerateEconomyError(
            f"currencies priced at zero (valued only by zero-wealth agents): {dead}"
        )
    return tuple(prices), residual


def demand(endowment, weights, prices) -> list:
    """Each agent's Cobb-Douglas demand at ``prices``: w_i (e . p) / p_i per currency."""
    allocation = []
    for w, e in zip(weights, endowment):
        wealth = _dot(e, prices)
        allocation.append([w_i * wealth / p for w_i, p in zip(w, prices)])
    return allocation


def demand_columns(holdings, counts, weights, prices) -> list:
    """:func:`demand` by currency columns, from coin counts: the same floats.

    ``holdings[j][n]`` is the number of coins of currency j + 1 agent n
    holds, of ``counts[j]`` in all, and ``weights[j][n]`` the agent's
    weight on that currency. Returns, per currency, each agent's demanded
    fraction of it. Each wealth is summed currency by currency from 0.0 and
    each fraction is ``w * wealth / p``, the operations of :func:`demand`
    on the fractions ``n / c`` in the same order, so the results equal its
    transposed rows bit for bit.
    """
    wealth = [0.0] * len(holdings[0])
    for column, c, p in zip(holdings, counts, prices):
        wealth = [x + n / c * p for x, n in zip(wealth, column)]
    return [[w * x / p for w, x in zip(column, wealth)] for column, p in zip(weights, prices)]


def solve_equilibrium(endowment, weights) -> EquilibriumResult:
    """Competitive equilibrium of the Cobb-Douglas diluted-portfolio economy.

    ``endowment`` is the n x k matrix of currency fractions (columns sum to
    one), ``weights`` the matching Cobb-Douglas weight matrix, each given as
    nested sequences or a 2-d array. Market clearing,
    p_i = sum_v weights[v][i] * (endowment[v] . p), reads p = M p with the
    column-stochastic M = weights^T endowment, solved by
    :func:`market_equilibrium` (for k >= 3 from the tree integers of M's
    entries as integers over one power of two). A negative endowment or
    weight entry raises ValueError. The prices are unique and positive
    exactly when the graph of M > 0 is strongly connected; otherwise
    DegenerateEconomyError is raised. The allocation is each agent's
    demand at those prices.
    """
    endowment = _float_rows(endowment)
    weights = _float_rows(weights)
    k = len(endowment[0]) if endowment else 0
    if len(weights) != len(endowment) or set(map(len, endowment + weights)) != {k} or not k:
        raise ValueError("endowment and weights must have matching shapes")
    _refuse_negative(endowment, "endowment")
    _refuse_negative(weights, "weights")
    column_sums = [sum(column) for column in zip(*endowment)]
    if not all(abs(total - 1.0) <= 1e-6 for total in column_sums):  # NaN fails
        raise ValueError(f"endowment columns must sum to 1, got {column_sums}")
    dead = [i + 1 for i, column in enumerate(zip(*weights)) if sum(column) <= 0.0]
    if dead:
        raise DegenerateEconomyError(f"currencies valued by no agent: {dead}")

    # M = W^T E, summed over agents in order (a zero weight adds nothing)
    market = []
    for weight_column in zip(*weights):
        row = [0.0] * k
        for w_i, e in zip(weight_column, endowment):
            if w_i:
                for j, e_j in enumerate(e):
                    row[j] += w_i * e_j
        market.append(row)
    prices, residual = market_equilibrium(market)
    return EquilibriumResult(prices, demand(endowment, weights, prices), residual)


def dyadic_integers(values) -> tuple:
    """(numerators, D): the floats ``values`` as integers over one power of two D.

    Every float is a dyadic rational, so ``numerators[i] / D == values[i]``
    holds exactly.
    """
    ratios = [float(x).as_integer_ratio() for x in values]
    denominator = max((d for _, d in ratios), default=1)
    return [n * (denominator // d) for n, d in ratios], denominator


def _integer_determinant(matrix: list) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination); overwrites it."""
    n = len(matrix)
    sign = 1
    previous = 1
    for c in range(n - 1):
        if not matrix[c][c]:
            swap = next((r for r in range(c + 1, n) if matrix[r][c]), None)
            if swap is None:
                return 0
            matrix[c], matrix[swap] = matrix[swap], matrix[c]
            sign = -sign
        pivot = matrix[c][c]
        top = matrix[c]
        for r in range(c + 1, n):
            row = matrix[r]
            lead = row[c]
            for j in range(c + 1, n):
                row[j] = (row[j] * pivot - lead * top[j]) // previous
        previous = pivot
    return sign * matrix[-1][-1] if n else 1


def _ranking(values) -> tuple:
    """Currency indices from the largest of ``values`` down, equal values in index order."""
    return tuple(sorted(range(1, len(values) + 1), key=lambda i: (-values[i - 1], i)))


def coin_values_from_market_sums(sums: list) -> list:
    """Integers proportional to the value of one coin of each currency, exactly.

    ``sums[j][i]`` is the integer S_ij = sum_a W_ai * balance(a, j), with the
    weights scaled by one common denominator D, so that the market matrix
    is M_ij = S_ij / (D c_j) for coin counts c. By the Markov chain tree
    theorem the price p_r is proportional to c_r T_r / prod(c), where T_r is
    the S-weight of the spanning trees directed into r: the minor at (r, r)
    of the Laplacian L_ij = -S_ij, L_jj = sum_{i != j} S_ij. So one coin's
    value p_r / c_r is proportional to T_r, and T is returned; for k = 2,
    T = (S_12, S_21).
    """
    k = len(sums)
    if k == 2:
        return [sums[1][0], sums[0][1]]
    if k == 3:  # the three trees into each root, spelled out
        (_, s21, s31), (s12, _, s32), (s13, s23, _) = sums
        return [
            s12 * s13 + s12 * s23 + s32 * s13,
            s21 * s23 + s21 * s13 + s31 * s23,
            s31 * s32 + s31 * s12 + s21 * s32,
        ]
    laplacian = [[-sums[j][i] for j in range(k)] for i in range(k)]
    for j in range(k):
        laplacian[j][j] = sum(sums[j]) - sums[j][j]
    return [
        _integer_determinant([row[:r] + row[r + 1:] for row in laplacian[:r] + laplacian[r + 1:]])
        for r in range(k)
    ]


def coin_values_from_mrs(mrs, coin_counts: Sequence[int]) -> list:
    """Integers proportional to the value of one coin of each currency under a given MRS.

    The first row gives mrs[0][i] = p_1 / p_i = n_i / D for dyadic
    numerators n_i, so one coin of currency i is worth p_i / c_i, in
    proportion 1 / w_i with w_i = n_i c_i. The values are prod(w) / w_i.
    For k = 2, a first row (1, m) with m = n / d gives w = (d c_1, n c_2), so (n c_2, d c_1).
    """
    first = mrs[0]
    if len(first) == len(coin_counts) == 2 and first[0] == 1.0:
        n, d = float(first[1]).as_integer_ratio()
        return [n * coin_counts[1], d * coin_counts[0]]
    numerators, _ = dyadic_integers(first)
    weights = [n * c for n, c in zip(numerators, coin_counts)]
    product = math.prod(weights)
    return [product // w for w in weights]


def mrs_matrix(prices: Sequence[float]) -> tuple:
    """Marginal rates of substitution between currencies: mrs[i][j] = p_i / p_j."""
    p = [float(x) for x in prices]
    if len(p) == 2:  # the k = 2 case, spelled out
        p1, p2 = p
        if not (0.0 < p1 < math.inf and 0.0 < p2 < math.inf):
            raise NonPositivePriceError(f"prices must be positive, got {p}")
        return ((1.0, p1 / p2), (p2 / p1, 1.0))
    if not all(0.0 < x < math.inf for x in p):
        raise NonPositivePriceError(f"prices must be positive, got {p}")
    return tuple([tuple([pi / pj for pj in p]) for pi in p])


def coin_exchange_rates(mrs, coin_counts: Sequence[int]) -> ExchangeRateMatrix:
    """Per-coin rates: the currency-level MRS normalized by coin volumes.

    ex[i][j] = mrs[i][j] / (|C_i| / |C_j|), computed so that a volume ratio
    exactly equal to the MRS yields a rate of exactly 1. The result passes
    the full ExchangeRateMatrix validation, so this is the constructor for
    rates from outside a run; a run builds its own with
    :meth:`ExchangeRateMatrix.from_values`.
    """
    counts = list(coin_counts)
    k = len(counts)
    try:
        mrs = _float_rows(mrs)
    except TypeError:
        mrs = None
    if mrs is None or len(mrs) != k or not all([len(row) == k for row in mrs]):
        raise InvalidRatesError("MRS matrix shape does not match coin counts")
    if any([c <= 0 for c in counts]):
        raise ZeroCoinsError(f"coin counts must be positive, got {counts}")
    if any([row[i] != 1.0 for i, row in enumerate(mrs)]):
        raise InvalidRatesError("MRS diagonal must be 1")
    return ExchangeRateMatrix(
        [[m_ij / (c_i / c_j) for m_ij, c_j in zip(row, counts)] for row, c_i in zip(mrs, counts)]
    )


def fractional_equity(network: CurrencyNetwork, ex: ExchangeRateMatrix, v: str) -> float:
    """Agent v's fraction of the network's total value.

    Independent of the reference currency used to express values; computed
    against both the first and the last currency and required to agree
    within RATE_TOL.
    """
    if ex.k != network.k:
        raise InvalidRatesError("rate matrix size does not match the network")
    balances = [0] * network.k
    counts = [network.coin_count(i) for i in network.currencies]
    for coin, agent in network.holder.items():
        if agent == v:
            balances[coin.currency - 1] += 1

    def value(reference):
        col = ex.column(reference)
        return _dot(balances, col) / _dot(counts, col)

    first = value(1)
    last = value(network.k)
    if abs(first - last) > RATE_TOL:
        raise InvalidRatesError(
            f"equity depends on reference currency ({first} vs {last})"
        )
    return first


def largest_remainder_targets(fractions: Sequence[float], total: int) -> list:
    """Round fractions of ``total`` to integers preserving the exact total.

    Standard largest-remainder rounding; remainder ties break toward the
    earlier position. Fractions that sum above one, or so far below it that
    more coins are left over than there are positions, raise
    :class:`InfeasibleAllocationError`.
    """
    exact = [float(f) * total for f in fractions]
    base = list(map(math.floor, exact))
    leftover = total - sum(base)
    if leftover < 0:
        raise InfeasibleAllocationError("fractions sum above one")
    if leftover > len(base):
        raise InfeasibleAllocationError(
            f"fractions sum below one: {leftover} coins left over for {len(base)} positions"
        )
    if leftover:
        # a stable sort, so equal remainders keep the earlier position first
        remainders = list(map(sub, exact, base))
        for idx in sorted(range(len(exact)), key=remainders.__getitem__, reverse=True)[:leftover]:
            base[idx] += 1
    return base


def settlement_moves(agents: Sequence[str], have, targets, holders) -> list:
    """The transfers that bring each agent's holding of one currency to its target.

    ``have[n]`` is the coin count ``agents[n]`` holds and ``targets[n]`` the
    count it should end up with; ``holders`` lists the holder of each of the
    currency's coins in ascending serial order. Returns (position, donor,
    recipient) triples, ``holders[position]`` being the donor's coin.
    Donors hand over their lowest-serial coins first, in agent order, and
    recipients are served in agent order. Only the donors' coins are looked
    up, each donor's by a scan of ``holders`` that stops at its surplus.
    """
    given = []
    wanted = []
    for agent, n, want in zip(agents, have, targets):
        if n > want:
            mine = compress(count(), map(agent.__eq__, holders))
            given += [(position, agent) for position in islice(mine, n - want)]
        elif want > n:
            wanted += [agent] * (want - n)
    return [(position, donor, recipient) for (position, donor), recipient in zip(given, wanted)]


def settle_trades(
    network: CurrencyNetwork,
    allocation,
    agents: Optional[Sequence[str]] = None,
) -> CurrencyNetwork:
    """Realize a diluted allocation as integer coin transfers.

    ``allocation`` holds one row of currency fractions per agent, as nested
    sequences or a 2-d array. Each agent ends up holding the
    largest-remainder rounding of its allocated fraction of every currency,
    through the transfers of :func:`settlement_moves`.
    """
    if agents is None:
        agents = list(network.agents)
    allocation = _float_rows(allocation)
    shape = (len(allocation), len(allocation[0]) if allocation else 0)
    if shape != (len(agents), network.k) or any(
        len(row) != network.k for row in allocation
    ):
        raise InfeasibleAllocationError(
            f"allocation shape {shape} does not match ({len(agents)}, {network.k})"
        )
    if any(x < -1e-12 for row in allocation for x in row):
        raise InfeasibleAllocationError("allocation has negative entries")
    sums = [sum(row[i] for row in allocation) for i in range(network.k)]
    if any(abs(total - 1.0) > 1e-9 for total in sums):
        raise InfeasibleAllocationError(f"allocation columns must sum to 1, got {sums}")

    unlisted = sorted(set(network.holder.values()) - set(agents))
    if unlisted:
        raise InfeasibleAllocationError(f"coin holders without an allocation row: {unlisted}")
    current = network
    for i in network.currencies:
        coins = sorted(network.community(i).coins)
        holders = [network.holder[coin] for coin in coins]
        targets = largest_remainder_targets([row[i - 1] for row in allocation], len(coins))
        held = Counter(holders)
        have = [held[agent] for agent in agents]
        for position, donor, recipient in settlement_moves(agents, have, targets, holders):
            current = pay(current, coins[position], donor, recipient)
    return current
