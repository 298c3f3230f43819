"""Pure exchange economy over diluted currency portfolios.

Agents value the *fraction* of each currency they hold (their diluted
balance), with Cobb-Douglas preferences. The competitive equilibrium of
this economy yields prices over whole currencies; the price ratios are the
marginal rates of substitution (MRS) between currencies, and dividing the
MRS by the coin-volume ratio gives per-coin exchange rates.

The equilibrium prices are the stationary vector of the column-stochastic
M = W^T E (weights W, endowment fractions E), found by one linear solve;
they are determinate exactly when M is irreducible.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

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


@dataclass(frozen=True, eq=False)
class ExchangeRateMatrix:
    """Per-coin exchange rates: ex[i-1, j-1] coins of j buy one coin of i.

    Validated at construction: unit diagonal (exactly), arbitrage-free
    chains and reciprocal pairs within RATE_TOL.
    """

    ex: np.ndarray

    def __post_init__(self):
        ex = np.asarray(self.ex, dtype=float)
        object.__setattr__(self, "ex", ex)
        if ex.ndim != 2 or ex.shape[0] != ex.shape[1]:
            raise InvalidRatesError("rate matrix must be square")
        if not np.all(np.isfinite(ex)) or np.any(ex <= 0.0):
            raise InvalidRatesError("rates must be finite and positive")
        k = ex.shape[0]
        for i in range(k):
            if ex[i, i] != 1.0:
                raise InvalidRatesError(f"fungibility violated at currency {i + 1}")
        for i in range(k):
            for j in range(k):
                lhs = ex[i, j] * ex[j, i]
                if abs(lhs - 1.0) > RATE_TOL:
                    raise InvalidRatesError(
                        f"reciprocity violated for ({i + 1},{j + 1}): {lhs}"
                    )
                for l in range(k):
                    chained = ex[i, j] * ex[j, l]
                    if abs(chained - ex[i, l]) > RATE_TOL * max(1.0, abs(ex[i, l])):
                        raise InvalidRatesError(
                            f"arbitrage-free trade violated for "
                            f"({i + 1},{j + 1},{l + 1})"
                        )

    @property
    def k(self) -> int:
        return self.ex.shape[0]

    def rate(self, i: int, j: int) -> float:
        if not (1 <= i <= self.k and 1 <= j <= self.k):
            raise InvalidRatesError(f"currency index out of range: ({i}, {j})")
        return float(self.ex[i - 1, j - 1])

    def column(self, j: int) -> np.ndarray:
        """Values of one coin of each currency, expressed in currency j coins."""
        return self.ex[:, j - 1]

    def as_lists(self) -> list:
        return self.ex.tolist()

    @classmethod
    def ones(cls, k: int) -> "ExchangeRateMatrix":
        return cls(np.ones((k, k)))


@dataclass(frozen=True)
class PreferenceProfile:
    """Cobb-Douglas weights per agent over the k currencies.

    Weights are nonnegative and sum to one per agent; an agent should carry
    zero weight on currencies it is not a member of.
    """

    weights: Mapping
    k: int

    def __post_init__(self):
        normalized = {}
        for agent, row in self.weights.items():
            row = tuple(float(w) for w in row)
            if len(row) != self.k:
                raise ValueError(f"agent {agent!r} has {len(row)} weights, expected {self.k}")
            if any(w < 0 for w in row):
                raise ValueError(f"agent {agent!r} has a negative weight")
            if abs(sum(row) - 1.0) > 1e-9:
                raise ValueError(f"weights of agent {agent!r} must sum to 1")
            normalized[agent] = row
        object.__setattr__(self, "weights", normalized)

    def weight(self, agent: str, i: int) -> float:
        return self.weights[agent][i - 1]

    def matrix(self, agents: Sequence[str]) -> np.ndarray:
        return np.array([self.weights[a] for a in agents], dtype=float)


@dataclass(frozen=True)
class EquilibriumResult:
    prices: np.ndarray       # normalized to sum 1
    allocation: np.ndarray   # n x k diluted holdings at equilibrium
    residual: float          # max |M p - p|


def diluted_balances(network: CurrencyNetwork):
    """Return (agents, matrix) of per-agent currency fractions.

    Rows follow sorted agent order, columns are currencies 1..k; every
    column sums to one.
    """
    agents = list(network.agents)
    index = {agent: row for row, agent in enumerate(agents)}
    counts = np.array([network.coin_count(i) for i in network.currencies], dtype=float)
    if np.any(counts == 0):
        empty = [i for i in network.currencies if network.coin_count(i) == 0]
        raise EmptyCurrencyError(f"currencies without coins: {empty}")
    matrix = np.zeros((len(agents), network.k))
    for coin, agent in network.holder.items():
        matrix[index[agent], coin.currency - 1] += 1.0
    return agents, matrix / counts


def strongly_connected(links: np.ndarray) -> bool:
    """Whether the directed graph with boolean adjacency ``links`` is strongly connected."""
    # (I + A)^(k-1) has no zero entry exactly when every node reaches every other
    k = links.shape[0]
    return bool(np.linalg.matrix_power(links | np.eye(k, dtype=bool), k - 1).all())


def solve_equilibrium(endowment: np.ndarray, weights: np.ndarray) -> EquilibriumResult:
    """Competitive equilibrium of the Cobb-Douglas diluted-portfolio economy.

    ``endowment`` is the n x k matrix of currency fractions (columns sum to
    one), ``weights`` the matching Cobb-Douglas weight matrix. Market
    clearing, p_i = sum_v weights[v, i] * (endowment[v] . p), reads p = M p
    with the column-stochastic M = weights.T @ endowment, so the prices are
    one solve of (M - I) p = 0 with a row replaced by sum(p) = 1. They are
    unique and positive exactly when the graph of M > 0 is strongly
    connected; otherwise DegenerateEconomyError is raised. The allocation
    is each agent's demand at those prices.
    """
    endowment = np.asarray(endowment, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if endowment.shape != weights.shape:
        raise ValueError("endowment and weights must have matching shapes")
    k = endowment.shape[1]
    column_sums = endowment.sum(axis=0)
    if np.any(np.abs(column_sums - 1.0) > 1e-6):
        raise ValueError(f"endowment columns must sum to 1, got {column_sums}")
    if np.any(weights.sum(axis=0) <= 0.0):
        dead = [i + 1 for i in range(k) if weights[:, i].sum() <= 0.0]
        raise DegenerateEconomyError(f"currencies valued by no agent: {dead}")

    market = weights.T @ endowment
    if not strongly_connected(market > 0.0):
        raise DegenerateEconomyError("prices are indeterminate: the economy is reducible")
    # the diagonal of M - I is minus each column's off-diagonal mass, which
    # equals M_ii - 1 for a column-stochastic M but avoids its cancellation
    system = market - np.diag(np.diag(market))
    system -= np.diag(system.sum(axis=0))
    system[-1] = 1.0
    prices = np.linalg.solve(system, np.eye(k)[-1])
    residual = float(np.max(np.abs(market @ prices - prices)))

    if np.any(prices <= 1e-12):
        dead = [i + 1 for i in range(k) if prices[i] <= 1e-12]
        raise DegenerateEconomyError(
            f"currencies priced at zero (valued only by zero-wealth agents): {dead}"
        )
    wealth = endowment @ prices
    allocation = weights * wealth[:, None] / prices[None, :]
    return EquilibriumResult(prices, allocation, residual)


def mrs_matrix(prices: Sequence[float]) -> np.ndarray:
    """Marginal rates of substitution between currencies: mrs[i, j] = p_i / p_j."""
    p = np.asarray(prices, dtype=float)
    if np.any(p <= 0.0) or not np.all(np.isfinite(p)):
        raise NonPositivePriceError(f"prices must be positive, got {p}")
    return p[:, None] / p[None, :]


def coin_exchange_rates(mrs: np.ndarray, coin_counts: Sequence[int]) -> ExchangeRateMatrix:
    """Per-coin rates: the currency-level MRS normalized by coin volumes.

    ex[i, j] = mrs[i, j] / (|C_i| / |C_j|), computed so that a volume ratio
    exactly equal to the MRS yields a rate of exactly 1.
    """
    mrs = np.asarray(mrs, dtype=float)
    counts = list(coin_counts)
    k = len(counts)
    if mrs.shape != (k, k):
        raise InvalidRatesError("MRS matrix shape does not match coin counts")
    if any(c <= 0 for c in counts):
        raise ZeroCoinsError(f"coin counts must be positive, got {counts}")
    for i in range(k):
        if mrs[i, i] != 1.0:
            raise InvalidRatesError("MRS diagonal must be 1")
    ex = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            ex[i, j] = mrs[i, j] / (counts[i] / counts[j])
    return ExchangeRateMatrix(ex)


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
        num = sum(b * col[i] for i, b in enumerate(balances))
        den = sum(c * col[i] for i, c in enumerate(counts))
        return num / den

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
    earlier position.
    """
    exact = [float(f) * total for f in fractions]
    base = [int(np.floor(x)) for x in exact]
    leftover = total - sum(base)
    if leftover < 0:
        raise InfeasibleAllocationError("fractions sum above one")
    order = sorted(range(len(exact)), key=lambda idx: (-(exact[idx] - base[idx]), idx))
    for idx in order[:leftover]:
        base[idx] += 1
    return base


def settle_trades(
    network: CurrencyNetwork,
    allocation: np.ndarray,
    agents: Optional[Sequence[str]] = None,
) -> CurrencyNetwork:
    """Realize a diluted allocation as integer coin transfers.

    Each agent ends up holding the largest-remainder rounding of its
    allocated fraction of every currency. Donors hand over their
    lowest-serial coins first, in agent order, so settlement is
    deterministic.
    """
    if agents is None:
        agents = list(network.agents)
    allocation = np.asarray(allocation, dtype=float)
    if allocation.shape != (len(agents), network.k):
        raise InfeasibleAllocationError(
            f"allocation shape {allocation.shape} does not match "
            f"({len(agents)}, {network.k})"
        )
    if np.any(allocation < -1e-12):
        raise InfeasibleAllocationError("allocation has negative entries")
    sums = allocation.sum(axis=0)
    if np.any(np.abs(sums - 1.0) > 1e-9):
        raise InfeasibleAllocationError(f"allocation columns must sum to 1, got {sums}")

    current = network
    for i in network.currencies:
        count = network.coin_count(i)
        if count == 0:
            continue
        targets = largest_remainder_targets(allocation[:, i - 1], count)
        held = {agent: [] for agent in agents}
        for coin in sorted(network.community(i).coins):
            held[current.holder[coin]].append(coin)
        surplus = []  # (agent, coins to give), agent order
        deficit = []  # (agent, count to receive), agent order
        for row, agent in enumerate(agents):
            have = len(held[agent])
            want = targets[row]
            if have > want:
                surplus.append((agent, held[agent][: have - want]))
            elif want > have:
                deficit.append((agent, want - have))
        give = iter(
            (agent, coin) for agent, coins in surplus for coin in coins
        )
        for recipient, needed in deficit:
            for _ in range(needed):
                donor, coin = next(give)
                current = pay(current, coin, donor, recipient)
    return current
