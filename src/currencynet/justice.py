"""Distributive and asymptotic justice metrics.

The central quantity is each agent's diluted balance minus its diluted
cumulative cashflow. A history is just at step t when that quantity equals
an equal share 1/|V_t| for every agent; it is asymptotically just when the
quantity converges to 1/|V|. For networks, balances and cashflows are
converted to a reference currency through the coin exchange rates before
diluting; arbitrage-freeness makes the result independent of the reference.
"""
from __future__ import annotations

import math
from operator import sub
from typing import Mapping, NamedTuple, Optional, Sequence

from .accounting import History
from .economy import ExchangeRateMatrix, ordered_sum
from .errors import BadIndexError, ConditionViolatedError, InvalidRatesError, TooShortError

REFERENCE = 1      # the currency coins are valued in; any other gives the same values
WINDOW_FRAC = 0.1  # the trailing share of a series that estimates its limit
TOLERANCE = 1e-2   # how far a final justice value may sit from the equal share


def justice_values(columns, step, balance, cashflow, weights) -> list:
    """Each agent's balance minus cashflow, weighted and diluted, at ``step``.

    ``columns`` lists, per currency 1..k, each agent's column in the key
    index (``History.key_columns``); ``step`` carries the coin ``counts``;
    ``balance`` and ``cashflow`` are the step's rows from
    ``History.cashflow_steps``; and ``weights`` lists the value of one coin of
    each currency in the reference currency. The currencies are added left
    to right, like ``economy.ordered_sum``. NaN while the network holds no
    value.
    """
    denominator = 0.0
    for count, w in zip(step.counts, weights):
        denominator += count * w
    if not denominator:
        return [math.nan] * len(columns[0])
    held = list(map(sub, balance, cashflow))
    totals = [0.0] * len(columns[0])
    for cols, w in zip(columns, weights):
        totals = [total + held[c] * w for total, c in zip(totals, cols)]
    return [total / denominator for total in totals]


def weights_at(rates_by_step: Sequence[ExchangeRateMatrix], t: int) -> list:
    """Column REFERENCE of the rates in force at t; past the end, the last matrix's."""
    return rates_by_step[min(t, len(rates_by_step) - 1)].column(REFERENCE)


def justice_pass(history: History, rates_by_step: Sequence[ExchangeRateMatrix]):
    """``History.cashflow_steps`` with each step's justice values of ``history.agents``.

    Yields ``(step, balance, cashflow, values)``, weighted by :func:`weights_at`.
    """
    columns = history.key_columns(history.agents)
    for step, balance, cashflow in history.cashflow_steps():
        weights = weights_at(rates_by_step, step.t)
        yield step, balance, cashflow, justice_values(columns, step, balance, cashflow, weights)


def justice_value_single(history: History, t: int, v: str) -> float:
    """Diluted balance minus diluted cashflow for a one-currency history.

    Equals 1/|V_t| at every t exactly when the history is just. NaN while
    the currency has no coins.
    """
    if history.k != 1:
        raise ValueError("single-community metric requires exactly one currency")
    total = history.coin_count(t, 1)
    if total == 0:
        return float("nan")
    cashflow = history.cumulative_cashflow(t, v, 1)
    return (history.balance(t, v, 1) - cashflow) / total


def justice_value_network(
    history: History,
    t: int,
    v: str,
    ex: ExchangeRateMatrix,
    reference: int = 1,
) -> float:
    """Share of network value held by v net of its trades, at step t.

    Balances and cashflows of every currency are expressed in the reference
    currency through ``ex`` and divided by the total network value. With one
    currency this reduces to :func:`justice_value_single`.
    """
    if ex.k != history.k:
        raise InvalidRatesError("rate matrix size does not match the history")
    if not 0 <= t <= history.last_step:
        raise BadIndexError(f"step {t} outside history 0..{history.last_step}")
    col = ex.column(reference)
    numerator = 0.0
    denominator = 0.0
    for i in history.currencies:
        weight = col[i - 1]
        cashflow = history.cumulative_cashflow(t, v, i) if t >= 1 else 0
        numerator += (history.balance(t, v, i) - cashflow) * weight
        denominator += history.coin_count(t, i) * weight
    if denominator == 0.0:
        return float("nan")
    return numerator / denominator


def convergence_band(v1, v2) -> tuple:
    """The band ``(|V1 - V2| / |V2|, |V1| / |V2 - V1|)`` of feasible limits.

    The upper bound is unbounded when V2 is contained in V1.
    """
    v1, v2 = set(v1), set(v2)
    if not v1 or not v2:
        raise ValueError("both communities must be nonempty")
    only_2 = len(v2 - v1)
    return len(v1 - v2) / len(v2), math.inf if only_2 == 0 else len(v1) / only_2


def convergence_condition(v1, v2, mrs_limit: float) -> bool:
    """Whether the two-community intersection can absorb the value gap.

    True when mrs_limit lies in :func:`convergence_band`. Under joint
    egalitarian minting with myopic agents this is the sufficient condition
    for per-coin rates between the two currencies to converge to 1.
    """
    lower, upper = convergence_band(v1, v2)
    if mrs_limit <= 0:
        raise ValueError("the limiting substitution rate must be positive")
    return lower <= mrs_limit <= upper


def predicted_mint_fraction(v1, v2, mrs_limit: float) -> float:
    """Limiting fraction of steps in which intersection agents mint currency 1.

    The unique x in [0, 1] with
    mrs_limit = (|V1-V2| + x |V1∩V2|) / (|V2-V1| + (1-x) |V1∩V2|);
    also the predicted limit of a_t / t, where a_t counts the steps at which
    currency 1's coin was weakly more valuable.
    """
    v1, v2 = set(v1), set(v2)
    shared = len(v1 & v2)
    if shared == 0:
        raise ConditionViolatedError("communities do not intersect")
    if not convergence_condition(v1, v2, mrs_limit):
        raise ConditionViolatedError(
            f"substitution limit {mrs_limit} outside the feasible band"
        )
    only_1 = len(v1 - v2)
    only_2 = len(v2 - v1)
    return (mrs_limit * (only_2 + shared) - only_1) / (shared * (1.0 + mrs_limit))


class ConvergenceReport(NamedTuple):
    """Trailing-window summary of a metric series."""

    window: int
    trailing_mean: float
    max_deviation: float  # max |value - trailing_mean| inside the window

    def deviation_from(self, target: float) -> float:
        return abs(self.trailing_mean - target)


def convergence_report(series: Sequence[float]) -> ConvergenceReport:
    """Estimate the limit of a series from its trailing window (``WINDOW_FRAC``)."""
    if len(series) < 2:
        raise TooShortError(f"need at least 2 points, got {len(series)}")
    window = max(1, int(len(series) * WINDOW_FRAC))
    tail = [float(x) for x in series[-window:]]
    mean = ordered_sum(tail) / len(tail)
    return ConvergenceReport(
        window=window,
        trailing_mean=mean,
        max_deviation=max(abs(x - mean) for x in tail),
    )


class JusticeReport:
    """Per-agent justice series with trailing-limit estimates.

    ``target`` is the equal share 1/|V| over all agents ever present;
    per-step targets 1/|V_t| are kept alongside for the finite-time notion.
    """

    def __init__(
        self,
        target: float,
        window: int,
        series: Mapping,           # agent -> list of values, index = step
        step_targets: Sequence,    # 1/|V_t| per step
        estimates: Optional[dict] = None,  # agent -> ConvergenceReport
    ):
        self.target = target
        self.window = window
        self.series = series
        self.step_targets = step_targets
        self.estimates = {} if estimates is None else estimates

    def max_final_deviation(self) -> float:
        return max(
            abs(values[-1] - self.target) for values in self.series.values()
        )

    def to_summary(self) -> dict:
        agents = {
            agent: {
                "final": values[-1],
                "final_deviation": abs(values[-1] - self.target),
                "trailing_mean": self.estimates[agent].trailing_mean,
                "trailing_deviation": self.estimates[agent].deviation_from(self.target),
                "pass": abs(values[-1] - self.target) < TOLERANCE,
            }
            for agent, values in self.series.items()
        }
        return {
            "target": self.target,
            "window": self.window,
            "tolerance": TOLERANCE,
            "pass": all(entry["pass"] for entry in agents.values()),
            "agents": agents,
        }


def build_justice_report(
    series: Mapping,
    member_counts: Sequence[int],
    total_agents: int,
) -> JusticeReport:
    estimates = {
        agent: convergence_report(values)
        for agent, values in series.items()
    }
    window = next(iter(estimates.values())).window if estimates else 0
    return JusticeReport(
        target=1.0 / total_agents,
        window=window,
        series=series,
        step_targets=[1.0 / count if count else float("nan") for count in member_counts],
        estimates=estimates,
    )
