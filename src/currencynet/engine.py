"""Scenario orchestration: joins, minting, rate updates, metric collection.

A run executes steps 1..T. Each step processes scheduled joins, mints per
the configured regime using the rates in force, applies optional random
trade noise, and, on equilibration steps, recomputes exchange rates (and
optionally settles trades toward the equilibrium allocation). Rates in
force at step t are always the ones computed at the latest equilibration
strictly before t; before the first equilibration they are all ones.

Runs are deterministic: one seeded generator drives every random choice,
agents are always iterated in sorted order, and no set iteration order
leaks into results.
"""
from __future__ import annotations

import functools
import gc
import json
import math
import random
from itertools import accumulate
from operator import itemgetter
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from .accounting import History, HistoryStep
from .economy import (
    ExchangeRateMatrix,
    coin_exchange_rates,
    coin_values_from_market_sums,
    coin_values_from_mrs,
    demand_columns,
    dyadic_integers,
    largest_remainder_targets,
    mrs_matrix,
    ordered_sum,
    settlement_moves,
    strongly_connected,
)
# the engine keeps the market sums itself, so it calls the solver core on
# the market matrix and, for k >= 3, the tree weights of those sums; the
# public name stays, so wrappers of engine.solve_equilibrium see every solve
from .economy import market_equilibrium as solve_equilibrium
from .errors import ConfigError, CurrencyNetError, DegenerateEconomyError
from .justice import (
    JusticeReport,
    build_justice_report,
    convergence_band,
    convergence_condition,
    justice_pass,
    justice_values,
    predicted_mint_fraction,
    weights_at,
)
from .ledger import Coin, CurrencyCommunity, CurrencyNetwork
from .minting import (
    Defensive,
    Egocentric,
    EgalitarianSingle,
    EqualBirthGrant,
    FixedCurrency,
    JointEgalitarian,
    Myopic,
    UniformRandom,
    choose_mint_currency,
    most_valued_coin,
)

REGIME_TAGS = (
    "equal_birth_grant",
    "egalitarian_single",
    "joint_myopic",
    "joint_defensive",
    "joint_egocentric",
    "joint_random",
)


# the default of the mapping fields: one shared, read-only, empty mapping
NO_ENTRIES: Mapping = MappingProxyType({})


class Diagnostic(NamedTuple):
    level: str   # "error" | "warning" | "info"
    code: str
    message: str


class CommunityConfig(NamedTuple):
    index: int
    members: tuple
    initial_coins: Mapping = NO_ENTRIES  # agent -> coin count


class MrsSchedule(NamedTuple):
    """Scalar substitution-rate schedule for exogenous two-currency runs."""

    kind: str            # constant | exp_approach | table
    value: float = 1.0   # the limit
    start: float = 1.0
    tau: float = 1.0
    points: tuple = ()   # table mode: ((step, value), ...) sorted

    def at(self, t: int) -> float:
        if self.kind == "constant":
            return self.value
        if self.kind == "exp_approach":
            return self.value + (self.start - self.value) * math.exp(-t / self.tau)
        current = self.points[0][1]
        for step, value in self.points:
            if step <= t:
                current = value
            else:
                break
        return current

    @property
    def limit(self) -> float:
        if self.kind == "table":
            return self.points[-1][1]
        return self.value

    @classmethod
    def from_dict(cls, data: Mapping) -> "MrsSchedule":
        kind = data.get("kind", "constant")
        if kind == "constant":
            return cls(kind="constant", value=float(data["value"]))
        if kind == "exp_approach":
            return cls(
                kind="exp_approach",
                value=float(data["limit"]),
                start=float(data["start"]),
                tau=float(data.get("tau", 1.0)),
            )
        if kind == "table":
            # by step alone: points at one step keep their order, and the check reports them
            try:
                points = sorted(((int(s), float(v)) for s, v in data["points"]), key=lambda p: p[0])
            except (TypeError, ValueError):
                raise ConfigError(
                    "rates.mrs12.points: expected a list of [step, value] pairs"
                ) from None
            if not points:
                raise ConfigError("table schedule needs at least one point")
            return cls(kind="table", points=tuple(points))
        raise ConfigError(f"unknown schedule kind {kind!r}")

    def to_dict(self) -> dict:
        if self.kind == "constant":
            return {"kind": "constant", "value": self.value}
        if self.kind == "exp_approach":
            return {
                "kind": "exp_approach",
                "limit": self.value,
                "start": self.start,
                "tau": self.tau,
            }
        return {"kind": "table", "points": [list(p) for p in self.points]}


class RatesConfig(NamedTuple):
    mode: str = "endogenous"         # endogenous | exogenous
    tol: float = 1e-12
    max_iter: int = 5000
    mrs12: Optional[MrsSchedule] = None
    mrs_matrix: Optional[tuple] = None  # constant full matrix, rows as tuples

    @classmethod
    def from_dict(cls, data: Mapping) -> "RatesConfig":
        mode = data.get("mode", "endogenous")
        if mode == "endogenous":
            return cls(
                mode=mode,
                tol=float(data.get("tol", 1e-12)),
                max_iter=int(data.get("max_iter", 5000)),
            )
        if mode == "exogenous":
            mrs12 = data.get("mrs12")
            matrix = data.get("mrs_matrix")
            return cls(
                mode=mode,
                mrs12=MrsSchedule.from_dict(_mapping(mrs12, "rates.mrs12")) if mrs12 else None,
                mrs_matrix=tuple(tuple(float(x) for x in row) for row in matrix)
                if matrix
                else None,
            )
        raise ConfigError(f"unknown rates mode {mode!r}")

    def to_dict(self) -> dict:
        if self.mode == "endogenous":
            return {"mode": "endogenous", "tol": self.tol, "max_iter": self.max_iter}
        out: dict = {"mode": "exogenous"}
        if self.mrs12 is not None:
            out["mrs12"] = self.mrs12.to_dict()
        if self.mrs_matrix is not None:
            out["mrs_matrix"] = [list(row) for row in self.mrs_matrix]
        return out


class ScenarioConfig(NamedTuple):
    """A scenario; records are immutable, so derive variants with ``_replace``."""

    communities: tuple
    steps: int
    seed: int
    regime: str
    name: str = "scenario"
    grant: Optional[int] = None
    community: Optional[int] = None
    joins: Mapping = NO_ENTRIES  # step -> ((agent, currency), ...)
    join_grant: int = 0
    rates: RatesConfig = RatesConfig()
    k_eq: int = 1
    settlement: bool = False
    trade_noise: int = 0
    preferences: Optional[Mapping] = None           # agent -> {currency: weight}
    preferences_initial: Optional[Mapping] = None
    t_fix: int = 0
    owners: tuple = ()
    snapshot_interval: int = 0
    final_snapshot: bool = True

    @property
    def k(self) -> int:
        return len(self.communities)

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioConfig":
        try:
            communities = tuple(
                CommunityConfig(
                    index=int(entry["index"]),
                    members=_agent_names(entry["members"], f"communities[{n}].members"),
                    initial_coins={
                        str(agent): int(coins)
                        for agent, coins in _mapping(
                            entry.get("initial_coins", {}), f"communities[{n}].initial_coins"
                        ).items()
                    },
                )
                for n, entry in enumerate(data["communities"])
            )
            joins = {
                int(step): tuple((str(agent), int(cur)) for agent, cur in entries)
                for step, entries in _mapping(data.get("joins", {}), "joins").items()
            }
            prefs = data.get("preferences")
            prefs_initial = data.get("preferences_initial")
            return cls(
                name=str(data.get("name", "scenario")),
                communities=communities,
                steps=int(data["steps"]),
                seed=int(data["seed"]),
                regime=str(data["regime"]),
                grant=int(data["grant"]) if "grant" in data else None,
                community=int(data["community"]) if "community" in data else None,
                joins=joins,
                join_grant=int(data.get("join_grant", 0)),
                rates=RatesConfig.from_dict(_mapping(data.get("rates", {}), "rates")),
                k_eq=int(data.get("k_eq", 1)),
                settlement=bool(data.get("settlement", False)),
                trade_noise=int(data.get("trade_noise", 0)),
                preferences=_parse_weights(prefs, "preferences") if prefs else None,
                preferences_initial=(
                    _parse_weights(prefs_initial, "preferences_initial") if prefs_initial else None
                ),
                t_fix=int(data.get("t_fix", 0)),
                owners=tuple(
                    (str(p), str(a)) for p, a in data.get("owners", [])
                ),
                snapshot_interval=int(data.get("snapshot_interval", 0)),
                final_snapshot=bool(data.get("final_snapshot", True)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed scenario: {exc}") from exc

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "communities": [
                {
                    "index": cc.index,
                    "members": list(cc.members),
                    "initial_coins": dict(sorted(cc.initial_coins.items())),
                }
                for cc in self.communities
            ],
            "steps": self.steps,
            "seed": self.seed,
            "regime": self.regime,
            "joins": {
                str(step): [list(entry) for entry in entries]
                for step, entries in sorted(self.joins.items())
            },
            "join_grant": self.join_grant,
            "rates": self.rates.to_dict(),
            "k_eq": self.k_eq,
            "settlement": self.settlement,
            "trade_noise": self.trade_noise,
            "t_fix": self.t_fix,
            "owners": [list(pair) for pair in self.owners],
            "snapshot_interval": self.snapshot_interval,
            "final_snapshot": self.final_snapshot,
        }
        if self.grant is not None:
            out["grant"] = self.grant
        if self.community is not None:
            out["community"] = self.community
        if self.preferences is not None:
            out["preferences"] = _dump_weights(self.preferences)
        if self.preferences_initial is not None:
            out["preferences_initial"] = _dump_weights(self.preferences_initial)
        return out


def _mapping(value, field: str) -> Mapping:
    """``value`` if it is a JSON object; ConfigError naming ``field`` otherwise."""
    if not isinstance(value, Mapping):
        raise ConfigError(f"{field}: expected a mapping")
    return value


def _agent_names(value, field: str) -> tuple:
    """The agents of a JSON list; a string would otherwise pass as its characters."""
    if isinstance(value, (str, Mapping)):
        raise ConfigError(f"{field}: expected a list of agent names")
    return tuple(value)


def _parse_weights(data, field: str) -> dict:
    return {
        str(agent): {int(cur): float(w) for cur, w in _mapping(row, f"{field}.{agent}").items()}
        for agent, row in _mapping(data, field).items()
    }


def _dump_weights(weights: Mapping) -> dict:
    return {
        agent: {str(cur): w for cur, w in sorted(row.items())}
        for agent, row in sorted(weights.items())
    }


def load_scenario(path) -> ScenarioConfig:
    with open(path) as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return ScenarioConfig.from_dict(data)


def config_hash(config: ScenarioConfig) -> str:
    import hashlib  # costs about 3.5 ms, so only callers that hash pay it

    canonical = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def parse_regime(config: ScenarioConfig):
    tag = config.regime
    if tag == "equal_birth_grant":
        if config.grant is None or config.grant <= 0:
            raise ConfigError("equal_birth_grant requires a positive 'grant'")
        return EqualBirthGrant(config.grant)
    if tag == "egalitarian_single":
        return EgalitarianSingle(config.community if config.community is not None else 1)
    if tag == "joint_myopic":
        return JointEgalitarian(Myopic())
    if tag == "joint_defensive":
        return JointEgalitarian(Defensive())
    if tag == "joint_egocentric":
        return JointEgalitarian(Egocentric())
    if tag == "joint_random":
        return JointEgalitarian(UniformRandom())
    if tag.startswith("joint_fixed:"):
        try:
            currency = int(tag.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"joint_fixed needs a currency index, got {tag!r}") from None
        return JointEgalitarian(FixedCurrency(currency))
    raise ConfigError(
        f"unknown regime tag {tag!r}; expected one of "
        f"{', '.join(REGIME_TAGS)} or joint_fixed:<i>"
    )


# --------------------------------------------------------------------------
# validation


def _mask_weights(source: Optional[Mapping], memberships: Mapping, k: int) -> dict:
    """Resolve per-agent weight tuples against *current* memberships.

    Configured weights are masked to the agent's memberships and
    renormalized; agents without usable weights get uniform weights over
    their memberships. This keeps the zero-outside-membership invariant
    even when an agent's configured weights mention currencies it only
    joins later.
    """
    out = {}
    for agent in sorted(memberships):
        mine = sorted(memberships[agent])
        row = source.get(agent) if source else None
        weights = None
        if row:
            masked = [
                float(row.get(i, 0.0)) if i in mine else 0.0
                for i in range(1, k + 1)
            ]
            total = ordered_sum(masked)
            if total > 0.0:
                weights = [w / total for w in masked]
        if weights is None:
            weights = [0.0] * k
            for i in mine:
                weights[i - 1] = 1.0 / len(mine)
        out[agent] = tuple(weights)
    return out


def _membership_index(members_by_currency: Mapping) -> dict:
    memberships: dict = {}
    for i, agents in members_by_currency.items():
        for agent in agents:
            memberships.setdefault(agent, set()).add(i)
    return memberships


def validate_config(config: ScenarioConfig) -> list:
    """Static checks plus applicability notes; errors make a config unrunnable."""
    diags: list = []

    def err(code, msg):
        diags.append(Diagnostic("error", code, msg))

    def warn(code, msg):
        diags.append(Diagnostic("warning", code, msg))

    def info(code, msg):
        diags.append(Diagnostic("info", code, msg))

    k = config.k
    indices = [cc.index for cc in config.communities]
    if indices != list(range(1, k + 1)):
        err("communities", f"community indices must be 1..k in order, got {indices}")
        return diags
    if config.steps < 1:
        err("steps", "total steps must be at least 1")
    if config.k_eq < 1:
        err("k_eq", "equilibration interval must be at least 1")
    if config.trade_noise < 0:
        err("trade_noise", "trade noise count cannot be negative")
    if config.snapshot_interval < 0:
        err("snapshot_interval", "snapshot interval cannot be negative")
    if config.join_grant < 0:
        err("join_grant", "join grant cannot be negative")
    for cc in config.communities:
        if not cc.members:
            err("members", f"community {cc.index} has no members")
        bad = set(cc.initial_coins) - set(cc.members)
        if bad:
            err("initial_coins", f"community {cc.index}: coins for non-members {sorted(bad)}")
        negative = sorted(agent for agent, n in cc.initial_coins.items() if n < 0)
        if negative:
            err("initial_coins", f"community {cc.index}: negative coin counts for {negative}")

    try:
        regime = parse_regime(config)
    except ConfigError as exc:
        err("regime", str(exc))
        regime = None

    if isinstance(regime, EgalitarianSingle) and not 1 <= regime.community <= k:
        err("regime", f"egalitarian_single targets unknown community {regime.community}")
    fixed = None  # the joint_fixed currency, when it exists
    if isinstance(regime, JointEgalitarian) and isinstance(regime.strategy, FixedCurrency):
        fixed = regime.strategy.currency
        if not 1 <= fixed <= k:
            err("regime", f"joint_fixed targets unknown community {fixed}")
            fixed = None
    if isinstance(regime, EqualBirthGrant):
        warn(
            "bounded_minting",
            "birth-grant minting is bounded: initial endowments are never diluted, "
            "so convergence of the justice metric is not expected",
        )

    # replay the joins; what is left is every community's eventual members
    eventual = {cc.index: set(cc.members) for cc in config.communities}

    def outside_fixed() -> set:
        # the agents present now that cannot mint the fixed currency
        return set().union(*eventual.values()) - eventual[fixed] if fixed else set()

    outside = outside_fixed()
    for step in sorted(config.joins):
        if step < 1:
            err("joins", f"join scheduled at step {step}; steps start at 1")
        if step > config.steps:
            warn("joins", f"join at step {step} is beyond the run ({config.steps} steps)")
        for agent, cur in config.joins[step]:
            if cur not in eventual:
                err("joins", f"join of {agent!r} targets unknown community {cur}")
            elif agent in eventual[cur]:
                err("joins", f"{agent!r} joins community {cur} twice")
            else:
                eventual[cur].add(agent)
        if step <= config.steps:
            outside |= outside_fixed()
    if outside:
        err(
            "regime",
            f"joint_fixed:{fixed} mints only currency {fixed}, but these agents are "
            f"present without being its members: {sorted(outside)}",
        )

    rates = config.rates
    if rates.mode == "exogenous":
        if config.settlement:
            err("settlement", "settlement requires endogenous rates")
        if rates.mrs12 is not None and rates.mrs_matrix is not None:
            # the run would use the matrix and ignore the schedule
            err("rates", "set an mrs12 schedule or an mrs_matrix, not both")
        elif k == 2:
            if rates.mrs12 is None and rates.mrs_matrix is None:
                err("rates", "exogenous mode needs an mrs12 schedule or an mrs_matrix")
        elif k >= 2 and rates.mrs_matrix is None:
            err("rates", "exogenous mode with k != 2 needs a full mrs_matrix")
        schedule = rates.mrs12
        if schedule is not None:
            # a table lists its values; a constant schedule keeps start = tau = 1
            values = [v for _, v in schedule.points] or [
                schedule.value, schedule.start, schedule.tau
            ]
            at_steps = [step for step, _ in schedule.points]
            if schedule.kind not in ("constant", "exp_approach", "table"):
                err("rates", f"unknown substitution schedule kind {schedule.kind!r}")
            elif schedule.kind == "table" and (not at_steps or at_steps != sorted(set(at_steps))):
                err("rates", "a table schedule needs at least one point, one per step, in step order")
            elif min(values) <= 0:
                err("rates", "substitution schedule values, start and tau must be positive")
        if rates.mrs_matrix is not None:
            matrix = rates.mrs_matrix
            if len(matrix) != k or any(len(row) != k for row in matrix):
                err("rates", f"mrs_matrix must be {k}x{k}")
            else:
                try:
                    coin_exchange_rates(matrix, [1] * k)
                except CurrencyNetError as exc:
                    err("rates", f"invalid mrs_matrix: {exc}")
    elif rates.tol != RatesConfig().tol or rates.max_iter != RatesConfig().max_iter:
        info(
            "solver",
            "the equilibrium is solved exactly; rates.tol and rates.max_iter are ignored",
        )

    needs_prefs = rates.mode == "endogenous" or config.regime == "joint_egocentric"
    if needs_prefs and k >= 1:
        source = config.preferences or {}
        memberships = _membership_index(eventual)
        defaulted = sorted(set(memberships) - set(source))
        if defaulted:
            info(
                "preferences",
                f"agents without explicit weights get uniform weights over their "
                f"memberships: {defaulted}",
            )
        for agent, row in sorted(source.items()):
            if agent not in memberships:
                warn("preferences", f"weights given for unknown agent {agent!r}")
                continue
            total = sum(row.values())
            if any(w < 0 for w in row.values()) or abs(total - 1.0) > 1e-9:
                err("preferences", f"weights of {agent!r} must be nonnegative and sum to 1")
            outside = [i for i, w in row.items() if w > 0 and i not in memberships[agent]]
            if outside:
                err(
                    "preferences",
                    f"{agent!r} puts weight on currencies it never joins: {outside}",
                )
        if not [d for d in diags if d.level == "error"]:
            # the first equilibration sees only the initial membership
            initial_members = {cc.index: frozenset(cc.members) for cc in config.communities}
            resolved = _mask_weights(source, _membership_index(initial_members), k)
            for i in range(1, k + 1):
                total = sum(
                    resolved[agent][i - 1]
                    for agent in initial_members[i]
                    if agent in resolved
                )
                if total <= 0:
                    err(
                        "degenerate_economy",
                        f"currency {i} carries zero weight from every initial member",
                    )
            # two currencies are linked when some agent is a member of both
            ids = range(1, k + 1)
            shared = [[bool(initial_members[i] & initial_members[j]) for j in ids] for i in ids]
            if rates.mode == "endogenous" and not strongly_connected(shared):
                err(
                    "degenerate_economy",
                    "prices are indeterminate: no initial member links some currencies",
                )
            elif rates.mode == "endogenous" and k >= 2:
                # j -> i when some initial member of j puts weight on i
                valued = [
                    [
                        any(resolved[agent][i - 1] > 0 for agent in initial_members[j])
                        for i in ids
                    ]
                    for j in ids
                ]
                if not strongly_connected(valued):
                    warn(
                        "degenerate_economy",
                        "the preference weights leave the currencies uncoupled: the "
                        "initial members of some currencies value none of the others, "
                        "so the first equilibrium can be indeterminate",
                    )

    for cc in config.communities:
        if sum(cc.initial_coins.values()) == 0:
            warn(
                "empty_currency",
                f"currency {cc.index} starts without coins; rate updates are "
                f"deferred until every currency has been minted",
            )

    if k == 1 and isinstance(regime, EgalitarianSingle):
        info(
            "dilution",
            "single community with unbounded egalitarian minting and bounded "
            "membership: per-agent shares converge to the equal split",
        )
    # an ill-posed schedule has no limit to read
    schedule_ok = rates.mrs12 is not None and not [d for d in diags if d.code == "rates"]
    if k == 2 and rates.mode == "exogenous" and schedule_ok and rates.mrs_matrix is None:
        limit = rates.mrs12.limit
        v1 = eventual.get(1, set())
        v2 = eventual.get(2, set())
        if v1 and v2 and limit > 0:
            if convergence_condition(v1, v2, limit):
                if v1 & v2:
                    x = predicted_mint_fraction(v1, v2, limit)
                    info(
                        "convergence",
                        f"intersection condition holds; predicted mint fraction x = {x:.6g}",
                    )
            else:
                lower, upper = convergence_band(v1, v2)
                warn(
                    "convergence",
                    f"condition violated: substitution limit {limit} outside "
                    f"[{lower:.6g}, {upper:.6g}]; 1:1 rates are not expected",
                )
    return diags


# --------------------------------------------------------------------------
# run artifacts


class RatesEvent(NamedTuple):
    t: int
    mrs: tuple            # row tuples
    ex: tuple


class SolverEvent(NamedTuple):
    t: int
    iterations: int       # always 1: the prices are computed directly, never iterated
    residual: float       # max |M p - p|
    prices: tuple


class RunResult:
    def __init__(
        self,
        config: ScenarioConfig,
        history: History,
        diagnostics: list,
        rates_timeline: list,          # index = step t; matrix in force at t
        rates_log: list,               # RatesEvent per equilibration
        solver_log: list,              # SolverEvent per endogenous equilibration
    ):
        self.config = config
        self.history = history
        self.diagnostics = diagnostics
        self.rates_timeline = rates_timeline
        self.rates_log = rates_log
        self.solver_log = solver_log
        self._memo: dict = {}

    @property
    def ex12(self) -> Optional[list]:
        """For k = 2, the in-force rate 1->2 per step, index t - 1."""
        if self.config.k != 2:
            return None
        return [rates.ex[0][1] for rates in self.rates_timeline[1:]]

    @property
    def a_over_t(self) -> Optional[list]:
        """For k = 2, the fraction of steps 1..t whose in-force rates rank
        currency 1's coin first (the myopic rule's exact order, not the
        float test ex12 >= 1), index t - 1."""
        if self.config.k != 2:
            return None
        first = (rates.ranking[0] == 1 for rates in self.rates_timeline[1:])
        return [a / t for t, a in enumerate(accumulate(first), 1)]

    @property
    def final_network(self) -> Optional[CurrencyNetwork]:
        """The final step's snapshot, if it was retained, built anew on each read."""
        return self.history.steps[-1].network

    def mrs12_series(self) -> list:
        return [(event.t, event.mrs[0][1]) for event in self.rates_log]

    def justice_series(self) -> dict:
        """Per-agent series of the justice value, index = step (0..T).

        Computed once per history length, then shared: the report, the
        ``justice.csv`` writer and the summary all get the same dict. Treat
        it and its lists as read-only.
        """
        history = self.history
        key = ("series", history.last_step)
        series = self._memo.get(key)
        if series is None:
            rows = [values for *_, values in justice_pass(history, self.rates_timeline)]
            series = self._memo[key] = dict(zip(history.agents, map(list, zip(*rows))))
        return series

    def justice_final(self) -> dict:
        """Per-agent justice value at the final step."""
        history = self.history
        for final, balance, cashflow in history.cashflow_steps():
            pass  # run the cashflow up to the last step
        values = justice_values(
            history.key_columns(history.agents),
            final,
            balance,
            cashflow,
            weights_at(self.rates_timeline, final.t),
        )
        return dict(zip(history.agents, values))

    def member_counts(self) -> list:
        return self.history.member_counts()

    def justice_report(self) -> JusticeReport:
        """The justice report, built once per history length.

        Shared like :meth:`justice_series`: treat it as read-only.
        """
        key = ("report", self.history.last_step)
        report = self._memo.get(key)
        if report is None:
            report = self._memo[key] = build_justice_report(
                self.justice_series(),
                self.member_counts(),
                len(self.history.agents),
            )
        return report


# --------------------------------------------------------------------------
# the run loop


def initial_network(config: ScenarioConfig) -> CurrencyNetwork:
    # coin s of each currency goes to its s-th holder, agents in sorted order
    holder = {}
    communities = []
    for cc in config.communities:
        owners = [a for a in sorted(cc.initial_coins) for _ in range(cc.initial_coins[a])]
        coins = [Coin(cc.index, s) for s in range(len(owners))]
        holder.update(zip(coins, owners))
        communities.append(CurrencyCommunity(cc.index, frozenset(cc.members), frozenset(coins)))
    return CurrencyNetwork(tuple(communities), holder)


def _cyclic_gc_paused(fn):
    """Run ``fn`` with the cyclic garbage collector switched off.

    A run allocates a few container objects per step (the step record, its
    balance row array, its flow and count tuples and, at a snapshot, the
    holder tuples) and keeps them all, none of them in a reference cycle. With
    the collector on, its full passes walk that growing history again and
    again, which cost about a quarter of a long single-community run.
    Reference counting still frees everything; the collector's state is
    restored on return.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


@_cyclic_gc_paused
def run_scenario(config: ScenarioConfig) -> RunResult:
    diagnostics = validate_config(config)
    errors = [d for d in diagnostics if d.level == "error"]
    if errors:
        raise ConfigError("; ".join(f"{d.code}: {d.message}" for d in errors))
    regime = parse_regime(config)
    rng = random.Random(config.seed)
    k = config.k
    currencies = list(range(1, k + 1))
    endogenous = config.rates.mode == "endogenous"

    # the membership record is replaced, never changed, at a join, so every
    # step shares it until the next join
    members_record = {cc.index: frozenset(cc.members) for cc in config.communities}

    # the history starts from the initial network and indexes every member
    # (agent, currency) key; held[c] is the coin count of keys[c], so each
    # step records ``held`` as its balance row, and agent_of[c] is its agent
    history = History(initial_network(config))
    keys = history.keys
    key_column = history.columns
    agent_of = [a for a, _ in keys]

    def agents_of(cols):
        # itemgetter reads many columns in one call, but returns a tuple only for two or more
        return itemgetter(*cols)(agent_of) if len(cols) > 1 else tuple([agent_of[c] for c in cols])

    def index_members():
        # sorted members per currency and their key columns, every agent,
        # each agent's currencies, and the membership tuples that leave a choice
        agents = sorted(set().union(*members_record.values()))
        memberships = {a: tuple(i for i in currencies if a in members_record[i]) for a in agents}
        member_tuple = {i: tuple(sorted(who)) for i, who in members_record.items()}
        return (
            member_tuple,
            {i: tuple([key_column[(a, i)] for a in who]) for i, who in member_tuple.items()},
            agents,
            memberships,
            sorted({mine for mine in memberships.values() if len(mine) > 1}),
        )

    member_tuple, member_cols, agents, memberships, multi = index_members()

    # each coin's owner is kept once: holder[i][s] is the key column of the
    # agent holding coin s of currency i, so currency i's coins are the
    # serials 0 .. len(holder[i]) - 1. A snapshot retains the agents of
    # holder[i] per currency, the record the history starts from
    holder = {i: [] for i in currencies}
    held = [0] * len(keys)

    # endogenous runs keep the market sums exactly: sums[j - 1][i - 1] is
    # S_ij = sum_a W_ai * balance(a, j), with each weight epoch's weights
    # scaled to integers over one power of two (``scaled`` per key column),
    # so the market matrix is M_ij = S_ij / (D c_j) in any order of agents
    sums: Optional[list] = None
    columns = range(k)

    def book(col, i, sign):
        # one coin of currency i more (sign 1) or less (-1) held by key column col
        column = sums[i - 1]
        row = scaled[col]
        for x in columns:
            column[x] += sign * row[x]

    def mint_plan(mints):
        # one coin per (agent, currency) pair: each coin's key column, each
        # currency's minters' columns in mint order (so they take the serials
        # one append per coin would) and, with market sums, each sums increment
        cols = tuple(map(key_column.__getitem__, mints))
        minters = {i: [] for i in currencies}
        for (_, i), c in zip(mints, cols):
            minters[i].append(c)
        delta = None
        if sums is not None:
            delta = [[sum(scaled[c][x] for c in who) for x in columns] for who in minters.values()]
        return cols, minters, delta

    def mint(plan):
        # the one place coins are created; returns the key column of each coin
        cols, minters, delta = plan
        for i, who in minters.items():
            holder[i] += who
        for c in cols:
            held[c] += 1
        for column, more in zip(sums, delta) if delta else ():
            for x in columns:
                column[x] += more[x]
        return cols

    mint(mint_plan([(a, i) for i, who in enumerate(history.steps[0].holders, 1) for a in who]))

    strategy = regime.strategy if isinstance(regime, JointEgalitarian) else None
    is_myopic = isinstance(strategy, Myopic)
    # only these strategies read the balance map of a plan miss
    reads_balances = isinstance(strategy, (Defensive, Egocentric))
    # coins for each joiner: the birth grant, or under any other regime the join grant
    grant = regime.coins if isinstance(regime, EqualBirthGrant) else config.join_grant
    single = regime.community if isinstance(regime, EgalitarianSingle) else None
    # myopic and single-community runs reuse the plan of each choice vector
    # (one choice per tuple of ``multi``) until a join or a new weight epoch
    cached = is_myopic or single is not None
    plans: dict = {}

    # the weights change at a join and, when initial weights are given, at
    # t_fix; only the solver and the strategies behind the dispatch read them
    raw_pre = config.preferences_initial
    t_fix = config.t_fix if raw_pre is not None else 0
    track_sums = endogenous and k >= 2
    settles = config.settlement and endogenous
    reads_weights = track_sums or (strategy is not None and not is_myopic)
    membership_epoch = 0
    epoch = None
    weight_rows: Mapping = NO_ENTRIES

    rates = ExchangeRateMatrix.ones(k)
    rates_timeline = [rates]
    # the myopic choice per membership tuple under the rates in force, which
    # keys the cached plans
    myopic_choice: dict = {}
    rates_log: list = []
    solver_log: list = []

    exo_matrix = config.rates.mrs_matrix
    if exo_matrix is not None:
        exo_matrix = tuple(tuple(float(x) for x in row) for row in exo_matrix)

    snapshot_interval = config.snapshot_interval

    def move(i, serial, payer, payee):
        # moved is the current step's: each moved coin's holder column before its first move
        moved.setdefault((i, serial), payer)
        holder[i][serial] = payee
        held[payer] -= 1
        held[payee] += 1
        if sums is not None:
            book(payer, i, -1)
            book(payee, i, 1)

    for t in range(1, config.steps + 1):
        in_force = rates
        if t in config.joins:
            members_record = dict(members_record)
            for agent, cur in config.joins[t]:
                members_record[cur] = members_record[cur] | {agent}
            new = history.extend_index(members_record)
            held += [0] * len(new)
            agent_of += [a for a, _ in new]
            member_tuple, member_cols, agents, memberships, multi = index_members()
            membership_epoch += 1
            plans = {}
        if reads_weights and (membership_epoch, t < t_fix) != epoch:
            epoch = (membership_epoch, t < t_fix)
            weight_rows = _mask_weights(
                raw_pre if t < t_fix else config.preferences, memberships, k
            )
            if track_sums:
                # rebuild the sums, so a joining agent has its scaled
                # weights before its first coin
                flat, denominator = dyadic_integers(
                    [w for a in agents for w in weight_rows[a]]
                )
                rows = {a: flat[n * k:(n + 1) * k] for n, a in enumerate(agents)}
                scaled = [rows[a] for a, _ in keys]
                plans = {}
                sums = [[0] * k for _ in currencies]
                for (_, j), n, row in zip(keys, held, scaled):
                    if n:
                        column = sums[j - 1]
                        for x, w in enumerate(row):
                            column[x] += w * n
                unvalued = [
                    i for i in currencies if not any(row[i - 1] for row in rows.values())
                ]
            if settles:
                # per currency, each agent's column into held (the trailing
                # zero column for a key never indexed) and its weight
                settle_cols = history.key_columns(agents)
                settle_weights = list(zip(*map(weight_rows.__getitem__, agents)))

        start_len = {i: len(coins) for i, coins in holder.items()}
        moved: dict = {}

        # -- minting: one plan per step; a cached plan is kept per choice vector
        grants = [key for key in sorted(config.joins.get(t, ())) for _ in range(grant)]
        for mine in multi if is_myopic else ():
            if mine not in myopic_choice:
                myopic_choice[mine] = most_valued_coin(in_force, mine)
        vector = tuple(map(myopic_choice.get, multi)) if cached and not grants else None
        plan = plans.get(vector)
        if plan is None:
            # this step's (agent, currency) pairs, one per coin
            mints = [(agent, single) for agent in member_tuple[single]] if single else []
            if strategy is not None:
                balances = dict(zip(keys, held)) if reads_balances else NO_ENTRIES
                for agent, mine in memberships.items():
                    choice = choose_mint_currency(
                        strategy, agent, mine, balances,
                        rates=in_force, weights=weight_rows.get(agent), rng=rng,
                    )
                    mints.append((agent, choice))
            plan = mint_plan(mints + grants)
            if vector is not None:
                plans[vector] = plan
        minted = mint(plan)

        # -- random trade noise (old coins only) ---------------------------
        if config.trade_noise:
            candidates = [
                (i, holder[i], start_len[i], member_cols[i], len(member_cols[i]))
                for i in currencies if start_len[i] > 0
            ]
            if candidates:
                rnd = rng.random
                n_candidates = len(candidates)
                for _ in range(config.trade_noise):
                    i, coins, n_old, group, size = candidates[0] if n_candidates == 1 else (
                        candidates[int(rnd() * n_candidates)]
                    )
                    serial = int(rnd() * n_old)
                    payer = coins[serial]
                    payee = group[int(rnd() * size)]
                    if payer != payee:
                        move(i, serial, payer, payee)

        # -- equilibration --------------------------------------------------
        counts_now = [len(holder[i]) for i in currencies]
        if k >= 2 and t % config.k_eq == 0 and min(counts_now) > 0:
            if endogenous:
                if unvalued:
                    raise DegenerateEconomyError(
                        f"step {t}: currencies valued by no agent: {unvalued}"
                    )
                scale = [denominator * c for c in counts_now]
                market = [[sums[j][x] / scale[j] for j in columns] for x in columns]
                values = coin_values_from_market_sums(sums)
                # for k >= 3 the prices are w_r / sum(w) with w_r = c_r T_r
                price_weights = (
                    None if k == 2 else [c * v for c, v in zip(counts_now, values)]
                )
                try:
                    prices, residual = solve_equilibrium(market, price_weights)
                except CurrencyNetError as exc:
                    raise type(exc)(f"step {t}: {exc}") from None
                if price_weights is None:
                    mrs = mrs_matrix(prices)
                else:  # mrs_ij = w_i / w_j, one division of two integers each
                    mrs = tuple([tuple([w / x for x in price_weights]) for w in price_weights])
                solver_log.append(SolverEvent(t, 1, residual, prices))
            else:
                if exo_matrix is None:
                    m = float(config.rates.mrs12.at(t))
                    mrs = ((1.0, m), (1.0 / m, 1.0))
                else:
                    mrs = exo_matrix
                values = coin_values_from_mrs(mrs, counts_now)
            rates = ExchangeRateMatrix.from_values(values)
            myopic_choice = {}
            rates_log.append(RatesEvent(t, mrs, rates.ex))
            if settles:
                # have[col][n]: the coins of currency col + 1 that agents[n] holds
                padded = held + [0]
                have = [list(map(padded.__getitem__, cols)) for cols in settle_cols]
                shares = demand_columns(have, counts_now, settle_weights, prices)
                for i, mine, share, coins in zip(currencies, have, shares, counts_now):
                    targets = largest_remainder_targets(share, coins)
                    if targets == mine:
                        continue  # nothing to move: no scan of the holders
                    # the agents' columns label them, so the moves name columns
                    for serial, donor, recipient in settlement_moves(
                        settle_cols[i - 1], mine, targets, holder[i]
                    ):
                        move(i, serial, donor, recipient)

        # -- record: each flow as key columns, one per coin ----------------
        revenue = []
        expenses = []
        fresh_moved = False
        for (i, serial), origin in moved.items():
            final = holder[i][serial]
            if final != origin:
                if serial < start_len[i]:
                    expenses.append(origin)
                    revenue.append(final)
                else:
                    fresh_moved = True
        # fresh coins are income to their holders: their minters, unless
        # settlement moved one
        income = minted
        if fresh_moved:
            income = [c for i in currencies for c in holder[i][start_len[i]:]]

        retain = (snapshot_interval > 0 and t % snapshot_interval == 0) or (
            t == config.steps and config.final_snapshot
        )
        history.append_step(
            HistoryStep(
                t,
                members_record,
                tuple(counts_now),
                held,
                minted,
                income,
                revenue,
                expenses,
                tuple(map(agents_of, holder.values())) if retain else None,
            )
        )
        rates_timeline.append(in_force)

    return RunResult(
        config=config,
        history=history,
        diagnostics=diagnostics,
        rates_timeline=rates_timeline,
        rates_log=rates_log,
        solver_log=solver_log,
    )
