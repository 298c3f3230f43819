"""Minting regimes and per-agent currency choice strategies.

Regimes say who mints how many coins at a step; strategies say, for joint
regimes where each agent mints exactly one coin, in *which* of its
currencies. Ties always break toward the minimum currency index.
"""
from __future__ import annotations

import random
from typing import Iterable, Mapping, Optional, Sequence, Union

from .economy import ExchangeRateMatrix, PreferenceProfile
from .errors import InvalidRatesError, NotMemberError
from .ledger import Coin, CurrencyNetwork


class _Rule:
    """An immutable regime or strategy, equal only to the same class with equal fields.

    Subclasses name their fields in ``__slots__`` and set them in ``__init__``.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash((type(self), self._values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Myopic(_Rule):
    """Mint the currency whose coin is currently most valuable."""

    __slots__ = ()


class Defensive(_Rule):
    """Mint the currency the agent currently holds the least of."""

    __slots__ = ()


class Egocentric(_Rule):
    """Mint the currency with the highest marginal utility for the agent."""

    __slots__ = ()


class FixedCurrency(_Rule):
    __slots__ = ("currency",)

    def __init__(self, currency: int):
        object.__setattr__(self, "currency", currency)


class UniformRandom(_Rule):
    __slots__ = ()


Strategy = Union[Myopic, Defensive, Egocentric, FixedCurrency, UniformRandom]


class EqualBirthGrant(_Rule):
    """Each agent mints a fixed number of coins once, when it joins."""

    __slots__ = ("coins",)

    def __init__(self, coins: int):
        if coins <= 0:
            raise ValueError("birth grant must be positive")
        object.__setattr__(self, "coins", coins)


class EgalitarianSingle(_Rule):
    """Every member of one community mints one coin per step."""

    __slots__ = ("community",)

    def __init__(self, community: int):
        object.__setattr__(self, "community", community)


class JointEgalitarian(_Rule):
    """Every agent mints exactly one coin per step, in one of its currencies."""

    __slots__ = ("strategy",)

    def __init__(self, strategy: Strategy):
        object.__setattr__(self, "strategy", strategy)


MintingRegime = Union[EqualBirthGrant, EgalitarianSingle, JointEgalitarian]


def most_valued_coin(rates: ExchangeRateMatrix, memberships: Iterable) -> int:
    """Currency among ``memberships`` whose coin has the highest exchange value.

    The first member currency in ``rates.ranking`` wins, so ties go to the
    minimum currency index.
    """
    candidates = sorted(memberships)
    if not candidates:
        raise ValueError("agent has no community to mint in")
    if candidates[-1] > rates.k or candidates[0] < 1:
        raise InvalidRatesError(
            f"membership {candidates} outside the {rates.k}-currency rate matrix"
        )
    for i in rates.ranking:
        if i in candidates:
            return i


def egocentric_choice(
    weights: Sequence[float], balances: Mapping, memberships: Iterable
) -> int:
    """Currency maximizing the marginal utility of one extra coin.

    ``balances`` maps currency to the coins the agent holds. For
    Cobb-Douglas weights over diluted balances the gain of one more coin of
    currency i is weight_i / balance_i (the coin count cancels). An empty
    holding with positive weight has unbounded gain and wins outright, a
    zero weight gains nothing, and ties go to the minimum index.
    """
    candidates = sorted(memberships)
    if not candidates:
        raise ValueError("agent has no community to mint in")
    best = None
    best_gain = -1.0
    for i in candidates:
        w = weights[i - 1]
        held = balances.get(i, 0)
        if w <= 0.0:
            gain = 0.0
        elif held <= 0:
            gain = float("inf")
        else:
            gain = w / held
        if gain > best_gain:
            best, best_gain = i, gain
    return best


def choose_mint_currency(
    strategy: Strategy,
    agent: str,
    memberships: Sequence[int],
    balances: Mapping,
    *,
    rates: Optional[ExchangeRateMatrix] = None,
    weights: Optional[Sequence[float]] = None,
    rng: Optional[random.Random] = None,
) -> int:
    """The currency ``agent`` mints its one coin in under a joint regime.

    ``memberships`` lists the agent's currencies in increasing order and
    ``balances`` maps (agent, currency) to the coins held (a missing key
    holds none). An agent of one currency mints there, unless a fixed
    currency names another one. ``rates`` serves the myopic strategy,
    ``weights`` (the agent's row) the egocentric one, and ``rng`` the
    random one, with one draw per agent of several currencies.
    """
    if isinstance(strategy, FixedCurrency):
        if strategy.currency not in memberships:
            raise NotMemberError(
                f"{agent!r} cannot mint currency {strategy.currency}: not a member"
            )
        return strategy.currency
    if len(memberships) == 1:
        return memberships[0]
    if isinstance(strategy, Myopic):
        return most_valued_coin(rates, memberships)
    if isinstance(strategy, UniformRandom):
        return memberships[rng.randrange(len(memberships))]
    if isinstance(strategy, Defensive):  # the smallest holding
        return min(memberships, key=lambda i: (balances.get((agent, i), 0), i))
    if isinstance(strategy, Egocentric):
        held = {i: balances.get((agent, i), 0) for i in memberships}
        return egocentric_choice(weights, held, memberships)
    raise TypeError(f"unknown strategy {strategy!r}")


def mint_step(
    network: CurrencyNetwork,
    regime: MintingRegime,
    *,
    rates: Optional[ExchangeRateMatrix] = None,
    prefs: Optional[PreferenceProfile] = None,
    rng: Optional[random.Random] = None,
    joiners: Iterable = (),
):
    """Mint one step's coins and return (new network, minted record).

    ``joiners`` lists the (agent, currency) pairs admitted this step; only
    the birth-grant regime mints for them. The minted record maps
    (agent, currency) to the number of coins that agent created.
    """
    serials = {i: network.next_serial(i) for i in network.currencies}
    minted: dict = {}
    additions: dict = {}

    def mint(agent, i, n=1):
        for _ in range(n):
            additions[Coin(i, serials[i])] = agent
            serials[i] += 1
        key = (agent, i)
        minted[key] = minted.get(key, 0) + n

    if isinstance(regime, EqualBirthGrant):
        for agent, i in sorted(joiners):
            mint(agent, i, regime.coins)
    elif isinstance(regime, EgalitarianSingle):
        for agent in sorted(network.members(regime.community)):
            mint(agent, regime.community)
    elif isinstance(regime, JointEgalitarian):
        memberships = {agent: [] for agent in network.agents}
        for i in network.currencies:
            for agent in network.members(i):
                memberships[agent].append(i)
        balances: dict = {}
        for coin, agent in network.holder.items():
            key = (agent, coin.currency)
            balances[key] = balances.get(key, 0) + 1
        for agent in network.agents:
            choice = choose_mint_currency(
                regime.strategy,
                agent,
                memberships[agent],
                balances,
                rates=rates,
                weights=prefs.weights.get(agent) if prefs is not None else None,
                rng=rng,
            )
            mint(agent, choice)
    else:
        raise TypeError(f"unknown minting regime {regime!r}")

    return network.with_coins(additions), minted
