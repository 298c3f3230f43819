"""Agents, coins, communities and the payment transition semantics.

Networks are immutable values: every operation returns a new network and
never touches its input, so completed states can be shared freely. Agent
ids are ordered strings; coins are (currency, serial) pairs whose serials
are never reused. All "arbitrary" choices resolve to the minimum under
these orders so that runs are reproducible.
"""
from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping, NamedTuple, Optional

from .errors import (
    BrokenChainError,
    NotHolderError,
    NotMemberError,
    UnknownAgentError,
)


class Coin(NamedTuple):
    """A single indivisible coin, identified by (currency, serial)."""

    currency: int
    serial: int

    def token(self) -> str:
        return f"{self.currency}:{self.serial}"

    @classmethod
    def from_token(cls, token: str) -> "Coin":
        currency, _, serial = token.partition(":")
        return cls(int(currency), int(serial))


class _CommunityFields(NamedTuple):
    index: int
    members: frozenset
    coins: frozenset


class CurrencyCommunity(_CommunityFields):
    """One currency: its member agents, its coin set."""

    __slots__ = ()

    def __new__(cls, index: int, members: frozenset, coins: frozenset):
        if not members:
            raise ValueError(f"community {index} must have at least one member")
        for coin in coins:
            if coin.currency != index:
                raise ValueError(
                    f"coin {coin.token()} does not belong to currency {index}"
                )
        return super().__new__(cls, index, members, coins)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # so that _replace validates too


class _NetworkFields(NamedTuple):
    communities: tuple
    holder: Mapping


class CurrencyNetwork(_NetworkFields):
    """k communities with disjoint coin sets plus the global holder map.

    Communities must be indexed 1..k in order. Disjointness is structural:
    a coin's currency is part of its identity, and each community only
    accepts coins of its own currency.
    """

    __slots__ = ()

    def __new__(cls, communities: tuple, holder: Mapping):
        indices = [c.index for c in communities]
        if indices != list(range(1, len(indices) + 1)):
            raise ValueError("communities must be indexed 1..k in order")
        holder = dict(holder)
        all_coins = set()
        for community in communities:
            all_coins.update(community.coins)
        if all_coins != set(holder):
            raise ValueError("holder map must cover exactly the network's coins")
        for coin, agent in holder.items():
            if agent not in communities[coin.currency - 1].members:
                raise ValueError(
                    f"holder {agent!r} of coin {coin.token()} is outside community {coin.currency}"
                )
        return super().__new__(cls, communities, holder)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # so that _replace validates too

    @property
    def k(self) -> int:
        return len(self.communities)

    @property
    def currencies(self) -> range:
        return range(1, len(self.communities) + 1)

    @property
    def agents(self) -> tuple:
        out = set()
        for community in self.communities:
            out.update(community.members)
        return tuple(sorted(out))

    def community(self, i: int) -> CurrencyCommunity:
        if not 1 <= i <= len(self.communities):
            raise ValueError(f"no currency with index {i}")
        return self.communities[i - 1]

    def members(self, i: int) -> frozenset:
        return self.community(i).members

    def coin_count(self, i: int) -> int:
        return len(self.community(i).coins)

    def next_serial(self, i: int) -> int:
        coins = self.community(i).coins
        return max((c.serial for c in coins), default=-1) + 1

    def with_holder(self, coin: Coin, agent: str) -> "CurrencyNetwork":
        new_holder = dict(self.holder)
        new_holder[coin] = agent
        return CurrencyNetwork(self.communities, new_holder)

    def with_coins(self, additions: Mapping) -> "CurrencyNetwork":
        """Return a network extended with freshly minted coins.

        ``additions`` maps Coin -> holding agent; every coin must be new.
        """
        by_currency: dict = {}
        for coin in additions:
            by_currency.setdefault(coin.currency, set()).add(coin)
        new_communities = []
        for community in self.communities:
            extra = by_currency.get(community.index)
            if extra:
                if extra & community.coins:
                    raise ValueError("coin serials must be fresh")
                community = CurrencyCommunity(
                    community.index, community.members, community.coins | extra
                )
            new_communities.append(community)
        new_holder = dict(self.holder)
        new_holder.update(additions)
        return CurrencyNetwork(tuple(new_communities), new_holder)

    def with_member(self, agent: str, i: int) -> "CurrencyNetwork":
        new_communities = list(self.communities)
        community = self.community(i)
        new_communities[i - 1] = CurrencyCommunity(
            i, community.members | {agent}, community.coins
        )
        return CurrencyNetwork(tuple(new_communities), self.holder)


def pay(network: CurrencyNetwork, coin: Coin, payer: str, payee: str) -> CurrencyNetwork:
    """Transfer one coin from payer to payee within the coin's community."""
    if network.holder.get(coin) != payer:
        raise NotHolderError(f"{payer!r} does not hold coin {coin.token()}")
    if payee not in network.community(coin.currency).members:
        raise NotMemberError(
            f"{payee!r} is not a member of community {coin.currency}"
        )
    if payer == payee:
        return network
    return network.with_holder(coin, payee)


def reverse(network: CurrencyNetwork, coin: Coin, payer: str, payee: str) -> CurrencyNetwork:
    """Undo a payment by paying the coin back; same semantics as :func:`pay`."""
    return pay(network, coin, payer, payee)


def chain_pay(network: CurrencyNetwork, hops: Iterable) -> CurrencyNetwork:
    """Apply a chain payment: a path of direct payments, atomically.

    Each hop is ``(coin, payer, payee)`` and the payee of one hop must be the
    payer of the next. A different coin may move at every hop. The input
    network is unchanged on failure.
    """
    hops = list(hops)
    for j in range(len(hops) - 1):
        if hops[j][2] != hops[j + 1][1]:
            raise BrokenChainError(
                f"hop {j} pays {hops[j][2]!r} but hop {j + 1} is made by {hops[j + 1][1]!r}"
            )
    current = network
    for j, (coin, payer, payee) in enumerate(hops):
        try:
            current = pay(current, coin, payer, payee)
        except (NotHolderError, NotMemberError) as exc:
            raise type(exc)(f"hop {j}: {exc}") from None
    return current


def find_payment_path(network: CurrencyNetwork, u: str, v: str) -> Optional[list]:
    """Plan a shortest chain payment from u to v, or None if none exists.

    Breadth-first over agents; neighbors are explored in agent order and the
    coin for each hop is the minimum coin the payer holds that the next agent
    can accept. Returns a hop list usable by :func:`chain_pay`; an empty list
    means u == v.
    """
    agents = set(network.agents)
    if u not in agents or v not in agents:
        raise UnknownAgentError(f"unknown agent in path query: {u!r} -> {v!r}")
    if u == v:
        return []

    held: dict = {}
    for coin, holder in network.holder.items():
        held.setdefault(holder, []).append(coin)

    def neighbors(agent):
        out = set()
        for coin in held.get(agent, ()):
            out.update(network.community(coin.currency).members)
        out.discard(agent)
        return sorted(out)

    parent = {u: None}
    queue = deque([u])
    while queue:
        current = queue.popleft()
        for nxt in neighbors(current):
            if nxt in parent:
                continue
            parent[nxt] = current
            if nxt == v:
                queue.clear()
                break
            queue.append(nxt)
        if v in parent:
            break
    if v not in parent:
        return None

    path = [v]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()

    hops = []
    for payer, payee in zip(path, path[1:]):
        acceptable = [
            coin
            for coin in held.get(payer, ())
            if payee in network.community(coin.currency).members
        ]
        hops.append((min(acceptable), payer, payee))
    return hops


def holdings(network: CurrencyNetwork, v: str, i: int) -> frozenset:
    """Coins of currency i currently held by agent v."""
    if v not in set(network.agents):
        raise UnknownAgentError(f"unknown agent {v!r}")
    return frozenset(
        coin for coin in network.community(i).coins if network.holder[coin] == v
    )


# --- serialization ---------------------------------------------------------

def network_to_dict(network: CurrencyNetwork) -> dict:
    return {
        "communities": [
            {
                "index": community.index,
                "members": sorted(community.members),
                "coins": sorted(coin.token() for coin in community.coins),
            }
            for community in network.communities
        ],
        "holder": {
            coin.token(): agent for coin, agent in sorted(network.holder.items())
        },
    }


def network_from_dict(data: Mapping) -> CurrencyNetwork:
    communities = tuple(
        CurrencyCommunity(
            index=entry["index"],
            members=frozenset(entry["members"]),
            coins=frozenset(Coin.from_token(token) for token in entry["coins"]),
        )
        for entry in sorted(data["communities"], key=lambda e: e["index"])
    )
    holder = {Coin.from_token(token): agent for token, agent in data["holder"].items()}
    return CurrencyNetwork(communities, holder)
