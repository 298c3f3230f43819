"""Person-to-agent ownership and sybil analysis.

Agents are operated by people; one person running several agents, or one
agent shared by several people, breaks the one-person-one-share reading of
the justice metrics. Classification is exact and purely structural; the
locality report measures empirically how such violations stay confined to
the communities that harbour them.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

from .accounting import History
from .economy import ExchangeRateMatrix, fractional_equity
from .errors import UnknownAgentError, UnknownPersonError
from .justice import justice_pass, justice_values
from .ledger import CurrencyCommunity, CurrencyNetwork


class _OwnershipFields(NamedTuple):
    pairs: frozenset  # (person, agent)


class OwnershipMap(_OwnershipFields):
    # no __slots__: the two indexes live in the instance dict
    def __new__(cls, pairs: frozenset):
        self = super().__new__(cls, pairs)
        self._owners = _index(pairs, key=1, value=0)
        self._agents = _index(pairs, key=0, value=1)
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # so that _replace builds the indexes too

    @classmethod
    def from_pairs(cls, pairs) -> "OwnershipMap":
        return cls(frozenset((str(p), str(a)) for p, a in pairs))

    @property
    def persons(self) -> tuple:
        return tuple(sorted(self._agents))

    @property
    def agents(self) -> tuple:
        return tuple(sorted(self._owners))

    def owners_of(self, agent: str) -> frozenset:
        try:
            return self._owners[agent]
        except KeyError:
            raise UnknownAgentError(f"agent {agent!r} has no recorded owner") from None

    def agents_of(self, person: str) -> frozenset:
        try:
            return self._agents[person]
        except KeyError:
            raise UnknownPersonError(f"unknown person {person!r}") from None


def _index(pairs, key, value):
    out: dict = {}
    for pair in pairs:
        out.setdefault(pair[key], set()).add(pair[value])
    return {k: frozenset(v) for k, v in out.items()}


class AgentClassification(NamedTuple):
    unique: bool    # exactly one owner
    singular: bool  # its owner(s) operate no other agent
    genuine: bool   # unique and singular


def classify(ownership: OwnershipMap, v: str) -> AgentClassification:
    owners = ownership.owners_of(v)
    unique = len(owners) == 1
    singular = all(len(ownership.agents_of(p)) == 1 for p in owners)
    return AgentClassification(unique, singular, unique and singular)


def genuine_community(ownership: OwnershipMap, community) -> bool:
    """Whether every member is uniquely owned and no owner doubles up inside.

    Singularity is judged within the community: an owner operating agents in
    *other* communities does not disqualify this one (that case is handled at
    the subnet level), but two agents of the same owner inside this community
    do.
    """
    members = community.members if isinstance(community, CurrencyCommunity) else frozenset(community)
    seen_owners: set = set()
    for agent in members:
        owners = ownership.owners_of(agent)
        if len(owners) != 1:
            return False
        (owner,) = owners
        if owner in seen_owners:
            return False
        inside = ownership.agents_of(owner) & members
        if len(inside) != 1:
            return False
        seen_owners.add(owner)
    return True


def genuine_subnet(ownership: OwnershipMap, network: CurrencyNetwork) -> tuple:
    """Largest deterministic set of communities free of ownership violations.

    Communities are admitted in index order when all their members are
    genuine within the community and no person would own agents in two
    admitted communities. Keeping index order means the minimum-index
    community survives a cross-community conflict.
    """
    kept: list = []
    owners_used: dict = {}  # person -> community index that claimed them
    for i in network.currencies:
        community = network.community(i)
        if not genuine_community(ownership, community):
            continue
        owners = {next(iter(ownership.owners_of(a))) for a in community.members}
        conflict = False
        for owner in owners:
            claimed = owners_used.get(owner)
            if claimed is not None and not (
                ownership.agents_of(owner) & community.members
                == ownership.agents_of(owner) & network.community(claimed).members
            ):
                conflict = True
                break
        if conflict:
            continue
        for owner in owners:
            owners_used.setdefault(owner, i)
        kept.append(i)
    return tuple(kept)


def owner_equity(
    network: CurrencyNetwork,
    ex: ExchangeRateMatrix,
    ownership: OwnershipMap,
    person: str,
) -> float:
    """Total network-value fraction attributed to one person.

    A co-owned agent's equity is split equally among its owners.
    """
    total = 0.0
    for agent in ownership.agents_of(person):
        share = fractional_equity(network, ex, agent)
        total += share / len(ownership.owners_of(agent))
    return total


class SybilLocalityReport:
    """Per-owner value shares over a run, network-wide and per currency.

    ``network_share`` holds for every person the time series of its agents'
    combined (balance - cashflow) value share; ``currency_share_final`` the
    final shares restricted to each single currency. Genuine communities'
    owners should equalize; a duplicate owner's share should scale with the
    number of agents it operates, inside the community that harbours them.
    """

    def __init__(
        self,
        owners: tuple,
        genuine: dict,                 # community index -> bool
        network_share: dict,           # person -> list of values per step
        currency_share_final: dict,    # person -> {currency: final share}
    ):
        self.owners = owners
        self.genuine = genuine
        self.network_share = network_share
        self.currency_share_final = currency_share_final

    def final_network_share(self, person: str) -> float:
        return self.network_share[person][-1]


def sybil_locality_report(
    history: History,
    ownership: OwnershipMap,
    rates_by_step: Sequence[ExchangeRateMatrix],
) -> SybilLocalityReport:
    """Track per-owner shares over a history.

    ``rates_by_step`` supplies the exchange rates in force at each step
    (index = step; index 0 is the bootstrap matrix), as
    :func:`justice.justice_pass` reads them.
    """
    agents = history.agents
    persons = sorted({p for a in agents for p in ownership.owners_of(a)})
    split = {
        a: [(p, 1.0 / len(ownership.owners_of(a))) for p in sorted(ownership.owners_of(a))]
        for a in agents
    }
    currencies = list(history.currencies)
    shares = {p: [] for p in persons}

    def owned(values) -> dict:
        # each person's part of the agents' values, co-owners splitting equally
        total = dict.fromkeys(persons, 0.0)
        for a, value in zip(agents, values):
            for person, weight in split[a]:
                total[person] += value * weight
        return total

    for final, balance, cashflow, values in justice_pass(history, rates_by_step):
        values = owned(values)
        for person in persons:
            shares[person].append(values[person])

    # one currency's share is the justice value with only that coin valued
    columns = history.key_columns(agents)
    per_currency = {
        i: owned(
            justice_values(
                columns, final, balance, cashflow, [float(j == i) for j in currencies]
            )
        )
        for i in currencies
    }
    currency_share_final = {
        person: {i: per_currency[i][person] for i in currencies} for person in persons
    }

    genuine = {}
    for i in currencies:
        genuine[i] = genuine_community(ownership, history.members_at(history.last_step, i))

    return SybilLocalityReport(
        owners=tuple(persons),
        genuine=genuine,
        network_share=shares,
        currency_share_final=currency_share_final,
    )
