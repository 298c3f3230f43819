from collections import Counter

import hypothesis.strategies as st
from hypothesis import settings

from currencynet.errors import DegenerateEconomyError
from currencynet.ledger import Coin, CurrencyCommunity, CurrencyNetwork

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


def make_network(spec):
    """Build a network from {index: (members, {agent: coin_count})}."""
    communities = []
    holder = {}
    for index in sorted(spec):
        members, counts = spec[index]
        serial = 0
        coins = set()
        for agent in sorted(counts):
            for _ in range(counts[agent]):
                coin = Coin(index, serial)
                serial += 1
                coins.add(coin)
                holder[coin] = agent
        communities.append(
            CurrencyCommunity(index, frozenset(members), frozenset(coins))
        )
    return CurrencyNetwork(tuple(communities), holder)


def tally(history, cols) -> Counter:
    """(agent, currency) -> how often ``cols``, a step's key columns, name that key."""
    return Counter(map(history.keys.__getitem__, cols))


def elimination_prices(market) -> list:
    """p with (M - I) p = 0 and sum(p) = 1, by Gaussian elimination with partial pivoting.

    The float solve the economy's prices are held to: ``general_path``'s
    oracle for k = 2, and the float route the exact ranking must overrule.
    The last equation is replaced by sum(p) = 1. Raises
    DegenerateEconomyError when a pivot is exactly zero.
    """
    k = len(market)
    # the diagonal of M - I is minus each column's off-diagonal mass, which
    # equals M_ii - 1 for a column-stochastic M but avoids its cancellation
    system = [list(row) for row in market]
    for j in range(k):
        mass = 0.0
        for i in range(k):
            if i != j:
                mass += market[i][j]
        system[j][j] = -mass
    system[-1] = [1.0] * k
    rhs = [0.0] * (k - 1) + [1.0]
    for col in range(k):
        pivot = max(range(col, k), key=lambda row: abs(system[row][col]))
        if system[pivot][col] == 0.0:
            raise DegenerateEconomyError("prices are indeterminate: the system is singular")
        if pivot != col:
            system[col], system[pivot] = system[pivot], system[col]
            rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        top = system[col]
        for row in range(col + 1, k):
            lower = system[row]
            factor = lower[col] / top[col]
            for j in range(col + 1, k):
                lower[j] -= factor * top[j]
            rhs[row] -= factor * rhs[col]
    x = [0.0] * k
    for row in range(k - 1, -1, -1):
        coeffs = system[row]
        acc = rhs[row]
        for j in range(row + 1, k):
            acc -= coeffs[j] * x[j]
        x[row] = acc / coeffs[row]
    return x


AGENT_POOL = ["a", "b", "c", "d", "e", "f", "g"]


@st.composite
def networks(draw, max_k=3, max_agents=6, max_coins=5):
    k = draw(st.integers(1, max_k))
    agents = draw(
        st.lists(st.sampled_from(AGENT_POOL[:max_agents]), min_size=1, unique=True)
    )
    spec = {}
    for i in range(1, k + 1):
        members = draw(
            st.lists(st.sampled_from(agents), min_size=1, unique=True)
        )
        counts = {}
        for agent in members:
            n = draw(st.integers(0, max_coins))
            if n:
                counts[agent] = n
        spec[i] = (members, counts)
    return make_network(spec)


@st.composite
def networks_with_payment(draw):
    """A network plus one valid (coin, payer, payee) triple."""
    network = draw(networks())
    coined = [i for i in network.currencies if network.coin_count(i) > 0]
    if not coined:
        spec_member = sorted(network.members(1))[0]
        coin = Coin(1, 0)
        network = network.with_coins({coin: spec_member})
        coined = [1]
    i = draw(st.sampled_from(coined))
    coin = draw(st.sampled_from(sorted(network.community(i).coins)))
    payer = network.holder[coin]
    payee = draw(st.sampled_from(sorted(network.members(i))))
    return network, coin, payer, payee
