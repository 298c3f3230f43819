"""The record classes: immutable, compared by value, and built without code generation.

Configs, events and results are NamedTuples; the regime and strategy classes
are plain classes equal only to the same class with equal fields; the
validated values keep their construction checks, also under ``_replace``.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from currencynet import scenarios
from currencynet.economy import ExchangeRateMatrix, PreferenceProfile
from currencynet.engine import (
    CommunityConfig,
    Diagnostic,
    MrsSchedule,
    RatesConfig,
    RatesEvent,
    ScenarioConfig,
    SolverEvent,
)
from currencynet.identity import OwnershipMap
from currencynet.ledger import Coin, CurrencyCommunity, CurrencyNetwork
from currencynet.minting import (
    Defensive,
    EgalitarianSingle,
    Egocentric,
    EqualBirthGrant,
    FixedCurrency,
    JointEgalitarian,
    Myopic,
    UniformRandom,
)

ROOT = Path(__file__).resolve().parents[1]


def bare_config(**overrides):
    """A config that leaves every defaulted field at its default."""
    fields = dict(
        communities=(CommunityConfig(1, ("a", "b")), CommunityConfig(2, ("b", "c"))),
        steps=5,
        seed=1,
        regime="joint_myopic",
    )
    fields.update(overrides)
    return ScenarioConfig(**fields)


def test_package_import_generates_no_record_code():
    script = (
        "import sys\n"
        "import currencynet, currencynet.outputs, currencynet.scenarios, currencynet.cli\n"
        "print(sorted(m for m in ('dataclasses', 'platform') if m in sys.modules))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[0] == "[]"


@pytest.mark.parametrize(
    "record, name",
    [
        (bare_config(), "steps"),
        (CommunityConfig(1, ("a",)), "members"),
        (RatesConfig(), "mode"),
        (MrsSchedule(kind="constant"), "value"),
        (Diagnostic("info", "code", "message"), "level"),
        (RatesEvent(1, ((1.0,),), ((1.0,),)), "ex"),
        (SolverEvent(1, 1, 0.0, (1.0,)), "residual"),
        (Myopic(), "anything"),
        (FixedCurrency(1), "currency"),
        (EgalitarianSingle(1), "community"),
        (JointEgalitarian(Defensive()), "strategy"),
        (EqualBirthGrant(2), "coins"),
        (ExchangeRateMatrix.ones(2), "ex"),
        (CurrencyCommunity(1, frozenset("a"), frozenset()), "members"),
    ],
)
def test_record_fields_cannot_be_assigned(record, name):
    with pytest.raises(AttributeError):
        setattr(record, name, 0)
    with pytest.raises(AttributeError):
        delattr(record, name)


def test_regimes_equal_only_their_own_class():
    assert Myopic() == Myopic()
    assert Myopic() != Defensive()
    assert FixedCurrency(1) != EgalitarianSingle(1)
    assert FixedCurrency(1) == FixedCurrency(1) != FixedCurrency(2)
    assert EqualBirthGrant(1) != EgalitarianSingle(1)
    assert JointEgalitarian(Myopic()) == JointEgalitarian(Myopic())
    assert JointEgalitarian(Myopic()) != JointEgalitarian(Egocentric())
    assert hash(JointEgalitarian(UniformRandom())) == hash(JointEgalitarian(UniformRandom()))
    assert len({Myopic(), Defensive(), Egocentric(), UniformRandom(), Myopic()}) == 4
    assert repr(FixedCurrency(2)) == "FixedCurrency(currency=2)"
    assert repr(JointEgalitarian(Myopic())) == "JointEgalitarian(strategy=Myopic())"


@pytest.mark.parametrize(
    "config",
    [
        bare_config(),
        bare_config(joins={3: (("c", 1),)}, preferences={"b": {1: 0.5, 2: 0.5}}),
        scenarios.pair_convergence_endogenous(steps=10),
        scenarios.sybil_locality(steps=10),
    ],
)
def test_config_round_trip_and_replace(config):
    assert ScenarioConfig.from_dict(config.to_dict()) == config
    longer = config._replace(steps=config.steps + 7)
    assert type(longer) is ScenarioConfig
    assert longer.steps == config.steps + 7
    assert longer._replace(steps=config.steps) == config


def test_default_mappings_are_read_only():
    config = bare_config()
    with pytest.raises(TypeError):
        config.joins[1] = (("c", 1),)
    with pytest.raises(TypeError):
        config.communities[0].initial_coins["a"] = 1
    assert not bare_config().joins and not CommunityConfig(1, ("a",)).initial_coins


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: CurrencyCommunity(1, frozenset(), frozenset()), ValueError,
         "community 1 must have at least one member"),
        (lambda: CurrencyCommunity(1, frozenset("a"), frozenset({Coin(2, 0)})), ValueError,
         "coin 2:0 does not belong to currency 1"),
        (lambda: CurrencyCommunity(1, frozenset("a"), frozenset())._replace(members=frozenset()),
         ValueError, "community 1 must have at least one member"),
        (lambda: CurrencyNetwork((CurrencyCommunity(2, frozenset("a"), frozenset()),), {}),
         ValueError, "communities must be indexed 1..k in order"),
        (lambda: CurrencyNetwork(
            (CurrencyCommunity(1, frozenset("a"), frozenset({Coin(1, 0)})),), {}),
         ValueError, "holder map must cover exactly the network's coins"),
        (lambda: CurrencyNetwork(
            (CurrencyCommunity(1, frozenset("a"), frozenset({Coin(1, 0)})),), {Coin(1, 0): "z"}),
         ValueError, "holder 'z' of coin 1:0 is outside community 1"),
        (lambda: PreferenceProfile({"a": (1.0,)}, 2), ValueError,
         "agent 'a' has 1 weights, expected 2"),
        (lambda: PreferenceProfile({"a": (1.5, -0.5)}, 2), ValueError,
         "agent 'a' has a negative weight"),
        (lambda: PreferenceProfile({"a": (0.5, 0.6)}, 2), ValueError,
         "weights of agent 'a' must sum to 1"),
        (lambda: PreferenceProfile({"a": (0.5, 0.5)}, 2)._replace(k=3), ValueError,
         "agent 'a' has 2 weights, expected 3"),
        (lambda: EqualBirthGrant(0), ValueError, "birth grant must be positive"),
    ],
)
def test_validated_constructors_raise(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_validated_values_normalize_and_compare_by_value():
    community = CurrencyCommunity(1, frozenset("ab"), frozenset({Coin(1, 0)}))
    holder = {Coin(1, 0): "a"}
    network = CurrencyNetwork((community,), holder)
    assert type(network.holder) is dict and network.holder is not holder
    assert network == CurrencyNetwork((community,), dict(holder))
    assert network != network.with_holder(Coin(1, 0), "b")
    profile = PreferenceProfile({"a": [0.25, 0.75]}, 2)
    assert profile.weights == {"a": (0.25, 0.75)}
    assert profile == PreferenceProfile({"a": (0.25, 0.75)}, 2)
    ownership = OwnershipMap.from_pairs([("p", "a"), ("p", "b")])
    assert ownership == OwnershipMap.from_pairs([("p", "b"), ("p", "a")])
    moved = ownership._replace(pairs=frozenset({("q", "a")}))
    assert moved.owners_of("a") == {"q"} and moved.persons == ("q",)
