import csv
import hashlib
import io
import json
from types import SimpleNamespace

import pytest

from currencynet import engine, justice, outputs, scenarios
from currencynet.engine import (
    CommunityConfig,
    MrsSchedule,
    RatesConfig,
    ScenarioConfig,
    run_scenario,
)
from test_justice import settled_triple

# sha256 of the bundle files of pair_convergence_exogenous(steps=40), and of
# rates.csv and of solver.csv without its residual column from
# pair_convergence_endogenous(steps=40); manifest.json is left out because it
# records the Python version
GOLDEN_EXOGENOUS = {
    "metrics.csv": "f819fe3bd9b6f0840c2f926ffebf3e50cb27796a0de1969551710b62919e454e",
    "justice.csv": "2a7024d301595b318e9819e38d5d02e66aa0f1703cd7d480b966aa0f4e7e6dcc",
    "rates.csv": "e0cb6ec30b188d275a7a0fb00de6e627e0f571d52c31452bf92747bdc9c2353b",
    "justice.json": "940d9077fa33500e03518e935d9d00f3976d9495ff2397751c69fd72704e1b1a",
}
GOLDEN_ENDOGENOUS_RATES = "0478772ea2c8ffd56eef40dac463be2677855256e7a9e7a82e1de89a9690880b"
# the residual max|Mp - p| is a rounding error of order 1e-16 whose last bits
# depend on the order of the floating-point sums, so it is bounded instead
GOLDEN_SOLVER_WITHOUT_RESIDUAL = (
    "50d331bc93c80765f4651bc2e9c9bad9fb80ca52dac7a834ad32c51c1205c06f"
)
# the bundle of test_justice.settled_triple(): k = 3 with settlement, which
# pins which coins the settlement donors hand over
GOLDEN_SETTLED_TRIPLE = {
    "metrics.csv": "e2e39932151f7ee650890442007087c0c147dc855940bde9e809f918a5f8d4b6",
    "justice.csv": "77ebe796caa3511c1188b0cfbe1ec5e0f18a255bccfc246b0878e516b4655d3c",
    "rates.csv": "081e074b5097ddfbeb140f66edca5604ce13d61e1125cbf7a8999ab388a00e98",
    "solver.csv": "7c0f5e73e4146e67a6c6fbace569c6bb17ec8606ababa943657e3d7d81af2f7f",
    "justice.json": "e1bd54467b27b725c3c93bfc453e58ec72458fddcc2980066fa127ac7593dac1",
}
# the bundle of single_community_dilution(steps=300): the single-community
# regime, three joins and trade noise
GOLDEN_SINGLE = {
    "metrics.csv": "39e3ec4be2d67f36ba117e32aac436fee6a29275a3ff51cc44bb2daae5d93820",
    "justice.csv": "5c29b7a55c5540f81210d640d2735e48427ab353073a21d0cdd8328d41d2708a",
    "justice.json": "3ed31d0c1f398b6fac77af85445519ab85eb489c3e60e458dadc7a24cef316d9",
}
# the bundle of sybil_locality(steps=300): every step of its justice.csv
# repeats a value, so the writer shares texts (826 distinct in 2107 rows)
GOLDEN_SYBIL = {
    "metrics.csv": "82e9d60ffcc802598bb850d6f828aec04f7f0842ba4a815e3729736193a3aa83",
    "justice.csv": "52b89560076bea92b19d00142102a7298cb64d893982dcd4f0e77f1ad7724a7c",
    "rates.csv": "230b9f74657a3eee8a7699d8f701632d8cb8d32e77611ef333f1ed0221fa43d3",
    "justice.json": "b923955965b2a1a04bebde809608c9fc13bc9fe4e6cf8c74f763acc6bcdaafa0",
}
# the bundle of permuted_index(): the history's key index holds the founders'
# keys, then ("a", 2), ("m", 2) and ("a", 1) as they join, so it is no longer
# in the sorted order the writers list keys in
GOLDEN_PERMUTED_INDEX = {
    "metrics.csv": "28df2790000afaed1189fc59ca1bc0f1bd0151f18dc44768200a5f7a2a05af63",
    "justice.csv": "93a31f42e92ceb95b6eeda2f5d04fabc0d03a7015e4481c001433acc94c076c1",
    "justice.json": "cf52f7fffb742baf26271915e78312881be1c578a91613f7838d4171e912fc68",
}


# sha256 over the four bundle files of each strategy_variants() config, in
# GOLDEN_EXOGENOUS's order: the mint strategies and grants the runs above
# leave out
GOLDEN_STRATEGIES = {
    "joint_defensive": "7e02d59a069525d965cb0861472b6664d401b75744b15ee18d0373a995d8654d",
    "joint_random": "536d5c23a6252ad59ebd2bc464297a64e269c446b89be91b8fbb56deb9adcc91",
    "joint_egocentric": "d103419cf8291955b1b14cd20d0162250ce9cf66a0d3101f734cd097ed4dd816",
    "joint_fixed:1": "21b9842f4d4176cd18c33e562c197792c805460a778aeef7fb8178f51c605da1",
    "join_grant": "527e028ceb334fcee8d734ba52a8723ca7a117af3a8f4da8073aeff14b54fe9e",
    "equal_birth_grant": "1ceb53eca592ede16adf39eb5fdb2629a9b19e3f1de9d3896440e44633d97460",
}


def strategy_variants() -> dict:
    """pair_convergence_exogenous(steps=40) under each strategy and grant rule."""
    base = scenarios.pair_convergence_exogenous(steps=40)
    one, two = base.communities
    joins = {5: (("e", 1),), 9: (("d", 1), ("e", 2))}
    return {
        "joint_defensive": base._replace(regime="joint_defensive"),
        "joint_random": base._replace(regime="joint_random"),
        # uniform weights would give the defensive choice
        "joint_egocentric": base._replace(
            regime="joint_egocentric",
            preferences={
                "a": {1: 1.0}, "b": {1: 0.7, 2: 0.3}, "c": {1: 0.2, 2: 0.8}, "d": {2: 1.0},
            },
        ),
        "joint_fixed:1": base._replace(
            regime="joint_fixed:1", communities=(one._replace(members=("a", "b", "c", "d")), two)
        ),
        "join_grant": base._replace(joins=joins, join_grant=2),
        "equal_birth_grant": base._replace(regime="equal_birth_grant", grant=3, joins=joins),
    }


@pytest.mark.parametrize("variant", sorted(GOLDEN_STRATEGIES))
def test_strategy_bundle_bytes_match_golden_digests(tmp_path, variant):
    outputs.write_bundle(run_scenario(strategy_variants()[variant]), tmp_path)
    digest = hashlib.sha256()
    for name in GOLDEN_EXOGENOUS:
        digest.update((tmp_path / name).read_bytes())
    assert digest.hexdigest() == GOLDEN_STRATEGIES[variant]


def test_strategy_goldens_pin_distinct_runs():
    assert len(set(GOLDEN_STRATEGIES.values())) == len(GOLDEN_STRATEGIES)


def permuted_index():
    """A newcomer sorting before every founder joins 2, then 1; founder m joins 2."""
    return ScenarioConfig(
        name="permuted_index",
        communities=(
            CommunityConfig(1, ("m", "n", "p"), {"m": 2, "n": 1, "p": 1}),
            CommunityConfig(2, ("p", "q", "r"), {"p": 1, "q": 2, "r": 1}),
        ),
        steps=30,
        seed=11,
        regime="joint_myopic",
        joins={4: (("a", 2),), 6: (("m", 2),), 9: (("a", 1),)},
        join_grant=1,
        rates=RatesConfig(mode="exogenous", mrs12=MrsSchedule(kind="constant", value=1.5)),
        trade_noise=2,
    )


def small_run():
    return run_scenario(scenarios.pair_convergence_exogenous(steps=40))


def test_metrics_csv_schema_and_cashflow(tmp_path):
    result = small_run()
    path = tmp_path / "metrics.csv"
    outputs.write_metrics_csv(result.history, path)
    with open(path) as handle:
        rows = list(csv.DictReader(handle))
    assert list(rows[0]) == list(outputs.METRICS_COLUMNS)
    # check the cumulative column against the history API on every row
    history = result.history
    for row in rows:
        t, agent, currency = int(row["t"]), row["agent"], int(row["currency"])
        assert int(row["cumulative_cashflow"]) == history.cumulative_cashflow(
            t, agent, currency
        )
        assert int(row["balance"]) == history.balance(t, agent, currency)


def test_rates_csv_covers_every_pair(tmp_path):
    result = small_run()
    path = tmp_path / "rates.csv"
    outputs.write_rates_csv(result, path)
    with open(path) as handle:
        rows = list(csv.DictReader(handle))
    assert {(row["i"], row["j"]) for row in rows} == {
        ("1", "1"), ("1", "2"), ("2", "1"), ("2", "2")
    }
    assert len(rows) == 4 * len(result.rates_log)


def test_justice_json_summary_fields(tmp_path):
    result = small_run()
    path = tmp_path / "justice.json"
    outputs.write_justice_json(result, path)
    summary = json.loads(path.read_text())
    assert set(summary) >= {"justice", "ex12", "a_over_t"}
    assert summary["justice"]["target"] == 0.25
    for agent in ("a", "b", "c", "d"):
        assert agent in summary["justice"]["agents"]


def test_manifest_reproduces_config(tmp_path):
    from currencynet.engine import ScenarioConfig, config_hash

    result = small_run()
    files = outputs.write_bundle(result, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert set(manifest["files"]) == set(files)
    rebuilt = ScenarioConfig.from_dict(manifest["config"])
    assert rebuilt == result.config
    assert manifest["config_sha256"] == config_hash(rebuilt)


def digests(outdir, names):
    return {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest() for name in names}


def without_column(path, column) -> bytes:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    drop = rows[0].index(column)
    return "".join(",".join(row[:drop] + row[drop + 1:]) + "\r\n" for row in rows).encode()


def test_bundle_bytes_match_golden_digests(tmp_path):
    outputs.write_bundle(small_run(), tmp_path / "exo")
    assert digests(tmp_path / "exo", GOLDEN_EXOGENOUS) == GOLDEN_EXOGENOUS
    endogenous = run_scenario(scenarios.pair_convergence_endogenous(steps=40))
    outputs.write_bundle(endogenous, tmp_path / "endo")
    assert digests(tmp_path / "endo", ["rates.csv"]) == {"rates.csv": GOLDEN_ENDOGENOUS_RATES}
    solver = tmp_path / "endo" / "solver.csv"
    stripped = without_column(solver, "residual")
    assert hashlib.sha256(stripped).hexdigest() == GOLDEN_SOLVER_WITHOUT_RESIDUAL
    with open(solver, newline="") as handle:
        residuals = [float(row["residual"]) for row in csv.DictReader(handle)]
    assert len(residuals) == 40
    assert max(residuals) <= 1e-15
    single = run_scenario(scenarios.single_community_dilution(steps=300))
    outputs.write_bundle(single, tmp_path / "single")
    assert digests(tmp_path / "single", GOLDEN_SINGLE) == GOLDEN_SINGLE


def test_settled_bundle_bytes_match_golden_digests(tmp_path):
    outputs.write_bundle(run_scenario(settled_triple()), tmp_path)
    assert digests(tmp_path, GOLDEN_SETTLED_TRIPLE) == GOLDEN_SETTLED_TRIPLE


def test_sybil_bundle_bytes_match_golden_digests(tmp_path):
    outputs.write_bundle(run_scenario(scenarios.sybil_locality(steps=300)), tmp_path)
    assert digests(tmp_path, GOLDEN_SYBIL) == GOLDEN_SYBIL


def csv_writer_text(header, rows) -> str:
    """What ``csv.writer`` writes for ``header`` and ``rows``: the reference bytes."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


class SeriesStub:
    """Stands in for a RunResult: the justice series and step targets it is given."""

    def __init__(self, series, targets):
        self.series = series
        self.report = SimpleNamespace(step_targets=targets)

    def justice_series(self):
        return self.series

    def justice_report(self):
        return self.report


def justice_reference(series, targets) -> str:
    return csv_writer_text(
        ("t", "agent", "value", "target", "deviation"),
        (
            (t, agent, repr(value), repr(targets[t]), repr(abs(value - targets[t])))
            for agent in sorted(series)
            for t, value in enumerate(series[agent])
        ),
    )


def test_justice_csv_matches_csv_writer_on_awkward_series(tmp_path):
    nan, inf = float("nan"), float("inf")
    other_nan = float("nan")
    # per step: a value shared by three agents; both zeros beside a repeat, in
    # either order; both zeros alone, which repeat as set members; one NaN
    # object twice and two NaN objects; infinities; a NaN target
    columns = [
        (0.25, 0.25, 0.25, -0.5),
        (0.0, -0.0, 0.125, 0.125),
        (-0.0, 0.0, 0.125, 0.125),
        (0.0, -0.0, 0.1, 0.2),
        (nan, nan, other_nan, 0.5),
        (inf, -inf, inf, 1e-300),
        (0.3, 0.3, -0.0, 0.0),
    ]
    targets = [0.25, 0.25, 0.25, 0.25, 0.25, 0.25, nan]
    agents = ("b", "x,y", 'q"t', "a")
    series = {agent: list(values) for agent, values in zip(agents, zip(*columns))}
    solo = {"solo": [0.5, -0.0, nan, inf, 0.5, 0.0, 0.3]}
    texts = []
    for stub_series in (series, solo):
        path = tmp_path / "justice.csv"
        outputs.write_justice_csv(SeriesStub(stub_series, targets), path)
        texts.append(path.read_bytes().decode())
        assert texts[-1] == justice_reference(stub_series, targets)
    # -0.0 keeps its sign beside a 0.0 of the same step
    assert '\r\n1,"x,y",-0.0,0.25,0.25\r\n' in texts[0]
    assert "\r\n2,b,-0.0,0.25,0.25\r\n" in texts[0]
    assert "\r\n1,solo,-0.0,0.25,0.25\r\n" in texts[1]


def test_rates_and_solver_csv_match_csv_writer(tmp_path):
    result = run_scenario(settled_triple())
    assert result.config.k == 3 and result.solver_log
    outputs.write_rates_csv(result, tmp_path / "rates.csv")
    outputs.write_solver_csv(result, tmp_path / "solver.csv")
    rates = csv_writer_text(
        ("t", "i", "j", "mrs", "ex"),
        (
            (event.t, i + 1, j + 1, repr(event.mrs[i][j]), repr(event.ex[i][j]))
            for event in result.rates_log
            for i in range(3)
            for j in range(3)
        ),
    )
    solver = csv_writer_text(
        ("t", "iterations", "residual", "p1", "p2", "p3"),
        (
            (event.t, event.iterations, repr(event.residual), *map(repr, event.prices))
            for event in result.solver_log
        ),
    )
    assert (tmp_path / "rates.csv").read_bytes().decode() == rates
    assert (tmp_path / "solver.csv").read_bytes().decode() == solver


def test_permuted_key_index_bundle_matches_golden_digests(tmp_path):
    result = run_scenario(permuted_index())
    keys = result.history.keys
    assert keys[-3:] == [("a", 2), ("m", 2), ("a", 1)]
    assert keys != sorted(keys)
    # trade noise moved coins between agents, so the cashflow columns count
    assert any(step.revenue_cols for step in result.history.steps)
    outputs.write_bundle(result, tmp_path)
    assert digests(tmp_path, GOLDEN_PERMUTED_INDEX) == GOLDEN_PERMUTED_INDEX


def test_agent_names_needing_quotes_round_trip(tmp_path):
    check_odd_names_round_trip(tmp_path, ("x,y", 'q"t'), ('"x,y"', '"q""t"'))


def test_agent_names_with_percent_signs_round_trip(tmp_path):
    # metrics.csv is written through a % template, so a % left unescaped in
    # a name would take an argument or ask for a mapping
    check_odd_names_round_trip(tmp_path, ("50%d", "%(a)s%%,q"), (",50%d,", '"%(a)s%%,q"'))


def check_odd_names_round_trip(tmp_path, odd, quoted):
    """The bundle's CSV files equal ``csv.writer``'s for agents named ``odd``.

    ``quoted`` holds the text each name must appear as.
    """
    config = ScenarioConfig(
        name="quoting",
        communities=(
            CommunityConfig(1, (odd[0], odd[1], "c"), {odd[0]: 1, odd[1]: 1, "c": 1}),
            CommunityConfig(2, (odd[1], "c", "d"), {odd[1]: 1, "c": 1, "d": 1}),
        ),
        steps=12,
        seed=3,
        regime="joint_myopic",
        rates=RatesConfig(mode="exogenous", mrs12=MrsSchedule(kind="constant", value=1.5)),
        trade_noise=1,
    )
    result = run_scenario(config)
    outputs.write_bundle(result, tmp_path)
    series = result.justice_series()
    # the f-string rows give the bytes csv.writer gives
    expected = tmp_path / "expected.csv"
    with open(expected, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("t", "agent", "value", "target", "deviation"))
        for agent in sorted(series):
            for t, value in enumerate(series[agent]):
                target = 1.0 / result.history.member_count(t)
                writer.writerow((t, agent, repr(value), repr(target), repr(abs(value - target))))
    text = (tmp_path / "justice.csv").read_text()
    assert text == expected.read_text()
    assert all(field in text for field in quoted)
    with open(tmp_path / "justice.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 4 * 13
    for row in rows:
        assert float(row["value"]) == series[row["agent"]][int(row["t"])]
    with open(expected, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(outputs.METRICS_COLUMNS)
        writer.writerows(outputs.metrics_rows(result.history))
    text = (tmp_path / "metrics.csv").read_text()
    assert text == expected.read_text()
    assert all(field in text for field in quoted)
    with open(tmp_path / "metrics.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert {row["agent"] for row in rows} == set(odd) | {"c", "d"}
    assert len(rows) == 4 * 2 * 13
    for row, reference in zip(rows, outputs.metrics_rows(result.history)):
        t, agent, currency = int(row["t"]), row["agent"], int(row["currency"])
        assert int(row["balance"]) == result.history.balance(t, agent, currency)
        assert (t, agent, currency) + tuple(
            int(row[column]) for column in outputs.METRICS_COLUMNS[3:]
        ) == reference


def test_metrics_csv_matches_csv_writer_with_partial_memberships(tmp_path):
    # a and f belong to one currency, b to e to two, and g joins currency 3
    # alone: of the 7 x 3 keys, 10 are never indexed and write five literal zeros
    config = settled_triple(steps=12)._replace(joins={5: (("g", 3),)})
    history = run_scenario(config).history
    assert len(history.keys) == 11
    outputs.write_metrics_csv(history, tmp_path / "metrics.csv")
    # the per-key history API, one call per field, is the reference; the
    # flows start at step 1, and step 0 writes them as zeros
    flows = (history.income, history.revenue, history.expenses)
    expected = csv_writer_text(
        outputs.METRICS_COLUMNS,
        [
            (
                t,
                agent,
                i,
                history.balance(t, agent, i),
                *(flow(t, agent, i) if t else 0 for flow in flows),
                history.cumulative_cashflow(t, agent, i),
            )
            for t in range(13)
            for agent in "abcdefg"
            for i in (1, 2, 3)
        ],
    )
    assert (tmp_path / "metrics.csv").read_bytes() == expected.encode()


@pytest.fixture
def counted_series_steps(monkeypatch):
    """Counts the per-step justice computations a run makes."""
    calls = []
    builder = justice.justice_values

    def counting(*args):
        calls.append(args[1].t)
        return builder(*args)

    monkeypatch.setattr(justice, "justice_values", counting)
    return calls


def extend_by_one_quiet_step(result):
    """Append a step in which nothing happens, past the end of the rate timeline."""
    result.history.extend(result.final_network, minted={})


def test_one_job_builds_the_justice_series_once(tmp_path, counted_series_steps):
    result = small_run()
    result.justice_report()
    outputs.write_bundle(result, tmp_path)
    assert counted_series_steps == list(range(result.history.last_step + 1))


def test_one_job_builds_the_justice_report_once(tmp_path, monkeypatch):
    calls = []
    builder = engine.build_justice_report

    def counting(*args, **kwargs):
        calls.append(args)
        return builder(*args, **kwargs)

    monkeypatch.setattr(engine, "build_justice_report", counting)
    result = small_run()
    report = result.justice_report()
    outputs.write_bundle(result, tmp_path)
    assert len(calls) == 1
    assert result.justice_report() is report
    extend_by_one_quiet_step(result)
    longer = result.justice_report()
    assert longer is not report
    assert len(calls) == 2
    assert len(longer.step_targets) == len(report.step_targets) + 1


def test_justice_series_memo_is_per_history_length(counted_series_steps):
    result = small_run()
    steps = result.history.last_step + 1
    first = result.justice_series()
    assert result.justice_series() is first
    assert len(result.rates_timeline) == steps
    extend_by_one_quiet_step(result)
    second = result.justice_series()
    assert second is not first
    assert len(counted_series_steps) == steps + (steps + 1)
    # the last matrix stays in force past the timeline, and the quiet step
    # moves nothing, so its values repeat the last step's bits
    for agent, values in first.items():
        assert second[agent] == values + values[-1:]
