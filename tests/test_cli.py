import json
from pathlib import Path

import pytest

from currencynet import cli, repro
from currencynet.errors import UnknownSuiteError
from currencynet import scenarios


@pytest.fixture
def scenario_file(tmp_path):
    config = scenarios.pair_convergence_exogenous(steps=200)
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(config.to_dict()))
    return path


def test_run_writes_bundle(tmp_path, scenario_file):
    out = tmp_path / "results"
    code = cli.main(
        ["run", "--scenario", str(scenario_file), "--out", str(out), "--quiet"]
    )
    assert code == 0
    bundle = out / "pair_convergence_exogenous"
    for name in ("metrics.csv", "rates.csv", "justice.csv", "justice.json", "manifest.json"):
        assert (bundle / name).exists(), name
    manifest = json.loads((bundle / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["config_sha256"]


def test_run_is_byte_deterministic(tmp_path, scenario_file):
    outs = []
    for n in (1, 2):
        out = tmp_path / f"run{n}"
        assert (
            cli.main(
                [
                    "run",
                    "--scenario",
                    str(scenario_file),
                    "--out",
                    str(out),
                    "--seed",
                    "11",
                    "--quiet",
                ]
            )
            == 0
        )
        outs.append(out / "pair_convergence_exogenous")
    for name in ("metrics.csv", "rates.csv", "justice.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_run_steps_override(tmp_path, scenario_file):
    out = tmp_path / "short"
    assert (
        cli.main(
            [
                "run",
                "--scenario",
                str(scenario_file),
                "--out",
                str(out),
                "--steps",
                "50",
                "--quiet",
            ]
        )
        == 0
    )
    metrics = (out / "pair_convergence_exogenous" / "metrics.csv").read_text()
    last = metrics.strip().splitlines()[-1]
    assert last.startswith("50,")


def test_run_json_format(tmp_path, scenario_file):
    out = tmp_path / "json"
    assert (
        cli.main(
            [
                "run",
                "--scenario",
                str(scenario_file),
                "--out",
                str(out),
                "--steps",
                "20",
                "--format",
                "json",
                "--quiet",
            ]
        )
        == 0
    )
    records = json.loads(
        (out / "pair_convergence_exogenous" / "metrics.json").read_text()
    )
    assert records and set(records[0]) == {
        "t",
        "agent",
        "currency",
        "balance",
        "income",
        "revenue",
        "expenses",
        "cumulative_cashflow",
    }


def test_run_malformed_config_fails_with_usage_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"steps": 10')
    assert cli.main(["run", "--scenario", str(path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "line" in err


def test_run_missing_file(tmp_path):
    assert (
        cli.main(["run", "--scenario", str(tmp_path / "nope.json")]) == cli.EXIT_USAGE
    )


def test_run_solver_failure_exits_with_runtime_code(tmp_path, capsys):
    # the overlap agents value only currency 1, so nobody who values currency 2
    # holds any other currency: the check passes, the first solve finds no price
    config = scenarios.pair_convergence_endogenous(steps=50)
    data = config.to_dict()
    data["preferences"]["b"] = {"1": 1.0}
    data["preferences"]["c"] = {"1": 1.0}
    path = tmp_path / "one_sided.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    code = cli.main(["run", "--scenario", str(path), "--out", str(out), "--quiet"])
    assert code == cli.EXIT_RUNTIME
    assert "step 1" in capsys.readouterr().err


def test_out_dir_env_default(tmp_path, scenario_file, monkeypatch):
    monkeypatch.setenv("CURRENCYNET_OUT", str(tmp_path / "envout"))
    assert (
        cli.main(
            ["run", "--scenario", str(scenario_file), "--steps", "20", "--quiet"]
        )
        == 0
    )
    assert (tmp_path / "envout" / "pair_convergence_exogenous" / "metrics.csv").exists()


def test_check_valid_prints_prediction(tmp_path, scenario_file, capsys):
    assert cli.main(["check", "--scenario", str(scenario_file)]) == 0
    out = capsys.readouterr().out
    assert "0.7" in out


def test_check_warning_is_not_fatal(tmp_path, capsys):
    config = scenarios.disjoint_pair_control(steps=100)
    path = tmp_path / "control.json"
    path.write_text(json.dumps(config.to_dict()))
    assert cli.main(["check", "--scenario", str(path)]) == 0
    assert "condition violated" in capsys.readouterr().out


def test_check_error_is_fatal(tmp_path, capsys):
    config = scenarios.pair_convergence_exogenous(steps=100)
    data = config.to_dict()
    data["settlement"] = True  # incompatible with exogenous rates
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert cli.main(["check", "--scenario", str(path)]) == cli.EXIT_USAGE


def updated(**fields):
    def edit(data):
        data.update(fields)

    return edit


def with_regime(tag, **fields):
    return updated(regime=tag, **fields)


def with_community(n, **fields):
    def edit(data):
        data["communities"][n].update(fields)

    return edit


def negative_initial_coins(data):
    data["communities"][0]["initial_coins"]["a"] = -2


def negative_join_grant(data):
    data["join_grant"] = -1


def communities_out_of_order(data):
    data["communities"].reverse()


def third_currency(data):
    data["communities"].append({"index": 3, "members": ["d"], "initial_coins": {"d": 1}})


def exogenous_matrix(matrix):
    return updated(rates={"mode": "exogenous", "mrs_matrix": matrix})


def arbitrage_matrix(data):
    third_currency(data)
    exogenous_matrix([[1.0, 2.0, 4.0], [0.5, 1.0, 1.0], [0.25, 1.0, 1.0]])(data)


@pytest.mark.parametrize(
    "edit, code, text",
    [
        pytest.param(
            with_regime("joint_fixed:x"), "regime", "joint_fixed needs a currency index",
            id="fixed_currency_not_an_index",
        ),
        pytest.param(
            with_regime("joint_fixed:2"), "regime", "without being its members: ['a']",
            id="fixed_currency_misses_an_agent",
        ),
        pytest.param(
            with_regime("equal_birth_grant", grant=0), "regime", "requires a positive 'grant'",
            id="zero_birth_grant",
        ),
        pytest.param(
            with_regime("equal_birth_grant", grant=-3), "regime", "requires a positive 'grant'",
            id="negative_birth_grant",
        ),
        pytest.param(
            with_regime("egalitarian_single", community=3), "regime",
            "egalitarian_single targets unknown community 3", id="single_unknown_community",
        ),
        pytest.param(
            negative_initial_coins, "initial_coins", "negative coin counts for ['a']",
            id="negative_initial_coins",
        ),
        pytest.param(
            with_community(0, initial_coins={"a": 1, "z": 2}), "initial_coins",
            "coins for non-members ['z']", id="coins_for_a_non_member",
        ),
        pytest.param(
            with_community(0, members=[], initial_coins={}), "members",
            "community 1 has no members", id="no_members",
        ),
        pytest.param(
            negative_join_grant, "join_grant", "join grant cannot be negative",
            id="negative_join_grant",
        ),
        pytest.param(
            communities_out_of_order, "communities", "1..k in order, got [2, 1]",
            id="communities_out_of_order",
        ),
        pytest.param(updated(steps=0), "steps", "at least 1", id="zero_steps"),
        pytest.param(updated(k_eq=0), "k_eq", "at least 1", id="zero_k_eq"),
        pytest.param(
            updated(trade_noise=-1), "trade_noise", "cannot be negative", id="negative_trade_noise"
        ),
        pytest.param(
            updated(snapshot_interval=-1), "snapshot_interval", "cannot be negative",
            id="negative_snapshot_interval",
        ),
        pytest.param(
            updated(joins={"0": [["e", 1]]}), "joins", "join scheduled at step 0",
            id="join_at_step_0",
        ),
        pytest.param(
            updated(joins={"5": [["e", 3]]}), "joins", "targets unknown community 3",
            id="join_to_unknown_community",
        ),
        pytest.param(
            third_currency, "rates", "k != 2 needs a full mrs_matrix",
            id="three_currencies_without_matrix",
        ),
        pytest.param(
            exogenous_matrix([[1.0, 2.0]]), "rates", "mrs_matrix must be 2x2",
            id="matrix_of_wrong_shape",
        ),
        pytest.param(
            arbitrage_matrix, "rates", "arbitrage-free trade violated", id="matrix_with_arbitrage"
        ),
        pytest.param(
            with_regime("joint_egocentric", preferences={"a": {"1": 0.5}}), "preferences",
            "weights of 'a' must be nonnegative and sum to 1", id="weights_not_summing_to_1",
        ),
    ],
)
def test_check_reports_bad_values_as_errors(tmp_path, capsys, edit, code, text):
    data = scenarios.pair_convergence_exogenous(steps=100).to_dict()
    edit(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert cli.main(["check", "--scenario", str(path)]) == cli.EXIT_USAGE
    errors = [line for line in capsys.readouterr().out.splitlines() if line.startswith("error: ")]
    assert any(line.startswith(f"error: [{code}]") and text in line for line in errors), errors


@pytest.mark.parametrize(
    "edit, text",
    [
        pytest.param(updated(joins=[]), "joins: expected a mapping", id="joins_list"),
        pytest.param(updated(rates=[]), "rates: expected a mapping", id="rates_list"),
        pytest.param(
            with_community(0, initial_coins=[["a", 1]]),
            "communities[0].initial_coins: expected a mapping",
            id="initial_coins_list",
        ),
        pytest.param(
            with_regime("joint_egocentric", preferences={"a": [0.5, 0.5]}),
            "preferences.a: expected a mapping",
            id="preferences_row_list",
        ),
        pytest.param(
            with_community(1, members="abc"),
            "communities[1].members: expected a list of agent names",
            id="members_string",
        ),
        pytest.param(
            updated(rates={"mode": "exogenous", "mrs12": [1]}),
            "rates.mrs12: expected a mapping",
            id="mrs12_list",
        ),
        pytest.param(
            updated(rates={"mode": "exogenous", "mrs12": {"kind": "table", "points": [1, 2]}}),
            "rates.mrs12.points: expected a list of [step, value] pairs",
            id="table_points_not_pairs",
        ),
    ],
)
def test_check_rejects_malformed_fields(tmp_path, capsys, edit, text):
    data = scenarios.pair_convergence_exogenous(steps=100).to_dict()
    edit(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert cli.main(["check", "--scenario", str(path)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {text}\n"


def test_check_missing_file():
    assert cli.main(["check", "--scenario", "does-not-exist.json"]) == cli.EXIT_USAGE


def test_repro_solver_suite_passes(capsys):
    assert cli.main(["repro", "solver"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_repro_unknown_suite_raises():
    with pytest.raises(UnknownSuiteError):
        repro.run_suite("nonsense")


def test_repro_failure_exits_with_code_3(monkeypatch, capsys):
    def failing_suite():
        return [repro.Check("stub", "always fails", 1.0, "< 0", "FAIL")]

    monkeypatch.setitem(repro.SUITES, "stub", failing_suite)
    assert cli.main(["repro", "stub"]) == cli.EXIT_REPRO_FAIL
    assert "FAIL" in capsys.readouterr().out


def test_usage_error_exit_code():
    assert cli.main(["frobnicate"]) == cli.EXIT_USAGE


def test_shipped_scenario_files_match_builders():
    from pathlib import Path

    from currencynet.engine import load_scenario, validate_config

    root = Path(__file__).resolve().parent.parent / "scenarios"
    assert sorted(path.stem for path in root.glob("*.json")) == sorted(scenarios.CANNED)
    for name, build in scenarios.CANNED.items():
        config = load_scenario(root / f"{name}.json")
        assert config == build()
        assert not [d for d in validate_config(config) if d.level == "error"]
