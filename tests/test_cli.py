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


def with_regime(tag, **fields):
    def edit(data):
        data.update(regime=tag, **fields)

    return edit


def negative_initial_coins(data):
    data["communities"][0]["initial_coins"]["a"] = -2


def negative_join_grant(data):
    data["join_grant"] = -1


@pytest.mark.parametrize(
    "edit, code",
    [
        pytest.param(with_regime("joint_fixed:x"), "regime", id="fixed_currency_not_an_index"),
        pytest.param(with_regime("equal_birth_grant", grant=0), "regime", id="zero_birth_grant"),
        pytest.param(with_regime("equal_birth_grant", grant=-3), "regime", id="negative_birth_grant"),
        pytest.param(negative_initial_coins, "initial_coins", id="negative_initial_coins"),
        pytest.param(negative_join_grant, "join_grant", id="negative_join_grant"),
    ],
)
def test_check_reports_bad_values_as_errors(tmp_path, capsys, edit, code):
    data = scenarios.pair_convergence_exogenous(steps=100).to_dict()
    edit(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert cli.main(["check", "--scenario", str(path)]) == cli.EXIT_USAGE
    assert f"error: [{code}]" in capsys.readouterr().out


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

    from currencynet.engine import ScenarioConfig, load_scenario, validate_config

    root = Path(__file__).resolve().parent.parent / "scenarios"
    assert sorted(path.stem for path in root.glob("*.json")) == sorted(scenarios.CANNED)
    for name, build in scenarios.CANNED.items():
        config = load_scenario(root / f"{name}.json")
        assert config == build()
        assert not [d for d in validate_config(config) if d.level == "error"]
