"""A run never imports numpy: the library computes with Python floats.

Each check runs in a fresh interpreter where ``sys.modules["numpy"]`` is
None, so any import of numpy, direct or through another module, raises.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

from test_justice import settled_triple

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.modules["numpy"] = None
from currencynet import accounting, cli, engine, identity, outputs

scenario, config_path, out = sys.argv[1:]
codes = [
    cli.main(["run", "--scenario", scenario, "--steps", "50", "--out", out, "--quiet"]),
    cli.main(["check", "--scenario", scenario, "--quiet"]),
]
with open(config_path) as handle:
    config = engine.ScenarioConfig.from_dict(json.load(handle))
engine.validate_config(config)
result = engine.run_scenario(config)
report = accounting.check_accounting_identity(result.history)
result.justice_report()
identity.sybil_locality_report(
    result.history, identity.OwnershipMap.from_pairs(config.owners), result.rates_timeline
)
files = outputs.write_bundle(result, out + "/job")
print(json.dumps({"codes": codes, "accounting_ok": report.ok, "files": files}))
"""


def test_run_check_and_job_without_numpy(tmp_path):
    # k = 3 endogenous rates with settlement and snapshots, one owner of two agents
    config = settled_triple(steps=20)._replace(
        owners=(("P_a", "a"), ("P_bc", "b"), ("P_bc", "c"), ("P_d", "d"), ("P_e", "e"),
                ("P_f", "f")),
    )
    config_path = tmp_path / "triple.json"
    config_path.write_text(json.dumps(config.to_dict()))
    scenario = ROOT / "scenarios" / "pair_convergence_endogenous.json"
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(scenario), str(config_path), str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.splitlines()[-1])
    assert summary["codes"] == [0, 0]
    assert summary["accounting_ok"]
    assert "solver.csv" in summary["files"]
    assert (tmp_path / "pair_convergence_endogenous" / "solver.csv").exists()
