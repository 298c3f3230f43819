"""scripts/scaling_grid.py at a tiny size."""
import importlib.util
import os
import tracemalloc
from pathlib import Path

import pytest

from currencynet.engine import validate_config

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "scaling_grid.py"


@pytest.fixture(scope="module")
def scaling_grid():
    spec = importlib.util.spec_from_file_location("scaling_grid", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_config_has_two_communities_sharing_a_third(scaling_grid):
    config = scaling_grid.grid_config(12, 5)
    one, two = (set(cc.members) for cc in config.communities)
    assert len(one & two) == len(one - two) == len(two - one) == 4
    assert config.trade_noise == 3
    diagnostics = validate_config(config)
    assert not [d for d in diagnostics if d.level == "error"]
    assert any(d.code == "convergence" and d.level == "info" for d in diagnostics)


def test_grid_prints_one_row_per_point(scaling_grid, capsys):
    assert scaling_grid.main(["--agents", "6", "9", "--steps", "20"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert lines[2].startswith("| 6 × 20 | ") and lines[3].startswith("| 9 × 20 | ")
    for line in lines[2:]:
        cells = [cell.split()[0] for cell in line.strip("| ").split(" | ")[1:]]
        assert all(float(cell) > 0 for cell in cells), line


def test_timing_is_untraced_and_memory_untimed(scaling_grid, monkeypatch):
    traced = []
    run = scaling_grid.run_scenario

    def watched(config):
        traced.append(tracemalloc.is_tracing())
        return run(config)

    monkeypatch.setattr(scaling_grid, "run_scenario", watched)
    config = scaling_grid.grid_config(6, 10)
    seconds, result = scaling_grid.time_point(config, 2)
    assert seconds > 0
    assert scaling_grid.bundle_point(result, 2) > 0
    retained, peak = scaling_grid.memory_point(config)
    assert traced == [False, False, True]
    assert 0 < retained <= peak
    assert not tracemalloc.is_tracing()


def test_peak_rss_comes_from_a_fresh_interpreter(scaling_grid):
    # memory this process holds must not count towards the point's reading
    ballast = b"\1" * (64 * 2**20)
    own = scaling_grid.peak_rss_mb()
    assert 0 < scaling_grid.rss_point(6, 10) < own - 32
    del ballast


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_peak_rss_falls_back_to_ru_maxrss(scaling_grid, tmp_path):
    # ru_maxrss also keeps the high-water marks from before exec, so it is
    # never below VmHWM read earlier
    hwm = scaling_grid.peak_rss_mb()
    assert 0 < hwm <= scaling_grid.peak_rss_mb(str(tmp_path / "missing"))


def test_run_peak_holds_no_per_coin_dict(scaling_grid):
    # beyond what the history retains, the run keeps one slot of its
    # currency's holder list (8 bytes) per coin; a dict keyed by (currency,
    # serial) costs about 136 bytes a coin, so it fails the bound
    config = scaling_grid.grid_config(60, 200)
    # every agent mints one coin a step and nobody joins
    coins = sum(sum(cc.initial_coins.values()) for cc in config.communities) + 60 * 200
    retained, peak = scaling_grid.memory_point(config)
    assert (peak - retained) * 2**20 / coins < 64
