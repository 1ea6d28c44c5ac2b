"""Tests for the ``python -m repro.bench`` paper-claim and audit sweeps."""

import json
import os
import subprocess
import sys

import pytest

from repro.bench import SCENARIOS, run_move_complexity, run_scenario_grid
from repro.bench import runner
from repro.bench.__main__ import main
from repro.errors import ConfigError, InvariantViolation


def test_registry_names():
    assert set(SCENARIOS) == {"move_complexity", "scenario", "memory",
                              "apps"}


def test_move_complexity_raises_when_moves_reach_the_bound(monkeypatch):
    """Observation 3.4 is checked, not only reported: a bound the run
    exceeds raises, with the document attached as evidence."""
    monkeypatch.setattr(runner, "observation_3_4_bound",
                        lambda u, m, w: 10.0)
    with pytest.raises(InvariantViolation, match="Observation 3.4") as info:
        run_move_complexity(sizes=[40, 80])
    document = info.value.document
    assert [row["n"] for row in document["rows"]] == [40, 80]
    assert all(row["ratio"] >= 1 for row in document["rows"])
    json.dumps(document)


@pytest.mark.parametrize("argv", [
    ["--name", "hot_spot", "--seeds", ""],
    ["--name", ","],
    ["--name", "hot_spot", "--engines", ","],
    ["--name", "hot_spot", "--engines", "distributed", "--policy", ""],
    ["--name", "hot_spot", "--scale", "-1"],
    ["--name", "hot_spot", "--scale", "0"],
])
def test_grid_that_would_check_nothing_is_a_config_error(argv):
    """An empty name, seed, engine or (with the distributed engine)
    policy list runs no cell; a non-positive scale runs specs clamped to
    their floors.  Each is refused before any cell runs instead of
    passing an audit of nothing."""
    with pytest.raises(ConfigError):
        main(["scenario"] + argv)


def test_grid_without_distributed_needs_no_policy():
    result = run_scenario_grid(name="hot_spot", policy="", seeds="0",
                               engines="iterated", scale=0.25)
    assert result["summary"]["cells"] == 1
    assert result["summary"]["checks_run"] > 0
    assert result["summary"]["passed"]


def test_apps_bench_shape_and_equivalence():
    """A small ``apps`` run: the complexity fits hold their envelope,
    the grid audits clean, and the document is JSON-serializable.
    (The serve vs serve_stream equivalence is
    ``tests/apps/test_app_equivalence.py::test_serve_and_stream_paths_agree``.)"""
    from repro.bench import run_apps
    result = run_apps(apps="size_estimation,name_assignment",
                      sizes=[48, 96], steps_per_node=2,
                      policies="fifo,random", faults="stall=0.05",
                      grid_n=20, grid_steps=40)
    json.dumps(result)
    for fit in result["complexity"]:
        assert fit["polylog_envelope_held"] is True
        assert fit["log_log_slope"] is not None
    grid = result["grid"]
    # 2 apps x 2 policies x {no faults, stall plan}.
    assert len(grid["cells"]) == 8
    assert grid["passed"] and grid["violations"] == 0
    assert grid["checks_run"] > 0
    faulted = [c for c in grid["cells"] if c["faults"] != "none"]
    assert faulted and all("fault_stats" in c for c in faulted)
    # With a stall plan over whole runs, some cell must have stalled.
    assert any(c["fault_stats"].get("stalls", 0) > 0 for c in faulted)


def test_apps_bench_rejects_unknown_names():
    from repro.bench import run_apps
    with pytest.raises(ValueError, match="unknown app"):
        run_apps(apps="definitely_not_an_app")
    with pytest.raises(ValueError, match="unknown policy"):
        run_apps(apps="size_estimation", policies="yolo")
    # An empty list would leave the grid with no cell to audit.
    with pytest.raises(ConfigError, match="empty app"):
        run_apps(apps=",")
    with pytest.raises(ConfigError, match="empty policy"):
        run_apps(apps="size_estimation", policies="")


def test_cli_list_and_run(tmp_path):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + \
        env.get("PYTHONPATH", "")
    env_cmd = [sys.executable, "-m", "repro.bench"]
    listing = subprocess.run(env_cmd + ["list"], capture_output=True,
                             text=True, check=True, env=env)
    listed = {line.split()[0] for line in listing.stdout.splitlines()}
    assert listed == set(SCENARIOS)
    out = tmp_path / "bench.json"
    run = subprocess.run(
        env_cmd + ["scenario", "--name", "hot_spot", "--engines",
                   "iterated", "--seeds", "0", "--scale", "0.25",
                   "--out", str(out)],
        capture_output=True, text=True, check=True, env=env,
    )
    document = json.loads(out.read_text())
    assert document["scenario"] == "scenario_grid"
    assert document["summary"]["passed"] and document["summary"]["cells"] == 1
    assert json.loads(run.stdout) == document


@pytest.mark.parametrize("argv", [
    ["move_complexity", "--sizes", "0,200"],
    ["move_complexity", "--sizes", "-5,200"],
    ["move_complexity", "--sizes", "200"],
    ["memory", "--sizes", "0"],
    ["apps", "--sizes", "100,-1"],
    ["apps", "--steps-per-node", "0"],
    ["apps", "--grid-n", "0"],
    ["apps", "--grid-steps", "0"],
    ["apps", "--grid-steps", "-2"],
])
def test_count_flags_reject_non_positive_values(argv, capsys):
    """A zero or negative count is a usage error (exit 2, the flag
    named on stderr), not a crash inside the run."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert argv[1] in captured.err
    assert captured.out == ""
