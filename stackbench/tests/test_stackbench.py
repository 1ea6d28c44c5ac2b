"""The benchmark's own tests, at tiny scale.

Run from the root of the repository::

    python3 -m pytest stackbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from typing import Any, Dict, List

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import ALL_WORKLOADS, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = 0.05


def _invoke(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "stackbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(process: subprocess.CompletedProcess) -> Dict[str, Any]:
    assert process.returncode == 0, process.stderr
    last = process.stdout.strip().splitlines()[-1]
    result: Dict[str, Any] = json.loads(last)
    return result


def _tiny(workload: str, seed: int = 0, trace: int = 0,
          *extra: str) -> Dict[str, Any]:
    return _result(_invoke(
        "--workload", workload, "--seed", str(seed), "--seconds", "0.1",
        "--trace", str(trace), "--scale", str(TINY), *extra))


def test_benchmark_json_describes_this_directory() -> None:
    assert SPEC["command"] == ["python3", "stackbench/run.py"]
    assert SPEC["paths"] == ["stackbench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == run.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", list(ALL_WORKLOADS))
def test_every_workload_emits_every_end_to_end_metric(workload: str
                                                      ) -> None:
    result = _tiny(workload)
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    for metric in SPEC["end_to_end"]:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert emitted["value"] > 0, metric["name"]


@pytest.mark.parametrize("workload", list(ALL_WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(workload: str) -> None:
    result = _tiny(workload, 0, 1)
    assert result["correct"] is True
    assert set(result["metrics"]) == set(run.PER_LAYER_UNITS)
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["metrics"]["trace.wall_s"]["value"] > 0


@pytest.mark.parametrize("name", list(ALL_WORKLOADS))
def test_seed_changes_the_stream_and_repeats_it(name: str) -> None:
    first = ALL_WORKLOADS[name](1, scale=TINY).expectation(0)
    again = ALL_WORKLOADS[name](1, scale=TINY).expectation(0)
    other = ALL_WORKLOADS[name](2, scale=TINY).expectation(0)
    assert first == again
    assert first != other


def _perturb(expected: Dict[str, Any]) -> Dict[str, Any]:
    changed = json.loads(json.dumps(expected))
    verdicts = changed["verdicts"]
    verdicts["granted"] = verdicts.get("granted", 0) + 1
    return changed


@pytest.mark.parametrize("name", list(ALL_WORKLOADS))
def test_a_perturbed_expectation_trips_the_gate(name: str) -> None:
    workload = ALL_WORKLOADS[name](3, scale=TINY)
    expected = workload.expectation(0)
    result = workload.run_pass(0)
    for gate in (run.Gate([run.digest(expected)]), run.Gate([], {0: expected})):
        gate.check(result, "pass")
        assert gate.correct, gate.problems
    recorded = run.Gate([run.digest(_perturb(expected))])
    recorded.check(result, "pass")
    assert not recorded.correct
    assert "differ from the record" in recorded.problems[0]
    replayed = run.Gate([], {0: _perturb(expected)})
    replayed.check(result, "pass")
    assert not replayed.correct
    assert "verdicts.granted" in replayed.problems[0]


def test_a_failed_audit_trips_the_gate() -> None:
    workload = WORKLOADS["deep_serve"](0, scale=TINY)
    result = workload.run_pass(0)
    result.audits["session.audit"] = False
    gate = run.Gate([run.digest(result.observed)])
    gate.check(result, "pass")
    assert gate.problems == ["pass: session.audit failed"]


def test_the_command_reports_incorrect_on_a_perturbed_record(
        tmp_path: Path) -> None:
    workload = WORKLOADS["storm_random"](4, scale=TINY, seconds=0.1)
    digests = [run.digest(workload.expectation(instance))
               for instance in range(workload.instances)]
    digests[1] = run.digest(_perturb(workload.expectation(1)))
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(
        {workload.name: {run.table_key(workload): digests}}),
        encoding="utf-8")
    process = _invoke("--workload", "storm_random", "--seed", "4",
                      "--seconds", "0.1", "--trace", "0",
                      "--scale", str(TINY), "--expected", str(path))
    result = _result(process)
    assert result["correct"] is False
    assert "FAIL pass (instance 1)" in process.stdout
    assert "FAIL pass (instance 0)" not in process.stdout


def test_the_record_covers_the_pools_of_seeds_0_to_23() -> None:
    table = run.load_expected()
    seconds = SPEC["run_seconds"]
    for name, cls in WORKLOADS.items():
        for seed in range(24):
            digests = table[name][str(seed)]
            assert len(digests) == cls(seed, seconds=seconds).instances


def test_pooled_quantiles_match_a_sorted_copy() -> None:
    workload = WORKLOADS["labels_churn"](0, scale=TINY)
    passes = []
    for instance in range(3):
        result = workload.run_pass(instance)
        result.latencies = sorted(result.latencies)
        result.host = 1.0 + instance / 10
        passes.append(result)
    scaled = sorted(value / p.host for p in passes for value in p.latencies)
    for q in (0.5, 0.99):
        expected = scaled[int(q * len(scaled))]
        assert run.pooled_quantiles(passes, (q,)) == [expected]


def _self_time_adds_up(tracer: Tracer) -> None:
    covered = sum(tracer.covered_s.values())
    self_total = sum(tracer.self_s.values())
    assert self_total == pytest.approx(covered, rel=1e-6, abs=1e-9)
    assert set(tracer.self_s) <= set(LAYERS)
    assert 0.0 <= tracer.uncovered_s <= tracer.wall_s
    assert self_total + tracer.uncovered_s == pytest.approx(tracer.wall_s)


@pytest.mark.parametrize("name", list(ALL_WORKLOADS))
def test_traced_self_times_plus_uncovered_add_up_to_wall(name: str
                                                         ) -> None:
    workload = ALL_WORKLOADS[name](5, scale=TINY)
    tracer = Tracer()
    result = workload.run_pass(0, tracer)
    _self_time_adds_up(tracer)
    assert tracer.spans
    # Tracing observes; it must not change what the program does.
    assert result.observed == workload.expectation(0)
    # Every wrapper is gone again.
    assert not tracer._originals


def test_spans_nest_and_share_request_ids() -> None:
    workload = WORKLOADS["deep_serve"](6, scale=TINY)
    tracer = Tracer()
    workload.run_pass(0, tracer)
    by_id = {span[0]: span for span in tracer.spans}
    requests: List[int] = []
    for span_id, _, name, start, end, parent, rid, _ in tracer.spans:
        assert start <= end
        if parent in by_id:
            outer = by_id[parent]
            assert outer[3] <= start and end <= outer[4]
            assert outer[6] == rid
        if name == "ControllerSession.serve":
            requests.append(rid)
    assert requests == list(range(len(requests)))


def test_open_loop_pass_stops_its_worker() -> None:
    before = threading.active_count()
    ALL_WORKLOADS["gateway_open"](0, scale=TINY).run_pass(0, rate=2000)
    assert threading.active_count() == before


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "stackbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    process = _invoke("--workload", "deep_serve", "--seed", "0",
                      "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert process.returncode != 0
    assert '"correct"' not in process.stdout
