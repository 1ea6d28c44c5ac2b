"""The stack benchmark: one workload per run, timed on the wall clock.

Run from the root of a checkout::

    python3 stackbench/run.py --workload deep_serve --seed 0 \\
        --seconds 20 --trace 0

``--trace 0`` measures end to end and prints every end-to-end metric;
``--trace 1`` alternates untraced and traced passes and prints every
per-layer metric.  Either way every pass is checked: its verdict
tallies and counters must match the record for its seed and instance
(``expected.json``), and the public audits must pass.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--record --seeds 0-23`` rewrites ``expected.json`` from the current
program (untimed); do that only when a change is meant to alter the
counters.  See README.md in this directory.
"""

import argparse
import gc
import hashlib
import heapq
import json
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from stats import quantile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
TRACE_DIR = ROOT / ".stackbench"

END_TO_END_UNITS = {
    "setup_s": "s",
    "req_per_s": "1/s",
    "sustained_req_per_s": "1/s",
    "latency_p50_us": "us",
    "latency_p99_us": "us",
    "cost_per_req": "count",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "tree.self_s": "s", "tree.depth_calls": "count",
    "tree.mutations": "count",
    "core.self_s": "s", "core.package_moves": "count",
    "core.relocation_moves": "count", "core.reject_moves": "count",
    "core.reset_moves": "count", "core.granted_share": "share",
    "core.cancelled_share": "share",
    "sim.self_s": "s", "sim.events": "count", "sim.events_per_req": "count",
    "distributed.self_s": "s", "distributed.agent_hops": "count",
    "distributed.broadcast_messages": "count",
    "distributed.relocation_messages": "count",
    "distributed.reject_messages": "count",
    "service.self_us_per_req": "us", "service.backpressured": "count",
    "apps.self_s": "s", "apps.relabels": "count",
    "apps.iterations": "count", "apps.app_moves": "count",
    "gateway.submit_us_p50": "us", "gateway.queue_wait_us_p50": "us",
    "gateway.queue_wait_us_p99": "us", "gateway.pump_busy_s": "s",
    "gateway.batch_mean": "count", "gateway.idle_cycles": "count",
    "gateway.max_queue_depth": "count",
    "fleet.self_us_per_req": "us", "fleet.transfers": "count",
    "fleet.transfers_per_req": "count",
    "fleet.shard_load_max_over_mean": "ratio",
    "gc.gen2_collections": "count", "gc.pause_ms_max": "ms",
    "gc.pause_ms_total": "ms",
    "trace.overhead_pct": "%", "trace.uncovered_s": "s",
    "trace.wall_s": "s",
}


# ----------------------------------------------------------------------
# Runtime accounting.
# ----------------------------------------------------------------------
class GcMonitor:
    """Counts gen-2 collections and pause times via ``gc.callbacks``
    while :attr:`active`; the settings of ``gc`` are left alone."""

    def __init__(self) -> None:
        self.active = False
        self.gen2 = 0
        self.pauses_ms: List[float] = []
        self._began = 0.0

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc: object) -> None:
        gc.callbacks.remove(self._callback)

    def _callback(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._began = time.perf_counter()
        elif self.active:
            self.pauses_ms.append((time.perf_counter() - self._began) * 1e3)
            if info["generation"] == 2:
                self.gen2 += 1

    def settle(self) -> None:
        """Collect the previous pass's garbage outside the measurement,
        so one pass does not pay for another's."""
        active, self.active = self.active, False
        gc.collect()
        self.active = active


def _lcg(state: int) -> int:
    return (state * 1103515245 + 12345) & 0x7FFFFFFF


class HostGauge:
    """Reads how much slower than a quiet reference host the
    interpreter runs right now.

    Two fixed kernels, independent of the program: dict-and-list tree
    work like the program's own, and a pointer chase through a table
    larger than the CPU caches (a shared host slows memory as well as
    the core).  A reading is the geometric mean of the two kernels'
    best-of-three times over their times on the reference host.
    """

    #: The kernels' best-of-three times on the reference host, a quiet
    #: 2-vCPU x86-64 virtual machine running CPython 3.11.
    TREE_REF_S = 0.0005
    CHASE_REF_S = 0.0012
    CHASE_STEPS = 20000

    def __init__(self) -> None:
        # A full-period LCG modulo 2**18 is one cycle through every
        # entry in scattered order; the table is an untracked array,
        # so it adds nothing to the program's collections.
        mask = (1 << 18) - 1
        self._next = array("l", (_lcg(entry) & mask
                                 for entry in range(mask + 1)))

    @staticmethod
    def _tree() -> int:
        parent = {0: -1}
        kids: Dict[int, List[int]] = {0: []}
        state = 12345
        for node in range(1, 800):
            state = _lcg(state)
            up = state % node
            parent[node] = up
            kids[up].append(node)
            kids[node] = []
        total = 0
        for node in range(0, 800, 3):
            while node >= 0:
                total += 1
                node = parent[node]
        stack = [0]
        while stack:
            node = stack.pop()
            stack.extend(kids[node])
            total += node
        return total

    def _chase(self) -> int:
        table = self._next
        entry = 0
        for _ in range(self.CHASE_STEPS):
            entry = table[entry]
        return entry

    def read(self) -> float:
        ratios = []
        for kernel, reference in ((self._tree, self.TREE_REF_S),
                                  (self._chase, self.CHASE_REF_S)):
            best = float("inf")
            for _ in range(3):
                began = time.perf_counter()
                kernel()
                best = min(best, time.perf_counter() - began)
            ratios.append(best / reference)
        return float((ratios[0] * ratios[1]) ** 0.5)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _divided(values: Any, by: float) -> Iterator[float]:
    return (value / by for value in values)


def pooled_quantiles(passes: List[Any], qs: Tuple[float, ...],
                     scaled: bool = True) -> List[float]:
    """Quantiles of every pass's latencies together, by merging each
    pass's sorted latencies (no pooled copy is built)."""
    total = sum(len(p.latencies) for p in passes)
    if not total:
        return [0.0] * len(qs)
    wanted = {min(total - 1, int(q * total)): q for q in qs}
    streams: List[Iterator[float]] = [
        _divided(p.latencies, p.host if scaled else 1.0) for p in passes]
    found: Dict[float, float] = {}
    for rank, value in enumerate(heapq.merge(*streams)):
        if rank in wanted:
            found[wanted[rank]] = value
            if len(found) == len(wanted):
                break
    return [found[q] for q in qs]


# ----------------------------------------------------------------------
# The correctness gate.
# ----------------------------------------------------------------------
def load_expected(path: Path = EXPECTED) -> Dict[str, Dict[str, Any]]:
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as handle:
        data: Dict[str, Dict[str, Any]] = json.load(handle)
    return data


def digest(observed: Dict[str, Any]) -> str:
    """A short fingerprint of a pass's deterministic counters."""
    text = json.dumps(observed, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def differences(observed: Any, expected: Any, where: str = "") -> List[str]:
    """Every path at which ``observed`` differs from ``expected``."""
    if isinstance(expected, dict) and isinstance(observed, dict):
        out: List[str] = []
        for key in sorted(set(expected) | set(observed)):
            out += differences(observed.get(key), expected.get(key),
                               f"{where}.{key}" if where else str(key))
        return out
    if isinstance(expected, list) and isinstance(observed, list) \
            and len(expected) == len(observed):
        out = []
        for index, (left, right) in enumerate(zip(observed, expected)):
            out += differences(left, right, f"{where}[{index}]")
        return out
    if observed != expected:
        return [f"{where}: observed {observed!r}, expected {expected!r}"]
    return []


class Gate:
    """Checks every pass and collects the failures.

    A pass of instance ``i`` must match the recorded digest ``i`` when
    there is one; otherwise it must match ``reference[i]`` (an untimed
    replay) when given, and else the first pass of the same instance.
    Its audits must pass either way.
    """

    def __init__(self, recorded: List[str],
                 reference: Optional[Dict[int, Dict[str, Any]]] = None
                 ) -> None:
        self.recorded = recorded
        self.known: Dict[int, Dict[str, Any]] = dict(reference or {})
        self.problems: List[str] = []

    @property
    def source(self) -> str:
        return (f"{len(self.recorded)} recorded instances"
                if self.recorded else "reference replay")

    def check(self, result: Any, label: str) -> None:
        instance = result.instance
        if instance < len(self.recorded):
            found = digest(result.observed)
            if found != self.recorded[instance]:
                self.problems.append(
                    f"{label}: counters {found} differ from the record "
                    f"{self.recorded[instance]}: "
                    f"{json.dumps(result.observed, sort_keys=True)[:400]}")
        else:
            expected = self.known.setdefault(instance, result.observed)
            for diff in differences(result.observed, expected):
                self.problems.append(f"{label}: {diff}")
        for audit, passed in sorted(result.audits.items()):
            if not passed:
                self.problems.append(f"{label}: {audit} failed")

    @property
    def correct(self) -> bool:
        return not self.problems


def table_key(workload: Any) -> str:
    """``expected.json`` key: the seed, plus the scale when shrunk."""
    if workload.scale == 1.0:
        return str(workload.seed)
    return f"{workload.seed}@{workload.scale}"


def make_gate(workload: Any, table: Dict[str, Dict[str, Any]]) -> Gate:
    recorded = table.get(workload.name, {}).get(table_key(workload))
    if recorded:
        return Gate(list(recorded))
    # Not recorded: replay the first instance untimed, so at least one
    # instance is checked against an independent run.
    return Gate([], {0: workload.expectation(0)})


# ----------------------------------------------------------------------
# Measurement.
# ----------------------------------------------------------------------
class Run:
    """Accumulates the passes of one run."""

    def __init__(self, workload: Any, gate: Gate, monitor: GcMonitor,
                 gauge: HostGauge) -> None:
        self.workload = workload
        self.gate = gate
        self.monitor = monitor
        self.gauge = gauge
        self.attempted = 0
        self.failed = 0
        #: The deterministic counters of each instance.
        self.observed: Dict[int, Dict[str, Any]] = {}

    def one(self, label: str, make: Callable[[], Any],
            counted: bool = True) -> Any:
        """Run one pass between two host-speed readings (its host
        factor is their mean); ``counted`` passes feed the gc
        accounting."""
        self.monitor.settle()
        before = self.gauge.read()
        self.monitor.active = counted
        try:
            result = make()
        finally:
            self.monitor.active = False
        result.host = (before + self.gauge.read()) / 2
        result.latencies = array("d", sorted(result.latencies))
        self.gate.check(result, f"{label} (instance {result.instance})")
        self.observed[result.instance] = result.observed
        self.attempted += result.requests
        self.failed += result.failed
        return result

    def pool(self, label: str, make: Callable[[int], Any]) -> List[Any]:
        """One pass of every instance of the pool."""
        return [self.one(label, lambda instance=instance: make(instance))
                for instance in range(self.workload.instances)]


def _rate(result: Any, scaled: bool = True) -> float:
    """Requests per second of one pass, at reference host speed unless
    ``scaled`` is false."""
    rate = result.requests / result.busy_s
    return float(rate * result.host if scaled else rate)


def pool_rate(passes: List[Any], scaled: bool = True) -> float:
    """Requests per second over the pool: all requests over all busy
    time (each pass's time at reference host speed unless ``scaled``
    is false)."""
    busy = sum(p.busy_s / p.host if scaled else p.busy_s for p in passes)
    return float(sum(p.requests for p in passes) / busy)


def _cost(run: Run) -> Tuple[str, float]:
    """The paper's cost per request over the pool: messages on the
    distributed engine, moves on the synchronous ones."""
    requests = run.workload.requests_per_pass * len(run.observed)
    observed = list(run.observed.values())
    if "messages" in observed[0]:
        return "messages_per_req", sum(
            o["messages"]["total"] for o in observed) / requests
    total = 0
    for o in observed:
        moves = o["moves"]
        total += (sum(entry["total"] for entry in moves)
                  if isinstance(moves, list) else moves["total"])
    return "moves_per_req", total / requests


def _latencies(passes: List[Any]) -> Dict[str, float]:
    p50, p99 = pooled_quantiles(passes, (0.50, 0.99))
    raw50, raw99 = pooled_quantiles(passes, (0.50, 0.99), scaled=False)
    return {
        "latency_p50_us": p50 * 1e6, "latency_p99_us": p99 * 1e6,
        "latency_samples": float(sum(len(p.latencies) for p in passes)),
        "raw.latency_p50_us": raw50 * 1e6, "raw.latency_p99_us": raw99 * 1e6,
    }


def _setup(passes: List[Any]) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(p.setup_s / p.host for p in passes),
        "raw.setup_s": statistics.median(p.setup_s for p in passes),
        "host_factor": statistics.median(p.host for p in passes),
    }


def measure_closed(run: Run) -> Dict[str, float]:
    passes = run.pool("pass", run.workload.run_pass)
    rate = pool_rate(passes)
    figures = {
        "req_per_s": rate,
        "raw.req_per_s": pool_rate(passes, scaled=False),
        # One caller waiting on each reply cannot build a backlog: the
        # rate it sustains is the rate it completes.
        "sustained_req_per_s": rate,
    }
    figures.update(_setup(passes))
    figures.update(_latencies(passes))
    return figures


def _probe_holds(result: Any, workload: Any) -> bool:
    return (result.failed == 0
            and quantile(result.latencies, 0.99) <= workload.limit_s
            and result.drain_s <= workload.backlog_s)


def measure_gateway(run: Run) -> Dict[str, float]:
    workload = run.workload
    capacity = run.pool("capacity", workload.run_pass)
    # The sustained rate: bisect the offered rate (geometrically, with
    # a fixed number of probes) for the highest one that holds.
    low, high = workload.sustained_range
    sustained: Optional[Any] = None
    for probe in range(workload.probes):
        rate = (low * high) ** 0.5
        result = run.one(f"probe {rate:.0f}/s", lambda: workload.run_pass(
            probe % workload.instances, rate=rate))
        if _probe_holds(result, workload):
            low, sustained = rate, result
        else:
            high = rate
    headline = run.pool("headline", lambda instance: workload.run_pass(
        instance, rate=workload.headline_rate))
    figures = {
        "req_per_s": pool_rate(capacity),
        "raw.req_per_s": pool_rate(capacity, scaled=False),
        # Achieved, not offered: settled requests over the span of the
        # highest probe that held, at reference host speed.
        "sustained_req_per_s": (_rate(sustained) if sustained is not None
                                else 0.0),
        "gen_late_max_ms": statistics.median(
            p.late_max_s for p in headline) * 1e3,
    }
    figures.update(_setup(capacity + headline))
    figures.update(_latencies(headline))
    return figures


def end_to_end(workload: Any, gate: Gate, monitor: GcMonitor,
               gauge: HostGauge) -> Tuple[Run, Dict[str, float]]:
    run = Run(workload, gate, monitor, gauge)
    if workload.name == "gateway_open":
        figures = measure_gateway(run)
    else:
        figures = measure_closed(run)
    name, cost = _cost(run)
    figures["cost_per_req"] = cost
    figures[name] = cost
    for key in ("sim_latency_p50", "sim_latency_p99"):
        values = [o[key] for o in run.observed.values() if key in o]
        if values:
            figures[key] = statistics.median(values)
    figures["failed_share"] = run.failed / run.attempted
    figures["peak_rss_mb"] = peak_rss_mb()
    figures["gc.gen2_collections"] = float(monitor.gen2)
    figures["gc.pause_ms_max"] = max(monitor.pauses_ms, default=0.0)
    return run, figures


def layer_summary(result: Any, tracer: Any) -> Dict[str, float]:
    """The per-layer metrics of one traced pass."""
    from tracer import DEPTH_CALLS, LAYERS, MUTATIONS

    metrics = {f"{layer}.self_s": tracer.self_s.get(layer, 0.0)
               for layer in LAYERS}
    for layer in ("service", "fleet"):
        metrics[f"{layer}.self_us_per_req"] = (
            metrics.pop(f"{layer}.self_s") / result.requests * 1e6)
    del metrics["gateway.self_s"]  # reported as gateway.pump_busy_s
    metrics.update({
        "tree.depth_calls": tracer.count(*DEPTH_CALLS),
        "tree.mutations": tracer.count(*MUTATIONS),
        "sim.events_per_req":
            result.layer.get("sim.events", 0) / result.requests,
        "gateway.submit_us_p50":
            quantile(tracer.durations("Gateway.submit"), 0.5) * 1e6,
        "gateway.queue_wait_us_p50":
            quantile(tracer.queue_waits, 0.5) * 1e6,
        "gateway.queue_wait_us_p99":
            quantile(tracer.queue_waits, 0.99) * 1e6,
        "gateway.pump_busy_s": sum(tracer.durations("Gateway.pump")),
        "trace.uncovered_s": tracer.uncovered_s,
        "trace.wall_s": tracer.wall_s,
    })
    for name in PER_LAYER_UNITS:
        metrics.setdefault(name, float(result.layer.get(name, 0.0)))
    return metrics


def per_layer(workload: Any, seconds: float, gate: Gate,
              monitor: GcMonitor, gauge: HostGauge,
              trace_path: Optional[Path]) -> Tuple[Run, Dict[str, float]]:
    """Alternate untraced and traced passes over the pool; the traced
    ones give the layers (the median over them), the pairs give the
    tracing overhead.  Only the last traced pass keeps its spans."""
    from tracer import Tracer

    run = Run(workload, gate, monitor, gauge)
    headline = getattr(workload, "headline_rate", None)
    summaries: List[Dict[str, float]] = []
    overhead: List[float] = []
    tracer = Tracer()
    start = time.perf_counter()
    while len(summaries) < 2 or time.perf_counter() - start < seconds:
        instance = len(summaries) % workload.instances
        base = run.one("untraced", lambda: workload.run_pass(instance))
        tracer = Tracer()
        result = run.one("traced", lambda: workload.run_pass(
            instance, tracer), counted=False)
        overhead.append(_rate(base, scaled=False)
                        / _rate(result, scaled=False) - 1.0)
        if headline is not None:
            # The open loop's layers are read at the headline rate,
            # where the latency metrics they explain are measured.
            run.one("untraced headline",
                    lambda: workload.run_pass(instance, rate=headline))
            tracer = Tracer()
            result = run.one("traced headline", lambda: workload.run_pass(
                instance, tracer, rate=headline), counted=False)
        summaries.append(layer_summary(result, tracer))
    if trace_path is not None:
        tracer.write(str(trace_path))
    metrics = {name: float(statistics.median(s[name] for s in summaries))
               for name in summaries[0]}
    metrics["gc.gen2_collections"] = float(monitor.gen2)
    metrics["gc.pause_ms_max"] = max(monitor.pauses_ms, default=0.0)
    metrics["gc.pause_ms_total"] = sum(monitor.pauses_ms)
    metrics["trace.overhead_pct"] = statistics.median(overhead) * 100.0
    return run, metrics


# ----------------------------------------------------------------------
# Entry point.
# ----------------------------------------------------------------------
def _seed_list(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def record(names: List[str], seeds: List[int], seconds: float,
           path: Path) -> None:
    """Rewrite the table at ``path`` for ``seeds`` from the current
    program: one digest per instance of each seed's pool."""
    from workloads import ALL_WORKLOADS

    table = load_expected(path)
    for name in names:
        entries = table.setdefault(name, {})
        for seed in seeds:
            workload = ALL_WORKLOADS[name](seed, seconds=seconds)
            entries[table_key(workload)] = [
                digest(workload.expectation(instance))
                for instance in range(workload.instances)]
            print(f"recorded {name} seed {seed}", file=sys.stderr)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=0, sort_keys=True)
        handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(
        "deep_serve", "labels_churn", "storm_random", "gateway_waves",
        "gateway_open"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the workload (the benchmark's tests)")
    parser.add_argument("--record", action="store_true",
                        help="rewrite the expectation table for --seeds")
    parser.add_argument("--seeds", default="0-23")
    parser.add_argument("--expected", type=Path, default=EXPECTED,
                        help="the expectation table (default: %(default)s)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"stackbench: no program to measure: {SRC / 'repro'} is "
              "missing (run from the root of a checkout)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import ALL_WORKLOADS, WORKLOADS

    if args.record:
        names = [args.workload] if args.workload else list(WORKLOADS)
        record(names, _seed_list(args.seeds), args.seconds, args.expected)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    workload = ALL_WORKLOADS[args.workload](args.seed, scale=args.scale,
                                            seconds=args.seconds)
    gate = make_gate(workload, load_expected(args.expected))
    trace_path = None
    if args.trace:
        TRACE_DIR.mkdir(exist_ok=True)
        trace_path = TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"
    gauge = HostGauge()
    with GcMonitor() as monitor:
        if args.trace:
            run, figures = per_layer(workload, args.seconds, gate, monitor,
                                     gauge, trace_path)
            units = PER_LAYER_UNITS
        else:
            run, figures = end_to_end(workload, gate, monitor, gauge)
            units = END_TO_END_UNITS

    print(f"# {workload.name} seed={args.seed} scale={args.scale} "
          f"instances={workload.instances} expectation={gate.source} "
          f"requests={run.attempted}")
    for name in sorted(figures):
        print(f"{name} {figures[name]:.6g} {units.get(name, '')}".rstrip())
    for problem in gate.problems[:20]:
        print(f"FAIL {problem}")
    result = {
        "correct": gate.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": figures[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
