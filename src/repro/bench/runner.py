"""Paper-claim and audit sweeps for ``python -m repro.bench``.

Each ``run_*`` function builds its workload, runs it, checks it, and
returns a JSON-serializable dict.  The checks are the point: every run
**raises** ``InvariantViolation`` (with the document attached) when a
claim of the paper or an invariant audit fails, so a clean document is
itself the evidence.  Wall-clock figures in the documents are for
orientation only; end-to-end timing lives in ``stackbench/``.

Every entry point constructs its engine through the session layer
(``SessionConfig``/``ControllerSession`` — see ``repro.service`` and
docs §7).
"""

import dataclasses
import math
import random
import time
import zlib
from typing import Any, Dict, List, NoReturn, Optional

from repro.core.requests import RequestKind
from repro.distributed.faults import parse_fault_spec
from repro.errors import ConfigError, InvariantViolation, ProtocolError
from repro.metrics.fitting import log_log_slope, observation_3_4_bound
from repro.metrics.counters import MemoryAudit
from repro.metrics.invariants import (
    CounterWatch,
    InvariantReport,
    tally_outcomes,
)
from repro.registry import CONTROLLER_FLAVORS
from repro.service import (
    ControllerSession,
    ControllerSpec,
    SessionConfig,
    drive_scenario,
)
from repro.sim.scheduler import SCHEDULE_POLICIES
from repro.workloads.catalogue import CATALOGUE, get_scenario
from repro.workloads.scenarios import (
    NodePicker,
    TreeMirror,
    build_path,
    build_random_tree,
    random_request,
    request_spec,
)

DEFAULT_SIZES = [200, 400, 800, 1600, 3200]  # the bench_e02 sweep


def _session(kind: str, tree, m: int, w: int, u: int) -> ControllerSession:
    """Session-backed construction: every bench entry point wires its
    engine through ``SessionConfig``/``ControllerSession`` (the window
    wide open — the sweeps check the engine, not admission)."""
    config = SessionConfig.of(kind, m=m, w=w, u=u, max_in_flight=1 << 20)
    return ControllerSession(config, tree=tree)


# ----------------------------------------------------------------------
# move_complexity — the bench_e02 sweep as a CLI one-liner.
# ----------------------------------------------------------------------
def _raise_with(document: Dict, message: str) -> NoReturn:
    """Raise ``InvariantViolation(message)`` carrying the JSON document:
    the evidence matters most on failure, and the CLI still honours
    ``--out`` before re-raising."""
    error = InvariantViolation(message)
    error.document = document
    raise error


def _checked(document: Dict, report: InvariantReport, what: str) -> Dict:
    """``document``, unless ``report`` found violations in ``what``."""
    if not report.passed:
        first = report.violations[0]
        _raise_with(document, f"invariant violations in {what} "
                    f"({len(report.violations)} total); first: "
                    f"[{first.invariant}] {first.message}")
    return document


def run_move_complexity(sizes: Optional[List[int]] = None) -> Dict:
    """Observation 3.4 on deep paths: moves vs ``O(U log^2 U log(M/W))``.

    Mirrors ``benchmarks/bench_e02_move_complexity.py``: sweep the path
    length under the default churn mix (the stream of size ``n`` is
    seeded with ``n``) and report measured/bound ratios plus the
    log-log slope (near-linear growth expected).  The run **raises**
    if any size's moves reach the bound.
    """
    sizes = sizes or DEFAULT_SIZES
    rows = []
    measured = []
    over = []
    for n in sizes:
        tree = build_path(n)
        u, m, w = 2 * n, 4 * n, n // 4
        session = _session("iterated", tree, m=m, w=w, u=u)
        start = time.perf_counter()
        result = drive_scenario(session, steps=n, seed=n)
        elapsed = time.perf_counter() - start
        bound = observation_3_4_bound(u, m, w)
        moves = session.controller.counters.total
        measured.append(moves)
        if moves >= bound:
            over.append(str(n))
        rows.append({
            "n": n, "u": u, "m": m, "w": w,
            "moves": moves,
            "bound": int(bound),
            "ratio": round(moves / bound, 4),
            "granted": result.granted,
            "rejected": result.rejected,
            "wall_ms": round(elapsed * 1000, 3),
        })
    document = {
        "scenario": "move_complexity",
        "params": {"sizes": sizes},
        "rows": rows,
        "log_log_slope": round(log_log_slope(sizes, measured), 4),
        "max_ratio": max(r["ratio"] for r in rows),
    }
    if over:
        _raise_with(document, "Observation 3.4 move bound reached at "
                    f"n = {', '.join(over)}")
    return document


# ----------------------------------------------------------------------
# scenario_grid — the adversarial catalogue x policy x seed sweep.
# ----------------------------------------------------------------------
def _cell_seed(*parts) -> int:
    """Stable per-cell seed (crc32, immune to PYTHONHASHSEED)."""
    return zlib.crc32(":".join(str(p) for p in parts).encode()) & 0x7FFFFFFF


def _materialize(spec, seed: int):
    """Build the reference tree and record the stream as replayable specs."""
    tree = spec.build_tree(seed=seed)
    stream = spec.stream(tree, seed=seed)
    return [request_spec(r) for r in stream]


def _replay_requests(spec, seed: int, stream_specs):
    """A fresh twin tree plus the stream resolved against it."""
    tree = spec.build_tree(seed=seed)
    mirror = TreeMirror(tree)
    requests = [mirror.request(s) for s in stream_specs]
    mirror.detach()
    return tree, requests


def _nonempty(values: List, what: str) -> List:
    """``values``, unless the list is empty: a sweep over nothing runs
    no check, and its clean report would certify nothing."""
    if not values:
        raise ConfigError(f"empty {what} list: the run would check nothing")
    return values


def run_scenario_grid(name: str = "all",
                      policy: str = "fifo,random,adversary",
                      seeds: str = "0,1,2,3,4",
                      faults: Optional[str] = None,
                      engines: str = "iterated,distributed",
                      delays: str = "uniform",
                      stagger: float = 0.25,
                      scale: float = 1.0) -> Dict:
    """The adversarial grid: scenario x engine x schedule policy x seed.

    Every cell replays the *identical* pre-generated stream (recorded as
    tree-independent specs, resolved against a twin tree per cell).
    Centralized-family engines ignore the schedule policy (they are
    synchronous) and run once per scenario x seed; the distributed
    engine runs once per policy, optionally under a fault plan
    (``faults`` spec string, e.g. ``"stall=0.05,pauses=2,storms=3"``;
    an unset horizon auto-resolves per cell to the run's span).  The
    differential reference is the *first core engine listed* in
    ``engines`` (iterated by default); ``summary.differential_checks``
    records how many cross-checks actually ran — 0 when no core engine
    is in the list.

    Each cell is audited by the invariant checker (safety, waste,
    conservation, package shape, lock ordering) plus a streaming
    counter-monotonicity watch; cancellation-free scenarios additionally
    cross-check the distributed grant totals against the centralized
    reference (equal when nothing was rejected, both within the waste
    window otherwise).  The run **raises** on any violation — a bench
    invocation doubles as a correctness gate — and the JSON document
    records the full per-cell evidence.
    """
    if not scale > 0:
        raise ConfigError(f"scale must be greater than 0, got {scale}")
    names = _nonempty(list(CATALOGUE) if name == "all" else [
        part.strip() for part in name.split(",") if part.strip()], "scenario")
    for scenario_name in names:
        get_scenario(scenario_name)  # fail fast on typos, before any cell
    policies = [part.strip() for part in policy.split(",") if part.strip()]
    for pol in policies:
        if pol not in SCHEDULE_POLICIES:
            raise ConfigError(
                f"unknown policy {pol!r}; known: {', '.join(SCHEDULE_POLICIES)}")
    seed_list = _nonempty(
        [int(part) for part in str(seeds).split(",") if part.strip()], "seed")
    # Engines resolve against the public controller registry; ``all``
    # sweeps every registered flavour.  Validation is eager — before any
    # cell runs — so a typo fails in milliseconds, not mid-grid.
    if engines.strip() == "all":
        engine_list = list(CONTROLLER_FLAVORS)
    else:
        engine_list = _nonempty([part.strip().replace("-", "_")
                                 for part in engines.split(",")
                                 if part.strip()], "engine")
    for engine in engine_list:
        if engine not in CONTROLLER_FLAVORS:
            raise ConfigError(
                f"unknown engine {engine!r}; registered controller "
                f"flavors: {', '.join(CONTROLLER_FLAVORS)} (or 'all')")
    if "distributed" in engine_list:
        _nonempty(policies, "policy")
    fault_plan = parse_fault_spec(faults)

    cells: List[Dict] = []
    grid_report = InvariantReport()
    start_all = time.perf_counter()
    for scenario_name in names:
        spec = get_scenario(scenario_name)
        if scale != 1.0:
            spec = spec.scaled(scale)
        for seed in seed_list:
            stream_specs = _materialize(spec, seed)
            reference: Optional[Dict] = None
            stream_cancel_free = all(
                kind in (RequestKind.PLAIN, RequestKind.ADD_LEAF)
                for kind, _node, _child in stream_specs)
            for engine in engine_list:
                if engine != "distributed":
                    cell = _run_core_cell(spec, seed, engine, stream_specs,
                                          grid_report)
                    if reference is None:
                        reference = cell
                    cells.append(cell)
                    continue
                for pol in policies:
                    cell = _run_distributed_cell(
                        spec, seed, pol, stream_specs, fault_plan, delays,
                        stagger, grid_report)
                    _cross_check(cell, spec, reference,
                                 stream_cancel_free, fault_plan, grid_report)
                    cells.append(cell)
    wall_s = time.perf_counter() - start_all

    document = {
        "scenario": "scenario_grid",
        "params": {
            "names": names, "policies": policies, "seeds": seed_list,
            "engines": engine_list, "faults": fault_plan.snapshot(),
            "delays": delays, "stagger": stagger, "scale": scale,
        },
        "cells": cells,
        "invariants": grid_report.to_json(),
        "summary": {
            "cells": len(cells),
            "checks_run": sum(grid_report.checks.values()),
            # Broken out so its *absence* is visible: without a core
            # engine in --engines (or with only cancellation-prone
            # streams) no differential check runs, and "passed" alone
            # would overstate what was certified.
            "differential_checks": grid_report.checks.get("differential", 0),
            "violations": len(grid_report.violations),
            "passed": grid_report.passed,
            "wall_s": round(wall_s, 3),
        },
    }
    return _checked(document, grid_report, "scenario grid")


def _run_core_cell(spec, seed: int, engine: str, stream_specs,
                   grid_report: InvariantReport) -> Dict:
    tree, requests = _replay_requests(spec, seed, stream_specs)
    session = _session(engine, tree, m=spec.m, w=spec.w, u=spec.u)
    watch = CounterWatch(session.controller.counters, report=grid_report)
    start = time.perf_counter()
    outcomes = []
    for request in requests:
        outcomes.append(session.serve(request).outcome)
        watch.observe()
    wall = time.perf_counter() - start
    session.audit(grid_report)
    cell = {
        "scenario": spec.name, "seed": seed, "engine": engine,
        "policy": None, "cost": session.controller.counters.total,
        "wall_ms": round(wall * 1000, 3),
    }
    cell.update(tally_outcomes(outcomes))
    return cell


def _run_distributed_cell(spec, seed: int, policy: str, stream_specs,
                          fault_plan, delays: str, stagger: float,
                          grid_report: InvariantReport) -> Dict:
    cell_seed = _cell_seed(spec.name, seed, policy, "distributed")
    tree, requests = _replay_requests(spec, seed, stream_specs)
    plan = None
    if not fault_plan.is_noop:
        # Auto horizon: the submission window plus a flight-time margin,
        # so pauses/storms land while agents are actually mid-climb
        # rather than bunching into the first instants of a long run.
        span = len(requests) * stagger + 4 * spec.n
        plan = dataclasses.replace(
            fault_plan.resolved(span),
            seed=int(fault_plan.seed) ^ cell_seed)
    config = SessionConfig(
        controller=ControllerSpec("distributed", m=spec.m, w=spec.w,
                                  u=spec.u),
        schedule_policy=policy, delay_model=delays, faults=plan,
        seed=cell_seed, max_in_flight=max(len(requests), 1))
    session = ControllerSession(config, tree=tree)
    watch = CounterWatch(session.controller.counters, report=grid_report)
    settled = []

    start = time.perf_counter()
    session.submit_many(requests, stagger=stagger)
    try:
        for record in session.drain():
            settled.append(record)
            watch.observe()
    except ProtocolError:
        # A lost agent surfaces as a liveness violation in the report
        # (the grid keeps running and records the evidence).
        pass
    wall = time.perf_counter() - start
    grid_report.expect(
        len(settled) == len(requests), "liveness",
        f"{spec.name}/{policy}/seed={seed}: "
        f"{len(requests) - len(settled)} requests never resolved",
        scenario=spec.name, policy=policy, seed=seed)
    session.audit(grid_report)
    cell = {
        "scenario": spec.name, "seed": seed, "engine": "distributed",
        "policy": policy, "cost": session.controller.counters.total,
        "simulated_time": round(session.now, 3),
        "wall_ms": round(wall * 1000, 3),
    }
    injector = getattr(session.controller, "faults", None)
    if injector is not None:
        cell["fault_stats"] = dict(injector.stats)
    cell.update(tally_outcomes(r.outcome for r in settled))
    return cell


def _cross_check(cell: Dict, spec, reference: Optional[Dict],
                 cancel_free: bool, fault_plan,
                 grid_report: InvariantReport) -> None:
    """Differential check against the centralized reference.

    Only the guarantees the paper actually makes are asserted: for
    cancellation-free streams (PLAIN/ADD_LEAF only, no event can lose
    its meaning) a pair of runs in which *neither* engine rejected must
    grant the identical count, and any rejecting run must sit inside
    the waste window ``[M - W, M]``.  Fault plans mutate the tree and
    the timing outside the request stream, so the equal-grants check is
    skipped there (the waste window still applies).
    """
    if reference is None or not cancel_free:
        return
    label = f"{spec.name}/{cell['policy']}/seed={cell['seed']}"
    if (cell["rejected"] == 0 and reference["rejected"] == 0
            and fault_plan.is_noop):
        grid_report.expect(
            cell["granted"] == reference["granted"], "differential",
            f"{label}: reject-free distributed run granted "
            f"{cell['granted']}, centralized reference "
            f"{reference['granted']}",
            scenario=spec.name, policy=cell["policy"], seed=cell["seed"])
    elif cell["rejected"] > 0:
        grid_report.expect(
            cell["granted"] >= spec.m - spec.w, "differential",
            f"{label}: rejecting run granted {cell['granted']}, below "
            f"waste window floor {spec.m - spec.w}",
            scenario=spec.name, policy=cell["policy"], seed=cell["seed"])



# ----------------------------------------------------------------------
# memory — Claim 4.8 node-state audit (the bench_e08 sweep).
# ----------------------------------------------------------------------
def _encoded_bits(board, log_n: float, log_u: float) -> float:
    """Bits to encode one whiteboard per the Claim 4.8 representation:
    per-level package counts, one merged static-pool integer, and one
    O(log N) record per queued agent (plus the two boolean flags)."""
    bits = 2.0  # lock flag + reject flag
    levels = {package.level for package in board.store.mobile}
    bits += len(levels) * log_u          # count per occupied level
    if board.store.static_permits:
        bits += 3 * log_n                # one O(log M) = O(log^3 N) integer
    bits += len(board.queue) * log_n     # queued agent records
    return bits


def _audit_boards(controller, audit: MemoryAudit,
                  log_n: float, log_u: float) -> None:
    for node, board in controller.boards.items():
        if node.alive:
            audit.record(node.node_id, node.child_degree,
                         _encoded_bits(board, log_n, log_u))


def run_memory(sizes: Optional[List[int]] = None,
               stagger: float = 0.25) -> Dict:
    """Per-node memory vs the Claim 4.8 bound, audited at peak load.

    Each size runs a concurrent distributed storm (``2n`` mixed-churn
    requests staggered ``stagger`` apart) and audits every live node's
    encoded whiteboard state — per-level package counts, the merged
    static pool, the agent queue — against
    ``deg(v) log N + log^3 N + log^2 U`` bits, once mid-flight (peak
    queueing) and once at quiescence.  The run **raises** if any node
    exceeds the bound or if the worst ratio grows with ``n`` (the bound
    would then be mis-stated); the JSON document records the per-size
    evidence.
    """
    sizes = sizes or [100, 400, 1600]
    rows = []
    for n in sizes:
        tree = build_random_tree(n, seed=n)
        u = 4 * n
        session = _session("distributed", tree, m=6 * n, w=n, u=u)
        audit = MemoryAudit()
        log_n, log_u = math.log2(2 * n), math.log2(u)
        rng = random.Random(n + 3)
        picker = NodePicker(tree)
        requests = [random_request(tree, rng, picker=picker)
                    for _ in range(2 * n)]
        picker.detach()
        start = time.perf_counter()
        session.submit_many(requests, stagger=stagger)
        # Audit mid-flight (peak queueing) and again at quiescence.
        session.scheduler.run(until=len(requests) * stagger / 2)
        _audit_boards(session.controller, audit, log_n, log_u)
        settled = list(session.drain())
        _audit_boards(session.controller, audit, log_n, log_u)
        wall = time.perf_counter() - start
        if len(settled) != len(requests):
            raise InvariantViolation(
                f"memory bench at n={n}: "
                f"{len(requests) - len(settled)} requests never resolved")
        worst = audit.worst_ratio(log_n, log_u)
        row = {
            "n": n, "u": u, "m": 6 * n, "w": n,
            "requests": len(requests),
            "samples": len(audit.samples),
            "worst_ratio": round(worst, 4),
            "within_bound": worst <= 1.0,
            "wall_ms": round(wall * 1000, 3),
        }
        row.update(tally_outcomes(r.outcome for r in settled))
        rows.append(row)
        session.close()
    ratios = [row["worst_ratio"] for row in rows]
    growth_ok = ratios[-1] <= 2.0 * max(ratios[0], 1e-6)
    document = {
        "scenario": "memory",
        "params": {"sizes": sizes, "stagger": stagger},
        "rows": rows,
        "worst_ratio": max(ratios),
        "within_bound": all(row["within_bound"] for row in rows),
        "ratio_growth_ok": growth_ok,
    }
    if not document["within_bound"] or not growth_ok:
        _raise_with(document, "Claim 4.8 memory audit failed: "
                    + ("node state exceeded the bound"
                       if not document["within_bound"]
                       else "worst ratio grows with n"))
    return document


# ----------------------------------------------------------------------
# apps — the Section 5 application layer, measured honestly.
# ----------------------------------------------------------------------
#: The churn mix the estimator benches have always used (bench_e05..e07):
#: topological requests only, additions slightly outweighing removals.
APP_BENCH_MIX = {
    RequestKind.ADD_LEAF: 0.35,
    RequestKind.ADD_INTERNAL: 0.15,
    RequestKind.REMOVE_LEAF: 0.30,
    RequestKind.REMOVE_INTERNAL: 0.20,
}

def _app_spec_for(name: str, **knobs: Any):
    from repro.service import AppSpec
    params: Dict[str, Any] = {}
    if name == "size_estimation" or name == "subtree_estimator":
        params["beta"] = 2.0
    if name == "majority_commit":
        params["total"] = 1 << 20  # the universe bound never binds here
    return AppSpec(name, params=params, **knobs)


def _drive_app_complexity(name: str, sizes: List[int],
                          steps_per_node: int, seed: int) -> Dict:
    """Messages-per-change sweep for one app on the new path: the
    bench_e05/e06/e07 measurement, CLI-shaped.  Reports the amortized
    cost per topological change, the ``12 log^2 n`` envelope ratio, a
    log-log slope of total messages against n (near 1 = near-linear
    totals = polylog amortized), and the app's guarantee statistic."""
    from repro.apps import make_app

    rows = []
    totals = []
    for n in sizes:
        tree = build_random_tree(n, seed=seed + n)
        app = make_app(_app_spec_for(name), tree=tree)
        rng = random.Random(seed + n + 1)
        picker = NodePicker(tree)
        worst: float = 0.0
        for _ in range(steps_per_node * n):
            request = random_request(tree, rng, mix=APP_BENCH_MIX,
                                     picker=picker)
            app.serve(request)
        picker.detach()
        report = app.audit()
        if not report.passed:
            raise InvariantViolation(
                f"app {name}: invariant audit failed at n={n}: "
                f"{report.violations[0].message}")
        if name == "subtree_estimator":
            # The Lemma 5.3 guarantee is about super-weights, not the
            # root size estimate: worst over-approximation over nodes
            # (estimates never undercount — every addition below v
            # shipped its permit through v first).
            worst = max(app.estimate_of(node) / app.true_super_weight(node)
                        for node in tree.nodes())
        elif name in ("size_estimation", "majority_commit",
                      "ancestry_labels", "routing_labels"):
            worst = app.check_approximation()
        elif name == "name_assignment":
            app.check_invariants()
            worst = max(app.ids[v] for v in tree.nodes()) / tree.size
        elif name == "heavy_child":
            worst = app.max_light_depth()
        messages = app.counters.total
        changes = max(tree.topology_changes, 1)
        per_change = messages / changes
        envelope = 12 * math.log2(max(tree.size, 4)) ** 2
        row = {
            "n": n, "final_n": tree.size, "changes": changes,
            "iterations": app.iterations_run,
            "messages": messages,
            "per_change": round(per_change, 2),
            "envelope_12log2": round(envelope, 2),
            "within_envelope": per_change <= envelope,
            "guarantee_stat": round(float(worst), 3),
        }
        if hasattr(app, "label_counters"):
            row["label_messages"] = app.label_counters.total
            row["label_per_change"] = round(
                app.label_counters.total / changes, 2)
        rows.append(row)
        totals.append(messages)
        app.close()
    return {
        "app": name,
        "rows": rows,
        # Total messages ~ n polylog(n): the log-log slope against n
        # stays near 1 when the amortized cost is polylog.  (None when
        # the sweep has a single size — a fit needs two points.)
        "log_log_slope": round(log_log_slope(sizes, totals), 4)
        if len(sizes) >= 2 else None,
        "polylog_envelope_held": all(r["within_envelope"] for r in rows),
    }


def _drive_app_grid_cell(name: str, policy: str, faults: Optional[str],
                         n: int, steps: int, seed: int,
                         grid_report: InvariantReport) -> Dict:
    """One event-driven cell: the app on the distributed engine under a
    schedule policy (and optionally a fault plan), invariant-audited."""
    from repro.apps import make_app
    from repro.service import IterationRecord

    cell_seed = _cell_seed("apps", name, policy, faults or "none", seed)
    tree = build_random_tree(n, seed=seed)
    spec = _app_spec_for(name, flavor="distributed",
                         schedule_policy=policy, faults=faults,
                         seed=cell_seed, max_in_flight=1 << 20)
    app = make_app(spec, tree=tree)
    # Pre-generated against the initial topology (catalogue style):
    # targets may vanish mid-run and resolve CANCELLED, which is the
    # Section 4.2 semantics, not an error.
    rng = random.Random(cell_seed)
    requests = [random_request(tree, rng, mix=APP_BENCH_MIX)
                for _ in range(steps)]
    start = time.perf_counter()
    app.submit_many(requests)
    stream = app.settle_all()
    wall = time.perf_counter() - start
    boundaries = sum(1 for r in stream if isinstance(r, IterationRecord))
    app.audit(grid_report)
    if name == "name_assignment":
        app.check_invariants()
    cell = {
        "app": name, "policy": policy, "faults": faults or "none",
        "iterations": app.iterations_run, "boundaries": boundaries,
        "engine_messages": app.engine_counters.total,
        "wall_ms": round(wall * 1000, 3),
    }
    cell.update(app.tally())
    if faults:
        # The whole-run view: banked per-iteration injector tallies
        # plus the live one (each rollover wires a fresh injector).
        cell["fault_stats"] = app.fault_stats
    app.close()
    return cell


def run_apps(apps: str = "all", sizes: Optional[List[int]] = None,
             steps_per_node: int = 3, seed: int = 0,
             policies: str = "fifo,random,adversary",
             faults: str = "stall=0.05",
             grid_n: int = 40, grid_steps: int = 120) -> Dict:
    """The application-layer sweeps: complexity + audited grid.

    Two sections, one JSON document (``BENCH_apps.json``):

    * **complexity** — the bench_e05/e06/e07 sweeps on the new path:
      messages per topological change against the ``12 log^2 n``
      polylog envelope, plus log-log fits of the totals
      (:mod:`repro.metrics.fitting`);
    * **grid** — every app event-driven on the distributed engine,
      per schedule policy, without and with a fault plan, audited by
      :func:`repro.metrics.invariants.audit_app`; the run **raises**
      on any violation.
    """
    from repro.service import APP_NAMES, resolve_app

    if apps == "all":
        names = list(APP_NAMES)
    else:
        # resolve_app applies the same spelling normalization every
        # other entry point accepts (hyphens, whitespace) and raises
        # ConfigError — a ValueError — naming the registry.
        names = _nonempty([resolve_app(part)
                           for part in apps.split(",") if part.strip()],
                          "app")
    sizes = sizes or [100, 200, 400]
    policy_list = _nonempty(
        [p.strip() for p in policies.split(",") if p.strip()], "policy")
    for policy in policy_list:
        if policy not in SCHEDULE_POLICIES:
            raise ConfigError(
                f"unknown policy {policy!r}; known: "
                f"{', '.join(SCHEDULE_POLICIES)}")

    complexity = [_drive_app_complexity(name, sizes, steps_per_node, seed)
                  for name in names]

    grid_report = InvariantReport()
    cells = []
    for name in names:
        for policy in policy_list:
            for plan in (None, faults):
                cells.append(_drive_app_grid_cell(
                    name, policy, plan, grid_n, grid_steps, seed,
                    grid_report))

    document = {
        "scenario": "apps",
        "params": {
            "apps": names, "sizes": sizes,
            "steps_per_node": steps_per_node, "seed": seed,
            "policies": policy_list, "faults": faults,
            "grid_n": grid_n, "grid_steps": grid_steps,
        },
        "complexity": complexity,
        "grid": {
            "cells": cells,
            "invariants": grid_report.to_json(),
            "checks_run": sum(grid_report.checks.values()),
            "violations": len(grid_report.violations),
            "passed": grid_report.passed,
        },
    }
    return _checked(document, grid_report, "the apps grid")


SCENARIOS = {
    "move_complexity": run_move_complexity,
    "scenario": run_scenario_grid,
    "memory": run_memory,
    "apps": run_apps,
}
