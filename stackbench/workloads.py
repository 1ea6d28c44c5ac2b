"""The four workloads, each a repeatable *pass* over the public API.

A run of a workload serves a pool of instances, one pass each;
instance ``i`` of seed ``s`` draws its trees and stream from the
sub-seed ``s * STRIDE + i``.  The pool averages over many trees and
streams, so a run's figures do not rest on one draw.  Its size is
fixed per workload and per ``--seconds`` (never by measured speed), so
a faster program serves the same inputs, only sooner.

A pass builds the trees and the stack (timed: set-up), serves the
stream (timed: the work), then audits and reads the deterministic
counters (untimed).  Every stream is pre-generated from the scenario
catalogue, so the program only ever sees requests.

* ``deep_serve`` — closed loop, one caller: ``ControllerSession.serve``
  on ``terminating`` over ``deep_burst`` x10 (tree + core).
* ``labels_churn`` — closed loop, one caller: the ``ancestry_labels``
  app's ``serve`` over ``mixed_flood`` x10 (apps + the tree's writes).
* ``storm_random`` — ``deep_burst`` x1 injected with ``submit_many`` on
  ``distributed`` under the ``random`` policy, then drained
  (sim + distributed + the session pump).
* ``gateway_open`` — open loop: one generator thread feeds a started
  ``Gateway`` over a 4-shard ``FleetRouter`` at fixed rates
  (gateway + fleet + service).
"""

import random
import time
from array import array
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Deque, Dict, List, Optional, Tuple

import repro
from repro import (
    AppSpec,
    ControllerSession,
    ControllerSpec,
    FleetConfig,
    FleetRouter,
    Gateway,
    GatewayConfig,
    SessionConfig,
    make_app,
)
from repro.workloads import ScenarioSpec, get_scenario

from stats import quantile
from tracer import NullTracer

UNTRACED = NullTracer()

perf_counter = time.perf_counter


@dataclass
class PassResult:
    """What one pass measured and observed."""

    instance: int
    setup_s: float
    busy_s: float
    requests: int
    #: Per-request wall latency in seconds (floats only).
    latencies: "array[float]"
    #: Deterministic tallies and counters; the gate compares these.
    observed: Dict[str, Any]
    #: Audit name -> passed.
    audits: Dict[str, bool]
    #: Program-state counts for the per-layer report.
    layer: Dict[str, float] = field(default_factory=dict)
    #: Requests that failed: shed, backpressured, aborted, unsettled.
    failed: int = 0
    #: Open loop only: the generator's worst lateness, in seconds.
    late_max_s: float = 0.0
    #: Open loop only: time from the last due instant to the last
    #: settlement, in seconds (a growing backlog shows here).
    drain_s: float = 0.0
    #: How much slower than the reference host the interpreter ran
    #: around this pass (set by the caller; see ``run.HostGauge``).
    host: float = 1.0


def _moves(counters: Any) -> Dict[str, int]:
    return dict(counters.snapshot())


def _share(tally: Dict[str, int], verdict: str) -> float:
    total = sum(tally.values())
    return tally.get(verdict, 0) / total if total else 0.0


def _verdicts(tally: Dict[str, int]) -> Dict[str, int]:
    return {key: value for key, value in tally.items() if value}


def _layer_counts(tally: Dict[str, int], counters: Dict[str, int]
                  ) -> Dict[str, float]:
    return {
        "core.package_moves": counters.get("package_moves", 0),
        "core.relocation_moves": counters.get("relocation_moves", 0),
        "core.reject_moves": counters.get("reject_moves", 0),
        "core.reset_moves": counters.get("reset_moves", 0),
        "core.granted_share": _share(tally, "granted"),
        "core.cancelled_share": _share(tally, "cancelled"),
    }


#: Sub-seed stride between seeds: instance ``i`` of seed ``s`` is the
#: same whatever the pool size.
STRIDE = 1000


class Workload:
    """One named workload at one seed; ``scale`` < 1 shrinks it for
    the benchmark's own tests."""

    name = ""
    why = ""
    #: Pool instances per second of ``--seconds`` (a pass's length on
    #: the reference host, inverted).
    per_second = 1.0

    def __init__(self, seed: int, scale: float = 1.0,
                 seconds: float = 20.0) -> None:
        self.seed = seed
        self.scale = scale
        self.instances = max(2, round(self.per_second * seconds))

    def sub_seed(self, instance: int) -> int:
        return self.seed * STRIDE + instance

    @property
    def requests_per_pass(self) -> int:
        return int(self.spec().steps)

    def spec(self) -> ScenarioSpec:
        raise NotImplementedError

    def run_pass(self, instance: int, tracer: Any = UNTRACED
                 ) -> PassResult:
        raise NotImplementedError

    def expectation(self, instance: int) -> Dict[str, Any]:
        """The deterministic counters of one instance, computed without
        timing anything (what ``expected.json`` records)."""
        return self.run_pass(instance).observed


# ----------------------------------------------------------------------
# Closed loops.
# ----------------------------------------------------------------------
def _serve_loop(serve: Any, stream: List[Any]
                ) -> Tuple[float, "array[float]"]:
    latencies = array("d")
    append = latencies.append
    clock = perf_counter
    start = clock()
    for request in stream:
        began = clock()
        serve(request)
        append(clock() - began)
    return clock() - start, latencies


class DeepServe(Workload):
    name = "deep_serve"
    why = ("read-heavy tree + core: one caller serving deep_burst x10 "
           "on a path of 1,500 nodes")
    per_second = 3.0

    def spec(self) -> ScenarioSpec:
        return get_scenario("deep_burst").scaled(10 * self.scale)

    def run_pass(self, instance: int, tracer: Any = UNTRACED
                 ) -> PassResult:
        spec, seed = self.spec(), self.sub_seed(instance)
        began = perf_counter()
        tree = spec.build_tree(seed=seed)
        setup = perf_counter() - began
        stream = spec.stream(tree, seed=seed)
        tracer.register(stream)
        tracer.install()
        began = perf_counter()
        session = ControllerSession(
            SessionConfig(controller=ControllerSpec(
                "terminating", m=spec.m, w=spec.w, u=spec.u)),
            tree=tree)
        setup += perf_counter() - began
        tracer.begin()
        busy, latencies = _serve_loop(session.serve, stream)
        tracer.end()
        tracer.uninstall()
        tally = session.tally()
        counters = _moves(session.controller.counters)
        audits = {"session.audit": session.audit().passed}
        session.close()
        observed = {"verdicts": _verdicts(tally), "moves": counters,
                    "tree_size": tree.size}
        return PassResult(instance, setup, busy, len(stream), latencies,
                          observed, audits, _layer_counts(tally, counters))


class LabelsChurn(Workload):
    name = "labels_churn"
    why = ("write-heavy tree + apps: one caller serving mixed_flood x10 "
           "through the ancestry_labels app; relabels set the tail")
    per_second = 1.0

    def spec(self) -> ScenarioSpec:
        return get_scenario("mixed_flood").scaled(10 * self.scale)

    def run_pass(self, instance: int, tracer: Any = UNTRACED
                 ) -> PassResult:
        spec, seed = self.spec(), self.sub_seed(instance)
        began = perf_counter()
        tree = spec.build_tree(seed=seed)
        setup = perf_counter() - began
        stream = spec.stream(tree, seed=seed)
        tracer.register(stream)
        tracer.install()
        began = perf_counter()
        app = make_app(AppSpec("ancestry_labels"), tree=tree)
        setup += perf_counter() - began
        tracer.begin()
        busy, latencies = _serve_loop(app.serve, stream)
        tracer.end()
        tracer.uninstall()
        # The labels must answer ancestry queries truthfully.
        rng = random.Random(seed)
        nodes = list(tree.nodes())
        pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(400)]
        pairs += [(node.parent, node) for node in nodes[:200]
                  if node.parent is not None]
        try:
            app.check_correctness(pairs)
            labels_ok = True
        except repro.InvariantViolation:
            labels_ok = False
        tally = app.tally()
        counters = _moves(app.counters)
        label_moves = _moves(app.label_counters)
        audits = {"app.audit": app.audit().passed,
                  "labels.ancestry": labels_ok}
        observed = {"verdicts": _verdicts(tally), "moves": counters,
                    "label_moves": label_moves, "relabels": app.relabels,
                    "iterations": app.iterations_run,
                    "tree_size": tree.size}
        layer = _layer_counts(tally, counters)
        layer.update({"apps.relabels": app.relabels,
                      "apps.iterations": app.iterations_run,
                      "apps.app_moves": label_moves["total"]})
        app.close()
        return PassResult(instance, setup, busy, len(stream), latencies,
                          observed, audits, layer)


# ----------------------------------------------------------------------
# The event-driven storm.
# ----------------------------------------------------------------------
class StormRandom(Workload):
    name = "storm_random"
    why = ("sim + distributed + session pump: deep_burst injected at "
           "once under the random schedule policy, then drained")
    per_second = 0.6
    stagger = 0.25

    def spec(self) -> ScenarioSpec:
        return get_scenario("deep_burst").scaled(self.scale)

    def run_pass(self, instance: int, tracer: Any = UNTRACED
                 ) -> PassResult:
        spec, seed = self.spec(), self.sub_seed(instance)
        began = perf_counter()
        tree = spec.build_tree(seed=seed)
        setup = perf_counter() - began
        stream = spec.stream(tree, seed=seed)
        tracer.register(stream)
        tracer.install()
        began = perf_counter()
        session = ControllerSession(
            SessionConfig(
                controller=ControllerSpec("distributed", m=spec.m,
                                          w=spec.w, u=spec.u),
                schedule_policy="random", seed=seed,
                stagger=self.stagger, max_in_flight=len(stream)),
            tree=tree)
        setup += perf_counter() - began
        latencies = array("d")
        sim_latency: List[float] = []
        clock = perf_counter
        tracer.begin()
        start = clock()
        session.submit_many(stream)
        # The caller waits on the drain for one settlement after
        # another; each wait is that request's share of the storm.
        last = clock()
        for record in session.drain():
            now = clock()
            latencies.append(now - last)
            last = now
            sim_latency.append(record.latency)
        busy = clock() - start
        tracer.end()
        tracer.uninstall()
        tally = session.tally()
        scheduler = session.scheduler
        assert scheduler is not None
        messages = _moves(getattr(session.controller, "counters"))
        audits = {"session.audit": session.audit().passed,
                  "settled_all": len(latencies) == len(stream)}
        session.close()
        observed = {
            "verdicts": _verdicts(tally), "messages": messages,
            "events": scheduler.executed,
            "sim_latency_p50": quantile(sim_latency, 0.50),
            "sim_latency_p99": quantile(sim_latency, 0.99),
            "simulated_time": scheduler.now,
        }
        layer = {
            "core.granted_share": _share(tally, "granted"),
            "core.cancelled_share": _share(tally, "cancelled"),
            "sim.events": scheduler.executed,
            "distributed.agent_hops": messages["agent_hops"],
            "distributed.broadcast_messages":
                messages["broadcast_messages"],
            "distributed.relocation_messages":
                messages["relocation_messages"],
            "distributed.reject_messages": messages["reject_messages"],
            "service.backpressured": session.backpressured,
        }
        failed = len(stream) - len(latencies) + session.backpressured
        return PassResult(instance, setup, busy, len(stream), latencies,
                          observed, audits, layer, failed=failed)


# ----------------------------------------------------------------------
# The front door: Gateway -> FleetRouter over 4 skewed shards.
# ----------------------------------------------------------------------
#: What serving a stream gave: latencies (s), failed requests, the
#: generator's worst lateness (s), the final drain (s) and busy time (s).
Served = Tuple["array[float]", int, float, float, float]


class _FrontDoor(Workload):
    """A ``Gateway`` over a 4-shard ``FleetRouter``: each shard has its
    own ``mixed_flood``-shaped tree and stream, interleaved by the seed,
    and one hot shard carries most of the load."""

    shards = 4
    #: The hot shard's requests per pass; each cold shard gets
    #: ``cold_share`` of that.
    hot_requests = 1500
    cold_share = 0.3

    def _tree_spec(self) -> ScenarioSpec:
        return get_scenario("mixed_flood").scaled(3 * self.scale)

    def _shard_seed(self, instance: int, shard: int) -> int:
        return self.sub_seed(instance) * self.shards + shard

    def _trees(self, instance: int) -> List[repro.DynamicTree]:
        spec = self._tree_spec()
        return [spec.build_tree(seed=self._shard_seed(instance, shard))
                for shard in range(self.shards)]

    def _lengths(self) -> List[int]:
        hot = max(int(self.hot_requests * self.scale), 16)
        return [hot] + [max(int(hot * self.cold_share), 4)] * (
            self.shards - 1)

    @property
    def requests_per_pass(self) -> int:
        return sum(self._lengths())

    def _stream(self, instance: int, trees: List[repro.DynamicTree]
                ) -> List[Any]:
        """Per-shard mixed_flood streams, interleaved by the seed."""
        spec = self._tree_spec()
        lengths = self._lengths()
        streams = []
        for shard, (tree, length) in enumerate(zip(trees, lengths)):
            streams.append(iter(replace(spec, steps=length).stream(
                tree, seed=self._shard_seed(instance, shard))))
        order = [shard for shard, length in enumerate(lengths)
                 for _ in range(length)]
        random.Random(self.sub_seed(instance)).shuffle(order)
        return [next(streams[shard]) for shard in order]

    def _config(self, instance: int, requests: int) -> FleetConfig:
        spec = self._tree_spec()
        # The global budget covers the stream; the hot shard's even
        # carve does not, so the fleet rebalances for real.
        return FleetConfig.of(
            shards=self.shards, m_total=int(0.85 * requests),
            w_total=self.shards * spec.w, u=spec.u,
            seed=self.sub_seed(instance))

    def _observe(self, fleet: FleetRouter) -> Dict[str, Any]:
        return {
            "verdicts": _verdicts(fleet.tally()),
            "transfers": len(fleet.ledger),
            "granted_total": fleet.granted_total,
            "served": [shard.served for shard in fleet.shards],
            "moves": [_moves(shard.counters) for shard in fleet.shards],
        }

    def expectation(self, instance: int) -> Dict[str, Any]:
        """Serve the stream straight through the fleet, no gateway: the
        gateway path must settle every request identically."""
        trees = self._trees(instance)
        stream = self._stream(instance, trees)
        with FleetRouter(self._config(instance, len(stream)),
                         trees=trees) as fleet:
            for request in stream:
                fleet.serve(request)
            return self._observe(fleet)

    def _serve(self, gateway: Gateway, stream: List[Any],
               rate: Optional[float]) -> Served:
        raise NotImplementedError

    def run_pass(self, instance: int, tracer: Any = UNTRACED,
                 rate: Optional[float] = None) -> PassResult:
        began = perf_counter()
        trees = self._trees(instance)
        setup = perf_counter() - began
        stream = self._stream(instance, trees)
        tracer.register(stream)
        tracer.install()
        began = perf_counter()
        fleet = FleetRouter(self._config(instance, len(stream)),
                            trees=trees)
        gateway = Gateway(fleet, GatewayConfig(
            queue_capacity=len(stream), batch_size=64), clock=perf_counter)
        if rate is not None:
            gateway.start()
        setup += perf_counter() - began
        try:
            tracer.begin()
            served = self._serve(gateway, stream, rate)
            gateway.stop()
            tracer.end()
            tracer.uninstall()
            stats = gateway.stats
            audits = {"gateway.audit": gateway.audit().passed,
                      "fleet.audit": fleet.audit().passed}
            observed = self._observe(fleet)
        finally:
            tracer.uninstall()
            gateway.close()
            fleet.close()
        latencies, failed, late, drain, busy = served
        served_per_shard = [shard.served for shard in fleet.shards]
        tally = fleet.tally()
        moves = [_moves(shard.counters) for shard in fleet.shards]
        layer = _layer_counts(tally, {
            key: sum(m[key] for m in moves) for key in moves[0]})
        layer.update({
            "gateway.batch_mean": (stats.accepted / stats.batches
                                   if stats.batches else 0.0),
            "gateway.idle_cycles": stats.cycles - stats.batches,
            "gateway.max_queue_depth": stats.max_queue_depth,
            "fleet.transfers": len(fleet.ledger),
            "fleet.transfers_per_req": len(fleet.ledger) / len(stream),
            "fleet.shard_load_max_over_mean": max(served_per_shard) / (
                sum(served_per_shard) / len(served_per_shard)),
            "service.backpressured": stats.backpressured
                + fleet.backpressured,
        })
        return PassResult(instance, setup, busy, len(stream), latencies,
                          observed, audits, layer, failed=failed,
                          late_max_s=late, drain_s=drain)

    @staticmethod
    def _failed(ticket: Any) -> bool:
        """Refused (shed, backpressure), aborted or never settled."""
        verdict = ticket.verdict if ticket.done else None
        return verdict is None or verdict.value in ("shed", "backpressure")


class GatewayWaves(_FrontDoor):
    name = "gateway_waves"
    why = ("gateway + fleet + service: waves of 256 requests through a "
           "Gateway pumped inline over 4 skewed fleet shards")
    per_second = 2.0
    hot_requests = 3000
    #: Requests per wave: submitted together, then pumped until idle.
    wave = 256

    def _serve(self, gateway: Gateway, stream: List[Any],
               rate: Optional[float]) -> Served:
        """One caller: submit a wave, pump inline until the gateway is
        idle, read each ticket's own submit-to-settle stamps."""
        latencies = array("d")
        failed = 0
        submit = gateway.submit
        start = perf_counter()
        for first in range(0, len(stream), self.wave):
            tickets = [submit(request)
                       for request in stream[first:first + self.wave]]
            gateway.run_until_idle()
            for ticket in tickets:
                if self._failed(ticket):
                    failed += 1
                else:
                    latencies.append(ticket.latency_wall)
        return latencies, failed, 0.0, 0.0, perf_counter() - start


class GatewayOpen(_FrontDoor):
    """The open-loop probe of the same front door (run on request; not
    in ``BENCHMARK.json``, see README.md)."""

    name = "gateway_open"
    why = ("gateway + fleet + service: an open-loop generator at fixed "
           "rates into a started Gateway over 4 skewed fleet shards")
    per_second = 0.4
    #: The offered rate (requests per second) of the headline latency,
    #: well below saturation.
    headline_rate = 3000
    #: The sustained rate is bisected within this range of offered
    #: rates, in ``probes`` passes.  A probe holds when no request
    #: failed, its p99 latency is within ``limit_s`` and its backlog
    #: does not grow: the last request settles within ``backlog_s`` of
    #: its due instant.
    sustained_range = (1000.0, 40000.0)
    probes = 7
    limit_s = 0.050
    backlog_s = 0.005

    def _serve(self, gateway: Gateway, stream: List[Any],
               rate: Optional[float]) -> Served:
        """``rate`` None is the capacity probe: the whole stream is
        queued before the worker starts, and the pass times the worker
        draining it."""
        if rate is None:
            failed, busy = self._capacity(gateway, stream)
            return array("d"), failed, 0.0, 0.0, busy
        return self._open_loop(gateway, stream, rate)

    @classmethod
    def _harvest(cls, outstanding: Deque[Tuple[float, Any]],
                 latencies: "array[float]", everything: bool = False
                 ) -> int:
        """Turn settled tickets at the head into latency floats; returns
        how many failed."""
        failed = 0
        while outstanding and (everything or outstanding[0][1].done):
            due, ticket = outstanding.popleft()
            if cls._failed(ticket):
                failed += 1
            else:
                latencies.append(ticket.settle_wall - due)
        return failed

    def _capacity(self, gateway: Gateway, stream: List[Any]
                  ) -> Tuple[int, float]:
        outstanding: Deque[Tuple[float, Any]] = deque(
            (0.0, gateway.submit(request)) for request in stream)
        start = perf_counter()
        gateway.start()
        gateway.join(timeout=120)
        busy = perf_counter() - start
        return self._harvest(outstanding, array("d"), everything=True), busy

    def _open_loop(self, gateway: Gateway, stream: List[Any], rate: float
                   ) -> Served:
        """The generator: sleeps until each due instant, never spins;
        latency runs from the due instant to settlement."""
        latencies = array("d")
        outstanding: Deque[Tuple[float, Any]] = deque()
        interval = 1.0 / rate
        submit = gateway.submit
        clock = perf_counter
        sleep = time.sleep
        total = len(stream)
        origin = clock() + 0.002
        late = 0.0
        failed = 0
        index = 0
        while index < total:
            now = clock()
            due = origin + index * interval
            if due > now:
                sleep(due - now)
                continue
            if now - due > late:
                late = now - due
            while index < total and origin + index * interval <= now:
                outstanding.append((origin + index * interval,
                                    submit(stream[index])))
                index += 1
            failed += self._harvest(outstanding, latencies)
        last_due = origin + (total - 1) * interval
        gateway.join(timeout=120)
        finished = clock()
        failed += self._harvest(outstanding, latencies, everything=True)
        drain = max(finished - last_due, 0.0)
        return latencies, failed, late, drain, finished - origin


#: The workloads ``BENCHMARK.json`` declares, in its order.
WORKLOADS = {cls.name: cls for cls in (DeepServe, LabelsChurn,
                                       StormRandom, GatewayWaves)}
#: Every workload ``--workload`` accepts.
ALL_WORKLOADS = dict(WORKLOADS, gateway_open=GatewayOpen)
