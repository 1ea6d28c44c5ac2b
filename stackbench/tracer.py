"""Span tracing from outside the program, for the traced run only.

:meth:`Tracer.install` replaces public entry points of each layer
with wrappers, at class level, that record spans into the tracer;
:meth:`Tracer.uninstall` puts the originals back.  Nothing in
``src/`` knows about it: the untraced runs execute the program's own
methods untouched.

A span is ``(span_id, layer, name, start, end, parent_id, request_id,
thread_id)``.  Spans of one request share its request id: a wrapper
whose arguments include a :class:`repro.Request` the benchmark
registered takes that request's id, any other span inherits its
parent's, and a callback handed to the simulator (or to the
distributed engine's settlement hook) keeps the id that was current
when it was scheduled.  A layer's self time is its span time minus the
time of its child spans; per thread, the time no span covers is the
uncovered remainder, reported beside the layers rather than dropped.
"""

import functools
import itertools
import json
import threading
import time
import types
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro
from repro.fleet.router import FleetRouter
from repro.gateway.gateway import Gateway
from repro.registry import CONTROLLER_REGISTRY
from repro.service.envelopes import Ticket
from repro.sim.scheduler import Scheduler
from repro.tree import paths
from repro.tree.dynamic_tree import DynamicTree, TreeListener

#: Layers in stack order, bottom up.  ``baselines`` (the trivial
#: controller a fleet shard falls back to) is billed to ``core``.
LAYERS = ("tree", "core", "sim", "distributed", "service", "apps",
          "gateway", "fleet")

#: The tree's read path: the jump-table queries and the parent walks
#: of ``repro.tree.paths`` that the engines fall back to.
DEPTH_CALLS = ("depth", "ancestor_at", "ancestor_distance", "paths.depth",
               "paths.ancestor_at", "paths.distance_to_ancestor")
MUTATIONS = ("add_leaf", "add_internal", "remove_leaf", "remove_internal")
LISTENER_HOOKS = ("on_add_leaf", "on_add_internal", "on_remove_leaf",
                  "on_remove_internal")

Span = Tuple[int, str, str, float, float, int, int, int]


def layer_of(module: str) -> str:
    """The stack layer a ``repro.<layer>...`` module belongs to."""
    parts = module.split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return "bench"
    return "core" if parts[1] == "baselines" else parts[1]


class NullTracer:
    """The untraced run's stand-in: every hook is a no-op."""

    def register(self, requests: List[Any]) -> None:
        pass

    def install(self) -> None:
        pass

    def uninstall(self) -> None:
        pass

    def begin(self) -> None:
        pass

    def end(self) -> None:
        pass


class _Frame:
    __slots__ = ("span_id", "rid", "child")

    def __init__(self, span_id: int, rid: int) -> None:
        self.span_id = span_id
        self.rid = rid
        self.child = 0.0


class Tracer:
    """Records spans in memory; aggregates self time per layer."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Root-span time per thread: what the spans cover.
        self.covered_s: Dict[int, float] = defaultdict(float)
        #: ``id(request) -> request id`` for the requests the benchmark
        #: registered (the program only ever sees the requests).
        self.rids: Dict[int, int] = {}
        #: Gateway admission instants by request, and how long each
        #: request waited in the gateway's queue.
        self.submitted_at: Dict[int, float] = {}
        self.queue_waits: List[float] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._originals: List[Tuple[Any, str, Any]] = []
        self.window = (0.0, 0.0)

    # ------------------------------------------------------------------
    # Span recording.
    # ------------------------------------------------------------------
    def register(self, requests: List[Any]) -> None:
        """Give each request of a stream its request id (its index)."""
        self.rids.update((id(request), index)
                         for index, request in enumerate(requests))

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _rid_of(self, args: Tuple[Any, ...], stack: List[_Frame]) -> int:
        for arg in args:
            if isinstance(arg, repro.Request):
                rid = self.rids.get(id(arg))
                if rid is not None:
                    return rid
        return stack[-1].rid if stack else -1

    def call(self, layer: str, name: str, fn: Callable[..., Any],
             args: Tuple[Any, ...], kwargs: Dict[str, Any],
             rid: Optional[int] = None) -> Any:
        stack = self._stack()
        if rid is None:
            rid = self._rid_of(args, stack)
        parent = stack[-1].span_id if stack else 0
        frame = _Frame(next(self._ids), rid)
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            self.self_s[layer] += duration - frame.child
            self.calls[name] += 1
            if stack:
                stack[-1].child += duration
            else:
                self.covered_s[threading.get_ident()] += duration
            self.spans.append((frame.span_id, layer, name, start, end,
                               parent, rid, threading.get_ident()))

    def current_rid(self) -> int:
        stack = self._stack()
        return stack[-1].rid if stack else -1

    def deferred(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap a callback handed to another layer: it runs as a span of
        the layer that defined it, under the request id current now."""
        layer = layer_of(getattr(fn, "__module__", None) or "")
        name = f"{layer}.callback"
        rid = self.current_rid()

        def run(*args: Any, **kwargs: Any) -> Any:
            return self.call(layer, name, fn, args, kwargs, rid=rid)
        return run

    # ------------------------------------------------------------------
    # Installation.
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, method: str,
               make: Callable[[Any], Any]) -> None:
        original = owner.__dict__[method]
        self._originals.append((owner, method, original))
        setattr(owner, method, make(original))

    def wrap(self, owner: Any, method: str, name: str = "") -> None:
        """Record a span around every call of ``owner.method``; the
        owner is a class or a module."""
        module = (owner.__name__ if isinstance(owner, types.ModuleType)
                  else owner.__module__)
        layer = layer_of(module)
        label = name or f"{owner.__name__}.{method}"

        def make(fn: Callable[..., Any]) -> Callable[..., Any]:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                return self.call(layer, label, fn, args, kwargs)
            return wrapper
        self._patch(owner, method, make)

    def install(self) -> None:
        """Wrap the layers' entry points (before the stack is built, so
        bound methods the stack caches are the wrapped ones)."""
        _install(self)

    def wrap_iterator(self, owner: Any, method: str) -> None:
        """Record a span around each step of the iterator that
        ``owner.method`` returns (a drain loop runs between steps)."""
        layer = layer_of(owner.__module__)
        label = f"{owner.__name__}.{method}"

        def make(fn: Callable[..., Any]) -> Callable[..., Any]:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                iterator = fn(*args, **kwargs)
                while True:
                    try:
                        item = self.call(layer, label, next, (iterator,), {})
                    except StopIteration:
                        return
                    yield item
            return wrapper
        self._patch(owner, method, make)

    def uninstall(self) -> None:
        for owner, method, original in reversed(self._originals):
            setattr(owner, method, original)
        self._originals.clear()

    def begin(self) -> None:
        """Open the measured window: drop what set-up recorded."""
        self.spans.clear()
        self.self_s.clear()
        self.calls.clear()
        self.covered_s.clear()
        self.submitted_at.clear()
        self.queue_waits.clear()
        self.window = (time.perf_counter(), 0.0)

    def end(self) -> None:
        self.window = (self.window[0], time.perf_counter())

    @property
    def wall_s(self) -> float:
        """Window length times the threads that ran in it (the caller's
        thread always counts)."""
        threads = set(self.covered_s) | {threading.get_ident()}
        return (self.window[1] - self.window[0]) * len(threads)

    @property
    def uncovered_s(self) -> float:
        return self.wall_s - sum(self.self_s.values())

    # ------------------------------------------------------------------
    # Reports.
    # ------------------------------------------------------------------
    def count(self, *names: str) -> int:
        return sum(self.calls[name] for name in names)

    def durations(self, name: str) -> List[float]:
        return [end - start for _, _, label, start, end, *_ in self.spans
                if label == name]

    def write(self, path: str) -> None:
        """One JSON object per span (the format is the tuple above)."""
        keys = ("span", "layer", "name", "start", "end", "parent",
                "request", "thread")
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def _listener_classes() -> List[type]:
    found: List[type] = []
    pending = list(TreeListener.__subclasses__())
    while pending:
        cls = pending.pop()
        if layer_of(cls.__module__) in LAYERS:
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


def _install(tracer: "Tracer") -> None:
    """Wrap every layer's entry points so ``tracer`` records them."""
    wrap = tracer.wrap
    # tree: the read path (depth queries) and the write path.
    for method in ("depth", "ancestor_at", "ancestor_distance") + MUTATIONS:
        wrap(DynamicTree, method, method)
    for function in ("depth", "ancestor_at", "distance_to_ancestor"):
        wrap(paths, function, f"paths.{function}")
    # Listener fan-out runs inside tree mutations; each listener is
    # billed to the layer that defined it (core, apps, distributed,
    # fleet).
    for cls in _listener_classes():
        for hook in LISTENER_HOOKS:
            if hook in cls.__dict__:
                wrap(cls, hook)
    # core / distributed: every registered engine's request entry.
    engines = {klass for cls in CONTROLLER_REGISTRY.values()
               for klass in cls.__mro__
               if layer_of(klass.__module__) in LAYERS}
    for klass in engines:
        for method in ("handle", "handle_batch"):
            if method in klass.__dict__:
                wrap(klass, method)
    distributed = CONTROLLER_REGISTRY["distributed"]

    def make_submit(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def submit(engine: Any, request: Any, delay: float = 0.0,
                   callback: Optional[Callable[..., Any]] = None) -> Any:
            if callback is not None:
                callback = tracer.deferred(callback)
            return tracer.call("distributed", "DistributedController.submit",
                               fn, (engine, request, delay, callback), {})
        return submit
    tracer._patch(distributed, "submit", make_submit)
    # sim: event execution, and every event callback as a span of the
    # layer that scheduled it.
    wrap(Scheduler, "step")
    wrap(Scheduler, "run")

    def make_schedule(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def schedule(scheduler: Any, delay: float,
                     callback: Callable[[], None]) -> Any:
            return fn(scheduler, delay, tracer.deferred(callback))
        return schedule
    tracer._patch(Scheduler, "schedule", make_schedule)
    # service: the session surface and ticket settlement.
    for method in ("serve", "serve_stream", "submit", "submit_many",
                   "settle_all"):
        wrap(repro.ControllerSession, method)
    tracer.wrap_iterator(repro.ControllerSession, "drain")
    wrap(Ticket, "result")
    # apps: the app surface (subclasses inherit the wrapped base).
    for method in ("serve", "serve_stream", "submit", "submit_many"):
        wrap(repro.AppSession, method)
    tracer.wrap_iterator(repro.AppSession, "drain")
    # gateway: admission (noting when each request was admitted, for
    # its queue wait) and the pump.
    def make_gateway_submit(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def submit(gateway: Any, request: Any, *args: Any,
                   **kwargs: Any) -> Any:
            tracer.submitted_at[id(request)] = time.perf_counter()
            return tracer.call("gateway", "Gateway.submit", fn,
                               (gateway, request) + args, kwargs)
        return submit
    tracer._patch(Gateway, "submit", make_gateway_submit)
    wrap(Gateway, "pump")
    # fleet: the session surface, plus the pump that the public
    # Ticket.result drives (otherwise fleet settlement would be billed
    # to whichever layer called result()).
    def make_fleet_submit_many(fn: Callable[..., Any]
                               ) -> Callable[..., Any]:
        @functools.wraps(fn)
        def submit_many(fleet: Any, requests: Any, *args: Any,
                        **kwargs: Any) -> Any:
            now = time.perf_counter()
            requests = list(requests)
            for request in requests:
                admitted = tracer.submitted_at.pop(id(request), None)
                if admitted is not None:
                    tracer.queue_waits.append(now - admitted)
            return tracer.call("fleet", "FleetRouter.submit_many", fn,
                               (fleet, requests) + args, kwargs)
        return submit_many
    tracer._patch(FleetRouter, "submit_many", make_fleet_submit_many)
    for method in ("serve", "submit", "_pump"):
        wrap(FleetRouter, method)
    tracer.wrap_iterator(FleetRouter, "drain")
