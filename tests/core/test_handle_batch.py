"""Batch semantics: ``handle_batch`` must be outcome- and counter-exact.

The contract of the request engine (docs/architecture.md): feeding a
request stream through ``handle_batch`` in chunks of any size yields
*identical* per-request outcomes and move-counter accounting to feeding
the same stream through sequential ``handle`` calls.  Verified here by
driving twin trees (identical construction => identical node ids) with
a recorded stream, across every initial topology of
``workloads/scenarios.py``, every request mix, and all four controller
flavours — plus a twin whose controller lost the tree's store-slot
arbitration, so the slot fast path is proven behaviour-preserving
against dict stores, and a twin pinned to the filler climb, so the
indexed host scan is proven to take the same packages.
"""

import random
from unittest import mock

import pytest

from repro.core.adaptive import AdaptiveController
from repro.core.centralized import CentralizedController
from repro.core.iterated import IteratedController
from repro.core.kernel import KernelTrace
from repro.core.packages import NodeStore
from repro.core.requests import RequestKind
from repro.core.terminating import TerminatingController
from repro.workloads import (
    NodePicker,
    TreeMirror,
    build_caterpillar,
    build_path,
    build_random_tree,
    build_star,
    default_mix,
    grow_only_mix,
    random_request,
    request_spec,
)

TOPOLOGIES = {
    "random": lambda n: build_random_tree(n, seed=11),
    "path": build_path,
    "star": build_star,
    "caterpillar": build_caterpillar,
}


def drive_twins(make_controller, build, n, steps, batch_size, mix, seed,
                slotless_b=False):
    """Run a stream sequentially on tree A, batched on twin tree B;
    return both (controller, outcomes, tree) triples.

    With ``slotless_b`` B's store slots are claimed before its
    controller is built, so B runs what a controller that loses slot
    arbitration runs: dict stores, the filler climb and parent-pointer
    walks.
    """
    tree_a, tree_b = build(n), build(n)
    if slotless_b:
        tree_b.store_slot_owner = object()
    ctrl_a, submit_a = make_controller(tree_a)
    ctrl_b, _ = make_controller(tree_b)

    rng = random.Random(seed)
    picker = NodePicker(tree_a)
    mirror = TreeMirror(tree_b)
    outcomes_a, specs = [], []
    for _ in range(steps):
        request = random_request(tree_a, rng, mix=mix, picker=picker)
        specs.append(request_spec(request))
        outcomes_a.append(submit_a(request))
    picker.detach()

    outcomes_b = []
    for base in range(0, steps, batch_size):
        chunk = mirror.requests(specs[base:base + batch_size])
        outcomes_b.extend(ctrl_b.handle_batch(chunk))
    mirror.detach()
    return (ctrl_a, outcomes_a, tree_a), (ctrl_b, outcomes_b, tree_b)


def assert_equivalent(a, b):
    ctrl_a, outcomes_a, tree_a = a
    ctrl_b, outcomes_b, tree_b = b
    assert [o.status for o in outcomes_a] == [o.status for o in outcomes_b]
    assert ctrl_a.counters.snapshot() == ctrl_b.counters.snapshot()
    assert ctrl_a.granted == ctrl_b.granted
    assert tree_a.size == tree_b.size


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("batch_size", [1, 7, 64])
def test_iterated_batch_equals_sequential(topology, batch_size):
    def make(tree):
        ctrl = IteratedController(tree, m=800, w=50, u=800)
        return ctrl, ctrl.handle
    a, b = drive_twins(make, TOPOLOGIES[topology], n=200, steps=400,
                       batch_size=batch_size, mix=default_mix(), seed=3)
    assert_equivalent(a, b)


@pytest.mark.parametrize("mix_name,mix", [
    ("default", default_mix()),
    ("grow_only", grow_only_mix()),
])
def test_centralized_batch_equals_sequential(mix_name, mix):
    def make(tree):
        ctrl = CentralizedController(tree, m=600, w=80, u=900)
        return ctrl, ctrl.handle
    a, b = drive_twins(make, TOPOLOGIES["random"], n=150, steps=500,
                       batch_size=16, mix=mix, seed=5)
    assert_equivalent(a, b)


def test_adaptive_batch_equals_sequential():
    def make(tree):
        ctrl = AdaptiveController(tree, m=900, w=60)
        return ctrl, ctrl.handle
    a, b = drive_twins(make, TOPOLOGIES["random"], n=120, steps=600,
                       batch_size=25, mix=default_mix(), seed=7)
    assert_equivalent(a, b)
    assert a[0].epochs_run == b[0].epochs_run


def test_terminating_batch_equals_sequential():
    def make(tree):
        ctrl = TerminatingController(tree, m=150, w=25, u=600)
        return ctrl, ctrl.submit
    a, b = drive_twins(make, TOPOLOGIES["random"], n=150, steps=400,
                       batch_size=10, mix=default_mix(), seed=9)
    assert_equivalent(a, b)
    assert a[0].terminated == b[0].terminated
    assert len(a[0].pending) == len(b[0].pending)


def test_engine_off_matches_engine_on():
    """A slotless twin (dict stores) must reproduce the slot holder's
    outcomes and counters exactly — the slots are a pure optimization.
    The tight-psi runs park, merge on deletion and take packages, and
    must trace identically."""
    def make(tree):
        ctrl = IteratedController(tree, m=800, w=50, u=800)
        return ctrl, ctrl.handle
    a, b = drive_twins(make, TOPOLOGIES["path"], n=250, steps=500,
                       batch_size=32, mix=default_mix(), seed=13,
                       slotless_b=True)
    assert a[0]._inner._fast and not b[0]._inner._fast
    assert_equivalent(a, b)

    # Tight psi on a deep path (as in the kernel-equivalence deep-path
    # test): under churn and on PLAIN traffic alike, both twins pick
    # the filler search by the host count against the depth.
    real_merge = NodeStore.merge_from
    for mix in (default_mix(), {RequestKind.PLAIN: 1.0}):
        traces, merged = {}, []

        def make_traced(tree):
            trace = traces[tree] = KernelTrace()
            ctrl = CentralizedController(tree, m=3000, w=1500, u=800,
                                         kernel_trace=trace)
            return ctrl, ctrl.handle

        def merge_from(store, other):
            merged.extend(other.mobile)
            real_merge(store, other)
        with mock.patch.object(NodeStore, "merge_from", merge_from):
            a, b = drive_twins(make_traced, TOPOLOGIES["path"], n=400,
                               steps=300, batch_size=16, mix=mix, seed=2,
                               slotless_b=True)
        assert_equivalent(a, b)
        trace_a, trace_b = traces[a[2]], traces[b[2]]
        assert sum(1 for event in trace_a if event[0] == "take") > 0
        assert trace_a.events == trace_b.events
        if RequestKind.REMOVE_LEAF in mix:
            assert merged, "no parked package was merged on deletion"


class _IndexedScanCounter(CentralizedController):
    """Counts the packages the indexed host scan takes."""

    indexed_takes = 0

    def _find_filler_indexed(self, node, node_depth):
        package, dist = super()._find_filler_indexed(node, node_depth)
        if package is not None:
            self.indexed_takes += 1
        return package, dist


class _ClimbOnly(CentralizedController):
    """Always runs the filler climb, whatever the host count."""

    def _find_filler_indexed(self, node, node_depth):
        return self._find_filler_climb(node)


@pytest.mark.parametrize("mix_name,mix", [
    ("default", default_mix()),
    ("plain", {RequestKind.PLAIN: 1.0}),
])
def test_indexed_scan_takes_what_the_climb_takes(mix_name, mix):
    """Tight psi on a path deeper than the walk cap: the controller
    that scans the mobile-host index whenever fewer hosts park packages
    than the requester is deep must take the same package from the same
    host, at the same distance, as a twin that always climbs."""
    traces = {}

    def make(tree):
        trace = traces[tree] = KernelTrace()
        cls = _ClimbOnly if len(traces) == 2 else _IndexedScanCounter
        ctrl = cls(tree, m=3000, w=1500, u=2000, kernel_trace=trace)
        return ctrl, ctrl.handle
    a, b = drive_twins(make, TOPOLOGIES["path"], n=600, steps=300,
                       batch_size=16, mix=mix, seed=4)
    assert type(a[0]) is _IndexedScanCounter and type(b[0]) is _ClimbOnly
    assert_equivalent(a, b)
    assert a[0].indexed_takes > 0
    assert a[2]._tour is not None, "the path never went past the walk cap"
    assert traces[a[2]].events == traces[b[2]].events


def test_exhaustion_and_reject_wave_through_batches():
    """A stream long enough to exhaust the budget: the reject wave must
    land on the same request index in batched mode."""
    def make(tree):
        ctrl = CentralizedController(tree, m=40, w=10, u=400)
        return ctrl, ctrl.handle
    a, b = drive_twins(make, TOPOLOGIES["random"], n=100, steps=300,
                       batch_size=9, mix=default_mix(), seed=17)
    assert_equivalent(a, b)
    assert a[0].rejecting and b[0].rejecting


def test_store_slot_arbitration():
    """Only one controller claims the per-node store slots; a second
    falls back to dict lookups; detach releases the claim."""
    tree = build_random_tree(60, seed=2)
    first = CentralizedController(tree, m=100, w=20, u=200)
    second = CentralizedController(tree, m=100, w=20, u=200)
    assert first._fast and not second._fast
    assert tree.store_slot_owner is first
    first.detach()
    assert tree.store_slot_owner is None
    third = CentralizedController(tree, m=100, w=20, u=200)
    assert third._fast
    second.detach()
    third.detach()
