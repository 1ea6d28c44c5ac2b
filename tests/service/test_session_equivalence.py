"""The session-vs-legacy equivalence property, over the whole catalogue.

For every catalogue scenario and every registered controller flavour,
driving the *identical* pre-generated stream through
``ControllerSession.submit_many`` + ``drain`` must produce tallies
identical to the legacy protocol path (``make_controller`` +
``handle_batch``), and the invariant auditor must pass on both engines.
This is the acceptance property of the session layer: the envelopes,
admission bookkeeping and streaming settlement add *nothing* to the
semantics.

Scaled-down specs keep the full product (5 scenarios x 8 flavours)
fast enough for tier-1.

For the synchronous flavours the stronger four-arm property holds too:
direct ``handle_batch`` and ``handle`` and the session's
``serve_stream`` and ``serve`` produce the identical verdict sequence,
in order, and identical move counters.
"""

import random

import pytest

from repro import CONTROLLER_FLAVORS, OutcomeStatus, make_controller
from repro.metrics.invariants import audit_controller, tally_outcomes
from repro.service import ControllerSession, SessionConfig
from repro.workloads.catalogue import CATALOGUE, get_scenario
from repro.workloads.scenarios import (
    NodePicker,
    TreeMirror,
    build_random_tree,
    random_request,
    request_spec,
)

SCALE = 0.25


def _replay(spec, seed, stream_specs):
    tree = spec.build_tree(seed=seed)
    mirror = TreeMirror(tree)
    requests = [mirror.request(s) for s in stream_specs]
    mirror.detach()
    return tree, requests


@pytest.mark.parametrize("flavor", CONTROLLER_FLAVORS)
@pytest.mark.parametrize("name", list(CATALOGUE))
def test_session_tallies_match_legacy(name, flavor):
    spec = get_scenario(name).scaled(SCALE)
    seed = 0
    reference = spec.build_tree(seed=seed)
    stream_specs = [request_spec(r)
                    for r in spec.stream(reference, seed=seed)]

    # Legacy path: registry construction + the protocol's handle_batch.
    tree_legacy, requests_legacy = _replay(spec, seed, stream_specs)
    legacy = make_controller(flavor, tree_legacy,
                             m=spec.m, w=spec.w, u=spec.u)
    legacy_tally = tally_outcomes(legacy.handle_batch(requests_legacy))
    legacy_report = audit_controller(legacy)
    assert legacy_report.passed, legacy_report.violations

    # Session path: submit_many + streaming drain.
    tree_session, requests_session = _replay(spec, seed, stream_specs)
    session = ControllerSession(
        SessionConfig.of(flavor, m=spec.m, w=spec.w, u=spec.u,
                         max_in_flight=len(requests_session) + 1),
        tree=tree_session)
    records = []
    session.submit_many(requests_session)
    for record in session.drain():
        records.append(record)
    session_tally = tally_outcomes(r.outcome for r in records)

    assert session_tally == legacy_tally, (
        f"{name}/{flavor}: session {session_tally} != "
        f"legacy {legacy_tally}")
    assert session.backpressured == 0
    report = session.audit()
    assert report.passed, report.violations
    # The final tree states agree too (same grants => same topology).
    assert tree_session.size == tree_legacy.size


#: Flavours whose ``handle_batch`` consumes its input lazily: a recorded
#: spec that targets a node created earlier in the same chunk resolves
#: only if the chunk is mirrored one request at a time.
SYNCHRONOUS_FLAVORS = ("centralized", "iterated", "adaptive",
                       "terminating", "trivial")


@pytest.mark.parametrize("flavor", SYNCHRONOUS_FLAVORS)
def test_direct_and_session_arms_agree(flavor):
    """One default-mix stream, replayed on twin trees in four arms:
    ``handle_batch`` and ``serve_stream`` in chunks of 16, ``handle``
    and ``serve`` one request at a time.  The budget runs out two
    thirds of the way in, so the stream crosses the reject wave."""
    n, steps, chunk = 120, 300, 16
    m, w, u = 200, n // 4, 4 * n

    def session(tree):
        return ControllerSession(
            SessionConfig.of(flavor, m=m, w=w, u=u, max_in_flight=1 << 20),
            tree=tree)

    scratch = build_random_tree(n, seed=0)
    recorder = session(scratch)
    rng = random.Random(0)
    picker = NodePicker(scratch)
    specs = []
    for _ in range(steps):
        request = random_request(scratch, rng, picker=picker)
        specs.append(request_spec(request))
        recorder.serve(request)
    picker.detach()

    def replay(arm):
        tree = build_random_tree(n, seed=0)
        mirror = TreeMirror(tree)
        if arm.startswith("direct"):
            engine = make_controller(flavor, tree, m=m, w=w, u=u)
            counters = engine.counters
        else:
            engine = session(tree)
            counters = engine.controller.counters
        statuses = []
        for base in range(0, steps, chunk):
            block = specs[base:base + chunk]
            if arm == "direct_batch":
                outcomes = engine.handle_batch(mirror.requests(block))
            elif arm == "session_batch":
                outcomes = [r.outcome for r in
                            engine.serve_stream(mirror.requests(block))]
            elif arm == "direct_seq":
                outcomes = [engine.handle(mirror.request(spec))
                            for spec in block]
            else:
                outcomes = [engine.serve(mirror.request(spec)).outcome
                            for spec in block]
            statuses.extend(o.status for o in outcomes)
        mirror.detach()
        return statuses, counters.snapshot()

    baseline = replay("direct_batch")
    assert baseline[0].count(OutcomeStatus.GRANTED) == m
    assert baseline[1] == recorder.controller.counters.snapshot()
    for arm in ("session_batch", "direct_seq", "session_seq"):
        statuses, counters = replay(arm)
        assert statuses == baseline[0], f"{flavor}/{arm}: verdicts diverged"
        assert counters == baseline[1], f"{flavor}/{arm}: counters diverged"
