"""Exactly-once delivery under concurrent ``result()``/``drain()``.

The session's delivery contract has two channels: ``drain()`` yields
each settled record at most once (across *all* concurrent drains), and
``Ticket.result()`` is an idempotent lookup that may overlap either
channel.  These are the race regressions for the locked session pump:
barrier-synchronized double-drain, result-vs-drain on the same ticket,
and submit-while-drain interleaving.  Before the session grew its
lock, two drains could both pop the same ready record, and a drain
racing the in-flight check could raise a spurious ProtocolError.  The
first two races also run against a fleet and an app, which book their
tickets in the same ledger.
"""

import threading
from collections import Counter

from repro import (
    AppSpec,
    ControllerSession,
    FleetConfig,
    FleetRouter,
    IterationRecord,
    Request,
    RequestKind,
    SessionConfig,
    make_app,
)
from repro.workloads import build_random_tree


def _session(flavor="distributed", n=40, **knobs):
    tree = build_random_tree(n, seed=13)
    knobs.setdefault("max_in_flight", 1 << 20)
    config = SessionConfig.of(flavor, m=600, w=60, u=3000, **knobs)
    return ControllerSession(config, tree=tree)


def _fleet():
    trees = [build_random_tree(20, seed=13 + shard) for shard in (0, 1)]
    config = FleetConfig.of(shards=2, m_total=600, w_total=60, u=3000,
                            max_in_flight=1 << 20)
    return FleetRouter(config, trees=trees)


def _app():
    spec = AppSpec("size_estimation", flavor="distributed",
                   max_in_flight=1 << 20)
    return make_app(spec, tree=build_random_tree(40, seed=13))


#: The three front ends that book tickets in the shared ledger; the
#: first two races run against each in turn.
FRONT_ENDS = {"session": _session, "fleet": _fleet, "app": _app}


def _requests(front, count):
    trees = ([shard.tree for shard in front.shards]
             if isinstance(front, FleetRouter) else [front.tree])
    nodes = [node for tree in trees for node in tree.nodes()]
    return [Request(RequestKind.PLAIN, nodes[i % len(nodes)])
            for i in range(count)]


def _records(front):
    """The drain stream minus app iteration boundaries."""
    return (record for record in front.drain()
            if not isinstance(record, IterationRecord))


def test_barrier_synchronized_double_drain_is_exactly_once():
    for make in FRONT_ENDS.values():
        _double_drain(make())


def test_result_vs_drain_race_never_duplicates_the_drain_channel():
    for make in FRONT_ENDS.values():
        _result_vs_drain(make())


def _double_drain(session):
    session.submit_many(_requests(session, 120))
    barrier = threading.Barrier(2)
    drained = [[], []]
    errors = []

    def drainer(slot):
        try:
            barrier.wait(timeout=10)
            for record in _records(session):
                drained[slot].append(record.envelope_id)
        except Exception as error:
            errors.append(error)

    threads = [threading.Thread(target=drainer, args=(slot,))
               for slot in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    combined = Counter(drained[0]) + Counter(drained[1])
    # Every envelope delivered by exactly one drain, never both.
    assert set(combined) == set(range(120))
    assert all(count == 1 for count in combined.values()), \
        [e for e, c in combined.items() if c > 1]
    assert session.in_flight == 0


def _result_vs_drain(session):
    tickets = session.submit_many(_requests(session, 100))
    barrier = threading.Barrier(2)
    drained = []
    claimed = {}
    errors = []

    def drainer():
        try:
            barrier.wait(timeout=10)
            for record in _records(session):
                drained.append(record)
        except Exception as error:
            errors.append(error)

    def claimer():
        try:
            barrier.wait(timeout=10)
            # Claim every other ticket while the drain runs.
            for ticket in tickets[::2]:
                claimed[ticket.envelope.envelope_id] = ticket.result()
        except Exception as error:
            errors.append(error)

    threads = [threading.Thread(target=drainer),
               threading.Thread(target=claimer)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    # The drain channel never repeats an envelope ...
    drain_ids = Counter(record.envelope_id for record in drained)
    assert all(count == 1 for count in drain_ids.values())
    # ... every envelope is delivered on at least one channel ...
    assert set(drain_ids) | set(claimed) == set(range(100))
    # ... and both channels agree on the record when they overlap
    # (result() is an idempotent lookup, not a second settlement).
    by_id = {record.envelope_id: record for record in drained}
    for envelope_id, record in claimed.items():
        assert tickets[envelope_id].result() is record
        if envelope_id in by_id:
            assert by_id[envelope_id] is record
    assert session.in_flight == 0


def test_submit_during_drain_does_not_raise_spurious_protocol_error():
    session = _session()
    session.submit_many(_requests(session, 60))
    barrier = threading.Barrier(2)
    errors = []
    seen = []

    def drainer():
        try:
            barrier.wait(timeout=10)
            # Two passes: the second drains whatever the submitter
            # added after the first pass finished.
            for _ in range(2):
                for record in session.drain():
                    seen.append(record.envelope_id)
        except Exception as error:
            errors.append(error)

    def submitter():
        try:
            barrier.wait(timeout=10)
            for request in _requests(session, 60):
                session.submit(request)
        except Exception as error:
            errors.append(error)

    threads = [threading.Thread(target=drainer),
               threading.Thread(target=submitter)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    # Everything the two streams submitted settled somewhere (the
    # second drain pass picks up the stragglers).
    list(session.drain())
    assert session.in_flight == 0
    assert session.audit().passed
