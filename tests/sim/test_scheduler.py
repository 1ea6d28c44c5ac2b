"""Tests for the discrete-event scheduler."""

import pytest

from repro.errors import SimulationError
from repro.sim import Scheduler


def test_events_run_in_time_order():
    sched = Scheduler()
    seen = []
    sched.schedule(3.0, lambda: seen.append("c"))
    sched.schedule(1.0, lambda: seen.append("a"))
    sched.schedule(2.0, lambda: seen.append("b"))
    sched.run()
    assert seen == ["a", "b", "c"]


def test_ties_break_in_insertion_order():
    sched = Scheduler()
    seen = []
    for tag in ("first", "second", "third"):
        sched.schedule(1.0, lambda t=tag: seen.append(t))
    sched.run()
    assert seen == ["first", "second", "third"]


def test_now_advances_with_events():
    sched = Scheduler()
    times = []
    sched.schedule(2.5, lambda: times.append(sched.now))
    sched.schedule(5.0, lambda: times.append(sched.now))
    sched.run()
    assert times == [2.5, 5.0]
    assert sched.now == 5.0


def test_events_scheduled_from_handlers_run():
    sched = Scheduler()
    seen = []
    def outer():
        seen.append("outer")
        sched.schedule(1.0, lambda: seen.append("inner"))
    sched.schedule(1.0, outer)
    sched.run()
    assert seen == ["outer", "inner"]
    assert sched.now == 2.0


def test_negative_delay_rejected():
    sched = Scheduler()
    with pytest.raises(SimulationError):
        sched.schedule(-0.1, lambda: None)


def test_schedule_at_past_rejected():
    sched = Scheduler()
    sched.schedule(5.0, lambda: None)
    sched.run()
    with pytest.raises(SimulationError):
        sched.schedule_at(1.0, lambda: None)


def test_schedule_at_future():
    sched = Scheduler()
    seen = []
    sched.schedule_at(4.0, lambda: seen.append(sched.now))
    sched.run()
    assert seen == [4.0]


def test_cancelled_events_are_skipped():
    sched = Scheduler()
    seen = []
    event = sched.schedule(1.0, lambda: seen.append("cancelled"))
    sched.schedule(2.0, lambda: seen.append("kept"))
    event.cancel()
    sched.run()
    assert seen == ["kept"]


def test_run_until_stops_early():
    sched = Scheduler()
    seen = []
    sched.schedule(1.0, lambda: seen.append(1))
    sched.schedule(10.0, lambda: seen.append(10))
    sched.run(until=5.0)
    assert seen == [1]
    assert sched.pending() == 1
    sched.run()
    assert seen == [1, 10]


def test_step_returns_false_when_empty():
    sched = Scheduler()
    assert sched.step() is False
    sched.schedule(1.0, lambda: None)
    assert sched.step() is True
    assert sched.step() is False


def test_event_budget_catches_livelock():
    sched = Scheduler(max_events=100)
    def loop():
        sched.schedule(1.0, loop)
    sched.schedule(1.0, loop)
    with pytest.raises(SimulationError):
        sched.run()


def test_executed_counter():
    sched = Scheduler()
    for _ in range(5):
        sched.schedule(1.0, lambda: None)
    sched.run()
    assert sched.executed == 5


# ----------------------------------------------------------------------
# Live-event accounting: O(1) pending() and idempotent cancel().
# ----------------------------------------------------------------------
def test_pending_counts_live_events():
    sched = Scheduler()
    events = [sched.schedule(1.0, lambda: None) for _ in range(5)]
    assert sched.pending() == 5
    events[0].cancel()
    events[3].cancel()
    assert sched.pending() == 3
    sched.run()
    assert sched.pending() == 0
    assert sched.executed == 3


def test_double_cancel_is_idempotent():
    sched = Scheduler()
    event = sched.schedule(1.0, lambda: None)
    sched.schedule(2.0, lambda: None)
    event.cancel()
    event.cancel()
    event.cancel()
    assert sched.pending() == 1  # not driven negative by repeat cancels
    sched.run()
    assert sched.pending() == 0
    assert sched.executed == 1


def test_cancel_after_execution_is_a_noop():
    sched = Scheduler()
    event = sched.schedule(1.0, lambda: None)
    sched.schedule(2.0, lambda: None)
    sched.step()  # runs ``event``
    event.cancel()
    event.cancel()
    assert sched.pending() == 1
    sched.run()
    assert sched.executed == 2


def test_cancel_after_pop_does_not_double_decrement():
    """Regression: an event that cancels *itself* from its own callback
    has already been popped and counted as consumed — the late cancel
    must not decrement the live counter a second time."""
    sched = Scheduler()
    holder = {}

    def fire():
        holder["event"].cancel()

    holder["event"] = sched.schedule(1.0, fire)
    sched.schedule(2.0, lambda: None)
    sched.step()
    assert sched.pending() == 1  # not driven to 0 by the self-cancel
    sched.run()
    assert sched.pending() == 0
    assert sched.executed == 2


def test_cancel_hook_is_shared_across_events():
    """Cancellation bookkeeping goes through the one scheduler every
    handle points at (no per-event hook is allocated) — and stays
    correct for every event."""
    sched = Scheduler()
    first = sched.schedule(1.0, lambda: None)
    second = sched.schedule(2.0, lambda: None)
    assert first._sched is second._sched is sched
    first.cancel()
    second.cancel()
    assert sched.pending() == 0


def test_pending_is_constant_time():
    """pending() must not scan the queue: cancelling from within a large
    backlog keeps the count exact without touching the heap."""
    sched = Scheduler()
    events = [sched.schedule(float(i % 7), lambda: None)
              for i in range(1000)]
    for event in events[::2]:
        event.cancel()
    for event in events[::4]:  # half of these are second cancels
        event.cancel()
    assert sched.pending() == 500
