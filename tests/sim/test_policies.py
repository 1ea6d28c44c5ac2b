"""Schedule-policy semantics of the event engine.

Each test pins one policy's pop order on :class:`repro.sim.Scheduler`;
``test_engine_oracle.py`` checks every policy against the oracle on
randomized workloads.
"""

import pytest

from repro.errors import SimulationError
from repro.sim import SCHEDULE_POLICIES, Scheduler
from tests.sim.oracle import RandomPolicy, make_oracle, make_policy


def _run_tagged(delays, **knobs):
    """Schedule one tagged event per delay; return execution order."""
    sched = Scheduler(**knobs)
    seen = []
    for tag, delay in enumerate(delays):
        sched.schedule(delay, lambda t=tag: seen.append(t))
    sched.run()
    return seen


def test_fifo_matches_default_scheduler():
    delays = [3.0, 1.0, 2.0, 1.0, 0.5]
    assert _run_tagged(delays, policy="fifo") == _run_tagged(delays)


def test_adversary_reverses_fifo_order():
    delays = [3.0, 1.0, 2.0]
    fifo = _run_tagged(delays, policy="fifo")
    adversary = _run_tagged(delays, policy="adversary")
    assert adversary == list(reversed(fifo))


def test_lifo_runs_newest_first():
    assert _run_tagged([1.0, 1.0, 1.0], policy="lifo") == [2, 1, 0]


def test_lifo_depth_bias_follows_causal_chain():
    """LIFO drives one causal chain to completion before starting the
    next: a chain's freshly scheduled continuation is always newest."""
    sched = Scheduler(policy="lifo")
    seen = []

    def chain(name, hops):
        seen.append((name, hops))
        if hops > 1:
            sched.schedule(1.0, lambda: chain(name, hops - 1))

    sched.schedule(1.0, lambda: chain("a", 3))
    sched.schedule(1.0, lambda: chain("b", 3))
    sched.run()
    # "b" was scheduled last, so its whole chain runs before "a" starts.
    assert seen == [("b", 3), ("b", 2), ("b", 1), ("a", 3), ("a", 2),
                    ("a", 1)]


def test_random_policy_is_seed_deterministic():
    delays = [1.0] * 12
    first = _run_tagged(delays, policy="random", seed=7)
    second = _run_tagged(delays, policy="random", seed=7)
    other = _run_tagged(delays, policy="random", seed=8)
    assert first == second
    assert sorted(first) == list(range(12))
    assert first != other  # 1 in 12! chance of colliding


def test_random_policy_peek_pop_agree():
    """The oracle's ``peek`` pre-draws what ``pop`` takes; the engine's
    ``run(until)`` peeks the same way, so bounded runs interleaved with
    new work replay the oracle's draws exactly."""
    policy = RandomPolicy(seed=3)
    for _ in range(8):
        policy.push(object())
    for _ in range(8):
        head = policy.peek()
        assert policy.pop() is head
    assert policy.peek() is None

    logs = []
    for sched in (make_oracle("random", seed=3),
                  Scheduler(policy="random", seed=3)):
        log = []
        for tag in range(8):
            sched.schedule(float(tag % 4), lambda t=tag: log.append(t))
        for until in (0.5, 1.0, 2.5):
            sched.run(until=until)
            sched.schedule(0.5, lambda: log.append("late"))
            log.append(("pending", sched.pending()))
        sched.run()
        logs.append(log)
    assert logs[0] == logs[1]


def test_now_stays_monotone_under_reordering():
    sched = Scheduler(policy="adversary")
    times = []
    for delay in (5.0, 1.0, 3.0):
        sched.schedule(delay, lambda: times.append(sched.now))
    sched.run()
    assert times == sorted(times)
    assert sched.now == 5.0


def test_every_policy_drains_and_preserves_the_event_set():
    delays = [2.0, 1.0, 3.0, 1.0, 2.5, 0.5]
    for name in SCHEDULE_POLICIES:
        order = _run_tagged(delays, policy=name, seed=11)
        assert sorted(order) == list(range(len(delays))), name


def test_cancelled_events_skipped_under_every_policy():
    for name in SCHEDULE_POLICIES:
        sched = Scheduler(policy=name, seed=5)
        seen = []
        events = [sched.schedule(1.0, lambda t=tag: seen.append(t))
                  for tag in range(6)]
        events[1].cancel()
        events[4].cancel()
        sched.run()
        assert sorted(seen) == [0, 2, 3, 5], name


def test_make_policy_rejects_unknown_name():
    with pytest.raises(SimulationError, match="known: fifo"):
        Scheduler(policy="chaos-monkey")
    with pytest.raises(SimulationError):
        make_policy("chaos-monkey")


def test_run_until_with_nonfifo_policy():
    sched = Scheduler(policy="adversary")
    seen = []
    sched.schedule(1.0, lambda: seen.append(1))
    sched.schedule(10.0, lambda: seen.append(10))
    # The adversary pops the latest event first, so the time-10 head
    # blocks the run; nothing at all runs before until=5.
    sched.run(until=5.0)
    assert seen == []
    sched.run()
    assert sorted(seen) == [1, 10]
