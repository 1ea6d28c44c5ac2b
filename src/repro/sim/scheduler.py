"""The event engine: one record queue, four schedule policies.

The asynchronous model of Section 2.1 quantifies correctness over *all*
finite message-delay assignments.  In the discrete-event simulator an
event enters the queue only after the event that caused it has run, so
**any** pop order over pending events is a legal asynchronous execution
— the sampled delay times are one particular adversary, not a
constraint.  A schedule policy exploits exactly this freedom: swapping
it replays the same workload under a different legal interleaving,
which is how one workload becomes thousands of distinct executions (one
per policy x seed).

Policies (:data:`SCHEDULE_POLICIES`):

* ``fifo`` — pop the minimum ``(time, seq)``: deterministic
  chronological order with insertion-order tie-breaks (the default);
* ``random`` — pop a uniformly random pending record (seeded
  ``randrange`` draws, swap-remove), the schedule-exploration workhorse;
* ``lifo`` — pop the most recently scheduled record: depth-biased, one
  agent's causal chain is driven as deep as possible before siblings
  advance;
* ``adversary`` — pop the maximum ``(time, seq)``: the delay adversary,
  maximally inverting the FIFO order (whatever the delay model wanted
  to happen last happens first, subject only to causality).

Every pending event is one ``(time, seq, fn, arg)`` record tuple.
``fifo`` and ``adversary`` keep the records in a heap (the adversary
stores negated keys), ``lifo`` and ``random`` in a plain list.  Tuple
comparison runs at C speed and never reaches ``fn``/``arg`` because
``seq`` is unique.  Two entry points fill the queue:

* :meth:`Scheduler.schedule_call` — the hot path: ``fn(arg)`` with a
  pre-bound ``fn``, no handle; the record tuple is the only
  allocation (the distributed controller's hops and lock hand-offs);
* :meth:`Scheduler.schedule` — returns a cancellable :class:`Event`
  handle; the record carries ``None`` in the ``fn`` slot and the handle
  in ``arg``.  Cancellation is a tombstone: the record stays queued and
  the drain loop skips it without counting it.

:meth:`Scheduler.step` is the one drain loop: it runs up to ``budget``
events and serves ``step()``, :meth:`~Scheduler.run` and
:meth:`~Scheduler.pump` (one :data:`PUMP_BATCH` batch, which amortizes
the session's lock and drain frames across many events).  Under
non-FIFO policies ``now`` is clamped monotone (it never runs
backwards); the record stamps become advisory, exactly as the
arbitrary-delay model prescribes.
"""

from heapq import heappop, heappush
from random import Random
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError

__all__ = ["Event", "PUMP_BATCH", "SCHEDULE_POLICIES", "Scheduler"]

#: The registered schedule policy names.
SCHEDULE_POLICIES: Tuple[str, ...] = ("fifo", "random", "lifo", "adversary")

#: Events executed per :meth:`Scheduler.pump` call: large enough to
#: amortize the caller's per-pump overhead (locks, generator frames)
#: across a batch, small enough that settlement streams stay live.
PUMP_BATCH = 1024

#: ``(time, seq, fn, arg)``; ``fn`` is None for a handle record, whose
#: ``arg`` is the :class:`Event`.
_Record = Tuple[float, int, Optional[Callable[[Any], None]], Any]


class Event:
    """Cancellable handle for an event queued via :meth:`Scheduler.schedule`.

    Cancellation is a tombstone: the record stays where it is and the
    drain loop skips it, so cancel is O(1) and allocates nothing.
    """

    __slots__ = ("time", "fn", "cancelled", "_consumed", "_sched")

    def __init__(self, time: float, fn: Callable[[], None],
                 sched: "Scheduler") -> None:
        self.time = time
        self.fn = fn
        self.cancelled = False
        self._consumed = False
        self._sched = sched

    def cancel(self) -> None:
        """Tombstone the event; idempotent, late cancels are no-ops."""
        if self.cancelled or self._consumed:
            return
        self.cancelled = True
        self._sched._tombstones += 1

    def __repr__(self) -> str:
        state = ("cancelled" if self.cancelled
                 else "consumed" if self._consumed else "pending")
        return f"<Event t={self.time} {state}>"


def _fire(event: Event) -> None:
    event.fn()


def _push_max(records: List[_Record], record: _Record) -> None:
    time, seq, fn, arg = record
    heappush(records, (-time, -seq, fn, arg))


def _pop_max(records: List[_Record]) -> _Record:
    key, seq, fn, arg = heappop(records)
    return -key, -seq, fn, arg


class Scheduler:
    """Deterministic discrete-event scheduler (see module docstring).

    Parameters
    ----------
    max_events:
        Safety budget: running more than this many events raises
        :class:`SimulationError`, which catches accidental livelocks in
        protocol code during tests.
    policy:
        The schedule policy name (:data:`SCHEDULE_POLICIES`).
    seed:
        Seeds the ``random`` policy's draws (ignored by the others).
    """

    __slots__ = ("_now", "_seq", "_tombstones", "_max_events", "executed",
                 "_policy", "_records", "_push", "_pop", "_randrange",
                 "_drawn")

    def __init__(self, max_events: int = 50_000_000, policy: str = "fifo",
                 seed: int = 0) -> None:
        if policy not in SCHEDULE_POLICIES:
            raise SimulationError(
                f"unknown schedule policy {policy!r}; "
                f"known: {', '.join(SCHEDULE_POLICIES)}")
        self._now = 0.0
        self._seq = 0
        self._tombstones = 0
        self._max_events = max_events
        self.executed = 0
        self._policy = policy
        self._records: List[_Record] = []
        push: Callable[[List[_Record], _Record], None] = list.append
        pop: Callable[[List[_Record]], _Record] = list.pop
        if policy == "fifo":
            push, pop = heappush, heappop
        elif policy == "adversary":
            push, pop = _push_max, _pop_max
        elif policy == "random":
            pop = self._pop_random
        self._push = push
        self._pop = pop
        self._randrange = Random(seed).randrange
        # ``run(until)`` peeks before it pops; under ``random`` the peek
        # draws the victim early, as ``(queue length, index)``.  Any
        # push since lengthens the queue and so voids the draw (a fresh
        # one is taken); the next pop consumes it.
        self._drawn: Optional[Tuple[int, int]] = None

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1), exact
        at every instant, from inside a running batch too)."""
        return len(self._records) - self._tombstones

    # ------------------------------------------------------------------
    # Scheduling.
    # ------------------------------------------------------------------
    def schedule_call(self, delay: float, fn: Callable[[Any], None],
                      arg: Any) -> None:
        """Hot path: run ``fn(arg)`` ``delay`` time units from now.

        No handle is returned; callers that may need to cancel use
        :meth:`schedule`.  ``fn`` should be pre-bound (the distributed
        controller binds its phase-dispatch methods once).
        """
        if delay < 0:
            raise SimulationError(
                f"cannot schedule in the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        self._push(self._records, (self._now + delay, seq, fn, arg))

    def schedule(self, delay: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` to run ``delay`` time units from now; returns
        the cancellable :class:`Event`."""
        if delay < 0:
            raise SimulationError(
                f"cannot schedule in the past (delay={delay})")
        time = self._now + delay
        event = Event(time, fn, self)
        seq = self._seq
        self._seq = seq + 1
        self._push(self._records, (time, seq, None, event))
        return event

    def schedule_at(self, time: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` at absolute simulated time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time}, current time is {self._now}")
        return self.schedule(time - self._now, fn)

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def step(self, budget: int = 1) -> bool:
        """Execute up to ``budget`` events (per the schedule policy);
        ``False`` when none ran because the queue is empty.

        The one drain loop of the engine.  Tombstones are skipped in
        place and do not count against ``budget``.  ``now`` and
        ``executed`` are updated per event, so a callback that raises
        leaves exact counts and the remainder stays drainable.
        """
        records = self._records
        pop = self._pop
        ran = 0
        while ran < budget and records:
            time, _seq, fn, arg = pop(records)
            if fn is None:
                if arg.cancelled:
                    self._tombstones -= 1
                    continue
                arg._consumed = True
                fn = _fire
            if time > self._now:
                self._now = time
            self.executed += 1
            if self.executed > self._max_events:
                raise SimulationError(
                    f"event budget exceeded ({self._max_events} events); "
                    "likely livelock in protocol code")
            ran += 1
            fn(arg)
        return ran > 0

    def pump(self) -> bool:
        """Session pump hook: run one :data:`PUMP_BATCH` batch;
        ``False`` when idle."""
        return self.step(PUMP_BATCH)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains (or the next event per the policy
        is stamped past ``until``, which then stays queued)."""
        if until is None:
            while self.step(PUMP_BATCH):
                pass
            return
        while self._head_due(until):
            self.step()

    def _head_due(self, until: float) -> bool:
        """Whether the record the policy pops next is stamped at or
        before ``until``; drops tombstones found at the head."""
        records = self._records
        policy = self._policy
        while records:
            if policy == "fifo":
                time, _seq, fn, arg = records[0]
            elif policy == "adversary":
                key, _seq, fn, arg = records[0]
                time = -key
            elif policy == "lifo":
                time, _seq, fn, arg = records[-1]
            else:
                size = len(records)
                drawn = self._drawn
                if drawn is None or drawn[0] != size:
                    drawn = self._drawn = (size, self._randrange(size))
                time, _seq, fn, arg = records[drawn[1]]
            if fn is None and arg.cancelled:
                self._pop(records)
                self._tombstones -= 1
                continue
            return time <= until
        return False

    def _pop_random(self, records: List[_Record]) -> _Record:
        size = len(records)
        drawn = self._drawn
        if drawn is None:
            index = self._randrange(size)
        else:
            self._drawn = None
            index = drawn[1] if drawn[0] == size else self._randrange(size)
        last = records.pop()
        if index < size - 1:
            record = records[index]
            records[index] = last
            return record
        return last
