"""The ticket ledger: how a front end books a request from admission to
delivery.

The paper's controller answers each request once; a front end turns
that into a ticket that is settled once and delivered once.  Every
front end that hands out :class:`~repro.service.envelopes.Ticket`
objects — :class:`~repro.service.session.ControllerSession`,
:class:`~repro.fleet.router.FleetRouter` and
:class:`~repro.apps.base.AppSession` — keeps these books, written once
here (``docs/architecture.md`` §7):

* **admission** — :meth:`TicketLedger._book` stamps an envelope (a
  monotone envelope id and the submit tick) and a ticket, then either
  dispatches the request or, when the admission window is full,
  settles the ticket at once as ``BACKPRESSURE``;
* **settlement** — :meth:`TicketLedger._settle` builds the record,
  tallies the verdict, settles the ticket and queues the record for
  delivery;
* **the ready queue** — settled records (and, on an app, iteration
  boundaries) wait there for a drain, in settlement order.  Ticket-only
  consumers never drain, so every enqueue first sweeps claimed records
  off the tail, and the queue is compacted whenever it has doubled:
  it stays O(undelivered), not O(all-time);
* **delivery** — :meth:`TicketLedger.drain` pops and yields each
  unclaimed record exactly once, pumping the front end under its
  reentrant lock until nothing is in flight.

A front end supplies only what really differs: ``_dispatch`` (where an
admitted request waits), ``_pump`` (how its engine advances) and
``in_flight``.
"""

import threading
from collections import deque
from typing import (Any, Deque, Dict, Iterator, List, Optional, Tuple,
                    TypeVar)

from repro.core.kernel import KernelTrace
from repro.core.requests import Outcome, Request
from repro.errors import ControllerError, ProtocolError
from repro.service.envelopes import (OutcomeRecord, RequestEnvelope,
                                     SessionVerdict, Ticket, TraceHandle)

#: Ready-queue length below which it is never compacted.
_COMPACT_FLOOR = 64

_Ledger = TypeVar("_Ledger", bound="TicketLedger")


class TicketLedger:
    """Envelope ids, the operation clock, the ready queue and the
    verdict tallies of one front end (see module docstring).

    Parameters
    ----------
    window:
        Admission window: a request booked while ``in_flight`` has
        reached it settles as ``BACKPRESSURE``.
    noun:
        What the front end calls itself in errors ("session", ...).
    """

    def __init__(self, window: int, noun: str) -> None:
        #: The kernel transition log settled records point into (a
        #: session built with ``trace=True``); None on every other
        #: front end.
        self.trace: Optional[KernelTrace] = None
        self._window = window
        self._noun = noun
        self._next_envelope = 0
        self._clock = 0
        # One reentrant lock serializes admission, pumping, and the
        # drain-side pops, so concurrent ``Ticket.result()`` /
        # ``drain()`` callers (the gateway's client threads) can never
        # double-handle a pending batch or double-settle a ticket.
        # Reentrant because pumps settle from inside engine callbacks.
        # Single-caller ``serve`` paths may stay lock-free except
        # where they delegate to ``_pump``.
        self._lock = threading.RLock()
        self._ready: Deque[Tuple[Any, Optional[Ticket]]] = deque()
        self._compact_limit = _COMPACT_FLOOR
        self._closed = False
        #: Verdict tallies over every settled record (including
        #: backpressure, which the engine never sees).
        self.verdicts: Dict[str, int] = {v.value: 0 for v in SessionVerdict}

    # ------------------------------------------------------------------
    # What each front end supplies.
    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Requests admitted but not yet settled."""
        raise NotImplementedError

    def _dispatch(self, envelope: RequestEnvelope, ticket: Ticket,
                  route: Any) -> None:
        """Hand an admitted request on (no window check)."""
        raise NotImplementedError

    def _pump(self) -> bool:
        """Advance the engine one unit; False when it is idle."""
        raise NotImplementedError

    def _quiesce(self) -> None:
        """Runs when a drain finds nothing in flight."""

    # ------------------------------------------------------------------
    # Clock and introspection.
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """The submit/settle operation counter."""
        return float(self._clock)

    @property
    def backpressured(self) -> int:
        """Requests refused at the admission window so far."""
        return self.verdicts[SessionVerdict.BACKPRESSURE.value]

    @property
    def undelivered(self) -> int:
        """Queued entries a future :meth:`drain` would still yield
        (settled but neither drained nor claimed via a ticket)."""
        return sum(1 for _record, ticket in self._ready
                   if ticket is None or not ticket.claimed)

    def tally(self) -> Dict[str, int]:
        """Verdict counts over every settled record."""
        return dict(self.verdicts)

    # ------------------------------------------------------------------
    # Admission.
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise ControllerError(f"{self._noun} is closed")

    def _make_ticket(self, request: Request
                     ) -> Tuple[RequestEnvelope, Ticket]:
        envelope = RequestEnvelope(envelope_id=self._next_envelope,
                                   request=request, submit_tick=self.now)
        self._next_envelope += 1
        self._clock += 1
        return envelope, Ticket(envelope, pump=self._pump)

    def _book(self, request: Request, route: Any) -> Ticket:
        """Admit one request: ticket it, then dispatch it along
        ``route`` — or, if the window is full, settle it at once as
        ``BACKPRESSURE`` without the engine ever seeing it."""
        with self._lock:
            self._check_open()
            envelope, ticket = self._make_ticket(request)
            if self.in_flight >= self._window:
                self._settle(ticket, envelope, None,
                             SessionVerdict.BACKPRESSURE)
            else:
                self._dispatch(envelope, ticket, route)
            return ticket

    # ------------------------------------------------------------------
    # Settlement.
    # ------------------------------------------------------------------
    def _settle(self, ticket: Ticket, envelope: RequestEnvelope,
                outcome: Optional[Outcome],
                verdict: SessionVerdict) -> None:
        self._clock += 1
        trace = self.trace
        record = OutcomeRecord((
            envelope.request, envelope.envelope_id, envelope.submit_tick,
            outcome, self.now,
            None if trace is None else TraceHandle(trace=trace,
                                                   upto=len(trace))))
        self.verdicts[verdict.value] += 1
        ticket._settle(record)
        self._enqueue(record, ticket)

    def _enqueue(self, entry: Any, ticket: Optional[Ticket]) -> None:
        """Queue a settled record, or an unticketed stream event such
        as an app's iteration boundary, for delivery."""
        ready = self._ready
        # Ticket-only consumers never drain: sweep the records they
        # already claimed off the tail, so the queue stays
        # O(undelivered) instead of O(all-time).
        while ready:
            last = ready[-1][1]
            if last is None or not last.claimed:
                break
            ready.pop()
        ready.append((entry, ticket))
        # A claimed record behind an unclaimed one escapes the sweep;
        # compact occasionally (amortized O(1) per enqueue).  Unclaimed
        # entries are retained by design — they are the not-yet-drained
        # stream.
        if len(ready) >= self._compact_limit:
            retained = [pair for pair in ready
                        if pair[1] is None or not pair[1].claimed]
            ready.clear()
            ready.extend(retained)
            self._compact_limit = max(_COMPACT_FLOOR, 2 * len(retained))

    # ------------------------------------------------------------------
    # Delivery.
    # ------------------------------------------------------------------
    def drain(self) -> Iterator[Any]:
        """Pump the engine, yielding records in settlement order.

        Terminates when nothing is in flight; a later ``submit`` may be
        followed by another ``drain()``.  Delivery is exactly-once: a
        record whose ticket was already taken via ``Ticket.result()``
        is skipped here (the reverse also holds — a drained record
        stays readable through its ticket, as a lookup).  Concurrent
        drains share one stream: each settled record is popped (and
        yielded) by exactly one of them, and a drain racing other
        pumpers re-checks the queue instead of mistaking their progress
        for a stuck engine.
        """
        ready = self._ready
        while True:
            with self._lock:
                while ready:
                    record, ticket = ready.popleft()
                    if ticket is None or not ticket.claimed:
                        break
                else:
                    if self.in_flight == 0:
                        self._quiesce()
                        return
                    # Pump inside the lock: the in-flight check and the
                    # pump are atomic, so another thread settling the
                    # remainder between them cannot fake an idle engine.
                    if not self._pump():
                        raise ProtocolError(
                            f"{self.in_flight} requests in flight but "
                            f"the {self._noun} is idle")
                    continue
            yield record

    def settle_all(self) -> List[Any]:
        """Drain to quiescence and return the settled records."""
        return list(self.drain())

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self: _Ledger) -> _Ledger:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
