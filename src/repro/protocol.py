"""The formal controller protocol and its introspection contract.

Every controller flavour in this repository — the four centralized
forms, the three distributed forms, and the trivial baseline — speaks
one interface, :class:`ControllerProtocol`:

* ``handle(request) -> Outcome`` — serve one request to completion
  (distributed engines run their scheduler to quiescence);
* ``handle_batch(requests) -> List[Outcome]`` — serve a batch, with
  the same per-request outcomes as sequential ``handle`` calls;
* ``unused_permits() -> int`` — permits not yet granted (root storage
  plus parked packages), the ``L`` the halving iterations re-budget
  with;
* ``detach() -> None`` — unregister from the tree and become inert;
  **idempotent** (a second call is a no-op);
* ``introspect() -> ControllerView`` — a structured, read-only view of
  the controller's auditable state.

``introspect()`` exists so that the invariant checker
(:mod:`repro.metrics.invariants`) can audit every flavour without
``hasattr`` probes on private attributes: a controller *declares* its
stores, its live budget split, and its nested controllers, and the
auditor walks that declaration.  The module is deliberately dependency-
free (``typing`` only), so :mod:`repro.metrics` can import it without
pulling in :mod:`repro.core`.
"""

from dataclasses import dataclass, field
from typing import (
    Any,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)


class StoreMapLike(Protocol):
    """What the auditor needs from a package-store map."""

    def items(self) -> Iterable[Tuple[Any, Any]]: ...

    def total_parked_permits(self) -> int: ...


@dataclass(frozen=True)
class BudgetSplit:
    """A wrapper's conservation ledger: permits already granted in
    finished stages/epochs plus the live stage's full budget must equal
    the wrapper's own ``M``."""

    prior_grants: int
    live_budget: int

    @property
    def total(self) -> int:
        return self.prior_grants + self.live_budget


@dataclass
class ControllerView:
    """Structured snapshot a controller returns from ``introspect()``.

    Only the fields a flavour actually has are filled in; the invariant
    checker keys its audits off which fields are present:

    * ``storage`` + ``stores`` -> centralized conservation & package
      shapes (``storage`` alone -> storage-only conservation, the
      trivial baseline);
    * ``boards`` (+ ``active_agents``, ``tree``) -> distributed
      conservation, package shapes, lock ordering, orphan detection;
    * ``budget`` -> wrapper conservation (prior grants + live budget
      == M);
    * ``children`` -> nested controllers to audit recursively, as
      ``(label, controller)`` pairs.

    ``waste_gate`` selects the liveness trigger: ``"rejection"`` checks
    the ``granted >= M - W`` bound once anything was rejected (the
    plain (M,W) contract); ``"termination"`` checks it once
    ``terminated`` is set (Observation 2.1's terminating analogue).
    """

    flavor: str
    m: int
    w: int
    granted: int
    rejected: int
    params: Optional[Any] = None          # ControllerParams when present
    storage: Optional[int] = None
    stores: Optional[StoreMapLike] = None
    boards: Optional[Any] = None          # WhiteboardMap when distributed
    tree: Optional[Any] = None
    active_agents: Optional[int] = None
    terminated: bool = False
    waste_gate: str = "rejection"
    budget: Optional[BudgetSplit] = None
    children: Tuple[Tuple[str, Any], ...] = field(default_factory=tuple)


@runtime_checkable
class SessionProtocol(Protocol):
    """The session-layer ingestion interface (PEP 544, structural).

    Implemented by :class:`repro.service.session.ControllerSession`:
    non-blocking ``submit`` returning a ticket, batched
    ``submit_many``, a streaming ``drain`` yielding settled outcome
    records in settlement order, and ``close``.  ``introspect()`` is
    shared with :class:`ControllerProtocol`, so the invariant auditor
    accepts sessions and controllers interchangeably.
    """

    def submit(self, request: Any,
               delay: Optional[float] = None) -> Any: ...

    def submit_many(self, requests: Iterable[Any],
                    stagger: Optional[float] = None) -> List[Any]: ...

    def drain(self) -> Iterator[Any]: ...

    def settle_all(self) -> List[Any]: ...

    def close(self) -> None: ...

    def introspect(self) -> ControllerView: ...


@dataclass
class AppView:
    """Structured snapshot an application returns from ``app_view()``.

    The application analogue of :class:`ControllerView`: the app
    *declares* the state its Section 5 guarantee is about, and
    :func:`repro.metrics.invariants.audit_app` checks what the
    declaration contains —

    * ``estimate`` + ``beta`` -> the Theorem 5.1 sandwich
      ``n/beta <= estimate <= beta * n``;
    * ``ids`` -> Theorem 5.2 id-uniqueness and the ``[1, 4n]`` range;
    * ``grants_banked`` / ``granted_total`` -> permit conservation
      across iteration rollovers (grants banked by closed iterations
      plus the live controller's tally equal the app's own grant
      count);
    * ``label_bits`` + ``label_slack`` -> the Corollary 5.6/5.7 label
      size ``label_bits <= 2 * bit_length(label_slack * (2n + 1))``;
    * ``controller`` -> the live iteration's engine, audited
      recursively through :func:`~repro.metrics.invariants.audit_controller`.
    """

    name: str
    iterations: int
    size: int
    beta: Optional[float] = None
    estimate: Optional[int] = None
    ids: Optional[Tuple[int, ...]] = None
    grants_banked: int = 0
    granted_total: int = 0
    label_bits: Optional[int] = None
    label_slack: Optional[int] = None
    controller: Optional[Any] = None


@runtime_checkable
class AppProtocol(Protocol):
    """The application-layer session interface (PEP 544, structural).

    Implemented by :class:`repro.apps.base.AppSession` and every
    Section 5 application built by :func:`repro.apps.make_app`.  The
    surface mirrors :class:`SessionProtocol` — non-blocking
    ``submit`` returning a ticket, ``submit_many``, a streaming
    ``drain`` — with two app-level additions: the drain stream carries
    *iteration boundary events* (``IterationRecord``) interleaved with
    the settled outcome records, and ``iterations_run`` exposes the
    Observation 2.1 iteration lifecycle (requests still pending when an
    iteration's controller terminates are resubmitted to the next
    iteration's controller automatically).  ``app_view()`` returns the
    :class:`AppView` declaration the invariant auditor walks.
    """

    iterations_run: int

    def submit(self, request: Any) -> Any: ...

    def submit_many(self, requests: Iterable[Any]) -> List[Any]: ...

    def serve(self, request: Any) -> Any: ...

    def drain(self) -> Iterator[Any]: ...

    def settle_all(self) -> List[Any]: ...

    def introspect(self) -> ControllerView: ...

    def app_view(self) -> AppView: ...

    def close(self) -> None: ...


@runtime_checkable
class ControllerProtocol(Protocol):
    """The interface every controller flavour implements.

    Structural (PEP 544): any object with these methods conforms; the
    eight registry flavours (see :func:`repro.registry.make_controller`)
    are all checked against it in the test suite.
    """

    def handle(self, request: Any) -> Any: ...

    def handle_batch(self, requests: Iterable[Any]) -> List[Any]: ...

    def unused_permits(self) -> int: ...

    def detach(self) -> None: ...

    def introspect(self) -> ControllerView: ...
