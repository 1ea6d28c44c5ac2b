"""Run-auditing invariant checker for every controller flavour.

The paper's guarantees are worst-case over adversarial request streams
and schedules, so every run — friendly or adversarial, centralized or
distributed — must satisfy:

* **safety** (Definition, Section 2.2): at most ``M`` permits granted;
* **waste** (liveness): once anything has been rejected, at least
  ``M - W`` permits must have been granted — i.e. at most ``W`` permits
  are wasted;
* **conservation**: permits are neither created nor destroyed by
  package splits, graceful hand-overs, stage/epoch rollovers — granted
  plus root storage plus parked packages always totals ``M``;
* **package shape** (Section 3.1): every parked mobile package of level
  ``i`` holds exactly ``2^i * phi`` permits;
* **lock ordering** (Section 4.3.1, distributed only): a locked node's
  holder carries that node on its locked path, queued agents are in the
  WAITING state, and a quiescent engine holds no locks and no waiters;
* **counter monotonicity**: move/message counters never decrease
  (checked in stream via :class:`CounterWatch`).

Dispatch is protocol-based: every controller flavour implements
:meth:`repro.protocol.ControllerProtocol.introspect`, returning a
:class:`repro.protocol.ControllerView` that *declares* its auditable
state — tallies, root storage, package stores or whiteboards, the
wrapper budget split, and nested controllers.  The auditor walks that
declaration recursively; no structural probing of private attributes.
The checker stays import-light (:mod:`repro.protocol` is typing-only),
so :mod:`repro.metrics` never imports :mod:`repro.core` and the
dependency graph stays acyclic.  The report is JSON-serializable for
the bench CLI's grid runs.
"""

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.protocol import AppView, ControllerView, StoreMapLike


@dataclass
class Violation:
    """One failed invariant check."""

    invariant: str
    message: str
    context: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> Dict[str, object]:
        return {"invariant": self.invariant, "message": self.message,
                "context": dict(self.context)}


@dataclass
class InvariantReport:
    """Outcome of auditing one run (or one slice of a grid)."""

    checks: Dict[str, int] = field(default_factory=dict)
    violations: List[Violation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def count(self, invariant: str) -> None:
        self.checks[invariant] = self.checks.get(invariant, 0) + 1

    def fail(self, invariant: str, message: str,
             **context: object) -> None:
        self.violations.append(Violation(invariant, message, context))

    def expect(self, condition: bool, invariant: str, message: str,
               **context: object) -> None:
        self.count(invariant)
        if not condition:
            self.fail(invariant, message, **context)

    def merge(self, other: "InvariantReport") -> "InvariantReport":
        for name, count in other.checks.items():
            self.checks[name] = self.checks.get(name, 0) + count
        self.violations.extend(other.violations)
        return self

    def to_json(self) -> Dict[str, object]:
        return {
            "passed": self.passed,
            "checks": dict(self.checks),
            "violations": [v.to_json() for v in self.violations],
        }


# ----------------------------------------------------------------------
# Controller audits (protocol-based dispatch).
# ----------------------------------------------------------------------
def audit_controller(controller: object,
                     report: Optional[InvariantReport] = None
                     ) -> InvariantReport:
    """Audit any controller flavour through its ``introspect()`` view.

    The controller declares its auditable state as a
    :class:`repro.protocol.ControllerView`; the auditor checks what the
    declaration contains — safety and waste always, the wrapper budget
    split when ``budget`` is present, centralized conservation and
    package shapes when ``storage``/``stores`` are, the distributed
    board/lock audits when ``boards`` is — and recurses into declared
    ``children`` (live stages, epochs, parallel engines).
    """
    report = report if report is not None else InvariantReport()
    introspect = getattr(controller, "introspect", None)
    if introspect is None:
        report.fail(
            "dispatch",
            f"controller type {type(controller).__name__} does not "
            "implement ControllerProtocol.introspect()")
        return report
    view = introspect()
    _audit_view(view, report, view.flavor)
    return report


def _audit_view(view: ControllerView, report: InvariantReport,
                label: str) -> None:
    _check_safety_and_waste(view, report, label)
    if view.budget is not None:
        # Wrapper conservation: grants banked by finished stages/epochs
        # plus the live budget equal the wrapper's own M.
        report.expect(
            view.budget.total == view.m, "conservation",
            f"{label}: live budget {view.budget.live_budget} + prior "
            f"grants {view.budget.prior_grants} = {view.budget.total} "
            f"!= M={view.m}",
            m=view.m, live=view.budget.live_budget,
            prior=view.budget.prior_grants)
    if view.boards is not None:
        _audit_boards(view, report, label)
    elif view.storage is not None:
        parked = (view.stores.total_parked_permits()
                  if view.stores is not None else 0)
        total = view.granted + view.storage + parked
        report.expect(
            total == view.m, "conservation",
            f"{label}: granted {view.granted} + storage {view.storage} "
            f"+ parked {parked} = {total} != M={view.m}",
            granted=view.granted, storage=view.storage, parked=parked,
            m=view.m)
    if view.stores is not None:
        _check_store_packages(report, view.stores, view.params, label)
    for child_label, child in view.children:
        _audit_view(child.introspect(), report, f"{label}/{child_label}")


def _check_safety_and_waste(view: ControllerView, report: InvariantReport,
                            label: str) -> None:
    report.expect(view.granted <= view.m, "safety",
                  f"{label}: granted {view.granted} exceeds M={view.m}",
                  granted=view.granted, m=view.m)
    # The liveness bound triggers on rejection for (M,W) semantics and
    # on termination for the Observation 2.1 terminating variant.
    if view.waste_gate == "termination":
        triggered = view.terminated
    else:
        triggered = view.rejected > 0
    if triggered:
        report.expect(view.granted >= view.m - view.w, "waste",
                      f"{label}: only {view.granted} grants "
                      f"({view.waste_gate} waste gate); bound requires "
                      f">= {view.m - view.w}",
                      granted=view.granted, rejected=view.rejected,
                      m=view.m, w=view.w)
    else:
        report.count("waste")


def _check_store_packages(report: InvariantReport, stores: StoreMapLike,
                          params: Any, label: str) -> None:
    """Parked mobile packages have the Section 3.1 shape."""
    for node, store in stores.items():
        for package in store.mobile:
            expected = params.mobile_size(package.level)
            report.expect(
                package.size == expected, "packages",
                f"{label}: level-{package.level} package holds "
                f"{package.size} permits, expected {expected}",
                node=getattr(node, "node_id", None), level=package.level)
        report.expect(store.static_permits >= 0, "packages",
                      f"{label}: negative static pool",
                      node=getattr(node, "node_id", None),
                      static=store.static_permits)


def _audit_boards(view: ControllerView, report: InvariantReport,
                  label: str) -> None:
    """The distributed-engine audits: conservation at quiescence, the
    locking discipline, orphaned state, package shapes."""
    quiescent = view.active_agents == 0
    if quiescent:
        # Conservation is a quiescent-state property: while agents are
        # mid-distribution their Bag carries permits that are neither
        # root storage nor parked.
        parked = view.boards.total_parked_permits()
        total = view.granted + view.storage + parked
        report.expect(total == view.m, "conservation",
                      f"{label}: granted {view.granted} + storage "
                      f"{view.storage} + parked {parked} = {total} "
                      f"!= M={view.m}",
                      granted=view.granted,
                      storage=view.storage, parked=parked, m=view.m)
    _check_lock_ordering(view, report, quiescent)
    # Package shape + orphan audit over every whiteboard.
    for node, board in view.boards.items():
        alive = node in view.tree
        report.expect(
            alive or board.is_empty, "locks",
            f"{label}: dead node {node.node_id} still holds state "
            "(orphaned store/lock/queue)",
            node=node.node_id)
        for package in board.store.mobile:
            expected = view.params.mobile_size(package.level)
            report.expect(
                package.size == expected, "packages",
                f"{label}: level-{package.level} package holds "
                f"{package.size} permits, expected {expected}",
                node=node.node_id, level=package.level)


def _check_lock_ordering(view: ControllerView, report: InvariantReport,
                         quiescent: bool) -> None:
    """Section 4.3.1 locking discipline over the whiteboards."""
    for node, board in view.boards.items():
        holder = board.locked_by
        if holder is not None:
            report.expect(
                node in holder.path, "locks",
                f"locked node {node.node_id} not on holder's path "
                f"(agent {holder.agent_id})",
                node=node.node_id, agent=holder.agent_id)
            report.expect(
                holder.state.value != "done", "locks",
                f"finished agent {holder.agent_id} still holds the lock "
                f"of node {node.node_id}",
                node=node.node_id, agent=holder.agent_id)
        report.expect(
            holder is not None or not board.queue, "locks",
            f"unlocked node {node.node_id} has {len(board.queue)} waiters",
            node=node.node_id)
        for waiter in board.queue:
            report.expect(
                waiter.state.value == "waiting", "locks",
                f"queued agent {waiter.agent_id} at node {node.node_id} "
                f"is {waiter.state.value}, not waiting",
                node=node.node_id, agent=waiter.agent_id)
        if quiescent:
            report.expect(
                holder is None and not board.queue, "locks",
                f"quiescent engine: node {node.node_id} still locked "
                "or queued",
                node=node.node_id)


# ----------------------------------------------------------------------
# Application audits (protocol-based dispatch, like the controllers).
# ----------------------------------------------------------------------
def audit_app(app: object, report: Optional[InvariantReport] = None
              ) -> InvariantReport:
    """Audit a Section 5 application through its ``app_view()``.

    The app declares its auditable state as a
    :class:`repro.protocol.AppView`; the auditor checks what the
    declaration contains —

    * the Theorem 5.1 **estimate sandwich** when ``estimate``/``beta``
      are present: ``max(estimate/n, n/estimate) <= beta``;
    * Theorem 5.2 **id uniqueness and range** when ``ids`` is present:
      all distinct, all within ``[1, 4n]``;
    * the Corollary 5.6/5.7 **label size** when ``label_bits`` /
      ``label_slack`` are present: ``label_bits <= 2 *
      bit_length(label_slack * (2n + 1))`` — every label nests in the
      root's ``[0, slack * labeled_size)`` and the halving trigger
      keeps ``labeled_size <= 2n + 1``;
    * **permit conservation across rollover**: grants banked by closed
      iterations plus the live controller's tally equal the app's own
      granted count — teardown/rebuild loses no grant and invents
      none;

    and then audits the live iteration's controller recursively via
    :func:`audit_controller` (safety, waste, conservation, package
    shapes, lock discipline — whatever the engine flavour declares).
    """
    report = report if report is not None else InvariantReport()
    app_view = getattr(app, "app_view", None)
    if app_view is None:
        report.fail(
            "dispatch",
            f"app type {type(app).__name__} does not implement "
            "AppProtocol.app_view()")
        return report
    view = app_view()
    _audit_app_view(view, report)
    return report


def _audit_app_view(view: AppView, report: InvariantReport) -> None:
    label = f"app:{view.name}"
    if view.estimate is not None and view.beta is not None:
        n = view.size
        estimate = view.estimate
        if n > 0 and estimate > 0:
            ratio = max(estimate / n, n / estimate)
            report.expect(
                ratio <= view.beta + 1e-9, "estimate",
                f"{label}: estimate {estimate} vs n={n} is a factor "
                f"{ratio:.3f} off, above beta={view.beta}",
                estimate=estimate, n=n, beta=view.beta)
        else:
            report.fail("estimate", f"{label}: degenerate size "
                        f"(n={n}, estimate={estimate})",
                        estimate=estimate, n=n)
    if view.ids is not None:
        n = view.size
        report.expect(
            len(set(view.ids)) == len(view.ids), "ids",
            f"{label}: duplicate ids among {len(view.ids)} nodes",
            count=len(view.ids))
        report.expect(
            len(view.ids) == n, "ids",
            f"{label}: {len(view.ids)} ids for {n} nodes",
            count=len(view.ids), n=n)
        bad = [i for i in view.ids if not 1 <= i <= 4 * n]
        report.expect(
            not bad, "ids",
            f"{label}: {len(bad)} id(s) outside [1, {4 * n}] "
            f"(first: {bad[:3]})", n=n)
    if view.label_bits is not None and view.label_slack is not None:
        n = view.size
        bound = 2 * (view.label_slack * (2 * n + 1)).bit_length()
        report.expect(
            view.label_bits <= bound, "labels",
            f"{label}: {view.label_bits}-bit labels above the "
            f"{bound}-bit bound for n={n}, slack={view.label_slack}",
            label_bits=view.label_bits, bound=bound, n=n,
            slack=view.label_slack)
    live = view.controller
    if live is not None:
        live_granted = getattr(live, "granted", 0)
        total = view.grants_banked + live_granted
        report.expect(
            total == view.granted_total, "conservation",
            f"{label}: banked grants {view.grants_banked} + live "
            f"{live_granted} = {total} != app tally "
            f"{view.granted_total} across {view.iterations} iterations",
            banked=view.grants_banked, live=live_granted,
            tally=view.granted_total, iterations=view.iterations)
        audit_controller(live, report)


def audit_gateway(gateway: Any,
                  report: Optional[InvariantReport] = None
                  ) -> InvariantReport:
    """Audit an ingestion gateway's conservation ledger, then recurse
    into its backend session's own audit.

    The gateway-level guarantees (duck-typed on
    :class:`repro.gateway.gateway.Gateway`: ``stats``,
    ``open_requests``, ``session``):

    * **admission conservation**: every submission is accounted for —
      ``submitted = accepted + shed_throttle + shed_breaker +
      backpressured``;
    * **settle exactly once**: every accepted envelope settles exactly
      once — ``accepted = settled + aborted + open`` and the
      ``double_settles`` counter (attempts to settle an
      already-settled ticket) is zero;
    * **verdict conservation**: the gateway's verdict tally matches
      its ledger — engine verdicts sum to ``settled``, ``shed`` to the
      two shed counters, ``backpressure`` to the queue refusals.

    Then ``gateway.session.audit(report)`` folds in the whole stack
    below (session envelope conservation, controller safety / waste /
    conservation / package shape / lock discipline, app rollover
    conservation — whatever the backend declares).
    """
    report = report if report is not None else InvariantReport()
    stats = gateway.stats
    label = "gateway"
    admitted = (stats.accepted + stats.shed_throttle
                + stats.shed_breaker + stats.backpressured)
    report.expect(
        stats.submitted == admitted, f"{label}:admission",
        f"submitted {stats.submitted} != accepted {stats.accepted} + "
        f"shed_throttle {stats.shed_throttle} + shed_breaker "
        f"{stats.shed_breaker} + backpressured {stats.backpressured}",
        submitted=stats.submitted, accepted=stats.accepted,
        shed_throttle=stats.shed_throttle,
        shed_breaker=stats.shed_breaker,
        backpressured=stats.backpressured)
    open_now = gateway.open_requests
    settled_total = stats.settled + stats.aborted + open_now
    report.expect(
        stats.accepted == settled_total, f"{label}:settle-once",
        f"accepted {stats.accepted} != settled {stats.settled} + "
        f"aborted {stats.aborted} + open {open_now}",
        accepted=stats.accepted, settled=stats.settled,
        aborted=stats.aborted, open=open_now)
    report.expect(
        stats.double_settles == 0, f"{label}:settle-once",
        f"{stats.double_settles} double-settle attempts recorded",
        double_settles=stats.double_settles)
    verdicts = stats.verdicts
    engine_verdicts = sum(
        count for verdict, count in verdicts.items()
        if verdict not in ("shed", "backpressure"))
    report.expect(
        engine_verdicts == stats.settled, f"{label}:verdicts",
        f"engine verdict tally {engine_verdicts} != settled "
        f"{stats.settled}", verdicts=dict(verdicts),
        settled=stats.settled)
    report.expect(
        verdicts.get("shed", 0) == stats.shed_throttle + stats.shed_breaker,
        f"{label}:verdicts",
        f"shed verdicts {verdicts.get('shed', 0)} != throttle "
        f"{stats.shed_throttle} + breaker {stats.shed_breaker}",
        verdicts=dict(verdicts))
    report.expect(
        verdicts.get("backpressure", 0) == stats.backpressured,
        f"{label}:verdicts",
        f"backpressure verdicts {verdicts.get('backpressure', 0)} != "
        f"refusals {stats.backpressured}", verdicts=dict(verdicts))
    gateway.session.audit(report)
    return report


def audit_fleet(fleet: Any, report: Optional[InvariantReport] = None
                ) -> InvariantReport:
    """Audit a sharded fleet: global contract, ledger, router, shards.

    Duck-typed on :class:`repro.fleet.router.FleetRouter` (``config``,
    ``shards``, ``ledger``, ``placements``, ``ring_place``,
    ``verdicts``).  Fleet-level guarantees:

    * **fleet safety**: Σ granted across shards (banked + live) never
      exceeds ``m_total``;
    * **carve conservation**: per-shard allocations sum to exactly
      ``m_total`` and carved waste allowances stay within ``w_total``
      (budget is carved, never minted);
    * **ledger conservation**: every borrowed permit is debited exactly
      once — each shard's recorded ``inbound``/``outbound`` match the
      ledger column sums, entries are well-formed (positive, between
      distinct existing shards, serials dense), and each shard's
      :class:`~repro.protocol.BudgetSplit` balances its entitlement:
      ``banked grants + live budget + reserve ==
      allocation + inbound - outbound``;
    * **router determinism**: every recorded placement equals the ring
      answer recomputed now (same origin → same shard under a fixed
      ring), and every live tree node is owned by exactly its shard;
    * **fleet waste**: once any client-visible reject happened, at
      least ``m_total - w_total`` permits were granted globally (the
      reject wave may only start when the global budget is spent).

    Then every live shard engine is audited recursively via
    :func:`audit_controller` (safety/waste/conservation/package shape
    per shard).
    """
    report = report if report is not None else InvariantReport()
    config = fleet.config
    shards = list(fleet.shards)
    label = "fleet"

    granted_total = sum(shard.granted for shard in shards)
    report.expect(
        granted_total <= config.m_total, f"{label}:safety",
        f"granted {granted_total} exceeds M_total {config.m_total}",
        granted=granted_total, m_total=config.m_total)

    allocations = sum(shard.allocation for shard in shards)
    report.expect(
        allocations == config.m_total, f"{label}:carve",
        f"shard allocations sum to {allocations}, not M_total "
        f"{config.m_total}",
        allocations=[shard.allocation for shard in shards],
        m_total=config.m_total)
    waste_carved = sum(shard.waste for shard in shards)
    report.expect(
        waste_carved <= config.w_total, f"{label}:carve",
        f"carved waste {waste_carved} exceeds W_total {config.w_total}",
        waste=[shard.waste for shard in shards], w_total=config.w_total)

    # Transfer-ledger integrity and double-entry conservation.
    names = {shard.name for shard in shards}
    entries = fleet.ledger.entries
    for position, entry in enumerate(entries):
        report.expect(
            entry.serial == position and entry.permits > 0
            and entry.donor != entry.receiver
            and entry.donor in names and entry.receiver in names,
            f"{label}:ledger",
            f"malformed transfer {entry!r} at position {position}",
            entry=entry.snapshot())
    for shard in shards:
        ledger_in = fleet.ledger.inbound(shard.name)
        ledger_out = fleet.ledger.outbound(shard.name)
        report.expect(
            shard.inbound == ledger_in and shard.outbound == ledger_out,
            f"{label}:ledger",
            f"shard {shard.name!r} books (in {shard.inbound}, out "
            f"{shard.outbound}) disagree with ledger (in {ledger_in}, "
            f"out {ledger_out})",
            shard=shard.name, inbound=shard.inbound,
            outbound=shard.outbound, ledger_inbound=ledger_in,
            ledger_outbound=ledger_out)
        split = shard.budget
        report.expect(
            split.total == shard.entitlement,
            f"{label}:conservation",
            f"shard {shard.name!r}: banked grants {split.prior_grants} "
            f"+ live budget {split.live_budget} != entitlement "
            f"{shard.entitlement} (allocation {shard.allocation} + "
            f"inbound {shard.inbound} - outbound {shard.outbound})",
            shard=shard.name, prior_grants=split.prior_grants,
            live_budget=split.live_budget,
            entitlement=shard.entitlement)

    # Router determinism: recorded placements replay identically, and
    # node ownership matches the trees.
    for origin, index in fleet.placements.items():
        report.expect(
            fleet.ring_place(origin) == index, f"{label}:routing",
            f"origin {origin!r} recorded on shard {index} but the ring "
            f"now answers {fleet.ring_place(origin)}",
            origin=origin, recorded=index)
    for shard in shards:
        for node in shard.tree.nodes():
            owner = fleet.owner_of(node)
            report.expect(
                owner == shard.index, f"{label}:routing",
                f"node {node.node_id} lives on shard {shard.index} but "
                f"is registered to {owner}",
                node=node.node_id, shard=shard.index, owner=owner)

    rejected = fleet.verdicts.get("rejected", 0)
    if rejected:
        floor = config.m_total - config.w_total
        report.expect(
            granted_total >= floor, f"{label}:waste",
            f"reject wave with only {granted_total} granted; the "
            f"global contract requires >= {floor} "
            f"(M_total {config.m_total} - W_total {config.w_total})",
            granted=granted_total, floor=floor, rejected=rejected)
    else:
        report.count(f"{label}:waste")

    for shard in shards:
        if shard.session is not None:
            audit_controller(shard.session.controller, report)
    return report


# ----------------------------------------------------------------------
# Outcome tallying and the tally audit (engine-agnostic).
# ----------------------------------------------------------------------
def tally_outcomes(outcomes: Iterable[Any]) -> Dict[str, int]:
    """Count outcomes by status: the one shared tally shape.

    Works on any iterable of objects with a ``status`` enum (the
    :class:`repro.core.requests.Outcome` contract); keys are the status
    values — ``granted``/``rejected``/``cancelled``/``pending`` — so
    the result drops straight into bench JSON documents and differential
    comparisons.
    """
    tally = {"granted": 0, "rejected": 0, "cancelled": 0, "pending": 0}
    for outcome in outcomes:
        tally[outcome.status.value] += 1
    return tally


def audit_tallies(granted: int, rejected: int, m: int, w: int,
                  report: Optional[InvariantReport] = None
                  ) -> InvariantReport:
    """Safety + waste from outcome tallies alone (engine-agnostic)."""
    report = report if report is not None else InvariantReport()
    view = ControllerView(flavor="tallies", m=m, w=w,
                          granted=granted, rejected=rejected)
    _check_safety_and_waste(view, report, "tallies")
    return report


def audit_outcomes(outcomes: Iterable[Any], m: int, w: int,
                   report: Optional[InvariantReport] = None
                   ) -> InvariantReport:
    """Safety + waste straight from an outcome list: the
    :func:`tally_outcomes` / :func:`audit_tallies` composition."""
    tally = tally_outcomes(outcomes)
    return audit_tallies(tally["granted"], tally["rejected"], m, w,
                         report=report)


# ----------------------------------------------------------------------
# Streaming counter monotonicity.
# ----------------------------------------------------------------------
class CounterWatch:
    """Asserts a counter set only ever grows.

    Call :meth:`observe` after every request (scenario drivers hook it
    into ``on_step``); each observation compares the counter snapshot
    against the previous one component-wise.
    """

    def __init__(self, counters: Any,
                 report: Optional[InvariantReport] = None) -> None:
        self._counters = counters
        self.report = report if report is not None else InvariantReport()
        self._last = counters.snapshot()

    def observe(self, *_args: object) -> None:
        current = self._counters.snapshot()
        for name, value in current.items():
            previous = self._last.get(name, 0)
            self.report.expect(
                value >= previous, "monotonicity",
                f"counter {name} decreased from {previous} to {value}",
                counter=name, before=previous, after=value)
        self._last = current
