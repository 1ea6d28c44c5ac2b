"""Permit packages and per-node package storage (Section 3.1).

Two package kinds exist:

* **mobile** packages of level ``i`` holding exactly ``2^i * phi``
  permits — the unit of bulk permit transport;
* **static** permits — the per-node pool requests are granted from.
  All static packages at one node are merged into a single counter,
  which is exactly the representation the memory argument of
  Section 4.4.2 uses ("consider all static packages at v as one
  combined static package").

Reject packages carry no state beyond their presence (they represent
infinitely many rejects), so a node stores just a boolean.

For the name-assignment application (Section 5.2) every package can
optionally carry an explicit interval of permit serial numbers; see
``repro.apps.name_assignment`` — the core controller itself never looks
at intervals, mirroring the paper's separation.
"""

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

_package_ids = itertools.count()


@dataclass
class MobilePackage:
    """A mobile permit package.

    ``size`` always equals ``2^level * phi`` for the owning controller's
    ``phi``; the controller enforces this (property tests check it).
    ``interval`` is an optional ``(lo, hi)`` range of permit serial
    numbers, maintained only when the controller runs in interval mode
    for the name-assignment protocol.
    """

    level: int
    size: int
    package_id: int = field(default_factory=lambda: next(_package_ids))
    interval: Optional[Tuple[int, int]] = None

    def split_interval(self) -> Tuple[Optional[Tuple[int, int]],
                                      Optional[Tuple[int, int]]]:
        """Halve this package's interval (left half, right half)."""
        if self.interval is None:
            return None, None
        lo, hi = self.interval
        mid = lo + (hi - lo) // 2
        return (lo, mid), (mid + 1, hi)


@dataclass
class NodeStore:
    """Everything the controller keeps at one node.

    ``static_permits`` is the merged static pool; ``static_intervals``
    mirrors it with serial-number ranges when interval mode is on.
    """

    mobile: List[MobilePackage] = field(default_factory=list)
    static_permits: int = 0
    has_reject: bool = False
    static_intervals: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return (not self.mobile and self.static_permits == 0
                and not self.has_reject)

    def total_permits(self) -> int:
        """All permits parked at this node (mobile + static)."""
        return sum(p.size for p in self.mobile) + self.static_permits

    def take_static_serial(self) -> Optional[int]:
        """Pop one serial number from the static interval pool."""
        if not self.static_intervals:
            return None
        lo, hi = self.static_intervals[0]
        if lo == hi:
            self.static_intervals.pop(0)
        else:
            self.static_intervals[0] = (lo + 1, hi)
        return lo

    def merge_from(self, other: "NodeStore") -> None:
        """Absorb another node's store (graceful deletion hand-over)."""
        self.mobile.extend(other.mobile)
        self.static_permits += other.static_permits
        self.static_intervals.extend(other.static_intervals)
        self.has_reject = self.has_reject or other.has_reject
        other.mobile = []
        other.static_permits = 0
        other.static_intervals = []


class StoreMap:
    """Lazy node -> :class:`NodeStore` map.

    Nodes with no controller state cost nothing, matching the memory
    claim; iteration only visits nodes that ever held state.

    ``slot_owner`` enables the request engine's fast path: every store
    this map creates is additionally pinned into the node's
    ``_store_owner`` / ``_store`` slots, so per-hop lookups in hot
    climbs become two slot loads instead of a dict probe (which pays a
    Python-level ``TreeNode.__hash__`` call).  Slots are identity-
    checked against the owner; at most one controller per tree claims
    slots at a time (see ``CentralizedController``), so a pinned slot
    is always authoritative for its owner.
    """

    def __init__(self, slot_owner=None):
        self._stores: Dict[object, NodeStore] = {}
        self._slot_owner = slot_owner

    def get(self, node) -> NodeStore:
        owner = self._slot_owner
        if owner is not None and node._store_owner is owner:
            return node._store
        store = self._stores.get(node)
        if store is None:
            store = NodeStore()
            self._stores[node] = store
        if owner is not None:
            node._store_owner = owner
            node._store = store
        return store

    def peek(self, node) -> Optional[NodeStore]:
        """The store if it exists, without creating one."""
        owner = self._slot_owner
        if owner is not None and node._store_owner is owner:
            return node._store
        return self._stores.get(node)

    def discard(self, node) -> Optional[NodeStore]:
        """Remove and return a node's store (used on deletion)."""
        if self._slot_owner is not None and \
                node._store_owner is self._slot_owner:
            node._store_owner = None
            node._store = None
        return self._stores.pop(node, None)

    def items(self):
        return self._stores.items()

    def release_slots(self) -> None:
        """Unpin every slot this map owns (called on controller detach)."""
        if self._slot_owner is None:
            return
        for node in self._stores:
            if node._store_owner is self._slot_owner:
                node._store_owner = None
                node._store = None
        self._slot_owner = None

    def clear(self) -> None:
        self.release_slots()
        self._stores.clear()

    def total_parked_permits(self) -> int:
        """Permits currently sitting in packages anywhere in the tree."""
        return sum(store.total_permits() for store in self._stores.values())
