"""The dynamic rooted spanning tree and its mutation events.

This module implements the dynamic model of Section 2.1.2: a rooted tree
whose root is never deleted, undergoing additions and removals of both
leaves and internal nodes.  Every mutation notifies registered listeners
*after* the structural change, handing them exactly the information the
"graceful manner" contract of Section 4.2 promises (which node vanished,
who its parent was, which children were re-attached), so that controller
layers can relocate packages, whiteboard data and queued agents.

Non-tree edges (allowed by the paper but irrelevant to the controller,
whose messages travel only on tree edges) are deliberately not modelled;
Section 2.1.2 classifies their insertion/removal as non-topological
events, which our request layer supports directly.

Euler-tour ancestry
-------------------
:meth:`DynamicTree.depth` and :meth:`DynamicTree.ancestor_at` answer
from parent pointers while the answer lies within :data:`WALK_CAP`
hops.  A query that goes past the cap builds an
:class:`~repro.tree.euler_tour.EulerTour` of the whole tree in one
preorder pass; from then on every mutation keeps the tour in step by
inserting or deleting the two tokens of the node it adds or removes,
and deep queries read running sums over the tour's runs of tokens.  Until a
query goes that deep, a mutation pays one ``is None`` check, so
shallow trees never pay for the tour's upkeep.

Nothing in either path grows a Python-level loop with the depth or
with the size of a subtree a splice moves: the walk stops at the cap,
and the tour touches only the runs holding the tokens a change edits
(see :mod:`repro.tree.euler_tour`).  The structure is *simulation-local*
bookkeeping: it models no messages and charges no counters (the
centralized cost model charges package moves only, and the distributed
engine's agents still pay one message per physical hop).
:mod:`repro.tree.paths` keeps the plain parent walks as the reference
the tests check it against.
"""

from typing import Iterator, List, Optional, Set, Tuple

from repro.errors import TopologyError
from repro.tree.euler_tour import EulerTour
from repro.tree.node import TreeNode
from repro.tree.ports import AdversarialPortAssigner, PortAssigner

#: Parent hops a depth or ancestor query walks before it reads (and if
#: need be builds) the Euler tour.
WALK_CAP = 64


class TreeListener:
    """Observer interface for topology mutations.

    Subclasses override the hooks they care about.  Hooks run synchronously
    inside the mutation, after the structure is updated, in registration
    order.
    """

    def on_add_leaf(self, node: TreeNode) -> None:
        """``node`` was just attached as a leaf below ``node.parent``."""

    def on_add_internal(self, node: TreeNode, parent: TreeNode,
                        child: TreeNode) -> None:
        """``node`` was spliced into the former edge ``(parent, child)``."""

    def on_remove_leaf(self, node: TreeNode, parent: TreeNode) -> None:
        """Leaf ``node`` (former child of ``parent``) was deleted."""

    def on_remove_internal(self, node: TreeNode, parent: TreeNode,
                           children: List[TreeNode]) -> None:
        """Internal ``node`` was deleted; ``children`` moved to ``parent``."""


class DynamicTree:
    """A mutable rooted tree with listener notifications and accounting.

    Attributes
    ----------
    root:
        The never-deleted root node.
    total_ever:
        Number of nodes that ever existed (deleted ones included) — the
        quantity the paper's parameter ``U`` upper-bounds.
    topology_changes:
        Count of mutations performed (the ``j`` index of Theorem 3.5).
    size_history:
        ``n_j`` — the number of nodes at the time of the j'th change,
        recorded *before* applying the change; used by the complexity
        benches to evaluate the ``sum_j log^2 n_j`` bound.
    """

    def __init__(self, port_assigner: Optional[PortAssigner] = None) -> None:
        self._port_assigner = port_assigner or AdversarialPortAssigner(seed=0)
        self._next_id = 0
        # Arbitration for the per-node store slots (see StoreMap): at
        # most one controller pins stores into TreeNode slots at a time;
        # later controllers on the same tree fall back to dict lookups.
        self.store_slot_owner: Optional[object] = None
        # Built by the first query past WALK_CAP, then maintained.
        self._tour: Optional[EulerTour] = None
        self.root = self._new_node(parent=None)
        self._alive: Set[TreeNode] = {self.root}
        self.total_ever = 1
        self.topology_changes = 0
        self.size_history: List[int] = []
        self._listeners: List[TreeListener] = []

    # ------------------------------------------------------------------
    # Listener plumbing.
    # ------------------------------------------------------------------
    def add_listener(self, listener: TreeListener) -> None:
        self._listeners.append(listener)

    def remove_listener(self, listener: TreeListener) -> None:
        """Unregister ``listener``; a no-op if it is not registered.

        Discard semantics make every layered ``detach()`` idempotent
        by construction — a second detach finds the listener gone and
        does nothing, instead of raising out of the listener list.
        """
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Current number of (alive) nodes, the paper's ``n``."""
        return len(self._alive)

    def __contains__(self, node: TreeNode) -> bool:
        return node in self._alive

    def nodes(self) -> Iterator[TreeNode]:
        """Iterate over alive nodes in DFS (preorder) from the root."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            # Reversed so that iteration visits children left-to-right.
            stack.extend(reversed(node.children))

    def preorder_layout(self) -> Tuple[List[TreeNode], List[int], List[int]]:
        """The tree flattened into three index-aligned lists.

        ``order`` lists the alive nodes in the same preorder as
        :meth:`nodes`; ``parent_index[j]`` is the position of
        ``order[j]``'s parent (-1 for the root at position 0); and
        ``sizes[j]`` is the subtree size of ``order[j]``.  A subtree
        occupies the contiguous slice ``order[j:j + sizes[j]]``, so the
        nodes between a parent ``p`` and its child ``j`` are exactly the
        subtrees of ``j``'s earlier siblings.  One iterative pass plus
        one reverse accumulation: no recursion, and no dict keyed by
        node (each probe would pay a Python-level ``__hash__``).
        """
        order: List[TreeNode] = []
        parent_index: List[int] = []
        stack = [self.root]
        above = [-1]
        while stack:
            node = stack.pop()
            parent_index.append(above.pop())
            children = node.children
            if children:
                above.extend([len(order)] * len(children))
                stack.extend(reversed(children))
            order.append(node)
        sizes = [1] * len(order)
        for j in range(len(order) - 1, 0, -1):
            sizes[parent_index[j]] += sizes[j]
        return order, parent_index, sizes

    def depth(self, node: TreeNode) -> int:
        """Hop distance from ``node`` to the root.

        A parent walk of at most :data:`WALK_CAP` hops; deeper nodes
        read the Euler tour.
        """
        current: Optional[TreeNode] = node
        for hops in range(WALK_CAP):
            current = current.parent
            if current is None:
                return hops
        return self._euler().depth(node)

    def ancestor_at(self, node: TreeNode, hops: int) -> TreeNode:
        """The ancestor exactly ``hops`` edges above ``node``.

        Semantics match :func:`repro.tree.paths.ancestor_at` (raises
        ``TopologyError`` when the root is closer than ``hops``).  Up to
        :data:`WALK_CAP` hops are walked; farther ancestors are read
        from the Euler tour, which only a node past the cap can need.
        """
        if hops < 0:
            raise TopologyError(f"negative hop count {hops}")
        if hops <= WALK_CAP:
            current = node
            for _ in range(hops):
                parent = current.parent
                if parent is None:
                    raise TopologyError(
                        f"{node} has no ancestor {hops} hops up")
                current = parent
            return current
        if self._tour is None and self.depth(node) < hops:
            raise TopologyError(f"{node} has no ancestor {hops} hops up")
        return self._euler().ancestor(node, hops)

    def ancestor_distance(self, node: TreeNode,
                          ancestor: TreeNode) -> Optional[int]:
        """Hops from ``node`` up to ``ancestor``, or ``None``.

        ``None`` when ``ancestor`` does not lie on ``node``'s root path
        (the non-raising cousin of
        :func:`repro.tree.paths.distance_to_ancestor`): a depth
        difference plus one ``ancestor_at`` check.
        """
        dist = self.depth(node) - self.depth(ancestor)
        if dist < 0:
            return None
        return dist if self.ancestor_at(node, dist) is ancestor else None

    # ------------------------------------------------------------------
    # Mutations (Section 2.1.2).
    # ------------------------------------------------------------------
    def add_leaf(self, parent: TreeNode) -> TreeNode:
        """Attach a new degree-one node below ``parent``."""
        self._require_alive(parent, "add_leaf parent")
        self._record_change()
        node = self._new_node(parent=parent)
        parent.children.append(node)
        if self._tour is not None:
            self._tour.insert_leaf(node)
        self._wire_edge(parent, node)
        self._alive.add(node)
        self.total_ever += 1
        for listener in self._listeners:
            listener.on_add_leaf(node)
        return node

    def add_internal(self, parent: TreeNode, child: TreeNode) -> TreeNode:
        """Split tree edge ``(parent, child)`` with a new node.

        ``parent`` must currently be ``child``'s parent.  The new node
        takes ``child``'s position in ``parent.children`` so DFS order is
        preserved.
        """
        self._require_alive(parent, "add_internal parent")
        self._require_alive(child, "add_internal child")
        if child.parent is not parent:
            raise TopologyError(
                f"{parent} is not the parent of {child}; cannot split edge"
            )
        self._record_change()
        node = self._new_node(parent=parent)
        index = parent.children.index(child)
        parent.children[index] = node
        node.children.append(child)
        child.parent = node
        if self._tour is not None:
            self._tour.insert_above(node, child)
        # Re-wire ports: parent's old port to child now reaches node;
        # node gets fresh ports on both sides; child's parent port is new.
        parent.detach_port_to(child)
        child.detach_port_to(parent)
        self._wire_edge(parent, node)
        self._wire_edge(node, child)
        self._alive.add(node)
        self.total_ever += 1
        for listener in self._listeners:
            listener.on_add_internal(node, parent, child)
        return node

    def remove_leaf(self, node: TreeNode) -> None:
        """Delete a childless non-root node."""
        self._require_alive(node, "remove_leaf target")
        if node.is_root:
            raise TopologyError("the root is never deleted")
        if node.children:
            raise TopologyError(f"{node} has children; use remove_internal")
        self._record_change()
        parent = node.parent
        parent.children.remove(node)
        parent.detach_port_to(node)
        node.alive = False
        if self._tour is not None:
            self._tour.remove(node)
        self._alive.discard(node)
        for listener in self._listeners:
            listener.on_remove_leaf(node, parent)

    def remove_internal(self, node: TreeNode) -> None:
        """Delete a non-root node with children; children move to parent.

        The children are spliced into the parent's child list at the
        deleted node's position, preserving DFS order.
        """
        self._require_alive(node, "remove_internal target")
        if node.is_root:
            raise TopologyError("the root is never deleted")
        if not node.children:
            raise TopologyError(f"{node} is a leaf; use remove_leaf")
        self._record_change()
        parent = node.parent
        children = list(node.children)
        index = parent.children.index(node)
        parent.children[index:index + 1] = children
        parent.detach_port_to(node)
        for child in children:
            child.parent = parent
            child.detach_port_to(node)
            self._wire_edge(parent, child)
        node.children.clear()
        node.alive = False
        if self._tour is not None:
            self._tour.remove(node)
        self._alive.discard(node)
        for listener in self._listeners:
            listener.on_remove_internal(node, parent, children)

    # ------------------------------------------------------------------
    # Validation (tests call this after random mutation storms).
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural integrity; raises ``TopologyError`` on damage.

        Once the Euler tour is built, it must match the tree too (see
        :meth:`repro.tree.euler_tour.EulerTour.check`).
        """
        seen: Set[TreeNode] = set()
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node in seen:
                raise TopologyError(f"cycle through {node}")
            seen.add(node)
            if not node.alive:
                raise TopologyError(f"dead node {node} still reachable")
            for child in node.children:
                if child.parent is not node:
                    raise TopologyError(
                        f"{child}.parent is {child.parent}, expected {node}"
                    )
                stack.append(child)
        if seen != self._alive:
            raise TopologyError(
                f"reachable set ({len(seen)}) != alive set ({len(self._alive)})"
            )
        if self._tour is not None:
            order, _parents, sizes = self.preorder_layout()
            self._tour.check(order, sizes)

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------
    def _euler(self) -> EulerTour:
        """The Euler tour, built in one preorder pass on first need."""
        if self._tour is None:
            self._tour = EulerTour(self.root)
        return self._tour

    def _new_node(self, parent: Optional[TreeNode]) -> TreeNode:
        node = TreeNode(self._next_id, parent=parent)
        self._next_id += 1
        return node

    def _wire_edge(self, parent: TreeNode, child: TreeNode) -> None:
        parent_port = self._port_assigner.next_port(parent)
        parent.attach_port(parent_port, child)
        child_port = self._port_assigner.next_port(child)
        child.attach_port(child_port, parent)
        child.port_to_parent = child_port

    def _record_change(self) -> None:
        self.size_history.append(self.size)
        self.topology_changes += 1

    def _require_alive(self, node: TreeNode, role: str) -> None:
        if node not in self._alive:
            raise TopologyError(f"{role} {node} is not in the tree")
