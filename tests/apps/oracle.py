"""The relabel oracle: the per-node dict traversals.

These are the label structures' relabels as the library ran them before
:meth:`repro.tree.DynamicTree.preorder_layout` flattened the tree into
index-aligned lists, kept verbatim as the model the layout relabels are
checked against: subtree sizes summed into a dict keyed by node over
the reversed preorder, then a stack DFS that hands each child the next
interval after its earlier siblings' and stores every node's cursor.

:class:`OracleAncestryLabeling` also keeps the old ``_place_new_node``
(stored cursors only, no derived default), so the derived-cursor
invariant of :class:`repro.apps.AncestryLabeling` is checked against
the cursors the old code stored.  Property-tested in
``tests/apps/test_relabel_oracle.py``.
"""

from typing import Dict

from repro.apps import AncestryLabeling, RoutingLabeling
from repro.tree.node import TreeNode


class OracleAncestryLabeling(AncestryLabeling):
    """:class:`AncestryLabeling` with the legacy relabel and placement."""

    def _interval_need(self, node: TreeNode,
                       sizes: Dict[TreeNode, int]) -> int:
        return self.slack * sizes[node]

    def _relabel(self) -> None:
        """Assign fresh intervals: one DFS traversal (2(n-1) messages)."""
        self.relabels += 1
        self.labeled_size = self.tree.size
        self.counters.reset_moves += 2 * max(self.tree.size - 1, 0)
        self.labels.clear()
        self._cursor.clear()
        sizes: Dict[TreeNode, int] = {}
        order = list(self.tree.nodes())
        for node in reversed(order):
            sizes[node] = 1 + sum(sizes[c] for c in node.children)
        self._assign(self.tree.root, 0, sizes)

    def _assign(self, node: TreeNode, low: int,
                sizes: Dict[TreeNode, int]) -> None:
        stack = [(node, low)]
        while stack:
            current, lo = stack.pop()
            hi = lo + self._interval_need(current, sizes) - 1
            self.labels[current] = (lo, hi)
            child_lo = lo + 1
            for child in current.children:
                stack.append((child, child_lo))
                child_lo += self._interval_need(child, sizes)
            self._cursor[current] = child_lo

    def _place_new_node(self, node: TreeNode, parent: TreeNode) -> None:
        """Give a fresh leaf half of its parent's remaining gap budget.

        Halving lets ~log(gap) nested insertions succeed before a
        relabel is forced, keeping relabels rare on random growth.
        """
        parent_low, parent_high = self.labels[parent]
        cursor = self._cursor.get(parent, parent_low + 1)
        width = (parent_high - cursor) // 2
        if width < 1:
            self._relabel()
            return
        self.labels[node] = (cursor, cursor + width - 1)
        self._cursor[node] = cursor + 1
        self._cursor[parent] = cursor + width


class OracleRoutingLabeling(RoutingLabeling):
    """:class:`RoutingLabeling` with the legacy relabel."""

    def _relabel(self) -> None:
        """One DFS traversal: tight intervals, 2(n-1) messages."""
        self.relabels += 1
        self.labeled_size = self.tree.size
        self.counters.reset_moves += 2 * max(self.tree.size - 1, 0)
        self.labels.clear()
        sizes: Dict[TreeNode, int] = {}
        order = list(self.tree.nodes())
        for node in reversed(order):
            sizes[node] = 1 + sum(sizes[c] for c in node.children)
        stack = [(self.tree.root, 0)]
        while stack:
            node, low = stack.pop()
            self.labels[node] = (low, low + sizes[node] - 1)
            child_low = low + 1
            for child in node.children:
                stack.append((child, child_low))
                child_low += sizes[child]
