"""A dynamic Euler tour for depth and level-ancestor queries under churn.

Every node owns two tokens: an *entry* token (weight +1) and an *exit*
token (weight -1).  Listed in DFS order, the tokens of a subtree form
one contiguous run, and the running sum of the weights before a node's
entry token is the node's depth.  The ancestor at depth ``d`` of ``v``
owns the last token before ``v``'s entry whose running sum is at most
``d``: nothing between that token and ``v`` dips that low, so the
token is an entry and its subtree still encloses ``v``.  Because the
running sum moves by one per token, that sum is exactly ``d``, which
lets C-level ``list.index`` find the token.

The tokens are kept in two levels of runs:

* a *block* holds about :data:`BLOCK_TOKENS` tokens as three parallel
  Python lists: the token keys, their owners, and the running sum
  before each token, relative to the block start;
* a *chunk* holds about :data:`CHUNK_BLOCKS` blocks, with each block's
  weight sum and minimum running sum (its lowest ``pre`` entry);
* the tour lists the chunks, with each chunk's weight sum and minimum
  running sum.

So ``depth`` is two C-level ``sum`` calls over slices (earlier chunks,
earlier blocks of the chunk) plus the node's own running sum, and
``ancestor`` skips whole blocks and chunks whose minimum stays above
the target.  Each topology change touches only the blocks holding the
two tokens it inserts or deletes, and their chunks: a splice shifts
the depth of a whole subtree, but the runs in between keep their
tallies, because tallies are relative to the run's start.

Tokens are found by key (``2 * node_id`` for the entry, plus one for
the exit, so a key's parity is its weight) with ``list.index``, which
compares ints in C; the node's ``_tour_in`` / ``_tour_out`` slots name
the block to search, and each block names its chunk.  No Python-level
loop grows with the tree's depth or with the size of a moved subtree:
the loops that remain are bounded by the run sizes, and the one scan
over all chunks is C-level.  The only O(n) step is the one preorder
pass that builds the tour.
"""

from collections import deque
from itertools import accumulate, compress, count
from operator import add
from typing import Iterable, List, Optional, Tuple

from repro.errors import TopologyError
from repro.tree.node import TreeNode

#: Target tokens per block.  A block splits once it holds more than
#: twice this many; a block emptied by removals is dropped.
BLOCK_TOKENS = 64
#: Target blocks per chunk, split and dropped the same way.
CHUNK_BLOCKS = 32


class TourChunk:
    """A run of blocks with their weight sums and minima, index-aligned.

    ``stale`` flags a chunk whose own minimum in the tour's ``mins``
    awaits a refresh (see :meth:`EulerTour._refresh`).
    """

    __slots__ = ("blocks", "sums", "mins", "stale")

    def __init__(self, blocks: List["TourBlock"]) -> None:
        self.blocks = blocks
        self.sums = [_weight(block) for block in blocks]
        self.mins = [min(block.pre) for block in blocks]
        self.stale = False
        for block in blocks:
            block.chunk = self


class TourBlock:
    """A run of tokens: index-aligned keys, owners and running sums."""

    __slots__ = ("keys", "nodes", "pre", "chunk")

    def __init__(self, keys: List[int], nodes: List[TreeNode],
                 pre: List[int]) -> None:
        self.keys = keys
        self.nodes = nodes
        self.pre = pre
        self.chunk: Optional[TourChunk] = None
        for node, key in zip(nodes, keys):
            if key & 1:
                node._tour_out = self
            else:
                node._tour_in = self


def _weight(block: TourBlock) -> int:
    """The sum of ``block``'s token weights."""
    return block.pre[-1] + (-1 if block.keys[-1] & 1 else 1)


def _shift(pre: List[int], at: int, delta: int) -> None:
    """Add ``delta`` to the running sums from position ``at`` on."""
    pre[at:] = [value + delta for value in pre[at:]]


def _insert(block: TourBlock, pos: int, key: int, node: TreeNode,
            level: int, weight: int) -> None:
    """Insert one token of ``weight`` at ``pos``, its running sum
    ``level``; the running sums after it move by ``weight``."""
    block.keys.insert(pos, key)
    block.nodes.insert(pos, node)
    block.pre.insert(pos, level)
    _shift(block.pre, pos + 1, weight)


def _delete(block: TourBlock, pos: int, weight: int) -> None:
    """Delete the token of ``weight`` at ``pos``; the running sums
    after it move back by ``weight``."""
    del block.keys[pos], block.nodes[pos], block.pre[pos]
    _shift(block.pre, pos, -weight)


def _run_min(sums: List[int], mins: List[int]) -> int:
    """Lowest running sum inside a run of parts with these tallies."""
    return min(map(add, accumulate(sums, initial=0), mins))


def _last_index(values: List[int], value: int) -> int:
    """Index of the last occurrence of ``value``, else -1."""
    try:
        return len(values) - 1 - values[::-1].index(value)
    except ValueError:
        return -1


def _last_part(sums: List[int], mins: List[int], end: int, start: int,
               target: int) -> Tuple[int, int]:
    """The last of the first ``end`` parts of a run that dips to
    ``target``, with its start; ``start`` is where part ``end``
    starts.  ``(-1, start of part 0)`` when none does."""
    for j in range(end - 1, -1, -1):
        start -= sums[j]
        if start + mins[j] <= target:
            return j, start
    return -1, start


def _last_at_most(values: Iterable[int], bound: int) -> int:
    """Index of the last of ``values`` that is ``<= bound``, else -1."""
    hits = deque(compress(count(), map(bound.__ge__, values)), maxlen=1)
    return hits[0] if hits else -1


class EulerTour:
    """The Euler tour of one :class:`~repro.tree.DynamicTree`.

    Built from the current tree in one preorder pass, then kept in step
    by the tree's mutations (the ``insert_*`` / ``remove`` calls run
    after the tree's own pointers are updated).
    """

    __slots__ = ("chunks", "sums", "mins", "stale")

    def __init__(self, root: TreeNode) -> None:
        keys: List[int] = []
        owners: List[TreeNode] = []
        pre: List[int] = []
        level = 0
        stack = [root]
        leaving = [False]
        while stack:
            node = stack.pop()
            owners.append(node)
            pre.append(level)
            if leaving.pop():
                keys.append((node.node_id << 1) | 1)
                level -= 1
                continue
            keys.append(node.node_id << 1)
            level += 1
            stack.append(node)
            leaving.append(True)
            children = node.children
            if children:
                stack.extend(reversed(children))
                leaving.extend([False] * len(children))
        blocks: List[TourBlock] = []
        for at in range(0, len(keys), BLOCK_TOKENS):
            end = at + BLOCK_TOKENS
            base = pre[at]
            blocks.append(TourBlock(keys[at:end], owners[at:end],
                                    [value - base for value in pre[at:end]]))
        self.chunks = [TourChunk(blocks[at:at + CHUNK_BLOCKS])
                       for at in range(0, len(blocks), CHUNK_BLOCKS)]
        self.sums = [sum(chunk.sums) for chunk in self.chunks]
        self.mins = [_run_min(chunk.sums, chunk.mins)
                     for chunk in self.chunks]
        # Chunks whose entry in ``mins`` lags their blocks' tallies.
        self.stale: List[TourChunk] = []

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    def depth(self, node: TreeNode) -> int:
        """Hops from ``node`` to the root."""
        block = node._tour_in
        assert block is not None
        chunk = block.chunk
        assert chunk is not None
        return (sum(self.sums[:self.chunks.index(chunk)])
                + sum(chunk.sums[:chunk.blocks.index(block)])
                + block.pre[block.keys.index(node.node_id << 1)])

    def ancestor(self, node: TreeNode, hops: int) -> TreeNode:
        """The ancestor ``hops`` edges above ``node`` (``hops >= 0``)."""
        block = node._tour_in
        assert block is not None
        chunk = block.chunk
        assert chunk is not None
        c = self.chunks.index(chunk)
        b = chunk.blocks.index(block)
        start = sum(self.sums[:c]) + sum(chunk.sums[:b])
        pos = block.keys.index(node.node_id << 1)
        target = start + block.pre[pos] - hops
        if target < 0:
            raise TopologyError(f"{node} has no ancestor {hops} hops up")
        i = _last_index(block.pre[:pos + 1], target - start)
        if i >= 0:
            return block.nodes[i]
        # Not in this block: the last earlier block of the chunk that
        # dips to the target holds the answer, else the last earlier
        # chunk that does (chunk 0 always does: the root's entry token
        # comes first, with a running sum of 0 before it).
        b, start = _last_part(chunk.sums, chunk.mins, b, start, target)
        if b < 0:
            if self.stale:
                self._refresh()
            starts = list(accumulate(self.sums[:c], initial=0))
            c = _last_at_most(map(add, starts, self.mins[:c]), target)
            chunk = self.chunks[c]
            b, start = _last_part(chunk.sums, chunk.mins,
                                  len(chunk.blocks),
                                  starts[c] + self.sums[c], target)
        block = chunk.blocks[b]
        return block.nodes[_last_index(block.pre, target - start)]

    # ------------------------------------------------------------------
    # Mutations (called after the tree's pointers changed).
    # ------------------------------------------------------------------
    def insert_leaf(self, node: TreeNode) -> None:
        """``node`` was appended as its parent's last child: its two
        tokens go right before the parent's exit token.

        The inserted pair sums to zero and starts at the running sum
        the parent's exit token had, so nothing else changes.
        """
        parent = node.parent
        assert parent is not None
        block = parent._tour_out
        assert block is not None
        key = node.node_id << 1
        pos = block.keys.index((parent.node_id << 1) | 1)
        level = block.pre[pos]
        block.keys[pos:pos] = [key, key | 1]
        block.nodes[pos:pos] = [node, node]
        block.pre[pos:pos] = [level, level + 1]
        node._tour_in = node._tour_out = block
        if len(block.keys) > 2 * BLOCK_TOKENS:
            self._retally(block)

    def insert_above(self, node: TreeNode, child: TreeNode) -> None:
        """``node`` was spliced above ``child``: its entry token goes
        right before ``child``'s entry, its exit right after ``child``'s
        exit.  The runs in between keep their tallies."""
        key = node.node_id << 1
        child_key = child.node_id << 1
        entry_block, exit_block = child._tour_in, child._tour_out
        assert entry_block is not None and exit_block is not None
        pos = entry_block.keys.index(child_key)
        _insert(entry_block, pos, key, node, entry_block.pre[pos], 1)
        pos = exit_block.keys.index(child_key | 1) + 1
        _insert(exit_block, pos, key | 1, node, exit_block.pre[pos - 1] - 1,
                -1)
        node._tour_in, node._tour_out = entry_block, exit_block
        self._retally_pair(entry_block, exit_block)

    def remove(self, node: TreeNode) -> None:
        """Delete ``node``'s two tokens (a leaf, or an internal node
        whose children already took its place in DFS order)."""
        key = node.node_id << 1
        entry_block, exit_block = node._tour_in, node._tour_out
        assert entry_block is not None and exit_block is not None
        keys = entry_block.keys
        pos = keys.index(key)
        if pos + 2 < len(keys) and keys[pos + 1] == key | 1:
            # A leaf's pair with a token after it in the block: that
            # token keeps the pair's starting sum, so no tally moves.
            del keys[pos:pos + 2], entry_block.nodes[pos:pos + 2], \
                entry_block.pre[pos:pos + 2]
        else:
            _delete(entry_block, pos, 1)
            _delete(exit_block, exit_block.keys.index(key | 1), -1)
            self._retally_pair(entry_block, exit_block)
        node._tour_in = node._tour_out = None

    # ------------------------------------------------------------------
    # Validation.
    # ------------------------------------------------------------------
    def check(self, order: List[TreeNode], sizes: List[int]) -> None:
        """Raise ``TopologyError`` unless the tour matches the tree.

        ``order`` and ``sizes`` are the tree's preorder layout: the
        token sequence must be its Euler tour, every run's tallies must
        match its contents, and every node's block references (and
        every block's chunk reference) must name the run that holds it.
        """
        expected: List[int] = []
        open_nodes: List[int] = []
        for j, node in enumerate(order):
            while open_nodes and open_nodes[-1] + sizes[open_nodes[-1]] <= j:
                expected.append((order[open_nodes.pop()].node_id << 1) | 1)
            expected.append(node.node_id << 1)
            open_nodes.append(j)
        while open_nodes:
            expected.append((order[open_nodes.pop()].node_id << 1) | 1)
        actual: List[int] = []
        self._refresh()
        if not len(self.chunks) == len(self.sums) == len(self.mins):
            raise TopologyError("tour chunk tallies are misaligned")
        for c, chunk in enumerate(self.chunks):
            if not chunk.blocks or not \
                    len(chunk.blocks) == len(chunk.sums) == len(chunk.mins):
                raise TopologyError(f"tour chunk {c} is empty or ragged")
            if self.sums[c] != sum(chunk.sums) or \
                    self.mins[c] != _run_min(chunk.sums, chunk.mins):
                raise TopologyError(f"tour chunk {c} tallies are stale")
            for b, block in enumerate(chunk.blocks):
                keys, nodes, pre = block.keys, block.nodes, block.pre
                where = f"tour block {b} of chunk {c}"
                if block.chunk is not chunk or not keys or \
                        not len(keys) == len(nodes) == len(pre):
                    raise TopologyError(f"{where} is orphaned or ragged")
                running = list(accumulate(
                    (-1 if key & 1 else 1 for key in keys[:-1]), initial=0))
                if pre != running or chunk.sums[b] != _weight(block) or \
                        chunk.mins[b] != min(pre):
                    raise TopologyError(f"{where} running sums are stale")
                for key, node in zip(keys, nodes):
                    home = node._tour_out if key & 1 else node._tour_in
                    if key >> 1 != node.node_id or home is not block:
                        raise TopologyError(
                            f"token {key} of {where} is inconsistent")
                actual.extend(keys)
        if actual != expected:
            raise TopologyError("tour token order is not the Euler tour")

    # ------------------------------------------------------------------
    # Run upkeep.
    # ------------------------------------------------------------------
    def _retally_pair(self, first: TourBlock, second: TourBlock) -> None:
        """Retally the blocks of an edited token pair (once if shared)."""
        if first is not second:
            self._retally(first)
        self._retally(second)

    def _refresh(self) -> None:
        """Recompute the minima of the stale chunks still in the tour."""
        for chunk in self.stale:
            chunk.stale = False
            if chunk.blocks:
                self.mins[self.chunks.index(chunk)] = _run_min(chunk.sums,
                                                               chunk.mins)
        self.stale.clear()

    def _retally(self, block: TourBlock) -> None:
        """Refresh the tallies of ``block`` and its chunk after an edit:
        drop a run left empty, split one past twice its target size.
        The chunk's own minimum is only flagged stale: ``ancestor``
        refreshes it when a search leaves the chunk of its node."""
        chunk = block.chunk
        assert chunk is not None
        blocks = chunk.blocks
        b = blocks.index(block)
        pre = block.pre
        if not pre:
            del blocks[b], chunk.sums[b], chunk.mins[b]
        else:
            if len(pre) > 2 * BLOCK_TOKENS:
                half = len(pre) >> 1
                base = pre[half]
                tail = TourBlock(block.keys[half:], block.nodes[half:],
                                 [value - base for value in pre[half:]])
                del block.keys[half:], block.nodes[half:], pre[half:]
                tail.chunk = chunk
                blocks.insert(b + 1, tail)
                chunk.sums.insert(b + 1, _weight(tail))
                chunk.mins.insert(b + 1, min(tail.pre))
            chunk.sums[b] = _weight(block)
            chunk.mins[b] = min(pre)
        c = self.chunks.index(chunk)
        if not blocks:
            del self.chunks[c], self.sums[c], self.mins[c]
            return
        if len(blocks) > 2 * CHUNK_BLOCKS:
            half = len(blocks) >> 1
            tail_chunk = TourChunk(blocks[half:])
            del blocks[half:], chunk.sums[half:], chunk.mins[half:]
            self.chunks.insert(c + 1, tail_chunk)
            self.sums.insert(c + 1, sum(tail_chunk.sums))
            self.mins.insert(c + 1, _run_min(tail_chunk.sums,
                                             tail_chunk.mins))
        self.sums[c] = sum(chunk.sums)
        if not chunk.stale:
            chunk.stale = True
            self.stale.append(chunk)
