"""Property tests for the Euler-tour ancestry structure.

The contract: ``DynamicTree.depth`` / ``ancestor_at`` /
``ancestor_distance`` agree *exactly* with the parent-pointer walks of
:mod:`repro.tree.paths` after every change of any of the four kinds,
whether the answer comes from the capped walk or from the tour — and
the tour itself stays the Euler tour of the tree
(``DynamicTree.validate`` checks it).  A timing gate measured within
one run keeps deep queries far cheaper than the walks.
"""

import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import TopologyError
from repro.tree import DynamicTree, paths
from repro.tree.dynamic_tree import WALK_CAP
from repro.tree.euler_tour import BLOCK_TOKENS, CHUNK_BLOCKS

KINDS = ("add_leaf", "add_internal", "remove_leaf", "remove_internal")
#: A change's pick is a position in [0, PICKS] scaled onto the eligible
#: nodes in preorder: 0 is the first (the root when eligible), PICKS
#: the last (the deepest node of a path).
PICKS = 1000


def build_path(length):
    """A path of ``length`` edges; returns ``(tree, deepest node)``."""
    tree = DynamicTree()
    node = tree.root
    for _ in range(length):
        node = tree.add_leaf(node)
    return tree, node


def apply_change(tree, kind, pick):
    """Apply one change of ``kind`` at the picked eligible node (a
    no-op when no node is eligible)."""
    nodes = list(tree.nodes())
    if kind == "add_leaf":
        eligible = nodes
    elif kind == "add_internal":
        eligible = [n for n in nodes if n.children]
    elif kind == "remove_leaf":
        eligible = [n for n in nodes if not n.is_root and not n.children]
    else:
        eligible = [n for n in nodes if not n.is_root and n.children]
    if not eligible:
        return
    victim = eligible[pick * (len(eligible) - 1) // PICKS]
    if kind == "add_leaf":
        tree.add_leaf(victim)
    elif kind == "add_internal":
        tree.add_internal(victim,
                          victim.children[pick % len(victim.children)])
    elif kind == "remove_leaf":
        tree.remove_leaf(victim)
    else:
        tree.remove_internal(victim)


def check_against_walks(tree, rng):
    """Sampled nodes (always the last in preorder) answer exactly as
    the parent walks do, at every hop count up to 300 and a stride of
    200 more; then the whole structure validates."""
    nodes = list(tree.nodes())
    for node in [nodes[-1]] + [rng.choice(nodes) for _ in range(5)]:
        chain = list(paths.ancestors(node))
        depth = len(chain) - 1
        assert tree.depth(node) == depth
        for hops in chain_hops(depth, rng):
            assert tree.ancestor_at(node, hops) is chain[hops]
        with pytest.raises(TopologyError):
            tree.ancestor_at(node, depth + 1)
        other = rng.choice(nodes + [chain[depth // 2]])
        expected = (paths.distance_to_ancestor(node, other)
                    if paths.is_ancestor(other, node) else None)
        assert tree.ancestor_distance(node, other) == expected
    tree.validate()


def chain_hops(depth, rng):
    """Every hop count up to 300, then a stride of about 200 counts
    from a random offset, and the root."""
    hops = set(range(min(depth, 300) + 1))
    stride = max(1, depth // 200)
    hops.update(range(rng.randrange(stride), depth + 1, stride))
    hops.add(depth)
    return sorted(hops)


@settings(max_examples=40, deadline=None)
@given(spine=st.integers(min_value=0, max_value=140),
       changes=st.lists(st.tuples(st.sampled_from(KINDS),
                                  st.integers(min_value=0, max_value=PICKS)),
                        max_size=30),
       seed=st.integers(min_value=0, max_value=2 ** 16))
# A 20,000-node path: nothing recurses, in the queries, the tour's
# build, its upkeep or validate.
@example(spine=20_000, seed=0, changes=[
    ("add_internal", 0), ("remove_internal", 0), ("remove_leaf", PICKS)])
# The tour is first built in the middle of churn, once the path grows
# past the walk cap, and then kept through all four kinds of change.
@example(spine=WALK_CAP - 4, seed=1, changes=[("add_leaf", PICKS)] * 6 + [
    ("add_internal", PICKS // 2), ("remove_leaf", PICKS),
    ("remove_internal", PICKS // 3), ("add_leaf", PICKS)])
# Leaves piled under the root split the last block; removing them again
# empties blocks, which are dropped.
@example(spine=100, seed=2,
         changes=[("add_leaf", 0)] * 70 + [("remove_leaf", PICKS)] * 70)
# Splices just below the root of a deep path shift every depth.
@example(spine=300, seed=3, changes=[("add_internal", 0)] * 3)
# A tree with only the root: every removal and splice is a no-op.
@example(spine=0, seed=4, changes=[
    ("remove_leaf", 0), ("remove_internal", 0), ("add_internal", 0)])
def test_agrees_with_parent_walks_after_every_change(spine, changes, seed):
    rng = random.Random(seed)
    tree, _ = build_path(spine)
    check_against_walks(tree, rng)
    for kind, pick in changes:
        apply_change(tree, kind, pick)
        check_against_walks(tree, rng)


def test_every_ancestor_of_a_deep_caterpillar():
    """Every hop count from the deepest node of a caterpillar spread
    over several chunks, after splices and removals near the top."""
    tree, deepest = build_path(3000)
    for node in list(tree.nodes())[:-1]:
        tree.add_leaf(node)
    assert tree.depth(deepest) == 3000
    assert len(tree._tour.chunks) > 3
    spine = paths.path_between(deepest, tree.root)[::-1]
    for node in spine[1:200:7]:
        tree.add_internal(node.parent, node)
    for node in spine[300:600:5]:
        tree.remove_internal(node)
    chain = list(paths.ancestors(deepest))
    assert [tree.ancestor_at(deepest, hops) for hops in range(len(chain))] \
        == chain
    tree.validate()


def test_tour_is_built_only_past_the_walk_cap():
    """Shallow trees never build (nor pay upkeep for) the tour, not
    even for a query that asks too far up; the first query past the
    cap builds it."""
    tree, deepest = build_path(WALK_CAP - 1)
    assert tree.depth(deepest) == WALK_CAP - 1
    assert tree.ancestor_at(deepest, WALK_CAP - 1) is tree.root
    with pytest.raises(TopologyError):
        tree.ancestor_at(deepest, WALK_CAP + 5)
    assert tree._tour is None
    deeper = tree.add_leaf(deepest)
    assert tree.depth(deeper) == WALK_CAP
    assert tree._tour is not None
    tree.validate()


def tour_blocks(tree):
    return [block for chunk in tree._tour.chunks for block in chunk.blocks]


def test_runs_split_and_empty_runs_drop():
    """Leaves piled under the root split blocks, then chunks; removing
    them again drops the emptied runs, at both levels."""
    tree, deepest = build_path(100)
    assert tree.depth(deepest) == 100
    tour = tree._tour
    assert len(tour.chunks) == 1
    leaves = [tree.add_leaf(tree.root)
              for _ in range(2 * BLOCK_TOKENS * CHUNK_BLOCKS)]
    assert len(tour.chunks) > 1
    assert max(len(b.keys) for b in tour_blocks(tree)) <= 2 * BLOCK_TOKENS
    assert max(len(c.blocks) for c in tour.chunks) <= 2 * CHUNK_BLOCKS
    tree.validate()
    peak = len(tour_blocks(tree)), len(tour.chunks)
    for leaf in reversed(leaves):
        tree.remove_leaf(leaf)
    assert len(tour_blocks(tree)) < peak[0]
    assert len(tour.chunks) < peak[1]
    tree.validate()
    assert tree.ancestor_at(deepest, 100) is tree.root


def test_validate_rejects_a_corrupt_tour():
    tree, deepest = build_path(200)
    tree.depth(deepest)
    tree.validate()
    sums = tree._tour.chunks[0].sums
    sums[1] += 1
    with pytest.raises(TopologyError):
        tree.validate()
    sums[1] -= 1
    tree.validate()
    # Swap two tokens consistently in all three lists: every run's
    # tallies still match, only the order is wrong.
    block = tour_blocks(tree)[0]
    for tokens in (block.keys, block.nodes):
        tokens[1], tokens[2] = tokens[2], tokens[1]
    with pytest.raises(TopologyError):
        tree.validate()


def best_of(fn, *args, repeat=5):
    best = float("inf")
    for _ in range(repeat):
        began = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - began)
    return best


def test_deep_queries_beat_parent_walks_tenfold():
    """The cost gate, a ratio measured within one run: on a 20,000-node
    path spliced 200 times just below the root, the tour answers
    ``depth`` and a 10,000-hop ``ancestor_at`` at least 10x faster than
    the parent walks, so a regression to walking fails here."""
    tree, deepest = build_path(20_000)
    tree.depth(deepest)
    for _ in range(200):
        tree.add_internal(tree.root, tree.root.children[0])
    assert tree.depth(deepest) == paths.depth(deepest) == 20_200
    assert tree.ancestor_at(deepest, 10_000) \
        is paths.ancestor_at(deepest, 10_000)
    tour_depth = best_of(tree.depth, deepest)
    walk_depth = best_of(paths.depth, deepest)
    assert walk_depth >= 10 * tour_depth, (walk_depth, tour_depth)
    tour_ancestor = best_of(tree.ancestor_at, deepest, 10_000)
    walk_ancestor = best_of(paths.ancestor_at, deepest, 10_000)
    assert walk_ancestor >= 10 * tour_ancestor, (walk_ancestor,
                                                 tour_ancestor)
