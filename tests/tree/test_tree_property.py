"""Property-based tests: random mutation storms keep the tree sound."""

import random

from hypothesis import given, settings, strategies as st

from repro.tree import DynamicTree, ancestors
from repro.tree.ports import SequentialPortAssigner
from repro.workloads import build_path


def apply_random_mutations(tree, rng, steps):
    """Apply feasible random mutations; returns counts by kind."""
    counts = {"add_leaf": 0, "add_internal": 0,
              "remove_leaf": 0, "remove_internal": 0}
    for _ in range(steps):
        nodes = list(tree.nodes())
        node = rng.choice(nodes)
        action = rng.randrange(4)
        if action == 0:
            tree.add_leaf(node)
            counts["add_leaf"] += 1
        elif action == 1 and node.children:
            child = rng.choice(node.children)
            tree.add_internal(node, child)
            counts["add_internal"] += 1
        elif action == 2 and not node.is_root and not node.children:
            tree.remove_leaf(node)
            counts["remove_leaf"] += 1
        elif action == 3 and not node.is_root and node.children:
            tree.remove_internal(node)
            counts["remove_internal"] += 1
    return counts


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), steps=st.integers(1, 120))
def test_random_mutations_keep_tree_valid(seed, steps):
    rng = random.Random(seed)
    tree = DynamicTree()
    apply_random_mutations(tree, rng, steps)
    tree.validate()
    assert tree.size >= 1
    assert tree.root.alive


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), steps=st.integers(1, 120))
def test_accounting_invariants(seed, steps):
    rng = random.Random(seed)
    tree = DynamicTree()
    counts = apply_random_mutations(tree, rng, steps)
    additions = counts["add_leaf"] + counts["add_internal"]
    removals = counts["remove_leaf"] + counts["remove_internal"]
    assert tree.total_ever == 1 + additions
    assert tree.size == 1 + additions - removals
    assert tree.topology_changes == sum(counts.values())
    assert len(tree.size_history) == tree.topology_changes


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), steps=st.integers(1, 80))
def test_ports_stay_locally_distinct(seed, steps):
    rng = random.Random(seed)
    tree = DynamicTree(port_assigner=SequentialPortAssigner())
    apply_random_mutations(tree, rng, steps)
    for node in tree.nodes():
        ports = []
        if node.port_to_parent is not None:
            ports.append(node.port_to_parent)
        for child in node.children:
            port = node.port_of(child)
            assert port is not None
            ports.append(port)
        assert len(ports) == len(set(ports))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), steps=st.integers(1, 80))
def test_depths_consistent_with_parent_chain(seed, steps):
    rng = random.Random(seed)
    tree = DynamicTree()
    apply_random_mutations(tree, rng, steps)
    for node in tree.nodes():
        if node.parent is not None:
            assert tree.depth(node) == tree.depth(node.parent) + 1


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), steps=st.integers(0, 120))
def test_preorder_layout_flattens_the_tree(seed, steps):
    rng = random.Random(seed)
    tree = DynamicTree()
    apply_random_mutations(tree, rng, steps)
    order, parent_index, sizes = tree.preorder_layout()
    assert order == list(tree.nodes())
    position = {node: j for j, node in enumerate(order)}
    assert parent_index == [-1 if node.parent is None
                            else position[node.parent] for node in order]
    for j, node in enumerate(order):
        subtree = order[j:j + sizes[j]]
        assert all(node in ancestors(v) for v in subtree)
        assert sizes[j] == 1 + sum(sizes[position[c]]
                                   for c in node.children)


def test_preorder_layout_of_a_deep_path():
    tree = build_path(20_000)
    order, parent_index, sizes = tree.preorder_layout()
    assert order == list(tree.nodes())
    assert parent_index == list(range(-1, 19_999))
    assert sizes == list(range(20_000, 0, -1))
