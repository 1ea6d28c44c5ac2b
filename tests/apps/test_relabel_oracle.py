"""Layout relabels vs the dict-traversal oracle (``tests/apps/oracle.py``).

A new labeling and an oracle labeling of each kind listen on the same
tree; after every topology change they must hold the same labels, the
same relabel and reset-move counts, and — for the ancestry labels —
the same cursors, where the new structure's cursor is the stored one
or, for a node that has not gained a child since the last relabel, the
derived ``high - slack + 2``.
"""

import random

from hypothesis import example, given, settings, strategies as st

from repro import RequestKind
from repro.apps import AncestryLabeling, RoutingLabeling
from repro.workloads import (
    NodePicker,
    build_path,
    build_random_tree,
    build_star,
    random_request,
)

from tests.apps.oracle import OracleAncestryLabeling, OracleRoutingLabeling

CHURN = {
    RequestKind.ADD_LEAF: 0.35,
    RequestKind.ADD_INTERNAL: 0.15,
    RequestKind.REMOVE_LEAF: 0.3,
    RequestKind.REMOVE_INTERNAL: 0.2,
}

BUILDERS = {
    "random": build_random_tree,
    "path": lambda n, seed: build_path(n),
    "star": lambda n, seed: build_star(n),
}


def apply(tree, request):
    kind = request.kind
    if kind is RequestKind.ADD_LEAF:
        tree.add_leaf(request.node)
    elif kind is RequestKind.ADD_INTERNAL:
        tree.add_internal(request.node, request.child)
    elif kind is RequestKind.REMOVE_LEAF:
        tree.remove_leaf(request.node)
    elif kind is RequestKind.REMOVE_INTERNAL:
        tree.remove_internal(request.node)


def assert_same(new, oracle):
    assert new.labels == oracle.labels
    assert new.relabels == oracle.relabels
    assert new.labeled_size == oracle.labeled_size
    assert new.counters.reset_moves == oracle.counters.reset_moves


def assert_same_cursors(new, oracle):
    assert oracle._cursor.keys() == oracle.labels.keys()
    derive = 2 - new.slack
    for node, (_, high) in new.labels.items():
        assert new._cursor.get(node, high + derive) == oracle._cursor[node]


@settings(max_examples=60, deadline=None)
@given(shape=st.just("random"), n=st.integers(1, 300),
       seed=st.integers(0, 10_000), slack=st.integers(2, 8),
       steps=st.integers(0, 80))
@example(shape="path", n=20_000, seed=0, slack=4, steps=16)
@example(shape="star", n=300, seed=1, slack=2, steps=80)
def test_layout_relabels_match_the_oracle(shape, n, seed, slack, steps):
    tree = BUILDERS[shape](n, seed)
    ancestry = AncestryLabeling(tree, slack=slack)
    ancestry_oracle = OracleAncestryLabeling(tree, slack=slack)
    routing = RoutingLabeling(tree)
    routing_oracle = OracleRoutingLabeling(tree)
    assert_same(ancestry, ancestry_oracle)
    assert_same_cursors(ancestry, ancestry_oracle)
    assert_same(routing, routing_oracle)
    rng = random.Random(seed)
    picker = NodePicker(tree)
    for _ in range(steps):
        apply(tree, random_request(tree, rng, mix=CHURN, picker=picker))
        assert_same(ancestry, ancestry_oracle)
        assert_same_cursors(ancestry, ancestry_oracle)
        assert_same(routing, routing_oracle)
    picker.detach()
