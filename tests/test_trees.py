import random

import pytest

from cbpv_quant.trees import (
    Leaf,
    Node,
    Unknown,
    contains_unknown,
    eta,
    leaves,
    map_leaves,
    mu,
    tree_depth,
    tree_leq,
    truncate,
)


def random_tree(rng, depth, leaf):
    if depth == 0 or rng.random() < 0.3:
        return Unknown if rng.random() < 0.15 else Leaf(leaf())
    return Node("nor", (random_tree(rng, depth - 1, leaf), random_tree(rng, depth - 1, leaf)))


def test_eta_is_single_leaf():
    assert eta(5) == Leaf(5)


@pytest.mark.parametrize("seed", range(25))
def test_monad_laws(seed):
    rng = random.Random(seed)
    t = random_tree(rng, 3, lambda: rng.randrange(5))
    assert mu(eta(t)) == t
    assert mu(map_leaves(t, eta)) == t
    tt = random_tree(rng, 2, lambda: random_tree(rng, 2, lambda: random_tree(rng, 1, lambda: rng.randrange(3))))
    assert mu(mu(tt)) == mu(map_leaves(tt, mu))


def test_map_leaves_passes_unknown():
    assert map_leaves(Unknown, lambda x: x + 1) == Unknown
    t = Node("nor", (Leaf(1), Unknown))
    assert map_leaves(t, lambda x: x + 1) == Node("nor", (Leaf(2), Unknown))


def test_tree_leq_bottom_least():
    t = Node("por", (Leaf(1), Leaf(2)))
    assert tree_leq(Unknown, t)
    assert tree_leq(Unknown, Unknown)


def test_tree_leq_prune_one_child():
    big = Node("por", (Leaf("a"), Leaf("b")))
    small = Node("por", (Unknown, Leaf("b")))
    assert tree_leq(small, big)
    assert not tree_leq(big, small)


def test_tree_leq_distinct_leaves():
    assert not tree_leq(Leaf("a"), Leaf("b"))
    assert tree_leq(Leaf("a"), Leaf("a"))


def test_truncate_chain():
    t = Node("nor", (Node("nor", (Leaf(1), Leaf(2))), Leaf(3)))
    chain = [truncate(t, k) for k in range(tree_depth(t) + 2)]
    assert chain[0] == Unknown
    assert chain[-1] == t
    for a, b in zip(chain, chain[1:]):
        assert tree_leq(a, b)


def test_leaves_and_contains_unknown():
    t = Node("nor", (Leaf(1), Node("nor", (Unknown, Leaf(2)))))
    assert list(leaves(t)) == [1, 2]
    assert contains_unknown(t)
    assert not contains_unknown(Leaf(1))
