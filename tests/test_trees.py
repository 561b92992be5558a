import random

import pytest

from cbpv_quant.trees import Leaf, Node, Unknown, eta
from spec import contains_unknown, leaves, map_leaves, mu, tree_depth, tree_leq, truncate


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


@pytest.mark.parametrize("seed", range(25))
def test_truncate_past_the_depth_returns_the_tree(seed):
    rng = random.Random(seed)
    t = random_tree(rng, 4, lambda: rng.randrange(5))
    assert truncate(t, tree_depth(t) + 1) is t


def test_truncate_shares_a_child_shallower_than_the_cut():
    shallow = Node("nor", (Leaf(1), Unknown))
    deep = Node("nor", (Node("nor", (Leaf(2), Leaf(3))), Leaf(4)))
    t = Node("nor", (shallow, deep))
    cut = truncate(t, 3)
    assert cut is not t and cut.children[0] is shallow
    assert cut.children[1] is not deep and cut.children[1].children[1] is deep.children[1]
    assert cut == Node("nor", (shallow, Node("nor", (Node("nor", (Unknown, Unknown)), Leaf(4)))))


@pytest.mark.parametrize(
    "law,bound",
    [
        # recorded with the copies gone; copying every truncation whole
        # takes 1,055
        ("law_scott_chain", 779),
    ],
)
def test_law_samples_build_no_copies(monkeypatch, law, bound):
    # law b's tree-level sampler (tests/spec.py) keeps, in its truncations,
    # what the cut leaves whole
    import spec
    from cbpv_quant import laws

    built = 0
    init = Node.__init__

    def counting(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Node, "__init__", counting)
    getattr(spec, law)(laws.standard_modalities()["E"], laws.LawParams(45, 3, 4))
    assert built <= bound


def test_leaves_and_contains_unknown():
    t = Node("nor", (Leaf(1), Node("nor", (Unknown, Leaf(2)))))
    assert list(leaves(t)) == [1, 2]
    assert contains_unknown(t)
    assert not contains_unknown(Leaf(1))
