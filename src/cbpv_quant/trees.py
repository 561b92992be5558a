"""Effect trees and their algebra.

A tree is a leaf (carrying an arbitrary payload), the Unknown marker for an
unexplored/fuel-exhausted subtree, or an operator node whose children are a
plain tuple.  A nat-indexed operator (a store lookup) has one child per
storable value, 0..V-1 for value bound V, built like any other child.
Unknown records fuel exhaustion only; it is never a certificate of
divergence.  The approximation order on trees (`tree_leq`) and
`contains_unknown`, which only the tests read, live in `tests/spec.py`.

`machine.eval_tree` shares equal subtrees: one node per (configuration,
fuel), reached along every path that leads to it.  The walkers here
(`map_leaves`, `graft`, `truncate`, `tree_depth`, `leaves`) keep no memo.
Only `laws` calls them, on trees it generates (`random_value_tree` and its
small relator pools), which share nothing; `map_leaves` only for the
relator law's inverse images, and the tests.  Applied to an `eval_tree`
result they visit every copy of a shared node, and the three that rebuild
(`map_leaves`, `graft`, `truncate`) return the tree unshared: a branching
loop's tree at a high fuel costs time and memory exponential in the fuel.
`truncate` returns a subtree the cut leaves whole as it is, so the
truncations of a chain share what they keep with the tree.
"""

from __future__ import annotations

from operator import is_
from typing import Any, Callable, Iterator, Optional

from .syntax import CbpvError


class TreeError(CbpvError):
    pass


class EffectTree:
    __slots__ = ()


class Leaf(EffectTree):
    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, Leaf) and self.value == other.value

    def __repr__(self):
        return f"Leaf({self.value!r})"


class _Unknown(EffectTree):
    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, _Unknown)

    def __repr__(self):
        return "Unknown"


Unknown = _Unknown()


class Node(EffectTree):
    __slots__ = ("op", "param", "children")

    def __init__(self, op: str, children: tuple[EffectTree, ...], param: Optional[int] = None):
        self.op = op
        self.param = param
        self.children = children

    def __eq__(self, other):
        return (
            isinstance(other, Node)
            and self.op == other.op
            and self.param == other.param
            and self.children == other.children
        )

    def __repr__(self):
        return f"Node({self.op!r}, param={self.param!r})"


def eta(x: Any) -> EffectTree:
    """The one-leaf tree."""
    return Leaf(x)


def map_leaves(t: EffectTree, f: Callable[[Any], Any]) -> EffectTree:
    """Rewrite every non-Unknown leaf payload with f; Unknown passes through."""
    if isinstance(t, Leaf):
        return Leaf(f(t.value))
    if isinstance(t, _Unknown):
        return t
    assert isinstance(t, Node)
    return Node(t.op, tuple([map_leaves(c, f) for c in t.children]), t.param)


def graft(t: EffectTree) -> EffectTree:
    """mu: flatten a tree whose leaves are trees by grafting them as subtrees."""
    if isinstance(t, Leaf):
        if not isinstance(t.value, (Leaf, _Unknown, Node)):
            raise TreeError(f"mu expects tree-valued leaves, found {t.value!r}")
        return t.value
    if isinstance(t, _Unknown):
        return t
    assert isinstance(t, Node)
    return Node(t.op, tuple([graft(c) for c in t.children]), t.param)


mu = graft


def tree_depth(t: EffectTree) -> int:
    if isinstance(t, (Leaf, _Unknown)):
        return 0
    assert isinstance(t, Node)
    return 1 + (max((tree_depth(c) for c in t.children), default=0))


def truncate(t: EffectTree, depth: int) -> EffectTree:
    """Prune everything below the given depth to Unknown.  A subtree the cut
    leaves whole comes back as it is, not copied."""
    if depth <= 0:
        return Unknown
    if isinstance(t, (Leaf, _Unknown)):
        return t
    assert isinstance(t, Node)
    kids = [truncate(c, depth - 1) for c in t.children]
    if all(map(is_, kids, t.children)):
        return t
    return Node(t.op, tuple(kids), t.param)


def leaves(t: EffectTree) -> Iterator[Any]:
    """Iterate leaf payloads, depth-first in child order."""
    if isinstance(t, Leaf):
        yield t.value
    elif isinstance(t, Node):
        for c in t.children:
            yield from leaves(c)
