"""Effect trees and their algebra.

A tree is a leaf (carrying an arbitrary payload), the Unknown marker for an
unexplored/fuel-exhausted subtree, or an operator node whose children are a
plain tuple.  A nat-indexed operator (a store lookup) has one child per
storable value, 0..V-1 for value bound V, built like any other child.
Unknown records fuel exhaustion only; it is never a certificate of
divergence.  The approximation order on trees (`tree_leq`) and
`contains_unknown`, which only the tests read, live in `tests/spec.py`.

`machine.eval_tree` shares equal subtrees: one node per (configuration,
fuel), reached along every path that leads to it.
`modality.evaluate_interval` folds each distinct node once.  The memo-free walkers `map_leaves`, `leaves`, `mu`, `truncate` and
`tree_depth` are test oracles in `tests/spec.py`, for the tree-level
samplers of laws a-c and f and law e's relator check over small pools,
which share nothing.  Applied to an `eval_tree` result they visit every
copy of a shared node, and `map_leaves` returns the tree unshared: a
branching loop's tree at a high fuel costs time and memory exponential in
the fuel.
"""

from __future__ import annotations

from typing import Any, Optional


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

