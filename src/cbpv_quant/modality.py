"""Quantitative modalities: recurrences over effect trees into a truth space.

A modality carries one combinator per effect operator.  Everything here is
computed by one depth-indexed recurrence, the scheme's definition: index 0 is
bot, Unknown is bot, a leaf at index n+1 is its own value, and an operator
node at index n+1 applies its combinator to the values of its children at
index n.  A store lookup with value bound V reads children 0..V-1 once each,
child v at index max(0, n - v), and then picks per state the child named by
that state's value at the looked-up location.

Trees are plain data, children in tuples, so a walk reads them and never runs
the machine.  Combinators are data-in: fn(node, kids) sees the children's
values in index order, never the children themselves, so each consulted child
is evaluated once per walk.  Exact denotations run the recurrence once at an unbounded
index.  Certified intervals take one walk at an index deep enough for the
whole tree (`sufficient_depth`) that computes both bounds per node: the lower
bound sends Unknown to bot, the upper bound to top, and each node applies its
combinator to the lower and then to the upper values of its children.  Both
bounds are sound for every leaf-monotone modality, and the evaluator refuses
interval mode for specs not declared leaf-monotone.
"""

from __future__ import annotations

import math
from itertools import compress
from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping, Optional

from .lattice import (
    BoolSpace,
    CostSpace,
    StateSetSpace,
    StateTableSpace,
    StoreConfig,
    TruthSpace,
    UnitIntervalSpace,
    assert_interval_order,
)
from .syntax import CbpvError
from .trees import EffectTree, Leaf, Node, _Unknown


class ModalityError(CbpvError):
    pass


@dataclass(frozen=True)
class OpRule:
    """Combinator for one operator: fn(node, kids) -> truth value.

    `kids` holds the values of the consulted children in index order.  A rule
    without `family_consult` consults every child of the node at index n - 1.
    A rule with `family_consult` V is a store lookup: it consults children
    0..V-1, child v at index max(0, n - 1 - v).
    """

    fn: Callable[[Node, list], Any]
    family_consult: Optional[int] = None


@dataclass(frozen=True)
class ModalitySpec:
    name: str
    space: TruthSpace
    rules: Mapping[str, OpRule]
    leaf_monotone: bool = True

    def rule(self, op: str) -> OpRule:
        r = self.rules.get(op)
        if r is None:
            raise ModalityError(
                f"operator {op!r} has no combinator in modality {self.name}"
            )
        return r

    def __repr__(self):
        return f"<Modality {self.name} over {self.space.name}>"


@dataclass(frozen=True)
class Interval:
    """Certified bounds on a truth value; exact implies lo == hi."""

    lo: Any
    hi: Any
    exact: bool


def exact_interval(v) -> Interval:
    return Interval(v, v, True)


def child_at(children: tuple[EffectTree, ...], i: int) -> EffectTree:
    if i < 0 or i >= len(children):
        raise ModalityError(f"child index {i} out of range for {len(children)} children")
    return children[i]


# --------------------------------------------------------------------------
# Evaluation


def _denote(q: ModalitySpec, t: EffectTree, n: float, leaf: Callable[[Any], Any], unknown):
    """The defining recurrence at index n, with Unknown and index 0 sent to
    `unknown` and each leaf payload x to leaf(x)."""
    if isinstance(t, _Unknown) or n <= 0:
        return unknown
    if isinstance(t, Leaf):
        return leaf(t.value)
    rule = q.rule(t.op)
    ch = t.children
    if rule.family_consult is None:
        kids = [_denote(q, child_at(ch, i), n - 1, leaf, unknown) for i in range(len(ch))]
    else:
        kids = [
            _denote(q, child_at(ch, v), max(0, n - 1 - v), leaf, unknown)
            for v in range(rule.family_consult)
        ]
    return rule.fn(t, kids)


def _bounds(q: ModalitySpec, t: EffectTree, n: int, leaf_lo, leaf_hi, bot, top) -> tuple:
    """The recurrence at index n for both bounds in one walk: (lo, hi) with
    Unknown and index 0 at (bot, top) and each leaf payload x at
    (leaf_lo(x), leaf_hi(x))."""
    if isinstance(t, _Unknown) or n <= 0:
        return bot, top
    if isinstance(t, Leaf):
        x = t.value
        return leaf_lo(x), leaf_hi(x)
    rule = q.rule(t.op)
    ch = t.children
    if rule.family_consult is None:
        kids = [
            _bounds(q, child_at(ch, i), n - 1, leaf_lo, leaf_hi, bot, top)
            for i in range(len(ch))
        ]
    else:
        kids = [
            _bounds(q, child_at(ch, v), max(0, n - 1 - v), leaf_lo, leaf_hi, bot, top)
            for v in range(rule.family_consult)
        ]
    fn = rule.fn
    return fn(t, [k[0] for k in kids]), fn(t, [k[1] for k in kids])


def denote_at_depth(q: ModalitySpec, t: EffectTree, n: int):
    """The depth-n approximation of q's denotation (Unknown and exhaustion
    both fall to bot, as in the defining recurrence)."""
    return _denote(q, t, n, lambda v: v, q.space.bot)


def sufficient_depth(q: ModalitySpec, t: EffectTree) -> int:
    """An index deep enough that the recurrence on this finite tree reaches
    every leaf; a lookup consumes its family_consult budget per level."""
    if isinstance(t, (Leaf, _Unknown)):
        return 1
    assert isinstance(t, Node)
    rule = q.rule(t.op)
    cost = 1 if rule.family_consult is None else rule.family_consult
    return cost + max((sufficient_depth(q, c) for c in t.children), default=0)


def evaluate_interval(
    q: ModalitySpec,
    t: EffectTree,
    leaf_lo: Callable[[Any], Any] = lambda v: v,
    leaf_hi: Callable[[Any], Any] = lambda v: v,
) -> Interval:
    """Certified bounds: one walk at `sufficient_depth` computing (lo, hi) per
    node, with Unknown at (bot, top) and each leaf payload x at
    (leaf_lo(x), leaf_hi(x)); at every leaf leaf_lo runs before leaf_hi."""
    if not q.leaf_monotone:
        raise ModalityError(
            f"modality {q.name} is not declared leaf-monotone; "
            f"interval bounds would be unsound"
        )
    d = sufficient_depth(q, t)
    lo, hi = _bounds(q, t, d, leaf_lo, leaf_hi, q.space.bot, q.space.top)
    # equal bounds pin the true value exactly; unexplored parts always show up
    # as a strict gap because the two bounds only differ there
    exact = lo == hi
    assert_interval_order(q.space, lo, hi)
    return Interval(lo, hi, exact)


def denote_limit(q: ModalitySpec, t: EffectTree, leaf: Callable[[Any], Any] = lambda v: v):
    """The exact denotation of a finite tree (the supremum of the chain), with
    each leaf payload x valued at leaf(x).

    The recurrence at an unbounded index: on a finite tree it reaches every
    leaf, so no `sufficient_depth` walk is needed.  Each consulted leaf is
    valued once, depth-first in child order.
    """
    return _denote(q, t, math.inf, leaf, q.space.bot)


# --------------------------------------------------------------------------
# The shipped modality families


def expectation_modality() -> ModalitySpec:
    """E over [0,1]: fair coin average at probabilistic-choice nodes."""

    def por(node: Node, kids: list):
        return (kids[0] + kids[1]) / 2.0

    return ModalitySpec("E", UnitIntervalSpace(), {"por": OpRule(por)})


def cost_modality() -> ModalitySpec:
    """C over [0, inf] reversed: node costs accumulate along the branch."""

    def cost(node: Node, kids: list):
        return node.param + kids[0]

    return ModalitySpec("C", CostSpace(), {"cost": OpRule(cost)})


def _update_targets(store: StoreConfig, states: tuple, li: int) -> list[tuple]:
    """after[v][i]: the i-th state with location `li` set to v, for each
    stored value v; an update rule with parameter k reads after[k % V]."""
    return [tuple(store.set_loc(s, li, v) for s in states) for v in range(store.value_bound)]


def store_modality(store_space: StateSetSpace) -> ModalitySpec:
    """G over P(S): the set of starting states leading to a satisfying end state."""
    store = store_space.store
    states = store_space.all_states
    rules: dict[str, OpRule] = {}
    for li, loc in enumerate(store.locations):

        def lookup(node: Node, kids: list, li=li):
            return frozenset(s for s in states if s in kids[s[li]])

        def update(node: Node, kids: list, after=_update_targets(store, states, li)):
            hit = kids[0].__contains__
            return frozenset(compress(states, map(hit, after[node.param % store.value_bound])))

        rules[f"lookup[{loc}]"] = OpRule(lookup, family_consult=store.value_bound)
        rules[f"update[{loc}]"] = OpRule(update)
    return ModalitySpec("G", store_space, rules)


def prob_store_modality(table_space: StateTableSpace) -> ModalitySpec:
    """EG over [0,1]^S: per-state probability, threading the store."""
    store = table_space.store
    states = table_space.all_states
    index = {s: i for i, s in enumerate(states)}
    rules: dict[str, OpRule] = {}

    def por(node: Node, kids: list):
        return tuple((x + y) / 2.0 for x, y in zip(kids[0], kids[1]))

    rules["por"] = OpRule(por)
    for li, loc in enumerate(store.locations):
        gather = [tuple(map(index.__getitem__, after)) for after in _update_targets(store, states, li)]

        def lookup(node: Node, kids: list, li=li):
            return tuple(kids[s[li]][i] for i, s in enumerate(states))

        def update(node: Node, kids: list, gather=gather):
            return tuple(map(kids[0].__getitem__, gather[node.param % store.value_bound]))

        rules[f"lookup[{loc}]"] = OpRule(lookup, family_consult=store.value_bound)
        rules[f"update[{loc}]"] = OpRule(update)
    return ModalitySpec("EG", table_space, rules)


def make_nondet_variants(q: ModalitySpec) -> tuple[ModalitySpec, ModalitySpec]:
    """The optimistic (join) and pessimistic (meet) resolutions of `nor`."""
    if "nor" in q.rules:
        raise ModalityError(f"modality {q.name} already interprets nor")
    space = q.space

    def nor_join(node: Node, kids: list):
        return space.join2(kids[0], kids[1])

    def nor_meet(node: Node, kids: list):
        return space.meet2(kids[0], kids[1])

    opt = replace(q, name=q.name + "opt", rules={**q.rules, "nor": OpRule(nor_join)})
    pes = replace(q, name=q.name + "pes", rules={**q.rules, "nor": OpRule(nor_meet)})
    return opt, pes


def make_error_lift(
    q: ModalitySpec, f: Mapping[str, Any], error_labels: tuple[str, ...]
) -> ModalitySpec:
    """q_f: inherit q's rules and value each raise[e] node at f(e)."""
    for e in error_labels:
        if e not in f:
            raise ModalityError(f"error valuation is not total: missing label {e}")
    for e, v in f.items():
        if not q.space.contains(v):
            raise ModalityError(f"error value for {e} is outside the truth space: {v!r}")
    rules = dict(q.rules)
    for e in error_labels:
        op = f"raise[{e}]"
        if op in rules:
            raise ModalityError(f"modality {q.name} already interprets {op}")
        v = f[e]
        rules[op] = OpRule(lambda node, kids, v=v: v)
    return replace(q, name=q.name + "f", rules=rules)


def bool_modalities(ops: tuple[str, ...]) -> dict[str, ModalitySpec]:
    """The Boolean may/must pair: join (may) or meet (must) at each listed
    binary operator.  A `truth_space = bool` runtime and the relator laws
    use it."""
    space = BoolSpace()
    return {
        mode: ModalitySpec(mode, space, {op: OpRule(lambda node, kids, fold=fold: fold(kids)) for op in ops})
        for mode, fold in (("may", space.join), ("must", space.meet))
    }
