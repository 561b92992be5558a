"""Quantitative modalities: folds of effect trees into a truth space.

A modality carries one combinator per effect operator.  Its meaning on a
tree is the scheme's depth-indexed recurrence; on a finite tree the
recurrence at an unbounded index is the structural fold, the unique
homomorphism out of the free model, so the evaluators run one index-free
fold (`_fold`): Unknown goes to a caller-given value, each leaf payload x
to leaf(x), and each operator node applies its combinator to the values of
its children, a store lookup with value bound V to those of its first V.
Trees are plain data, children in tuples, so a fold reads them and never
runs the machine; combinators are data-in, fn(node, kids) seeing the
children's values in index order, so each consulted child is folded once.
The recurrence itself is a test oracle (`tests/spec.py`), which the tests
hold the fold to.

One walk serves k leaf valuations at once when it folds `power(q, k)`, the
modality applying q's combinators position by position to k-tuples.
`denote_limit` is the fold with Unknown at bot.  `evaluate_interval` folds
q^2 with Unknown at (bot, top) and each leaf payload x at its (lo, hi) pair
leaf(x): the lower bound sends Unknown to bot, the upper to top.  Both are
sound for every leaf-monotone modality, which law a of `laws` checks for
the shipped ones.
"""

from __future__ import annotations

from itertools import compress
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any, Callable, Mapping, Optional

from .lattice import (
    BoolSpace,
    CostSpace,
    PowerSpace,
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

    `kids` holds the values of the consulted children in index order: every
    child, or, for a store lookup with `family_consult` V, children 0..V-1.
    """

    fn: Callable[[Node, list], Any]
    family_consult: Optional[int] = None


@dataclass(frozen=True)
class ModalitySpec:
    name: str
    space: TruthSpace
    rules: Mapping[str, OpRule]

    @cached_property
    def _table(self) -> dict[str, tuple[Callable, Optional[int]]]:
        """op -> (combinator, lookup width or None): the rules as the fold
        reads them, resolved once per modality."""
        return {op: (r.fn, r.family_consult) for op, r in self.rules.items()}

    @cached_property
    def _pair(self) -> ModalitySpec:
        """power(self, 2), the modality whose one fold gives both bounds of
        `evaluate_interval`."""
        return power(self, 2)

    def __repr__(self):
        return f"<Modality {self.name} over {self.space.name}>"


@dataclass(frozen=True)
class Interval:
    """Certified bounds on a truth value."""

    lo: Any
    hi: Any

    @property
    def exact(self) -> bool:
        """Equal bounds pin the true value; an unexplored part of the tree
        always shows as a strict gap, since only there do the bounds differ."""
        return self.lo == self.hi


# --------------------------------------------------------------------------
# Evaluation


def _no_combinator(q: ModalitySpec, op: str) -> ModalityError:
    return ModalityError(f"operator {op!r} has no combinator in modality {q.name}")


def _fold(t: EffectTree, q: ModalitySpec, leaf: Callable[[Any], Any], unknown):
    """The structural fold of a finite tree under q: Unknown is `unknown`, a
    leaf payload x is leaf(x), and an operator node applies its combinator
    to the values of its children, a lookup to those of its first V.  q's
    rules are resolved once per modality (`ModalitySpec._table`), not per
    node.

    Nodes with one or two children, the common arities, read them without a
    comprehension, so a level of them takes one frame; a wider level takes
    one more before Python 3.12, and the fold never takes more stack per
    level than the recurrence did.  It recurses through its module name, not
    as a closure over itself, so a fold leaves no reference cycle for the
    garbage collector."""
    if isinstance(t, Leaf):
        return leaf(t.value)
    if isinstance(t, _Unknown):
        return unknown
    try:
        fn, width = q._table[t.op]
    except KeyError:
        raise _no_combinator(q, t.op) from None
    ch = t.children
    if width is not None:
        if len(ch) < width:
            raise ModalityError(f"lookup {t.op!r} has {len(ch)} children, fewer than {width}")
        ch = ch[:width]
    n = len(ch)
    if n == 2:
        return fn(t, [_fold(ch[0], q, leaf, unknown), _fold(ch[1], q, leaf, unknown)])
    if n == 1:
        return fn(t, [_fold(ch[0], q, leaf, unknown)])
    return fn(t, [_fold(c, q, leaf, unknown) for c in ch])


def power(q: ModalitySpec, k: int) -> ModalitySpec:
    """q^k over k-tuples: each combinator applied position by position, so
    one fold under a leaf valuation into k-tuples is k folds of q, one per
    position.  A node without children (an error lift's raise[e]) still
    gives k values."""

    def lift(rule: OpRule) -> OpRule:
        fn = rule.fn

        def pointwise(node: Node, kids: list):
            if not kids:
                return tuple([fn(node, kids) for _ in range(k)])
            return tuple([fn(node, col) for col in zip(*kids)])

        return OpRule(pointwise, rule.family_consult)

    return ModalitySpec(f"{q.name}^{k}", PowerSpace(q.space, k), {op: lift(r) for op, r in q.rules.items()})


def sufficient_depth(q: ModalitySpec, t: EffectTree) -> int:
    """An index deep enough that the recurrence on this finite tree reaches
    every leaf; a lookup consumes its family_consult budget per level."""
    if isinstance(t, (Leaf, _Unknown)):
        return 1
    assert isinstance(t, Node)
    try:
        width = q._table[t.op][1]
    except KeyError:
        raise _no_combinator(q, t.op) from None
    cost = 1 if width is None else width
    return cost + max((sufficient_depth(q, c) for c in t.children), default=0)


def evaluate_interval(
    q: ModalitySpec, t: EffectTree, leaf: Callable[[Any], tuple] = lambda v: (v, v)
) -> Interval:
    """Certified bounds: one fold of q^2 (`power`) computing (lo, hi) per
    node, with Unknown at (bot, top) and each leaf payload x at the pair
    leaf(x), which is called once per consulted leaf."""
    # The fold needs no index.  This walk stays because it takes more stack
    # per level than the fold, so a tree too deep for the stack fails here,
    # as the checks known to fail that way expect; it goes when the fold
    # becomes stack-safe.
    sufficient_depth(q, t)
    lo, hi = _fold(t, q._pair, leaf, (q.space.bot, q.space.top))
    assert_interval_order(q.space, lo, hi)
    return Interval(lo, hi)


def denote_limit(q: ModalitySpec, t: EffectTree, leaf: Callable[[Any], Any] = lambda v: v):
    """The exact denotation of a finite tree (the supremum of the chain), with
    each leaf payload x valued at leaf(x): one fold with Unknown at bot.
    Each consulted leaf is valued once, depth-first in child order; under
    `power(q, k)` and a leaf valuation into k-tuples, one walk gives the k
    denotations.
    """
    return _fold(t, q, leaf, q.space.bot)


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
