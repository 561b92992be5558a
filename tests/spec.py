"""Specification references the tests hold the package to.

`denote_at_depth` is the defining depth-indexed recurrence of a modality:
index 0 is bot, Unknown is bot, a leaf at index n+1 is its own value, and an
operator node at index n+1 applies its combinator to the values of its
children at index n.  A store lookup with value bound V (a rule with
`family_consult` V) reads children 0..V-1 once each, child v at index
max(0, n - v), and then picks per state the child named by that state's
value at the looked-up location.  The package evaluates the index-free
structural fold (`modality._fold`); on a finite tree it agrees with the
recurrence at a deep enough index.

`tree_leq` is the approximation order on effect trees and
`contains_unknown` tells a fully explored tree; `parse_vtype` and
`parse_ctype` read a type in the program grammar.

`random_value_tree` draws a random finite tree over a modality's
operators, `mu` flattens a tree of trees, and `monotone_maps` draws the
monotone surrogate maps of law f's comparisons.

`law_leaf_monotone`, `law_scott_chain`, `law_sequential` and
`decomposability_by_copies` sample laws a, b, c and f on random trees; law
f builds the copy of each sampled double tree with raised leaves, flattens
both, and folds all four trees.  The law suite checks `laws.law_monotone`
instead, from which a, b and f (as sampled here) follow by induction on the
tree, while c holds for any combinators; these samplers hold the fold to
that argument.  Only law b's sampler reads `truncate` and `tree_depth`.

`formula_size` counts a formula's constructors, and
`basic_formulas_by_sort` is the basic-formula enumerator as first written:
everything up to the budget, deduplicated and stably sorted by size.
`suites.enumerate_basic_formulas` builds each exact size directly and must
give the same formulas in the same order."""

import math
import random
from operator import is_
from typing import Callable, Optional

from cbpv_quant.formulas import (
    AndF,
    ArgF,
    ConstF,
    Formula,
    FormulaTypeError,
    FstF,
    InjF,
    MixF,
    Modal,
    NatEq,
    NegF,
    OrF,
    ProjF,
    SigmaMuF,
    SndF,
    StepF,
    ThunkF,
)
from cbpv_quant.lattice import (
    _DYADICS,
    BoolSpace,
    CostSpace,
    StateSetSpace,
    StateTableSpace,
    TruthSpace,
    UnitIntervalSpace,
)
from cbpv_quant.laws import LawParams, LawResult, _op_shapes
from cbpv_quant.modality import ModalityError, ModalitySpec, denote_limit, power
from cbpv_quant.parser import Parser
from cbpv_quant.suites import Pools, args_for
from cbpv_quant.syntax import (
    ArrowType,
    CbpvError,
    ComType,
    EffectSignature,
    GenType,
    NatType,
    PairType,
    ProducerType,
    ProductType,
    SumType,
    ThunkType,
    UnitType,
    ValType,
)
from cbpv_quant.trees import EffectTree, Leaf, Node, Unknown, _Unknown, map_leaves


def child_at(children: tuple[EffectTree, ...], i: int) -> EffectTree:
    if i < 0 or i >= len(children):
        raise ModalityError(f"child index {i} out of range for {len(children)} children")
    return children[i]


def _denote(q: ModalitySpec, t: EffectTree, n: int):
    """The defining recurrence at index n: Unknown and index 0 are bot, and
    a leaf is its own payload."""
    if isinstance(t, _Unknown) or n <= 0:
        return q.space.bot
    if isinstance(t, Leaf):
        return t.value
    try:
        rule = q.rules[t.op]
    except KeyError:
        raise ModalityError(f"operator {t.op!r} has no combinator in modality {q.name}") from None
    ch = t.children
    if rule.family_consult is None:
        kids = [_denote(q, child_at(ch, i), n - 1) for i in range(len(ch))]
    else:
        kids = [_denote(q, child_at(ch, v), max(0, n - 1 - v)) for v in range(rule.family_consult)]
    return rule.fn(t, kids)


def denote_at_depth(q: ModalitySpec, t: EffectTree, n: int):
    """The depth-n approximation of q's denotation (Unknown and exhaustion
    both fall to bot, as in the defining recurrence)."""
    return _denote(q, t, n)


def random_value_tree(
    q: ModalitySpec,
    rng: random.Random,
    depth: int,
    leaf: Callable[[], object],
    p_unknown: float = 0.1,
    shapes: Optional[list[tuple[str, str, int]]] = None,
) -> EffectTree:
    """A random finite tree over q's operators (indexed children materialized
    as width-V tuples) with sampled leaf payloads and occasional Unknowns.
    A sampler drawing many trees passes q's `_op_shapes` as `shapes`,
    computed once for the call."""
    if shapes is None:
        shapes = _op_shapes(q)

    def grow(depth: int) -> EffectTree:
        if depth <= 0 or not shapes or rng.random() < 0.3:
            if rng.random() < p_unknown:
                return Unknown
            return Leaf(leaf())
        op, kind, extra = shapes[rng.randrange(len(shapes))]
        if kind == "finite":
            return Node(op, (grow(depth - 1), grow(depth - 1)))
        if kind == "param":
            return Node(op, (grow(depth - 1),), param=rng.randrange(4))
        if kind == "nullary":
            return Node(op, ())
        return Node(op, tuple(grow(depth - 1) for _ in range(extra)))

    return grow(depth)


def mu(t: EffectTree) -> EffectTree:
    """Flatten a tree whose leaves are trees by grafting them as subtrees."""
    if isinstance(t, Leaf):
        if not isinstance(t.value, (Leaf, _Unknown, Node)):
            raise CbpvError(f"mu expects tree-valued leaves, found {t.value!r}")
        return t.value
    if isinstance(t, _Unknown):
        return t
    assert isinstance(t, Node)
    return Node(t.op, tuple([mu(c) for c in t.children]), t.param)


def monotone_maps(space: TruthSpace, rng: random.Random, count: int) -> list[Callable]:
    """`count` sampled monotone endofunctions of `space`, used as QBS
    surrogates."""
    if isinstance(space, BoolSpace):
        pool = [lambda x: x, lambda x: True, lambda x: False]
        return [pool[rng.randrange(len(pool))] for _ in range(count)]
    if isinstance(space, StateTableSpace):
        inner = monotone_maps(UnitIntervalSpace(), rng, count)
        return [lambda v, f=f: tuple(f(x) for x in v) for f in inner]
    out = []
    for _ in range(count):
        if isinstance(space, UnitIntervalSpace):
            kind = rng.randrange(4)
            c = rng.choice(_DYADICS)
            if kind == 0:
                out.append(lambda x, c=c: min(1.0, x + c))
            elif kind == 1:
                out.append(lambda x, c=c: x * c)
            elif kind == 2:
                out.append(lambda x, c=c: 1.0 if x >= c else 0.0)
            else:
                out.append(lambda x, c=c: c)
        elif isinstance(space, CostSpace):
            kind = rng.randrange(4)
            c = rng.choice([0.0, 0.5, 1.0, 2.0])
            if kind == 0:
                out.append(lambda x, c=c: x + c)
            elif kind == 1:
                out.append(lambda x, c=c: x * (c + 0.5))
            elif kind == 2:
                out.append(lambda x, c=c: 0.0 if x <= c else math.inf)
            else:
                out.append(lambda x, c=c: c)
        else:
            assert isinstance(space, StateSetSpace), space
            c = space.sample(rng)
            kind = rng.randrange(3)
            if kind == 0:
                out.append(lambda x, c=c: x | c)
            elif kind == 1:
                out.append(lambda x, c=c: x & c)
            else:
                out.append(lambda x, c=c: c)
    return out


def decomposability_by_copies(q: ModalitySpec, params: LawParams) -> LawResult:
    """Law f on built copies: the raised double tree rr, drawn leaf by leaf
    after tt, and the flattenings mu(tt) and mu(rr), each folded under the
    four surrogate maps of its comparison (as q^4, one walk per tree)."""
    rng = random.Random(params.seed + 4)
    space = q.space
    shapes = _op_shapes(q)
    surrogates = 4
    qk = power(q, surrogates)

    def pointwise(maps):
        return lambda a: tuple([h(a) for h in maps])

    failures = []
    runs = min(params.samples, 200)
    checked = 0
    for i in range(runs):
        tt = random_value_tree(
            q,
            rng,
            max(1, params.depth - 1),
            lambda: random_value_tree(q, rng, 2, lambda: space.sample(rng), shapes=shapes),
            shapes=shapes,
        )
        rr = map_leaves(tt, lambda sub: map_leaves(sub, lambda a: space.raise_of(rng, a)))
        hk = pointwise(monotone_maps(space, rng, surrogates))
        H = lambda sub: denote_limit(qk, sub, hk)
        if not qk.space.leq(denote_limit(qk, tt, H), denote_limit(qk, rr, H)):
            continue
        checked += 1
        flat_hk = pointwise(monotone_maps(space, rng, surrogates))
        if not qk.space.leq(denote_limit(qk, mu(tt), flat_hk), denote_limit(qk, mu(rr), flat_hk)):
            failures.append(f"sample {i}: flattening broke the certified order")
    return LawResult("f (decomposability)", q.name, checked, tuple(failures))


def law_leaf_monotone(q: ModalitySpec, params: LawParams) -> LawResult:
    rng = random.Random(params.seed)
    space = q.space
    shapes = _op_shapes(q)
    pair = power(q, 2)
    failures = []
    for i in range(params.samples):
        t = random_value_tree(q, rng, params.depth, lambda: space.sample(rng), shapes=shapes)
        # one walk folds each leaf at its value and at a raised value
        lo, hi = denote_limit(pair, t, lambda a: (a, space.raise_of(rng, a)))
        if not space.leq(lo, hi):
            failures.append(f"sample {i}: {space.render(lo)} not below {space.render(hi)}")
    return LawResult("a (leaf-monotone)", q.name, params.samples, tuple(failures))


def law_scott_chain(q: ModalitySpec, params: LawParams) -> LawResult:
    rng = random.Random(params.seed + 1)
    space = q.space
    shapes = _op_shapes(q)
    failures = []
    for i in range(params.samples):
        t = random_value_tree(q, rng, params.depth, lambda: space.sample(rng), p_unknown=0.0, shapes=shapes)
        # truncate(t, tree_depth(t) + 1) is t itself, so the chain ends at
        # the full denotation by construction and only monotonicity is checked
        chain = [truncate(t, k) for k in range(tree_depth(t) + 2)]
        vals = [denote_limit(q, tk) for tk in chain]
        if any(not space.leq(a, b) for a, b in zip(vals, vals[1:])):
            failures.append(f"sample {i}: chain not monotone")
    return LawResult("b (Scott chain)", q.name, params.samples, tuple(failures))


def law_sequential(q: ModalitySpec, params: LawParams) -> LawResult:
    rng = random.Random(params.seed + 2)
    space = q.space
    shapes = _op_shapes(q)
    failures = []
    inner_depth = max(1, params.depth - 2)
    for i in range(params.samples):
        tt = random_value_tree(
            q,
            rng,
            params.depth,
            lambda: random_value_tree(q, rng, inner_depth, lambda: space.sample(rng), shapes=shapes),
            shapes=shapes,
        )
        # exact: the fold values a grafted subtree as its leaf
        lhs = denote_limit(q, mu(tt))
        rhs = denote_limit(q, tt, lambda sub: denote_limit(q, sub))
        if lhs != rhs:
            failures.append(
                f"sample {i}: mu side {space.render(lhs)} vs mapped side {space.render(rhs)}"
            )
    return LawResult("c (sequential)", q.name, params.samples, tuple(failures))


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


def tree_leq(t: EffectTree, r: EffectTree) -> bool:
    """The approximation order: t below r iff t is r with some subtrees pruned
    to Unknown."""
    if isinstance(t, _Unknown):
        return True
    if isinstance(t, Leaf):
        return isinstance(r, Leaf) and t.value == r.value
    assert isinstance(t, Node)
    if not isinstance(r, Node) or t.op != r.op or t.param != r.param:
        return False
    tc, rc = t.children, r.children
    if len(tc) != len(rc):
        return False
    return all(tree_leq(a, b) for a, b in zip(tc, rc))


def contains_unknown(t: EffectTree) -> bool:
    if isinstance(t, _Unknown):
        return True
    if isinstance(t, Leaf):
        return False
    return any(contains_unknown(c) for c in t.children)


def parse_vtype(text: str) -> ValType:
    p = Parser(text, EffectSignature(()))
    return p.whole(p.vtype)


def parse_ctype(text: str) -> ComType:
    p = Parser(text, EffectSignature(()))
    return p.whole(p.ctype)


def formula_size(phi: Formula) -> int:
    if isinstance(phi, (NatEq, ConstF)):
        return 1
    if isinstance(phi, (ThunkF, InjF, FstF, SndF, ArgF, ProjF, Modal, NegF, StepF, SigmaMuF)):
        return 1 + formula_size(phi.body)
    if isinstance(phi, (OrF, AndF)):
        return 1 + sum(formula_size(p) for p in phi.members)
    if isinstance(phi, MixF):
        return 1 + formula_size(phi.opt) + formula_size(phi.pess)
    raise FormulaTypeError(f"unknown formula {phi!r}")


def basic_formulas_by_sort(
    ty: GenType, size: int, pools: Pools, modalities: dict[str, ModalitySpec]
) -> list[Formula]:
    """Every basic formula of size at most `size` at `ty`, by size, then
    construction order."""
    memo: dict[tuple[int, int, bool], list[Formula]] = {}

    def go(ty: GenType, budget: int, root: bool) -> list[Formula]:
        if budget < 1:
            return []
        key = (id(ty), budget, root)
        got = memo.get(key)
        if got is not None:
            return got
        out: list[Formula] = []
        if isinstance(ty, NatType):
            out.extend(NatEq(n) for n in pools.numerals)
        elif isinstance(ty, UnitType) and modalities:
            out.append(ConstF(next(iter(modalities.values())).space.top))
        elif isinstance(ty, ThunkType):
            out.extend(ThunkF(b) for b in go(ty.com, budget - 1, False))
        elif isinstance(ty, SumType):
            for l, t in ty.variants:
                out.extend(InjF(l, b) for b in go(t, budget - 1, False))
        elif isinstance(ty, PairType):
            out.extend(FstF(b) for b in go(ty.fst, budget - 1, False))
            out.extend(SndF(b) for b in go(ty.snd, budget - 1, False))
        elif isinstance(ty, ArrowType):
            for v in args_for(ty.dom, pools):
                out.extend(ArgF(v, b) for b in go(ty.cod, budget - 1, False))
        elif isinstance(ty, ProductType):
            for l, t in ty.fields:
                out.extend(ProjF(l, b) for b in go(t, budget - 1, False))
        elif isinstance(ty, ProducerType):
            for qname in modalities:
                out.extend(Modal(qname, b) for b in go(ty.val, budget - 1, False))
        if not root and budget >= 3:
            smaller = go(ty, budget - 2, False)
            for i in range(len(smaller)):
                for j in range(i + 1, len(smaller)):
                    a, b = smaller[i], smaller[j]
                    if formula_size(a) + formula_size(b) + 1 <= budget:
                        out.append(AndF((a, b)))
                        out.append(OrF((a, b)))
        seen = set()
        uniq = []
        for f in out:
            if f not in seen:
                seen.add(f)
                uniq.append(f)
        uniq.sort(key=formula_size)
        memo[key] = uniq
        return uniq

    return go(ty, size, True)
