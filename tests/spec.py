"""Specification references the tests hold the package to.

`denote_at_depth` is the defining depth-indexed recurrence of a modality:
index 0 is bot, Unknown is bot, a leaf at index n+1 is its own value, and an
operator node at index n+1 applies its combinator to the values of its
children at index n.  A store lookup with value bound V (a rule with
`family_consult` V) reads children 0..V-1 once each, child v at index
max(0, n - v), and then picks per state the child named by that state's
value at the looked-up location.  The package evaluates the index-free
structural fold (`modality._fold`); on a finite tree it agrees with the
recurrence at a deep enough index.  `denote_limit` is that fold with
Unknown at bot and no memo, the exact denotation of a finite tree.

`tree_leq` is the approximation order on effect trees and
`contains_unknown` tells a fully explored tree; `parse_vtype` and
`parse_ctype` read a type in the program grammar.

`random_value_tree` draws a random finite tree over a modality's
operators, `mu` flattens a tree of trees, `map_leaves` and `leaves` rewrite
and list leaf payloads, and `monotone_maps` draws the monotone surrogate
maps of law f's comparisons.

`law_leaf_monotone`, `law_scott_chain`, `law_sequential` and
`decomposability_by_copies` sample laws a, b, c and f on random trees; law
f builds the copy of each sampled double tree with raised leaves, flattens
both, and folds all four trees.  The law suite checks `laws.law_monotone`
instead, from which a, b and f (as sampled here) follow by induction on the
tree, while c holds for any combinators; these samplers hold the fold to
that argument.  Only law b's sampler reads `truncate` and `tree_depth`.

`law_relator` decides every instance of the four relator laws (law e) for
the Boolean may/must pair over the tree pools of small carriers.  The suite
checks `laws.law_monotone` on may and must instead, whose docstring gives
why the relator laws follow from it; this check holds the suite to that
argument.

`formula_size` counts a formula's constructors, and
`basic_formulas_by_sort` is the basic-formula enumerator as first written:
everything up to the budget, deduplicated and stably sorted by size.
`suites.enumerate_basic_formulas` builds each exact size directly and must
give the same formulas in the same order."""

import itertools
import math
import random
from operator import is_
from typing import Any, Callable, Iterator, Optional, Sequence

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
from cbpv_quant.modality import ModalityError, ModalitySpec, _fold, bool_modalities, power
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
from cbpv_quant.trees import EffectTree, Leaf, Node, Unknown, _Unknown


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


def denote_limit(q: ModalitySpec, t: EffectTree, leaf: Callable[[Any], Any] = lambda v: v):
    """The exact denotation of a finite tree (the supremum of the chain), with
    each leaf payload x valued at leaf(x): one fold with Unknown at bot and
    no memo.  Each consulted leaf is valued once, depth-first in child
    order; under `power(q, k)` and a leaf valuation into k-tuples, one walk
    gives the k denotations.
    """
    return _fold(t, q, leaf, q.space.bot, None)


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


def map_leaves(t: EffectTree, f: Callable[[Any], Any]) -> EffectTree:
    """Rewrite every non-Unknown leaf payload with f; Unknown passes through."""
    if isinstance(t, Leaf):
        return Leaf(f(t.value))
    if isinstance(t, _Unknown):
        return t
    assert isinstance(t, Node)
    return Node(t.op, tuple([map_leaves(c, f) for c in t.children]), t.param)


def leaves(t: EffectTree) -> Iterator[Any]:
    """Iterate leaf payloads, depth-first in child order."""
    if isinstance(t, Leaf):
        yield t.value
    elif isinstance(t, Node):
        for c in t.children:
            yield from leaves(c)


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


# --------------------------------------------------------------------------
# Law e: relator laws over Boolean carriers, exhaustively; the oracle for
# the suite's obligation on may and must
#
# Everything here is a bitmask.  A Boolean valuation h of a carrier has bit
# a set iff carrier[a] is true.  A relation R between two carriers has bit
# a * len(right carrier) + b set iff it relates left[a] to right[b].  The
# relator membership of a relation over two pools has bit
# i * len(right trees) + j set iff (left tree i, right tree j) lies in it.


def _tree_pool(carrier: Sequence) -> list[EffectTree]:
    xs = list(carrier)
    pool: list[EffectTree] = [Unknown, Leaf(xs[0]), Leaf(xs[-1])]
    pool.append(Node("nor", (Leaf(xs[0]), Leaf(xs[-1]))))
    pool.append(Node("nor", (Node("nor", (Leaf(xs[0]), Unknown)), Leaf(xs[-1]))))
    return pool


class _Pool:
    """A tree pool over a carrier, with its fold tables.

    For tree i, `leaves[i]` lists its distinct leaves and `tables[i][m]` holds
    each modality's exact denotation of the tree under the Boolean valuation
    sending leaves[i][b] to bit b of m, so each tree is folded once per m.
    `rows[h][i]` is the m that the valuation h of the whole carrier selects
    for tree i.  Pool trees are total objects here: a bottom leaf denotes
    bot exactly, so the tables hold exact denotations, not fuel intervals.
    """

    def __init__(self, carrier: Sequence, trees: list[EffectTree], mods: Sequence[ModalitySpec]):
        self.carrier = list(carrier)
        self.trees = trees
        self.leaves = [tuple(dict.fromkeys(leaves(t))) for t in trees]
        self.tables = [
            [
                tuple(denote_limit(q, t, _bit_valuation(ls, m)) for q in mods)
                for m in range(1 << len(ls))
            ]
            for t, ls in zip(trees, self.leaves)
        ]
        bit = {x: 1 << a for a, x in enumerate(self.carrier)}
        self.rows = [
            tuple(sum(1 << b for b, x in enumerate(ls) if h & bit[x]) for ls in self.leaves)
            for h in range(1 << len(self.carrier))
        ]

    def truths(self, h: int, width: int) -> list[int]:
        """Per modality, the trees it values true under h, tree i at bit
        i * width."""
        vals = [tab[m] for tab, m in zip(self.tables, self.rows[h])]
        return [sum(1 << i * width for i, v in enumerate(vals) if v[k]) for k in range(len(vals[0]))]


def _bit_valuation(xs: tuple, m: int) -> Callable[[object], bool]:
    return {x: bool(m >> b & 1) for b, x in enumerate(xs)}.__getitem__


class _RelatorTables:
    """The violation table of one pool pair, and relator membership decided
    from it; nothing here outlives the law that made it.

    `bad[h][g]` holds the cells (t, r) at which some modality values t true
    under the left valuation h and r false under the right valuation g, the
    one way a Boolean value is not below another.  (t, r) lies in the
    relator of R iff no h makes it violate against R[h], which values each
    right element at the join of h over its preimages (as the tests'
    `simulation.right_set` does): the join of R's rows over the bits of h.
    So one decision ORs at most 2^|left carrier| violation masks.
    """

    def __init__(self, left: _Pool, right: _Pool):
        self.left, self.right = left, right
        nr = len(right.trees)
        self.full = (1 << len(left.trees) * nr) - 1
        # per right valuation, the trees each modality values false
        falses = [[(1 << nr) - 1 & ~m for m in right.truths(g, 1)] for g in range(len(right.rows))]
        self.bad = []
        for h in range(len(left.rows)):
            trues, row = left.truths(h, nr), []
            for fs in falses:
                cells = 0
                for lm, rm in zip(trues, fs):
                    cells |= lm * rm  # bits at i * nr times a right mask: their cells
                row.append(cells)
            self.bad.append(row)

    def decide(self, rel: int) -> int:
        """The relator membership of the relation `rel`."""
        nr = len(self.right.carrier)
        rows = [rel >> a * nr & (1 << nr) - 1 for a in range(len(self.left.carrier))]
        bad = self.bad
        reach = [0] * len(bad)  # reach[h] is R[h]
        out = bad[0][0]
        for h in range(1, len(bad)):
            low = h & -h
            reach[h] = reach[h ^ low] | rows[low.bit_length() - 1]
            out |= bad[h][reach[h]]
        return self.full & ~out

    def members(self) -> list[int]:
        """`decide` of every relation, indexed by the relation."""
        return [self.decide(rel) for rel in range(1 << len(self.left.carrier) * len(self.right.carrier))]


def _unions(parts: Sequence[int]) -> list[int]:
    """The union of every subset of `parts`, in the order
    `itertools.product((0, 1), repeat=len(parts))` lists the subsets."""
    out = [0]
    for p in parts:
        out = [m | d for m in out for d in (0, p)]
    return out


def _pairs(rel: int, xs: Sequence, ys: Sequence) -> list:
    """The pairs of the relation `rel`, sorted when xs and ys are."""
    return [(x, y) for a, x in enumerate(xs) for b, y in enumerate(ys) if rel >> a * len(ys) + b & 1]


def law_relator(max_carrier: int = 3) -> list[LawResult]:
    """The four relator laws, every instance (t, r, R) over the tree pools of
    small carriers decided exhaustively.  Each pool tree is folded once per
    Boolean valuation of its distinct leaves, and each instance is one bit
    of a membership mask decided from those tables (`_RelatorTables`).  A
    block of instances adds its checks at once, and adds its failure text
    once per failing instance."""
    mods = list(bool_modalities(("nor",)).values())
    results = []

    def pool(carrier: Sequence) -> _Pool:
        return _Pool(carrier, _tree_pool(carrier), mods)

    # law 1: reflexive relations lift to reflexive relators
    runs, fails = 0, []
    for n in range(1, max_carrier + 1):
        carrier = list(range(n))
        p = pool(carrier)
        tables = _RelatorTables(p, p)
        k = len(p.trees)
        diag = sum(1 << i * (k + 1) for i in range(k))
        ident = sum(1 << x * (n + 1) for x in carrier)
        off_diag = [1 << x * n + y for x in carrier for y in carrier if x != y]
        for size in range(len(off_diag) + 1):
            for extra in itertools.combinations(off_diag, size):
                rel = ident | sum(extra)
                runs += k
                broke = (diag & ~tables.decide(rel)).bit_count()
                if broke:
                    fails += [f"reflexivity broke at carrier {n}, rel {_pairs(rel, carrier, carrier)}"] * broke
    results.append(LawResult("e1 (relator reflexive)", "may/must", runs, tuple(fails)))

    # law 2: monotone in the relation
    runs, fails = 0, []
    for nx, ny in ((2, 2), (3, 2)):
        X, Y = list(range(nx)), list(range(100, 100 + ny))
        pool_x, pool_y = pool(X), pool(Y)
        member = _RelatorTables(pool_x, pool_y).members()
        # each cell in neither, in S only, or in both R and S (so R subset of S)
        pairs = [(0, 0)]
        for c in range(nx * ny):
            w = 1 << c
            pairs = [(r | d, s | e) for r, s in pairs for d, e in ((0, 0), (0, w), (w, w))]
        runs += len(pairs) * len(pool_x.trees) * len(pool_y.trees)
        for R, S in pairs:
            broke = (member[R] & ~member[S]).bit_count()
            if broke:
                fails += [f"monotonicity broke: R={_pairs(R, X, Y)} S={_pairs(S, X, Y)}"] * broke
    results.append(LawResult("e2 (relator monotone)", "may/must", runs, tuple(fails)))

    # law 3: composition
    runs, fails = 0, []
    X, Y, Z = [0, 1], [10, 11], [20, 21]
    pool_x, pool_y, pool_z = pool(X), pool(Y), pool(Z)
    in_r = _RelatorTables(pool_x, pool_y).members()
    in_s = _RelatorTables(pool_y, pool_z).members()
    in_rs = _RelatorTables(pool_x, pool_z).members()
    rels = _unions([1 << c for c in range(4)])
    # per S, the composite of every R in `rels` with S: R's cell (a, b)
    # contributes S's row b as row a
    composites = [_unions([(S >> 2 * b & 3) << 2 * a for a in range(2) for b in range(2)]) for S in rels]
    n = len(pool_y.trees)  # every pool has n trees
    column, row = sum(1 << t * n for t in range(n)), (1 << n) - 1
    for ri, R in enumerate(rels):
        # per middle tree u, the trees t with (t, u) in R's relator, at bits t * n
        cols = [in_r[R] >> u & column for u in range(n)]
        for S, comp in zip(rels, composites):
            ms, not_rs = in_s[S], ~in_rs[comp[ri]]
            runs += n ** 3
            # cols[u] times row u of S's relator: the (t, r) that pass through u
            broke = sum((col * (ms >> u * n & row) & not_rs).bit_count() for u, col in enumerate(cols))
            if broke:
                fails += [f"composition broke: R={_pairs(R, X, Y)} S={_pairs(S, Y, Z)}"] * broke
    results.append(LawResult("e3 (relator composition)", "may/must", runs, tuple(fails)))

    # law 4: inverse images
    runs, fails = 0, []
    X, Y, Z, W = [0, 1], [10, 11], [20, 21], [30, 31]
    pool_x, pool_y = pool(X), pool(Y)
    lhs = _RelatorTables(pool_x, pool_y).members()
    cells = len(pool_x.trees) * len(pool_y.trees)
    fs = [dict(zip(X, fbits)) for fbits in itertools.product(Z, repeat=2)]
    gs = [dict(zip(Y, gbits)) for gbits in itertools.product(W, repeat=2)]
    # the pools mapped by each f and by each g, shared by all their instances
    f_pools = [_Pool(Z, [map_leaves(t, f.__getitem__) for t in pool_x.trees], mods) for f in fs]
    g_pools = [_Pool(W, [map_leaves(r, g.__getitem__) for r in pool_y.trees], mods) for g in gs]
    for f, f_pool in zip(fs, f_pools):
        for g, g_pool in zip(gs, g_pools):
            rhs = _RelatorTables(f_pool, g_pool).members()
            # the preimage of every R in `rels`: R's cell (f(x), g(y)) contributes (x, y)
            images = [2 * Z.index(f[x]) + W.index(g[y]) for x in X for y in Y]
            pres = _unions([sum(1 << c for c, k in enumerate(images) if k == cell) for cell in range(4)])
            runs += len(rels) * cells
            for R, pre in zip(rels, pres):
                broke = (lhs[pre] ^ rhs[R]).bit_count()
                if broke:
                    fails += [f"inverse image broke: f={f} g={g} R={_pairs(R, Z, W)}"] * broke
    results.append(LawResult("e4 (relator inverse image)", "may/must", runs, tuple(fails)))
    return results


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
