"""Randomized and exhaustive law suites for the modality metatheory.

Laws checked:
  a+b. per modality, one obligation on the combinators, with no trees: each
     is monotone in each argument (`law_monotone`), from which
     leaf-monotonicity (a: raising leaf values raises the denotation) and
     Scott chains (b: denotations along a truncation chain grow and reach
     the full tree's) follow by induction on the tree;
  d. per modality, unit: the denotation of a single leaf is its value;
  e. the four relator laws, exhausted over small Boolean carriers: each
     pool tree is folded once per Boolean valuation of its distinct leaves;
     each pool pair gets one table of the tree pairs that break the order
     under each pair of left and right valuations, as a bitmask; a
     relation's relator is then a bitmask over the pool pair's tree pairs,
     one OR per left valuation, and the laws compare those masks, so every
     instance (t, r, R) is still checked and the check counts stay the same;
  g. congruence spot-checks: pairs equivalent at bounds stay undistinguished
     under random program contexts.

Two laws are not checked per call, and `law_monotone` gives the arguments.
Law c (sequentiality: flattening a double tree commutes with denotation)
holds for any combinators.  Law f (the decomposability consequence:
flattening preserves the certified double-tree order under sampled
monotone maps), as sampled on a double tree and its copy with raised
leaves, is law a twice.  The tree-level samplers of a, b, c and f are test
oracles for the fold, in `tests/spec.py`.

All randomness is seeded; failures carry a rendering of the counterexample.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .config import RunConfig, Runtime, build_runtime
from .equivalence import compare, Distinguished
from .lattice import StoreConfig
from .modality import (
    ModalitySpec,
    bool_modalities,
    denote_limit,
    evaluate_interval,
)
from .satisfaction import Satisfier
from .suites import Pools, enumerate_basic_formulas
from .syntax import (
    Apply,
    CbpvError,
    ComTerm,
    EffOp,
    Force,
    Lambda,
    LetVal,
    NAT,
    ProducerType,
    Return,
    SeqTo,
    Thunk,
    Var,
    numeral,
)
from .trees import EffectTree, Leaf, Node, Unknown, eta, leaves, map_leaves


class LawError(CbpvError):
    pass


def _check_trials(trials: int) -> None:
    if trials < 0:
        raise LawError(f"congruence trials must be at least 0, got {trials}")


@dataclass(frozen=True)
class LawParams:
    samples: int = 1000
    seed: int = 0
    # no law of the suite reads it; it sizes the trees of the tree-level
    # samplers in tests/spec.py
    depth: int = 4

    def __post_init__(self):
        if self.samples < 1:
            raise LawError(f"law samples must be at least 1, got {self.samples}")
        if self.depth < 0:
            raise LawError(f"law depth must be at least 0, got {self.depth}")


@dataclass(frozen=True)
class LawResult:
    law: str
    subject: str
    runs: int
    failures: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        out = f"law {self.law} [{self.subject}]: {status} ({self.runs} checks)"
        if self.failures:
            out += f" first failure: {self.failures[0]}"
        return out


@dataclass
class LawReport:
    results: list[LawResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


# --------------------------------------------------------------------------
# Operator shapes


def _op_shapes(q: ModalitySpec) -> list[tuple[str, str, int]]:
    shapes = []
    for op, rule in q.rules.items():
        if rule.family_consult is not None:
            shapes.append((op, "indexed", rule.family_consult))
        elif op == "cost" or op.startswith("update["):
            shapes.append((op, "param", 1))
        elif op.startswith("raise["):
            shapes.append((op, "nullary", 0))
        else:
            shapes.append((op, "finite", 2))
    return shapes


# --------------------------------------------------------------------------
# The obligation and law d (per modality)


def law_monotone(q: ModalitySpec, params: LawParams) -> LawResult:
    """Laws a and b as one obligation on q's combinators: each is monotone
    in each of its arguments.  Per operator, `params.samples` argument tuples
    are drawn (and a parameter, for `cost` and `update`); each argument in
    turn is raised with `space.raise_of`, and the combinator's value must not
    fall: one check per (sample, argument).  A nullary `raise[e]` is a
    constant and adds no check.

    Why this suffices.  The fold sends Unknown to bot, a leaf to its value
    and a node to its combinator applied to its children's values.  Law a
    (raising leaf values raises the denotation) follows by induction on the
    tree: a leaf rises with its value, and a node whose children's values
    rise rises with them because its combinator is monotone.  Law b (the
    denotations along a truncation chain grow) follows by the same
    induction, since a truncation only puts Unknown where the longer tree
    has a subtree, and Unknown is bot, below every value.  That is the
    fold's definition, not a combinator's, so no bot-preservation
    obligation is needed.  Law c (sequentiality) holds for any combinators:
    the structural fold is the unique homomorphism out of the free model
    (Plotkin & Power, "Algebraic operations and generic effects", 2003), so
    folding mu(tt) and folding tt with each leaf tree valued at its own
    denotation agree.

    Law f as sampled compares a double tree tt with the copy rr whose leaves
    are raised, under sampled monotone surrogate maps h, before and after
    flattening with mu, and it is law a twice.  `raise_of` gives r >= a at
    each leaf, and h is monotone, so h(a) <= h(r) at every leaf.  A fold
    whose combinators are monotone is monotone in its leaves, so the inner
    trees' values rise, and then the outer tree's.  Flattening changes
    neither step: mu(rr) is mu(tt) with the same leaves raised.  So its
    premise and its conclusion both hold.  Decomposability as stated on
    paper relates two arbitrary double trees, which this argument does not
    cover.  The tree-level samplers of laws a, b, c and f stay in the
    tests, as the oracle for the fold."""
    rng = random.Random(params.seed)
    space = q.space
    render = space.render
    failures = []
    runs = 0
    for op, kind, arity in _op_shapes(q):
        if not arity:
            continue
        fn = q._table[op][0]
        for i in range(params.samples):
            args = [space.sample(rng) for _ in range(arity)]
            node = Node(op, (), param=rng.randrange(4) if kind == "param" else None)
            before = fn(node, args)
            for j, x in enumerate(args):
                raised = list(args)
                raised[j] = space.raise_of(rng, x)
                after = fn(node, raised)
                runs += 1
                if not space.leq(before, after):
                    failures.append(
                        f"{op} argument {j}, sample {i}: raising {render(x)} to {render(raised[j])}"
                        f" took {render(before)} to {render(after)}"
                    )
    return LawResult("a+b (monotone combinators)", q.name, runs, tuple(failures))


def law_unit(q: ModalitySpec, params: LawParams) -> LawResult:
    rng = random.Random(params.seed + 3)
    space = q.space
    failures = []
    runs = min(params.samples, 100)
    for i in range(runs):
        a = space.sample(rng)
        iv = evaluate_interval(q, eta(a))
        if not (iv.exact and iv.lo == a):
            failures.append(f"sample {i}: eta({space.render(a)}) gave {space.render(iv.lo)}")
    return LawResult("d (unit)", q.name, runs, tuple(failures))


# --------------------------------------------------------------------------
# Law e: relator laws over Boolean carriers, exhaustively
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


# --------------------------------------------------------------------------
# Law g: congruence spot-check over a runtime


def _context_pool(runtime: Runtime, rng: random.Random) -> Callable[[ComTerm], ComTerm]:
    """A random context of depth at most 3 around a hole of type F nat."""

    def one_layer() -> Callable[[ComTerm], ComTerm]:
        choices = ["seq", "seq-pre", "thunk-force", "beta"]
        binary_ops = runtime.signature.binary_ops()
        if binary_ops:
            choices.append("effect")
        kind = rng.choice(choices)
        x = f"c{rng.randrange(1000)}"
        k = numeral(rng.randrange(3))
        if kind == "seq":
            return lambda m: SeqTo(m, x, Return(Var(x)))
        if kind == "seq-pre":
            return lambda m: SeqTo(Return(k), x, m)
        if kind == "thunk-force":
            return lambda m: Force(Thunk(m))
        if kind == "beta":
            return lambda m: Apply(Lambda(x, NAT, m), k)
        op = rng.choice(binary_ops)
        return lambda m: EffOp(op, None, (m, Return(k)))

    layers = [one_layer() for _ in range(rng.randrange(1, 4))]

    def ctx(m: ComTerm) -> ComTerm:
        for f in layers:
            m = f(m)
        return m

    return ctx


def _equivalent_pairs(runtime: Runtime, rng: random.Random) -> list[tuple[ComTerm, ComTerm]]:
    """Candidate pairs expected equivalent: syntactic identity, redex and
    contractum, argument swaps of the symmetric choice operators."""
    from .generators import generate_program

    sig = runtime.signature
    pairs: list[tuple[ComTerm, ComTerm]] = []
    for _ in range(6):
        m = generate_program(rng, sig, depth=2)
        pairs.append((m, m))
    for _ in range(6):
        m = generate_program(rng, sig, depth=2)
        pairs.append((Force(Thunk(m)), m))
        x = "w0"
        pairs.append((SeqTo(Return(numeral(2)), x, m), m))
        pairs.append((LetVal(x, numeral(1), m), m))
    for op in sig.binary_ops():
        for _ in range(4):
            a = generate_program(rng, sig, depth=1)
            b = generate_program(rng, sig, depth=1)
            pairs.append((EffOp(op, None, (a, b)), EffOp(op, None, (b, a))))
    return pairs


# the numerals of the congruence suite; fixed, so `laws` takes no numeral pool
CONGRUENCE_NUMERALS = (0, 1, 2, 7)


def law_congruence(
    runtime: Runtime,
    trials: int = 200,
    seed: int = 0,
) -> LawResult:
    """Contexts around candidate-equivalent pairs, compared over the suite of
    `runtime.config.suite_size` at `runtime.config.fuel`.

    The candidates are equivalent by construction, so one that the bounded
    `compare` already distinguishes is a failure line and stays out of the
    trials; with no candidate left, no trial runs."""
    _check_trials(trials)
    rng = random.Random(seed)
    sat = Satisfier(runtime.signature, runtime.modalities, runtime.space, runtime.width)
    pools = Pools(numerals=CONGRUENCE_NUMERALS)
    ty = ProducerType(NAT)
    fuel = runtime.config.fuel
    suite = enumerate_basic_formulas(ty, runtime.config.suite_size, pools, runtime.modalities)
    candidates = []
    failures = []
    for m, n in _equivalent_pairs(runtime, rng):
        if sat.type_of(m) != ty:
            continue
        verdict = compare(m, n, suite, fuel, sat)
        if isinstance(verdict, Distinguished):
            failures.append(f"candidate {m} ~ {n} distinguished before any context via {verdict.formula}")
        else:
            candidates.append((m, n))
    runs = 0
    for i in range(trials if candidates else 0):
        m, n = candidates[rng.randrange(len(candidates))]
        ctx = _context_pool(runtime, rng)
        cm, cn = ctx(m), ctx(n)
        if sat.type_of(cm) != ty:
            continue
        runs += 1
        verdict = compare(cm, cn, suite, fuel, sat)
        if isinstance(verdict, Distinguished):
            failures.append(
                f"trial {i}: context distinguished {m} ~ {n} via {verdict.formula}"
            )
    return LawResult("g (congruence spot-check)", runtime.config.signature, runs, tuple(failures))


# --------------------------------------------------------------------------
# Assembling the standard suite


def standard_modalities(store: Optional[StoreConfig] = None) -> dict[str, ModalitySpec]:
    """The ten shipped modalities: E, C, G, EG and the nondeterministic
    variants of the first three (EG itself stays plain, matching the worked
    examples), as the runtimes of their signatures wire them at `store`'s
    locations and value bound."""
    store = store or StoreConfig(("l", "r"), 3)
    out: dict[str, ModalitySpec] = {}
    for sig in ("prob", "prob+nondet", "cost", "cost+nondet", "store", "store+nondet", "prob+store"):
        cfg = RunConfig(signature=sig, locations=store.locations, value_bound=store.value_bound)
        out.update(build_runtime(cfg).modalities)
    return out


def run_law_suite(
    modalities: Sequence[ModalitySpec],
    params: LawParams,
    include_relator: bool = True,
    runtime: Optional[Runtime] = None,
    congruence_trials: int = 200,
) -> LawReport:
    _check_trials(congruence_trials)
    report = LawReport()
    for q in modalities:
        report.results.append(law_monotone(q, params))
        report.results.append(law_unit(q, params))
    if include_relator:
        report.results.extend(law_relator())
    if runtime is not None:
        report.results.append(
            law_congruence(runtime, trials=congruence_trials, seed=params.seed)
        )
    return report
