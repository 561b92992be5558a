"""Randomized and exhaustive law suites for the modality metatheory.

Laws checked:
  a. leaf-monotonicity: raising leaf values raises the denotation;
  b. Scott chains: denotations along a truncation chain grow monotonically
     and reach the full tree's denotation;
  c. sequentiality: flattening a double tree commutes with denotation;
  d. unit: the denotation of a single leaf is its value;
  e. the four relator laws, exhausted over small Boolean carriers: each
     pool tree is folded once per Boolean valuation of its distinct leaves,
     and each instance (t, r, R) is decided once from those tables, so every
     instance is still checked and the check counts stay the same;
  f. decomposability consequence: flattening preserves the certified
     double-tree order on sampled valuation families;
  g. congruence spot-checks: pairs equivalent at bounds stay undistinguished
     under random program contexts.

All randomness is seeded; failures carry a rendering of the counterexample.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .config import RunConfig, Runtime, build_runtime
from .equivalence import compare, Distinguished
from .lattice import BoolSpace, StoreConfig
from .modality import (
    ModalitySpec,
    bool_modalities,
    denote_limit,
    evaluate_interval,
    power,
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
from .trees import EffectTree, Leaf, Node, Unknown, eta, leaves, map_leaves, mu, tree_depth, truncate


class LawError(CbpvError):
    pass


def _check_trials(trials: int) -> None:
    if trials < 0:
        raise LawError(f"congruence trials must be at least 0, got {trials}")


@dataclass(frozen=True)
class LawParams:
    samples: int = 1000
    seed: int = 0
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
# Random trees over a modality's operator set


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
    A law drawing many trees passes q's `_op_shapes` as `shapes`, computed
    once for the call."""
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


# --------------------------------------------------------------------------
# Laws a-d and f (per modality)


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
        chain = [truncate(t, k) for k in range(tree_depth(t) + 2)]
        vals = [denote_limit(q, tk) for tk in chain]
        for a, b in zip(vals, vals[1:]):
            if not space.leq(a, b):
                failures.append(f"sample {i}: chain not monotone")
                break
        else:
            if vals[-1] != denote_limit(q, t):
                failures.append(f"sample {i}: chain does not reach the full denotation")
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


def law_decomposability(q: ModalitySpec, params: LawParams) -> LawResult:
    rng = random.Random(params.seed + 4)
    space = q.space
    shapes = _op_shapes(q)
    # the four surrogate maps of a sample are folded in one walk, as q^4
    surrogates = 4
    qk = power(q, surrogates)
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
        hk = _pointwise(space.monotone_maps(rng, surrogates))
        H = lambda sub: denote_limit(qk, sub, hk)
        if not qk.space.leq(denote_limit(qk, tt, H), denote_limit(qk, rr, H)):
            continue
        checked += 1
        flat_tt, flat_rr = mu(tt), mu(rr)
        flat_hk = _pointwise(space.monotone_maps(rng, surrogates))
        if not qk.space.leq(denote_limit(qk, flat_tt, flat_hk), denote_limit(qk, flat_rr, flat_hk)):
            failures.append(f"sample {i}: flattening broke the certified order")
    return LawResult("f (decomposability)", q.name, checked, tuple(failures))


def _pointwise(maps: Sequence[Callable]) -> Callable[[object], tuple]:
    """The leaf valuation into k-tuples whose position j is maps[j]."""
    return lambda a: tuple([h(a) for h in maps])


# --------------------------------------------------------------------------
# Law e: relator laws over Boolean carriers, exhaustively


def _tree_pool(carrier: Sequence) -> list[EffectTree]:
    xs = list(carrier)
    pool: list[EffectTree] = [Unknown, Leaf(xs[0]), Leaf(xs[-1])]
    pool.append(Node("nor", (Leaf(xs[0]), Leaf(xs[-1]))))
    pool.append(Node("nor", (Node("nor", (Leaf(xs[0]), Unknown)), Leaf(xs[-1]))))
    return pool


class _Pool:
    """A tree pool with its fold tables.

    For tree i, `leaves[i]` lists its distinct leaves and `tables[i][m]` holds
    each modality's exact denotation of the tree under the Boolean valuation
    sending leaves[i][b] to bit b of m.  Pool trees are total objects here: a
    bottom leaf denotes bot exactly, so the tables hold exact denotations, not
    fuel intervals.
    """

    def __init__(self, trees: list[EffectTree], mods: Sequence[ModalitySpec]):
        self.trees = trees
        self.leaves = [tuple(dict.fromkeys(leaves(t))) for t in trees]
        self.tables = [
            [
                tuple(denote_limit(q, t, _bit_valuation(ls, m)) for q in mods)
                for m in range(1 << len(ls))
            ]
            for t, ls in zip(trees, self.leaves)
        ]


def _bit_valuation(xs: tuple, m: int) -> Callable[[object], bool]:
    return {x: bool(m >> b & 1) for b, x in enumerate(xs)}.__getitem__


def _reach(tl: tuple, pres: tuple) -> frozenset:
    """The table index pairs (i, j) that Boolean valuations h of the left
    elements reach, where bit b of i is h(tl[b]) and bit b of j is the join
    of h over pres[b] (the right set R[h]: a right element is valued at the
    join of h over its preimages, as in the tests' `simulation.right_set`).
    Only the elements of tl and of pres move i or j, so h ranges over those
    alone."""
    deps = list(dict.fromkeys([*tl, *(a for p in pres for a in p)]))
    out = set()
    for bits in itertools.product((False, True), repeat=len(deps)):
        h = dict(zip(deps, bits))
        i = sum(1 << b for b, a in enumerate(tl) if h[a])
        j = sum(1 << b for b, p in enumerate(pres) if any(h[a] for a in p))
        out.add((i, j))
    return frozenset(out)


class _RelatorTables:
    """The decision tables of one relator law; nothing here outlives it.

    (t, r) lies in the relator of R iff no valuation h reaches a pair (i, j)
    of table indices at which some modality's value of t is not below its
    value of r.  So each pool pair gets the violating pairs of every (t, r)
    once, each leaf shape and preimage family gets its reached pairs once,
    and each instance is one disjointness test.  The violation and decision
    caches hold their pools in the key, never an `id`, so no key outlives or
    mistakes its pool.
    """

    def __init__(self):
        self.leq = BoolSpace().leq
        self.reached: dict = {}
        self.violations: dict = {}
        self.decided: dict = {}

    def _violations(self, left: _Pool, right: _Pool) -> list[list[frozenset]]:
        got = self.violations.get((left, right))
        if got is None:
            leq = self.leq
            got = self.violations[left, right] = [
                [
                    frozenset(
                        (i, j)
                        for i, tv in enumerate(ttab)
                        for j, rv in enumerate(rtab)
                        if not all(map(leq, tv, rv))
                    )
                    for rtab in right.tables
                ]
                for ttab in left.tables
            ]
        return got

    def decide(self, left: _Pool, right: _Pool, rel) -> tuple[tuple[bool, ...], ...]:
        """Relator membership of every (t, r) in left x right, rows over t."""
        pre: dict = {}
        for a, b in rel:
            pre.setdefault(b, set()).add(a)
        rows = []
        for tl, bad_row in zip(left.leaves, self._violations(left, right)):
            row = []
            for rl, bad in zip(right.leaves, bad_row):
                key = (tl, tuple(frozenset(pre.get(y, ())) for y in rl))
                reach = self.reached.get(key)
                if reach is None:
                    reach = self.reached[key] = _reach(*key)
                row.append(reach.isdisjoint(bad))
            rows.append(tuple(row))
        return tuple(rows)

    def member(self, left: _Pool, right: _Pool, rel) -> tuple[tuple[bool, ...], ...]:
        """`decide`, once per (left, right, rel)."""
        key = (left, right, frozenset(rel))
        got = self.decided.get(key)
        if got is None:
            got = self.decided[key] = self.decide(left, right, rel)
        return got


def law_relator(max_carrier: int = 3) -> list[LawResult]:
    """The four relator laws, every instance (t, r, R) over the tree pools of
    small carriers decided exhaustively.  Each pool tree is folded once per
    Boolean valuation of its distinct leaves, and each instance is decided
    once from those tables (`_RelatorTables`)."""
    mods = list(bool_modalities(("nor",)).values())
    results = []

    def pool(carrier: Sequence) -> _Pool:
        return _Pool(_tree_pool(carrier), mods)

    # law 1: reflexive relations lift to reflexive relators
    runs, fails = 0, []
    tables = _RelatorTables()  # one per law: each law has its own pools
    for n in range(1, max_carrier + 1):
        carrier = list(range(n))
        p = pool(carrier)
        ident = {(x, x) for x in carrier}
        off_diag = [(x, y) for x in carrier for y in carrier if x != y]
        for k in range(len(off_diag) + 1):
            for extra in itertools.combinations(off_diag, k):
                rel = ident | set(extra)
                m = tables.member(p, p, rel)
                for i in range(len(p.trees)):
                    runs += 1
                    if not m[i][i]:
                        fails.append(f"reflexivity broke at carrier {n}, rel {sorted(rel)}")
    results.append(LawResult("e1 (relator reflexive)", "may/must", runs, tuple(fails)))

    # law 2: monotone in the relation
    runs, fails = 0, []
    tables = _RelatorTables()
    for nx, ny in ((2, 2), (3, 2)):
        X, Y = list(range(nx)), list(range(100, 100 + ny))
        cells = [(x, y) for x in X for y in Y]
        pool_x, pool_y = pool(X), pool(Y)
        pairs = list(itertools.product(range(len(pool_x.trees)), range(len(pool_y.trees))))
        for assignment in itertools.product((0, 1, 2), repeat=len(cells)):
            # 0: in neither, 1: in S only, 2: in both R and S  (so R subset of S)
            R = {c for c, a in zip(cells, assignment) if a == 2}
            S = {c for c, a in zip(cells, assignment) if a >= 1}
            in_r, in_s = tables.member(pool_x, pool_y, R), tables.member(pool_x, pool_y, S)
            for i, j in pairs:
                runs += 1
                if in_r[i][j] and not in_s[i][j]:
                    fails.append(f"monotonicity broke: R={sorted(R)} S={sorted(S)}")
    results.append(LawResult("e2 (relator monotone)", "may/must", runs, tuple(fails)))

    # law 3: composition
    runs, fails = 0, []
    tables = _RelatorTables()
    X, Y, Z = [0, 1], [10, 11], [20, 21]
    cells_r = [(x, y) for x in X for y in Y]
    cells_s = [(y, z) for y in Y for z in Z]
    pool_x, pool_y, pool_z = pool(X), pool(Y), pool(Z)
    triples = list(
        itertools.product(
            range(len(pool_x.trees)), range(len(pool_y.trees)), range(len(pool_z.trees))
        )
    )
    for rbits in itertools.product((0, 1), repeat=4):
        R = {c for c, b in zip(cells_r, rbits) if b}
        in_r = tables.member(pool_x, pool_y, R)
        for sbits in itertools.product((0, 1), repeat=4):
            S = {c for c, b in zip(cells_s, sbits) if b}
            RS = {(x, z) for (x, y) in R for (y2, z) in S if y == y2}
            in_s, in_rs = tables.member(pool_y, pool_z, S), tables.member(pool_x, pool_z, RS)
            for t, u, r in triples:
                runs += 1
                if in_r[t][u] and in_s[u][r] and not in_rs[t][r]:
                    fails.append(f"composition broke: R={sorted(R)} S={sorted(S)}")
    results.append(LawResult("e3 (relator composition)", "may/must", runs, tuple(fails)))

    # law 4: inverse images
    runs, fails = 0, []
    tables = _RelatorTables()
    X, Y, Z, W = [0, 1], [10, 11], [20, 21], [30, 31]
    pool_x, pool_y = pool(X), pool(Y)
    pairs = list(itertools.product(range(len(pool_x.trees)), range(len(pool_y.trees))))
    cells = [(z, w) for z in Z for w in W]
    fs = [dict(zip(X, fbits)) for fbits in itertools.product(Z, repeat=2)]
    gs = [dict(zip(Y, gbits)) for gbits in itertools.product(W, repeat=2)]
    # the pools mapped by each f and by each g, shared by all their instances
    f_pools = [_Pool([map_leaves(t, f.__getitem__) for t in pool_x.trees], mods) for f in fs]
    g_pools = [_Pool([map_leaves(r, g.__getitem__) for r in pool_y.trees], mods) for g in gs]
    for f, f_pool in zip(fs, f_pools):
        for g, g_pool in zip(gs, g_pools):
            for rbits in itertools.product((0, 1), repeat=4):
                R = {c for c, b in zip(cells, rbits) if b}
                pre = {(x, y) for x in X for y in Y if (f[x], g[y]) in R}
                lhs = tables.member(pool_x, pool_y, pre)
                # each (f, g, R) comes up once, so its images are not cached
                rhs = tables.decide(f_pool, g_pool, R)
                for i, j in pairs:
                    runs += 1
                    if lhs[i][j] != rhs[i][j]:
                        fails.append(f"inverse image broke: f={f} g={g} R={sorted(R)}")
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
    `runtime.config.suite_size` at `runtime.config.fuel`."""
    _check_trials(trials)
    rng = random.Random(seed)
    sat = Satisfier(runtime.signature, runtime.modalities, runtime.space, runtime.width)
    pools = Pools(numerals=CONGRUENCE_NUMERALS)
    ty = ProducerType(NAT)
    fuel = runtime.config.fuel
    suite = enumerate_basic_formulas(ty, runtime.config.suite_size, pools, runtime.modalities)
    candidates = [
        (m, n)
        for (m, n) in _equivalent_pairs(runtime, rng)
        if sat.type_of(m) == ty
        and not isinstance(compare(m, n, suite, fuel, sat), Distinguished)
    ]
    failures = []
    runs = 0
    for i in range(trials):
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
        report.results.append(law_leaf_monotone(q, params))
        report.results.append(law_scott_chain(q, params))
        report.results.append(law_sequential(q, params))
        report.results.append(law_unit(q, params))
        report.results.append(law_decomposability(q, params))
    if include_relator:
        report.results.extend(law_relator())
    if runtime is not None:
        report.results.append(
            law_congruence(runtime, trials=congruence_trials, seed=params.seed)
        )
    return report
