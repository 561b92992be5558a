from dataclasses import replace

import pytest

from cbpv_quant.config import RunConfig, build_runtime
from cbpv_quant.lattice import StoreConfig
from cbpv_quant.laws import (
    LawParams,
    law_congruence,
    law_monotone,
    law_unit,
    standard_modalities,
)
from cbpv_quant.modality import bool_modalities
import spec
from spec import (
    decomposability_by_copies,
    law_leaf_monotone,
    law_relator,
    law_scott_chain,
    law_sequential,
    random_value_tree,
)

MODS = standard_modalities()
SMALL = LawParams(samples=60, seed=11, depth=4)


def test_standard_modality_set():
    assert list(MODS) == ["E", "Eopt", "Epes", "C", "Copt", "Cpes", "G", "Gopt", "Gpes", "EG"]


@pytest.mark.parametrize("name", list(MODS))
def test_leaf_monotone_smoke(name):
    assert law_leaf_monotone(MODS[name], SMALL).passed


@pytest.mark.parametrize("name", list(MODS))
def test_scott_chain_smoke(name):
    assert law_scott_chain(MODS[name], SMALL).passed


@pytest.mark.parametrize("name", list(MODS))
def test_sequential_smoke(name):
    assert law_sequential(MODS[name], SMALL).passed


@pytest.mark.parametrize("name", list(MODS))
def test_unit_smoke(name):
    assert law_unit(MODS[name], SMALL).passed


@pytest.mark.parametrize("name", ["Epes", "Cpes", "Gopt", "EG"])
def test_decomposability_smoke(name):
    r = decomposability_by_copies(MODS[name], SMALL)
    assert r.passed
    assert r.runs > 0


def test_relator_laws_exhaustive_small():
    for r in law_relator(max_carrier=2):
        assert r.passed, r.line()


def test_congruence_smoke():
    rt = build_runtime(RunConfig(signature="prob+nondet"))
    r = law_congruence(rt, trials=40, seed=5)
    assert r.passed
    assert r.runs > 0


def test_congruence_reports_a_distinguished_candidate(monkeypatch):
    # a candidate that bounded compare already tells apart is a failure
    # line, not a pair silently dropped, and never enters the trials
    import cbpv_quant.laws as laws
    from cbpv_quant.parser import parse_program

    rt = build_runtime(RunConfig(signature="prob"))
    real = laws._equivalent_pairs
    zero, one = (parse_program(t, rt.signature) for t in ("return 0", "return 1"))

    def planted(runtime, rng):
        return [(zero, one)] + real(runtime, rng)

    monkeypatch.setattr(laws, "_equivalent_pairs", planted)
    r = law_congruence(rt, trials=20, seed=3)
    assert r.failures[0] == "candidate return 0 ~ return 1 distinguished before any context via E<{1}>"
    assert len(r.failures) == 1 and r.runs > 0
    # with every candidate distinguished, no trial runs
    monkeypatch.setattr(laws, "_equivalent_pairs", lambda runtime, rng: [(zero, one), (one, zero)])
    r = law_congruence(rt, trials=20, seed=3)
    assert r.runs == 0 and len(r.failures) == 2
    assert all(f.startswith("candidate ") for f in r.failures)


def test_failing_law_is_reported():
    # a deliberately broken "modality" whose nor-rule inverts one side must
    # trip leaf-monotonicity
    from dataclasses import replace

    from cbpv_quant.modality import OpRule, expectation_modality

    E = expectation_modality()

    def bad(node, kids):
        return (1.0 - kids[0] + kids[1]) / 2

    broken = replace(E, name="Ebad", rules={**E.rules, "nor": OpRule(bad)})
    r = law_leaf_monotone(broken, LawParams(samples=300, seed=2, depth=4))
    assert not r.passed
    assert r.failures
    # the obligation a and b follow from names the operator and argument
    r = law_monotone(broken, LawParams(samples=300, seed=2, depth=4))
    assert not r.passed
    assert r.failures[0].startswith("nor argument 0, ")
    assert all(f.startswith("nor argument 0, ") for f in r.failures)


def _tree_text(t):
    from cbpv_quant.trees import Leaf, Unknown

    if t is Unknown:
        return "?"
    if isinstance(t, Leaf):
        v = t.value
        return "{" + ",".join(map(repr, sorted(v))) + "}" if isinstance(v, frozenset) else repr(v)
    return f"{t.op}/{t.param}(" + ",".join(_tree_text(c) for c in t.children) + ")"


def test_random_value_tree_draws_are_pinned():
    # the generator's rng draws, and so every law sample, are fixed: a digest
    # of seeded trees for all ten modalities at depths 0-5, plus each rng's
    # next draw, as recorded when the operator shapes were recomputed per node
    import hashlib
    import random

    h = hashlib.sha256()
    for name, q in sorted(MODS.items()):
        rng = random.Random(2024)
        for depth in range(6):
            for _ in range(20):
                t = random_value_tree(q, rng, depth, lambda: q.space.sample(rng), p_unknown=0.3)
                h.update(_tree_text(t).encode())
        h.update(repr(rng.random()).encode())
    assert h.hexdigest() == "056e44f4d579ad1c76996bb5299ea09a029ae865f78d6741434ded7386e1e511"


def _value_text(v):
    return "{" + ",".join(map(repr, sorted(v))) + "}" if isinstance(v, frozenset) else repr(v)


@pytest.mark.parametrize(
    "store,digest",
    [
        (None, "cf75772eee9167430fd49bf419f68c879e48845b2b448ee3726bb48cc1e0dd5a"),
        (StoreConfig(("a",), 2), "d205e05e436c0a464d8cd5351d567ce85352ec95f7f1ad6e44901c5c4ffdbbf5"),
    ],
)
def test_standard_modalities_fold_as_pinned(store, digest):
    # the ten modalities in the insertion order the law-suite rng draws
    # depend on, and each one's exact denotation and certified bounds on the
    # seeded trees of test_random_value_tree_draws_are_pinned, as recorded
    # while laws built the modalities itself
    import hashlib
    import random
    from cbpv_quant.modality import evaluate_interval
    from spec import denote_limit

    mods = standard_modalities(store)
    assert list(mods) == ["E", "Eopt", "Epes", "C", "Copt", "Cpes", "G", "Gopt", "Gpes", "EG"]
    h = hashlib.sha256()
    for name, q in sorted(mods.items()):
        rng = random.Random(2024)
        for depth in range(6):
            for _ in range(20):
                t = random_value_tree(q, rng, depth, lambda: q.space.sample(rng), p_unknown=0.3)
                iv = evaluate_interval(q, t)
                h.update(" ".join(map(_value_text, (denote_limit(q, t), iv.lo, iv.hi))).encode())
    assert h.hexdigest() == digest


def _tree_level_lines(report, mods, params):
    """The suite's results as they read while laws a, b, c and f were
    sampled on trees per call: per modality, the tree-level samplers' results
    for a-c, then the suite's own law d result, then law f's sampler's."""
    out = []
    for k, q in enumerate(mods):
        _, unit = report.results[2 * k : 2 * k + 2]
        out += [law(q, params) for law in (law_leaf_monotone, law_scott_chain, law_sequential)]
        out += [unit, decomposability_by_copies(q, params)]
    return out


@pytest.mark.parametrize(
    "samples,seed,depth,digest",
    [
        (40, 3, 4, "4dbc8b5041f2f7797fca45df22e6232434f400e0fc65ca11797e810a8f44d90b"),
        (25, 17, 2, "bee37ed3ec3f8dc625a9d3285473b392e11d8fa0f20ece0e7c7076a4b975d83e"),
        (60, 101, 5, "0b89ae112cd9ba789602ddf1189e5d8c83c07dc29d4d06c0d9bd92e884ad54dd"),
        (12, 7919, 6, "8f9cbeff2d6bc708f616a40b75f93b93006ffdb8bff922fb715bae8aaae812d2"),
    ],
)
def test_law_suite_lines_are_pinned(samples, seed, depth, digest):
    # laws a-d and f over the ten modalities, as recorded while each law
    # folded a tree once per valuation; law f's check count is the number of
    # samples whose four surrogates all certify.  Laws a-c and f are now the
    # tree-level samplers of tests/spec.py, and law d is the suite's own
    # line, so the digest holds both to their recorded text
    import hashlib

    from cbpv_quant.laws import run_law_suite

    mods = list(MODS.values())
    params = LawParams(samples, seed, depth)
    report = run_law_suite(mods, params, include_relator=False)
    assert [r.law[0] for r in report.results] == ["a", "d"] * len(mods)
    text = "\n".join(r.line() for r in _tree_level_lines(report, mods, params))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "samples,seed,depth,digest",
    [
        (40, 3, 4, "2831d2bc5d9806ffe566771b7020d887f3689818d129142b0cefcf366b0c4874"),
        (25, 17, 2, "63299e8945c621e1520db87a5ecb3c00c2a25d2df98e97663358d6dbb7d57dec"),
        (60, 101, 5, "cd6d020411ed76985b1bf4bdeb856385aeecc620173e94b410b526b7028e4f18"),
        (12, 7919, 6, "ecaed42abfb929f44fc2fd33f631e701f41a03e009aed9ff1691e7e6e76abb6a"),
    ],
)
def test_monotone_obligation_lines_are_pinned(samples, seed, depth, digest):
    # the obligation's line per modality, first in its block of the suite
    import hashlib

    from cbpv_quant.laws import run_law_suite

    report = run_law_suite(list(MODS.values()), LawParams(samples, seed, depth), include_relator=False)
    text = "\n".join(r.line() for r in report.results[::2])
    assert text.startswith("law a+b (monotone combinators) [E]: pass (")
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _broken_modalities():
    """E with a `nor` antitone in its first child and C with a `cost`
    antitone in its child: both break laws a and b and the obligation, and
    Ebad also breaks law f's sampler."""
    from cbpv_quant.modality import OpRule

    e, c = MODS["E"], MODS["C"]
    ebad = replace(e, name="Ebad", rules={**e.rules, "nor": OpRule(lambda node, kids: (1.0 - kids[0] + kids[1]) / 2)})
    cbad = replace(
        c, name="Cbad", rules={**c.rules, "cost": OpRule(lambda node, kids: node.param + 3.0 - min(kids[0], 3.0))}
    )
    return [ebad, cbad]


def _failure_text(results):
    return "\n".join(repr((r.law, r.subject, r.runs, r.failures)) for r in results)


@pytest.mark.parametrize(
    "samples,seed,depth,digest",
    [
        (40, 3, 4, "d964e3ba5466bce54c4eb57a7b849f77acdb9e53c4a2af4cec0426bc889b9b50"),
        (60, 101, 5, "4d8cbd34ff7b69cb5c42e972bbf149f87ab963c93b6e6b30d89da29dca0e2565"),
    ],
)
def test_law_suite_failures_are_pinned(samples, seed, depth, digest):
    # every failure text of two broken modalities, and law f's count of
    # samples certified before flattening, which falls below the runs here,
    # as recorded while each law folded a tree once per valuation: laws a-c
    # and f from the tree-level samplers, law d from the suite
    import hashlib

    from cbpv_quant.laws import run_law_suite

    mods = _broken_modalities()
    params = LawParams(samples, seed, depth)
    report = run_law_suite(mods, params, include_relator=False)
    lines = _tree_level_lines(report, mods, params)
    text = _failure_text(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    decomposability = [r for r in lines if r.law.startswith("f")]
    assert decomposability[0].runs < samples and decomposability[0].failures
    # the obligation fails for both, first at the operator each one broke
    obligation = report.results[::2]
    assert [r.failures[0].split(",")[0] for r in obligation] == ["nor argument 0", "cost argument 0"]


@pytest.mark.parametrize(
    "samples,seed,depth,digest",
    [
        (40, 3, 4, "ca6baf60b4fa721f739808df15699afcd06dde9219499ae66cfd7b1419a3c881"),
        (60, 101, 5, "7cd8e9c59c72064da454704fe065677ae98dde3a93d520fcbe8df4e3cca19d9e"),
    ],
)
def test_monotone_obligation_failures_are_pinned(samples, seed, depth, digest):
    import hashlib

    from cbpv_quant.laws import run_law_suite

    report = run_law_suite(_broken_modalities(), LawParams(samples, seed, depth), include_relator=False)
    text = _failure_text(report.results[::2])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("seed", [5, 23])
def test_obligation_passes_iff_the_tree_level_samplers_pass(seed):
    # a and b follow from the obligation by induction on the tree; on the
    # ten modalities and the two broken ones the verdicts agree both ways.
    # Law f as sampled is law a twice, so a failure of f implies one of the
    # obligation.  The converse does not hold: Cbad breaks the obligation
    # but passes f's sampler at some sizes (40 samples, seed 5, depth 2).
    # On the ten shipped modalities f's premise never fails, so it skips no
    # sample
    params = LawParams(samples=200, seed=seed, depth=4)
    verdicts = {}
    for q in [*MODS.values(), *_broken_modalities()]:
        tree_level = law_leaf_monotone(q, params).passed and law_scott_chain(q, params).passed
        f = decomposability_by_copies(q, params)
        verdicts[q.name] = (law_monotone(q, params).passed, tree_level, f.passed)
        if q.name in MODS:
            assert f.passed and f.runs == min(params.samples, 200), f.line()
    assert all(ob == tree for ob, tree, _ in verdicts.values()), verdicts
    assert all(not ob for ob, _, f in verdicts.values() if not f), verdicts
    assert not verdicts["Ebad"][2]
    assert decomposability_by_copies(_broken_modalities()[1], LawParams(40, 5, 2)).passed
    assert [name for name, (ob, _, _) in verdicts.items() if not ob] == ["Ebad", "Cbad"]


def _every_value(space):
    """Every value of a finite truth space: Booleans or state sets."""
    from itertools import chain, combinations

    from cbpv_quant.lattice import BoolSpace

    if isinstance(space, BoolSpace):
        return [False, True]
    states = space.all_states
    return [frozenset(c) for c in chain.from_iterable(combinations(states, k) for k in range(len(states) + 1))]


def test_monotone_combinators_exhaustively_at_a_small_store():
    # at one location and value bound 2 (2 states, 4 sets): every argument
    # tuple of every combinator of G, Gopt, Gpes, may and must, raised at
    # each argument to every value above it, never lowers the combinator
    import itertools
    import time

    from cbpv_quant.laws import _op_shapes
    from cbpv_quant.trees import Node

    started = time.perf_counter()
    small = standard_modalities(StoreConfig(("l",), 2))
    mods = [small["G"], small["Gopt"], small["Gpes"], *bool_modalities(("nor",)).values()]
    checks = 0
    for q in mods:
        space = q.space
        values = _every_value(space)
        above = {x: [y for y in values if space.leq(x, y)] for x in values}
        for op, kind, arity in _op_shapes(q):
            fn = q._table[op][0]
            for param in range(4) if kind == "param" else [None]:
                node = Node(op, (), param=param)
                for args in itertools.product(values, repeat=arity):
                    before = fn(node, list(args))
                    for j, x in enumerate(args):
                        for y in above[x]:
                            raised = list(args)
                            raised[j] = y
                            checks += 1
                            assert space.leq(before, fn(node, raised)), (q.name, op, param, args, j, y)
    # 9 ordered pairs x <= y among 4 sets and 3 among 2 Booleans: G's lookup
    # 72 and update 36 (4 parameters), each nor 72 on sets, 12 on Booleans
    assert checks == 108 + 180 + 180 + 12 + 12
    assert time.perf_counter() - started < 1.0


def _law_f_subjects():
    return {**MODS, **{q.name: q for q in _broken_modalities()}}


@pytest.mark.parametrize("name", list(_law_f_subjects()))
def test_decomposability_agrees_with_folding_built_copies(name):
    # law f, built copies and all, against the obligation that stands for
    # it in the suite, over a grid of seeds and depths: a failure of f
    # implies one of the obligation; on the shipped modalities both pass and
    # f's premise skips no sample; each broken one fails f somewhere
    q = _law_f_subjects()[name]
    failures = 0
    for seed in (0, 3, 17, 101):
        for depth in (2, 4, 5):
            params = LawParams(samples=40, seed=seed, depth=depth)
            got = decomposability_by_copies(q, params)
            assert got.passed or not law_monotone(q, params).passed, (seed, depth)
            if name in MODS:
                assert got.runs == params.samples, (seed, depth)
            failures += len(got.failures)
    assert (failures > 0) == (name not in MODS)


# ---------------------------------------------------------------- law e tables


def _o_rel(t, r, pairs, mods):
    """Reference relator membership, decided as before law e had tables:
    quantify h over every Boolean valuation of the pairs' left elements and
    t's leaves, and fold both trees afresh per valuation and modality."""
    import itertools

    from cbpv_quant.lattice import BoolSpace
    from simulation import right_set
    from spec import denote_limit, leaves, map_leaves

    space = BoolSpace()
    lefts = sorted({a for a, _ in pairs} | set(leaves(t)))
    for bits in itertools.product((False, True), repeat=len(lefts)):
        h = dict(zip(lefts, bits))
        rh = right_set(pairs, h, space)
        for q in mods.values():
            lv = denote_limit(q, map_leaves(t, h.__getitem__))
            if not space.leq(lv, denote_limit(q, map_leaves(r, rh))):
                return False
    return True


def _reference_law_relator(max_carrier, mods):
    """Law e's instance loops and failure texts, each instance decided by
    `_o_rel` with no tables."""
    import itertools

    from cbpv_quant.laws import LawResult
    from spec import _tree_pool, map_leaves

    memo = {}

    def rel(t, r, pairs):
        # keyed by the trees' texts: an id could be reused by a later pool
        key = (frozenset(pairs), _tree_text(t), _tree_text(r))
        if key not in memo:
            memo[key] = _o_rel(t, r, pairs, mods)
        return memo[key]

    results = []
    runs, fails = 0, []
    for n in range(1, max_carrier + 1):
        carrier = list(range(n))
        pool = _tree_pool(carrier)
        ident = {(x, x) for x in carrier}
        off_diag = [(x, y) for x in carrier for y in carrier if x != y]
        for k in range(len(off_diag) + 1):
            for extra in itertools.combinations(off_diag, k):
                R = ident | set(extra)
                for t in pool:
                    runs += 1
                    if not rel(t, t, R):
                        fails.append(f"reflexivity broke at carrier {n}, rel {sorted(R)}")
    results.append(LawResult("e1 (relator reflexive)", "may/must", runs, tuple(fails)))

    runs, fails = 0, []
    for nx, ny in ((2, 2), (3, 2)):
        X, Y = list(range(nx)), list(range(100, 100 + ny))
        cells = [(x, y) for x in X for y in Y]
        pool_x, pool_y = _tree_pool(X), _tree_pool(Y)
        for assignment in itertools.product((0, 1, 2), repeat=len(cells)):
            R = {c for c, a in zip(cells, assignment) if a == 2}
            S = {c for c, a in zip(cells, assignment) if a >= 1}
            for t, r in itertools.product(pool_x, pool_y):
                runs += 1
                if rel(t, r, R) and not rel(t, r, S):
                    fails.append(f"monotonicity broke: R={sorted(R)} S={sorted(S)}")
    results.append(LawResult("e2 (relator monotone)", "may/must", runs, tuple(fails)))

    runs, fails = 0, []
    X, Y, Z = [0, 1], [10, 11], [20, 21]
    cells_r = [(x, y) for x in X for y in Y]
    cells_s = [(y, z) for y in Y for z in Z]
    pool_x, pool_y, pool_z = _tree_pool(X), _tree_pool(Y), _tree_pool(Z)
    for rbits in itertools.product((0, 1), repeat=4):
        R = {c for c, b in zip(cells_r, rbits) if b}
        for sbits in itertools.product((0, 1), repeat=4):
            S = {c for c, b in zip(cells_s, sbits) if b}
            RS = {(x, z) for (x, y) in R for (y2, z) in S if y == y2}
            for t, u, r in itertools.product(pool_x, pool_y, pool_z):
                runs += 1
                if rel(t, u, R) and rel(u, r, S) and not rel(t, r, RS):
                    fails.append(f"composition broke: R={sorted(R)} S={sorted(S)}")
    results.append(LawResult("e3 (relator composition)", "may/must", runs, tuple(fails)))

    runs, fails = 0, []
    X, Y, Z, W = [0, 1], [10, 11], [20, 21], [30, 31]
    pool_x, pool_y = _tree_pool(X), _tree_pool(Y)
    cells = [(z, w) for z in Z for w in W]
    for fbits in itertools.product(Z, repeat=2):
        f = dict(zip(X, fbits))
        for gbits in itertools.product(W, repeat=2):
            g = dict(zip(Y, gbits))
            for rbits in itertools.product((0, 1), repeat=4):
                R = {c for c, b in zip(cells, rbits) if b}
                pre = {(x, y) for x in X for y in Y if (f[x], g[y]) in R}
                for t, r in itertools.product(pool_x, pool_y):
                    runs += 1
                    lhs = rel(t, r, pre)
                    ft, gr = map_leaves(t, f.__getitem__), map_leaves(r, g.__getitem__)
                    rhs = _o_rel(ft, gr, R, mods)
                    if lhs != rhs:
                        fails.append(f"inverse image broke: f={f} g={g} R={sorted(R)}")
    results.append(LawResult("e4 (relator inverse image)", "may/must", runs, tuple(fails)))
    return results


def test_relator_tables_decide_every_instance_as_the_reference(monkeypatch):
    # every relator instance e1-e4 read is a bit of a membership mask that
    # `decide` made; each bit must match the table-free reference decision
    mods = bool_modalities(("nor",))
    made = []
    decide = spec._RelatorTables.decide

    def recording(self, rel):
        out = decide(self, rel)
        made.append((self.left, self.right, rel, out))
        return out

    monkeypatch.setattr(spec._RelatorTables, "decide", recording)
    assert all(r.passed for r in law_relator(max_carrier=2))
    cells = 0
    for left, right, rel, out in made:
        width = len(right.carrier)
        pairs = {
            (x, y)
            for a, x in enumerate(left.carrier)
            for b, y in enumerate(right.carrier)
            if rel >> a * width + b & 1
        }
        for i, t in enumerate(left.trees):
            for j, r in enumerate(right.trees):
                cells += 1
                got = bool(out >> i * len(right.trees) + j & 1)
                assert got == _o_rel(t, r, pairs, mods), (t, r, sorted(pairs))
    assert len(made) == 5 + 80 + 48 + 16 + 256 and cells == 25 * len(made) == 10125


def test_relator_runs_are_pinned():
    runs = [r.runs for r in law_relator(3)]
    assert runs == [345, 20250, 32000, 6400]
    assert [r.runs for r in law_relator(2)] == [25, 20250, 32000, 6400]


def _relator_failures_as_the_reference(monkeypatch, mode, rule):
    # law e with one nor rule swapped, at the default carrier size, the only
    # one with 8 x 8 valuation tables: the tables must report the reference's
    # failures, one per failing instance, in its order
    from cbpv_quant.modality import OpRule

    good = bool_modalities(("nor",))
    broken = dict(good)
    broken[mode] = replace(good[mode], rules={"nor": OpRule(rule)})
    monkeypatch.setattr(spec, "bool_modalities", lambda ops: broken)
    got = law_relator(max_carrier=3)
    want = _reference_law_relator(3, broken)
    assert [(r.law, r.runs) for r in got] == [(r.law, r.runs) for r in want]
    for g, w in zip(got, want):
        assert g.failures == w.failures, g.law
    return [bool(r.failures) for r in got]


def test_broken_must_fails_the_relator_laws_as_the_reference(monkeypatch):
    # a `must` that is not monotone in its second child: composition survives
    broke = _relator_failures_as_the_reference(monkeypatch, "must", lambda node, kids: kids[0] and not kids[1])
    assert broke == [True, True, False, True]


def test_antitone_may_fails_the_relator_laws_as_the_reference(monkeypatch):
    # a `may` that is antitone in its first child: composition survives
    broke = _relator_failures_as_the_reference(monkeypatch, "may", lambda node, kids: not kids[0] or kids[1])
    assert broke == [True, True, False, True]


def test_composition_counts_its_failing_instances_one_by_one(monkeypatch):
    # no nor rule breaks composition, so feed law e3 seeded random membership
    # masks and count its failures instance by instance, as the loop before
    # masks did
    import itertools
    import random

    rng = random.Random(5)
    made = []

    def members(self):
        cells = len(self.left.trees) * len(self.right.trees)
        out = [rng.getrandbits(cells) for _ in range(1 << len(self.left.carrier) * len(self.right.carrier))]
        made.append(out)
        return out

    monkeypatch.setattr(spec._RelatorTables, "members", members)
    e3 = law_relator(max_carrier=1)[2]
    in_r, in_s, in_rs = made[2:5]  # after law e2's two pool pairs

    def mask(rel, xs, ys):
        return sum(1 << 2 * xs.index(x) + ys.index(y) for x, y in rel)

    X, Y, Z = [0, 1], [10, 11], [20, 21]
    fails = []
    for rbits in itertools.product((0, 1), repeat=4):
        R = {c for c, b in zip(itertools.product(X, Y), rbits) if b}
        for sbits in itertools.product((0, 1), repeat=4):
            S = {c for c, b in zip(itertools.product(Y, Z), sbits) if b}
            RS = {(x, z) for (x, y) in R for (y2, z) in S if y == y2}
            r, s, rs = in_r[mask(R, X, Y)], in_s[mask(S, Y, Z)], in_rs[mask(RS, X, Z)]
            for t, u, v in itertools.product(range(5), repeat=3):
                if r >> 5 * t + u & 1 and s >> 5 * u + v & 1 and not rs >> 5 * t + v & 1:
                    fails.append(f"composition broke: R={sorted(R)} S={sorted(S)}")
    assert e3.runs == 32000 and len(fails) > 1000
    assert e3.failures == tuple(fails)


def test_relator_folds_every_pool_tree_on_every_call(monkeypatch):
    # no fold table outlives a law_relator call
    calls = []
    fold = spec.denote_limit
    monkeypatch.setattr(spec, "denote_limit", lambda *a: calls.append(1) or fold(*a))
    law_relator()
    first = len(calls)
    law_relator()
    assert first > 0 and len(calls) == 2 * first


# ---------------------------------------------------------------- law e as the obligation


def test_law_e_is_the_obligation_on_may_and_must():
    # with the relator on, the suite adds one line per Boolean modality: the
    # obligation on its combinators, named as law e; with it off, none
    from cbpv_quant.laws import run_law_suite

    params = LawParams(samples=30, seed=3)
    lines = run_law_suite([], params).results
    want = [law_monotone(q, params) for q in bool_modalities(("nor",)).values()]
    assert [r.line() for r in lines] == [
        "law e (relator laws: monotone combinators) [may]: pass (60 checks)",
        "law e (relator laws: monotone combinators) [must]: pass (60 checks)",
    ]
    assert [(r.subject, r.runs, r.failures) for r in lines] == [(r.subject, r.runs, r.failures) for r in want]
    assert run_law_suite([], params, include_relator=False).results == []


def test_relator_oracle_and_obligation_agree_on_all_32_boolean_variants(monkeypatch):
    # the nor rule of may, then of must, replaced by each of the 16 Boolean
    # binary functions: the exhaustive relator oracle passes, the obligation
    # passes (as the law suite reports it for law e), and the function is
    # monotone, all three or none; 6 monotone functions per modality pass
    import itertools

    from cbpv_quant import laws
    from cbpv_quant.modality import OpRule

    good = bool_modalities(("nor",))
    bits = (False, True)
    passing = 0
    for mode in ("may", "must"):
        for table in range(16):
            def fn(a, b, table=table):
                return bool(table >> 2 * a + b & 1)

            variant = dict(good)
            variant[mode] = replace(good[mode], rules={"nor": OpRule(lambda node, kids, fn=fn: fn(*kids))})
            monkeypatch.setattr(spec, "bool_modalities", lambda ops, variant=variant: variant)
            monkeypatch.setattr(laws, "bool_modalities", lambda ops, variant=variant: variant)
            oracle = all(r.passed for r in law_relator(3))
            obligation = law_monotone(variant[mode], LawParams(200, 0)).passed
            suite = laws.run_law_suite([], LawParams(200, 0)).passed
            monotone = all(
                fn(a, b) <= fn(c, d) for a, b, c, d in itertools.product(bits, repeat=4) if a <= c and b <= d
            )
            assert oracle == obligation == suite == monotone, (mode, table)
            passing += oracle
    assert passing == 12
