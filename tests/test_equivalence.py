import hashlib
import random

import pytest

from cbpv_quant import cli, equivalence
from cbpv_quant.config import RunConfig, build_runtime
from cbpv_quant.equivalence import (
    Distinguished,
    NoDistinctionFound,
    RefinesUpTo,
    compare,
    find_distinguishing_formula,
)
from cbpv_quant.formulas import Modal, NatEq, NegF, StepF, ThunkF, print_formula
from cbpv_quant.generators import generate_program
from cbpv_quant.lattice import BoolSpace, UnitIntervalSpace
from cbpv_quant.modality import bool_modalities
from cbpv_quant.parser import parse_program
from cbpv_quant.satisfaction import Satisfier
from cbpv_quant.suites import Pools, enumerate_basic_formulas
from cbpv_quant.syntax import CbpvError, Force, Thunk, numeral
from cbpv_quant.trees import Node, eta
from simulation import (
    Relation,
    check_simulation_bounded,
    indicator_families,
    relator_check,
    right_set,
)
from spec import basic_formulas_by_sort, formula_size, parse_ctype, parse_vtype


def _sat(rt):
    return Satisfier(rt.signature, rt.modalities, rt.space, rt.width)


POOLS = Pools(numerals=(0, 1, 7))


# ---------------------------------------------------------------- suites


def test_suite_at_nat_is_numeral_tests(prob_rt):
    suite = enumerate_basic_formulas(parse_ctype("F nat").val, 1, POOLS, prob_rt.modalities)
    assert list(suite.formulas) == [NatEq(0), NatEq(1), NatEq(7)]


def test_suite_at_producer_includes_cost_variants(cost_nondet_rt):
    suite = enumerate_basic_formulas(
        parse_ctype("F nat"), 2, POOLS, cost_nondet_rt.modalities
    )
    assert Modal("Copt", NatEq(7)) in suite.formulas
    assert Modal("Cpes", NatEq(7)) in suite.formulas


def test_suite_at_thunk_type_is_thunk_rooted(cost_nondet_rt):
    ty = parse_ctype("F nat")
    from cbpv_quant.syntax import ThunkType

    suite = enumerate_basic_formulas(ThunkType(ty), 3, POOLS, cost_nondet_rt.modalities)
    assert suite.formulas
    assert all(isinstance(f, ThunkF) for f in suite.formulas)


def test_suite_deterministic(cost_nondet_rt):
    a = enumerate_basic_formulas(parse_ctype("F nat"), 4, POOLS, cost_nondet_rt.modalities)
    b = enumerate_basic_formulas(parse_ctype("F nat"), 4, POOLS, cost_nondet_rt.modalities)
    assert a.formulas == b.formulas


def test_levels_match_the_sorted_reference():
    # each level holds the reference's formulas of that exact size, in its
    # order; pools repeat numerals and the types nest every constructor
    vtypes = ["nat", "unit", "U F nat", "U (nat -> F nat)", "U F U F nat"]
    ctypes = [
        "F nat",
        "F unit",
        "F (nat + unit)",
        "F (nat * unit)",
        "F sum {x: nat, y: U F unit}",
        "nat -> F nat",
        "prod {a: F nat, b: unit -> F unit}",
    ]
    types = [parse_vtype(t) for t in vtypes] + [parse_ctype(t) for t in ctypes]
    pools = [POOLS, Pools((3, 1, 3, 0)), Pools((2, 2)), Pools(())]
    signatures = [
        base + nondet + error
        for base in ("prob", "store", "prob+store", "cost")
        for nondet in ("", "+nondet")
        for error in ("", "+error")
    ]
    for signature in signatures:
        modalities = build_runtime(RunConfig(signature=signature)).modalities
        for ty in types:
            for p in pools:
                suite = enumerate_basic_formulas(ty, 5, p, modalities)
                ref = basic_formulas_by_sort(ty, 5, p, modalities)
                assert suite.size == 5
                for k, level in enumerate(suite.levels, 1):
                    assert list(level) == [f for f in ref if formula_size(f) == k], (signature, ty, p, k)
                    assert all(formula_size(f) == k for f in level)
    # from size 5 a level pairs more than one split of its size, but two
    # non-empty splits first meet at nat's level 7 (1 + 5 and 3 + 3), which
    # sits under thunk and modality at size 9
    modalities = build_runtime(RunConfig(signature="prob+nondet")).modalities
    ty = parse_vtype("U F nat")
    ref = basic_formulas_by_sort(ty, 9, POOLS, modalities)
    assert enumerate_basic_formulas(ty, 9, POOLS, modalities).formulas == tuple(ref)


def test_suite_size_counts_empty_levels(prob_rt):
    # a basic formula at nat is a numeral test, so levels 2 and 3 are empty,
    # yet the suite size, which Bounds reports, stays the requested 3
    suite = enumerate_basic_formulas(parse_vtype("nat"), 3, POOLS, prob_rt.modalities)
    assert suite.levels == ((NatEq(0), NatEq(1), NatEq(7)), (), ())
    assert suite.size == 3


# ---------------------------------------------------------------- compare


@pytest.fixture(scope="module")
def cost_terms(cost_nondet_rt):
    sig = cost_nondet_rt.signature
    M = parse_program("cost[1](return 7)", sig)
    N = parse_program("nor(return 7, cost[3](return 7))", sig)
    D = parse_program("nor(cost[1](return 7), nor(return 7, cost[3](return 7)))", sig)
    return M, N, D


def test_cost_inequivalence_both_ways(cost_nondet_rt, cost_terms):
    rt = cost_nondet_rt
    sat = _sat(rt)
    M, N, D = cost_terms
    suite = enumerate_basic_formulas(parse_ctype("F nat"), 4, POOLS, rt.modalities)
    v = compare(M, N, suite, 16, sat)
    assert isinstance(v, Distinguished)
    assert print_formula(v.formula) == "Copt<{7}>"
    assert (v.left.lo, v.right.lo) == (1.0, 0.0)
    w = compare(N, M, suite, 16, sat)
    assert isinstance(w, Distinguished)
    assert print_formula(w.formula) == "Cpes<{7}>"
    assert (w.left.lo, w.right.lo) == (3.0, 1.0)


def test_nor_of_both_collapses(cost_nondet_rt, cost_terms):
    rt = cost_nondet_rt
    sat = _sat(rt)
    M, N, D = cost_terms
    suite = enumerate_basic_formulas(parse_ctype("F nat"), 4, POOLS, rt.modalities)
    assert isinstance(compare(D, N, suite, 16, sat), NoDistinctionFound)
    assert isinstance(compare(N, D, suite, 16, sat), NoDistinctionFound)


def test_compare_reflexive(cost_nondet_rt, cost_terms):
    rt = cost_nondet_rt
    sat = _sat(rt)
    M, _, _ = cost_terms
    suite = enumerate_basic_formulas(parse_ctype("F nat"), 3, POOLS, rt.modalities)
    assert isinstance(compare(M, M, suite, 16, sat, direction="leq"), RefinesUpTo)
    assert isinstance(compare(M, M, suite, 16, sat), NoDistinctionFound)


def test_distinguished_is_final_under_more_resources(cost_nondet_rt, cost_terms):
    rt = cost_nondet_rt
    sat = _sat(rt)
    M, N, _ = cost_terms
    for size, fuel in ((4, 16), (5, 32), (5, 64)):
        suite = enumerate_basic_formulas(parse_ctype("F nat"), size, POOLS, rt.modalities)
        assert isinstance(compare(M, N, suite, fuel, sat), Distinguished)


def test_pre_char_thunk_agrees_with_force(cost_nondet_rt, cost_terms):
    # comparing thunk values at U(F nat) agrees with comparing the forced bodies
    rt = cost_nondet_rt
    sat = _sat(rt)
    M, N, _ = cost_terms
    from cbpv_quant.syntax import ThunkType

    ty = parse_ctype("F nat")
    tsuite = enumerate_basic_formulas(ThunkType(ty), 5, POOLS, rt.modalities)
    csuite = enumerate_basic_formulas(ty, 4, POOLS, rt.modalities)

    def verdict_kind(v):
        return (type(v).__name__, getattr(v, "direction", None))

    for a, b in ((M, N), (N, M), (M, M)):
        tv = compare(Thunk(a), Thunk(b), tsuite, 16, sat)
        cv = compare(Force(Thunk(a)), Force(Thunk(b)), csuite, 16, sat)
        assert verdict_kind(tv) == verdict_kind(cv)


def test_find_distinguishing_smallest_witness(cost_nondet_rt, cost_terms):
    rt = cost_nondet_rt
    sat = _sat(rt)
    M, N, _ = cost_terms
    got = find_distinguishing_formula(M, N, 4, sat, POOLS)
    assert got is not None
    phi, direction = got
    assert print_formula(phi) == "Copt<{7}>"
    assert direction == "right_not_below_left"


def test_find_distinguishing_absent_on_identical(cost_nondet_rt, cost_terms, monkeypatch):
    rt = cost_nondet_rt
    sat = _sat(rt)
    M, _, _ = cost_terms
    calls = []

    def counted(*args):
        calls.append(args[1])
        return enumerate_basic_formulas(*args)

    # the search enumerates once, up to its maximum size, and walks the levels
    monkeypatch.setattr(equivalence, "enumerate_basic_formulas", counted)
    assert find_distinguishing_formula(M, M, 3, sat, POOLS) is None
    assert calls == [3]


def test_find_distinguishing_cbn_cbv(prob_rt):
    rt = prob_rt
    sat = _sat(rt)
    m1 = parse_program(
        r"por(return thunk (\x:nat. return 0), return thunk (\x:nat. return 1))",
        rt.signature,
    )
    m2 = parse_program(r"return thunk (\x:nat. por(return 0, return 1))", rt.signature)
    pools = Pools(numerals=(0, 1))
    got = find_distinguishing_formula(m1, m2, 10, sat, pools)
    assert got is not None
    phi, direction = got
    # the witness is a modal formula over a conjunctive body: 0 on one side, 1/2 on the other
    li = sat.satisfies(m1, phi, 16).interval
    ri = sat.satisfies(m2, phi, 16).interval
    assert {li.lo, ri.lo} == {0.0, 0.5}
    assert "and{" in print_formula(phi)


def _program_pairs(rt, seed, ty, n=3):
    """n seeded pairs of distinct programs at type ty, and one program
    paired with itself."""
    rng = random.Random(seed)
    progs = [generate_program(rng, rt.signature, 3, parse_ctype(ty)) for _ in range(n + 1)]
    return list(zip(progs, progs[1:])) + [(progs[0], progs[0])]


def _witness(space, li, ri):
    return not space.leq(li.lo, ri.hi) or not space.leq(ri.lo, li.hi)


@pytest.mark.parametrize("name", ["prob+nondet", "cost+nondet", "store+nondet", "prob+store"])
def test_closures_of_a_non_witness_are_no_witnesses(name):
    # negation is antitone and step(phi, a) monotone in phi's value, so a
    # formula that certifies no order violation has no closure that does
    rt = build_runtime(RunConfig(signature=name))
    space = rt.space
    thresholds = (*cli._default_constants(rt), space.bot, space.top)
    suite = enumerate_basic_formulas(parse_ctype("F nat"), 3, POOLS, rt.modalities)
    checked = 0
    for left, right in _program_pairs(rt, 1, "F nat") + _program_pairs(rt, 2, "F nat"):
        for fuel in (4, 16):
            sat = _sat(rt)
            for phi in suite.formulas:
                li = sat.satisfies(left, phi, fuel).interval
                ri = sat.satisfies(right, phi, fuel).interval
                if _witness(space, li, ri):
                    continue
                for closure in (NegF(phi), *(StepF(phi, a) for a in thresholds)):
                    cl = sat.satisfies(left, closure, fuel).interval
                    cr = sat.satisfies(right, closure, fuel).interval
                    assert not _witness(space, cl, cr), print_formula(closure)
                    checked += 1
    assert checked > 100


DIGEST_SIGNATURES = (
    "prob",
    "prob+nondet",
    "cost",
    "cost+nondet",
    "store",
    "store+nondet",
    "prob+store",
    "prob+nondet+error",
)


def test_search_witnesses_digest():
    h = hashlib.sha256()
    count = 0
    for name in DIGEST_SIGNATURES:
        rt = build_runtime(RunConfig(signature=name))
        # the step thresholds the search once closed each basic formula
        # under; the digest was recorded with them
        pools = Pools(numerals=(0, 1, 2), constants=cli._default_constants(rt))
        for seed in range(6):
            for ty in ("F nat", "nat -> F nat"):
                for left, right in _program_pairs(rt, seed, ty):
                    for schedule in ((4, 16), (2,)):
                        try:
                            got = find_distinguishing_formula(
                                left, right, 3, _sat(rt), pools, schedule
                            )
                        except (CbpvError, RecursionError) as e:
                            out = type(e).__name__
                        else:
                            out = "none" if got is None else f"{print_formula(got[0])} {got[1]}"
                        h.update(out.encode() + b"\n")
                        count += 1
    # recorded on the earlier search, which also tried every basic formula's
    # negation and step closures: the first witness must stay the same
    assert (count, h.hexdigest()) == (
        768,
        "624683fb14e032cac97aa0a5c2152050c97b80cf4a09fd78e85c743303ebc7b9",
    )


# ---------------------------------------------------------------- right sets


def test_right_set_identity():
    space = UnitIntervalSpace()
    h = {"a": 0.25, "b": 0.75}
    rs = right_set([("a", "a"), ("b", "b")], h, space)
    assert rs("a") == 0.25 and rs("b") == 0.75


def test_right_set_empty_relation_is_bottom():
    space = UnitIntervalSpace()
    rs = right_set([], {"a": 1.0}, space)
    assert rs("anything") == 0.0


def test_right_set_joins():
    space = UnitIntervalSpace()
    rs = right_set([("a", "b"), ("a2", "b")], {"a": 0.25, "a2": 0.75}, space)
    assert rs("b") == 0.75


def test_right_set_monotone():
    space = UnitIntervalSpace()
    small = [("a", "b")]
    big = [("a", "b"), ("a2", "b")]
    h_lo = {"a": 0.25, "a2": 0.25}
    h_hi = {"a": 0.5, "a2": 0.6}
    rs1 = right_set(small, h_lo, space)
    rs2 = right_set(big, h_hi, space)
    assert space.leq(rs1("b"), rs2("b"))


# ---------------------------------------------------------------- relator


BOOL = BoolSpace()
MAY = {"may": bool_modalities(("nor",))["may"]}


def _brute_bool_relator(t, r, pairs):
    # independent oracle: quantify h over all subsets of the left carrier
    import itertools

    from cbpv_quant.modality import denote_limit
    from cbpv_quant.trees import leaves, map_leaves

    lefts = sorted({a for a, _ in pairs} | set(leaves(t)))
    for bits in itertools.product((False, True), repeat=len(lefts)):
        h = dict(zip(lefts, bits))
        rh = right_set(pairs, h, BOOL)
        for q in MAY.values():
            lv = denote_limit(q, map_leaves(t, lambda x: h[x]))
            rv = denote_limit(q, map_leaves(r, rh))
            if lv and not rv:
                return False
    return True


def test_relator_reflexive_never_refutes(prob_nondet_rt):
    rng = random.Random(0)
    t = Node("nor", (eta("x"), eta("y")))
    fam = indicator_families(["x", "y"], BOOL, rng)
    out = relator_check(t, t, [("x", "x"), ("y", "y")], MAY, fam, BOOL)
    assert out.status != "refuted"


def test_relator_eta_pairs_hold_in_bool():
    rng = random.Random(0)
    fam = indicator_families(["x"], BOOL, rng)
    out = relator_check(eta("x"), eta("y"), [("x", "y")], MAY, fam, BOOL)
    assert out.status == "holds"


def test_relator_unrelated_eta_refuted_matches_brute_force():
    rng = random.Random(0)
    fam = indicator_families(["x"], BOOL, rng)
    out = relator_check(eta("x"), eta("y"), [], MAY, fam, BOOL)
    assert out.refuted
    assert _brute_bool_relator(eta("x"), eta("y"), []) is False


# ---------------------------------------------------------------- bounded simulation


def test_simulation_identity_pair(cost_nondet_rt):
    rt = cost_nondet_rt
    sat = _sat(rt)
    rel = Relation(rt.signature)
    rel.add(parse_program("return 7", rt.signature), parse_program("return 7", rt.signature))
    rel.add(numeral(7), numeral(7))
    report = check_simulation_bounded(rel, 8, POOLS, sat, random.Random(0))
    assert not report.refuted
    assert "pool-bounded" in report.summary()


def test_simulation_distinct_returns_refuted(cost_nondet_rt):
    rt = cost_nondet_rt
    sat = _sat(rt)
    rel = Relation(rt.signature)
    rel.add(parse_program("return 7", rt.signature), parse_program("return 8", rt.signature))
    report = check_simulation_bounded(rel, 8, POOLS, sat, random.Random(0))
    assert report.refuted
    failing = [r for r in report.results if r.status == "refuted"]
    assert failing[0].clause == 7


def test_simulation_cost_pair_refuted_via_relator(cost_nondet_rt, cost_terms):
    # neither order of the mutually incomparable cost pair is a simulation;
    # (M, N) falls to the pessimistic modality (1 vs 3), the reverse order to
    # the optimistic one (0 vs 1)
    rt = cost_nondet_rt
    sat = _sat(rt)
    M, N, _ = cost_terms
    for left, right, witness in ((M, N, "Cpes"), (N, M, "Copt")):
        rel = Relation(rt.signature)
        rel.add(left, right)
        rel.add(numeral(7), numeral(7))
        report = check_simulation_bounded(rel, 16, POOLS, sat, random.Random(0))
        assert report.refuted
        failing = [r for r in report.results if r.status == "refuted"]
        assert failing[0].clause == 7
        assert witness in failing[0].note


def test_simulation_nat_clause(cost_nondet_rt):
    rt = cost_nondet_rt
    sat = _sat(rt)
    rel = Relation(rt.signature)
    rel.add(numeral(3), numeral(4))
    report = check_simulation_bounded(rel, 4, POOLS, sat)
    assert report.refuted
    assert report.results[0].clause == 1


def test_distinguished_direction_antisymmetric(cost_nondet_rt, cost_terms):
    # the witness found for (M, N) distinguishes (N, M) in the mirrored direction
    rt = cost_nondet_rt
    sat = _sat(rt)
    M, N, _ = cost_terms
    suite = enumerate_basic_formulas(parse_ctype("F nat"), 4, POOLS, rt.modalities)
    v = compare(M, N, suite, 16, sat)
    assert isinstance(v, Distinguished) and v.direction == "right_not_below_left"
    # right_not_below_left for (M, N) says N fails below M, so checking
    # N below M directly must surface the same witness
    w = compare(N, M, suite, 16, sat, direction="leq")
    assert isinstance(w, Distinguished)
    assert w.formula == v.formula
    assert w.direction == "left_not_below_right"


def test_compare_rejects_mismatched_types(cost_nondet_rt, cost_terms):
    from cbpv_quant.equivalence import EquivalenceError

    rt = cost_nondet_rt
    sat = _sat(rt)
    M, _, _ = cost_terms
    suite = enumerate_basic_formulas(parse_ctype("F nat"), 2, POOLS, rt.modalities)
    thunked = parse_program("return thunk (return 7)", rt.signature)
    with pytest.raises(EquivalenceError, match="suite type"):
        compare(M, thunked, suite, 8, sat)


def test_compare_rejects_an_unknown_direction_before_evaluating(cost_nondet_rt, cost_terms):
    from cbpv_quant.equivalence import EquivalenceError

    rt = cost_nondet_rt
    sat = _sat(rt)
    M, N, _ = cost_terms
    suite = enumerate_basic_formulas(parse_ctype("F nat"), 2, POOLS, rt.modalities)
    with pytest.raises(EquivalenceError, match="direction"):
        compare(M, N, suite, 8, sat, direction="bogus")
    assert not sat._trees
