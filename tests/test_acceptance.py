"""Acceptance suite: one test per criterion, each printing a pass line with
the measured numbers.  Tolerances are pinned here, not configurable."""

import random
import time

from cbpv_quant.config import RunConfig, build_runtime
from cbpv_quant.equivalence import Distinguished, NoDistinctionFound, compare
from cbpv_quant.formulas import ConstF, Modal, parse_formula, print_formula
from cbpv_quant.generators import generate_program
from cbpv_quant.laws import (
    LawParams,
    law_congruence,
    law_monotone,
    law_relator,
    law_unit,
    standard_modalities,
)
from cbpv_quant.machine import Config, eval_tree
from cbpv_quant.parser import parse_program
from cbpv_quant.satisfaction import Satisfier
from cbpv_quant.suites import Pools, enumerate_basic_formulas
from cbpv_quant.typecheck import EMPTY, infer_type
from spec import (
    contains_unknown,
    decomposability_by_copies,
    law_leaf_monotone,
    law_scott_chain,
    law_sequential,
    parse_ctype,
    tree_leq,
)
from stacks import settle, stack_apply


def _sat(rt):
    return Satisfier(rt.signature, rt.modalities, rt.space, rt.width)


def test_criterion_1_coin_tree():
    rt = build_runtime(RunConfig(signature="prob+nondet"))
    sat = _sat(rt)
    started = time.perf_counter()
    coin = parse_program(
        "por(return 0, por(nor(return 0, return 1), return 1))", rt.signature
    )
    opt = sat.satisfies(coin, parse_formula("Eopt<{1}>", rt.signature, rt.space), 8)
    pes = sat.satisfies(coin, parse_formula("Epes<{1}>", rt.signature, rt.space), 8)
    elapsed = time.perf_counter() - started
    assert opt.interval.exact and abs(opt.interval.lo - 0.5) <= 1e-12
    assert pes.interval.exact and abs(pes.interval.lo - 0.25) <= 1e-12
    assert elapsed < 0.1
    print(
        f"criterion 1: PASS  coin Eopt={opt.interval.lo} Epes={pes.interval.lo} "
        f"exact at fuel 8 in {elapsed * 1000:.1f} ms"
    )


def test_criterion_2_copier_tree():
    rt = build_runtime(RunConfig(signature="store+nondet", locations=("l", "r"), value_bound=3))
    sat = _sat(rt)
    copier = parse_program(
        "nor(lookup[l](x. update[r](x, return x)), lookup[r](x. update[l](x, return x)))",
        rt.signature,
    )
    opt = sat.satisfies(copier, parse_formula("Gopt<{0}>", rt.signature, rt.space), 16)
    pes = sat.satisfies(copier, parse_formula("Gpes<{0}>", rt.signature, rt.space), 16)
    states = rt.space.all_states
    want_opt = frozenset(s for s in states if s[0] == 0 or s[1] == 0)
    want_pes = frozenset(s for s in states if s[0] == 0 and s[1] == 0)
    assert opt.interval.exact and opt.interval.lo == want_opt
    assert pes.interval.exact and pes.interval.lo == want_pes
    assert (len(want_opt), len(want_pes), len(states)) == (5, 1, 9)
    print("criterion 2: PASS  copier Gopt=5/9 states, Gpes=1/9 states, exact at fuel 16")


def test_criterion_3_cost_inequivalence():
    rt = build_runtime(RunConfig(signature="cost+nondet"))
    sat = _sat(rt)
    M = parse_program("cost[1](return 7)", rt.signature)
    N = parse_program("nor(return 7, cost[3](return 7))", rt.signature)
    D = parse_program(
        "nor(cost[1](return 7), nor(return 7, cost[3](return 7)))", rt.signature
    )
    suite = enumerate_basic_formulas(
        parse_ctype("F nat"), 4, Pools(numerals=(0, 1, 7)), rt.modalities
    )
    v = compare(M, N, suite, 16, sat)
    assert isinstance(v, Distinguished)
    assert print_formula(v.formula) == "Copt<{7}>"
    assert (v.left.lo, v.right.lo) == (1.0, 0.0)
    w = compare(N, M, suite, 16, sat)
    assert isinstance(w, Distinguished)
    assert print_formula(w.formula) == "Cpes<{7}>"
    assert (w.left.lo, w.right.lo) == (3.0, 1.0)
    assert isinstance(compare(D, N, suite, 16, sat), NoDistinctionFound)
    assert isinstance(compare(N, D, suite, 16, sat), NoDistinctionFound)
    print(
        "criterion 3: PASS  Copt<{7}> values (1, 0); reverse Cpes<{7}> values (3, 1); "
        "nor(M,N) ~ N undistinguished at suite 4, fuel 16"
    )


def test_criterion_4_error_store_observation():
    rt = build_runtime(
        RunConfig(
            signature="store+error",
            locations=("l",),
            value_bound=2,
            errors=("e",),
            error_valuations=(("G", "e", "states{l=1}"),),
        )
    )
    sat = _sat(rt)
    phi = parse_formula("Gf<const top>", rt.signature, rt.space)
    good = sat.satisfies(parse_program("update[l](1, raise[e]())", rt.signature), phi, 8)
    bad = sat.satisfies(parse_program("update[l](0, raise[e]())", rt.signature), phi, 8)
    assert good.interval.exact and good.interval.lo == rt.space.top
    assert bad.interval.exact and bad.interval.lo == rt.space.bot
    print("criterion 4: PASS  Gf observes the store through the raise: top vs bot, exact")


def test_criterion_5_cbn_cbv_distinction():
    # oracle, by hand: M1's tree is por over two thunk leaves; forcing the
    # first and applying 0 gives return 0 (conjunct values 1 and 0), the
    # second gives return 1 (values 0 and 1); each conjunction is 0, so the
    # expectation is (0+0)/2 = 0.  M2 has the single leaf
    # thunk(\x. por(return 0, return 1)); both conjuncts evaluate the same
    # coin, each with expectation 1/2, so the conjunction is min(1/2,1/2) and
    # the outer expectation is 1/2.
    rt = build_runtime(RunConfig(signature="prob"))
    sat = _sat(rt)
    m1 = parse_program(
        r"por(return thunk (\x:nat. return 0), return thunk (\x:nat. return 1))",
        rt.signature,
    )
    m2 = parse_program(r"return thunk (\x:nat. por(return 0, return 1))", rt.signature)
    phi = parse_formula(
        "E<and{[U](0 . E<{0}>), [U](0 . E<{1}>)}>", rt.signature, rt.space
    )
    r1 = sat.satisfies(m1, phi, 16)
    r2 = sat.satisfies(m2, phi, 16)
    assert r1.interval.exact and r1.interval.lo == 0.0
    assert r2.interval.exact and r2.interval.lo == 0.5
    print("criterion 5: PASS  thunked-por programs give 0 vs 1/2 on the conjunctive formula")


def test_criterion_6_geometric_termination():
    rt = build_runtime(RunConfig(signature="prob"))
    sat = _sat(rt)
    geo = parse_program(r"fix (\f:U(F nat). por(return 0, force f))", rt.signature)
    phi = Modal("E", ConstF(1.0))
    res = sat.satisfies(geo, phi, 25)  # five observed coin flips
    assert res.interval.lo >= 1 - 2 ** -5
    assert res.interval.hi == 1.0
    assert not res.interval.exact
    print(
        f"criterion 6: PASS  termination bounds [{res.interval.lo}, {res.interval.hi}] "
        f"at fuel 25, never exact"
    )


def test_criterion_7_law_suites():
    started = time.perf_counter()
    mods = standard_modalities()
    assert list(mods) == ["E", "Eopt", "Epes", "C", "Copt", "Cpes", "G", "Gopt", "Gpes", "EG"]
    params = LawParams(samples=1000, seed=0, depth=4)
    for name, q in mods.items():
        # the obligation the suite checks, and the tree-level samplers of
        # laws a-c and f it stands for
        for law in (
            law_monotone,
            law_sequential,
            law_unit,
            law_leaf_monotone,
            law_scott_chain,
            decomposability_by_copies,
        ):
            result = law(q, params)
            assert result.passed, result.line()
    for result in law_relator(max_carrier=3):
        assert result.passed, result.line()
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"criterion 7: PASS  laws a-f and the monotone-combinator obligation, "
        f"zero failures over 10 modalities, 1000 samples each, in {elapsed:.1f} s"
    )


def test_criterion_8_congruence_spot_check():
    rt = build_runtime(RunConfig(signature="cost+nondet"))
    result = law_congruence(rt, trials=200, seed=0)
    assert result.passed, result.line()
    assert result.runs > 0
    print(
        f"criterion 8: PASS  {result.runs} context-wrapped equivalent pairs, "
        f"zero distinguished verdicts"
    )


def test_criterion_9_machine_invariants():
    rt = build_runtime(
        RunConfig(signature="prob+store+nondet+error", locations=("l",), value_bound=3)
    )
    sig = rt.signature
    rng = random.Random(0)
    fuels = (3, 6, 11)
    checked_steps = 0
    for i in range(1000):
        prog = generate_program(rng, sig, depth=3)
        ty = infer_type(EMPTY, prog, sig)
        trees = [eval_tree(prog, n, sig, width=4) for n in fuels]
        for a, b in zip(trees, trees[1:]):
            assert tree_leq(a, b), f"monotone approximation failed on program {i}"
        for j, t in enumerate(trees):
            if not contains_unknown(t):
                for later in trees[j + 1 :]:
                    assert later == t, f"fuel soundness failed on program {i}"
                break
        for c in settle(Config((), prog), 12)[1:]:
            assert infer_type(EMPTY, stack_apply(c.stack, c.focus), sig) == ty, (
                f"subject reduction failed on program {i}"
            )
            checked_steps += 1
    print(
        f"criterion 9: PASS  1000 generated programs: monotone approximation, "
        f"fuel soundness, and subject reduction over {checked_steps} machine steps"
    )
