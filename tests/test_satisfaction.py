import random
from dataclasses import replace
from fractions import Fraction

import pytest

from cbpv_quant.config import RunConfig, build_runtime

from cbpv_quant.formulas import (
    AndF,
    ConstF,
    FormulaTypeError,
    MixF,
    Modal,
    NatEq,
    NegF,
    OrF,
    SigmaMuF,
    StepF,
    parse_formula,
)
from cbpv_quant.generators import TermGen, generate_program
from cbpv_quant.lattice import StateTableSpace
from cbpv_quant.parser import parse_program
from cbpv_quant.satisfaction import SatisfactionError, Satisfier, satisfies_exact
from cbpv_quant.suites import Pools, enumerate_basic_formulas
from cbpv_quant.syntax import numeral
from spec import parse_ctype, parse_vtype


def _sat(rt):
    return Satisfier(rt.signature, rt.modalities, rt.space, rt.width)


def test_nat_eq_on_values(prob_rt):
    sat = _sat(prob_rt)
    phi = NatEq(7)
    assert sat.satisfies(numeral(7), phi, 1).interval.lo == 1.0
    r = sat.satisfies(numeral(7), NatEq(8), 1)
    assert r.interval.lo == 0.0 and r.interval.exact


def test_fuel_must_be_positive(prob_rt):
    with pytest.raises(SatisfactionError, match="positive"):
        _sat(prob_rt).satisfies(numeral(7), NatEq(7), 0)


def test_coin_examples(prob_nondet_rt):
    rt = prob_nondet_rt
    sat = _sat(rt)
    coin = parse_program(
        "por(return 0, por(nor(return 0, return 1), return 1))", rt.signature
    )
    opt = sat.satisfies(coin, parse_formula("Eopt<{1}>", rt.signature, rt.space), 8)
    pes = sat.satisfies(coin, parse_formula("Epes<{1}>", rt.signature, rt.space), 8)
    assert opt.interval.exact and opt.interval.lo == 0.5
    assert pes.interval.exact and pes.interval.lo == 0.25


def test_cbn_cbv_distinction(prob_rt):
    # hand enumeration oracle: M1's tree has two thunk leaves, one satisfying
    # only <U>(0 . E<{0}>) and the other only <U>(0 . E<{1}>), so the
    # conjunction is 0 at both leaves and the expectation is 0.  M2's single
    # leaf applies the thunk to 0 and reaches por(return 0, return 1), giving
    # each conjunct 1/2, hence min(1/2, 1/2) = 1/2.
    rt = prob_rt
    sat = _sat(rt)
    m1 = parse_program(
        r"por(return thunk (\x:nat. return 0), return thunk (\x:nat. return 1))",
        rt.signature,
    )
    m2 = parse_program(
        r"return thunk (\x:nat. por(return 0, return 1))", rt.signature
    )
    phi = parse_formula(
        "E<and{[U](0 . E<{0}>), [U](0 . E<{1}>)}>", rt.signature, rt.space
    )
    r1 = sat.satisfies(m1, phi, 8)
    r2 = sat.satisfies(m2, phi, 8)
    assert r1.interval.exact and r1.interval.lo == 0.0
    assert r2.interval.exact and r2.interval.lo == 0.5


def test_diverging_term_yields_whole_interval(prob_rt):
    rt = prob_rt
    sat = _sat(rt)
    omega = parse_program(r"fix (\x:U(F nat). force x)", rt.signature)
    phi = Modal("E", ConstF(1.0))
    for fuel in (1, 4, 64):
        iv = sat.satisfies(omega, phi, fuel).interval
        assert (iv.lo, iv.hi, iv.exact) == (0.0, 1.0, False)


def test_intervals_narrow_with_fuel(prob_rt):
    rt = prob_rt
    sat = _sat(rt)
    geo = parse_program(r"fix (\f:U(F nat). por(return 0, force f))", rt.signature)
    phi = Modal("E", ConstF(1.0))
    prev = sat.satisfies(geo, phi, 2).interval
    for fuel in (4, 8, 16, 32):
        cur = sat.satisfies(geo, phi, fuel).interval
        assert rt.space.leq(prev.lo, cur.lo)
        assert rt.space.leq(cur.hi, prev.hi)
        prev = cur


def test_neg_involution_and_de_morgan(prob_nondet_rt):
    rt = prob_nondet_rt
    sat = _sat(rt)
    coin = parse_program("por(return 0, return 1)", rt.signature)
    phi = parse_formula("Eopt<{1}>", rt.signature, rt.space)
    iv = sat.satisfies(coin, phi, 8).interval
    ivnn = sat.satisfies(coin, NegF(NegF(phi)), 8).interval
    assert iv == ivnn
    members = (
        parse_formula("Eopt<{0}>", rt.signature, rt.space),
        parse_formula("Eopt<{1}>", rt.signature, rt.space),
    )
    lhs = sat.satisfies(coin, NegF(OrF(members)), 8).interval
    rhs = sat.satisfies(
        coin, AndF(tuple(NegF(m) for m in members)), 8
    ).interval
    assert lhs.exact and rhs.exact and lhs.lo == rhs.lo


def test_step_three_valued(prob_rt):
    rt = prob_rt
    sat = _sat(rt)
    coin = parse_program("por(return 0, return 1)", rt.signature)
    phi = Modal("E", NatEq(1))
    assert sat.satisfies(coin, StepF(phi, 0.5), 8).interval.lo == 1.0
    assert sat.satisfies(coin, StepF(phi, 0.75), 8).interval.hi == 0.0
    geo = parse_program(r"fix (\f:U(F nat). por(return 1, force f))", rt.signature)
    iv = sat.satisfies(geo, StepF(Modal("E", ConstF(1.0)), 1.0), 8).interval
    assert (iv.lo, iv.hi) == (0.0, 1.0)


def test_step_never_unknown_on_finite_programs(prob_rt):
    rt = prob_rt
    sat = _sat(rt)
    coin = parse_program("por(return 0, por(return 1, return 1))", rt.signature)
    for a in (0.0, 0.25, 0.5, 0.75, 1.0):
        iv = sat.satisfies(coin, StepF(Modal("E", NatEq(1)), a), 16).interval
        assert iv.exact


def test_finite_or_is_exact(prob_rt):
    rt = prob_rt
    sat = _sat(rt)
    coin = parse_program("por(return 0, return 1)", rt.signature)
    iv = sat.satisfies(coin, OrF((Modal("E", NatEq(0)), Modal("E", NatEq(1)))), 8).interval
    assert iv.exact and iv.lo == 0.5


def test_exactness_on_recursion_free_programs(prob_nondet_rt):
    rt = prob_nondet_rt
    sat = _sat(rt)
    progs = [
        "por(return 0, nor(return 1, return 2)) to x. return succ x",
        r"(\x:nat. por(return x, return 0)) 3",
    ]
    for text in progs:
        prog = parse_program(text, rt.signature)
        for f in ("Eopt<{1}>", "Epes<{3}>", "step(Eopt<{4}>, 0.5)"):
            phi = parse_formula(f, rt.signature, rt.space)
            assert sat.satisfies(prog, phi, 32).interval.exact


def test_satisfies_exact_retries(prob_nondet_rt):
    # the graph solve declines Eopt below a nondeterministic choice, so the
    # fuel doubles; the recursive branch is Unknown at every fuel: caps out
    rt = prob_nondet_rt
    sat = _sat(rt)
    loop = parse_program(r"fix (\f:U(F nat). nor(return 0, force f))", rt.signature)
    res = satisfies_exact(sat, loop, Modal("Eopt", NatEq(1)), 2, fuel_cap=64)
    assert not res.interval.exact
    assert res.fuel_used == 64


def test_satisfies_exact_solves_geometric_to_zero(prob_rt):
    # geometric only ever returns 0; its graph closes, and the solve gives an
    # exact 0 at the fuel given, where the doubling capped out
    rt = prob_rt
    geo = parse_program(r"fix (\f:U(F nat). por(return 0, force f))", rt.signature)
    res = satisfies_exact(_sat(rt), geo, Modal("E", NatEq(1)), 2, fuel_cap=64)
    assert res.interval.exact and res.interval.lo == 0 and res.fuel_used == 2


# ---------------------------------------------------------------- derived formulas


def hoare(pre, post):
    """A Hoare-style formula: top iff execution from any state in `pre`
    terminates in a state from `post`."""
    return StepF(Modal("G", ConstF(post)), pre)


def test_hoare_triples(store_rt):
    rt = store_rt
    sat = _sat(rt)
    space = rt.space
    prog = parse_program("update[l](1, return ())", rt.signature)
    post = frozenset(s for s in space.all_states if s[0] == 1)
    # single update node: G<const post> computes {s | s[l:=1] in post} = S
    assert sat.satisfies(prog, hoare(space.top, post), 8).interval.lo == space.top
    wrong = frozenset(s for s in space.all_states if s[0] == 0)
    assert sat.satisfies(prog, hoare(space.top, wrong), 8).interval.lo == space.bot
    empty_pre = hoare(space.bot, wrong)
    assert sat.satisfies(prog, empty_pre, 8).interval.lo == space.top


def test_sigma_mu_point_mass(prob_store_rt):
    rt = prob_store_rt
    sat = _sat(rt)
    space = rt.space
    prog = parse_program("return ()", rt.signature)
    table = tuple(1.0 if i == 0 else 0.0 for i in range(len(space.all_states)))
    phi = SigmaMuF(table, ConstF(table))
    got = sat.satisfies(prog, phi, 4).interval
    # point mass at state 0 picks the body's entry there, at every state
    assert got.exact and got.lo == tuple(1.0 for _ in space.all_states)


def test_sigma_mu_uniform_average(prob_store_rt):
    rt = prob_store_rt
    sat = _sat(rt)
    space = rt.space
    prog = parse_program("return ()", rt.signature)
    body_table = (1.0, 0.0)
    phi = SigmaMuF((0.5, 0.5), ConstF(body_table))
    got = sat.satisfies(prog, phi, 4).interval
    assert got.exact and got.lo == (0.5, 0.5)


def test_sigma_mu_clips_at_one(prob_store_rt):
    rt = prob_store_rt
    sat = _sat(rt)
    space = rt.space
    prog = parse_program("return ()", rt.signature)
    phi = SigmaMuF((2.0, 0.0), ConstF(space.top))
    got = sat.satisfies(prog, phi, 4).interval
    assert got.exact and got.lo == (1.0, 1.0)


def test_scheduler_mix_values(prob_nondet_rt):
    rt = prob_nondet_rt
    sat = _sat(rt)
    one = ConstF(1.0)
    zero = ConstF(0.0)
    prog = parse_program("return 0", rt.signature)
    assert sat.satisfies(prog, MixF(one, one), 4).interval.lo == 1.0
    assert sat.satisfies(prog, MixF(one, zero), 4).interval.lo == 0.5


def scheduler_mix_grid(phi_opt, phi_pess, steps):
    """The countable-disjunction encoding of the scheduler mix, cut to a grid
    of thresholds; its lower bound approaches the native mix."""
    grid = [k / steps for k in range(steps + 1)]
    return OrF(
        tuple(
            AndF((StepF(phi_opt, a), StepF(phi_pess, b), ConstF((a + b) / 2.0)))
            for a in grid
            for b in grid
        )
    )


def test_scheduler_grid_oracle(prob_nondet_rt):
    # the countable-disjunction encoding enumerated on a 1/64 grid agrees
    # with the native mix up to one grid step
    rt = prob_nondet_rt
    sat = _sat(rt)
    space = rt.space
    prog = parse_program("nor(por(return 0, return 1), return 1)", rt.signature)
    opt = parse_formula("Eopt<{1}>", rt.signature, rt.space)
    pes = parse_formula("Epes<{1}>", rt.signature, rt.space)
    native = sat.satisfies(prog, MixF(opt, pes), 16).interval
    grid = sat.satisfies(prog, scheduler_mix_grid(opt, pes, steps=64), 16).interval
    assert native.exact
    assert space.leq(grid.lo, native.lo)
    assert native.lo - grid.lo <= 1 / 64 + 1e-12


def test_derived_formula_validations(prob_rt, store_rt, prob_store_rt):
    # the satisfier's formula check refuses each derived formula outside its
    # truth space
    def refuse(rt, phi, match):
        prog = parse_program("return ()", rt.signature)
        with pytest.raises(FormulaTypeError, match=match):
            _sat(rt).satisfies(prog, phi, 4)

    refuse(prob_rt, hoare(frozenset(), frozenset()), "outside the truth space")
    refuse(prob_rt, SigmaMuF((0.5,), ConstF(0.5)), "state-table")
    refuse(prob_store_rt, SigmaMuF((0.5,), ConstF(prob_store_rt.space.top)), "weight vector")
    refuse(prob_store_rt, SigmaMuF((-1.0, 0.5), ConstF(prob_store_rt.space.top)), "non-negative")
    top = ConstF(store_rt.space.top)
    refuse(store_rt, MixF(top, top), "unit-interval")


def test_nested_modal_intervals_stay_sound(prob_rt):
    # outer expectation over thunk leaves whose inner satisfaction is itself
    # only bounded: every narrower-fuel interval must contain the limit
    rt = prob_rt
    sat = _sat(rt)
    prog = parse_program(
        r"por(return thunk (fix (\f:U(F nat). por(return 1, force f))),"
        r" return thunk (por(return 0, return 1)))",
        rt.signature,
    )
    phi = parse_formula("E<[U]E<{1}>>", rt.signature, rt.space)
    limit = sat.satisfies(prog, phi, 256).interval
    for fuel in (2, 4, 8, 16, 64):
        iv = sat.satisfies(prog, phi, fuel).interval
        assert rt.space.leq(iv.lo, limit.lo)
        assert rt.space.leq(limit.hi, iv.hi)


@pytest.mark.parametrize("signame", ["prob+nondet", "cost+nondet", "store+nondet"])
def test_interval_nesting_on_generated_programs(signame):
    # fuel n <= m implies the fuel-m interval sits inside the fuel-n one,
    # for every suite formula on seeded random programs
    import random

    from cbpv_quant.config import RunConfig, build_runtime
    from cbpv_quant.generators import generate_program
    from cbpv_quant.suites import Pools, enumerate_basic_formulas
    from spec import parse_ctype

    rt = build_runtime(RunConfig(signature=signame, locations=("l",), value_bound=3))
    sat = _sat(rt)
    suite = enumerate_basic_formulas(
        parse_ctype("F nat"), 2, Pools(numerals=(0, 1)), rt.modalities
    )
    rng = random.Random(41)
    for _ in range(25):
        prog = generate_program(rng, rt.signature, depth=3)
        for phi in suite.formulas:
            prev = None
            for fuel in (2, 6, 18):
                iv = sat.satisfies(prog, phi, fuel).interval
                if prev is not None:
                    assert rt.space.leq(prev.lo, iv.lo)
                    assert rt.space.leq(iv.hi, prev.hi)
                prev = iv


def test_satisfier_builds_one_lookup_child_per_storable_value():
    from cbpv_quant.config import RunConfig, build_runtime

    rt = build_runtime(RunConfig(signature="store+nondet", locations=("l",), value_bound=2))
    sat = _sat(rt)
    prog = parse_program("nor(lookup[l](x. return x), return 0)", rt.signature)
    lookup = sat.tree(prog, 8).children[0]
    assert lookup.op == "lookup[l]"
    assert isinstance(lookup.children, tuple) and len(lookup.children) == 2
    phi = parse_formula("Gopt<{1}>", rt.signature, rt.space)
    assert sat.satisfies(prog, phi, 8).interval.lo == frozenset({(1,)})


def test_error_lift_through_lookup_family(store_rt):
    from cbpv_quant.config import RunConfig, build_runtime

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
    prog = parse_program("lookup[l](x. raise[e]())", rt.signature)
    phi = parse_formula("Gf<const top>", rt.signature, rt.space)
    iv = sat.satisfies(prog, phi, 8).interval
    # the raise value is consulted at every branch, so the lookup passes it through
    assert iv.exact and iv.lo == frozenset({(1,)})


def _count_trees(monkeypatch):
    import cbpv_quant.satisfaction as satisfaction

    built = []
    real = satisfaction.eval_tree

    def counting(term, fuel, *args):
        built.append((term, fuel))
        return real(term, fuel, *args)

    monkeypatch.setattr(satisfaction, "eval_tree", counting)
    return built


def test_compare_builds_one_tree_per_term(prob_nondet_rt, monkeypatch):
    from cbpv_quant.equivalence import compare
    from cbpv_quant.suites import Pools, enumerate_basic_formulas
    from spec import parse_ctype

    rt = prob_nondet_rt
    suite = enumerate_basic_formulas(
        parse_ctype("F nat"), 3, Pools(numerals=(0, 1, 2)), rt.modalities
    )
    assert len(suite.formulas) > 2
    assert all(isinstance(phi, Modal) for phi in suite.formulas)
    left = parse_program("por(return 0, nor(return 1, return 2))", rt.signature)
    right = parse_program("nor(por(return 0, return 1), return 2)", rt.signature)
    built = _count_trees(monkeypatch)
    compare(left, right, suite, 8, _sat(rt))
    assert built == [(left, 8), (right, 8)]


@pytest.mark.parametrize("text", ["F nat", "nat -> F nat"])
def test_compare_folds_once_per_term_and_modality(prob_nondet_rt, monkeypatch, text):
    # a suite's modal formulas of one modality on one subterm fold as one
    # walk of power(q, k): one fold per term, argument and modality, not
    # one per formula
    from collections import Counter

    from cbpv_quant.equivalence import compare

    rt = prob_nondet_rt
    ty = parse_ctype(text)
    suite = enumerate_basic_formulas(ty, 4, Pools(numerals=(0, 1, 2)), rt.modalities)
    rng = random.Random(5)
    left, right = (generate_program(rng, rt.signature, 3, ty) for _ in range(2))
    assert left != right
    folds = _count_folds(monkeypatch)
    compare(left, right, suite, 8, _sat(rt))
    args = 3 if text.startswith("nat") else 1
    k = len(suite.formulas) // (args * len(rt.modalities))
    assert k > 2
    assert Counter(folds) == {f"{q}^{k}": 2 * args for q in rt.modalities}


def test_tree_memo_keeps_one_fuel(prob_rt, monkeypatch):
    rt = prob_rt
    prog = parse_program("por(return 0, return 1)", rt.signature)
    phi = parse_formula("E<{1}>", rt.signature, rt.space)
    built = _count_trees(monkeypatch)
    sat = _sat(rt)
    for fuel in (4, 4):
        sat.satisfies(prog, phi, fuel)
    assert len(built) == 1
    built.clear()
    sat = _sat(rt)
    for fuel in (4, 16, 4):
        sat.satisfies(prog, phi, fuel)
    assert [fuel for _, fuel in built] == [4, 16, 4]


@pytest.mark.parametrize("signame", ["prob+nondet", "cost+nondet", "store+nondet", "prob+store"])
def test_shared_satisfier_matches_fresh_ones(signame):
    # one Satisfier reused across programs, formulas and interleaved fuels
    # gives exactly the results of a fresh Satisfier per call
    import random

    from cbpv_quant.config import RunConfig, build_runtime
    from cbpv_quant.generators import generate_program
    from cbpv_quant.suites import Pools, enumerate_basic_formulas
    from spec import parse_ctype

    rt = build_runtime(RunConfig(signature=signame, locations=("l",), value_bound=3))
    suite = enumerate_basic_formulas(
        parse_ctype("F nat"), 3, Pools(numerals=(0, 1, 2)), rt.modalities
    )
    shared = _sat(rt)
    rng = random.Random(53)
    for _ in range(15):
        prog = generate_program(rng, rt.signature, depth=3)
        for phi in suite.formulas:
            for fuel in (4, 16, 4):
                assert shared.satisfies(prog, phi, fuel) == _sat(rt).satisfies(prog, phi, fuel)
            reused = satisfies_exact(shared, prog, phi, 4, fuel_cap=64)
            fresh = satisfies_exact(_sat(rt), prog, phi, 4, fuel_cap=64)
            assert reused == fresh  # SatResult equality includes fuel_used


def _count_folds(monkeypatch):
    import cbpv_quant.satisfaction as satisfaction

    folds = []
    real = satisfaction.evaluate_interval

    def counting(q, tree, *args, **kwargs):
        folds.append(q.name)
        return real(q, tree, *args, **kwargs)

    monkeypatch.setattr(satisfaction, "evaluate_interval", counting)
    return folds


def test_modal_memo_folds_once_per_term_and_fuel(prob_rt, monkeypatch):
    rt = prob_rt
    prog = parse_program("por(return 1, por(return 0, return 1))", rt.signature)
    modal = parse_formula("E<{1}>", rt.signature, rt.space)
    family = [modal, StepF(modal, 0.25), StepF(modal, 0.5), StepF(modal, 1.0), NegF(modal)]
    folds = _count_folds(monkeypatch)
    sat = _sat(rt)
    at8 = [sat.satisfies(prog, phi, 8) for phi in family]
    assert folds == ["E"]
    assert [r.interval.lo for r in at8] == [0.75, 1.0, 1.0, 0.0, 0.25]
    sat.satisfies(prog, modal, 16)
    assert folds == ["E", "E"]
    # the fuel-8 intervals went with the fuel-8 trees
    assert [sat.satisfies(prog, phi, 8) for phi in family] == at8
    assert folds == ["E", "E", "E"]


def test_modal_memo_checks_every_formula(prob_rt):
    # a memoised interval never skips the type check of a later formula
    from cbpv_quant.formulas import FormulaTypeError, InjF

    rt = prob_rt
    sat = _sat(rt)
    prog = parse_program("return 1", rt.signature)
    sat.satisfies(prog, Modal("E", NatEq(1)), 8)
    with pytest.raises(FormulaTypeError):
        sat.satisfies(prog, Modal("E", InjF("1", NatEq(1))), 8)


@pytest.mark.parametrize("signame", ["prob+nondet", "cost+nondet", "store+nondet", "prob+store"])
def test_modal_memo_reports_like_fresh_satisfiers(signame):
    # the shared Satisfier answers step and negation closures of suite
    # formulas from its memo, and prints exactly what a fresh one computes
    import random

    from cbpv_quant.config import RunConfig, build_runtime
    from cbpv_quant.generators import generate_program
    from cbpv_quant.suites import Pools, enumerate_basic_formulas
    from spec import parse_ctype

    rt = build_runtime(RunConfig(signature=signame, locations=("l",), value_bound=3))
    suite = enumerate_basic_formulas(
        parse_ctype("F nat"), 3, Pools(numerals=(0, 1, 2)), rt.modalities
    )
    formulas = []
    for phi in suite.formulas:
        formulas += [phi, NegF(phi), StepF(phi, rt.space.top), StepF(phi, rt.space.bot)]
    shared = _sat(rt)
    rng = random.Random(61)
    for _ in range(8):
        prog = generate_program(rng, rt.signature, depth=3)
        for fuel in (4, 16):
            for phi in formulas:
                assert repr(shared.satisfies(prog, phi, fuel)) == repr(_sat(rt).satisfies(prog, phi, fuel))


def test_modal_memo_shares_equal_formulas(prob_nondet_rt):
    # ConstF(1) and the parsed ConstF(1.0) are equal, so they are one memo
    # key: a shared Satisfier reports whichever form it measured first, where
    # fresh ones report each formula's own
    rt = prob_nondet_rt
    prog = parse_program("return 0", rt.signature)
    built = Modal("Eopt", ConstF(1))
    parsed = parse_formula("Eopt<const 1>", rt.signature, rt.space)
    assert parsed == built and parsed.body.value == 1.0
    assert repr(_sat(rt).satisfies(prog, built, 8).interval) == "Interval(lo=1, hi=1)"
    assert repr(_sat(rt).satisfies(prog, parsed, 8).interval) == "Interval(lo=1.0, hi=1.0)"
    sat = _sat(rt)
    sat.satisfies(prog, parsed, 8)
    assert repr(sat.satisfies(prog, built, 8).interval) == "Interval(lo=1.0, hi=1.0)"
    sat = _sat(rt)
    sat.satisfies(prog, built, 8)
    assert repr(sat.satisfies(prog, parsed, 8).interval) == "Interval(lo=1, hi=1)"
    # a program whose fold averages reports the float either way
    coin = parse_program("por(return 0, return 1)", rt.signature)
    assert repr(sat.satisfies(coin, built, 8).interval) == "Interval(lo=1.0, hi=1.0)"


def test_unhashable_formula_is_evaluated_unmemoised(prob_rt):
    rt = prob_rt
    prog = parse_program("por(return 0, return 1)", rt.signature)
    listed = Modal("E", OrF([NatEq(0), NatEq(1)]))
    sat = _sat(rt)
    for _ in range(2):
        assert sat.satisfies(prog, listed, 8).interval.lo == 1.0


# ---- satisfies_all: a whole suite on one term, one fold per modality

BATCH_SIGNATURES = (
    "prob",
    "prob+nondet",
    "cost",
    "cost+nondet",
    "store",
    "store+nondet",
    "prob+store",
    "prob+nondet+error",
    "cost+error",
    "store+nondet+error",
)


def _unhashable(phi):
    """phi with its modality's body b replaced by or[b, b] over a list, so
    the modal formula cannot be a memo key."""
    if isinstance(phi, Modal):
        return Modal(phi.modality, OrF([phi.body, phi.body]))
    return replace(phi, body=_unhashable(phi.body))


def _mixed(formulas, space):
    """A suite's formulas with duplicates, an unhashable modal formula and
    non-modal formulas over them, for each kind of formula `_eval` reads."""
    first, last = formulas[0], formulas[-1]
    out = [
        *formulas,
        *formulas[:2],
        _unhashable(first),
        NegF(first),
        StepF(last, space.top),
        AndF((first, last)),
        OrF((last, ConstF(space.bot))),
        ConstF(space.top),
    ]
    if space.name == "unit":
        out.append(MixF(first, last))
    if isinstance(space, StateTableSpace):
        n = len(space.all_states)
        out.append(SigmaMuF((1.0 / n,) * n, first))
    return out


@pytest.mark.parametrize("signame", BATCH_SIGNATURES)
def test_satisfies_all_matches_fresh_satisfiers(signame):
    rt = build_runtime(RunConfig(signature=signame))
    rng = random.Random(BATCH_SIGNATURES.index(signame))
    pools = Pools(numerals=(0, 1, 2))
    cases = []
    for text in ("F nat", "nat -> F nat", "F (U (F nat))", "F (nat * U F nat)"):
        ty = parse_ctype(text)
        cases += [(ty, generate_program(rng, rt.signature, 3, ty)) for _ in range(2)]
    gen = TermGen(rng, rt.signature)
    for text in ("U F nat", "U F nat * U(nat -> F nat)"):
        ty = parse_vtype(text)
        cases += [(ty, gen.val({}, ty, 3)) for _ in range(3)]
    checked = 0
    for ty, term in cases:
        for size in (3, 4, 5):
            formulas = enumerate_basic_formulas(ty, size, pools, rt.modalities).formulas
            if not formulas:
                continue
            formulas = _mixed(formulas, rt.space)
            sat = _sat(rt)
            for fuel in (1, 4, 16, 120):
                fresh = [_sat(rt).satisfies(term, phi, fuel).interval for phi in formulas]
                assert sat.satisfies_all(term, formulas, fuel) == fresh
                checked += len(formulas)
    assert checked > 2000


def test_satisfies_all_checks_fuel_and_types(prob_rt):
    sat = _sat(prob_rt)
    prog = parse_program("return 1", prob_rt.signature)
    with pytest.raises(SatisfactionError, match="positive"):
        sat.satisfies_all(prog, [Modal("E", NatEq(1))], 0)
    with pytest.raises(FormulaTypeError):
        sat.satisfies_all(prog, [Modal("E", NatEq(1)), NatEq(1)], 8)
    assert sat.satisfies_all(prog, [], 8) == []


# ---- certified means certified: float rounding breaks both today

SIX_SEVENTHS = (
    r"fix (\f:U(F nat). por(return 0, por(return 0, "
    r"por(fix (\g:U(F nat). force g), force f))))"
)


def _assert_certified(iv, truth):
    assert Fraction(iv.lo) <= truth <= Fraction(iv.hi)
    if iv.exact:
        assert Fraction(iv.lo) == Fraction(iv.hi) == truth


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_six_sevenths_lower_bound_stays_below_the_truth(prob_rt):
    term = parse_program(SIX_SEVENTHS, prob_rt.signature)
    phi = parse_formula("E<const 1>", prob_rt.signature, prob_rt.space)
    _assert_certified(_sat(prob_rt).satisfies(term, phi, 200).interval, Fraction(6, 7))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_deep_fair_choice_is_not_exact_one(prob_rt):
    text = "return 0"
    for _ in range(60):
        text = f"por(return 1, {text})"
    term = parse_program(text, prob_rt.signature)
    phi = parse_formula("E<{1}>", prob_rt.signature, prob_rt.space)
    _assert_certified(_sat(prob_rt).satisfies(term, phi, 200).interval, 1 - Fraction(1, 2**60))
