"""The least fixed point over a term's configuration graph, as
`satisfies_exact` uses it (`Satisfier.solve`, `machine.explore`,
`modality.least_fixed_point`): inside the fuel interval at every fuel, equal
to the fold on recursion-free programs, equal to the closed forms of the
finite-state loops, and today's fuel doubling wherever it declines."""

import math
import random
from fractions import Fraction

import pytest

from cbpv_quant import generators
from cbpv_quant.config import RunConfig, build_runtime
from cbpv_quant.formulas import Modal, parse_formula
from cbpv_quant.generators import generate_program
from cbpv_quant.machine import eval_tree, explore
from cbpv_quant.modality import least_fixed_point
from cbpv_quant.parser import parse_program
from cbpv_quant.satisfaction import SatResult, Satisfier, satisfies_exact
from cbpv_quant.suites import Pools, enumerate_basic_formulas
from cbpv_quant.syntax import CaseNat, Return, SeqTo, Var, print_com
from spec import denote_limit, parse_ctype

SIGNATURES = [
    base + nondet + error
    for base in ("prob", "store", "prob+store", "cost")
    for nondet in ("", "+nondet")
    for error in ("", "+error")
]

GEOMETRIC = r"fix (\f:U(F nat). por(return 0, force f))"
D = r"(fix (\g:U(F nat). force g))"
SIX_SEVENTHS = rf"fix (\f:U(F nat). por(return 0, por(return 0, por({D}, force f))))"
COST_LOOP = r"fix (\f:U(F nat). cost[1](force f))"
STORE_LOOP = (
    r"fix (\f:U(F nat). lookup[l](x. case x of {zero -> update[l](1, force f) "
    r"| succ y -> lookup[r](z. case z of {zero -> return 0 | succ w -> update[r](0, force f)})}))"
)
GROWING = r"(fix (\f:U(nat -> F nat). \x:nat. por(return x, (force f) (succ x)))) 0"


def _runtime(signame, truth_space="auto"):
    return build_runtime(RunConfig(signature=signame, locations=("l",), value_bound=2, truth_space=truth_space))


def _sat(rt):
    return Satisfier(rt.signature, rt.modalities, rt.space, rt.width)


def _programs(rt, seed, n):
    """Seeded programs at F nat, each also diverging silently wherever it
    returns 0, which puts silent cycles below its effect nodes."""
    rng = random.Random(seed)
    loop = parse_program(D, rt.signature)
    for _ in range(n):
        prog = generate_program(rng, rt.signature, depth=3)
        yield prog
        yield SeqTo(prog, "x", CaseNat(Var("x"), loop, "y", Return(Var("y"))))


def _suite(rt):
    return enumerate_basic_formulas(parse_ctype("F nat"), 2, Pools(numerals=(0, 1)), rt.modalities).formulas


def _exactly(x):
    """A unit or cost value as a Fraction, so bounds compare with no rounding."""
    if isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x):
        return Fraction(x)
    return x


RUNTIMES = [(s, "auto") for s in SIGNATURES] + [("prob", "bool"), ("prob+nondet", "bool")]


@pytest.mark.parametrize("signame, truth_space", RUNTIMES)
def test_solved_value_lies_in_the_fuel_interval_at_every_fuel(monkeypatch, signame, truth_space):
    rt = _runtime(signame, truth_space)
    space = rt.space
    sat = _sat(rt)
    suite = _suite(rt)
    progs = list(_programs(rt, 3, 3))
    # and programs where a computation is a fixpoint one time in four
    monkeypatch.setattr(generators, "FIX_WEIGHT", 0.25)
    progs += _programs(rt, 5, 3)
    for prog in progs:
        solved = {phi: sat.solve(prog, phi, 4096) for phi in suite}
        for fuel in range(1, 65):
            for phi, v in solved.items():
                if v is None:
                    continue
                iv = sat.satisfies(prog, phi, fuel).interval
                assert v.exact
                assert space.leq(_exactly(iv.lo), v.lo) and space.leq(v.hi, _exactly(iv.hi)), (prog, phi, fuel)


@pytest.mark.parametrize("signame, truth_space", RUNTIMES)
def test_solved_value_is_the_fold_on_recursion_free_programs(signame, truth_space):
    rt = _runtime(signame, truth_space)
    sat = _sat(rt)
    solved = 0
    for prog in _programs(rt, 11, 6):
        if "fix" in print_com(prog):
            continue
        tree = eval_tree(prog, 256, rt.signature, rt.width)
        for phi in _suite(rt):
            v = sat.solve(prog, phi, 4096)
            if not isinstance(phi, Modal) or v is None:
                continue
            q = rt.modalities[phi.modality]
            want = denote_limit(q, tree, lambda leaf: sat.satisfies(leaf.value, phi.body, 1).interval.lo)
            assert v.lo == v.hi == want
            solved += 1
    # EG, and Eopt/Epes below a nondeterministic choice, are left to the doubling
    assert solved or "store" in signame and "prob" in signame


@pytest.mark.parametrize(
    "signame, width, src, formula, truth",
    [
        ("prob", 3, GEOMETRIC, "E<const 1>", Fraction(1)),
        ("prob", 3, GEOMETRIC, "E<{1}>", Fraction(0)),
        ("prob", 3, SIX_SEVENTHS, "E<const 1>", Fraction(6, 7)),
        ("prob", 3, SIX_SEVENTHS, "E<{0}>", Fraction(6, 7)),
        ("cost", 3, COST_LOOP, "C<const 0>", math.inf),
        ("store", 2, STORE_LOOP, "G<{0}>", "all four states"),
    ],
)
def test_satisfies_exact_meets_the_closed_forms(signame, width, src, formula, truth):
    rt = build_runtime(RunConfig(signature=signame, locations=("l", "r"), value_bound=width))
    if truth == "all four states":
        truth = rt.space.top
        assert len(truth) == 4
    prog = parse_program(src, rt.signature)
    phi = parse_formula(formula, rt.signature, rt.space)
    res = satisfies_exact(_sat(rt), prog, phi, 50)
    assert res == SatResult(res.interval, 50)
    assert res.interval.exact and res.interval.lo == truth
    if isinstance(truth, Fraction):
        assert isinstance(res.interval.lo, Fraction)


def _doubling(satisfier, term, phi, fuel, fuel_cap=4096):
    """`satisfies_exact` before the graph solve: doubled fuel until exact."""
    while True:
        res = satisfier.satisfies(term, phi, fuel)
        if res.interval.exact or fuel >= fuel_cap:
            return res
        fuel = min(fuel * 2, fuel_cap)


@pytest.mark.parametrize("signame", ["prob+nondet", "prob+nondet+error", "prob+store", "prob+store+nondet+error"])
def test_declined_solves_fall_back_to_the_doubling_loop(signame):
    rt = _runtime(signame)
    declined = 0
    for prog in _programs(rt, 7, 5):
        for phi in _suite(rt):
            if _sat(rt).solve(prog, phi, 4096) is not None:
                continue
            declined += 1
            for fuel, cap in ((1, 64), (3, 40)):
                assert satisfies_exact(_sat(rt), prog, phi, fuel, cap) == _doubling(_sat(rt), prog, phi, fuel, cap)
    assert declined


def test_open_graph_falls_back_to_the_doubling_loop(prob_rt):
    # the argument grows at every unrolling, so no configuration repeats
    prog = parse_program(GROWING, prob_rt.signature)
    phi = parse_formula("E<{0}>", prob_rt.signature, prob_rt.space)
    assert not explore(prog, prob_rt.signature, prob_rt.width, 4096).closed
    assert _sat(prob_rt).solve(prog, phi, 4096) is None
    assert satisfies_exact(_sat(prob_rt), prog, phi, 2, 64) == _doubling(_sat(prob_rt), prog, phi, 2, 64)


def test_nested_modal_is_solved_on_each_leaf(prob_rt):
    rt = prob_rt
    prog = parse_program(
        rf"por(return thunk ({GEOMETRIC}), return thunk ({SIX_SEVENTHS}))", rt.signature
    )
    phi = parse_formula("E<[U]E<{0}>>", rt.signature, rt.space)
    iv = satisfies_exact(_sat(rt), prog, phi, 4).interval
    assert iv.exact and iv.lo == (1 + Fraction(6, 7)) / 2


def test_silent_cycle_is_bot_and_unsolvable_combinators_decline(prob_nondet_rt):
    rt = prob_nondet_rt
    omega = explore(parse_program(D, rt.signature), rt.signature, rt.width)
    assert omega.closed and omega.root.end is None
    at_one = lambda leaf: (1, 1)  # noqa: E731
    assert least_fixed_point(rt.modalities["Eopt"], omega, at_one).lo == 0
    coin = explore(parse_program("nor(return 0, return 1)", rt.signature), rt.signature, rt.width)
    assert least_fixed_point(rt.modalities["Eopt"], coin, at_one) is None
    fair = explore(parse_program("por(return 0, return 1)", rt.signature), rt.signature, rt.width)
    assert least_fixed_point(rt.modalities["Eopt"], fair, at_one).lo == 1
