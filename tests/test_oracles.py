"""Whole-pipeline oracles: run programs under a DIRECT stateful semantics
(a real store, explicit scheduler branching, explicit path probabilities) and
compare with the effect-tree + modality route.  The two paths share no code
beyond the machine stepper and `continuations`."""

import math
import random
from fractions import Fraction

import pytest

from cbpv_quant.config import RunConfig, build_runtime
from cbpv_quant.formulas import Modal, NatEq
from cbpv_quant.generators import generate_program
from cbpv_quant.machine import Config, continuations
from cbpv_quant.satisfaction import Satisfier
from cbpv_quant.syntax import Return, numeral_value
from stacks import settle


def _sat(rt):
    return Satisfier(rt.signature, rt.modalities, rt.space, rt.width)


class Diverged(Exception):
    pass


def settled(config, max_steps):
    """The configuration the silent run from `config` settles on, an effect
    node or a returned value, and the step budget left below it; raises
    Diverged when the run takes more than `max_steps` steps."""
    if max_steps <= 0:
        raise Diverged
    run = settle(config, max_steps + 1)
    if len(run) > max_steps + 1:
        raise Diverged
    return run[-1], max_steps - len(run)


def stateful_runs(config, state, sig, store, max_steps=400):
    """All scheduler resolutions of a store+nondet program from one starting
    state: a list of (returned numeral, end state); raises on fuel exhaustion
    so callers can skip unsettled samples."""
    config, budget = settled(config, max_steps)
    m = config.focus
    if isinstance(m, Return):
        return [(numeral_value(m.value), state)]
    conts = continuations(config, sig, store.value_bound)
    if m.op.startswith("lookup["):
        loc = store.index(m.op[len("lookup[") : -1])
        return stateful_runs(conts[state[loc]], state, sig, store, budget)
    if m.op.startswith("update["):
        loc = store.index(m.op[len("update[") : -1])
        new_state = store.set_loc(state, loc, numeral_value(m.param))
        return stateful_runs(conts[0], new_state, sig, store, budget)
    if m.op == "nor":
        runs = []
        for cont in conts:
            runs.extend(stateful_runs(cont, state, sig, store, budget))
        return runs
    raise AssertionError(f"unexpected operator {m.op}")


@pytest.mark.parametrize("seed", range(40))
def test_store_modalities_match_stateful_simulation(seed):
    rt = build_runtime(RunConfig(signature="store+nondet", locations=("l", "r"), value_bound=3))
    sat = _sat(rt)
    rng = random.Random(seed)
    prog = generate_program(rng, rt.signature, depth=3)
    k = rng.randrange(3)
    phi_opt = Modal("Gopt", NatEq(k))
    phi_pes = Modal("Gpes", NatEq(k))
    ropt = sat.satisfies(prog, phi_opt, 64)
    rpes = sat.satisfies(prog, phi_pes, 64)
    if not (ropt.interval.exact and rpes.interval.exact):
        pytest.skip("sample not settled at this fuel")
    may, must = [], []
    for s in rt.space.all_states:
        try:
            runs = stateful_runs(Config((), prog), s, rt.signature, rt.store)
        except Diverged:
            pytest.skip("sample not settled under direct simulation")
        if any(v == k for v, _ in runs):
            may.append(s)
        if runs and all(v == k for v, _ in runs):
            must.append(s)
    assert ropt.interval.lo == frozenset(may)
    assert rpes.interval.lo == frozenset(must)


def prob_outcomes(config, sig, weight, max_steps=600):
    """Exact path distribution of a por-only program: list of (numeral,
    probability) with Fraction weights."""
    config, budget = settled(config, max_steps)
    m = config.focus
    if isinstance(m, Return):
        return [(numeral_value(m.value), weight)]
    assert m.op == "por"
    runs = []
    for cont in continuations(config, sig, 0):  # width 0: no lookups here
        runs.extend(prob_outcomes(cont, sig, weight / 2, budget))
    return runs


@pytest.mark.parametrize("seed", range(40))
def test_expectation_matches_path_distribution(seed):
    rt = build_runtime(RunConfig(signature="prob"))
    sat = _sat(rt)
    rng = random.Random(1000 + seed)
    prog = generate_program(rng, rt.signature, depth=3)
    k = rng.randrange(3)
    res = sat.satisfies(prog, Modal("E", NatEq(k)), 64)
    if not res.interval.exact:
        pytest.skip("sample not settled at this fuel")
    try:
        runs = prob_outcomes(Config((), prog), rt.signature, Fraction(1))
    except Diverged:
        pytest.skip("sample not settled under direct simulation")
    expected = sum(w for v, w in runs if v == k)
    assert abs(res.interval.lo - float(expected)) <= 1e-12


def cost_ranges(config, sig, acc, max_steps=600):
    """All (returned numeral, accumulated cost) runs over nor/cost programs."""
    config, budget = settled(config, max_steps)
    m = config.focus
    if isinstance(m, Return):
        return [(numeral_value(m.value), acc)]
    conts = continuations(config, sig, 0)  # width 0: no lookups here
    if m.op == "cost":
        return cost_ranges(conts[0], sig, acc + numeral_value(m.param), budget)
    assert m.op == "nor"
    runs = []
    for cont in conts:
        runs.extend(cost_ranges(cont, sig, acc, budget))
    return runs


@pytest.mark.parametrize("seed", range(40))
def test_cost_modalities_match_best_and_worst_schedules(seed):
    rt = build_runtime(RunConfig(signature="cost+nondet"))
    sat = _sat(rt)
    rng = random.Random(2000 + seed)
    prog = generate_program(rng, rt.signature, depth=3)
    k = rng.randrange(3)
    ropt = sat.satisfies(prog, Modal("Copt", NatEq(k)), 64)
    rpes = sat.satisfies(prog, Modal("Cpes", NatEq(k)), 64)
    if not (ropt.interval.exact and rpes.interval.exact):
        pytest.skip("sample not settled at this fuel")
    try:
        runs = cost_ranges(Config((), prog), rt.signature, 0)
    except Diverged:
        pytest.skip("sample not settled under direct simulation")
    # a leaf contributes its accumulated cost when it returns k, else bottom
    prices = [acc if v == k else math.inf for v, acc in runs]
    assert ropt.interval.lo == min(prices)
    assert rpes.interval.lo == max(prices)


def test_copier_against_stateful_simulation():
    # the worked two-cell example, checked against the direct semantics
    from cbpv_quant.parser import parse_program

    rt = build_runtime(RunConfig(signature="store+nondet", locations=("l", "r"), value_bound=3))
    sat = _sat(rt)
    prog = parse_program(
        "nor(lookup[l](x. update[r](x, return x)), lookup[r](x. update[l](x, return x)))",
        rt.signature,
    )
    may, must = [], []
    for s in rt.space.all_states:
        runs = stateful_runs(Config((), prog), s, rt.signature, rt.store)
        if any(v == 0 for v, _ in runs):
            may.append(s)
        if all(v == 0 for v, _ in runs):
            must.append(s)
    got_opt = sat.satisfies(prog, Modal("Gopt", NatEq(0)), 16).interval.lo
    got_pes = sat.satisfies(prog, Modal("Gpes", NatEq(0)), 16).interval.lo
    assert got_opt == frozenset(may) and len(may) == 5
    assert got_pes == frozenset(must) and len(must) == 1


def prob_store_outcomes(config, state, weight, sig, store, max_steps=600):
    """Path distribution of a por/lookup/update program from one state:
    list of (returned numeral, end state, probability)."""
    config, budget = settled(config, max_steps)
    m = config.focus
    if isinstance(m, Return):
        return [(numeral_value(m.value), state, weight)]
    conts = continuations(config, sig, store.value_bound)
    if m.op == "por":
        runs = []
        for cont in conts:
            runs.extend(prob_store_outcomes(cont, state, weight / 2, sig, store, budget))
        return runs
    if m.op.startswith("lookup["):
        loc = store.index(m.op[len("lookup[") : -1])
        return prob_store_outcomes(conts[state[loc]], state, weight, sig, store, budget)
    assert m.op.startswith("update[")
    new_state = store.set_loc(state, store.index(m.op[len("update[") : -1]), numeral_value(m.param))
    return prob_store_outcomes(conts[0], new_state, weight, sig, store, budget)


@pytest.mark.parametrize("seed", range(40))
def test_state_indexed_probability_matches_simulation(seed):
    rt = build_runtime(RunConfig(signature="prob+store", locations=("l",), value_bound=2))
    sat = _sat(rt)
    rng = random.Random(3000 + seed)
    prog = generate_program(rng, rt.signature, depth=3)
    k = rng.randrange(3)
    res = sat.satisfies(prog, Modal("EG", NatEq(k)), 64)
    if not res.interval.exact:
        pytest.skip("sample not settled at this fuel")
    expected = []
    for s in rt.space.all_states:
        try:
            runs = prob_store_outcomes(Config((), prog), s, Fraction(1), rt.signature, rt.store)
        except Diverged:
            pytest.skip("sample not settled under direct simulation")
        expected.append(float(sum(w for v, _, w in runs if v == k)))
    assert all(abs(a - b) <= 1e-12 for a, b in zip(res.interval.lo, expected))
