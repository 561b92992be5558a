import hashlib
import random

import pytest

from cbpv_quant.config import RunConfig, build_runtime, build_signature
from cbpv_quant.generators import generate_program
from cbpv_quant.machine import (
    ArgFrame,
    Config,
    ProjFrame,
    StuckError,
    ToFrame,
    continuations,
    eval_tree,
    machine_step,
    reduce,
)
from cbpv_quant.parser import parse_program
from cbpv_quant.syntax import (
    Apply,
    CaseNat,
    EffOp,
    Fix,
    Force,
    Lambda,
    NAT,
    Return,
    SeqTo,
    Thunk,
    Var,
    numeral,
    numeral_value,
    print_com,
)
from cbpv_quant.trees import Leaf, Node, Unknown
from spec import contains_unknown, tree_leq
from stacks import settle

PROB = build_signature(RunConfig(signature="prob"))
STORE = build_signature(RunConfig(signature="store", locations=("l",)))
FULL = build_signature(RunConfig(signature="prob+store+nondet+error"))


def test_reduce_force_thunk():
    m = Return(numeral(1))
    assert reduce(Force(Thunk(m))) == m


def test_reduce_fix_unfolds():
    f = Lambda("x", NAT, Return(Var("x")))
    assert reduce(Fix(f)) == Apply(f, Thunk(Fix(f)))


def test_reduce_terminal_is_none():
    assert reduce(Return(numeral(0))) is None


def test_machine_beta_steps():
    prog = parse_program(r"(\x:nat. return x) 3", PROB)
    c = Config((), prog)
    c1 = machine_step(c)  # push the argument
    c2 = machine_step(c1)  # pop into the lambda
    assert c2 == Config((), Return(numeral(3)))
    with pytest.raises(StuckError):  # a result: read off the focus
        machine_step(c2)


def test_machine_pops_to_frame():
    prog = parse_program("return 5 to y. return y", PROB)
    c = Config((), prog)
    assert machine_step(machine_step(c)) == Config((), Return(numeral(5)))


def test_machine_effect_outcome_carries_continuations():
    prog = parse_program("lookup[l](x. return x)", STORE)
    conts = continuations(Config((), prog), STORE, 3)
    assert conts == tuple(Config((), Return(numeral(k))) for k in range(3))
    prog = parse_program("por(return 0, return 2) to x. return x", PROB)
    c = machine_step(Config((), prog))  # push the to-frame
    assert continuations(c, PROB, 3) == tuple(Config(c.stack, Return(numeral(k))) for k in (0, 2))


@pytest.mark.parametrize(
    "sig, src",
    [(PROB, "por(return 0, return 1)"), (STORE, "lookup[l](x. return x)"), (PROB, "return 3")],
)
def test_machine_step_refuses_effects_and_results(sig, src):
    # an effect node and a terminal under the empty stack are normal forms
    with pytest.raises(StuckError):
        machine_step(Config((), parse_program(src, sig)))


def test_machine_determinism():
    prog = parse_program("por(return 0, return 1) to x. return succ x", PROB)
    c = Config((), prog)
    assert machine_step(c) == machine_step(c)


def _one_config_of_each_frame():
    frames = (ToFrame("x", Return(Var("x"))), ArgFrame(numeral(2)), ProjFrame("fst"))
    return frames, Config(frames, Force(Var("f")))


def test_config_and_frame_hashes_are_the_generated_value_cached():
    import dataclasses

    frames, config = _one_config_of_each_frame()
    for obj in frames + (config,):
        generated = hash(tuple(getattr(obj, f.name) for f in dataclasses.fields(obj)))
        assert hash(obj) == generated
        assert obj.__dict__["_hash"] == generated and hash(obj) == generated
        twin = dataclasses.replace(obj)
        assert twin == obj and twin is not obj and hash(twin) == generated


def test_config_equality_is_structural():
    frames, config = _one_config_of_each_frame()
    # built apart, so no field is shared by identity
    rebuilt, twin = _one_config_of_each_frame()
    assert twin == config and hash(twin) == hash(config)
    assert Config(frames[:2], config.focus) != config
    assert Config(frames, Force(Var("g"))) != config
    assert Config(rebuilt[:2] + (ProjFrame("snd"),), config.focus) != config


def test_pickled_config_drops_its_cached_hash():
    # string hashes differ between processes, so the cache is not pickled
    import pickle

    frames, config = _one_config_of_each_frame()
    hash(config)
    assert all("_hash" in obj.__dict__ for obj in frames + (config,))
    u = pickle.loads(pickle.dumps(config))
    assert all("_hash" not in obj.__dict__ for obj in u.stack + (u,))
    assert u == config and hash(u) == hash(config)


def test_eval_tree_por_fuel_two():
    prog = parse_program("por(return 0, return 1)", PROB)
    t = eval_tree(prog, 2, PROB)
    assert t == Node("por", (Leaf(Return(numeral(0))), Leaf(Return(numeral(1)))))


def test_eval_tree_self_loop_always_unknown():
    prog = parse_program(r"fix (\x:U(F nat). force x)", PROB)
    for fuel in (0, 1, 5, 30):
        assert eval_tree(prog, fuel, PROB) == Unknown


def test_eval_tree_seq_three_steps():
    # hand-run: push the to-frame, pop it substituting 5, detect the terminal
    prog = parse_program("return 5 to y. return y", PROB)
    assert eval_tree(prog, 3, PROB) == Leaf(Return(numeral(5)))
    assert eval_tree(prog, 2, PROB) == Unknown


def test_eval_tree_fuel_zero():
    assert eval_tree(Return(numeral(0)), 0, PROB) == Unknown


def test_effect_children_evaluated_one_unit_down():
    # the inner node still materializes at index 1; only ITS children fall to bottom
    prog = parse_program("por(return 0, por(return 1, return 2))", PROB)
    t = eval_tree(prog, 2, PROB)
    inner = Node("por", (Unknown, Unknown))
    assert t == Node("por", (Leaf(Return(numeral(0))), inner))


def test_nat_indexed_children_are_lazy():
    prog = parse_program("lookup[l](x. return x)", STORE)
    t = eval_tree(prog, 3, STORE, width=8)
    assert t.op == "lookup[l]"
    assert t.children[5] == Leaf(Return(numeral(5)))


def test_lookup_has_one_child_per_storable_value():
    # the machine builds a lookup as laws.random_value_tree does: a plain
    # tuple of V children, so machine-built and law-built lookups compare equal
    prog = parse_program("lookup[l](x. return x)", STORE)
    t = eval_tree(prog, 3, STORE, width=3)
    assert t == Node("lookup[l]", tuple(Leaf(Return(numeral(k))) for k in range(3)))


@pytest.mark.parametrize("seed", range(60))
def test_monotone_approximation_and_fuel_soundness(seed):
    rng = random.Random(seed)
    prog = generate_program(rng, FULL, depth=3)
    fuels = [2, 5, 9, 14]
    ts = [eval_tree(prog, n, FULL, width=6) for n in fuels]
    for a, b in zip(ts, ts[1:]):
        assert tree_leq(a, b)
    for i, t in enumerate(ts):
        if not contains_unknown(t):
            for later in ts[i + 1 :]:
                assert later == t
            break


# ---------------------------------------------------------------- silent cycles


def _naive_approx(c, n, sig, width):
    """The machine loop without cycle detection: every silent stretch runs
    until it reaches an effect, a terminal or the end of its fuel."""
    run = settle(c, n)
    c, n = run[-1], n - (len(run) - 1)
    if n == 0:
        return Unknown
    m = c.focus
    if isinstance(m, EffOp):
        conts = continuations(c, sig, width)
        param = None if m.param is None else numeral_value(m.param)
        return Node(m.op, tuple(_naive_approx(cc, n - 1, sig, width) for cc in conts), param)
    return Leaf(m)


def _naive_tree(m, fuel, sig, width):
    return _naive_approx(Config((), m), fuel, sig, width)


ALL_SIGNATURES = [
    build_signature(RunConfig(signature=base + nondet + error, locations=("l",), value_bound=2))
    for base in ("prob", "store", "prob+store", "cost")
    for nondet in ("", "+nondet")
    for error in ("", "+error")
]

D = r"(fix (\g:U(F nat). force g))"

SILENT_LOOPS = {
    # fixed stack: the same four configurations forever
    "fixed-stack": (PROB, D),
    "fixed-stack under a frame": (PROB, f"{D} to x. return succ x"),
    "after a prefix": (PROB, f"return 3 to y. {D}"),
    # the stack and the value grow, so no configuration ever repeats
    "growing stack": (PROB, r"fix (\g:U(F nat). force g to x. return x)"),
    "growing value": (PROB, r"(fix (\f:U(nat -> F nat). \x:nat. (force f) (succ x))) 0"),
    "countdown": (
        PROB,
        r"(fix (\f:U(nat -> F nat). \x:nat. case x of {zero -> return 0 | succ y -> (force f) y})) 9",
    ),
    "under por": (PROB, f"por(return 0, por({D}, return 1))"),
    "six sevenths": (
        PROB,
        rf"fix (\f:U(F nat). por(return 0, por(return 0, por({D}, force f))))",
    ),
    "under lookup": (
        STORE,
        rf"lookup[l](x. case x of {{zero -> {D} | succ y -> update[l](0, return y)}})",
    ),
}


COST = build_signature(RunConfig(signature="cost"))
STORE_LR = build_signature(RunConfig(signature="store", value_bound=2))

# finite-state loops: each unrolling revisits the same few configurations;
# (signature, source, width)
FINITE_STATE = {
    "geometric": (PROB, r"fix (\f:U(F nat). por(return 0, force f))", 3),
    "six sevenths": SILENT_LOOPS["six sevenths"] + (3,),
    "cost loop": (COST, r"fix (\f:U(F nat). cost[1](force f))", 3),
    # sets l to 1, then clears r, branching on both values at every lookup
    "store loop": (
        STORE_LR,
        r"fix (\f:U(F nat). lookup[l](x. case x of {zero -> update[l](1, force f) "
        r"| succ y -> lookup[r](z. case z of {zero -> return 0 | succ w -> update[r](0, force f)})}))",
        2,
    ),
}


@pytest.mark.parametrize("sig_index", range(len(ALL_SIGNATURES)))
def test_cycle_cut_matches_naive_machine_on_generated_programs(sig_index):
    sig = ALL_SIGNATURES[sig_index]
    rng = random.Random(sig_index)
    loop = parse_program(D, PROB)
    for _ in range(3):
        prog = generate_program(rng, sig, depth=3)
        # the same program, but diverging silently wherever it returns 0,
        # which puts silent cycles below its effect nodes
        diverging = SeqTo(prog, "x", CaseNat(Var("x"), loop, "y", Return(Var("y"))))
        for m in (prog, diverging):
            for fuel in range(65):
                assert eval_tree(m, fuel, sig, width=3) == _naive_tree(m, fuel, sig, 3)


@pytest.mark.parametrize("name", sorted(SILENT_LOOPS))
def test_cycle_cut_matches_naive_machine_on_silent_loops(name):
    sig, src = SILENT_LOOPS[name]
    prog = parse_program(src, sig)
    for fuel in range(65):
        assert eval_tree(prog, fuel, sig, width=3) == _naive_tree(prog, fuel, sig, 3)


# six sevenths is one of the silent loops above
@pytest.mark.parametrize("name", sorted(FINITE_STATE.keys() - SILENT_LOOPS.keys()))
def test_stretch_table_matches_naive_machine_on_finite_state_loops(name):
    sig, src, width = FINITE_STATE[name]
    prog = parse_program(src, sig)
    for fuel in range(65):
        assert eval_tree(prog, fuel, sig, width=width) == _naive_tree(prog, fuel, sig, width)


def _counting_steps(monkeypatch):
    from cbpv_quant import machine

    calls = [0]
    real = machine.machine_step

    def counted(c):
        calls[0] += 1
        return real(c)

    monkeypatch.setattr(machine, "machine_step", counted)
    return calls


def test_silent_cycle_ends_after_few_steps_at_any_fuel(monkeypatch):
    calls = _counting_steps(monkeypatch)
    assert eval_tree(parse_program(D, PROB), 100_000, PROB) is Unknown
    assert calls[0] <= 20


def test_never_repeating_loop_runs_to_the_end_of_its_fuel(monkeypatch):
    # the numeral passed around grows to ~5000 levels; comparing it with the
    # saved configuration's must not walk both chains
    calls = _counting_steps(monkeypatch)
    sig, src = SILENT_LOOPS["growing value"]
    assert eval_tree(parse_program(src, sig), 20_000, sig) is Unknown
    assert calls[0] == 20_000


# 2 * fuel is one of the fuels the deep-fuel benchmark gives each loop
@pytest.mark.parametrize(
    "name, fuel", [("geometric", 495), ("six sevenths", 270), ("cost loop", 250), ("store loop", 27)]
)
def test_finite_state_loop_steps_do_not_grow_with_fuel(monkeypatch, name, fuel):
    # each silent stretch runs once per tree; later unrollings read the table
    sig, src, width = FINITE_STATE[name]
    prog = parse_program(src, sig)
    calls = _counting_steps(monkeypatch)
    eval_tree(prog, fuel, sig, width)
    steps = calls[0]
    calls[0] = 0
    eval_tree(prog, 2 * fuel, sig, width)
    assert calls[0] == steps <= 20


@pytest.mark.parametrize(
    "sig, src", [(PROB, "por(return 0, return 1)"), (STORE, "lookup[l](x. return x)")]
)
def test_effect_nodes_are_read_off_the_focus(monkeypatch, sig, src):
    # an effect node and the results below it take no machine step
    calls = _counting_steps(monkeypatch)
    eval_tree(parse_program(src, sig), 4, sig)
    assert calls[0] == 0


# ---------------------------------------------------------------- pinned trees

TREE_DIGEST_SIGNATURES = ("prob", "prob+nondet", "cost+nondet", "store+nondet", "prob+store", "store+error")
TREE_DIGEST_FUELS = (0, 1, 2, 3, 5, 9, 16, 64)


def _render_preorder(t, out):
    if t is Unknown:
        out.append("?")
    elif isinstance(t, Leaf):
        out.append(print_com(t.value))
    else:
        out.append(f"{t.op} {t.param} {len(t.children)}")
        for child in t.children:
            _render_preorder(child, out)


def test_tree_digest():
    # recorded when effect nodes still went through `machine_step`: reading
    # them off the focus must leave every tree as it was
    h = hashlib.sha256()
    count = 0
    for name in TREE_DIGEST_SIGNATURES:
        rt = build_runtime(RunConfig(signature=name))
        rng = random.Random(name)
        for _ in range(60):
            prog = generate_program(rng, rt.signature, depth=5)
            for fuel in TREE_DIGEST_FUELS:
                out = []
                _render_preorder(eval_tree(prog, fuel, rt.signature, rt.width), out)
                h.update("\n".join(out).encode() + b"\n\n")
                count += len(out)
    assert (count, h.hexdigest()) == (
        13908,
        "e943e84fae44969dd74ec85443a083860d8e4ca0bbd7f9a4e3566fe5ba4ffd25",
    )
