import hashlib
import random
from dataclasses import fields, replace

import pytest

from cbpv_quant.config import RunConfig, build_signature
from cbpv_quant.generators import generate_program
from cbpv_quant.machine import Config, reduce
from cbpv_quant.parser import parse_program
from cbpv_quant.syntax import (
    UNIT,
    Apply,
    ArrowType,
    CasePair,
    CaseSum,
    ComTerm,
    EffOp,
    Fix,
    Force,
    Inj,
    Lambda,
    NAT,
    NatIndexed,
    NatParam,
    Pair,
    PairType,
    ProducerType,
    ProductType,
    Proj,
    Record,
    Return,
    SeqTo,
    Succ,
    SumType,
    Thunk,
    ThunkType,
    UnitVal,
    ValTerm,
    Var,
    free_vars,
    numeral,
)
from cbpv_quant.typecheck import EMPTY, TypeChecker, TypeCheckError, infer_type
from stacks import settle, stack_apply

SIG = build_signature(RunConfig(signature="prob+nondet"))
FULL = build_signature(RunConfig(signature="prob+store+nondet+error"))


def check_type(ctx, term, ty, signature):
    """Check `term` against `ty` in the judgement of its category; None on
    success, as the digest below records."""
    tc = TypeChecker(signature)
    (tc.val if isinstance(term, ValTerm) else tc.com)(ctx, term, ty)


def test_return_numeral():
    assert infer_type(EMPTY, Return(numeral(0)), SIG) == ProducerType(NAT)


def test_fix_rule():
    t = Fix(Lambda("x", ThunkType(ProducerType(NAT)), Force(Var("x"))))
    assert infer_type(EMPTY, t, SIG) == ProducerType(NAT)


def test_apply_non_arrow_rejected():
    t = Apply(Return(numeral(0)), numeral(0))
    with pytest.raises(TypeCheckError, match="not an arrow"):
        infer_type(EMPTY, t, SIG)


def test_unbound_variable():
    with pytest.raises(TypeCheckError, match="unbound"):
        infer_type(EMPTY, Return(Var("ghost")), SIG)


def test_fix_needs_thunked_domain():
    t = Fix(Lambda("x", NAT, Return(Var("x"))))
    with pytest.raises(TypeCheckError, match="fix"):
        infer_type(EMPTY, t, SIG)


def test_inj_checks_against_sum():
    prog = parse_program(
        r"(\x:nat + unit. pm x as {inj 1 n -> return n | inj 2 u -> return 9}) (inj 1 4)",
        SIG,
    )
    assert infer_type(EMPTY, prog, SIG) == ProducerType(NAT)


def test_inj_does_not_synthesize():
    prog = parse_program("return inj 1 4", SIG)
    with pytest.raises(TypeCheckError, match="inj"):
        infer_type(EMPTY, prog, SIG)


def test_nullary_effect_defaults_to_producing_unit():
    sig = build_signature(RunConfig(signature="store+error", locations=("l",)))
    prog = parse_program("update[l](1, raise[e]())", sig)
    assert str(infer_type(EMPTY, prog, sig)) == "F unit"


def test_effop_children_share_type():
    bad = parse_program(r"por(return 0, \x:nat. return x)", SIG)
    with pytest.raises(TypeCheckError):
        infer_type(EMPTY, bad, SIG)


def test_check_type_on_values():
    check_type(EMPTY, numeral(3), NAT, SIG)
    with pytest.raises(TypeCheckError):
        check_type(EMPTY, numeral(3), ThunkType(ProducerType(NAT)), SIG)


def test_determinism():
    prog = parse_program("por(return 0, return 1) to x. return succ x", SIG)
    assert infer_type(EMPTY, prog, SIG) == infer_type(EMPTY, prog, SIG)


@pytest.mark.parametrize("seed", range(30))
def test_subject_reduction_along_machine_runs(seed):
    # every machine step of a generated program preserves the stack-applied type
    rng = random.Random(seed)
    prog = generate_program(rng, FULL, depth=3)
    ty = infer_type(EMPTY, prog, FULL)
    for c in settle(Config((), prog), 60)[1:]:
        assert infer_type(EMPTY, stack_apply(c.stack, c.focus), FULL) == ty


@pytest.mark.parametrize("seed", range(20))
def test_direct_reduction_preserves_types(seed):
    rng = random.Random(seed + 1000)
    prog = generate_program(rng, FULL, depth=3)
    ty = infer_type(EMPTY, prog, FULL)
    m = prog
    for _ in range(30):
        n = reduce(m)
        if n is None:
            break
        assert infer_type(EMPTY, n, FULL) == ty
        m = n


# ---- a pinned digest of the judgement's outcomes

DIGEST_SIGNATURES = ("prob", "store+nondet", "prob+store", "cost+nondet+error")
AB = SumType((("a", NAT), ("b", UNIT)))
VAL_WANTS = (NAT, UNIT, AB, ThunkType(ProducerType(NAT)), PairType(NAT, UNIT))
COM_WANTS = (
    ProducerType(NAT),
    ProducerType(UNIT),
    ArrowType(NAT, ProducerType(NAT)),
    ArrowType(ThunkType(ProducerType(NAT)), ProducerType(NAT)),
    ProductType((("a", ProducerType(NAT)), ("b", ArrowType(NAT, ProducerType(NAT))))),
)


def _leaves(x):
    # the subterms held by one field value: a term, or tuples around terms
    if isinstance(x, (ValTerm, ComTerm)):
        yield x
    elif isinstance(x, tuple):
        for y in x:
            yield from _leaves(y)


def _swap(x, it):
    if isinstance(x, (ValTerm, ComTerm)):
        return next(it)
    if isinstance(x, tuple):
        return tuple(_swap(y, it) for y in x)
    return x


def _children(t):
    return [c for f in fields(t) for c in _leaves(getattr(t, f.name))]


def _subterms(t, lam=()):
    """Every subterm with a context: lambda binders on the path keep their
    annotation, every other free variable is a nat."""
    lam = dict(lam)
    ctx = {x: lam.get(x, NAT) for x in sorted(free_vars(t))}
    yield ctx, t
    inner = {**lam, t.binder: t.dom} if isinstance(t, Lambda) else lam
    for c in _children(t):
        yield from _subterms(c, inner)


def _replace_nth(t, n, new):
    """`t` with its n-th subterm in preorder replaced by `new`; `n` counts
    down as the walk goes."""
    if n[0] == 0:
        n[0] = -1
        return new
    n[0] -= 1
    kids = [_replace_nth(c, n, new) if n[0] >= 0 else c for c in _children(t)]
    if not kids:
        return t
    it = iter(kids)
    return replace(t, **{f.name: _swap(getattr(t, f.name), it) for f in fields(t)})


def _pool(sig):
    one, ab_var = Return(numeral(1)), Var("s")
    vals = [
        UnitVal(), Var("ghost"), Inj("a", numeral(2)), Inj("c", UnitVal()),
        Pair(numeral(0), UnitVal()), Pair(Inj("b", UnitVal()), numeral(1)),
        Thunk(Return(Inj("b", UnitVal()))), Thunk(Lambda("y", NAT, one)),
        Succ(UnitVal()),
    ]
    record = Record((("a", one), ("b", Lambda("y", NAT, Return(Var("y"))))))
    pm = CaseSum(ab_var, (("a", "n", Return(Var("n"))), ("b", "u", one)))
    coms = [
        record, Proj(record, "a"), Proj(record, "c"), Proj(one, "a"),
        Apply(Lambda("s", AB, pm), Inj("a", numeral(3))),
        Apply(Lambda("s", AB, CaseSum(ab_var, (("a", "n", one),))), Inj("b", UnitVal())),
        CaseSum(numeral(1), (("a", "n", one),)),
        CasePair(Pair(numeral(1), UnitVal()), "p", "q", Return(Var("p"))),
        CasePair(numeral(1), "p", "q", one),
        Fix(Lambda("f", ThunkType(ProducerType(NAT)), Force(Var("f")))),
        Fix(Lambda("f", NAT, one)),
        Force(Thunk(Lambda("y", NAT, one))), Force(numeral(0)),
        Apply(one, numeral(0)), Return(Inj("a", numeral(1))),
        Lambda("y", AB, Return(Var("y"))),
        SeqTo(Lambda("y", NAT, one), "z", one),
        EffOp("nope", None, (one,)),
    ]
    for d in sig:
        if isinstance(d.arity, NatIndexed):
            coms += [EffOp(d.name, None, (), "k", Return(Var("k"))),
                     EffOp(d.name, None, (one,))]
        elif isinstance(d.arity, NatParam):
            coms += [EffOp(d.name, numeral(1), (one,)), EffOp(d.name, UnitVal(), (one,)),
                     EffOp(d.name, None, (one,))]
        elif d.arity.n == 0:
            coms += [EffOp(d.name), EffOp(d.name, None, (one,))]
        else:
            coms += [EffOp(d.name, None, (one, Return(Inj("a", numeral(0))))),
                     EffOp(d.name, None, (Return(Inj("a", numeral(0))), Return(UnitVal()))),
                     EffOp(d.name, None, (one,))]
    return vals, coms


def _outcome(f, *args):
    try:
        return str(f(*args))
    except TypeCheckError as e:
        return "error: " + str(e)


def _judgement_outcomes(sig, seed):
    rng = random.Random(seed)
    vals, coms = _pool(sig)
    progs = [generate_program(rng, sig, depth=3) for _ in range(3)]
    for prog in list(progs):
        subs = [t for _, t in _subterms(prog)]
        for _ in range(3):
            n = rng.randrange(len(subs))
            same = [t for t in subs if isinstance(t, ValTerm) == isinstance(subs[n], ValTerm)]
            pool = vals if isinstance(subs[n], ValTerm) else coms
            new = rng.choice(pool) if rng.random() < 0.7 else rng.choice(same)
            progs.append(_replace_nth(prog, [n], new))
    for prog in progs:
        for ctx, t in _subterms(prog):
            yield _outcome(infer_type, ctx, t, sig)
            for ty in VAL_WANTS if isinstance(t, ValTerm) else COM_WANTS:
                yield _outcome(check_type, ctx, t, ty, sig)


def test_judgement_outcomes_digest():
    h = hashlib.sha256()
    count = 0
    for name in DIGEST_SIGNATURES:
        sig = build_signature(RunConfig(signature=name))
        for seed in range(10):
            for out in _judgement_outcomes(sig, seed):
                h.update(out.encode() + b"\n")
                count += 1
    # recorded on the earlier checker, which had separate infer and check
    # methods per category: every type and error text must stay the same
    assert (count, h.hexdigest()) == (
        43674,
        "38b4dd67ffdba5ad2dba18056ee44efc0ac9f08d78383cae76f3d20d78a27d6c",
    )


SUM_SIGNATURES = [
    base + nondet + error
    for base in ("prob", "store", "prob+store", "cost")
    for nondet in ("", "+nondet")
    for error in ("", "+error")
]


@pytest.mark.parametrize("signame", SUM_SIGNATURES)
@pytest.mark.parametrize("ty", ["F (U F nat + nat)", "F (nat + unit)"])
def test_generated_programs_typecheck_at_sum_types(signame, ty):
    # an injection only checks, so the generator returns one through an
    # annotated identity; each program also parses back from its print
    from cbpv_quant.syntax import print_com
    from spec import parse_ctype

    sig = build_signature(RunConfig(signature=signame, locations=("l",), value_bound=2))
    want = parse_ctype(ty)
    rng = random.Random(29)
    for _ in range(20):
        prog = generate_program(rng, sig, 4, want)
        assert infer_type(EMPTY, prog, sig) == want
        assert parse_program(print_com(prog), sig) == prog
