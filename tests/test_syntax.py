import random

import pytest
from hypothesis import given, strategies as st

from cbpv_quant.generators import generate_program
from cbpv_quant.parser import parse_program
from cbpv_quant.syntax import (
    Lambda,
    NAT,
    Return,
    SeqTo,
    Force,
    Thunk,
    Var,
    Zero,
    Succ,
    free_vars,
    numeral,
    numeral_value,
    print_com,
    substitute,
)
from cbpv_quant.config import RunConfig, build_signature


@given(st.integers(min_value=0, max_value=200))
def test_numeral_roundtrip(n):
    assert numeral_value(numeral(n)) == n


def test_numeral_shape():
    assert numeral(0) == Zero()
    assert numeral(2) == Succ(Succ(Zero()))


def test_numeral_value_on_non_numerals():
    assert numeral_value(Thunk(Return(Zero()))) is None
    assert numeral_value(Succ(Var("x"))) is None


def test_substitute_simple():
    t = Return(Var("x"))
    assert substitute(t, {"x": numeral(3)}) == Return(numeral(3))


def test_substitute_shadowed_binder():
    t = Lambda("x", NAT, Return(Var("x")))
    assert substitute(t, {"x": numeral(3)}) == t


def test_substitute_under_seq():
    t = SeqTo(Force(Var("f")), "y", Return(Var("y")))
    v = Thunk(Return(numeral(5)))
    assert substitute(t, {"f": v}) == SeqTo(Force(v), "y", Return(Var("y")))


def test_substitute_simultaneous():
    t = Return(Var("x"))
    body = SeqTo(t, "x", Return(Var("y")))
    out = substitute(body, {"x": numeral(1), "y": numeral(2)})
    # x is rebound by `to`, so only the outer occurrence and y change
    assert out == SeqTo(Return(numeral(1)), "x", Return(numeral(2)))


def test_free_vars():
    t = SeqTo(Force(Var("f")), "y", Return(Var("y")))
    assert free_vars(t) == {"f"}


@pytest.mark.parametrize("seed", range(40))
def test_print_parse_roundtrip(seed):
    sig = build_signature(RunConfig(signature="prob+store+nondet+error"))
    rng = random.Random(seed)
    term = generate_program(rng, sig, depth=4)
    assert parse_program(print_com(term), sig) == term


def _one_of_each_term():
    from cbpv_quant.syntax import (
        Apply,
        CaseNat,
        CasePair,
        CaseSum,
        EffOp,
        Fix,
        Inj,
        LetVal,
        Pair,
        ProducerType,
        Proj,
        Record,
        ThunkType,
        UnitVal,
    )

    x = Var("x")
    ret_x = Return(x)
    return [
        UnitVal(),
        Zero(),
        Succ(Zero()),
        x,
        Thunk(ret_x),
        Inj("1", Zero()),
        Pair(Zero(), UnitVal()),
        ret_x,
        SeqTo(Return(Zero()), "x", ret_x),
        Force(Var("f")),
        Lambda("x", NAT, ret_x),
        Apply(Lambda("x", NAT, ret_x), Zero()),
        LetVal("x", Zero(), ret_x),
        CaseNat(Zero(), Return(Zero()), "x", ret_x),
        CaseSum(Inj("1", Zero()), (("1", "x", ret_x),)),
        CasePair(Pair(Zero(), Zero()), "x", "y", ret_x),
        Record((("a", ret_x),)),
        Proj(Record((("a", ret_x),)), "a"),
        Fix(Lambda("f", ThunkType(ProducerType(NAT)), Force(Var("f")))),
        EffOp("por", None, (Return(Zero()), Return(Succ(Zero())))),
        EffOp("lookup[l]", None, (), "x", ret_x),
    ]


def test_term_hash_is_the_generated_value_cached():
    # every term class caches the hash the dataclass would generate: the
    # hash of the tuple of its field values
    import dataclasses

    from cbpv_quant.syntax import ComTerm, ValTerm

    terms = _one_of_each_term()
    classes = set(ValTerm.__subclasses__()) | set(ComTerm.__subclasses__())
    assert {type(t) for t in terms} == classes
    for t in terms:
        generated = hash(tuple(getattr(t, f.name) for f in dataclasses.fields(t)))
        assert hash(t) == generated
        assert t.__dict__["_hash"] == generated and hash(t) == generated
        twin = dataclasses.replace(t)
        assert twin == t and twin is not t and hash(twin) == generated


def test_deep_term_hashes():
    v = numeral(400)
    assert hash(Return(v)) == hash((v,))
    assert hash(Return(v)) == hash(Return(numeral(400)))


def test_pickled_term_drops_its_cached_hash():
    # string hashes differ between processes, so the cache is not pickled
    import pickle

    t = Lambda("x", NAT, Return(Var("x")))
    hash(t)
    u = pickle.loads(pickle.dumps(t))
    assert u == t and "_hash" not in u.__dict__ and hash(u) == hash(t)


def test_substitute_returns_the_term_when_no_bound_name_is_free():
    t = SeqTo(Force(Var("f")), "y", Return(Var("y")))
    assert substitute(t, {"x": numeral(1)}) is t
    assert substitute(t, {"y": numeral(1)}) is t  # y is bound, not free
    closed = Lambda("x", NAT, Return(Var("x")))
    assert substitute(closed, {"x": numeral(2)}) is closed


def test_substitute_shares_closed_subterms():
    closed = Thunk(Return(numeral(5)))
    other = Lambda("z", NAT, Return(Var("z")))
    t = SeqTo(Force(closed), "y", SeqTo(Force(Var("f")), "w", Force(other)))
    out = substitute(t, {"f": closed})
    assert out == SeqTo(Force(closed), "y", SeqTo(Force(closed), "w", Force(other)))
    assert out.com is t.com
    assert out.body.body is t.body.body
    assert out.body.com.value is closed


def test_free_vars_are_cached_and_closed_terms_share_the_empty_set():
    t = SeqTo(Force(Var("f")), "y", Return(Var("y")))
    fv = free_vars(t)
    assert fv == {"f"} and free_vars(t) is fv and t.__dict__["_fv"] is fv
    assert free_vars(Return(numeral(3))) is free_vars(Lambda("x", NAT, Return(Var("x"))))


def test_pickled_term_recomputes_its_free_vars():
    import pickle

    t = SeqTo(Force(Var("f")), "y", Return(Var("y")))
    closed = Lambda("x", NAT, Return(Var("x")))
    for term, want in ((t, {"f"}), (closed, set())):
        free_vars(term)
        u = pickle.loads(pickle.dumps(term))
        assert u == term and "_fv" not in u.__dict__
        assert free_vars(u) == want
    assert free_vars(pickle.loads(pickle.dumps(closed))) is free_vars(closed)


def test_hashed_terms_that_differ_are_unequal_at_the_root():
    # built and hashed one level at a time, as the machine builds numerals;
    # a field-by-field walk down 3000 levels would exceed the recursion limit
    v = Zero()
    for _ in range(3000):
        v = Succ(v)
        hash(v)
    w = Succ(v)
    hash(w)
    assert w != v and not (v == w)
    assert Return(w) != Return(v)
    assert v == v and Succ(Succ(Zero())) == numeral(2)
