import pytest

from cbpv_quant.config import RunConfig, build_signature
from cbpv_quant.parser import ParseError, parse_program
from cbpv_quant.syntax import (
    Apply,
    ArrowType,
    EffOp,
    Lambda,
    NAT,
    PairType,
    ProducerType,
    Return,
    SumType,
    ThunkType,
    UnitType,
    Zero,
    numeral,
)
from spec import parse_ctype, parse_vtype

PROB = build_signature(RunConfig(signature="prob"))
FULL = build_signature(RunConfig(signature="prob+store+nondet+error"))
COST = build_signature(RunConfig(signature="cost"))


def test_return_zero():
    assert parse_program("return zero", PROB) == Return(Zero())


def test_por_of_numerals():
    got = parse_program("por(return 0, return 1)", PROB)
    assert got == EffOp("por", None, (Return(numeral(0)), Return(numeral(1))))


def test_unclosed_paren_is_syntax_error():
    with pytest.raises(ParseError) as e:
        parse_program("por(return 0", PROB)
    assert e.value.line == 1


def test_unknown_operator_rejected():
    with pytest.raises(ParseError, match="unknown effect operator"):
        parse_program("nor(return 0, return 1)", PROB)


def test_cost_bracket_parameter():
    got = parse_program("cost[3](return 7)", COST)
    assert got == EffOp("cost", numeral(3), (Return(numeral(7)),))


def test_lookup_update_raise():
    got = parse_program("lookup[l](x. update[r](x, raise[e]()))", FULL)
    assert got.op == "lookup[l]"
    assert got.binder == "x"
    inner = got.body
    assert inner.op == "update[r]"
    assert inner.children[0] == EffOp("raise[e]", None, ())


def test_application_chain():
    got = parse_program(r"(\x:nat. return x) 3", PROB)
    assert isinstance(got, Apply)
    assert isinstance(got.com, Lambda)
    assert got.arg == numeral(3)


def test_to_binds_loosest():
    got = parse_program("por(return 0, return 1) to x. return x", PROB)
    assert got.binder == "x"
    assert isinstance(got.com, EffOp)


def test_comments_and_whitespace():
    got = parse_program("// a coin\npor(return 0, // heads\n  return 1)", PROB)
    assert isinstance(got, EffOp)


def test_types():
    assert parse_vtype("nat") == NAT
    assert parse_vtype("unit") == UnitType()
    assert parse_ctype("F nat") == ProducerType(NAT)
    assert parse_ctype("nat -> F nat") == ArrowType(NAT, ProducerType(NAT))
    assert parse_vtype("U F nat") == ThunkType(ProducerType(NAT))
    assert parse_vtype("U(nat -> F nat)") == ThunkType(ArrowType(NAT, ProducerType(NAT)))
    assert parse_vtype("nat * unit") == PairType(NAT, UnitType())
    assert parse_vtype("nat + unit") == SumType((("1", NAT), ("2", UnitType())))
    assert parse_vtype("sum{a: nat, b: unit}") == SumType((("a", NAT), ("b", UnitType())))


def test_nested_arrow_right_assoc():
    got = parse_ctype("nat -> nat -> F nat")
    assert got == ArrowType(NAT, ArrowType(NAT, ProducerType(NAT)))
