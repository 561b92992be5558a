import pytest

from cbpv_quant.formulas import (
    AndF,
    ArgF,
    ConstF,
    Family,
    FormulaTypeError,
    Modal,
    NatEq,
    StepF,
    check_formula,
    formula_size,
    is_positive,
    parse_formula,
    print_formula,
)
from cbpv_quant.parser import parse_ctype
from cbpv_quant.syntax import numeral


def test_parse_print_roundtrip(prob_nondet_rt, prob_store_rt):
    texts = [
        "{7}",
        "[U]Eopt<{1}>",
        "(3 . Epes<{0}>)",
        "or{{0}, {1}}",
        "and{Eopt<{0}>, Epes<{1}>}",
        "step(Eopt<{1}>, 0.5)",
        "const top",
        "not {0}",
        "fst {1}",
        "snd {2}",
        "inj 1 {0}",
        "proj a {0}",
        "mix(Eopt<{1}>, Epes<{1}>)",
    ]
    cases = [(prob_nondet_rt, text) for text in texts]
    cases.append((prob_store_rt, "wsum[0.5, 1](EG<{0}>)"))
    for rt, text in cases:
        phi = parse_formula(text, rt.signature, rt.space)
        again = parse_formula(print_formula(phi), rt.signature, rt.space)
        assert phi == again, text


def test_positive_fragment_flag(prob_nondet_rt):
    rt = prob_nondet_rt
    pos = parse_formula("and{Eopt<{0}>, step(Epes<{1}>, 0.5)}", rt.signature, rt.space)
    neg = parse_formula("Eopt<not {0}>", rt.signature, rt.space)
    assert is_positive(pos)
    assert not is_positive(neg)


def test_formula_sizes():
    assert formula_size(NatEq(7)) == 1
    assert formula_size(Modal("Copt", NatEq(7))) == 2
    assert formula_size(AndF(Family(members=(NatEq(0), NatEq(1))))) == 3


def test_check_formula_typing(prob_nondet_rt):
    rt = prob_nondet_rt
    fnat = parse_ctype("F nat")
    check_formula(
        parse_formula("Eopt<{1}>", rt.signature, rt.space),
        fnat, rt.modalities, rt.space, rt.signature,
    )
    with pytest.raises(FormulaTypeError, match="producer types"):
        check_formula(
            parse_formula("Eopt<Epes<{1}>>", rt.signature, rt.space),
            fnat, rt.modalities, rt.space, rt.signature,
        )
    with pytest.raises(FormulaTypeError, match="unknown modality"):
        check_formula(
            parse_formula("G<{1}>", rt.signature, rt.space),
            fnat, rt.modalities, rt.space, rt.signature,
        )


def test_check_formula_arg_type(prob_nondet_rt):
    rt = prob_nondet_rt
    arrow = parse_ctype("nat -> F nat")
    check_formula(
        ArgF(numeral(2), Modal("Eopt", NatEq(2))),
        arrow, rt.modalities, rt.space, rt.signature,
    )
    with pytest.raises(FormulaTypeError, match="formula argument"):
        check_formula(
            ArgF(numeral(0), Modal("Eopt", NatEq(2))),
            parse_ctype("U(F nat) -> F nat"), rt.modalities, rt.space, rt.signature,
        )


def test_state_set_literals(store_rt):
    rt = store_rt
    v = parse_formula("const states{l=1}", rt.signature, rt.space)
    assert isinstance(v, ConstF)
    assert v.value == frozenset(s for s in rt.space.all_states if s[0] == 1)
    explicit = parse_formula("const {[l=0 r=2], [l=1 r=0]}", rt.signature, rt.space)
    assert explicit.value == frozenset({(0, 2), (1, 0)})
    # store values wrap mod the value bound 3 in both literals
    wrapped = parse_formula("const {[l=5 r=4]}", rt.signature, rt.space)
    assert wrapped == parse_formula("const {[l=2 r=1]}", rt.signature, rt.space)
    assert parse_formula("const states{l=4}", rt.signature, rt.space) == v


def test_step_threshold_must_inhabit_space(prob_nondet_rt):
    rt = prob_nondet_rt
    with pytest.raises(FormulaTypeError, match="outside the truth space"):
        check_formula(
            StepF(Modal("Eopt", NatEq(0)), 7.5),
            parse_ctype("F nat"), rt.modalities, rt.space, rt.signature,
        )
