import pytest

from cbpv_quant.formulas import (
    AndF,
    ArgF,
    ConstF,
    FormulaTypeError,
    MixF,
    Modal,
    NatEq,
    NegF,
    OrF,
    SigmaMuF,
    StepF,
    check_formula,
    is_positive,
    parse_formula,
    print_formula,
)
from cbpv_quant.syntax import numeral
from spec import formula_size, parse_ctype


def test_parse_print_roundtrip(prob_nondet_rt, prob_store_rt, store_nondet_rt):
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
    # state sets and state tables print through the truth space's render
    cases += [
        (store_nondet_rt, "Gopt<const top>"),
        (store_nondet_rt, "Gpes<const bot>"),
        (store_nondet_rt, "step(Gopt<{0}>, states{l=1})"),
        (store_nondet_rt, "not Gopt<const {[l=0 r=1], [l=2 r=0]}>"),
        (prob_store_rt, "EG<const top>"),
        (prob_store_rt, "step(EG<{0}>, bot)"),
        (prob_store_rt, "EG<const {[l=0]: 0.5, [l=1]: 1}>"),
        (prob_store_rt, "step(EG<{0}>, {[l=1]: 0.25})"),
    ]
    for rt, text in cases:
        phi = parse_formula(text, rt.signature, rt.space)
        printed = print_formula(phi, rt.space)
        again = parse_formula(printed, rt.signature, rt.space)
        assert phi == again, text
        assert print_formula(again, rt.space) == printed, text


def test_state_values_print_as_literals(store_nondet_rt, prob_store_rt):
    def printed(rt, text):
        return print_formula(parse_formula(text, rt.signature, rt.space), rt.space)

    assert printed(store_nondet_rt, "Gopt<const top>") == "Gopt<const top>"
    assert printed(store_nondet_rt, "step(Gopt<{0}>, states{l=1})") == (
        "step(Gopt<{0}>, {[l=1 r=0], [l=1 r=1], [l=1 r=2]})"
    )
    assert printed(prob_store_rt, "EG<const top>") == "EG<const top>"


def _seeded_number(rng):
    # plain decimals, integers, and magnitudes down to 1e-12 that print in
    # exponent notation
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice((1e-05, 5e-05, 1.5e-07, 2.5e-10, 1e-12))
    if kind == 1:
        return rng.random() * 10.0 ** -rng.randrange(5, 13)
    if kind == 2:
        return float(rng.randrange(3))
    return rng.random()


def _seeded_formula(rng, depth, value=_seeded_number):
    # `value` draws the truth values of constants and thresholds
    kind = rng.randrange(9) if depth > 0 else rng.randrange(2)
    if kind == 0:
        return NatEq(rng.randrange(4))
    if kind == 1:
        return ConstF(value(rng))
    sub = lambda: _seeded_formula(rng, depth - 1, value)
    if kind == 2:
        return Modal(rng.choice(("E", "EG")), sub())
    if kind == 3:
        return StepF(sub(), value(rng))
    if kind == 4:
        return SigmaMuF(tuple(_seeded_number(rng) for _ in range(2)), sub())
    if kind == 5:
        return NegF(sub())
    if kind == 6:
        return MixF(sub(), sub())
    members = tuple(sub() for _ in range(rng.randrange(1, 3)))
    return AndF(members) if kind == 7 else OrF(members)


def test_parse_print_roundtrip_seeded_numbers(prob_store_rt):
    # printing renders small numbers as `1e-05`; parsing must read them back
    import random

    rt = prob_store_rt
    rng = random.Random(7)
    small = 0
    for _ in range(300):
        phi = _seeded_formula(rng, 3)
        text = print_formula(phi)
        again = parse_formula(text, rt.signature, rt.space)
        assert again == phi, text
        assert print_formula(again) == text
        small += "e-" in text
    assert small > 100
    for text in ("const 1e-05", "step(E<{0}>, 1e-05)", "wsum[1e-05, 1.0](EG<{0}>)"):
        assert print_formula(parse_formula(text, rt.signature, rt.space)) == text
    # state tables print through the truth space's render and read back
    tables = 0
    for _ in range(300):
        phi = _seeded_formula(rng, 3, lambda rng: tuple(_seeded_number(rng) for _ in rt.space.all_states))
        text = print_formula(phi, rt.space)
        again = parse_formula(text, rt.signature, rt.space)
        assert again == phi, text
        assert print_formula(again, rt.space) == text
        tables += "]: " in text
    assert tables > 100


def test_positive_fragment_flag(prob_nondet_rt):
    rt = prob_nondet_rt
    pos = parse_formula("and{Eopt<{0}>, step(Epes<{1}>, 0.5)}", rt.signature, rt.space)
    neg = parse_formula("Eopt<not {0}>", rt.signature, rt.space)
    assert is_positive(pos)
    assert not is_positive(neg)


def test_formula_sizes():
    assert formula_size(NatEq(7)) == 1
    assert formula_size(Modal("Copt", NatEq(7))) == 2
    assert formula_size(AndF((NatEq(0), NatEq(1)))) == 3


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
