import pytest

from cbpv_quant.config import RunConfig, build_runtime
from cbpv_quant.laws import (
    LawParams,
    law_congruence,
    law_decomposability,
    law_leaf_monotone,
    law_relator,
    law_scott_chain,
    law_sequential,
    law_unit,
    standard_modalities,
)

MODS = standard_modalities()
SMALL = LawParams(samples=60, seed=11, depth=4)


def test_standard_modality_set():
    assert list(MODS) == ["E", "Eopt", "Epes", "C", "Copt", "Cpes", "G", "Gopt", "Gpes", "EG"]


@pytest.mark.parametrize("name", list(MODS))
def test_leaf_monotone_smoke(name):
    assert law_leaf_monotone(MODS[name], SMALL).passed


@pytest.mark.parametrize("name", list(MODS))
def test_scott_chain_smoke(name):
    assert law_scott_chain(MODS[name], SMALL).passed


@pytest.mark.parametrize("name", list(MODS))
def test_sequential_smoke(name):
    assert law_sequential(MODS[name], SMALL).passed


@pytest.mark.parametrize("name", list(MODS))
def test_unit_smoke(name):
    assert law_unit(MODS[name], SMALL).passed


@pytest.mark.parametrize("name", ["Epes", "Cpes", "Gopt", "EG"])
def test_decomposability_smoke(name):
    r = law_decomposability(MODS[name], SMALL)
    assert r.passed
    assert r.runs > 0


def test_relator_laws_exhaustive_small():
    for r in law_relator(max_carrier=2):
        assert r.passed, r.line()


def test_congruence_smoke():
    rt = build_runtime(RunConfig(signature="prob+nondet"))
    r = law_congruence(rt, trials=40, seed=5)
    assert r.passed
    assert r.runs > 0


def test_failing_law_is_reported():
    # a deliberately broken "modality" whose nor-rule inverts one side must
    # trip leaf-monotonicity
    from dataclasses import replace

    from cbpv_quant.modality import OpRule, expectation_modality

    E = expectation_modality()

    def bad(node, kids):
        return (1.0 - kids[0] + kids[1]) / 2

    broken = replace(E, name="Ebad", rules={**E.rules, "nor": OpRule(bad)})
    r = law_leaf_monotone(broken, LawParams(samples=300, seed=2, depth=4))
    assert not r.passed
    assert r.failures
