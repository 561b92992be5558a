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


def _tree_text(t):
    from cbpv_quant.trees import Leaf, Unknown

    if t is Unknown:
        return "?"
    if isinstance(t, Leaf):
        v = t.value
        return "{" + ",".join(map(repr, sorted(v))) + "}" if isinstance(v, frozenset) else repr(v)
    return f"{t.op}/{t.param}(" + ",".join(_tree_text(c) for c in t.children) + ")"


def test_random_value_tree_draws_are_pinned():
    # the generator's rng draws, and so every law sample, are fixed: a digest
    # of seeded trees for all ten modalities at depths 0-5, plus each rng's
    # next draw, as recorded when the operator shapes were recomputed per node
    import hashlib
    import random

    from cbpv_quant.laws import random_value_tree

    h = hashlib.sha256()
    for name, q in sorted(MODS.items()):
        rng = random.Random(2024)
        for depth in range(6):
            for _ in range(20):
                t = random_value_tree(q, rng, depth, lambda: q.space.sample(rng), p_unknown=0.3)
                h.update(_tree_text(t).encode())
        h.update(repr(rng.random()).encode())
    assert h.hexdigest() == "056e44f4d579ad1c76996bb5299ea09a029ae865f78d6741434ded7386e1e511"
