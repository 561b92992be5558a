import math
import random

import pytest
from hypothesis import given, strategies as st

from cbpv_quant.lattice import (
    BoolSpace,
    CostSpace,
    StateSetSpace,
    StateTableSpace,
    StoreConfig,
    UnitIntervalSpace,
)

STORE = StoreConfig(("l", "r"), 3)
SPACES = [
    BoolSpace(),
    UnitIntervalSpace(),
    CostSpace(),
    StateSetSpace(STORE),
    StateTableSpace(STORE),
]


def _samples(space, n=60, seed=0):
    rng = random.Random(seed)
    return [space.sample(rng) for _ in range(n)]


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.name)
def test_involution(space):
    for a in _samples(space):
        assert space.neg(space.neg(a)) == a


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.name)
def test_neg_reverses_order(space):
    xs = _samples(space)
    for a in xs:
        for b in xs[:20]:
            assert space.leq(a, b) == space.leq(space.neg(b), space.neg(a))


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.name)
def test_neg_swaps_extremes(space):
    assert space.neg(space.top) == space.bot
    assert space.neg(space.bot) == space.top


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.name)
def test_join_meet_are_bounds(space):
    xs = _samples(space, 30)
    j = space.join(xs)
    m = space.meet(xs)
    for a in xs:
        assert space.leq(a, j)
        assert space.leq(m, a)
    # least upper bound: any other upper bound dominates the join
    for cand in xs:
        if all(space.leq(a, cand) for a in xs):
            assert space.leq(j, cand)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.name)
def test_empty_join_meet(space):
    assert space.join([]) == space.bot
    assert space.meet([]) == space.top


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.name)
def test_de_morgan(space):
    xs = _samples(space, 12)
    lhs = space.neg(space.join(xs))
    rhs = space.meet(space.neg(a) for a in xs)
    assert lhs == rhs


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.name)
def test_order_is_partial(space):
    xs = _samples(space, 25)
    for a in xs:
        assert space.leq(a, a)
    for a in xs:
        for b in xs[:12]:
            if space.leq(a, b) and space.leq(b, a):
                assert a == b
            for c in xs[:8]:
                if space.leq(a, b) and space.leq(b, c):
                    assert space.leq(a, c)


def test_cost_space_reversed_order():
    c = CostSpace()
    assert c.top == 0.0 and c.bot == math.inf
    assert c.leq(3.0, 1.0)  # higher cost sits lower
    assert not c.leq(1.0, 3.0)
    assert c.join([1.0, 3.0]) == 1.0
    assert c.meet([1.0, 3.0]) == 3.0


def test_cost_negation_totalized():
    c = CostSpace()
    assert c.neg(0.0) == math.inf
    assert c.neg(math.inf) == 0.0
    assert c.neg(2.0) == 0.5


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_unit_interval_neg(x):
    u = UnitIntervalSpace()
    assert u.neg(u.neg(x)) == pytest.approx(x, abs=1e-12)


def test_state_space_size():
    assert len(STORE.states()) == 9
    assert StoreConfig(("l",), 2).states() == ((0,), (1,))


def test_update_wraps_mod_value_bound():
    s = (0, 1)
    assert STORE.set_loc(s, 0, 5) == (2, 1)


def test_state_set_render_sorted():
    sp = StateSetSpace(STORE)
    v = frozenset({(1, 0), (0, 2)})
    assert sp.render(v) == "{[l=0 r=2], [l=1 r=0]}"


def test_render_prints_a_non_dyadic_fraction_as_p_over_q():
    # the graph solve's values are Fractions: a float holds a dyadic one
    # exactly, and it prints as that float does; any other prints as p/q
    from fractions import Fraction

    unit = UnitIntervalSpace()
    for v in (0.5, 0.25, 1.0, 0.0, 0.96875):
        assert unit.render(Fraction(v)) == unit.render(v)
    assert unit.render(Fraction(6, 7)) == "6/7"
    assert unit.render(Fraction(1, 3)) == "1/3"
    # dyadic, but beyond a float's 53 bits
    assert unit.render(1 - Fraction(1, 2**60)) == f"{2**60 - 1}/{2**60}"
    assert CostSpace().render(Fraction(7, 2)) == "3.5"
    table = StateTableSpace(StoreConfig(("l",), 2))
    assert table.render((Fraction(1, 3), Fraction(1, 2))) == "{[l=0]: 1/3, [l=1]: 0.5}"
