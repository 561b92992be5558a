import math
import random
from collections import Counter

import pytest

from cbpv_quant.laws import random_value_tree, standard_modalities
from cbpv_quant.lattice import StateSetSpace, StateTableSpace, StoreConfig
from cbpv_quant.modality import (
    Interval,
    ModalityError,
    cost_modality,
    denote_limit,
    evaluate_interval,
    expectation_modality,
    make_error_lift,
    make_nondet_variants,
    power,
    prob_store_modality,
    store_modality,
    sufficient_depth,
)
from cbpv_quant.trees import Leaf, Node, Unknown, eta, leaves, map_leaves
from spec import denote_at_depth

E = expectation_modality()
C = cost_modality()
STORE = StoreConfig(("l", "r"), 3)
GSPACE = StateSetSpace(STORE)
G = store_modality(GSPACE)


def por(a, b):
    return Node("por", (a, b))


def nor(a, b):
    return Node("nor", (a, b))


def cost(c, t):
    return Node("cost", (t,), param=c)


# ---------------------------------------------------------------- depth-indexed


def test_expectation_at_depth_two():
    assert denote_at_depth(E, por(eta(1.0), eta(0.0)), 2) == 0.5


def test_depth_zero_is_bottom():
    assert denote_at_depth(E, eta(1.0), 0) == 0.0
    assert denote_at_depth(C, eta(0.0), 0) == math.inf


def test_cost_of_unknown_is_infinite():
    for n in (1, 3, 10):
        assert denote_at_depth(C, Unknown, n) == math.inf


def test_store_leaf_rule():
    assert denote_at_depth(G, eta(GSPACE.top), 1) == GSPACE.top


def test_operator_without_combinator():
    with pytest.raises(ModalityError, match="no combinator"):
        denote_at_depth(E, nor(eta(1.0), eta(0.0)), 3)


@pytest.mark.parametrize("q,space,mk", [
    (E, E.space, lambda rng: rng.choice([0.0, 0.25, 0.5, 1.0])),
    (C, C.space, lambda rng: rng.choice([0.0, 1.0, 2.0, math.inf])),
])
def test_depth_monotone(q, space, mk):
    rng = random.Random(5)
    ops = {"E": por, "C": lambda a, b: cost(1, a)}
    for _ in range(40):
        t = por(eta(mk(rng)), por(eta(mk(rng)), Unknown)) if q is E else cost(2, cost(1, eta(mk(rng))))
        vals = [denote_at_depth(q, t, n) for n in range(6)]
        for a, b in zip(vals, vals[1:]):
            assert space.leq(a, b)


# ---------------------------------------------------------------- intervals


def test_interval_with_unknown_branch():
    iv = evaluate_interval(E, por(eta(1.0), Unknown))
    assert iv == Interval(0.5, 1.0) and not iv.exact


def test_interval_exact_on_full_tree():
    iv = evaluate_interval(E, por(eta(1.0), eta(0.0)))
    assert iv == Interval(0.5, 0.5) and iv.exact


def test_unit_law_unit_interval():
    rng = random.Random(1)
    for _ in range(50):
        a = E.space.sample(rng)
        iv = evaluate_interval(E, eta(a))
        assert iv.exact and iv.lo == a


def test_bounds_tighten_along_tree_extension():
    # prune a subtree, bounds must widen
    full = por(eta(1.0), por(eta(0.0), eta(1.0)))
    pruned = por(eta(1.0), Unknown)
    fi = evaluate_interval(E, full)
    pi = evaluate_interval(E, pruned)
    assert E.space.leq(pi.lo, fi.lo)
    assert E.space.leq(fi.hi, pi.hi)


# ---------------------------------------------------------------- the evaluator


def test_interval_values_each_leaf_once_per_bound():
    # a lookup reads each child once and then indexes per state, so nested
    # lookups still value every leaf once: one call gives both of its bounds
    # for the interval, and one its value for the exact denotation
    t = Node(
        "lookup[l]",
        tuple(Node("lookup[r]", tuple(eta((i, j)) for j in range(3))) for i in range(3)),
    )
    calls = Counter()

    def top(x):
        calls[x] += 1
        return GSPACE.top

    assert evaluate_interval(G, t, lambda x: (top(x),) * 2) == Interval(GSPACE.top, GSPACE.top)
    assert calls == Counter({(i, j): 1 for i in range(3) for j in range(3)})
    calls.clear()
    assert denote_limit(G, t, top) == GSPACE.top
    assert calls == Counter({(i, j): 1 for i in range(3) for j in range(3)})


def _fill_unknown(t, value, filled):
    """t with every Unknown replaced by a leaf carrying `value`."""
    if t is Unknown:
        filled.append(t)
        return eta(value)
    if isinstance(t, Leaf):
        return t
    return Node(t.op, tuple(_fill_unknown(c, value, filled) for c in t.children), param=t.param)


@pytest.mark.parametrize("name", sorted(standard_modalities()))
def test_bounds_are_limits_with_unknown_at_bot_and_top(name):
    q = standard_modalities()[name]
    rng = random.Random(31)
    filled = []
    for _ in range(40):
        t = random_value_tree(q, rng, 4, lambda: q.space.sample(rng), p_unknown=0.3)
        iv = evaluate_interval(q, t)
        assert iv.lo == denote_limit(q, t)
        assert iv.hi == denote_limit(q, _fill_unknown(t, q.space.top, filled))
    assert filled, "no sampled tree contained Unknown"


@pytest.mark.parametrize("name", sorted(standard_modalities()))
def test_exact_denotation_matches_recurrence_at_sufficient_depth(name):
    # the recurrence at sufficient_depth stays the oracle for the unbounded index
    q = standard_modalities()[name]
    rng = random.Random(47)
    for _ in range(40):
        t = random_value_tree(q, rng, 4, lambda: q.space.sample(rng), p_unknown=0.3)
        for f in q.space.monotone_maps(rng, 2):
            assert denote_limit(q, t, f) == denote_at_depth(
                q, map_leaves(t, f), sufficient_depth(q, t)
            )


@pytest.mark.parametrize("name", sorted(standard_modalities()))
def test_interval_walk_matches_recurrence_at_sufficient_depth(name):
    # the one (lo, hi) walk against the single-valuation recurrence, run once
    # per bound: lo sends Unknown to bot and leaves to the first of their
    # pair, hi sends Unknown to top and leaves to a distinct, pointwise
    # higher second
    q = standard_modalities()[name]
    space = q.space
    rng = random.Random(59)
    filled = []
    for _ in range(40):
        t = random_value_tree(q, rng, 4, lambda: space.sample(rng), p_unknown=0.3)
        d = sufficient_depth(q, t)
        for f in space.monotone_maps(rng, 2):
            raised = {x: space.raise_of(rng, f(x)) for x in leaves(t)}
            iv = evaluate_interval(q, t, lambda x: (f(x), raised[x]))
            assert iv.lo == denote_at_depth(q, map_leaves(t, f), d)
            upper = _fill_unknown(map_leaves(t, raised.__getitem__), space.top, filled)
            assert iv.hi == denote_at_depth(q, upper, d)
            assert iv.exact == (iv.lo == iv.hi)
    assert filled, "no sampled tree contained Unknown"


def test_exact_denotation_is_not_bounded_by_sufficient_depth():
    # sufficient_depth exceeds the default recursion limit near 330 levels of
    # a cost chain; the exact denotation never calls it
    chain = eta(0.0)
    for _ in range(400):
        chain = cost(1, chain)
    assert denote_limit(C, chain) == 400.0


def test_fold_takes_one_frame_per_unary_level():
    # a cost chain of 900 nodes folds on every supported Python; the
    # recurrence took two frames per level before 3.12 and stopped near 500
    chain = eta(0.0)
    for _ in range(900):
        chain = cost(1, chain)
    assert denote_limit(C, chain) == 900.0
    assert denote_limit(power(C, 2), chain, lambda x: (x, x + 1.0)) == (900.0, 901.0)


# ---------------------------------------------------------------- the k-valuation fold


def _with_error_lifts():
    """The shipped modalities and three error lifts, whose nullary raise[e]
    nodes give a combinator no children to read a position from."""
    mods = standard_modalities()
    lifted = {
        "Ef": make_error_lift(mods["E"], {"e": 0.25, "d": 1.0}, ("e", "d")),
        "Cpesf": make_error_lift(mods["Cpes"], {"e": 2.0}, ("e",)),
        "Gf": make_error_lift(G, {"e": frozenset(s for s in GSPACE.all_states if s[0] == 1)}, ("e",)),
    }
    return {**mods, **lifted}


_LIFTED = _with_error_lifts()


@pytest.mark.parametrize("name", sorted(_LIFTED))
def test_k_valuation_fold_is_k_single_folds(name):
    # one walk of power(q, k) under a valuation into k-tuples gives, position
    # by position, the k folds of q, valuing each leaf once
    q = _LIFTED[name]
    space = q.space
    rng = random.Random(71)
    nullary = 0
    for k in (1, 2, 4):
        qk = power(q, k)
        assert qk.space.bot == (space.bot,) * k and qk.space.top == (space.top,) * k
        for _ in range(30):
            t = random_value_tree(q, rng, 4, lambda: space.sample(rng), p_unknown=0.3)
            nullary += _count_nullary(t)
            hs = space.monotone_maps(rng, k)
            calls = []
            got = denote_limit(qk, t, lambda x: calls.append(x) or tuple(h(x) for h in hs))
            assert len(got) == k
            assert got == tuple(denote_limit(q, t, h) for h in hs)
            assert calls == list(leaves(t))
            assert qk.space.leq(got, got)
    if name.endswith("f"):
        assert nullary, "no sampled tree had a raise node"


def _count_nullary(t):
    if not isinstance(t, Node):
        return 0
    return (not t.children) + sum(_count_nullary(c) for c in t.children)


def test_power_order_is_pointwise():
    e3 = power(E, 3).space
    assert e3.leq((0.0, 0.5, 1.0), (0.25, 0.5, 1.0))
    assert not e3.leq((0.0, 0.5, 1.0), (0.25, 0.25, 1.0))
    c2 = power(C, 2).space
    assert c2.leq((math.inf, 3.0), (2.0, 3.0)) and not c2.leq((1.0, 3.0), (2.0, 3.0))


@pytest.mark.parametrize(
    "fold",
    [
        denote_limit,
        evaluate_interval,
        lambda q, t: denote_limit(power(q, 3), t, lambda x: (x,) * 3),
    ],
    ids=["denote_limit", "evaluate_interval", "power"],
)
def test_fold_refuses_a_missing_combinator_and_a_short_lookup(fold):
    with pytest.raises(ModalityError, match="'nor' has no combinator"):
        fold(E, por(eta(1.0), nor(eta(1.0), eta(0.0))))
    short = Node("lookup[l]", (eta(GSPACE.top), eta(GSPACE.top)))
    with pytest.raises(ModalityError, match="2 children, fewer than 3"):
        fold(G, Node("update[r]", (short,), param=1))


# ---------------------------------------------------------------- leaf maps


def test_lift_constant_one():
    t = por(eta("a"), por(eta("b"), eta("c")))
    iv = evaluate_interval(E, t, lambda _: (1.0, 1.0))
    assert iv.exact and iv.lo == 1.0


def test_lift_cost_sums_nodes():
    t = cost(2, cost(3, eta("x")))
    iv = evaluate_interval(C, t, {"x": (0.0, 0.0)}.__getitem__)
    assert iv.exact and iv.lo == 5.0


def test_lift_update_total_target():
    t = Node("update[l]", (eta("w"),), param=1)
    iv = evaluate_interval(G, t, {"w": (GSPACE.top, GSPACE.top)}.__getitem__)
    assert iv.exact and iv.lo == GSPACE.top


# ---------------------------------------------------------------- E oracle

def brute_force_expectation(t):
    """Independent oracle: enumerate root-to-leaf paths of a finite por-tree
    and sum 2^-depth * leaf over them (Unknown contributes nothing)."""
    paths = []

    def walk(node, depth):
        if node == Unknown:
            return
        if isinstance(node, Leaf):
            paths.append((depth, node.value))
            return
        for c in node.children:
            walk(c, depth + 1)

    walk(t, 0)
    return sum(v / 2 ** d for d, v in paths)


def random_por_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return Unknown if rng.random() < 0.1 else eta(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]))
    return por(random_por_tree(rng, depth - 1), random_por_tree(rng, depth - 1))


@pytest.mark.parametrize("seed", range(30))
def test_expectation_matches_path_sum(seed):
    rng = random.Random(seed)
    t = random_por_tree(rng, 5)
    assert abs(denote_limit(E, t) - brute_force_expectation(t)) <= 1e-12


# ---------------------------------------------------------------- nondet variants


def test_nondet_join_meet_values():
    eo, ep = make_nondet_variants(E)
    assert denote_limit(eo, nor(eta(1.0), eta(0.0))) == 1.0
    assert denote_limit(ep, nor(eta(1.0), eta(0.0))) == 0.0


def test_nondet_cost_searches_min_and_max():
    co, cp = make_nondet_variants(C)
    t = nor(eta(0.0), cost(3, eta(0.0)))
    assert denote_limit(co, t) == 0.0
    assert denote_limit(cp, t) == 3.0


def test_nondet_variants_agree_off_nor():
    eo, ep = make_nondet_variants(E)
    rng = random.Random(3)
    for _ in range(25):
        t = random_por_tree(rng, 4)
        assert denote_limit(eo, t) == denote_limit(ep, t) == denote_limit(E, t)


def test_nondet_refuses_existing_nor():
    eo, _ = make_nondet_variants(E)
    with pytest.raises(ModalityError, match="already interprets nor"):
        make_nondet_variants(eo)


# ---------------------------------------------------------------- error lifts


def test_error_lift_example_with_store():
    f = {"e": frozenset(s for s in GSPACE.all_states if s[0] == 1)}
    gf = make_error_lift(G, f, ("e",))
    t_good = Node("update[l]", (Node("raise[e]", ()),), param=1)
    t_bad = Node("update[l]", (Node("raise[e]", ()),), param=0)
    assert denote_limit(gf, t_good) == GSPACE.top
    assert denote_limit(gf, t_bad) == GSPACE.bot


def test_error_lift_agrees_on_raise_free_trees():
    ef = make_error_lift(E, {"e": 0.25}, ("e",))
    rng = random.Random(9)
    for _ in range(20):
        t = random_por_tree(rng, 4)
        assert denote_limit(ef, t) == denote_limit(E, t)


def test_error_lift_requires_total_valuation():
    with pytest.raises(ModalityError, match="not total"):
        make_error_lift(E, {}, ("e",))


# ---------------------------------------------------------------- store recurrence details


def test_store_lookup_consumes_stored_magnitude():
    # the child of a lookup at state s is consulted at index max(0, n - s(l));
    # with value 2 stored at l the leaf needs three extra index steps
    t = Node("lookup[l]", tuple(eta(GSPACE.top) for _ in range(3)))
    shallow = denote_at_depth(G, t, 2)
    assert (2, 0) not in shallow and (2, 1) not in shallow and (2, 2) not in shallow
    deep = denote_at_depth(G, t, 4)
    assert deep == GSPACE.top


def test_prob_store_threads_state():
    store = StoreConfig(("l",), 2)
    tspace = StateTableSpace(store)
    eg = prob_store_modality(tspace)
    # returns true exactly when l holds 1 at lookup time
    t = Node("lookup[l]", (eta(tspace.bot), eta(tspace.top)))
    got = denote_limit(eg, t)
    assert got == (0.0, 1.0)  # states in order (0,), (1,)
    upd = Node("update[l]", (t,), param=1)
    assert denote_limit(eg, upd) == (1.0, 1.0)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 7])
def test_update_rules_match_set_loc(k):
    # the gather tables give, per state s, the child's value at s with the
    # location set to k mod V, as set_loc defines it
    tspace = StateTableSpace(STORE)
    eg = prob_store_modality(tspace)
    states = GSPACE.all_states
    rng = random.Random(k)
    for li, loc in enumerate(STORE.locations):
        node = Node(f"update[{loc}]", (eta(None),), param=k)
        target = frozenset(s for s in states if rng.random() < 0.5)
        want = frozenset(s for s in states if STORE.set_loc(s, li, k) in target)
        assert G.rules[f"update[{loc}]"].fn(node, [target]) == want
        row = tuple(rng.random() for _ in states)
        index = {s: i for i, s in enumerate(states)}
        want_row = tuple(row[index[STORE.set_loc(s, li, k)]] for s in states)
        assert eg.rules[f"update[{loc}]"].fn(node, [row]) == want_row


def test_update_rules_reject_a_missing_parameter_as_set_loc_does():
    node = Node("update[l]", (eta(None),))
    with pytest.raises(TypeError) as want:
        STORE.set_loc(GSPACE.all_states[0], 0, node.param)
    for q in (G, prob_store_modality(StateTableSpace(STORE))):
        with pytest.raises(TypeError) as got:
            q.rules["update[l]"].fn(node, [q.space.top])
        assert str(got.value) == str(want.value)


# ---------------------------------------------------------------- cross-modality invariants


def test_depth_monotone_all_shipped_modalities():
    from cbpv_quant.laws import random_value_tree, standard_modalities

    for name, q in standard_modalities().items():
        rng = random.Random(17)
        space = q.space
        for _ in range(30):
            t = random_value_tree(q, rng, 4, lambda: space.sample(rng))
            vals = [denote_at_depth(q, t, n) for n in range(0, 14, 2)]
            for a, b in zip(vals, vals[1:]):
                assert space.leq(a, b), f"depth monotonicity broke for {name}"


def test_bounds_soundness_under_truncation_all_modalities():
    # pruning subtrees to Unknown widens the certified interval
    from cbpv_quant.laws import random_value_tree, standard_modalities
    from cbpv_quant.trees import tree_depth, truncate
    from spec import tree_leq

    for name, q in standard_modalities().items():
        rng = random.Random(23)
        space = q.space
        for _ in range(25):
            t = random_value_tree(q, rng, 4, lambda: space.sample(rng), p_unknown=0.0)
            full = evaluate_interval(q, t)
            for k in range(tree_depth(t) + 1):
                part = truncate(t, k)
                assert tree_leq(part, t)
                iv = evaluate_interval(q, part)
                assert space.leq(iv.lo, full.lo), f"lower bound unsound for {name}"
                assert space.leq(full.hi, iv.hi), f"upper bound unsound for {name}"


def test_coin_tree_lift_with_indicator():
    # the two-flip tree with a scheduler choice in the middle, valued through
    # an indicator of the leaf "one"
    eo, ep = make_nondet_variants(E)
    coin = por(eta("zero"), por(nor(eta("zero"), eta("one")), eta("one")))
    ind = {"zero": (0.0, 0.0), "one": (1.0, 1.0)}.__getitem__
    assert evaluate_interval(eo, coin, ind) == Interval(0.5, 0.5)
    assert evaluate_interval(ep, coin, ind) == Interval(0.25, 0.25)
