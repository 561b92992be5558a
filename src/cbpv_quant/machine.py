"""CK-machine small-step semantics, configuration graphs and fuel-bounded
effect-tree construction.

A configuration pairs a stack of evaluation frames with a focused computation.
A machine step is silent: `machine_step` gives the next configuration, and
refuses an effect node or a terminal under the empty stack, which are read
off the focus instead (`continuations` gives an effect node's children).
`eval_tree` builds the depth-n approximation of a term's effect tree: fuel 0
yields Unknown, a terminal under the empty stack yields a leaf, and every
machine step or effect node consumes one fuel unit, with effect children
evaluated at one unit less.  A nat-indexed node (a store lookup) gets one
child per storable value, 0..width-1, built eagerly into the node's tuple, so
the finished tree is plain data that folds read without machine work.

Between two effect nodes the machine is a pure function of the
configuration, so a silent stretch (the machine steps from a configuration to
the next effect node or terminal) depends on its first configuration alone.
A table keyed by configuration holds one `_Stretch` per start, and one
function, `_run`, steps the machine: the first time a stretch runs to its
end, its entry records where it ends, how many steps it took, the end's
operator and parameter (or its leaf) and, for an effect node, the entries
its children's configurations start.  A run that reaches its step limit
first is not recorded, and a larger limit runs it again.  A configuration
that repeats within one stretch never reaches an effect or a terminal: the
stretch is a silent cycle.  Brent's cycle detection ("An improved Monte
Carlo factorization algorithm", BIT 20, 1980) finds the repeat on a
stretch's first run, so a silent cycle ends after O(cycle) steps, not
O(fuel), and is recorded as such.

The table is the term's configuration graph.  `explore` runs every stretch
reachable from the start once, with no fuel, within a budget of machine
steps, and returns the graph, marked open when the budget runs out first;
`modality.least_fixed_point` solves a modality over a closed one.
`eval_tree` unfolds a table of its own at a fuel: every later start from an
equal configuration reads the entry and charges the same fuel, so the tree
is the one the machine would build step by step, and the machine steps of
a finite-state loop follow its distinct configurations, not its fuel.

Trees are shared (hash-consing, as in Filliatre & Conchon, "Type-safe
modular hash-consing", ML Workshop 2006).  A child configuration is looked up
once, when its parent's stretch first ends, and the parent's entry keeps the
child's entry, so a later visit reads no table and compares no
configurations.  The subtree from a configuration at fuel n depends only on
its stretch and n, so each entry keeps the subtrees built from it, keyed by
fuel (a terminal's one leaf serves every fuel), and a second visit to the same (configuration, fuel) returns the same
object: a branching finite-state loop builds one node per (configuration,
fuel), not a tree that doubles with fuel.  Node equality, `cli`'s printers
and the `trees` walkers read a shared tree as if it were written out in
full; `modality.evaluate_interval` folds each distinct node once.
"""

from __future__ import annotations

from typing import Optional, Union

from .syntax import (
    Apply,
    CaseNat,
    CasePair,
    CaseSum,
    CbpvError,
    ComTerm,
    EffOp,
    EffectSignature,
    Fix,
    Force,
    Inj,
    Lambda,
    LetVal,
    NatIndexed,
    Pair,
    Proj,
    Record,
    Return,
    SeqTo,
    Succ,
    Thunk,
    Zero,
    _HashCached,
    _hash_cached,
    is_terminal,
    numeral,
    numeral_value,
    substitute,
)
from .trees import EffectTree, Leaf, Node, Unknown


class StuckError(CbpvError):
    """The machine reached a stuck state; unreachable on well-typed input."""


# --------------------------------------------------------------------------
# Stacks and configurations


@_hash_cached
class ToFrame(_HashCached):
    binder: str
    body: ComTerm


@_hash_cached
class ArgFrame(_HashCached):
    value: object  # ValTerm


@_hash_cached
class ProjFrame(_HashCached):
    label: str


Frame = Union[ToFrame, ArgFrame, ProjFrame]
Stack = tuple[Frame, ...]  # innermost frame last

EMPTY_STACK: Stack = ()


@_hash_cached
class Config(_HashCached):
    stack: Stack
    focus: ComTerm


# --------------------------------------------------------------------------
# Direct reduction


def reduce(m: ComTerm) -> Optional[ComTerm]:
    """The seven direct reduction rules; None when no rule applies."""
    if isinstance(m, CaseNat):
        if isinstance(m.scrutinee, Zero):
            return m.zero_branch
        if isinstance(m.scrutinee, Succ):
            return substitute(m.succ_branch, {m.succ_binder: m.scrutinee.arg})
        return None
    if isinstance(m, LetVal):
        return substitute(m.body, {m.binder: m.value})
    if isinstance(m, Force):
        if isinstance(m.value, Thunk):
            return m.value.com
        return None
    if isinstance(m, CaseSum):
        v = m.scrutinee
        if isinstance(v, Inj):
            br = m.branch(v.label)
            if br is None:
                return None
            x, body = br
            return substitute(body, {x: v.arg})
        return None
    if isinstance(m, CasePair):
        v = m.scrutinee
        if isinstance(v, Pair):
            return substitute(m.body, {m.fst_binder: v.fst, m.snd_binder: v.snd})
        return None
    if isinstance(m, Fix):
        return Apply(m.com, Thunk(Fix(m.com)))
    return None


# --------------------------------------------------------------------------
# Machine steps


def machine_step(c: Config) -> Config:
    """The configuration one silent step after `c`.  An effect node or a
    terminal under the empty stack is read off the focus instead, so `c`
    holding one is a StuckError here, as is any other stuck state."""
    m = c.focus
    if is_terminal(m) and c.stack:
        top = c.stack[-1]
        rest = c.stack[:-1]
        if isinstance(m, Return) and isinstance(top, ToFrame):
            return Config(rest, substitute(top.body, {top.binder: m.value}))
        if isinstance(m, Lambda) and isinstance(top, ArgFrame):
            return Config(rest, substitute(m.body, {m.binder: top.value}))
        if isinstance(m, Record) and isinstance(top, ProjFrame):
            body = m.field(top.label)
            if body is not None:
                return Config(rest, body)
        raise StuckError(f"terminal {m} under incompatible frame {top}")
    if isinstance(m, SeqTo):
        return Config(c.stack + (ToFrame(m.binder, m.body),), m.com)
    if isinstance(m, Apply):
        return Config(c.stack + (ArgFrame(m.arg),), m.com)
    if isinstance(m, Proj):
        return Config(c.stack + (ProjFrame(m.label),), m.com)
    reduced = reduce(m)
    if reduced is not None:
        return Config(c.stack, reduced)
    raise StuckError(f"no rule applies to {m}")


def continuations(c: Config, sig: EffectSignature, width: int) -> tuple[Config, ...]:
    """The configurations an effect node's children continue with: one per
    child, or, for an operator the signature marks nat-indexed, one per
    value 0..width-1 substituted for the binder."""
    m = c.focus
    desc = sig.get(m.op)
    if desc is not None and isinstance(desc.arity, NatIndexed):
        return tuple(Config(c.stack, substitute(m.body, {m.binder: numeral(k)})) for k in range(width))
    return tuple(Config(c.stack, child) for child in m.children)


# --------------------------------------------------------------------------
# Stretches: the configuration graph


class _Stretch:
    """The silent stretch from configuration `start`, filled in on its first
    run to the end (`_run`): it reaches `end`, an effect node or a terminal
    under the empty stack, after `steps` machine steps (`end` is None for a
    silent cycle).  An effect end records its operator `op` and numeral
    `param` once, and its children continue with the stretches `kids`; a
    terminal end has `op` None and is the tree `leaf`.  A stretch is thus
    also the node its combinator reads (`op`, `param`) in a fixed-point
    solve.  `steps` is None until a run reaches the end.  `trees` holds the
    subtree built from `start` at each fuel so far."""

    __slots__ = ("start", "steps", "end", "op", "param", "kids", "leaf", "trees")

    def __init__(self, start: Config):
        self.start = start
        self.steps: Optional[int] = None
        self.end: Optional[Config] = None
        self.op: Optional[str] = None
        self.param: Optional[int] = None
        self.kids: tuple[_Stretch, ...] = ()
        self.leaf: Optional[Leaf] = None
        self.trees: dict[int, EffectTree] = {}


def _stretch(c: Config, table: dict[Config, _Stretch]) -> _Stretch:
    """The table's stretch from configuration c, added if c is new."""
    s = table.get(c)
    if s is None:
        s = table[c] = _Stretch(c)
    return s


def _run(s: _Stretch, limit: int, sig: EffectSignature, width: int, table: dict[Config, _Stretch]) -> bool:
    """Run the stretch s from its start for at most `limit` machine steps.
    True when it ends, at an effect node, a terminal or a silent cycle, and
    is filled in; False when the limit comes first, leaving s as it was, so
    a larger limit runs it again from its start."""
    c, steps = s.start, 0
    # Brent: `mark` is saved after each window of `window` steps, the
    # window doubling; a step that lands on `mark` closes a silent cycle
    mark, window, since = c, 1, 0
    while not (isinstance(c.focus, EffOp) or not c.stack and is_terminal(c.focus)):
        if steps == limit:
            return False
        c = machine_step(c)
        steps += 1
        # every term a configuration holds was part of some focus, so
        # hashing each focus keeps all their hashes cached and `==` rejects
        # unequal terms at the root, not after walking them (long numerals)
        if hash(c.focus) == hash(mark.focus) and c == mark:
            s.steps = steps
            return True
        since += 1
        if since == window:
            mark, window, since = c, 2 * window, 0
    s.steps, s.end = steps, c
    m = c.focus
    if isinstance(m, EffOp):
        s.op = m.op
        if m.param is not None:
            s.param = numeral_value(m.param)
            if s.param is None:
                raise StuckError(f"effect parameter of {m.op} is not a numeral: {m.param}")
        s.kids = tuple([_stretch(cc, table) for cc in continuations(c, sig, width)])
    else:
        s.leaf = Leaf(m)
    return True


class Graph:
    """A term's configuration graph: its stretch table, entered at `root`.
    Every stretch in `stretches` has run to its end when `closed`; otherwise
    the budget ran out first, and the stretches without `steps` are the
    unexplored ones."""

    __slots__ = ("root", "stretches", "closed")

    def __init__(self, root: _Stretch, stretches: tuple[_Stretch, ...], closed: bool):
        self.root = root
        self.stretches = stretches
        self.closed = closed


def explore(m: ComTerm, signature: EffectSignature, width: int = 3, budget: int = 4096) -> Graph:
    """The configuration graph of m, with no fuel: every stretch reachable
    from the empty stack and m runs once (`_run`), within `budget` machine
    steps in all.  A silent cycle is a stretch without an end.  The graph is
    open (not `closed`) when the budget runs out before every stretch ends."""
    table: dict[Config, _Stretch] = {}
    root = _stretch(Config(EMPTY_STACK, m), table)
    todo = [root]
    closed = True
    while todo:
        s = todo.pop()
        if s.steps is not None:
            continue
        if not _run(s, budget, signature, width, table):
            closed = False
            break
        budget -= s.steps
        todo.extend(s.kids)
    return Graph(root, tuple(table.values()), closed)


# --------------------------------------------------------------------------
# Effect trees: the graph unfolded at a fuel


def eval_tree(
    m: ComTerm,
    fuel: int,
    signature: EffectSignature,
    width: int = 3,
) -> EffectTree:
    """The fuel-indexed approximation |empty stack, m|_fuel of m's effect tree.

    `width` is the number of children of a nat-indexed node: a store lookup
    with value bound V has children 0..V-1, one per storable value, so pass
    the store's value bound (the default is `RunConfig`'s).
    """
    if fuel < 0:
        raise CbpvError("fuel must be non-negative")
    table: dict[Config, _Stretch] = {}
    return _approx(_stretch(Config(EMPTY_STACK, m), table), fuel, signature, width, table)


def _approx(s: _Stretch, n: int, sig: EffectSignature, width: int, table: dict[Config, _Stretch]) -> EffectTree:
    if s.steps is None and not _run(s, n, sig, width, table):
        # out of fuel before the stretch ends: more fuel runs it again
        return Unknown
    if s.end is None or n <= s.steps:
        return Unknown
    if s.op is None:
        return s.leaf
    t = s.trees.get(n)
    if t is None:
        k = n - s.steps - 1
        kids = s.kids
        # one or two children, the common arities, are read without a
        # comprehension, so a tree level takes one frame
        if len(kids) == 2:
            a, b = kids
            t = Node(s.op, (_approx(a, k, sig, width, table), _approx(b, k, sig, width, table)), s.param)
        elif len(kids) == 1:
            t = Node(s.op, (_approx(kids[0], k, sig, width, table),), s.param)
        else:
            t = Node(s.op, tuple([_approx(kid, k, sig, width, table) for kid in kids]), s.param)
        s.trees[n] = t
    return t
