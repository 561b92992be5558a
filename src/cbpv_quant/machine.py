"""CK-machine small-step semantics and fuel-bounded effect-tree construction.

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
configuration, so a configuration that repeats within one silent stretch
never reaches an effect or a terminal: the stretch is Unknown at every fuel.
Brent's cycle detection ("An improved Monte Carlo factorization algorithm",
BIT 20, 1980) finds the repeat, so a silent cycle ends as Unknown after
O(cycle) steps, not O(fuel).
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class ToFrame:
    binder: str
    body: ComTerm


@dataclass(frozen=True)
class ArgFrame:
    value: object  # ValTerm


@dataclass(frozen=True)
class ProjFrame:
    label: str


Frame = Union[ToFrame, ArgFrame, ProjFrame]
Stack = tuple[Frame, ...]  # innermost frame last

EMPTY_STACK: Stack = ()


@dataclass(frozen=True)
class Config:
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
# Effect trees


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
    return _approx(Config(EMPTY_STACK, m), fuel, signature, width)


def _approx(c: Config, n: int, sig: EffectSignature, width: int) -> EffectTree:
    # Brent: `mark` is saved after each window of `window` steps, the window
    # doubling; a step that lands on `mark` closes a silent cycle
    mark, window, since = c, 1, 0
    while True:
        if n == 0:
            return Unknown
        m = c.focus
        if isinstance(m, EffOp):
            param = None
            if m.param is not None:
                param = numeral_value(m.param)
                if param is None:
                    raise StuckError(f"effect parameter of {m.op} is not a numeral: {m.param}")
            conts = continuations(c, sig, width)
            return Node(m.op, tuple(_approx(cc, n - 1, sig, width) for cc in conts), param)
        if not c.stack and is_terminal(m):
            return Leaf(m)
        c = machine_step(c)
        n -= 1
        # every term a configuration holds was part of some focus, so hashing
        # each focus keeps all their hashes cached and `==` rejects unequal
        # terms at the root, not after walking them (long numerals)
        if hash(c.focus) == hash(mark.focus) and c == mark:
            return Unknown
        since += 1
        if since == window:
            mark, window, since = c, 2 * window, 0
