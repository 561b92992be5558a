"""Deterministic enumeration of basic formulas for behavioural comparison.

A basic formula has no connective, constant, step, or negation at the root;
it is a chain of dissectors ending in a numeral test at nat or in `const top`
at unit, with modality formulas at producer types.  `const top`, top of the
modalities' truth space, is the unit analogue of `{n}`, since `()` is the
only value of type unit.  Bodies below the root may additionally use binary
and/or combinations, which is what lets the search express e.g. conjunctive
expectations over thunked functions.

The suite is built one exact size at a time: level k applies each dissector
to its child type's level k - 1 and, below the root, pairs two distinct
formulas from smaller levels whose sizes sum to k - 1, so sizes are known
where formulas are made and no formula is built twice.  `compare` scans the
levels in order; `equivalence.find_distinguishing_formula` walks them one
at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any

from .formulas import (
    AndF,
    ArgF,
    ConstF,
    Formula,
    FstF,
    InjF,
    Modal,
    NatEq,
    OrF,
    ProjF,
    SndF,
    ThunkF,
)
from .modality import ModalitySpec
from .syntax import (
    ArrowType,
    CbpvError,
    ComType,
    GenType,
    Inj,
    Lambda,
    NatType,
    Pair,
    PairType,
    ProducerType,
    ProductType,
    Record,
    Return,
    SumType,
    Thunk,
    ThunkType,
    UnitType,
    UnitVal,
    ValTerm,
    ValType,
    numeral,
)


class SuiteError(CbpvError):
    pass


@dataclass(frozen=True)
class Pools:
    """Generation material: numerals for {n} tests and nat arguments."""

    numerals: tuple[int, ...] = (0, 1, 7)
    # read by no library code, but bench/workloads.py still passes it
    constants: tuple[Any, ...] = ()


@dataclass(frozen=True)
class FormulaSuite:
    """The basic formulas at `target`, `levels[k - 1]` holding those of
    size exactly k."""

    target: GenType
    levels: tuple[tuple[Formula, ...], ...]

    @property
    def formulas(self) -> tuple[Formula, ...]:
        return tuple(chain.from_iterable(self.levels))

    @property
    def size(self) -> int:
        return len(self.levels)


def default_val(ty: ValType) -> ValTerm:
    if isinstance(ty, UnitType):
        return UnitVal()
    if isinstance(ty, NatType):
        return numeral(0)
    if isinstance(ty, ThunkType):
        return Thunk(default_com(ty.com))
    if isinstance(ty, SumType):
        l, t = ty.variants[0]
        return Inj(l, default_val(t))
    if isinstance(ty, PairType):
        return Pair(default_val(ty.fst), default_val(ty.snd))
    raise SuiteError(f"no default value for {ty}")


def default_com(ty: ComType):
    if isinstance(ty, ProducerType):
        return Return(default_val(ty.val))
    if isinstance(ty, ArrowType):
        return Lambda("_x", ty.dom, default_com(ty.cod))
    if isinstance(ty, ProductType):
        return Record(tuple((l, default_com(t)) for l, t in ty.fields))
    raise SuiteError(f"no default computation for {ty}")


def args_for(ty: ValType, pools: Pools) -> list[ValTerm]:
    """Closed argument candidates of the given type: the pool's distinct
    numerals at nat, a default value of the type otherwise."""
    if isinstance(ty, NatType) and pools.numerals:
        return [numeral(n) for n in dict.fromkeys(pools.numerals)]
    return [default_val(ty)]


def enumerate_basic_formulas(
    ty: GenType,
    size: int,
    pools: Pools,
    modalities: dict[str, ModalitySpec],
) -> FormulaSuite:
    """Every basic formula of syntactic size at most `size` at the target
    type, one level per exact size, each level in construction order."""
    memo: dict[tuple[GenType, int, bool], list[Formula]] = {}

    def at(ty: GenType, k: int, root: bool) -> list[Formula]:
        """The formulas of size exactly k: a dissector over its child type's
        level k - 1, or below the root an and/or of two distinct smaller
        formulas, in list order, whose sizes sum to k - 1."""
        if k < 1:
            return []
        key = (ty, k, root)
        got = memo.get(key)
        if got is not None:
            return got
        out: list[Formula] = []
        if k == 1 and isinstance(ty, NatType):
            out.extend(NatEq(n) for n in dict.fromkeys(pools.numerals))
        elif k == 1 and isinstance(ty, UnitType) and modalities:
            out.append(ConstF(next(iter(modalities.values())).space.top))
        elif isinstance(ty, ThunkType):
            out.extend(ThunkF(b) for b in at(ty.com, k - 1, False))
        elif isinstance(ty, SumType):
            for l, t in ty.variants:
                out.extend(InjF(l, b) for b in at(t, k - 1, False))
        elif isinstance(ty, PairType):
            out.extend(FstF(b) for b in at(ty.fst, k - 1, False))
            out.extend(SndF(b) for b in at(ty.snd, k - 1, False))
        elif isinstance(ty, ArrowType):
            for v in args_for(ty.dom, pools):
                out.extend(ArgF(v, b) for b in at(ty.cod, k - 1, False))
        elif isinstance(ty, ProductType):
            for l, t in ty.fields:
                out.extend(ProjF(l, b) for b in at(t, k - 1, False))
        elif isinstance(ty, ProducerType):
            for qname in modalities:
                out.extend(Modal(qname, b) for b in at(ty.val, k - 1, False))
        if not root:
            for i in range(1, (k - 1) // 2 + 1):
                small, large = at(ty, i, False), at(ty, k - 1 - i, False)
                for j, a in enumerate(small):
                    for b in large[j + 1 :] if i == k - 1 - i else large:
                        out.append(AndF((a, b)))
                        out.append(OrF((a, b)))
        memo[key] = out
        return out

    return FormulaSuite(ty, tuple(tuple(at(ty, k, True)) for k in range(1, size + 1)))
