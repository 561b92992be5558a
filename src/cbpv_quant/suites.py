"""Deterministic enumeration of basic formulas for behavioural comparison.

A basic formula has no connective, constant, step, or negation at the root;
it is a chain of dissectors ending in a numeral test at nat or in `const top`
at unit, with modality formulas at producer types.  `const top`, top of the
modalities' truth space, is the unit analogue of `{n}`, since `()` is the
only value of type unit.  Bodies below the root may additionally use binary
and/or combinations, which is what lets the search express e.g. conjunctive
expectations over thunked functions.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    formula_size,
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
    target: GenType
    formulas: tuple[Formula, ...]
    size: int


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
    out = []
    if isinstance(ty, NatType):
        for n in pools.numerals:
            v = numeral(n)
            if v not in out:
                out.append(v)
    if not out:
        out.append(default_val(ty))
    return out


def enumerate_basic_formulas(
    ty: GenType,
    size: int,
    pools: Pools,
    modalities: dict[str, ModalitySpec],
) -> FormulaSuite:
    """Every basic formula of syntactic size at most `size` at the target
    type, in a deterministic order (by size, then construction order)."""
    memo: dict[tuple[int, int, bool], list[Formula]] = {}

    def go(ty: GenType, budget: int, root: bool) -> list[Formula]:
        if budget < 1:
            return []
        key = (id(ty), budget, root)
        got = memo.get(key)
        if got is not None:
            return got
        out: list[Formula] = []
        if isinstance(ty, NatType):
            out.extend(NatEq(n) for n in pools.numerals)
        elif isinstance(ty, UnitType) and modalities:
            out.append(ConstF(next(iter(modalities.values())).space.top))
        elif isinstance(ty, ThunkType):
            out.extend(ThunkF(b) for b in go(ty.com, budget - 1, False))
        elif isinstance(ty, SumType):
            for l, t in ty.variants:
                out.extend(InjF(l, b) for b in go(t, budget - 1, False))
        elif isinstance(ty, PairType):
            out.extend(FstF(b) for b in go(ty.fst, budget - 1, False))
            out.extend(SndF(b) for b in go(ty.snd, budget - 1, False))
        elif isinstance(ty, ArrowType):
            for v in args_for(ty.dom, pools):
                out.extend(ArgF(v, b) for b in go(ty.cod, budget - 1, False))
        elif isinstance(ty, ProductType):
            for l, t in ty.fields:
                out.extend(ProjF(l, b) for b in go(t, budget - 1, False))
        elif isinstance(ty, ProducerType):
            for qname in modalities:
                out.extend(Modal(qname, b) for b in go(ty.val, budget - 1, False))
        if not root and budget >= 3:
            smaller = go(ty, budget - 2, False)
            for i in range(len(smaller)):
                for j in range(i + 1, len(smaller)):
                    a, b = smaller[i], smaller[j]
                    if formula_size(a) + formula_size(b) + 1 <= budget:
                        out.append(AndF((a, b)))
                        out.append(OrF((a, b)))
        seen = set()
        uniq = []
        for f in out:
            if f not in seen:
                seen.add(f)
                uniq.append(f)
        uniq.sort(key=formula_size)
        memo[key] = uniq
        return uniq

    formulas = tuple(go(ty, size, True))
    return FormulaSuite(ty, formulas, size)
