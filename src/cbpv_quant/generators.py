"""Seeded generation of closed, well-typed programs.

Generation is type-directed: every produced term synthesizes the requested
type under the active signature.  Fix is included with low weight so that
fuel-exhausted (Unknown) branches show up in generated effect trees.
"""

from __future__ import annotations

import random
from typing import Optional

from .syntax import (
    Apply,
    ArrowType,
    CaseNat,
    ComTerm,
    ComType,
    EffOp,
    EffectSignature,
    FiniteArity,
    Fix,
    Force,
    Inj,
    Lambda,
    LetVal,
    NAT,
    NatIndexed,
    NatParam,
    NatType,
    Pair,
    PairType,
    ProducerType,
    ProductType,
    Record,
    Return,
    SeqTo,
    SumType,
    Thunk,
    ThunkType,
    UnitType,
    UnitVal,
    ValTerm,
    ValType,
    Var,
    numeral,
)


# numerals are drawn from 0..MAX_NAT; a computation is a fixpoint with
# probability FIX_WEIGHT
MAX_NAT = 4
FIX_WEIGHT = 0.03


class TermGen:
    def __init__(self, rng: random.Random, signature: EffectSignature):
        self.rng = rng
        self.sig = signature
        self._fresh = 0

    def fresh(self) -> str:
        self._fresh += 1
        return f"x{self._fresh}"

    # ---- values

    def val(self, ctx: dict[str, ValType], ty: ValType, depth: int) -> ValTerm:
        rng = self.rng
        candidates = [name for name, t in ctx.items() if t == ty]
        if candidates and rng.random() < 0.5:
            return Var(rng.choice(candidates))
        if isinstance(ty, UnitType):
            return UnitVal()
        if isinstance(ty, NatType):
            return numeral(rng.randrange(MAX_NAT + 1))
        if isinstance(ty, ThunkType):
            return Thunk(self.com(ctx, ty.com, max(0, depth - 1)))
        if isinstance(ty, SumType):
            label, comp = rng.choice(ty.variants)
            return Inj(label, self.val(ctx, comp, max(0, depth - 1)))
        if isinstance(ty, PairType):
            return Pair(self.val(ctx, ty.fst, max(0, depth - 1)), self.val(ctx, ty.snd, max(0, depth - 1)))
        raise ValueError(f"cannot generate a value of type {ty}")

    # ---- computations

    def com(self, ctx: dict[str, ValType], ty: ComType, depth: int) -> ComTerm:
        rng = self.rng
        if depth <= 0:
            return self._terminal(ctx, ty, depth)
        options = ["terminal", "seq", "let", "force_thunk", "beta", "case"]
        for d in self.sig:
            # nullary operators (raise) synthesize no type of their own and
            # would push generated programs outside the synthesizable fragment
            if isinstance(d.arity, FiniteArity) and d.arity.n == 0:
                continue
            options.append(f"op:{d.name}")
        if rng.random() < FIX_WEIGHT:
            options = ["fix"]
        choice = rng.choice(options)
        if choice == "terminal":
            return self._terminal(ctx, ty, depth)
        if choice == "seq":
            inner: ComType = ProducerType(NAT)
            x = self.fresh()
            prod = self.com(ctx, inner, depth - 1)
            body = self.com({**ctx, x: NAT}, ty, depth - 1)
            return SeqTo(prod, x, body)
        if choice == "let":
            x = self.fresh()
            v = self.val(ctx, NAT, depth - 1)
            return LetVal(x, v, self.com({**ctx, x: NAT}, ty, depth - 1))
        if choice == "force_thunk":
            return Force(Thunk(self.com(ctx, ty, depth - 1)))
        if choice == "beta":
            x = self.fresh()
            body = self.com({**ctx, x: NAT}, ty, depth - 1)
            return Apply(Lambda(x, NAT, body), self.val(ctx, NAT, depth - 1))
        if choice == "case":
            x = self.fresh()
            return CaseNat(
                self.val(ctx, NAT, depth - 1),
                self.com(ctx, ty, depth - 1),
                x,
                self.com({**ctx, x: NAT}, ty, depth - 1),
            )
        if choice == "fix":
            f = self.fresh()
            body = self._terminal({**ctx, f: ThunkType(ty)}, ty, depth - 1)
            if self.sig.ops and isinstance(ty, ProducerType):
                # give the fixpoint a chance to stop: an effect node guarding
                # the recursive call where the signature allows
                d = next(iter(self.sig))
                if isinstance(d.arity, FiniteArity) and d.arity.n == 2:
                    body = EffOp(d.name, None, (body, Force(Var(f))))
            return Fix(Lambda(f, ThunkType(ty), body))
        assert choice.startswith("op:")
        d = self.sig.ops[choice[3:]]
        if isinstance(d.arity, FiniteArity):
            kids = tuple(self.com(ctx, ty, depth - 1) for _ in range(d.arity.n))
            if d.arity.n == 0:
                return EffOp(d.name, None, ())
            return EffOp(d.name, None, kids)
        if isinstance(d.arity, NatParam):
            kids = tuple(self.com(ctx, ty, depth - 1) for _ in range(d.arity.n))
            return EffOp(d.name, numeral(self.rng.randrange(MAX_NAT + 1)), kids)
        assert isinstance(d.arity, NatIndexed)
        x = self.fresh()
        return EffOp(d.name, None, (), x, self.com({**ctx, x: NAT}, ty, depth - 1))

    def _terminal(self, ctx: dict[str, ValType], ty: ComType, depth: int) -> ComTerm:
        if isinstance(ty, ProducerType):
            v = self.val(ctx, ty.val, depth)
            if not _has_sum(ty.val):
                return Return(v)
            # an injection only checks, so it is returned through an
            # annotated identity, whose argument is a checking position
            x = self.fresh()
            return Apply(Lambda(x, ty.val, Return(Var(x))), v)
        if isinstance(ty, ArrowType):
            x = self.fresh()
            return Lambda(x, ty.dom, self.com({**ctx, x: ty.dom}, ty.cod, depth))
        if isinstance(ty, ProductType):
            return Record(tuple((l, self.com(ctx, t, depth)) for l, t in ty.fields))
        raise ValueError(f"cannot generate a terminal of type {ty}")


def _has_sum(ty) -> bool:
    """Does the value type hold a sum type anywhere, under thunks too?"""
    if isinstance(ty, SumType):
        return True
    if isinstance(ty, PairType):
        return _has_sum(ty.fst) or _has_sum(ty.snd)
    if isinstance(ty, ThunkType):
        return _has_sum(ty.com)
    if isinstance(ty, ProducerType):
        return _has_sum(ty.val)
    if isinstance(ty, ArrowType):
        return _has_sum(ty.dom) or _has_sum(ty.cod)
    if isinstance(ty, ProductType):
        return any(_has_sum(t) for _, t in ty.fields)
    return False


def generate_program(
    rng: random.Random,
    signature: EffectSignature,
    depth: int = 4,
    ty: Optional[ComType] = None,
) -> ComTerm:
    """One closed well-typed program; defaults to type F nat."""
    gen = TermGen(rng, signature)
    return gen.com({}, ty or ProducerType(NAT), depth)
