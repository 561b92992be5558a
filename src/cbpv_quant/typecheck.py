r"""Bidirectional type checker for the two term judgements.

There is one value judgement, `TypeChecker.val`, and one computation
judgement, `TypeChecker.com`.  Each takes an optional expected type `want`:
without it the judgement synthesizes a type, with it the judgement checks
against `want` and returns it.  Lambda binders carry full annotations, so
synthesis is syntax-directed except at injections and nullary effect
operators, which only check.  The expected type flows into the bodies of
`to`, `let`, `case`, `pm`, nat-indexed effect nodes and `fix`, and into the
redex heads `force (thunk M)`, `(\x. M) V` and `<..> # l`, which recovers
those forms in checking positions (application arguments, return values
against an expected producer type, ...).  Forms that only synthesize compare
the synthesized type against `want` once, at the end.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, Optional

from .syntax import (
    Apply,
    ArrowType,
    CaseNat,
    CasePair,
    CaseSum,
    CbpvError,
    ComTerm,
    ComType,
    EffOp,
    EffectSignature,
    FiniteArity,
    Fix,
    Force,
    GenTerm,
    GenType,
    Inj,
    Lambda,
    LetVal,
    NAT,
    NatIndexed,
    NatParam,
    Pair,
    PairType,
    ProducerType,
    ProductType,
    Proj,
    Record,
    Return,
    SeqTo,
    SumType,
    Thunk,
    ThunkType,
    UNIT,
    UnitVal,
    ValTerm,
    ValType,
    Var,
    Zero,
    Succ,
)


class TypeCheckError(CbpvError):
    def __init__(self, message: str, rule: str = ""):
        super().__init__(message if not rule else f"[{rule}] {message}")
        self.rule = rule


# A typing context is a read-only mapping from each variable in scope to its
# value type; a binder extends a copy, shadowing an earlier binder of its name.
EMPTY: Mapping[str, ValType] = MappingProxyType({})


class TypeChecker:
    def __init__(self, signature: EffectSignature):
        self.sig = signature

    def val(self, ctx: Mapping[str, ValType], v: ValTerm, want: Optional[ValType] = None) -> ValType:
        """Synthesize the type of `v`, or check `v` against `want` and return it."""
        if isinstance(v, Inj):
            if want is None:
                raise TypeCheckError(
                    f"cannot synthesize a sum type for inj {v.label}; "
                    f"use it in a checking position (e.g. as a function argument)",
                    "inj",
                )
            if not isinstance(want, SumType):
                raise TypeCheckError(f"inj {v.label} checked against non-sum type {want}", "inj")
            comp = want.label_type(v.label)
            if comp is None:
                raise TypeCheckError(f"label {v.label} not in {want}", "inj")
            self.val(ctx, v.arg, comp)
            return want
        if isinstance(v, UnitVal):
            found: ValType = UNIT
        elif isinstance(v, Zero):
            found = NAT
        elif isinstance(v, Succ):
            found = self.val(ctx, v.arg, NAT)
        elif isinstance(v, Var):
            found = ctx.get(v.name)
            if found is None:
                raise TypeCheckError(f"unbound variable {v.name}", "var")
        elif isinstance(v, Thunk):
            found = ThunkType(self.com(ctx, v.com, want.com if isinstance(want, ThunkType) else None))
        elif isinstance(v, Pair):
            pw = want if isinstance(want, PairType) else None
            found = PairType(self.val(ctx, v.fst, pw and pw.fst), self.val(ctx, v.snd, pw and pw.snd))
        else:
            raise TypeCheckError(f"unknown value term {v!r}")
        return _agree(found, want, v)

    def com(self, ctx: Mapping[str, ValType], m: ComTerm, want: Optional[ComType] = None) -> ComType:
        """Synthesize the type of `m`, or check `m` against `want` and return it."""
        if isinstance(m, Return):
            if want is not None and not isinstance(want, ProducerType):
                raise TypeCheckError(f"return checked against non-producer type {want}", "return")
            return ProducerType(self.val(ctx, m.value, want and want.val))
        if isinstance(m, Lambda):
            if want is not None:
                if not isinstance(want, ArrowType):
                    raise TypeCheckError(f"lambda checked against non-arrow type {want}", "lam")
                if m.dom != want.dom:
                    raise TypeCheckError(
                        f"lambda annotation {m.dom} differs from expected domain {want.dom}", "lam"
                    )
            return ArrowType(m.dom, self.com({**ctx, m.binder: m.dom}, m.body, want and want.cod))
        if isinstance(m, Record):
            if want is None:
                return ProductType(tuple((l, self.com(ctx, body)) for l, body in m.fields))
            if not isinstance(want, ProductType):
                raise TypeCheckError(f"record checked against non-product type {want}", "record")
            have = sorted(l for l, _ in m.fields)
            need = sorted(l for l, _ in want.fields)
            if have != need:
                raise TypeCheckError(f"record labels {have} do not match {need}", "record")
            for l, body in m.fields:
                self.com(ctx, body, want.label_type(l))
            return want
        if isinstance(m, SeqTo):
            mt = self.com(ctx, m.com)
            if not isinstance(mt, ProducerType):
                raise TypeCheckError(f"`to` sequences a producer, found {mt}", "to")
            return self.com({**ctx, m.binder: mt.val}, m.body, want)
        if isinstance(m, LetVal):
            return self.com({**ctx, m.binder: self.val(ctx, m.value)}, m.body, want)
        if isinstance(m, CasePair):
            st = self.val(ctx, m.scrutinee)
            if not isinstance(st, PairType):
                raise TypeCheckError(f"pm over non-pair type {st}", "pm-pair")
            return self.com({**ctx, m.fst_binder: st.fst, m.snd_binder: st.snd}, m.body, want)
        if isinstance(m, Fix):
            ft = self.com(ctx, m.com, want and ArrowType(ThunkType(want), want))
            if (
                not isinstance(ft, ArrowType)
                or not isinstance(ft.dom, ThunkType)
                or ft.dom.com != ft.cod
            ):
                raise TypeCheckError(
                    f"fix expects an argument of type U C -> C, found {ft}", "fix"
                )
            return ft.cod
        # the redex heads: an expected type reaches the body under them;
        # synthesis types an application's or projection's head whole, first
        if isinstance(m, Force) and isinstance(m.value, Thunk):
            return self.com(ctx, m.value.com, want)
        if want is not None and isinstance(m, Apply) and isinstance(m.com, Lambda):
            self.val(ctx, m.arg, m.com.dom)
            return self.com({**ctx, m.com.binder: m.com.dom}, m.com.body, want)
        if want is not None and isinstance(m, Proj) and isinstance(m.com, Record):
            body = m.com.field(m.label)
            if body is None:
                raise TypeCheckError(f"label {m.label} not in record", "proj")
            return self.com(ctx, body, want)
        # forms with sibling branches
        if isinstance(m, CaseNat):
            self.val(ctx, m.scrutinee, NAT)
            rule, label = "case", ""
            branches = [(ctx, m.zero_branch), ({**ctx, m.succ_binder: NAT}, m.succ_branch)]
        elif isinstance(m, CaseSum):
            st = self.val(ctx, m.scrutinee)
            if not isinstance(st, SumType):
                raise TypeCheckError(f"pm over non-sum type {st}", "pm-sum")
            labels = [l for l, _, _ in m.branches]
            expected = [l for l, _ in st.variants]
            if sorted(labels) != sorted(expected):
                raise TypeCheckError(
                    f"branches {labels} do not cover the sum labels {expected}", "pm-sum"
                )
            rule, label = "pm-sum", ""
            branches = [({**ctx, x: st.label_type(l)}, body) for l, x, body in m.branches]
        elif isinstance(m, EffOp):
            self._check_effop(ctx, m)
            if m.body is not None:
                return self.com({**ctx, m.binder: NAT}, m.body, want)
            rule, label = "op", m.op
            branches = [(ctx, c) for c in m.children]
        # forms that only synthesize
        elif isinstance(m, Force):
            vt = self.val(ctx, m.value)
            if not isinstance(vt, ThunkType):
                raise TypeCheckError(f"force expects a thunk, found {vt}", "force")
            return _agree(vt.com, want, m)
        elif isinstance(m, Apply):
            ft = self.com(ctx, m.com)
            if not isinstance(ft, ArrowType):
                raise TypeCheckError(f"{ft} is not an arrow type; cannot apply", "app")
            self.val(ctx, m.arg, ft.dom)
            return _agree(ft.cod, want, m)
        elif isinstance(m, Proj):
            pt = self.com(ctx, m.com)
            if not isinstance(pt, ProductType):
                raise TypeCheckError(f"projection from non-product type {pt}", "proj")
            comp = pt.label_type(m.label)
            if comp is None:
                raise TypeCheckError(f"label {m.label} not in {pt}", "proj")
            return _agree(comp, want, m)
        else:
            raise TypeCheckError(f"unknown computation term {m!r}")
        if want is None:
            return self._branches(rule, branches, label)
        # checked here, not in a helper: one frame per level, as for the bodies above
        for bctx, c in branches:
            self.com(bctx, c, want)
        return want

    def _check_effop(self, ctx: Mapping[str, ValType], m: EffOp) -> None:
        desc = self.sig.get(m.op)
        if desc is None:
            raise TypeCheckError(f"unknown effect operator {m.op} for the active signature", "op")
        arity = desc.arity
        if isinstance(arity, NatIndexed):
            if m.body is None or m.param is not None or m.children:
                raise TypeCheckError(f"{m.op} expects one nat-indexed child", "op")
        elif isinstance(arity, NatParam):
            if m.param is None or m.body is not None or len(m.children) != arity.n:
                raise TypeCheckError(
                    f"{m.op} expects a nat parameter and {arity.n} children", "op"
                )
            self.val(ctx, m.param, NAT)
        else:
            assert isinstance(arity, FiniteArity)
            if m.param is not None or m.body is not None or len(m.children) != arity.n:
                raise TypeCheckError(f"{m.op} expects exactly {arity.n} children", "op")

    def _branches(
        self,
        rule: str,
        branches: list[tuple[Mapping[str, ValType], ComTerm]],
        label: str = "",
    ) -> ComType:
        """The common type of sibling computations: try every type that some
        branch synthesizes, then check all branches against it.  Nullary
        effect nodes synthesize nothing, so an all-nullary sibling set
        defaults to F unit."""
        candidates: list[ComType] = []
        for bctx, c in branches:
            try:
                t = self.com(bctx, c)
            except TypeCheckError:
                continue
            if t not in candidates:
                candidates.append(t)
        if not candidates:
            candidates = [ProducerType(UNIT)]
        last_err: Optional[TypeCheckError] = None
        for ty in candidates:
            try:
                for bctx, c in branches:
                    self.com(bctx, c, ty)
                return ty
            except TypeCheckError as e:
                last_err = e
        raise TypeCheckError(
            f"branches of {label or rule} do not share a type "
            f"(candidates {', '.join(map(str, candidates))}): {last_err}",
            rule,
        )


def _agree(found, want, term):
    """`found`, once it equals the expected type `want` (if any)."""
    if want is not None and found != want:
        raise TypeCheckError(f"expected {want}, found {found} for {term}", "check")
    return found


def infer_type(ctx: Mapping[str, ValType], term: GenTerm, signature: EffectSignature) -> GenType:
    """Synthesize the type of a value or computation term under `ctx`."""
    tc = TypeChecker(signature)
    if isinstance(term, ValTerm):
        return tc.val(ctx, term)
    return tc.com(ctx, term)

