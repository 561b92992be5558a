"""The satisfaction evaluator: how much does a term satisfy a formula.

Results are certified intervals.  Modal formulas measure the term's effect
tree at the given fuel, built once per term and fuel by `Satisfier.tree`, in
one walk that carries a lower and an upper bound per node; leaf-monotonicity
of the shipped modalities makes the sandwich sound.  Each modal subformula is
measured once per term and fuel, however many formulas share it.
On recursion-free programs with complete families every result is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .formulas import (
    AndF,
    ArgF,
    ConstF,
    Family,
    Formula,
    FormulaTypeError,
    FstF,
    InjF,
    MixF,
    Modal,
    NatEq,
    NegF,
    OrF,
    ProjF,
    SigmaMuF,
    SndF,
    StepF,
    ThunkF,
    check_formula,
)
from .lattice import StateTableSpace, TruthSpace
from .machine import eval_tree
from .modality import Interval, ModalitySpec, evaluate_interval, exact_interval
from .syntax import (
    Apply,
    CbpvError,
    ComTerm,
    EffectSignature,
    Force,
    GenTerm,
    GenType,
    Inj,
    Pair,
    Proj,
    Return,
    numeral_value,
)
from .trees import EffectTree
from .typecheck import EMPTY, infer_type


class SatisfactionError(CbpvError):
    pass


@dataclass(frozen=True)
class SatResult:
    interval: Interval
    fuel_used: int


class Satisfier:
    """Evaluates formulas on terms and memoises what they share.

    A Satisfier keeps each term's effect tree at the fuel it last used and
    each term's type, so every formula on the same term measures one tree:
    reuse one Satisfier across the formulas of a suite.  It also keeps the
    interval of each modal subformula `q<phi>` per term, so `q<phi>`,
    `step(q<phi>, a)` for every threshold `a` and `not q<phi>` fold the tree
    once.  Modal intervals live as long as the trees: a call at another fuel
    drops both, while the types are held for the Satisfier's lifetime.
    Formulas are checked against the term's type on every call.

    Modal intervals are keyed by equality, so formulas that compare equal
    share one entry: after `E<const 1.0>`, `E<const 1>` on the same term
    reports the stored `1.0` where a fresh Satisfier may report `1`.

    `width` is the number of children of a nat-indexed node in the trees it
    builds: a store's value bound, `Runtime.width`.
    """

    def __init__(
        self,
        signature: EffectSignature,
        modalities: dict[str, ModalitySpec],
        space: TruthSpace,
        width: int = 3,
    ):
        self.sig = signature
        self.modalities = modalities
        self.space = space
        self.width = width
        self._types: dict[GenTerm, GenType] = {}
        self._trees: dict[ComTerm, EffectTree] = {}
        self._modals: dict[tuple[ComTerm, Modal], Interval] = {}
        self._tree_fuel: Optional[int] = None

    def type_of(self, term: GenTerm) -> GenType:
        """The type of a closed term, inferred once per distinct term."""
        ty = self._types.get(term)
        if ty is None:
            ty = self._types[term] = infer_type(EMPTY, term, self.sig)
        return ty

    def tree(self, term: ComTerm, fuel: int) -> EffectTree:
        """The term's effect tree at `fuel`, built once per distinct term.

        Only one fuel's trees are kept: a call at another fuel clears them,
        and the modal intervals measured on them, first, so doubling the fuel
        never holds the trees of earlier fuels.
        """
        if fuel != self._tree_fuel:
            self._trees.clear()
            self._modals.clear()
            self._tree_fuel = fuel
        t = self._trees.get(term)
        if t is None:
            t = self._trees[term] = eval_tree(term, fuel, self.sig, self.width)
        return t

    def satisfies(self, term: GenTerm, phi: Formula, fuel: int) -> SatResult:
        """Evaluate `term |= phi` at the given fuel.

        The term's synthesized type must match the formula's type.
        """
        if fuel < 1:
            raise SatisfactionError("fuel must be positive")
        check_formula(phi, self.type_of(term), self.modalities, self.space, self.sig)
        iv = self._eval(term, phi, fuel)
        return SatResult(iv, fuel)

    # ---- structural evaluation; typing is established before entry

    def _eval(self, term: GenTerm, phi: Formula, fuel: int) -> Interval:
        space = self.space
        if isinstance(phi, NatEq):
            return exact_interval(space.top if numeral_value(term) == phi.n else space.bot)
        if isinstance(phi, ThunkF):
            return self._eval(Force(term), phi.body, fuel)
        if isinstance(phi, InjF):
            assert isinstance(term, Inj)
            if term.label != phi.label:
                return exact_interval(space.bot)
            return self._eval(term.arg, phi.body, fuel)
        if isinstance(phi, FstF):
            assert isinstance(term, Pair)
            return self._eval(term.fst, phi.body, fuel)
        if isinstance(phi, SndF):
            assert isinstance(term, Pair)
            return self._eval(term.snd, phi.body, fuel)
        if isinstance(phi, ArgF):
            return self._eval(Apply(term, phi.arg), phi.body, fuel)
        if isinstance(phi, ProjF):
            return self._eval(Proj(term, phi.label), phi.body, fuel)
        if isinstance(phi, Modal):
            return self._modal(term, phi, fuel)
        if isinstance(phi, OrF):
            return self._family(term, phi.family, fuel, is_or=True)
        if isinstance(phi, AndF):
            return self._family(term, phi.family, fuel, is_or=False)
        if isinstance(phi, StepF):
            r = self._eval(term, phi.body, fuel)
            a = phi.threshold
            if space.leq(a, r.lo):
                return exact_interval(space.top)
            if not space.leq(a, r.hi):
                return exact_interval(space.bot)
            return Interval(space.bot, space.top, False)
        if isinstance(phi, ConstF):
            return exact_interval(phi.value)
        if isinstance(phi, NegF):
            r = self._eval(term, phi.body, fuel)
            return Interval(space.neg(r.hi), space.neg(r.lo), r.exact)
        if isinstance(phi, SigmaMuF):
            return self._sigma_mu(term, phi, fuel)
        if isinstance(phi, MixF):
            a = self._eval(term, phi.opt, fuel)
            b = self._eval(term, phi.pess, fuel)
            lo = (a.lo + b.lo) / 2.0
            hi = (a.hi + b.hi) / 2.0
            return Interval(lo, hi, lo == hi)
        raise FormulaTypeError(f"unknown formula {phi!r}")

    def _modal(self, term: ComTerm, phi: Modal, fuel: int) -> Interval:
        tree = self.tree(term, fuel)
        key = (term, phi)
        try:
            iv = self._modals.get(key)
        except TypeError:  # a formula with unhashable parts is not memoised
            key = iv = None
        if iv is not None:
            return iv
        body = phi.body
        cache: dict = {}

        def leaf_interval(leaf) -> Interval:
            got = cache.get(leaf)
            if got is None:
                if not isinstance(leaf, Return):
                    raise SatisfactionError(
                        f"modal formula over a non-producing terminal {leaf}"
                    )
                got = self._eval(leaf.value, body, fuel)
                cache[leaf] = got
            return got

        # folded in this frame, so the fold starts at the same stack depth
        # as without the memo
        iv = evaluate_interval(
            self.modalities[phi.modality],
            tree,
            leaf_lo=lambda x: leaf_interval(x).lo,
            leaf_hi=lambda x: leaf_interval(x).hi,
        )
        if key is not None:
            self._modals[key] = iv
        return iv

    def _family(self, term: GenTerm, fam: Family, fuel: int, is_or: bool) -> Interval:
        space = self.space
        los, his = [], []
        for p in fam.enumerate():
            iv = self._eval(term, p, fuel)
            los.append(iv.lo)
            his.append(iv.hi)
        if is_or:
            lo, hi = space.join(los), space.join(his)
            if not fam.complete:
                hi = space.top
        else:
            lo, hi = space.meet(los), space.meet(his)
            if not fam.complete:
                lo = space.bot
        return Interval(lo, hi, lo == hi)

    def _sigma_mu(self, term: GenTerm, phi: SigmaMuF, fuel: int) -> Interval:
        space = self.space
        assert isinstance(space, StateTableSpace)
        r = self._eval(term, phi.body, fuel)

        def mixed(table):
            v = min(1.0, sum(w * x for w, x in zip(phi.weights, table)))
            return tuple(v for _ in space.all_states)

        lo, hi = mixed(r.lo), mixed(r.hi)
        return Interval(lo, hi, lo == hi)


def satisfies_exact(
    satisfier: Satisfier,
    term: GenTerm,
    phi: Formula,
    fuel: int,
    fuel_cap: int = 4096,
) -> SatResult:
    """Retry with doubled fuel until the result is exact or the cap is hit;
    divergent programs surface as an inexact result at the cap, never a hang."""
    while True:
        res = satisfier.satisfies(term, phi, fuel)
        if res.interval.exact or fuel >= fuel_cap:
            return res
        fuel = min(fuel * 2, fuel_cap)

