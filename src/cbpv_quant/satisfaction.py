"""The satisfaction evaluator: how much does a term satisfy a formula.

Results are certified intervals.  Modal formulas measure the term's effect
tree at the given fuel, built once per term and fuel by `Satisfier.tree`, in
one walk that carries a lower and an upper bound per node; leaf-monotonicity
of the shipped modalities makes the sandwich sound.  Each modal subformula is
measured once per term and fuel, however many formulas share it, and a
suite's modal formulas of one modality on one term fold in one walk.
On recursion-free programs every result is exact.

`satisfies_exact` first tries the value with no fuel (`Satisfier.solve`):
each modal subformula is the least fixed point of its modality over the
configuration graph of the term it measures, which is the supremum of the
fuel chain.  E's is solved exactly, as a `Fraction`; Boolean, state-set and
cost modalities by Kleene iteration.  Where a graph does not close within
the budget, or the modality is EG, or Eopt or Epes over a nondeterministic
choice, it doubles the fuel instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .formulas import (
    AndF,
    ArgF,
    ConstF,
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
from .machine import Graph, eval_tree, explore
from .modality import Interval, ModalitySpec, evaluate_interval, least_fixed_point, power
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


class _Unsolved(Exception):
    """A modal subformula whose least fixed point `Satisfier.solve` cannot
    give: its term's graph is open, or its modality is not one
    `modality.least_fixed_point` solves."""


@dataclass(frozen=True)
class SatResult:
    interval: Interval
    fuel_used: int


_DISSECTORS = (ThunkF, InjF, FstF, SndF, ArgF, ProjF)


def _dissect(term: GenTerm, phi: Formula) -> Optional[GenTerm]:
    """The subterm on which a dissector formula (`_DISSECTORS`) measures its
    body, or None when an injection formula's label is not the value's."""
    if isinstance(phi, ThunkF):
        return Force(term)
    if isinstance(phi, ArgF):
        return Apply(term, phi.arg)
    if isinstance(phi, ProjF):
        return Proj(term, phi.label)
    if isinstance(phi, InjF):
        assert isinstance(term, Inj)
        return term.arg if term.label == phi.label else None
    assert isinstance(term, Pair)
    return term.fst if isinstance(phi, FstF) else term.snd


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

    `solve` evaluates a formula with no fuel, each modal subformula at its
    modality's least fixed point over the term's configuration graph; it
    keeps each graph per term and budget, and each solved value per term
    and formula, for the Satisfier's lifetime.

    `satisfies_all` evaluates a whole suite on one term, as `compare` does
    for each side: the modal formulas it reaches outside any modality that
    share a subterm and a modality fold once, as one walk of power(q, k),
    and their k intervals go into the memo before the formulas are
    evaluated.  `satisfies` folds each modal formula on its own, so a
    search that stops at its first witness folds no more than it reads.

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
        self._graphs: dict[tuple[ComTerm, int], Graph] = {}
        self._lfps: dict[tuple[ComTerm, Modal], Interval] = {}
        self._budget = 0

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

    def solve(self, term: GenTerm, phi: Formula, budget: int) -> Optional[Interval]:
        """`term |= phi` exactly, with no fuel: each modal subformula it
        reaches is the least fixed point of its modality over the
        configuration graph of the term it measures (`machine.explore`
        within `budget` machine steps, `modality.least_fixed_point`).  None
        when one of them cannot be solved.  Values are exact, and a solved E
        value is a `Fraction`."""
        check_formula(phi, self.type_of(term), self.modalities, self.space, self.sig)
        self._budget = budget
        try:
            return self._eval(term, phi, None)
        except _Unsolved:
            return None

    def satisfies_all(self, term: GenTerm, formulas: Sequence[Formula], fuel: int) -> list[Interval]:
        """`satisfies(term, phi, fuel).interval` for each formula, in order.

        The modal subformulas the formulas reach outside any modality are
        grouped by the subterm they measure and their modality; a group of
        k >= 2 not yet measured folds power(q, k) once, and each formula is
        then evaluated with its modal intervals already in the memo.
        """
        if fuel < 1:
            raise SatisfactionError("fuel must be positive")
        ty = self.type_of(term)
        for phi in formulas:
            check_formula(phi, ty, self.modalities, self.space, self.sig)
        groups: dict[tuple[GenTerm, str], dict[Modal, None]] = {}
        for phi in formulas:
            self._reached(term, phi, groups)
        for (sub, name), group in groups.items():
            if len(group) > 1:
                self._modal_batch(sub, self.modalities[name], list(group), fuel)
        return [self._eval(term, phi, fuel) for phi in formulas]

    def _reached(self, term: GenTerm, phi: Formula, groups: dict) -> None:
        """Add each modal subformula that `_eval(term, phi)` measures outside
        any modality to `groups`, keyed by (subterm, modality); one with
        unhashable parts is left out, for `_modal` to fold on its own."""
        if isinstance(phi, Modal):
            try:
                groups.setdefault((term, phi.modality), {})[phi] = None
            except TypeError:
                pass
        elif isinstance(phi, _DISSECTORS):
            sub = _dissect(term, phi)
            if sub is not None:
                self._reached(sub, phi.body, groups)
        elif isinstance(phi, (OrF, AndF)):
            for p in phi.members:
                self._reached(term, p, groups)
        elif isinstance(phi, MixF):
            self._reached(term, phi.opt, groups)
            self._reached(term, phi.pess, groups)
        elif isinstance(phi, (StepF, NegF, SigmaMuF)):
            self._reached(term, phi.body, groups)

    # ---- structural evaluation; typing is established before entry

    def _eval(self, term: GenTerm, phi: Formula, fuel: int) -> Interval:
        space = self.space
        if isinstance(phi, NatEq):
            v = space.top if numeral_value(term) == phi.n else space.bot
            return Interval(v, v)
        if isinstance(phi, _DISSECTORS):
            sub = _dissect(term, phi)
            if sub is None:
                return Interval(space.bot, space.bot)
            return self._eval(sub, phi.body, fuel)
        if isinstance(phi, Modal):
            return self._modal(term, phi, fuel)
        if isinstance(phi, (OrF, AndF)):
            ivs = [self._eval(term, p, fuel) for p in phi.members]
            bound = space.join if isinstance(phi, OrF) else space.meet
            return Interval(bound([iv.lo for iv in ivs]), bound([iv.hi for iv in ivs]))
        if isinstance(phi, StepF):
            r = self._eval(term, phi.body, fuel)
            a = phi.threshold
            if space.leq(a, r.lo):
                return Interval(space.top, space.top)
            if not space.leq(a, r.hi):
                return Interval(space.bot, space.bot)
            return Interval(space.bot, space.top)
        if isinstance(phi, ConstF):
            return Interval(phi.value, phi.value)
        if isinstance(phi, NegF):
            r = self._eval(term, phi.body, fuel)
            return Interval(space.neg(r.hi), space.neg(r.lo))
        if isinstance(phi, SigmaMuF):
            return self._sigma_mu(term, phi, fuel)
        if isinstance(phi, MixF):
            a = self._eval(term, phi.opt, fuel)
            b = self._eval(term, phi.pess, fuel)
            return Interval((a.lo + b.lo) / 2, (a.hi + b.hi) / 2)
        raise FormulaTypeError(f"unknown formula {phi!r}")

    def _modal(self, term: ComTerm, phi: Modal, fuel: Optional[int]) -> Interval:
        if fuel is None:
            return self._lfp(term, phi)
        tree = self.tree(term, fuel)
        key = (term, phi)
        try:
            iv = self._modals.get(key)
        except TypeError:  # a formula with unhashable parts is not memoised
            key = iv = None
        if iv is not None:
            return iv
        # folded in this frame, so the fold starts at the same stack depth
        # as without the memo
        iv = evaluate_interval(self.modalities[phi.modality], tree, self._leaf_bounds(phi.body, fuel))
        if key is not None:
            self._modals[key] = iv
        return iv

    def _leaf_bounds(self, body: Formula, fuel: Optional[int]) -> Callable[[ComTerm], tuple]:
        """The leaf valuation of a modal formula with body `body`: a leaf
        `return v` at the bounds of `v |= body`, evaluated once per leaf."""
        cache: dict = {}

        def leaf_bounds(leaf) -> tuple:
            got = cache.get(leaf)
            if got is None:
                if not isinstance(leaf, Return):
                    raise SatisfactionError(
                        f"modal formula over a non-producing terminal {leaf}"
                    )
                iv = self._eval(leaf.value, body, fuel)
                got = cache[leaf] = (iv.lo, iv.hi)
            return got

        return leaf_bounds

    def _lfp(self, term: ComTerm, phi: Modal) -> Interval:
        """The modal formula's exact value on the term (`solve`): the
        modality's least fixed point over the term's graph, explored once
        per term and budget, and solved once per term and formula."""
        key = (term, phi)
        try:
            iv = self._lfps.get(key)
        except TypeError:  # a formula with unhashable parts is not memoised
            key = iv = None
        if iv is not None:
            return iv
        graph = self._graphs.get((term, self._budget))
        if graph is None:
            graph = self._graphs[(term, self._budget)] = explore(term, self.sig, self.width, self._budget)
        if graph.closed:
            iv = least_fixed_point(self.modalities[phi.modality], graph, self._leaf_bounds(phi.body, None))
        if iv is None:
            raise _Unsolved
        if key is not None:
            self._lfps[key] = iv
        return iv

    def _modal_batch(self, term: ComTerm, q: ModalitySpec, phis: list[Modal], fuel: int) -> None:
        """Measure the modal formulas `phis`, all of modality q, on the term:
        one fold of power(q, k) for the k of them not yet in the memo, when
        k >= 2; a single one is left to `_modal`."""
        tree = self.tree(term, fuel)
        todo = [phi for phi in phis if (term, phi) not in self._modals]
        if len(todo) < 2:
            return
        bodies = [phi.body for phi in todo]
        cache: dict = {}

        def leaf_bounds(leaf) -> tuple:
            got = cache.get(leaf)
            if got is None:
                if not isinstance(leaf, Return):
                    raise SatisfactionError(
                        f"modal formula over a non-producing terminal {leaf}"
                    )
                ivs = [self._eval(leaf.value, body, fuel) for body in bodies]
                got = cache[leaf] = (tuple([iv.lo for iv in ivs]), tuple([iv.hi for iv in ivs]))
            return got

        iv = evaluate_interval(power(q, len(todo)), tree, leaf_bounds)
        for phi, lo, hi in zip(todo, iv.lo, iv.hi):
            self._modals[(term, phi)] = Interval(lo, hi)

    def _sigma_mu(self, term: GenTerm, phi: SigmaMuF, fuel: int) -> Interval:
        space = self.space
        assert isinstance(space, StateTableSpace)
        r = self._eval(term, phi.body, fuel)

        def mixed(table):
            v = min(1.0, sum(w * x for w, x in zip(phi.weights, table)))
            return tuple(v for _ in space.all_states)

        return Interval(mixed(r.lo), mixed(r.hi))


def satisfies_exact(
    satisfier: Satisfier,
    term: GenTerm,
    phi: Formula,
    fuel: int,
    fuel_cap: int = 4096,
) -> SatResult:
    """The exact value of `term |= phi`, reported at `fuel`, when every
    modal subformula it reaches has a closed graph within `fuel_cap` machine
    steps and a modality the graph solve handles (`Satisfier.solve`).
    Otherwise retry with doubled fuel until the result is exact or the cap
    is hit; divergent programs surface as an inexact result at the cap,
    never a hang."""
    if fuel < 1:
        raise SatisfactionError("fuel must be positive")
    iv = satisfier.solve(term, phi, fuel_cap)
    if iv is not None:
        return SatResult(iv, fuel)
    while True:
        res = satisfier.satisfies(term, phi, fuel)
        if res.interval.exact or fuel >= fuel_cap:
            return res
        fuel = min(fuel * 2, fuel_cap)

