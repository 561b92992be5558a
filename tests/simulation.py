"""Bounded applicative-simulation checking, the test-side reference for the
paper's theorem that formula equivalence is applicative bisimilarity.

`relator_check` decides `t O(R) r` by folding both trees afresh per leaf
valuation and modality; `laws` law e decides the same relator from tables,
and `check_simulation_bounded` runs every clause of Abramsky's applicative
simulation over a finite candidate relation.  The tests hold `compare` and
law e to these; no verb reaches them."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Optional, Sequence

from cbpv_quant.equivalence import EquivalenceError
from cbpv_quant.lattice import BoolSpace, TruthSpace
from cbpv_quant.modality import ModalitySpec, evaluate_interval
from cbpv_quant.satisfaction import Satisfier
from cbpv_quant.suites import Pools, args_for, enumerate_basic_formulas
from cbpv_quant.syntax import (
    Apply,
    ArrowType,
    Force,
    GenTerm,
    GenType,
    Inj,
    NatType,
    Pair,
    PairType,
    ProducerType,
    ProductType,
    Proj,
    Return,
    SumType,
    ThunkType,
    free_vars,
    numeral_value,
)
from cbpv_quant.trees import EffectTree, leaves
from cbpv_quant.typecheck import EMPTY, infer_type


# --------------------------------------------------------------------------
# Relations and the relator


class Relation:
    """A finite, well-typed, closed relation on terms, partitioned by type."""

    def __init__(self, signature):
        self.sig = signature
        self._by_type: dict[GenType, list[tuple[GenTerm, GenTerm]]] = {}

    def add(self, left: GenTerm, right: GenTerm) -> "Relation":
        if free_vars(left) or free_vars(right):
            raise EquivalenceError("relations relate closed terms only")
        lt = infer_type(EMPTY, left, self.sig)
        rt = infer_type(EMPTY, right, self.sig)
        if lt != rt:
            raise EquivalenceError(f"related terms must share a type; got {lt} and {rt}")
        self._by_type.setdefault(lt, [])
        if (left, right) not in self._by_type[lt]:
            self._by_type[lt].append((left, right))
        return self

    def types(self) -> list[GenType]:
        return list(self._by_type)

    def pairs(self, ty: GenType) -> list[tuple[GenTerm, GenTerm]]:
        return list(self._by_type.get(ty, []))

    def contains(self, left: GenTerm, right: GenTerm, ty: GenType) -> bool:
        return (left, right) in self._by_type.get(ty, [])


def right_set(pairs: Iterable[tuple[Any, Any]], h: Mapping[Any, Any], space: TruthSpace):
    """R[h]: b maps to the join of h over everything R-related to b (bot when
    nothing is)."""
    table: dict[Any, Any] = {}
    for a, b in pairs:
        v = h[a] if a in h else space.bot
        table[b] = space.join2(table.get(b, space.bot), v)

    def valuation(b):
        return table.get(b, space.bot)

    return valuation


@dataclass(frozen=True)
class ValuationFamily:
    """Tagged leaf valuations; `exhaustive` marks a complete enumeration of
    all indicator valuations over a Boolean space."""

    valuations: tuple[tuple[str, Mapping[Any, Any]], ...]
    exhaustive: bool = False


RANDOM_GRIDS = 32  # random-grid valuations per family, when an rng is given


def indicator_families(
    left_leaves: Sequence[Any],
    space: TruthSpace,
    rng=None,
    formula_valuations: Sequence[Mapping[Any, Any]] = (),
) -> ValuationFamily:
    """The default family: single- and pair-indicator valuations, any
    formula-induced valuations supplied by the caller, and random grids.
    Small Boolean carriers are exhausted instead."""
    uniq = list(dict.fromkeys(left_leaves))
    vals: list[tuple[str, Mapping]] = []
    if isinstance(space, BoolSpace) and len(uniq) <= 12:
        for bits in itertools.product((False, True), repeat=len(uniq)):
            vals.append(("indicator", dict(zip(uniq, bits))))
        return ValuationFamily(tuple(vals), exhaustive=True)
    for x in uniq:
        vals.append(("indicator", {y: (space.top if y == x else space.bot) for y in uniq}))
    for x, y in itertools.combinations(uniq, 2):
        vals.append(
            ("indicator-pair", {z: (space.top if z in (x, y) else space.bot) for z in uniq})
        )
    for i, fv in enumerate(formula_valuations):
        vals.append((f"formula-{i}", fv))
    if rng is not None:
        for _ in range(RANDOM_GRIDS):
            vals.append(("random-grid", {y: space.sample(rng) for y in uniq}))
    return ValuationFamily(tuple(vals), exhaustive=False)


@dataclass(frozen=True)
class RelatorOutcome:
    status: str  # 'holds' | 'refuted' | 'inconclusive'
    witness: Optional[tuple[str, str]] = None  # (modality, valuation tag)

    @property
    def refuted(self) -> bool:
        return self.status == "refuted"


def relator_check(
    t: EffectTree,
    r: EffectTree,
    pairs: Iterable[tuple[Any, Any]],
    modalities: dict[str, ModalitySpec],
    fam: ValuationFamily,
    space: TruthSpace,
) -> RelatorOutcome:
    """Decide `t O(R) r` as far as the valuation family allows.

    A refutation (some modality and valuation where the left lower bound is
    not below the right upper bound) is definitive.  `holds` is only claimed
    when the universal quantifier over valuations was exhausted, which
    requires the Boolean space; everything else is inconclusive.
    """
    pairs = list(pairs)
    left_leaves = list(dict.fromkeys(leaves(t)))
    right_leaves = list(dict.fromkeys(leaves(r)))
    all_exact = True
    all_certified = True
    for tag, h in fam.valuations:
        for x in left_leaves:
            if x not in h:
                raise EquivalenceError(f"valuation {tag} does not cover left leaf {x!r}")
        rh = right_set(pairs, h, space)
        for qname, q in modalities.items():
            li = evaluate_interval(q, t, lambda x: (h[x],) * 2)
            ri = evaluate_interval(q, r, lambda x: (rh(x),) * 2)
            if not space.leq(li.lo, ri.hi):
                return RelatorOutcome("refuted", (qname, tag))
            if not (li.exact and ri.exact):
                all_exact = False
            if not space.leq(li.hi, ri.lo):
                all_certified = False
    if fam.exhaustive and all_exact and all_certified and isinstance(space, BoolSpace):
        return RelatorOutcome("holds")
    return RelatorOutcome("inconclusive")


# --------------------------------------------------------------------------
# Bounded applicative simulation checking


@dataclass(frozen=True)
class ClauseResult:
    pair: tuple[GenTerm, GenTerm]
    clause: int
    status: str  # 'ok' | 'refuted' | 'inconclusive'
    note: str = ""


@dataclass(frozen=True)
class SimulationReport:
    results: tuple[ClauseResult, ...]

    @property
    def refuted(self) -> bool:
        return any(r.status == "refuted" for r in self.results)

    def summary(self) -> str:
        if self.refuted:
            first = next(r for r in self.results if r.status == "refuted")
            return (
                f"refuted: clause {first.clause} fails for "
                f"({first.pair[0]}, {first.pair[1]}) {first.note}"
            )
        n_inc = sum(1 for r in self.results if r.status == "inconclusive")
        return f"no counterexample at bounds ({len(self.results)} checks, {n_inc} inconclusive; arrow arguments pool-bounded)"


def _formula_valuations(left_leaves, val_type, pools, satisfier, fuel):
    """Leaf valuations induced by a small formula suite: each size-2 basic
    formula values a return-leaf at its payload's certified lower bound."""
    suite = enumerate_basic_formulas(val_type, 2, pools, satisfier.modalities)
    out = []
    for phi in suite.formulas:
        h = {}
        for leaf in left_leaves:
            if not isinstance(leaf, Return):
                break
            h[leaf] = satisfier.satisfies(leaf.value, phi, fuel).interval.lo
        else:
            out.append(h)
    return out


def check_simulation_bounded(
    relation: Relation,
    fuel: int,
    pools: Pools,
    satisfier: Satisfier,
    rng=None,
) -> SimulationReport:
    """Check the applicative-simulation clauses for every pair of a finite
    candidate relation: structural dissection for value shapes, membership of
    derived pairs for thunks/arrows/products (arguments bounded by the pool),
    and the relator on the satisfier's effect trees at producer types."""
    space = satisfier.space
    out: list[ClauseResult] = []
    for ty in relation.types():
        for (m, n) in relation.pairs(ty):
            pair = (m, n)
            if isinstance(ty, NatType):
                if numeral_value(m) == numeral_value(n):
                    out.append(ClauseResult(pair, 1, "ok"))
                else:
                    out.append(ClauseResult(pair, 1, "refuted", "distinct numerals"))
            elif isinstance(ty, ThunkType):
                if relation.contains(Force(m), Force(n), ty.com):
                    out.append(ClauseResult(pair, 2, "ok"))
                else:
                    out.append(
                        ClauseResult(pair, 2, "refuted", "derived pair (force, force) missing")
                    )
            elif isinstance(ty, SumType):
                assert isinstance(m, Inj) and isinstance(n, Inj)
                if m.label != n.label:
                    out.append(ClauseResult(pair, 3, "refuted", "distinct labels"))
                elif relation.contains(m.arg, n.arg, ty.label_type(m.label)):
                    out.append(ClauseResult(pair, 3, "ok"))
                else:
                    out.append(ClauseResult(pair, 3, "refuted", "component pair missing"))
            elif isinstance(ty, PairType):
                assert isinstance(m, Pair) and isinstance(n, Pair)
                if relation.contains(m.fst, n.fst, ty.fst) and relation.contains(
                    m.snd, n.snd, ty.snd
                ):
                    out.append(ClauseResult(pair, 4, "ok"))
                else:
                    out.append(ClauseResult(pair, 4, "refuted", "component pair missing"))
            elif isinstance(ty, ArrowType):
                missing = [
                    v
                    for v in args_for(ty.dom, pools)
                    if not relation.contains(Apply(m, v), Apply(n, v), ty.cod)
                ]
                if missing:
                    out.append(
                        ClauseResult(pair, 5, "refuted", f"applied pair missing for {missing[0]}")
                    )
                else:
                    out.append(ClauseResult(pair, 5, "ok", "arguments pool-bounded"))
            elif isinstance(ty, ProductType):
                missing_l = [
                    l
                    for l, comp in ty.fields
                    if not relation.contains(Proj(m, l), Proj(n, l), comp)
                ]
                if missing_l:
                    out.append(
                        ClauseResult(pair, 6, "refuted", f"projected pair missing at {missing_l[0]}")
                    )
                else:
                    out.append(ClauseResult(pair, 6, "ok"))
            elif isinstance(ty, ProducerType):
                t = satisfier.tree(m, fuel)
                r = satisfier.tree(n, fuel)
                leaf_pairs = [
                    (Return(v), Return(w)) for (v, w) in relation.pairs(ty.val)
                ]
                left_leaves = list(dict.fromkeys(leaves(t)))
                fam = indicator_families(
                    left_leaves,
                    space,
                    rng,
                    formula_valuations=_formula_valuations(
                        left_leaves, ty.val, pools, satisfier, fuel
                    ),
                )
                outcome = relator_check(t, r, leaf_pairs, satisfier.modalities, fam, space)
                if outcome.refuted:
                    out.append(
                        ClauseResult(
                            pair,
                            7,
                            "refuted",
                            f"relator refutes via {outcome.witness[0]} ({outcome.witness[1]})",
                        )
                    )
                elif outcome.status == "holds":
                    out.append(ClauseResult(pair, 7, "ok"))
                else:
                    out.append(ClauseResult(pair, 7, "inconclusive"))
            else:
                out.append(ClauseResult(pair, 0, "inconclusive", f"unsupported type {ty}"))
    return SimulationReport(tuple(out))
