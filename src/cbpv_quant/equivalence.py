"""Bounded behavioural-preorder checking and distinguishing-formula search.

A Distinguished verdict is a certified violation (the lower bound of one side
fails to sit below the upper bound of the other), so it is final: more fuel
or a larger suite can only narrow intervals, never retract it.  Absence of a
violation is always reported relative to the bounds used (suite size, fuel,
argument pools); the tool never asserts unbounded equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .formulas import Formula, formula_size
from .modality import Interval
from .satisfaction import Satisfier
from .suites import FormulaSuite, Pools, enumerate_basic_formulas
from .syntax import CbpvError, ComTerm


class EquivalenceError(CbpvError):
    pass


# --------------------------------------------------------------------------
# Verdicts


@dataclass(frozen=True)
class Bounds:
    suite_size: int
    fuel: int
    formulas_checked: int
    certified: int
    inconclusive: int

    def describe(self) -> str:
        note = (
            f"{self.formulas_checked} formulas at suite size {self.suite_size}, "
            f"fuel {self.fuel}; {self.certified} certified, {self.inconclusive} inconclusive"
        )
        return note


@dataclass(frozen=True)
class Distinguished:
    formula: Formula
    left: Interval
    right: Interval
    direction: str  # 'left_not_below_right' | 'right_not_below_left'


@dataclass(frozen=True)
class RefinesUpTo:
    bounds: Bounds


@dataclass(frozen=True)
class NoDistinctionFound:
    bounds: Bounds


Verdict = Union[Distinguished, RefinesUpTo, NoDistinctionFound]

_TAGS = {"leq": "left_not_below_right", "geq": "right_not_below_left"}


def compare(
    left: ComTerm,
    right: ComTerm,
    suite: FormulaSuite,
    fuel: int,
    satisfier: Satisfier,
    direction: str = "both",
) -> Verdict:
    """Evaluate every suite formula on both terms and look for a certified
    order violation.

    direction 'leq' checks left below right only; 'geq' the converse; 'both'
    (the default, deciding equivalence) scans the converse first and then the
    forward direction, so for mutually incomparable pairs the reported
    witness is the one violating `right below left`.
    """
    space = satisfier.space
    lt = satisfier.type_of(left)
    rt = satisfier.type_of(right)
    if lt != rt or lt != suite.target:
        raise EquivalenceError(
            f"compare needs both terms at the suite type {suite.target}; got {lt} and {rt}"
        )
    evaluated = [
        (phi, satisfier.satisfies(left, phi, fuel).interval, satisfier.satisfies(right, phi, fuel).interval)
        for phi in suite.formulas
    ]
    passes = {"leq": ("leq",), "geq": ("geq",), "both": ("geq", "leq")}[direction]
    certified = 0
    inconclusive = 0
    for mode in passes:
        for phi, li, ri in evaluated:
            below, above = (li, ri) if mode == "leq" else (ri, li)
            if not space.leq(below.lo, above.hi):
                return Distinguished(phi, li, ri, _TAGS[mode])
            if space.leq(below.hi, above.lo):
                certified += 1
            else:
                inconclusive += 1
    bounds = Bounds(suite.size, fuel, len(evaluated), certified, inconclusive)
    if direction == "both":
        return NoDistinctionFound(bounds)
    return RefinesUpTo(bounds)


def find_distinguishing_formula(
    left: ComTerm,
    right: ComTerm,
    max_size: int,
    satisfier: Satisfier,
    pools: Pools,
    fuel_schedule: Sequence[int] = (4, 16),
) -> Optional[tuple[Formula, str]]:
    """Iterative-deepening search for the smallest certified witness: every
    basic formula of one size, at each fuel of the schedule, before the next
    size.

    Negation and step closures of basic formulas are not tried: at a fixed
    fuel they are never the first witness.  Say phi gives the intervals li
    and ri and is no witness, so li.lo <= ri.hi and ri.lo <= li.hi.
    - `not phi` is a witness only if neg(li.hi) is not below neg(ri.lo).
      Since neg is antitone, that contradicts ri.lo <= li.hi.  The other
      direction is symmetric.
    - `step(phi, a)` is a witness only if its lower bound on one side is top
      and its upper bound on the other side is bot: a <= li.lo and not
      a <= ri.hi.  By transitivity li.lo is then not below ri.hi, so phi,
      which is tried first, is already a witness.
    """
    space = satisfier.space
    ty = satisfier.type_of(left)
    tc_ty = satisfier.type_of(right)
    if ty != tc_ty:
        raise EquivalenceError("terms of different types are trivially distinguished")
    for size in range(1, max_size + 1):
        suite = enumerate_basic_formulas(ty, size, pools, satisfier.modalities)
        candidates = [phi for phi in suite.formulas if formula_size(phi) == size]
        for fuel in fuel_schedule:
            for phi in candidates:
                li = satisfier.satisfies(left, phi, fuel).interval
                ri = satisfier.satisfies(right, phi, fuel).interval
                if not space.leq(li.lo, ri.hi):
                    return (phi, "left_not_below_right")
                if not space.leq(ri.lo, li.hi):
                    return (phi, "right_not_below_left")
    return None
