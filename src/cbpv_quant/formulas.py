"""The typed formula language and its concrete syntax.

Concrete forms mirror the logic's constructors: `{7}`, `[U]phi`, `inj i phi`,
`fst phi`, `snd phi`, `(V . phi)`, `proj i phi`, `q<phi>` for modalities,
`or{...}`, `and{...}`, `step(phi, a)`, `const a`, `not phi`.  Derived
constructors print and parse as `wsum[w0, ...](phi)` and `mix(phi, psi)`.

Countable disjunctions and conjunctions are either explicit finite tuples or
a generator with an enumeration bound; a generated family may be flagged
complete when the generator provably exhausts it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from .lattice import StateSetSpace, StateTableSpace, TruthSpace
from .modality import ModalitySpec
from .parser import ParseError, Parser
from .syntax import (
    ArrowType,
    CbpvError,
    EffectSignature,
    GenType,
    NatType,
    PairType,
    ProducerType,
    ProductType,
    SumType,
    ThunkType,
    ValTerm,
)
from .typecheck import EMPTY, TypeChecker, TypeCheckError


class FormulaTypeError(CbpvError):
    pass


class Formula:
    __slots__ = ()

    def __str__(self) -> str:
        return print_formula(self)


@dataclass(frozen=True)
class Family:
    """A countable formula family: finite members plus an optional generator
    tail; `complete` asserts the bounded enumeration covers the whole set."""

    members: tuple[Formula, ...] = ()
    generator: Optional[Callable[[int], Formula]] = None
    bound: int = 0
    complete: bool = True

    def enumerate(self) -> Iterable[Formula]:
        yield from self.members
        if self.generator is not None:
            for i in range(self.bound):
                yield self.generator(i)


@dataclass(frozen=True)
class NatEq(Formula):
    n: int


@dataclass(frozen=True)
class ThunkF(Formula):
    body: Formula


@dataclass(frozen=True)
class InjF(Formula):
    label: str
    body: Formula


@dataclass(frozen=True)
class FstF(Formula):
    body: Formula


@dataclass(frozen=True)
class SndF(Formula):
    body: Formula


@dataclass(frozen=True)
class ArgF(Formula):
    arg: ValTerm
    body: Formula


@dataclass(frozen=True)
class ProjF(Formula):
    label: str
    body: Formula


@dataclass(frozen=True)
class Modal(Formula):
    modality: str
    body: Formula


@dataclass(frozen=True)
class OrF(Formula):
    family: Family


@dataclass(frozen=True)
class AndF(Formula):
    family: Family


@dataclass(frozen=True)
class StepF(Formula):
    body: Formula
    threshold: Any


@dataclass(frozen=True)
class ConstF(Formula):
    value: Any


@dataclass(frozen=True)
class NegF(Formula):
    body: Formula


@dataclass(frozen=True)
class SigmaMuF(Formula):
    """State-weighted sum: at every state, min(1, sum_s mu(s) * (M |= body)(s))."""

    weights: tuple[float, ...]
    body: Formula


@dataclass(frozen=True)
class MixF(Formula):
    """Half-half scheduler mix of an optimistic and a pessimistic reading."""

    opt: Formula
    pess: Formula


def is_positive(phi: Formula) -> bool:
    """Membership in the positive fragment: no negation anywhere."""
    if isinstance(phi, NegF):
        return False
    if isinstance(phi, (NatEq, ConstF)):
        return True
    if isinstance(phi, (ThunkF, InjF, FstF, SndF, ArgF, ProjF, Modal)):
        return is_positive(phi.body)
    if isinstance(phi, StepF):
        return is_positive(phi.body)
    if isinstance(phi, (OrF, AndF)):
        return all(is_positive(p) for p in phi.family.enumerate())
    if isinstance(phi, SigmaMuF):
        return is_positive(phi.body)
    if isinstance(phi, MixF):
        return is_positive(phi.opt) and is_positive(phi.pess)
    raise FormulaTypeError(f"unknown formula {phi!r}")


def formula_size(phi: Formula) -> int:
    if isinstance(phi, (NatEq, ConstF)):
        return 1
    if isinstance(phi, (ThunkF, InjF, FstF, SndF, ArgF, ProjF, Modal, NegF, StepF, SigmaMuF)):
        return 1 + formula_size(phi.body)
    if isinstance(phi, (OrF, AndF)):
        return 1 + sum(formula_size(p) for p in phi.family.enumerate())
    if isinstance(phi, MixF):
        return 1 + formula_size(phi.opt) + formula_size(phi.pess)
    raise FormulaTypeError(f"unknown formula {phi!r}")


# --------------------------------------------------------------------------
# Typing


def check_formula(
    phi: Formula,
    ty: GenType,
    modalities: dict[str, ModalitySpec],
    space: TruthSpace,
    signature: EffectSignature,
) -> None:
    """Validate that `phi` is a formula over `ty` under the active modality set."""
    tc = TypeChecker(signature)

    def go(phi: Formula, ty: GenType) -> None:
        if isinstance(phi, NatEq):
            if not isinstance(ty, NatType):
                raise FormulaTypeError(f"{{n}} formulas live at nat, not {ty}")
            return
        if isinstance(phi, ThunkF):
            if not isinstance(ty, ThunkType):
                raise FormulaTypeError(f"[U] formulas live at thunk types, not {ty}")
            return go(phi.body, ty.com)
        if isinstance(phi, InjF):
            if not isinstance(ty, SumType):
                raise FormulaTypeError(f"inj formulas live at sum types, not {ty}")
            comp = ty.label_type(phi.label)
            if comp is None:
                raise FormulaTypeError(f"label {phi.label} not in {ty}")
            return go(phi.body, comp)
        if isinstance(phi, FstF):
            if not isinstance(ty, PairType):
                raise FormulaTypeError(f"fst formulas live at pair types, not {ty}")
            return go(phi.body, ty.fst)
        if isinstance(phi, SndF):
            if not isinstance(ty, PairType):
                raise FormulaTypeError(f"snd formulas live at pair types, not {ty}")
            return go(phi.body, ty.snd)
        if isinstance(phi, ArgF):
            if not isinstance(ty, ArrowType):
                raise FormulaTypeError(f"argument formulas live at arrow types, not {ty}")
            try:
                tc.val(EMPTY, phi.arg, ty.dom)
            except TypeCheckError as e:
                raise FormulaTypeError(f"formula argument {phi.arg}: {e}") from None
            return go(phi.body, ty.cod)
        if isinstance(phi, ProjF):
            if not isinstance(ty, ProductType):
                raise FormulaTypeError(f"proj formulas live at product types, not {ty}")
            comp = ty.label_type(phi.label)
            if comp is None:
                raise FormulaTypeError(f"label {phi.label} not in {ty}")
            return go(phi.body, comp)
        if isinstance(phi, Modal):
            if not isinstance(ty, ProducerType):
                raise FormulaTypeError(f"modal formulas live at producer types, not {ty}")
            if phi.modality not in modalities:
                raise FormulaTypeError(f"unknown modality {phi.modality}")
            if modalities[phi.modality].space.name != space.name:
                raise FormulaTypeError(
                    f"modality {phi.modality} targets {modalities[phi.modality].space.name}, "
                    f"but the active truth space is {space.name}"
                )
            return go(phi.body, ty.val)
        if isinstance(phi, (OrF, AndF)):
            for p in phi.family.enumerate():
                go(p, ty)
            return
        if isinstance(phi, StepF):
            if not space.contains(phi.threshold):
                raise FormulaTypeError(f"step threshold {phi.threshold!r} is outside the truth space")
            return go(phi.body, ty)
        if isinstance(phi, ConstF):
            if not space.contains(phi.value):
                raise FormulaTypeError(f"constant {phi.value!r} is outside the truth space")
            return
        if isinstance(phi, NegF):
            return go(phi.body, ty)
        if isinstance(phi, SigmaMuF):
            if not isinstance(space, StateTableSpace):
                raise FormulaTypeError("weighted-sum formulas need the state-table space")
            if len(phi.weights) != len(space.all_states):
                raise FormulaTypeError("weight vector does not match the state space")
            if any(w < 0 for w in phi.weights):
                raise FormulaTypeError("weights must be non-negative")
            return go(phi.body, ty)
        if isinstance(phi, MixF):
            if space.name != "unit":
                raise FormulaTypeError("scheduler mixes need the unit-interval space")
            go(phi.opt, ty)
            go(phi.pess, ty)
            return
        raise FormulaTypeError(f"unknown formula {phi!r}")

    go(phi, ty)


# --------------------------------------------------------------------------
# Printing


def print_formula(phi: Formula) -> str:
    if isinstance(phi, NatEq):
        return "{" + str(phi.n) + "}"
    if isinstance(phi, ThunkF):
        return f"[U]{print_formula(phi.body)}"
    if isinstance(phi, InjF):
        return f"inj {phi.label} {print_formula(phi.body)}"
    if isinstance(phi, FstF):
        return f"fst {print_formula(phi.body)}"
    if isinstance(phi, SndF):
        return f"snd {print_formula(phi.body)}"
    if isinstance(phi, ArgF):
        return f"({phi.arg} . {print_formula(phi.body)})"
    if isinstance(phi, ProjF):
        return f"proj {phi.label} {print_formula(phi.body)}"
    if isinstance(phi, Modal):
        return f"{phi.modality}<{print_formula(phi.body)}>"
    if isinstance(phi, OrF):
        return "or{" + _print_family(phi.family) + "}"
    if isinstance(phi, AndF):
        return "and{" + _print_family(phi.family) + "}"
    if isinstance(phi, StepF):
        return f"step({print_formula(phi.body)}, {render_value(phi.threshold)})"
    if isinstance(phi, ConstF):
        return f"const {render_value(phi.value)}"
    if isinstance(phi, NegF):
        return f"not {print_formula(phi.body)}"
    if isinstance(phi, SigmaMuF):
        ws = ", ".join(repr(w) for w in phi.weights)
        return f"wsum[{ws}]({print_formula(phi.body)})"
    if isinstance(phi, MixF):
        return f"mix({print_formula(phi.opt)}, {print_formula(phi.pess)})"
    raise FormulaTypeError(f"unknown formula {phi!r}")


def _print_family(fam: Family) -> str:
    parts = [print_formula(p) for p in fam.members]
    if fam.generator is not None:
        parts.append(f"...generated x{fam.bound}{'' if fam.complete else ' (partial)'}")
    return ", ".join(parts)


def render_value(v: Any) -> str:
    if v is True:
        return "top"
    if v is False:
        return "bot"
    if isinstance(v, float) and v == math.inf:
        return "inf"
    if isinstance(v, (int, float)):
        return str(int(v)) if float(v) == int(v) else repr(float(v))
    if isinstance(v, frozenset):
        return "{" + ", ".join(sorted(map(str, v))) + "}"
    return str(v)


# --------------------------------------------------------------------------
# Parsing


class FormulaParser(Parser):
    """Extends the term parser with the formula grammar and truth-value
    literals.  Values are parsed against the active truth space."""

    def __init__(self, text: str, signature: EffectSignature, space: TruthSpace):
        super().__init__(text, signature)
        self.space = space

    def parse_formula(self) -> Formula:
        return self.whole(self.formula)

    def formula(self) -> Formula:
        t = self.peek()
        if self.eat("{"):
            tok = self.peek()
            if tok.kind != "int":
                raise ParseError("expected a numeral in {n}", tok.line, tok.col)
            self.next()
            self.expect("}")
            return NatEq(int(tok.text))
        if self.eat("["):
            self.expect("U")
            self.expect("]")
            return ThunkF(self.formula())
        if self.eat("inj"):
            return InjF(self.label(), self.formula())
        if self.eat("fst"):
            return FstF(self.formula())
        if self.eat("snd"):
            return SndF(self.formula())
        if self.eat("proj"):
            return ProjF(self.label(), self.formula())
        if self.eat("or"):
            return OrF(self._family())
        if self.eat("and"):
            return AndF(self._family())
        if self.eat("step"):
            self.expect("(")
            body = self.formula()
            self.expect(",")
            v = self.truth_value()
            self.expect(")")
            return StepF(body, v)
        if self.eat("const"):
            return ConstF(self.truth_value())
        if self.eat("not"):
            return NegF(self.formula())
        if self.eat("wsum"):
            self.expect("[")
            weights = [self._number()]
            while self.eat(","):
                weights.append(self._number())
            self.expect("]")
            self.expect("(")
            body = self.formula()
            self.expect(")")
            return SigmaMuF(tuple(weights), body)
        if self.eat("mix"):
            self.expect("(")
            a = self.formula()
            self.expect(",")
            b = self.formula()
            self.expect(")")
            return MixF(a, b)
        if self.eat("("):
            v = self.val_term()
            self.expect(".")
            body = self.formula()
            self.expect(")")
            return ArgF(v, body)
        if t.kind == "name":
            name = self.next().text
            self.expect("<")
            body = self.formula()
            self.expect(">")
            return Modal(name, body)
        self.fail("expected a formula")

    def _family(self) -> Family:
        self.expect("{")
        members = []
        if not self.at("}"):
            while True:
                members.append(self.formula())
                if not self.eat(","):
                    break
        self.expect("}")
        return Family(members=tuple(members))

    def truth_value(self) -> Any:
        t = self.peek()
        if self.eat("top"):
            return self.space.top
        if self.eat("bot"):
            return self.space.bot
        if self.eat("inf"):
            return math.inf
        if t.kind == "int" or t.text == ".":
            return self._number()
        if self.eat("states"):
            return self._state_set()
        if self.eat("{"):
            return self._explicit_states()
        self.fail("expected a truth value")

    def _number(self) -> float:
        t = self.next()
        if t.kind != "int":
            raise ParseError("expected a number", t.line, t.col)
        text = t.text
        if self.eat("."):
            frac = self.peek()
            if frac.kind == "int":
                self.next()
                text = f"{text}.{frac.text}"
        return float(text)

    def _store_value(self) -> int:
        tok = self.peek()
        if tok.kind != "int":
            raise ParseError("expected a store value", tok.line, tok.col)
        self.next()
        return int(tok.text)

    def _constraint(self) -> dict[str, int]:
        out: dict[str, int] = {}
        while not self.at("}"):
            loc = self.name()
            self.expect("=")
            out[loc] = self._store_value()
            if not self.eat(","):
                break
        return out

    def _state_set(self) -> frozenset:
        if not isinstance(self.space, StateSetSpace):
            t = self.peek()
            raise ParseError("state-set literals need the powerset truth space", t.line, t.col)
        self.expect("{")
        constraint = self._constraint()
        self.expect("}")
        store = self.space.store
        out = []
        for s in self.space.all_states:
            if all(store.set_loc(s, store.index(l), v) == s for l, v in constraint.items()):
                out.append(s)
        return frozenset(out)

    def _explicit_states(self) -> frozenset:
        if not isinstance(self.space, StateSetSpace):
            t = self.peek()
            raise ParseError("state-set literals need the powerset truth space", t.line, t.col)
        store = self.space.store
        out = []
        while self.eat("["):
            state = (0,) * len(store.locations)
            while not self.at("]"):
                loc = store.index(self.name())
                self.expect("=")
                state = store.set_loc(state, loc, self._store_value())
            self.expect("]")
            out.append(state)
            if not self.eat(","):
                break
        self.expect("}")
        return frozenset(out)


def parse_formula(text: str, signature: EffectSignature, space: TruthSpace) -> Formula:
    return FormulaParser(text, signature, space).parse_formula()
