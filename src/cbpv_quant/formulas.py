"""The typed formula language and its concrete syntax.

Concrete forms mirror the logic's constructors: `{7}`, `[U]phi`, `inj i phi`,
`fst phi`, `snd phi`, `(V . phi)`, `proj i phi`, `q<phi>` for modalities,
`or{...}`, `and{...}`, `step(phi, a)`, `const a`, `not phi`.  Derived
constructors print and parse as `wsum[w0, ...](phi)` and `mix(phi, psi)`.

Disjunctions and conjunctions range over a finite tuple of members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional

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
    members: tuple[Formula, ...]


@dataclass(frozen=True)
class AndF(Formula):
    members: tuple[Formula, ...]


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
        return all(is_positive(p) for p in phi.members)
    if isinstance(phi, SigmaMuF):
        return is_positive(phi.body)
    if isinstance(phi, MixF):
        return is_positive(phi.opt) and is_positive(phi.pess)
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
            for p in phi.members:
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


def print_formula(phi: Formula, space: Optional[TruthSpace] = None) -> str:
    """The concrete syntax of `phi`, which `parse_formula` reads back under
    `space`: truth values print through `space.render`.  Without a space they
    print as Python reprs, for `str(phi)` and formulas that hold no truth
    value, such as the basic formulas of a suite."""
    value = repr if space is None else space.render

    def go(phi: Formula) -> str:
        if isinstance(phi, NatEq):
            return "{" + str(phi.n) + "}"
        if isinstance(phi, ThunkF):
            return f"[U]{go(phi.body)}"
        if isinstance(phi, InjF):
            return f"inj {phi.label} {go(phi.body)}"
        if isinstance(phi, FstF):
            return f"fst {go(phi.body)}"
        if isinstance(phi, SndF):
            return f"snd {go(phi.body)}"
        if isinstance(phi, ArgF):
            return f"({phi.arg} . {go(phi.body)})"
        if isinstance(phi, ProjF):
            return f"proj {phi.label} {go(phi.body)}"
        if isinstance(phi, Modal):
            return f"{phi.modality}<{go(phi.body)}>"
        if isinstance(phi, (OrF, AndF)):
            return ("or{" if isinstance(phi, OrF) else "and{") + ", ".join(map(go, phi.members)) + "}"
        if isinstance(phi, StepF):
            return f"step({go(phi.body)}, {value(phi.threshold)})"
        if isinstance(phi, ConstF):
            return f"const {value(phi.value)}"
        if isinstance(phi, NegF):
            return f"not {go(phi.body)}"
        if isinstance(phi, SigmaMuF):
            ws = ", ".join(repr(w) for w in phi.weights)
            return f"wsum[{ws}]({go(phi.body)})"
        if isinstance(phi, MixF):
            return f"mix({go(phi.opt)}, {go(phi.pess)})"
        raise FormulaTypeError(f"unknown formula {phi!r}")

    return go(phi)


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
            return OrF(self._members())
        if self.eat("and"):
            return AndF(self._members())
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

    def _members(self) -> tuple[Formula, ...]:
        self.expect("{")
        members = []
        if not self.at("}"):
            while True:
                members.append(self.formula())
                if not self.eat(","):
                    break
        self.expect("}")
        return tuple(members)

    def truth_value(self) -> Any:
        t = self.peek()
        if self.eat("top"):
            return self.space.top
        if self.eat("bot"):
            return self.space.bot
        if self.eat("inf"):
            return math.inf
        if t.kind in ("int", "exp") or t.text == ".":
            return self._number()
        if self.eat("states"):
            return self._state_set()
        if self.eat("{"):
            if isinstance(self.space, StateTableSpace):
                return self._state_table()
            return self._explicit_states()
        self.fail("expected a truth value")

    def _number(self) -> float:
        t = self.next()
        if t.kind == "exp":
            return float(t.text)
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
        out = []
        while self.at("["):
            out.append(self._state())
            if not self.eat(","):
                break
        self.expect("}")
        return frozenset(out)

    def _state_table(self) -> tuple:
        """`{[l=v ...]: number, ...}`: the listed states' values, 0 elsewhere."""
        values = {}
        while self.at("["):
            t = self.peek()
            state = self._state()
            if state in values:
                raise ParseError(f"state {self.space.store.render_state(state)} listed twice", t.line, t.col)
            self.expect(":")
            values[state] = self._number()
            if not self.eat(","):
                break
        self.expect("}")
        return tuple(values.get(s, 0.0) for s in self.space.all_states)

    def _state(self) -> tuple[int, ...]:
        """`[l=v ...]`; unlisted locations hold 0, values wrap mod V."""
        store = self.space.store
        self.expect("[")
        state = (0,) * len(store.locations)
        while not self.at("]"):
            loc = store.index(self.name())
            self.expect("=")
            state = store.set_loc(state, loc, self._store_value())
        self.expect("]")
        return state


def parse_formula(text: str, signature: EffectSignature, space: TruthSpace) -> Formula:
    return FormulaParser(text, signature, space).parse_formula()
