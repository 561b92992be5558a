"""Recursive-descent parser for the concrete program syntax.

Grammar (ASCII keywords):

    return V | thunk M | force V | \\x:T. M | M V | M to x. N
    let x = V in N | case V of {zero -> M | succ x -> N}
    inj i V | pm V as {inj i x -> M | ...} | (V, W) | pm V as (x,y) -> M
    <i = M, ...> | M # i | fix M
    por(M,N) | nor(M,N) | lookup[l](x. M) | update[l](V, M) | cost[c](M) | raise[e]()

Types: unit, nat, U C, F A, A -> C, A + B / sum{...}, A * B, prod{...}.
Effect operators are resolved against the active signature; `//` starts a
line comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

from .syntax import (
    ArrowType,
    CaseNat,
    CasePair,
    CaseSum,
    CbpvError,
    ComTerm,
    ComType,
    EffOp,
    EffectSignature,
    Fix,
    Force,
    Inj,
    Lambda,
    LetVal,
    NatIndexed,
    NatParam,
    NatType,
    Pair,
    PairType,
    ProducerType,
    ProductType,
    Proj,
    Apply,
    Record,
    Return,
    SeqTo,
    Succ,
    SumType,
    Thunk,
    ThunkType,
    UnitType,
    UnitVal,
    ValTerm,
    ValType,
    Var,
    Zero,
    numeral,
)


T = TypeVar("T")


class ParseError(CbpvError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str  # 'name', 'int', 'exp' (a number in exponent notation), 'punct', 'eof'
    text: str
    line: int
    col: int


_PUNCT = [
    "->", "#", "(", ")", "[", "]", "{", "}", "<", ">", ",", ".", ":", "|",
    "=", "\\", "*", "+",
]

KEYWORDS = {
    "return", "thunk", "force", "let", "in", "case", "of", "zero", "succ",
    "pm", "as", "inj", "fix", "to", "unit", "nat", "U", "F", "sum", "prod",
}

_TOKEN_RE = re.compile(
    r"(?P<ws>[ \t\r]+)|(?P<comment>//[^\n]*)|(?P<nl>\n)"
    r"|(?P<exp>\d+(?:\.\d+)?[eE][+-]?\d+)|(?P<int>\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<punct>" + "|".join(re.escape(p) for p in _PUNCT) + r")"
)


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        lexeme = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(lexeme)
        else:
            toks.append(Token(kind, lexeme, line, col))
            col += len(lexeme)
        pos = m.end()
    toks.append(Token("eof", "", line, col))
    return toks


class Parser:
    def __init__(self, text: str, signature: EffectSignature):
        self.toks = tokenize(text)
        self.i = 0
        self.sig = signature

    # ---- token plumbing

    def peek(self, k: int = 0) -> Token:
        return self.toks[min(self.i + k, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def at(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind in ("punct", "name", "int")

    def eat(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def expect(self, text: str) -> Token:
        t = self.peek()
        if not self.eat(text):
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t

    def fail(self, msg: str):
        t = self.peek()
        raise ParseError(f"{msg} (found {t.text!r})", t.line, t.col)

    def name(self) -> str:
        t = self.peek()
        if t.kind != "name":
            self.fail("expected an identifier")
        return self.next().text

    def label(self) -> str:
        t = self.peek()
        if t.kind in ("name", "int"):
            return self.next().text
        self.fail("expected a label")

    # ---- entry points

    def whole(self, phrase: Callable[[], T]) -> T:
        """Parse one `phrase` that must span the whole input."""
        result = phrase()
        t = self.peek()
        if t.kind != "eof":
            raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
        return result

    def parse_program(self) -> ComTerm:
        return self.whole(self.com_term)

    # ---- computations

    def com_term(self) -> ComTerm:
        m = self.com_app()
        if self.eat("to"):
            x = self.name()
            self.expect(".")
            return SeqTo(m, x, self.com_term())
        return m

    def com_app(self) -> ComTerm:
        m = self.com_atom()
        while True:
            if self.eat("#"):
                m = Proj(m, self.label())
            elif self.starts_value():
                m = Apply(m, self.val_atom())
            else:
                return m

    def starts_value(self) -> bool:
        t = self.peek()
        if t.kind == "int":
            return True
        if t.text in ("(", "zero", "succ", "inj", "thunk"):
            return True
        return t.kind == "name" and t.text not in KEYWORDS and t.text not in self.sig.ops and not self._op_head(t.text)

    def _op_head(self, text: str) -> bool:
        # `lookup`, `update`, `raise` appear in signatures as bracketed families
        return any(n.startswith(text + "[") for n in self.sig.ops)

    def com_atom(self) -> ComTerm:
        t = self.peek()
        if self.eat("return"):
            return Return(self.val_term())
        if self.eat("force"):
            return Force(self.val_atom())
        if self.eat("\\"):
            x = self.name()
            self.expect(":")
            ty = self.vtype()
            self.expect(".")
            return Lambda(x, ty, self.com_term())
        if self.eat("let"):
            x = self.name()
            self.expect("=")
            v = self.val_term()
            self.expect("in")
            return LetVal(x, v, self.com_term())
        if self.eat("case"):
            v = self.val_term()
            self.expect("of")
            self.expect("{")
            self.expect("zero")
            self.expect("->")
            mz = self.com_term()
            self.expect("|")
            self.expect("succ")
            x = self.name()
            self.expect("->")
            ms = self.com_term()
            self.expect("}")
            return CaseNat(v, mz, x, ms)
        if self.eat("pm"):
            v = self.val_term()
            self.expect("as")
            if self.eat("("):
                x = self.name()
                self.expect(",")
                y = self.name()
                self.expect(")")
                self.expect("->")
                return CasePair(v, x, y, self.com_term())
            self.expect("{")
            branches = []
            while True:
                self.expect("inj")
                l = self.label()
                x = self.name()
                self.expect("->")
                branches.append((l, x, self.com_term()))
                if not self.eat("|"):
                    break
            self.expect("}")
            return CaseSum(v, tuple(branches))
        if self.eat("<"):
            fields = []
            while True:
                l = self.label()
                self.expect("=")
                fields.append((l, self.com_term()))
                if not self.eat(","):
                    break
            self.expect(">")
            return Record(tuple(fields))
        if self.eat("fix"):
            return Fix(self.com_atom())
        if self.eat("("):
            m = self.com_term()
            self.expect(")")
            return m
        if t.kind == "name" and (t.text in self.sig.ops or self._op_head(t.text)):
            return self.eff_op()
        if t.kind == "name" and t.text not in KEYWORDS:
            raise ParseError(
                f"unknown effect operator or misplaced variable {t.text!r} "
                f"(variables are value terms)",
                t.line,
                t.col,
            )
        self.fail("expected a computation term")

    def eff_op(self) -> ComTerm:
        t = self.next()
        head = t.text
        bracket: Optional[str] = None
        if self.eat("["):
            bracket = self.label()
            self.expect("]")
        name = head
        param: Optional[ValTerm] = None
        if bracket is not None:
            fused = f"{head}[{bracket}]"
            if fused in self.sig.ops:
                name = fused
            elif head in self.sig.ops and isinstance(self.sig.ops[head].arity, NatParam) and bracket.isdigit():
                param = numeral(int(bracket))
            else:
                raise ParseError(f"unknown effect operator {fused!r} for the active signature", t.line, t.col)
        desc = self.sig.get(name)
        if desc is None:
            raise ParseError(f"unknown effect operator {name!r} for the active signature", t.line, t.col)
        self.expect("(")
        if isinstance(desc.arity, NatIndexed):
            x = self.name()
            self.expect(".")
            body = self.com_term()
            self.expect(")")
            return EffOp(name, None, (), x, body)
        children: list[ComTerm] = []
        if isinstance(desc.arity, NatParam) and param is None:
            param = self.val_term()
            for _ in range(desc.arity.n):
                self.expect(",")
                children.append(self.com_term())
        else:
            n = desc.arity.n
            for k in range(n):
                if k > 0:
                    self.expect(",")
                children.append(self.com_term())
        self.expect(")")
        if len(children) != desc.arity.n:
            raise ParseError(f"{name} expects {desc.arity.n} children", t.line, t.col)
        return EffOp(name, param, tuple(children))

    # ---- values

    def val_term(self) -> ValTerm:
        return self.val_atom()

    def val_atom(self) -> ValTerm:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return numeral(int(t.text))
        if self.eat("zero"):
            return Zero()
        if self.eat("succ"):
            return Succ(self.val_atom())
        if self.eat("inj"):
            l = self.label()
            return Inj(l, self.val_atom())
        if self.eat("thunk"):
            return Thunk(self.com_atom())
        if self.eat("("):
            if self.eat(")"):
                return UnitVal()
            v = self.val_term()
            if self.eat(","):
                w = self.val_term()
                self.expect(")")
                return Pair(v, w)
            self.expect(")")
            return v
        if t.kind == "name" and t.text not in KEYWORDS:
            self.next()
            return Var(t.text)
        self.fail("expected a value term")

    # ---- types

    def vtype(self) -> ValType:
        left = self.vtype_mul()
        if self.eat("+"):
            right = self.vtype_mul()
            variants = [("1", left), ("2", right)]
            k = 3
            while self.eat("+"):
                variants.append((str(k), self.vtype_mul()))
                k += 1
            return SumType(tuple(variants))
        return left

    def vtype_mul(self) -> ValType:
        left = self.vtype_atom()
        if self.eat("*"):
            return PairType(left, self.vtype_mul())
        return left

    def vtype_atom(self) -> ValType:
        t = self.peek()
        if self.eat("unit"):
            return UnitType()
        if self.eat("nat"):
            return NatType()
        if self.eat("U"):
            return ThunkType(self.ctype_atom())
        if self.eat("sum"):
            self.expect("{")
            variants = []
            while True:
                l = self.label()
                self.expect(":")
                variants.append((l, self.vtype()))
                if not self.eat(","):
                    break
            self.expect("}")
            return SumType(tuple(variants))
        if self.eat("("):
            ty = self.vtype()
            self.expect(")")
            return ty
        self.fail("expected a value type")

    def ctype(self) -> ComType:
        # an arrow's domain is a value type: backtrack if `->` does not follow
        save = self.i
        try:
            dom = self.vtype()
            if self.eat("->"):
                return ArrowType(dom, self.ctype())
        except ParseError:
            pass
        self.i = save
        return self.ctype_atom()

    def ctype_atom(self) -> ComType:
        t = self.peek()
        if self.eat("F"):
            return ProducerType(self.vtype_atom())
        if self.eat("prod"):
            self.expect("{")
            fields = []
            while True:
                l = self.label()
                self.expect(":")
                fields.append((l, self.ctype()))
                if not self.eat(","):
                    break
            self.expect("}")
            return ProductType(tuple(fields))
        if self.eat("("):
            ty = self.ctype()
            self.expect(")")
            return ty
        self.fail("expected a computation type")


def parse_program(text: str, signature: EffectSignature) -> ComTerm:
    """Parse a computation term in the concrete grammar."""
    return Parser(text, signature).parse_program()
