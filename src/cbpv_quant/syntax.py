"""Abstract syntax for a call-by-push-value core language with algebraic effect operators.

Terms come in two syntactic categories: passive value terms and active
computation terms.  Every node is an immutable, hashable dataclass, so terms
can be compared structurally and used as dictionary keys.  A node caches its
hash and its free-variable set on first use, so closedness is O(1) after one
walk.  Substitution builds new nodes only on the paths to a substituted
variable: a subterm in which no bound name is free comes back as the same
object, so closed subterms are shared, not rebuilt.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Iterable, Mapping, Optional, Union


class CbpvError(Exception):
    """Base class for all errors raised by this package."""


# --------------------------------------------------------------------------
# Types


class ValType:
    """A type of passive values."""

    __slots__ = ()


class ComType:
    """A type of active computations."""

    __slots__ = ()


@dataclass(frozen=True)
class UnitType(ValType):
    def __str__(self) -> str:
        return "unit"


@dataclass(frozen=True)
class NatType(ValType):
    def __str__(self) -> str:
        return "nat"


@dataclass(frozen=True)
class ThunkType(ValType):
    """U C: a frozen computation of type C."""

    com: ComType

    def __str__(self) -> str:
        return f"U {_ctype_atom(self.com)}"


@dataclass(frozen=True)
class SumType(ValType):
    """Labelled finite sum.  Labels are distinct identifiers."""

    variants: tuple[tuple[str, ValType], ...]

    def __post_init__(self):
        labels = [l for l, _ in self.variants]
        if not labels:
            raise CbpvError("sum type needs at least one variant")
        if len(set(labels)) != len(labels):
            raise CbpvError(f"duplicate sum labels: {labels}")

    def label_type(self, label: str) -> Optional[ValType]:
        for l, t in self.variants:
            if l == label:
                return t
        return None

    def __str__(self) -> str:
        if [l for l, _ in self.variants] == [str(i + 1) for i in range(len(self.variants))] and len(self.variants) == 2:
            a, b = self.variants[0][1], self.variants[1][1]
            return f"{_vtype_atom(a)} + {_vtype_atom(b)}"
        inner = ", ".join(f"{l}: {t}" for l, t in self.variants)
        return "sum{" + inner + "}"


@dataclass(frozen=True)
class PairType(ValType):
    fst: ValType
    snd: ValType

    def __str__(self) -> str:
        return f"{_vtype_atom(self.fst)} * {_vtype_atom(self.snd)}"


@dataclass(frozen=True)
class ProducerType(ComType):
    """F A: computations that return a value of type A; effects are observed here."""

    val: ValType

    def __str__(self) -> str:
        return f"F {_vtype_atom(self.val)}"


@dataclass(frozen=True)
class ArrowType(ComType):
    dom: ValType
    cod: ComType

    def __str__(self) -> str:
        return f"{_vtype_atom(self.dom)} -> {self.cod}"


@dataclass(frozen=True)
class ProductType(ComType):
    """Labelled finite product of computation types."""

    fields: tuple[tuple[str, ComType], ...]

    def __post_init__(self):
        labels = [l for l, _ in self.fields]
        if not labels:
            raise CbpvError("product type needs at least one field")
        if len(set(labels)) != len(labels):
            raise CbpvError(f"duplicate product labels: {labels}")

    def label_type(self, label: str) -> Optional[ComType]:
        for l, t in self.fields:
            if l == label:
                return t
        return None

    def __str__(self) -> str:
        inner = ", ".join(f"{l}: {t}" for l, t in self.fields)
        return "prod{" + inner + "}"


UNIT = UnitType()
NAT = NatType()

GenType = Union[ValType, ComType]


def _vtype_atom(t: ValType) -> str:
    if isinstance(t, (UnitType, NatType)):
        return str(t)
    if isinstance(t, SumType) and not str(t).startswith("sum{"):
        return f"({t})"
    if isinstance(t, (PairType, ThunkType)):
        return f"({t})"
    return str(t)


def _ctype_atom(t: ComType) -> str:
    if isinstance(t, ProductType):
        return str(t)
    return f"({t})"


# --------------------------------------------------------------------------
# Terms


class _HashCached:
    """Term nodes keep their hash, once computed, in `_hash`, and their free
    variables in `_fv`; the machine's configurations and frames keep their
    hash the same way.  Both are dropped from pickled state: string hashes
    differ between processes, and the empty set is shared, not copied."""

    __slots__ = ()
    _hash: Optional[int] = None
    _fv: Optional[frozenset[str]] = None

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_hash", None)
        state.pop("_fv", None)
        return state


class ValTerm(_HashCached):
    """A passive value term."""

    __slots__ = ()

    def __str__(self) -> str:
        return print_val(self)


class ComTerm(_HashCached):
    """An active computation term."""

    __slots__ = ()

    def __str__(self) -> str:
        return print_com(self)


GenTerm = Union[ValTerm, ComTerm]


def _hash_cached(cls):
    """A frozen dataclass, a term node or a machine configuration or frame,
    whose hash is computed on first use and cached.

    The cached value is the one the dataclass generates, the hash of the
    tuple of field values, so each subterm is hashed once however often the
    term serves as a dictionary key.  `__hash__` is one Python frame per term
    level, like the generated one.  Equality is the generated structural one,
    except that it accepts the same object at once and rejects a pair whose
    cached hashes differ before comparing fields: two long hashed numerals
    that differ are unequal at the root, not after a walk down both chains.
    """
    cls = dataclass(frozen=True)(cls)
    names = tuple(f.name for f in fields(cls))
    if len(names) > 1:
        values = attrgetter(*names)
    elif names:
        one = attrgetter(names[0])
        values = lambda self: (one(self),)
    else:
        values = lambda self: ()

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(values(self))
            # set past the frozen __setattr__ without touching __dict__,
            # which would give each hashed node its own dict
            object.__setattr__(self, "_hash", h)
        return h

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        h, g = self._hash, other._hash
        if h is not None and g is not None and h != g:
            return False
        return values(self) == values(other)

    cls.__hash__ = __hash__
    cls.__eq__ = __eq__
    return cls


@_hash_cached
class UnitVal(ValTerm):
    pass


@_hash_cached
class Zero(ValTerm):
    pass


@_hash_cached
class Succ(ValTerm):
    arg: ValTerm


@_hash_cached
class Var(ValTerm):
    name: str


@_hash_cached
class Thunk(ValTerm):
    com: "ComTerm"


@_hash_cached
class Inj(ValTerm):
    label: str
    arg: ValTerm


@_hash_cached
class Pair(ValTerm):
    fst: ValTerm
    snd: ValTerm


@_hash_cached
class Return(ComTerm):
    value: ValTerm


@_hash_cached
class SeqTo(ComTerm):
    """M to x. N  --  run M, bind its returned value to x, continue with N."""

    com: ComTerm
    binder: str
    body: ComTerm


@_hash_cached
class Force(ComTerm):
    value: ValTerm


@_hash_cached
class Lambda(ComTerm):
    binder: str
    dom: ValType
    body: ComTerm


@_hash_cached
class Apply(ComTerm):
    com: ComTerm
    arg: ValTerm


@_hash_cached
class LetVal(ComTerm):
    binder: str
    value: ValTerm
    body: ComTerm


@_hash_cached
class CaseNat(ComTerm):
    """case V of {zero -> M | succ x -> N}"""

    scrutinee: ValTerm
    zero_branch: ComTerm
    succ_binder: str
    succ_branch: ComTerm


@_hash_cached
class CaseSum(ComTerm):
    """pm V as {inj l x -> M | ...}; branches must cover every label of V's type."""

    scrutinee: ValTerm
    branches: tuple[tuple[str, str, ComTerm], ...]  # (label, binder, body)

    def branch(self, label: str) -> Optional[tuple[str, ComTerm]]:
        for l, x, m in self.branches:
            if l == label:
                return (x, m)
        return None


@_hash_cached
class CasePair(ComTerm):
    scrutinee: ValTerm
    fst_binder: str
    snd_binder: str
    body: ComTerm


@_hash_cached
class Record(ComTerm):
    """<l = M, ...> -- labelled tuple of computations, projected lazily."""

    fields: tuple[tuple[str, ComTerm], ...]

    def field(self, label: str) -> Optional[ComTerm]:
        for l, m in self.fields:
            if l == label:
                return m
        return None


@_hash_cached
class Proj(ComTerm):
    com: ComTerm
    label: str


@_hash_cached
class Fix(ComTerm):
    com: ComTerm


@_hash_cached
class EffOp(ComTerm):
    """An algebraic effect node.

    Exactly one of the two child shapes is used:
      * `children` for finite-arity operators (optionally with a nat `param`),
      * `binder`/`body` for operators with one natural-number-indexed child.
    """

    op: str
    param: Optional[ValTerm] = None
    children: tuple[ComTerm, ...] = ()
    binder: Optional[str] = None
    body: Optional[ComTerm] = None

    def __post_init__(self):
        if (self.binder is None) != (self.body is None):
            raise CbpvError(f"effect node {self.op}: binder and body must come together")
        if self.binder is not None and self.children:
            raise CbpvError(f"effect node {self.op}: cannot mix finite children and a nat-binder child")


def is_terminal(m: ComTerm) -> bool:
    """Terminal computations take no machine step: return, lambda, record."""
    return isinstance(m, (Return, Lambda, Record))


# --------------------------------------------------------------------------
# Effect signatures


@dataclass(frozen=True)
class FiniteArity:
    n: int


@dataclass(frozen=True)
class NatIndexed:
    pass


@dataclass(frozen=True)
class NatParam:
    n: int


ArityKind = Union[FiniteArity, NatIndexed, NatParam]


@dataclass(frozen=True)
class OpDescriptor:
    name: str
    arity: ArityKind


class EffectSignature:
    """The set of effect operators available to a language instance."""

    def __init__(self, ops: Iterable[OpDescriptor], name: str = ""):
        self.name = name
        self.ops: dict[str, OpDescriptor] = {}
        for d in ops:
            if d.name in self.ops:
                raise CbpvError(f"duplicate effect operator {d.name}")
            if isinstance(d.arity, FiniteArity) and d.arity.n < 0:
                raise CbpvError(f"negative arity for {d.name}")
            self.ops[d.name] = d

    def get(self, name: str) -> Optional[OpDescriptor]:
        return self.ops.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self.ops

    def __iter__(self):
        return iter(self.ops.values())

    def binary_ops(self) -> tuple[str, ...]:
        """The operators of arity 2, in declaration order."""
        return tuple(
            d.name for d in self.ops.values() if isinstance(d.arity, FiniteArity) and d.arity.n == 2
        )

    def __repr__(self):
        return f"EffectSignature({self.name or sorted(self.ops)})"


# --------------------------------------------------------------------------
# Numerals


def numeral(n: int) -> ValTerm:
    """The n-th numeral: a chain of n Succ constructors over Zero."""
    if n < 0:
        raise CbpvError("numerals are non-negative")
    v: ValTerm = Zero()
    for _ in range(n):
        v = Succ(v)
    return v


def numeral_value(v: ValTerm) -> Optional[int]:
    """Inverse of `numeral` on numerals; None on anything else."""
    n = 0
    while isinstance(v, Succ):
        n += 1
        v = v.arg
    return n if isinstance(v, Zero) else None


# --------------------------------------------------------------------------
# Free variables and substitution


_CLOSED: frozenset[str] = frozenset()


def free_vars(term: GenTerm) -> frozenset[str]:
    """The free variables of `term`, computed once per node and cached in
    `_fv`; closed nodes share one empty set.  One Python frame per term
    level, like `__hash__`."""
    fv = term._fv
    if fv is not None:
        return fv
    if isinstance(term, (UnitVal, Zero)):
        fv = _CLOSED
    elif isinstance(term, Var):
        fv = frozenset((term.name,))
    elif isinstance(term, (Succ, Inj)):
        fv = free_vars(term.arg)
    elif isinstance(term, (Thunk, Proj, Fix)):
        fv = free_vars(term.com)
    elif isinstance(term, Pair):
        fv = free_vars(term.fst) | free_vars(term.snd)
    elif isinstance(term, (Return, Force)):
        fv = free_vars(term.value)
    elif isinstance(term, SeqTo):
        fv = free_vars(term.com) | (free_vars(term.body) - {term.binder})
    elif isinstance(term, Lambda):
        fv = free_vars(term.body) - {term.binder}
    elif isinstance(term, Apply):
        fv = free_vars(term.com) | free_vars(term.arg)
    elif isinstance(term, LetVal):
        fv = free_vars(term.value) | (free_vars(term.body) - {term.binder})
    elif isinstance(term, CaseNat):
        fv = (
            free_vars(term.scrutinee)
            | free_vars(term.zero_branch)
            | (free_vars(term.succ_branch) - {term.succ_binder})
        )
    elif isinstance(term, CaseSum):
        fv = free_vars(term.scrutinee)
        for _, x, m in term.branches:
            fv |= free_vars(m) - {x}
    elif isinstance(term, CasePair):
        fv = free_vars(term.scrutinee) | (free_vars(term.body) - {term.fst_binder, term.snd_binder})
    elif isinstance(term, Record):
        fv = _CLOSED
        for _, m in term.fields:
            fv |= free_vars(m)
    elif isinstance(term, EffOp):
        fv = free_vars(term.param) if term.param is not None else _CLOSED
        for c in term.children:
            fv |= free_vars(c)
        if term.body is not None:
            fv |= free_vars(term.body) - {term.binder}
    else:
        raise CbpvError(f"free_vars: unknown term {term!r}")
    if not fv:
        fv = _CLOSED
    # past the frozen __setattr__, as `__hash__` sets `_hash`
    object.__setattr__(term, "_fv", fv)
    return fv


def substitute(term: GenTerm, bindings: Mapping[str, ValTerm]) -> GenTerm:
    """Simultaneous substitution of closed values for variables.

    Every substituted value must be closed, so capture cannot occur; binders
    simply shadow entries of `bindings`.  A subterm in which no bound name is
    free is returned as it is, the same object.
    """
    if __debug__:
        for v in bindings.values():
            assert not free_vars(v), f"substitute: open value {v}"
    return _subst(term, dict(bindings))


def _drop(bindings: dict[str, ValTerm], *names: str) -> dict[str, ValTerm]:
    out = {k: v for k, v in bindings.items() if k not in names}
    return out


def _subst(term: GenTerm, b: dict[str, ValTerm]) -> GenTerm:
    if free_vars(term).isdisjoint(b):
        return term
    if isinstance(term, Var):
        return b[term.name]
    if isinstance(term, Succ):
        return Succ(_subst(term.arg, b))
    if isinstance(term, Thunk):
        return Thunk(_subst(term.com, b))
    if isinstance(term, Inj):
        return Inj(term.label, _subst(term.arg, b))
    if isinstance(term, Pair):
        return Pair(_subst(term.fst, b), _subst(term.snd, b))
    if isinstance(term, Return):
        return Return(_subst(term.value, b))
    if isinstance(term, SeqTo):
        return SeqTo(_subst(term.com, b), term.binder, _subst(term.body, _drop(b, term.binder)))
    if isinstance(term, Force):
        return Force(_subst(term.value, b))
    if isinstance(term, Lambda):
        return Lambda(term.binder, term.dom, _subst(term.body, _drop(b, term.binder)))
    if isinstance(term, Apply):
        return Apply(_subst(term.com, b), _subst(term.arg, b))
    if isinstance(term, LetVal):
        return LetVal(term.binder, _subst(term.value, b), _subst(term.body, _drop(b, term.binder)))
    if isinstance(term, CaseNat):
        return CaseNat(
            _subst(term.scrutinee, b),
            _subst(term.zero_branch, b),
            term.succ_binder,
            _subst(term.succ_branch, _drop(b, term.succ_binder)),
        )
    if isinstance(term, CaseSum):
        return CaseSum(
            _subst(term.scrutinee, b),
            tuple((l, x, _subst(m, _drop(b, x))) for l, x, m in term.branches),
        )
    if isinstance(term, CasePair):
        return CasePair(
            _subst(term.scrutinee, b),
            term.fst_binder,
            term.snd_binder,
            _subst(term.body, _drop(b, term.fst_binder, term.snd_binder)),
        )
    if isinstance(term, Record):
        return Record(tuple((l, _subst(m, b)) for l, m in term.fields))
    if isinstance(term, Proj):
        return Proj(_subst(term.com, b), term.label)
    if isinstance(term, Fix):
        return Fix(_subst(term.com, b))
    if isinstance(term, EffOp):
        return EffOp(
            term.op,
            _subst(term.param, b) if term.param is not None else None,
            tuple(_subst(c, b) for c in term.children),
            term.binder,
            _subst(term.body, _drop(b, term.binder)) if term.body is not None else None,
        )
    raise CbpvError(f"substitute: unknown term {term!r}")


# --------------------------------------------------------------------------
# Printing (concrete syntax; parse(print(t)) is structurally the identity)


def print_val(v: ValTerm) -> str:
    n = numeral_value(v)
    if n is not None:
        return str(n)
    if isinstance(v, UnitVal):
        return "()"
    if isinstance(v, Var):
        return v.name
    if isinstance(v, Succ):
        return f"succ {_val_atom(v.arg)}"
    if isinstance(v, Thunk):
        return f"thunk {_com_atom(v.com)}"
    if isinstance(v, Inj):
        return f"inj {v.label} {_val_atom(v.arg)}"
    if isinstance(v, Pair):
        return f"({print_val(v.fst)}, {print_val(v.snd)})"
    raise CbpvError(f"print_val: unknown value {v!r}")


def _val_atom(v: ValTerm) -> str:
    if isinstance(v, (Succ, Inj, Thunk)) and numeral_value(v) is None:
        return f"({print_val(v)})"
    return print_val(v)


def print_com(m: ComTerm) -> str:
    if isinstance(m, Return):
        return f"return {print_val(m.value)}"
    if isinstance(m, SeqTo):
        return f"{_com_left(m.com)} to {m.binder}. {print_com(m.body)}"
    if isinstance(m, Force):
        return f"force {_val_atom(m.value)}"
    if isinstance(m, Lambda):
        return f"\\{m.binder}:{m.dom}. {print_com(m.body)}"
    if isinstance(m, Apply):
        return f"{_com_left(m.com)} {_val_atom(m.arg)}"
    if isinstance(m, LetVal):
        return f"let {m.binder} = {print_val(m.value)} in {print_com(m.body)}"
    if isinstance(m, CaseNat):
        return (
            f"case {print_val(m.scrutinee)} of "
            f"{{zero -> {print_com(m.zero_branch)} | succ {m.succ_binder} -> {print_com(m.succ_branch)}}}"
        )
    if isinstance(m, CaseSum):
        inner = " | ".join(f"inj {l} {x} -> {print_com(body)}" for l, x, body in m.branches)
        return f"pm {print_val(m.scrutinee)} as {{{inner}}}"
    if isinstance(m, CasePair):
        return f"pm {print_val(m.scrutinee)} as ({m.fst_binder},{m.snd_binder}) -> {print_com(m.body)}"
    if isinstance(m, Record):
        inner = ", ".join(f"{l} = {print_com(body)}" for l, body in m.fields)
        return f"<{inner}>"
    if isinstance(m, Proj):
        return f"{_com_left(m.com)} # {m.label}"
    if isinstance(m, Fix):
        return f"fix {_com_atom(m.com)}"
    if isinstance(m, EffOp):
        return _print_effop(m)
    raise CbpvError(f"print_com: unknown computation {m!r}")


def _print_effop(m: EffOp) -> str:
    head = m.op
    args: list[str] = []
    if m.param is not None:
        k = numeral_value(m.param)
        if k is not None and not head.endswith("]"):
            head = f"{head}[{k}]"
        else:
            args.append(print_val(m.param))
    if m.body is not None:
        args.append(f"{m.binder}. {print_com(m.body)}")
    else:
        args.extend(print_com(c) for c in m.children)
    return f"{head}({', '.join(args)})"


def _com_left(m: ComTerm) -> str:
    # left operand of application/projection/to: right-open forms need parens
    if isinstance(m, (SeqTo, Lambda, LetVal, CaseNat, CaseSum, CasePair, Fix, Return)):
        return f"({print_com(m)})"
    return print_com(m)


def _com_atom(m: ComTerm) -> str:
    if isinstance(m, (Return, Force, Record, EffOp)):
        return print_com(m)
    return f"({print_com(m)})"
