"""Specification references the tests hold the package to.

`denote_at_depth` is the defining depth-indexed recurrence of a modality:
index 0 is bot, Unknown is bot, a leaf at index n+1 is its own value, and an
operator node at index n+1 applies its combinator to the values of its
children at index n.  A store lookup with value bound V (a rule with
`family_consult` V) reads children 0..V-1 once each, child v at index
max(0, n - v), and then picks per state the child named by that state's
value at the looked-up location.  The package evaluates the index-free
structural fold (`modality._fold`); on a finite tree it agrees with the
recurrence at a deep enough index.

`tree_leq` is the approximation order on effect trees and
`contains_unknown` tells a fully explored tree; `parse_vtype` and
`parse_ctype` read a type in the program grammar."""

from cbpv_quant.modality import ModalityError, ModalitySpec
from cbpv_quant.parser import Parser
from cbpv_quant.syntax import ComType, EffectSignature, ValType
from cbpv_quant.trees import EffectTree, Leaf, Node, _Unknown


def child_at(children: tuple[EffectTree, ...], i: int) -> EffectTree:
    if i < 0 or i >= len(children):
        raise ModalityError(f"child index {i} out of range for {len(children)} children")
    return children[i]


def _denote(q: ModalitySpec, t: EffectTree, n: int):
    """The defining recurrence at index n: Unknown and index 0 are bot, and
    a leaf is its own payload."""
    if isinstance(t, _Unknown) or n <= 0:
        return q.space.bot
    if isinstance(t, Leaf):
        return t.value
    try:
        rule = q.rules[t.op]
    except KeyError:
        raise ModalityError(f"operator {t.op!r} has no combinator in modality {q.name}") from None
    ch = t.children
    if rule.family_consult is None:
        kids = [_denote(q, child_at(ch, i), n - 1) for i in range(len(ch))]
    else:
        kids = [_denote(q, child_at(ch, v), max(0, n - 1 - v)) for v in range(rule.family_consult)]
    return rule.fn(t, kids)


def denote_at_depth(q: ModalitySpec, t: EffectTree, n: int):
    """The depth-n approximation of q's denotation (Unknown and exhaustion
    both fall to bot, as in the defining recurrence)."""
    return _denote(q, t, n)


def tree_leq(t: EffectTree, r: EffectTree) -> bool:
    """The approximation order: t below r iff t is r with some subtrees pruned
    to Unknown."""
    if isinstance(t, _Unknown):
        return True
    if isinstance(t, Leaf):
        return isinstance(r, Leaf) and t.value == r.value
    assert isinstance(t, Node)
    if not isinstance(r, Node) or t.op != r.op or t.param != r.param:
        return False
    tc, rc = t.children, r.children
    if len(tc) != len(rc):
        return False
    return all(tree_leq(a, b) for a, b in zip(tc, rc))


def contains_unknown(t: EffectTree) -> bool:
    if isinstance(t, _Unknown):
        return True
    if isinstance(t, Leaf):
        return False
    return any(contains_unknown(c) for c in t.children)


def parse_vtype(text: str) -> ValType:
    p = Parser(text, EffectSignature(()))
    return p.whole(p.vtype)


def parse_ctype(text: str) -> ComType:
    p = Parser(text, EffectSignature(()))
    return p.whole(p.ctype)
