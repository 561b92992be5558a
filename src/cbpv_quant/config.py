"""Run configuration: signature selection, truth-space parameters, and the
wiring of both into an executable runtime.

The configuration document is key-value text (one `key = value` per line,
`#` comments).  Recognized keys:

    signature       = prob | store | prob+store | cost  (+nondet, +error, each once)
    truth_space     = auto | bool | unit | stateset | statetable | cost
    locations       = [l, r]
    value_bound     = 3
    errors          = [e1, e2]
    error_valuation.<q>.<e> = <truth value>   # e.g. states{l=1}, 0.5, top
    fuel            = 16
    suite_size      = 3
    seed            = 0
    numerals        = [0, 1, 7]

Command-line flags of the same names (`--value-bound 3`, `--locations l,r`)
set the same fields: `apply_flags` converts them with the same table,
`SETTINGS`, and they win over file values.

A file holds defaults that every verb shares, so a verb ignores the keys it
does not use: `typecheck` ignores `fuel`, only `compare` and `distinguish`
read `numerals`, and only `laws` reads `seed`.  A verb has a flag only for
the settings it reads, so the others are refused as flags, and an
unrecognized key is an error.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping, Optional

from .formulas import FormulaParser
from .lattice import (
    StateSetSpace,
    StateTableSpace,
    StoreConfig,
    TruthSpace,
)
from .modality import (
    ModalitySpec,
    bool_modalities,
    cost_modality,
    expectation_modality,
    make_error_lift,
    make_nondet_variants,
    prob_store_modality,
    store_modality,
)
from .syntax import (
    CbpvError,
    EffectSignature,
    FiniteArity,
    NatIndexed,
    NatParam,
    OpDescriptor,
)


class ConfigError(CbpvError):
    pass


_BASES = ("prob", "store", "prob+store", "cost")


@dataclass(frozen=True)
class RunConfig:
    signature: str = "prob"
    truth_space: str = "auto"
    locations: tuple[str, ...] = ("l", "r")
    value_bound: int = 3
    errors: tuple[str, ...] = ("e",)
    error_valuations: tuple[tuple[str, str, str], ...] = ()  # (modality, label, literal)
    fuel: int = 16
    suite_size: int = 3
    seed: int = 0
    numerals: tuple[int, ...] = (0, 1, 7)

    def parts(self) -> tuple[str, bool, bool]:
        """Split the signature selector into (base, nondet, error)."""
        chunks = self.signature.split("+")
        repeated = sorted({c for c in chunks if chunks.count(c) > 1})
        if repeated:
            raise ConfigError(f"signature {self.signature!r} names {', '.join(repeated)} more than once")
        nondet = "nondet" in chunks
        error = "error" in chunks
        base = "+".join(c for c in chunks if c not in ("nondet", "error"))
        if base not in _BASES:
            raise ConfigError(
                f"unknown signature {self.signature!r}; base must be one of {_BASES}"
            )
        return base, nondet, error


def _items(text: str) -> tuple[str, ...]:
    """The comma-separated items of a list value, whitespace stripped."""
    text = text.strip()
    return tuple(x.strip() for x in text.split(",")) if text else ()


def _positive(text: str) -> int:
    n = int(text)
    if n < 1:
        raise ValueError(f"must be at least 1, got {n}")
    return n


def _numerals(text: str) -> tuple[int, ...]:
    # with no numerals a suite at type F nat is empty, and an empty suite
    # distinguishes nothing; no term returns a negative numeral
    numerals = tuple(int(x) for x in _items(text))
    if not numerals:
        raise ValueError("needs at least one numeral")
    if min(numerals) < 0:
        raise ValueError(f"must be non-negative, got {min(numerals)}")
    return numerals


# The one text -> value converter of every RunConfig field a file key or a
# flag of the same name sets.  List values are comma-separated items; a file
# writes them in brackets, [a, b], a flag without.
SETTINGS: dict[str, Callable[[str], Any]] = {
    "signature": str,
    "truth_space": str,
    "locations": _items,
    "value_bound": int,
    "errors": _items,
    "fuel": int,
    "suite_size": _positive,
    "seed": int,
    "numerals": _numerals,
}
_LISTS = ("locations", "errors", "numerals")


def _convert(key: str, text: str, where: str) -> Any:
    """The value of setting `key` written as `text`; `where` names the
    source (a file line or a flag) in the ConfigError a bad value raises."""
    try:
        return SETTINGS[key](text)
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from None


def apply_flags(cfg: RunConfig, flags: Mapping[str, Any]) -> RunConfig:
    """`cfg` with every setting that `flags` holds as text, not None: the
    command line's `--value-bound 3` arrives as `flags["value_bound"] = "3"`."""
    updates = {
        key: _convert(key, text, "--" + key.replace("_", "-"))
        for key in SETTINGS
        if (text := flags.get(key)) is not None
    }
    return replace(cfg, **updates)


def parse_config(text: str) -> RunConfig:
    updates: dict[str, Any] = {}
    valuations: list[tuple[str, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key.startswith("error_valuation."):
            rest = key[len("error_valuation.") :]
            if "." not in rest:
                raise ConfigError(f"line {lineno}: error_valuation.<q>.<e> expected")
            q, _, e = rest.partition(".")
            valuations.append((q, e, value))
        elif key in SETTINGS:
            if key in _LISTS:
                if not (value.startswith("[") and value.endswith("]")):
                    raise ConfigError(f"line {lineno}: expected a [a, b] list")
                value = value[1:-1]
            updates[key] = _convert(key, value, f"line {lineno}: {key}")
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    if valuations:
        updates["error_valuations"] = tuple(valuations)
    return RunConfig(**updates)


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


# --------------------------------------------------------------------------
# Runtime


@dataclass
class Runtime:
    config: RunConfig
    signature: EffectSignature
    space: TruthSpace
    modalities: dict[str, ModalitySpec]
    store: Optional[StoreConfig]

    @property
    def width(self) -> int:
        """The number of children of a nat-indexed node: a store lookup has
        one per storable value, 0..value_bound-1."""
        return self.config.value_bound


def build_signature(cfg: RunConfig) -> EffectSignature:
    base, nondet, error = cfg.parts()
    ops: list[OpDescriptor] = []
    if base in ("prob", "prob+store"):
        ops.append(OpDescriptor("por", FiniteArity(2)))
    if base in ("store", "prob+store"):
        for loc in cfg.locations:
            ops.append(OpDescriptor(f"lookup[{loc}]", NatIndexed()))
            ops.append(OpDescriptor(f"update[{loc}]", NatParam(1)))
    if base == "cost":
        ops.append(OpDescriptor("cost", NatParam(1)))
    if nondet:
        ops.append(OpDescriptor("nor", FiniteArity(2)))
    if error:
        for e in cfg.errors:
            ops.append(OpDescriptor(f"raise[{e}]", FiniteArity(0)))
    return EffectSignature(ops, name=cfg.signature)


def build_runtime(cfg: RunConfig) -> Runtime:
    base, nondet, error = cfg.parts()
    signature = build_signature(cfg)
    store = None
    if base in ("store", "prob+store"):
        store = StoreConfig(cfg.locations, cfg.value_bound)

    auto = cfg.truth_space in ("auto", "")
    if not auto and cfg.truth_space == "bool":
        # may/must have a combinator at each binary operator only
        binary = signature.binary_ops()
        lacking = [op for op in signature.ops if op not in binary]
        if lacking:
            raise ConfigError(
                f"truth_space 'bool' has no Boolean combinator for {', '.join(lacking)}"
                f" of signature {cfg.signature!r}"
            )
        mods = bool_modalities(binary)
        return Runtime(cfg, signature, mods["may"].space, mods, store)

    if base == "prob":
        q = expectation_modality()
    elif base == "store":
        q = store_modality(StateSetSpace(store))
    elif base == "prob+store":
        q = prob_store_modality(StateTableSpace(store))
    else:
        q = cost_modality()
    space = q.space

    if not auto and cfg.truth_space != space.name:
        raise ConfigError(
            f"truth_space {cfg.truth_space!r} is inconsistent with signature "
            f"{cfg.signature!r} (expected {space.name!r})"
        )

    mods = {m.name: m for m in (make_nondet_variants(q) if nondet else (q,))}

    if error:
        for q, e, _ in cfg.error_valuations:
            if q not in mods:
                raise ConfigError(
                    f"error_valuation.{q}.{e}: signature {cfg.signature!r} has no "
                    f"modality {q!r} to lift (it has {', '.join(mods)})"
                )
        lifted: dict[str, ModalitySpec] = {}
        for name, q in mods.items():
            f = _error_valuation(cfg, name, space)
            lifted[name + "f"] = make_error_lift(q, f, cfg.errors)
        mods.update(lifted)
    return Runtime(cfg, signature, space, mods, store)


def _error_valuation(cfg: RunConfig, modality: str, space: TruthSpace) -> dict[str, Any]:
    out = {e: space.bot for e in cfg.errors}
    for q, e, literal in cfg.error_valuations:
        if q != modality:
            continue
        if e not in out:
            raise ConfigError(f"error_valuation names unknown error label {e!r}")
        out[e] = parse_truth_value(literal, space)
    return out


def parse_truth_value(literal: str, space: TruthSpace) -> Any:
    p = FormulaParser(literal, EffectSignature(()), space)
    v = p.truth_value()
    t = p.peek()
    if t.kind != "eof":
        raise ConfigError(f"trailing input in truth value {literal!r}")
    if not space.contains(v):
        raise ConfigError(f"value {literal!r} is outside the {space.name} space")
    return v
