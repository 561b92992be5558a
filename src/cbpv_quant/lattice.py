"""Truth spaces: complete lattices with involution.

Five concrete instances are shipped: the Booleans, the unit interval, the
powerset of a finite store-state space, state-indexed unit-interval tables,
and the extended non-negative reals under the REVERSED order (smaller cost is
higher truth: leq(a, b) iff a >= b numerically, top = 0, bot = inf).  A
power space^k, ordered pointwise, holds the values of k folds run in one
walk; it has only the order and its bounds.

Order comparisons and equality are exact.  Fuel-bounded values are
double-precision floats.  The shipped example programs produce shallow
dyadic rationals, which floats represent exactly, but that does not hold in
general: arithmetic on other values rounds to nearest, so a bound can land
on the wrong side of the true value (the lower bound of a program worth 6/7
rounds above 6/7 from fuel 140).  The exact solve over a configuration
graph (`modality.least_fixed_point`) gives E's values as `Fraction`s, which
compare exactly with floats; one that a float cannot hold renders as p/q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Any, Iterable

from .syntax import CbpvError


class LatticeError(CbpvError):
    pass


@dataclass(frozen=True)
class StoreConfig:
    """A finite global store: locations and a value bound V; cells range over
    0..V-1 and update parameters are taken mod V."""

    locations: tuple[str, ...]
    value_bound: int

    def __post_init__(self):
        if self.value_bound < 1:
            raise LatticeError("value_bound must be at least 1")
        if len(set(self.locations)) != len(self.locations):
            raise LatticeError("store locations must be distinct")

    def states(self) -> tuple[tuple[int, ...], ...]:
        return tuple(product(range(self.value_bound), repeat=len(self.locations)))

    def index(self, location: str) -> int:
        try:
            return self.locations.index(location)
        except ValueError:
            raise LatticeError(f"unknown store location {location}") from None

    def set_loc(self, state: tuple[int, ...], location_idx: int, value: int) -> tuple[int, ...]:
        value = value % self.value_bound
        return state[:location_idx] + (value,) + state[location_idx + 1 :]

    def render_state(self, state: tuple[int, ...]) -> str:
        return "[" + " ".join(f"{l}={v}" for l, v in zip(self.locations, state)) + "]"


class TruthSpace:
    """A countably complete lattice with involution."""

    name: str = "abstract"
    top: Any
    bot: Any

    def leq(self, a, b) -> bool:
        raise NotImplementedError

    def join(self, values: Iterable) -> Any:
        out = self.bot
        for v in values:
            out = self.join2(out, v)
        return out

    def meet(self, values: Iterable) -> Any:
        out = self.top
        for v in values:
            out = self.meet2(out, v)
        return out

    def join2(self, a, b):
        raise NotImplementedError

    def meet2(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def contains(self, v) -> bool:
        raise NotImplementedError

    def render(self, v) -> str:
        return str(v)

    def sample(self, rng) -> Any:
        raise NotImplementedError

    def raise_of(self, rng, a) -> Any:
        """Some b with a leq b; the monotone-combinator obligation
        (`laws.law_monotone`) raises each argument with it."""
        raise NotImplementedError

    def __repr__(self):
        return f"<TruthSpace {self.name}>"


class BoolSpace(TruthSpace):
    name = "bool"
    top = True
    bot = False

    def leq(self, a, b):
        return (not a) or b

    def join2(self, a, b):
        return a or b

    def meet2(self, a, b):
        return a and b

    def neg(self, a):
        return not a

    def contains(self, v):
        return isinstance(v, bool)

    def render(self, v):
        return "top" if v else "bot"

    def sample(self, rng):
        return bool(rng.getrandbits(1))

    def raise_of(self, rng, a):
        return a or bool(rng.getrandbits(1))


_DYADICS = [k / 16 for k in range(17)]


class UnitIntervalSpace(TruthSpace):
    name = "unit"
    top = 1.0
    bot = 0.0

    def leq(self, a, b):
        return a <= b

    def join2(self, a, b):
        return max(a, b)

    def meet2(self, a, b):
        return min(a, b)

    def neg(self, a):
        return 1.0 - a

    def contains(self, v):
        return isinstance(v, (int, float)) and 0.0 <= v <= 1.0

    def render(self, v):
        return _render_float(v)

    def sample(self, rng):
        return rng.choice(_DYADICS)

    def raise_of(self, rng, a):
        return a + (1.0 - a) * rng.choice(_DYADICS)


class CostSpace(TruthSpace):
    """[0, inf] with the reversed order: lower cost is closer to truth."""

    name = "cost"
    top = 0.0
    bot = math.inf

    def leq(self, a, b):
        return a >= b

    def join2(self, a, b):
        return min(a, b)

    def meet2(self, a, b):
        return max(a, b)

    def neg(self, a):
        if a == 0.0:
            return math.inf
        if a == math.inf:
            return 0.0
        return 1.0 / a

    def contains(self, v):
        return isinstance(v, (int, float)) and v >= 0.0

    def render(self, v):
        return "inf" if v == math.inf else _render_float(v)

    def sample(self, rng):
        return rng.choice([0.0, 0.5, 1.0, 2.0, 3.0, 5.0, math.inf])

    def raise_of(self, rng, a):
        # raising in the lattice lowers the number
        if a == math.inf:
            return rng.choice([math.inf, 3.0, 1.0])
        return a * rng.choice([0.0, 0.25, 0.5, 1.0])


class StateSetSpace(TruthSpace):
    """P(S) over the finite store-state space, ordered by inclusion."""

    name = "stateset"

    def __init__(self, store: StoreConfig):
        self.store = store
        self.all_states = store.states()
        self.top = frozenset(self.all_states)
        self.bot = frozenset()

    def leq(self, a, b):
        return a <= b

    def join2(self, a, b):
        return a | b

    def meet2(self, a, b):
        return a & b

    def neg(self, a):
        return self.top - a

    def contains(self, v):
        return isinstance(v, frozenset) and v <= self.top

    def render(self, v):
        if v == self.top:
            return "top"
        if not v:
            return "bot"
        return "{" + ", ".join(self.store.render_state(s) for s in sorted(v)) + "}"

    def sample(self, rng):
        return frozenset(s for s in self.all_states if rng.getrandbits(1))

    def raise_of(self, rng, a):
        return a | self.sample(rng)


class StateTableSpace(TruthSpace):
    """[0,1]^S with the pointwise order; values are tuples aligned with the
    state enumeration of the store."""

    name = "statetable"

    def __init__(self, store: StoreConfig):
        self.store = store
        self.all_states = store.states()
        n = len(self.all_states)
        self.top = (1.0,) * n
        self.bot = (0.0,) * n

    def leq(self, a, b):
        return all(x <= y for x, y in zip(a, b))

    def join2(self, a, b):
        return tuple(max(x, y) for x, y in zip(a, b))

    def meet2(self, a, b):
        return tuple(min(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(1.0 - x for x in a)

    def contains(self, v):
        return (
            isinstance(v, tuple)
            and len(v) == len(self.all_states)
            and all(isinstance(x, (int, float)) and 0.0 <= x <= 1.0 for x in v)
        )

    def render(self, v):
        if v == self.top:
            return "top"
        if v == self.bot:
            return "bot"
        parts = ", ".join(
            f"{self.store.render_state(s)}: {_render_float(x)}"
            for s, x in zip(self.all_states, v)
        )
        return "{" + parts + "}"

    def sample(self, rng):
        return tuple(rng.choice(_DYADICS) for _ in self.all_states)

    def raise_of(self, rng, a):
        return tuple(x + (1.0 - x) * rng.choice(_DYADICS) for x in a)


class PowerSpace(TruthSpace):
    """space^k: k-tuples of `space` values under the pointwise order, the
    truth space of k folds run in one walk (`modality.power`)."""

    def __init__(self, space: TruthSpace, k: int):
        self.space = space
        self.name = f"{space.name}^{k}"
        self.top = (space.top,) * k
        self.bot = (space.bot,) * k

    def leq(self, a, b):
        return all(map(self.space.leq, a, b))


def _render_float(v) -> str:
    """An integer without a point; a float, or a `Fraction` a float holds
    exactly (a dyadic one), as the float's repr; any other `Fraction` as
    p/q."""
    if v == int(v):
        return str(int(v))
    q = getattr(v, "denominator", None)
    if q is not None and (q & (q - 1) or float(v) != v):
        return f"{v.numerator}/{q}"
    return repr(float(v))


def assert_interval_order(space: TruthSpace, lo, hi) -> None:
    if not space.leq(lo, hi):
        raise LatticeError(
            f"interval bounds out of order in {space.name}: "
            f"{space.render(lo)} not below {space.render(hi)}"
        )
