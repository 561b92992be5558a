"""Randomized law suites for the modality metatheory.

Laws checked:
  a+b. per modality, one obligation on the combinators, with no trees: each
     is monotone in each argument (`law_monotone`), from which
     leaf-monotonicity (a: raising leaf values raises the denotation) and
     Scott chains (b: denotations along a truncation chain grow and reach
     the full tree's) follow by induction on the tree;
  d. per modality, unit: the denotation of a single leaf is its value;
  e. the four relator laws for the Boolean may/must pair, as the same
     obligation on may and must: each relator law is a theorem or follows
     from monotonicity in the valuation, which is law a (`law_monotone`
     gives the argument);
  g. congruence spot-checks: pairs equivalent at bounds stay undistinguished
     under random program contexts.

Two laws are not checked per call, and `law_monotone` gives the arguments.
Law c (sequentiality: flattening a double tree commutes with denotation)
holds for any combinators.  Law f (the decomposability consequence:
flattening preserves the certified double-tree order under sampled
monotone maps), as sampled on a double tree and its copy with raised
leaves, is law a twice.  The tree-level samplers of a, b, c and f, and the
exhaustive relator check of law e over small Boolean carriers, are test
oracles in `tests/spec.py`.

All randomness is seeded; failures carry a rendering of the counterexample.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

from .config import RunConfig, Runtime, build_runtime
from .equivalence import compare, Distinguished
from .lattice import StoreConfig
from .modality import ModalitySpec, bool_modalities, evaluate_interval
from .satisfaction import Satisfier
from .suites import Pools, enumerate_basic_formulas
from .syntax import (
    Apply,
    CbpvError,
    ComTerm,
    EffOp,
    Force,
    Lambda,
    LetVal,
    NAT,
    ProducerType,
    Return,
    SeqTo,
    Thunk,
    Var,
    numeral,
)
from .trees import Node, eta


class LawError(CbpvError):
    pass


def _check_trials(trials: int) -> None:
    if trials < 0:
        raise LawError(f"congruence trials must be at least 0, got {trials}")


@dataclass(frozen=True)
class LawParams:
    samples: int = 1000
    seed: int = 0
    # no law of the suite reads it; it sizes the trees of the tree-level
    # samplers in tests/spec.py
    depth: int = 4

    def __post_init__(self):
        if self.samples < 1:
            raise LawError(f"law samples must be at least 1, got {self.samples}")
        if self.depth < 0:
            raise LawError(f"law depth must be at least 0, got {self.depth}")


@dataclass(frozen=True)
class LawResult:
    law: str
    subject: str
    runs: int
    failures: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        out = f"law {self.law} [{self.subject}]: {status} ({self.runs} checks)"
        if self.failures:
            out += f" first failure: {self.failures[0]}"
        return out


@dataclass
class LawReport:
    results: list[LawResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


# --------------------------------------------------------------------------
# Operator shapes


def _op_shapes(q: ModalitySpec) -> list[tuple[str, str, int]]:
    shapes = []
    for op, rule in q.rules.items():
        if rule.family_consult is not None:
            shapes.append((op, "indexed", rule.family_consult))
        elif op == "cost" or op.startswith("update["):
            shapes.append((op, "param", 1))
        elif op.startswith("raise["):
            shapes.append((op, "nullary", 0))
        else:
            shapes.append((op, "finite", 2))
    return shapes


# --------------------------------------------------------------------------
# The obligation and law d (per modality)


def law_monotone(q: ModalitySpec, params: LawParams) -> LawResult:
    """Laws a and b as one obligation on q's combinators: each is monotone
    in each of its arguments.  Per operator, `params.samples` argument tuples
    are drawn (and a parameter, for `cost` and `update`); each argument in
    turn is raised with `space.raise_of`, and the combinator's value must not
    fall: one check per (sample, argument).  A nullary `raise[e]` is a
    constant and adds no check.

    Why this suffices.  The fold sends Unknown to bot, a leaf to its value
    and a node to its combinator applied to its children's values.  Law a
    (raising leaf values raises the denotation) follows by induction on the
    tree: a leaf rises with its value, and a node whose children's values
    rise rises with them because its combinator is monotone.  Law b (the
    denotations along a truncation chain grow) follows by the same
    induction, since a truncation only puts Unknown where the longer tree
    has a subtree, and Unknown is bot, below every value.  That is the
    fold's definition, not a combinator's, so no bot-preservation
    obligation is needed.  Law c (sequentiality) holds for any combinators:
    the structural fold is the unique homomorphism out of the free model
    (Plotkin & Power, "Algebraic operations and generic effects", 2003), so
    folding mu(tt) and folding tt with each leaf tree valued at its own
    denotation agree.

    Law f as sampled compares a double tree tt with the copy rr whose leaves
    are raised, under sampled monotone surrogate maps h, before and after
    flattening with mu, and it is law a twice.  `raise_of` gives r >= a at
    each leaf, and h is monotone, so h(a) <= h(r) at every leaf.  A fold
    whose combinators are monotone is monotone in its leaves, so the inner
    trees' values rise, and then the outer tree's.  Flattening changes
    neither step: mu(rr) is mu(tt) with the same leaves raised.  So its
    premise and its conclusion both hold.  Decomposability as stated on
    paper relates two arbitrary double trees, which this argument does not
    cover.  The tree-level samplers of laws a, b, c and f stay in the
    tests, as the oracle for the fold.

    Law e, the four relator laws for the Boolean may/must pair, is this
    obligation on may and must.  Write Gamma(R) for the relator:
    t Gamma(R) r iff q(t, h) <= q(r, R[h]) for every modality q and
    valuation h, where R[h] values each right element at the join of h over
    its preimages.  e1 (reflexivity) and e2 (monotone in the relation): if
    R contains the identity then R[h] >= h, and if R is a subset of S then
    R[h] <= S[h], so both need only that q is monotone in the valuation.
    e3 (composition) holds for any q, since (R;S)[h] = S[R[h]].  e4
    (inverse images): the fold is natural, q(map f t, k) = q(t, k o f),
    and f^-1(f(h)) >= h and f(f^-1(k)) <= k, so each direction needs only
    monotonicity.  Monotonicity in the valuation is law a, which follows
    from this obligation as above.  Simpson & Voorneveld ("Behavioural
    equivalence via modalities for algebraic effects", ESOP 2018) state the
    relator from a set of modalities in this form.  With R[h] the sup over
    preimages, the same argument gives the relator laws for every modality
    this obligation passes on.  The exhaustive check of every relator
    instance over small carriers, `law_relator`, is a test oracle in
    `tests/spec.py`."""
    rng = random.Random(params.seed)
    space = q.space
    render = space.render
    failures = []
    runs = 0
    for op, kind, arity in _op_shapes(q):
        if not arity:
            continue
        fn = q._table[op][0]
        # only cost and update read a parameter, drawn per sample
        fixed = None if kind == "param" else Node(op, ())
        for i in range(params.samples):
            args = [space.sample(rng) for _ in range(arity)]
            node = Node(op, (), param=rng.randrange(4)) if fixed is None else fixed
            before = fn(node, args)
            for j, x in enumerate(args):
                raised = list(args)
                raised[j] = space.raise_of(rng, x)
                after = fn(node, raised)
                runs += 1
                if not space.leq(before, after):
                    failures.append(
                        f"{op} argument {j}, sample {i}: raising {render(x)} to {render(raised[j])}"
                        f" took {render(before)} to {render(after)}"
                    )
    return LawResult("a+b (monotone combinators)", q.name, runs, tuple(failures))


def law_unit(q: ModalitySpec, params: LawParams) -> LawResult:
    rng = random.Random(params.seed + 3)
    space = q.space
    failures = []
    runs = min(params.samples, 100)
    for i in range(runs):
        a = space.sample(rng)
        iv = evaluate_interval(q, eta(a))
        if not (iv.exact and iv.lo == a):
            failures.append(f"sample {i}: eta({space.render(a)}) gave {space.render(iv.lo)}")
    return LawResult("d (unit)", q.name, runs, tuple(failures))


# --------------------------------------------------------------------------
# Law g: congruence spot-check over a runtime


def _context_pool(runtime: Runtime, rng: random.Random) -> Callable[[ComTerm], ComTerm]:
    """A random context of depth at most 3 around a hole of type F nat."""

    def one_layer() -> Callable[[ComTerm], ComTerm]:
        choices = ["seq", "seq-pre", "thunk-force", "beta"]
        binary_ops = runtime.signature.binary_ops()
        if binary_ops:
            choices.append("effect")
        kind = rng.choice(choices)
        x = f"c{rng.randrange(1000)}"
        k = numeral(rng.randrange(3))
        if kind == "seq":
            return lambda m: SeqTo(m, x, Return(Var(x)))
        if kind == "seq-pre":
            return lambda m: SeqTo(Return(k), x, m)
        if kind == "thunk-force":
            return lambda m: Force(Thunk(m))
        if kind == "beta":
            return lambda m: Apply(Lambda(x, NAT, m), k)
        op = rng.choice(binary_ops)
        return lambda m: EffOp(op, None, (m, Return(k)))

    layers = [one_layer() for _ in range(rng.randrange(1, 4))]

    def ctx(m: ComTerm) -> ComTerm:
        for f in layers:
            m = f(m)
        return m

    return ctx


def _equivalent_pairs(runtime: Runtime, rng: random.Random) -> list[tuple[ComTerm, ComTerm]]:
    """Candidate pairs expected equivalent: syntactic identity, redex and
    contractum, argument swaps of the symmetric choice operators."""
    from .generators import generate_program

    sig = runtime.signature
    pairs: list[tuple[ComTerm, ComTerm]] = []
    for _ in range(6):
        m = generate_program(rng, sig, depth=2)
        pairs.append((m, m))
    for _ in range(6):
        m = generate_program(rng, sig, depth=2)
        pairs.append((Force(Thunk(m)), m))
        x = "w0"
        pairs.append((SeqTo(Return(numeral(2)), x, m), m))
        pairs.append((LetVal(x, numeral(1), m), m))
    for op in sig.binary_ops():
        for _ in range(4):
            a = generate_program(rng, sig, depth=1)
            b = generate_program(rng, sig, depth=1)
            pairs.append((EffOp(op, None, (a, b)), EffOp(op, None, (b, a))))
    return pairs


# the numerals of the congruence suite; fixed, so `laws` takes no numeral pool
CONGRUENCE_NUMERALS = (0, 1, 2, 7)


def law_congruence(
    runtime: Runtime,
    trials: int = 200,
    seed: int = 0,
) -> LawResult:
    """Contexts around candidate-equivalent pairs, compared over the suite of
    `runtime.config.suite_size` at `runtime.config.fuel`.

    The candidates are equivalent by construction, so one that the bounded
    `compare` already distinguishes is a failure line and stays out of the
    trials; with no candidate left, no trial runs."""
    _check_trials(trials)
    rng = random.Random(seed)
    sat = Satisfier(runtime.signature, runtime.modalities, runtime.space, runtime.width)
    pools = Pools(numerals=CONGRUENCE_NUMERALS)
    ty = ProducerType(NAT)
    fuel = runtime.config.fuel
    suite = enumerate_basic_formulas(ty, runtime.config.suite_size, pools, runtime.modalities)
    candidates = []
    failures = []
    for m, n in _equivalent_pairs(runtime, rng):
        if sat.type_of(m) != ty:
            continue
        verdict = compare(m, n, suite, fuel, sat)
        if isinstance(verdict, Distinguished):
            failures.append(f"candidate {m} ~ {n} distinguished before any context via {verdict.formula}")
        else:
            candidates.append((m, n))
    runs = 0
    for i in range(trials if candidates else 0):
        m, n = candidates[rng.randrange(len(candidates))]
        ctx = _context_pool(runtime, rng)
        cm, cn = ctx(m), ctx(n)
        if sat.type_of(cm) != ty:
            continue
        runs += 1
        verdict = compare(cm, cn, suite, fuel, sat)
        if isinstance(verdict, Distinguished):
            failures.append(
                f"trial {i}: context distinguished {m} ~ {n} via {verdict.formula}"
            )
    return LawResult("g (congruence spot-check)", runtime.config.signature, runs, tuple(failures))


# --------------------------------------------------------------------------
# Assembling the standard suite


def standard_modalities(store: Optional[StoreConfig] = None) -> dict[str, ModalitySpec]:
    """The ten shipped modalities: E, C, G, EG and the nondeterministic
    variants of the first three (EG itself stays plain, matching the worked
    examples), as the runtimes of their signatures wire them at `store`'s
    locations and value bound."""
    store = store or StoreConfig(("l", "r"), 3)
    out: dict[str, ModalitySpec] = {}
    for sig in ("prob", "prob+nondet", "cost", "cost+nondet", "store", "store+nondet", "prob+store"):
        cfg = RunConfig(signature=sig, locations=store.locations, value_bound=store.value_bound)
        out.update(build_runtime(cfg).modalities)
    return out


def run_law_suite(
    modalities: Sequence[ModalitySpec],
    params: LawParams,
    include_relator: bool = True,
    runtime: Optional[Runtime] = None,
    congruence_trials: int = 200,
) -> LawReport:
    _check_trials(congruence_trials)
    report = LawReport()
    for q in modalities:
        report.results.append(law_monotone(q, params))
        report.results.append(law_unit(q, params))
    if include_relator:
        # law e: the relator laws on may/must, as their obligation
        for q in bool_modalities(("nor",)).values():
            result = law_monotone(q, params)
            report.results.append(replace(result, law="e (relator laws: monotone combinators)"))
    if runtime is not None:
        report.results.append(
            law_congruence(runtime, trials=congruence_trials, seed=params.seed)
        )
    return report
