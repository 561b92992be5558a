"""Command-line front end: typecheck, eval, sat, compare, distinguish, laws.

A run is configured by an optional `cbpv-quant.toml` key-value file in the
working directory (or `--config PATH`), overridden by flags.  All randomness
is seeded, so identical invocations produce byte-identical reports.

Exit codes: 0 no refutation/distinction, 1 distinguished/refuted (or law
failures), 2 errors or inconclusive-only findings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .config import ConfigError, RunConfig, Runtime, _items, apply_flags, build_runtime, load_config
from .equivalence import (
    Distinguished,
    NoDistinctionFound,
    compare,
    find_distinguishing_formula,
)
from .formulas import is_positive, parse_formula, print_formula
from .lattice import StoreConfig
from .laws import LawParams, run_law_suite, standard_modalities
from .machine import eval_tree
from .parser import parse_program
from .satisfaction import Satisfier, satisfies_exact
from .suites import Pools, enumerate_basic_formulas
from .syntax import CbpvError, NatIndexed, Return
from .trees import Leaf, Node, _Unknown
from .typecheck import EMPTY, infer_type


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _render_tree(t, sig, out: list[str], indent: int = 0, prefix: str = "") -> None:
    """Append t's lines to out; the children of a nat-indexed node (a store
    lookup) carry their index, `k: `."""
    pad = "  " * indent + prefix
    if isinstance(t, _Unknown):
        out.append(pad + "?")
    elif isinstance(t, Leaf):
        term = t.value
        if isinstance(term, Return):
            out.append(pad + f"ret {term.value}")
        else:
            out.append(pad + f"term {term}")
    else:
        assert isinstance(t, Node)
        out.append(pad + _node_label(t) + ":")
        desc = sig.get(t.op)
        indexed = desc is not None and isinstance(desc.arity, NatIndexed)
        for i, c in enumerate(t.children):
            _render_tree(c, sig, out, indent + 1, f"{i}: " if indexed else "")


def _node_label(t: Node) -> str:
    if t.param is None:
        return t.op
    if t.op.endswith("]"):
        return f"{t.op[:-1]}:={t.param}]"
    return f"{t.op}[{t.param}]"


def _tree_json(t):
    if isinstance(t, _Unknown):
        return {"unknown": True}
    if isinstance(t, Leaf):
        return {"leaf": str(t.value)}
    assert isinstance(t, Node)
    return {"op": t.op, "param": t.param, "children": [_tree_json(c) for c in t.children]}


def _interval_json(space, iv):
    return {"lo": space.render(iv.lo), "hi": space.render(iv.hi), "exact": iv.exact}


class Reporter:
    def __init__(self, as_json: bool):
        self.as_json = as_json
        self.lines: list[str] = []
        self.doc: dict = {}

    def text(self, line: str):
        self.lines.append(line)

    def flush(self) -> str:
        if self.as_json:
            return json.dumps(self.doc, indent=2, sort_keys=True)
        return "\n".join(self.lines)


def _runtime(args) -> Runtime:
    if args.config:
        cfg = load_config(args.config)
    elif os.path.exists("cbpv-quant.toml"):
        cfg = load_config("cbpv-quant.toml")
    else:
        cfg = RunConfig()
    return build_runtime(apply_flags(cfg, vars(args)))


def _pools(rt: Runtime) -> Pools:
    return Pools(numerals=rt.config.numerals)


# --------------------------------------------------------------------------
# Verbs


def cmd_typecheck(args) -> tuple[int, str]:
    rt = _runtime(args)
    rep = Reporter(args.json)
    term = parse_program(_read_input(args.program), rt.signature)
    ty = infer_type(EMPTY, term, rt.signature)
    rep.text(f"type: {ty}")
    rep.doc = {"type": str(ty)}
    return 0, rep.flush()


def cmd_eval(args) -> tuple[int, str]:
    rt = _runtime(args)
    rep = Reporter(args.json)
    term = parse_program(_read_input(args.program), rt.signature)
    infer_type(EMPTY, term, rt.signature)
    fuel = rt.config.fuel
    tree = eval_tree(term, fuel, rt.signature, rt.width)
    lines: list[str] = []
    _render_tree(tree, rt.signature, lines)
    for line in lines:
        rep.text(line)
    rep.doc = {"fuel": fuel, "tree": _tree_json(tree)}
    return 0, rep.flush()


def cmd_sat(args) -> tuple[int, str]:
    rt = _runtime(args)
    rep = Reporter(args.json)
    term = parse_program(_read_input(args.program), rt.signature)
    phi = parse_formula(_read_input(args.formula), rt.signature, rt.space)
    sat = Satisfier(rt.signature, rt.modalities, rt.space, rt.width)
    fuel = rt.config.fuel
    if args.exact:
        res = satisfies_exact(sat, term, phi, fuel)
    else:
        res = sat.satisfies(term, phi, fuel)
    iv = res.interval
    fragment = "positive" if is_positive(phi) else "general"
    if iv.exact:
        rep.text(f"value = {rt.space.render(iv.lo)}")
    else:
        rep.text(f"lo = {rt.space.render(iv.lo)}, hi = {rt.space.render(iv.hi)}")
        if args.exact:
            rep.text(f"exactness not reached at fuel {res.fuel_used}")
    rep.text(f"fragment = {fragment}")
    rep.doc = {
        "interval": _interval_json(rt.space, iv),
        "fragment": fragment,
        "fuel_used": res.fuel_used,
    }
    return 0, rep.flush()


def cmd_compare(args) -> tuple[int, str]:
    rt = _runtime(args)
    rep = Reporter(args.json)
    sat = Satisfier(rt.signature, rt.modalities, rt.space, rt.width)
    left = parse_program(_read_input(args.left), rt.signature)
    right = parse_program(_read_input(args.right), rt.signature)
    ty = sat.type_of(left)
    suite = enumerate_basic_formulas(ty, rt.config.suite_size, _pools(rt), rt.modalities)
    directions = ["both"] if not args.both else ["geq", "leq"]
    verdicts = [compare(left, right, suite, rt.config.fuel, sat, d) for d in directions]
    code = 0
    docs = []
    for d, v in zip(directions, verdicts):
        if isinstance(v, Distinguished):
            code = 1
            rep.text(
                f"distinguished: witness {print_formula(v.formula, rt.space)} "
                f"left {rt.space.render(v.left.lo)} right {rt.space.render(v.right.lo)} "
                f"({v.direction})"
            )
            docs.append(
                {
                    "verdict": "distinguished",
                    "witness": print_formula(v.formula, rt.space),
                    "left": _interval_json(rt.space, v.left),
                    "right": _interval_json(rt.space, v.right),
                    "direction": v.direction,
                }
            )
        else:
            kind = "no distinction found" if isinstance(v, NoDistinctionFound) else "refines up to bounds"
            rep.text(f"{kind}: {v.bounds.describe()}")
            docs.append(
                {
                    "verdict": "no-distinction" if isinstance(v, NoDistinctionFound) else "refines",
                    "bounds": v.bounds.__dict__,
                }
            )
            if code == 0 and v.bounds.inconclusive > 0:
                code = 2
    rep.doc = {"results": docs}
    return code, rep.flush()


def cmd_distinguish(args) -> tuple[int, str]:
    if args.max_size < 1:
        raise ConfigError(f"--max-size: must be at least 1, got {args.max_size}")
    rt = _runtime(args)
    rep = Reporter(args.json)
    sat = Satisfier(rt.signature, rt.modalities, rt.space, rt.width)
    left = parse_program(_read_input(args.left), rt.signature)
    right = parse_program(_read_input(args.right), rt.signature)
    fuel = rt.config.fuel
    # a cheap pass at a quarter of the fuel first, never above the reported fuel
    first = min(max(2, fuel // 4), fuel)
    schedule = (first, fuel) if first < fuel else (fuel,)
    found = find_distinguishing_formula(left, right, args.max_size, sat, _pools(rt), fuel_schedule=schedule)
    if found is None:
        rep.text(f"no distinguishing formula up to size {args.max_size} at fuel {fuel}")
        rep.doc = {"witness": None, "max_size": args.max_size, "fuel": fuel}
        return 0, rep.flush()
    phi, direction = found
    witness = print_formula(phi, rt.space)
    rep.text(f"witness {witness} ({direction})")
    rep.doc = {"witness": witness, "direction": direction}
    return 1, rep.flush()


def _default_constants(rt: Runtime):
    # step thresholds per truth space: no verb reads them, but
    # bench/workloads.py still calls this
    space = rt.space
    if space.name == "unit":
        return (0.25, 0.5, 1.0)
    if space.name == "cost":
        return (0.0, 1.0, 3.0)
    return (space.top,)


def cmd_laws(args) -> tuple[int, str]:
    rt = _runtime(args)
    rep = Reporter(args.json)
    params = LawParams(samples=args.samples, seed=rt.config.seed)
    # the store settings hold under every signature: G and EG are folded
    # at them even when the runtime's own signature has no store
    mods = standard_modalities(StoreConfig(rt.config.locations, rt.config.value_bound))
    if args.modality:
        wanted = _items(args.modality)
        missing = [w for w in wanted if w not in mods]
        if missing:
            raise ConfigError(f"unknown modalities for the law suite: {missing}")
        repeated = sorted({w for w in wanted if wanted.count(w) > 1})
        if repeated:
            raise ConfigError(f"modalities named more than once for the law suite: {repeated}")
        selected = [mods[w] for w in wanted]
    else:
        selected = list(mods.values())
    report = run_law_suite(
        selected,
        params,
        include_relator=not args.no_relator,
        runtime=rt if not args.no_congruence else None,
        congruence_trials=args.trials,
    )
    docs = []
    for r in report.results:
        rep.text(r.line())
        docs.append(
            {
                "law": r.law,
                "subject": r.subject,
                "runs": r.runs,
                "passed": r.passed,
                "failures": list(r.failures[:3]),
            }
        )
    rep.text("all laws pass" if report.passed else "law failures detected")
    rep.doc = {"results": docs, "passed": report.passed}
    return (0 if report.passed else 1), rep.flush()


# --------------------------------------------------------------------------
# Entry point


_FLAG_HELP = {
    "signature": "effect signature selector",
    "locations": "store locations, comma-separated",
    "errors": "error labels, comma-separated",
    "numerals": "numeral pool, comma-separated",
}


def build_arg_parser() -> argparse.ArgumentParser:
    """A fresh parser for every verb and its flags."""
    p = argparse.ArgumentParser(
        prog="cbpv-quant",
        description="Quantitative behavioural reasoning for call-by-push-value programs",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp, *settings):
        """The output flags, the signature settings every verb reads, and
        the further `settings` this verb reads, each a `--flag` of its own."""
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        sp.add_argument("--config", help="configuration file (default ./cbpv-quant.toml if present)")
        for key in ("signature", "locations", "errors", "value_bound", *settings):
            sp.add_argument("--" + key.replace("_", "-"), dest=key, help=_FLAG_HELP.get(key))

    sp = sub.add_parser("typecheck", help="infer the type of a program")
    sp.add_argument("program")
    common(sp)
    sp.set_defaults(fn=cmd_typecheck)

    sp = sub.add_parser("eval", help="print a program's effect tree")
    sp.add_argument("program")
    common(sp, "fuel")
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("sat", help="degree to which a program satisfies a formula")
    sp.add_argument("program")
    sp.add_argument("formula")
    sp.add_argument(
        "--exact",
        action="store_true",
        help="solve the least fixed point over the program's configuration graph; "
        "where that is not possible, double the fuel until exact (capped)",
    )
    common(sp, "fuel")
    sp.set_defaults(fn=cmd_sat)

    sp = sub.add_parser("compare", help="behavioural comparison over a formula suite")
    sp.add_argument("left")
    sp.add_argument("right")
    sp.add_argument("--suite-size", dest="suite_size")
    sp.add_argument("--both", action="store_true", help="report each direction separately")
    common(sp, "numerals", "fuel")
    sp.set_defaults(fn=cmd_compare)

    sp = sub.add_parser("distinguish", help="search for a distinguishing formula")
    sp.add_argument("left")
    sp.add_argument("right")
    sp.add_argument("--max-size", dest="max_size", type=int, default=4)
    common(sp, "numerals", "fuel")
    sp.set_defaults(fn=cmd_distinguish)

    sp = sub.add_parser("laws", help="run the modality law suites")
    sp.add_argument("--modality", help="restrict to these modalities, comma-separated")
    sp.add_argument("--samples", type=int, default=200)
    sp.add_argument("--trials", type=int, default=100, help="congruence spot-check trials")
    sp.add_argument("--no-relator", action="store_true", help="skip law e, the obligation on may/must")
    sp.add_argument("--no-congruence", action="store_true")
    common(sp, "seed", "fuel")
    sp.set_defaults(fn=cmd_laws)
    return p


_PARSER: Optional[argparse.ArgumentParser] = None


def run(argv: Optional[list[str]] = None) -> tuple[int, str]:
    """Parse arguments, dispatch, and return (exit code, report text).

    The argument parser is built on the first call and reused by later ones.
    """
    global _PARSER
    if _PARSER is None:
        _PARSER = build_arg_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except (CbpvError, OSError, UnicodeDecodeError) as e:
        return 2, f"error: {e}"
    except (RecursionError, MemoryError) as e:
        # legitimate input too deep or too large to evaluate: an internal
        # limit, never a verdict, so it must not surface as exit code 1
        return 2, f"error: {type(e).__name__}: {str(e) or 'out of memory'}"


def main(argv: Optional[list[str]] = None) -> int:
    code, report = run(argv)
    print(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
