"""Per-layer tracing from outside the package.

`Tracer.install()` rebinds each layer's public functions, in every
`cbpv_quant` module that imported them by name, to wrappers that count calls
and record spans (name, id, parent, start, end); `uninstall()` puts the
originals back.  A layer's self time is its spans' durations minus the time
covered by child spans, computed on a span stack as calls return.

Three kinds of instrumentation keep the traced run close to the untraced one:

* boundary wrappers record a span per call (parse, typecheck, eval_tree,
  folds, satisfies, suites, compare, distinguish, law suites, cli.run);
  recursive ones (random_value_tree, map_leaves, mu, truncate, tree_depth)
  count every call but time only the outermost;
* `machine_step` is timed and counted without a span, being the hottest call;
* `child_at`, `sufficient_depth`, `Node.__init__` and the Unknown returns of
  the machine's `_approx` are recompiled with a counter statement and no
  wrapper, so deep recursion gains no stack frames and hits the recursion
  limit at the same fuel as untraced.
"""

from __future__ import annotations

import __future__
import ast
import inspect
import sys
import textwrap
from collections import defaultdict
from time import perf_counter

from cbpv_quant import (
    cli,
    equivalence,
    formulas,
    laws,
    machine,
    modality,
    parser,
    satisfaction,
    suites,
    trees,
    typecheck,
)

# (module, function, layer); recursive functions time only the outermost call
BOUNDARIES = [
    (parser, "parse_program", "parser"),
    (formulas, "parse_formula", "parser"),
    (typecheck, "infer_type", "typecheck"),
    (typecheck, "check_type", "typecheck"),
    (formulas, "check_formula", "typecheck"),
    (machine, "eval_tree", "machine.build"),
    (modality, "evaluate_interval", "modality"),
    (modality, "denote_limit", "modality"),
    (modality, "denote_at_depth", "modality"),
    (satisfaction, "satisfies_exact", "satisfaction"),
    (suites, "enumerate_basic_formulas", "suites"),
    (equivalence, "compare", "equivalence"),
    (equivalence, "find_distinguishing_formula", "equivalence"),
    (laws, "run_law_suite", "laws"),
    (laws, "random_value_tree", "laws.gen"),
    (trees, "map_leaves", "trees"),
    (trees, "graft", "trees"),
    (trees, "truncate", "trees"),
    (trees, "tree_depth", "trees"),
    (cli, "run", "cli"),
]
RECURSIVE = {"random_value_tree", "map_leaves", "graft", "truncate", "tree_depth"}
FOLDS = {"evaluate_interval", "denote_limit", "denote_at_depth"}

# (module, function, counter bumped per call, counter bumped per `return Unknown`)
RECOMPILED = [
    (modality, "child_at", "modality.child_visits", ""),
    (modality, "sufficient_depth", "modality.depth_visits", ""),
    (machine, "_approx", "", "machine.unknown_leaves"),
]

_COUNTS = "__bench_counts__"


class Tracer:
    def __init__(self):
        self.reset()
        self._restore: list = []

    def reset(self):
        self.counts: dict[str, float] = defaultdict(int)
        self.layer_s: dict[str, float] = defaultdict(float)
        self.active: dict[str, int] = defaultdict(int)
        self.tree_keys: set = set()
        self.spans: list[tuple] = []  # (name, id, parent, start, end)
        self.stack: list[list] = []  # [span id, child time]
        self.next_id = 0

    # ------------------------------------------------------------------
    # the span stack

    def span(self, name: str, layer: str, fn, *args, **kwargs):
        """Call fn inside a span; the check loop opens one per check."""
        stack = self.stack
        sid = self.next_id
        self.next_id += 1
        parent = stack[-1][0] if stack else -1
        frame = [sid, 0.0]
        stack.append(frame)
        self.active[name] += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.active[name] -= 1
            dur = end - start
            self.layer_s[layer] += dur - frame[1]
            if stack:
                stack[-1][1] += dur
            self.spans.append((name, sid, parent, start, end))

    # ------------------------------------------------------------------
    # installation

    def install(self):
        counts = self.counts
        for mod, name, layer in BOUNDARIES:
            if hasattr(mod, name):  # a layer function a later change removed is skipped
                self._rebind(getattr(mod, name), self._boundary(getattr(mod, name), name, layer))
        orig_sat = satisfaction.Satisfier.satisfies
        self._restore.append((satisfaction.Satisfier, "satisfies", orig_sat))
        satisfaction.Satisfier.satisfies = self._boundary(orig_sat, "satisfies", "satisfaction")
        self._rebind(machine.machine_step, self._timed_step(machine.machine_step))
        for mod in (modality, trees, machine):
            self._restore.append((mod, _COUNTS, None))
            setattr(mod, _COUNTS, counts)
        for mod, name, entry, unknown in RECOMPILED:
            if hasattr(mod, name):
                self._rebind(getattr(mod, name), _recompile(getattr(mod, name), entry, unknown))
        self._restore.append((trees.Node, "__init__", trees.Node.__init__))
        trees.Node.__init__ = _recompile(trees.Node.__init__, entry="trees.nodes_built")

    def uninstall(self):
        while self._restore:
            owner, name, original = self._restore.pop()
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def _rebind(self, original, replacement):
        """Replace `original` under every name any cbpv_quant module binds it to."""
        for modname, mod in list(sys.modules.items()):
            if modname != "cbpv_quant" and not modname.startswith("cbpv_quant."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _boundary(self, fn, name: str, layer: str):
        tracer = self
        before, after = _BEFORE.get(name), _AFTER.get(name)
        recursive = name in RECURSIVE

        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            if recursive and tracer.active[name]:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, args, kwargs)
            result = tracer.span(name, layer, fn, *args, **kwargs)
            if after is not None:
                tracer.counts[after[0]] += after[1](result)
            return result

        return wrapper

    def _timed_step(self, fn):
        tracer = self

        def machine_step(c):
            start = perf_counter()
            try:
                return fn(c)
            finally:
                dur = perf_counter() - start
                tracer.layer_s["machine"] += dur
                tracer.counts["machine.steps"] += 1
                if tracer.stack:
                    tracer.stack[-1][1] += dur

        return machine_step

    # ------------------------------------------------------------------
    # results

    def metrics(self) -> dict[str, float]:
        n, s = self.counts.__getitem__, self.layer_s
        trees_built = n("eval_tree")
        exact_calls = n("satisfies_exact")
        return {
            "parser.calls": n("parse_program") + n("parse_formula"),
            "parser.s": s["parser"],
            "typecheck.calls": n("infer_type") + n("check_type") + n("check_formula"),
            "typecheck.s": s["typecheck"],
            "machine.steps": n("machine.steps"),
            "machine.s": s["machine"],
            "machine.build_s": s["machine.build"],
            "machine.trees": trees_built,
            "machine.distinct_tree_share": len(self.tree_keys) / trees_built if trees_built else 0.0,
            "machine.unknown_leaves": n("machine.unknown_leaves"),
            "trees.nodes_built": n("trees.nodes_built"),
            "trees.s": s["trees"],
            "modality.folds": n("modality.folds"),
            "modality.s": s["modality"],
            "modality.child_visits": n("modality.child_visits"),
            "modality.depth_visits": n("modality.depth_visits"),
            "modality.visits_per_node": (
                n("modality.child_visits") / n("trees.nodes_built") if n("trees.nodes_built") else 0.0
            ),
            "satisfaction.calls": n("satisfies"),
            "satisfaction.self_s": s["satisfaction"],
            "satisfaction.exact_rounds": n("satisfaction.exact_round_calls") / exact_calls if exact_calls else 0.0,
            "suites.formulas": n("suites.formulas"),
            "suites.s": s["suites"],
            "equivalence.compares": n("compare"),
            "equivalence.distinguish_candidates": n("equivalence.distinguish_candidates"),
            "equivalence.inconclusive": n("equivalence.inconclusive"),
            "equivalence.self_s": s["equivalence"],
            "laws.checks": n("laws.checks"),
            "laws.gen_s": s["laws.gen"],
            "laws.self_s": s["laws"],
            "cli.self_s": s["cli"],
        }


EXACT_COUNTERS = (
    "machine.steps",
    "machine.trees",
    "machine.distinct_tree_share",
    "modality.child_visits",
    "modality.depth_visits",
    "trees.nodes_built",
    "suites.formulas",
    "laws.checks",
)


def _before_eval_tree(tracer: Tracer, args, kwargs):
    term, fuel = args[0], args[1] if len(args) > 1 else kwargs["fuel"]
    sig = args[2] if len(args) > 2 else kwargs["signature"]
    width = args[3] if len(args) > 3 else kwargs.get("width", 16)
    key = (fuel, sig.name, tuple(sig.ops), width)
    try:
        tracer.tree_keys.add((term,) + key)
    except RecursionError:  # a term too deep to hash counts as distinct
        tracer.tree_keys.add((id(term),) + key)


def _before_fold(tracer: Tracer, args, kwargs):
    if not any(tracer.active[f] for f in FOLDS):
        tracer.counts["modality.folds"] += 1


def _before_satisfies(tracer: Tracer, args, kwargs):
    if tracer.active["find_distinguishing_formula"]:
        tracer.counts["equivalence.distinguish_candidates"] += 1
    if tracer.active["satisfies_exact"]:
        tracer.counts["satisfaction.exact_round_calls"] += 1


_BEFORE = {
    "eval_tree": _before_eval_tree,
    "satisfies": _before_satisfies,
    **{f: _before_fold for f in FOLDS},
}
# counters read off a call's result: name -> (counter, amount)
_AFTER = {
    "compare": ("equivalence.inconclusive", lambda v: v.bounds.inconclusive if hasattr(v, "bounds") else 0),
    "enumerate_basic_formulas": ("suites.formulas", lambda suite: len(suite.formulas)),
    "run_law_suite": ("laws.checks", lambda report: sum(r.runs for r in report.results)),
}


def _recompile(fn, entry: str = "", unknown: str = ""):
    """A copy of fn, compiled from its source in its own module's globals,
    that bumps `entry` on each call and `unknown` before each `return Unknown`."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    fdef = tree.body[0]

    def bump(key):
        return ast.parse(f"{_COUNTS}[{key!r}] += 1").body[0]

    class CountUnknown(ast.NodeTransformer):
        def visit_Return(self, node):
            if isinstance(node.value, ast.Name) and node.value.id == "Unknown":
                return [bump(unknown), node]
            return node

    if unknown:
        CountUnknown().visit(fdef)
    if entry:
        fdef.body.insert(0, bump(entry))
    ast.fix_missing_locations(tree)
    code = compile(
        tree, inspect.getsourcefile(fn), "exec", flags=__future__.annotations.compiler_flag, dont_inherit=True
    )
    namespace: dict = {}
    exec(code, fn.__globals__, namespace)
    return namespace[fdef.name]
