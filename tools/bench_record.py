"""Record alternating benchmark runs of two checkouts and compare them.

    python3 tools/bench_record.py PARENT CHILD --workload law-suites,deep-fuel \
        --seed 1,2,7919 --pairs 10 --seconds 40 --out pairs.json

PARENT and CHILD are checkout directories.  Each pair runs the checkout's own
`bench/run.py`, unchanged, as a subprocess with `--trace 0`, once per side;
the side that runs first alternates from pair to pair, and pair i uses the
i-th of the comma-separated seeds, cycling.  Pair i of every comma-separated
workload runs before pair i + 1 of any, so a slow stretch of the host falls
on all workloads alike.  Before the pairs, each side runs twice per
workload and seed: once with `--trace 1 --seconds 0`, for the counters that
do not depend on the host, and once with `--trace 0 --seconds 0`, which runs
the seed's fixed minimum of rounds, for memory at a fixed amount of work and
the checks that failed.  Of each run's standard output, the last line, its
JSON result, is read, and of a `--trace 0` run also its `failed xN:` report
lines.

The output file holds, per workload, every run's end-to-end metrics and
`correct` flag, and per metric each side's median and quartiles, the median
ratio (child over parent), the bound from CHILD's `BENCHMARK.json` and the
number of pairs the child won.  A metric is "unresolved" when the parent's
interquartile range, relative to its median, is wider than the bound: the
runs then spread too widely to tell a change within the bound from none.
Beside them, under "counters", it holds per seed each side's count-unit
metrics of the traced run, and under "fixed_work" each side's `correct`,
`peak_rss_mb` and failed checks (`name: reason`, sorted) of the fixed-work
run.  The same table is printed, per workload, with one line per seed saying
whether the two sides' counters are identical and one giving both sides'
fixed-work `peak_rss_mb` and whether their failed checks are the same.
Each checkout's HEAD is recorded when the checkout is the top of a git work
tree, and null otherwise.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

SIDES = ("parent", "child")
# a failed check in bench/run.py's report: "  failed x3: deep/geometric/800: RecursionError"
FAILED_LINE = re.compile(r"\s*failed x\d+: (.*)")


def bench_output(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list]:
    """A run's JSON result and the report lines before it."""
    cmd = [sys.executable, os.path.join(checkout, "bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def run_bench(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    result, _ = bench_output(checkout, workload, seed, seconds, 0)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def exact_counters(checkout: str, workload: str, seed: int) -> dict:
    """The count-unit metrics of one traced pass over the seed's first round."""
    result, _ = bench_output(checkout, workload, seed, 0, 1)
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


def fixed_work(checkout: str, workload: str, seed: int) -> dict:
    """One untraced run of the seed's minimum of rounds: `peak_rss_mb` at a
    fixed amount of work, which a faster side does not inflate by keeping
    more checks, and each failed check as `name: reason`."""
    result, report = bench_output(checkout, workload, seed, 0, 0)
    return {
        "correct": result["correct"],
        "peak_rss_mb": result["metrics"]["peak_rss_mb"]["value"],
        "failed_checks": sorted(m.group(1) for m in map(FAILED_LINE.fullmatch, report) if m),
    }


def git_head(checkout: str):
    """The checkout's HEAD, or None unless the checkout is the top of a git
    work tree: a plain directory inside another repository has no HEAD of
    its own."""

    def git(*args):
        out = subprocess.run(["git", "-C", checkout, *args], capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or os.path.realpath(top) != os.path.realpath(checkout):
        return None
    return git("rev-parse", "HEAD")


def quartiles(xs: list) -> dict:
    if len(xs) < 2:
        q1 = med = q3 = xs[0]
    else:
        q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def summarize(runs: list, metrics: list) -> dict:
    """Per end-to-end metric: both sides' quartiles, the median ratio, the
    child's wins and whether the parent's spread leaves it unresolved."""
    out = {}
    for m in metrics:
        name, bound, higher = m["name"], m["bound"], m["better"] == "higher"
        vals = {side: [r[side]["metrics"][name] for r in runs] for side in SIDES}
        stats = {side: quartiles(vals[side]) for side in SIDES}
        parent = stats["parent"]["median"]
        ratio = stats["child"]["median"] / parent if parent else None
        spread = (stats["parent"]["q3"] - stats["parent"]["q1"]) / abs(parent) if parent else 0.0
        wins = sum((c > p) if higher else (c < p) for p, c in zip(vals["parent"], vals["child"]))
        out[name] = {
            "better": m["better"],
            "bound": bound,
            **stats,
            "ratio": ratio,
            "parent_iqr_share": spread,
            "wins": wins,
            "pairs": len(runs),
            "unresolved": spread > bound,
        }
    return out


def report_lines(summary: dict) -> list:
    lines = []
    for name, s in summary.items():
        ratio = "n/a" if s["ratio"] is None else f"{s['ratio']:.3f}"
        line = (
            f"{name}: {s['parent']['median']:.6g} -> {s['child']['median']:.6g}"
            f"  ratio {ratio} (bound {s['bound']:g}, {s['better']} is better)"
            f"  child better in {s['wins']}/{s['pairs']} pairs"
        )
        if s["unresolved"]:
            line += f"  unresolved: parent IQR {s['parent_iqr_share']:.1%} of its median"
        lines.append(line)
    return lines


def counter_lines(counters: dict) -> list:
    lines = []
    for seed, sides in counters.items():
        parent, child = sides["parent"], sides["child"]
        differ = [k for k in sorted(parent.keys() | child.keys()) if parent.get(k) != child.get(k)]
        lines.append(f"counters at seed {seed}: " + (f"differ in {', '.join(differ)}" if differ else "identical"))
    return lines


def fixed_work_lines(fixed: dict) -> list:
    lines = []
    for seed, sides in fixed.items():
        parent, child = sides["parent"], sides["child"]
        failed = set(parent["failed_checks"]), set(child["failed_checks"])
        same = "identical" if failed[0] == failed[1] else (
            f"differ: parent only {sorted(failed[0] - failed[1])}, child only {sorted(failed[1] - failed[0])}"
        )
        lines.append(
            f"fixed work at seed {seed}: peak_rss_mb {parent['peak_rss_mb']:.6g} -> {child['peak_rss_mb']:.6g}"
            f"; failed checks {same} ({len(parent['failed_checks'])} -> {len(child['failed_checks'])})"
        )
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("child")
    ap.add_argument("--workload", required=True, help="one workload, or several comma-separated")
    ap.add_argument("--seed", required=True, help="one seed, or several comma-separated, cycled over the pairs")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    seeds = [int(s) for s in args.seed.split(",")]
    workloads = [w.strip() for w in args.workload.split(",")]
    paths = {"parent": os.path.abspath(args.parent), "child": os.path.abspath(args.child)}
    with open(os.path.join(paths["child"], "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]

    counters = {
        w: {str(seed): {side: exact_counters(paths[side], w, seed) for side in SIDES} for seed in dict.fromkeys(seeds)}
        for w in workloads
    }
    fixed = {
        w: {str(seed): {side: fixed_work(paths[side], w, seed) for side in SIDES} for seed in dict.fromkeys(seeds)}
        for w in workloads
    }
    runs = {w: [] for w in workloads}
    for i in range(args.pairs):
        seed = seeds[i % len(seeds)]
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for w in workloads:
            pair = {"pair": i, "seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_bench(paths[side], w, seed, args.seconds)
            runs[w].append(pair)
            print(f"{w} pair {i} seed {seed}: " + ", ".join(
                f"{side} checks_per_s {pair[side]['metrics']['checks_per_s']:.4g}" for side in order
            ), flush=True)

    entries = {
        w: {
            "runs": runs[w],
            "summary": summarize(runs[w], end_to_end),
            "counters": counters[w],
            "fixed_work": fixed[w],
        }
        for w in workloads
    }
    doc = {
        "workloads": entries,
        "seeds": seeds,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "checkouts": {side: {"path": getattr(args, side), "head": git_head(paths[side])} for side in SIDES},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    for w, entry in entries.items():
        print(f"{w}:")
        lines = report_lines(entry["summary"]) + counter_lines(entry["counters"])
        for line in lines + fixed_work_lines(entry["fixed_work"]):
            print("  " + line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
