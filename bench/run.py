"""The repository benchmark: one client in a closed loop, one check at a time.

    python3 bench/run.py --workload suite-compare --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the script finds `src/` and `programs/`
next to its own directory.  With `--trace 0` it measures the end-to-end
metrics of one workload; with `--trace 1` it reruns the seed's first round
with and without the per-layer tracer and reports the layer metrics.  The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The lines before it are the human-readable report: every metric with its
unit, `fail_share`, and each failed check by name.  See bench/DESIGN.md for
the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")
SETUP_RUNS = 7
MIN_ROUNDS = 3

# The set-up a user pays once per process: a fresh interpreter importing the
# package and building the workload's runtimes.  Interpreter start-up itself
# is not counted.
SETUP_CHILD = """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import cbpv_quant
for kw in json.loads(sys.argv[2]):
    cbpv_quant.build_runtime(cbpv_quant.RunConfig(**kw))
print(time.perf_counter() - t0)
"""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cbpv_quant", "__init__.py")):
        print(f"error: no package source under {SRC}; run inside a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.trace:
        result, report = traced_run(args, workloads)
    else:
        result, report = timed_run(args, workloads)
    for line in report:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


# ----------------------------------------------------------------------
# checks


class Tally:
    """Outcomes of every check attempted in one phase."""

    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.decided = 0
        self.unexpected: list[str] = []  # failures outside the known defects
        self.failures: Counter = Counter()  # (check, reason) -> count
        self.verdicts: list[str] = []

    def run(self, check, call=None):
        """Run one check, time it from call to verdict, judge it."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = call(check.run) if call else check.run()
        except Exception as e:  # a check that raises is a failed check; the run goes on
            self.latencies.append(time.perf_counter() - start)
            self.verdicts.append(f"{check.name}: raised {type(e).__name__}")
            self._fail(check, type(e).__name__)
            return
        self.latencies.append(time.perf_counter() - start)
        outcome = check.judge(result)
        self.verdicts.append(f"{check.name}: {outcome.verdict}")
        self.decided += outcome.decided
        if not outcome.ok:
            self._fail(check, outcome.reason)

    def _fail(self, check, reason: str):
        self.failed += 1
        self.failures[(check.name, reason)] += 1
        if check.known_defect != reason:
            self.unexpected.append(f"{check.name}: {reason}")

    def report(self) -> list[str]:
        lines = [f"fail_share = {self.failed / self.attempted:.6f} share ({self.failed} of {self.attempted} checks)"]
        for (name, reason), n in sorted(self.failures.items()):
            lines.append(f"  failed x{n}: {name}: {reason}")
        for line in self.unexpected[:20]:
            lines.append(f"  UNEXPECTED: {line}")
        return lines


def run_rounds(workload, seed: int, seconds: float, tally: Tally) -> float:
    """Whole rounds, at least MIN_ROUNDS, each started only if a round of the
    median length so far ends within `seconds`; returns the elapsed time.
    Stopping only between rounds keeps every run's check mix the same."""
    rng = random.Random(seed)
    walls = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for check in workload.round(rng):
            tally.run(check)
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_ROUNDS and elapsed + statistics.median(walls) > seconds:
            return elapsed


def measure_setup(workloads, name: str) -> float:
    configs = json.dumps(list(workloads.runtime_configs(name).values()))
    times = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, SRC, configs],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(out.stdout.strip()))
    return statistics.median(times)


def metric(value, unit):
    return {"value": value, "unit": unit}


# ----------------------------------------------------------------------
# the timed run (end-to-end metrics)


def timed_run(args, workloads):
    setup_s = measure_setup(workloads, args.workload)
    workload = workloads.Workload(args.workload, ROOT)
    tally = Tally()
    elapsed = run_rounds(workload, args.seed, args.seconds, tally)
    ms = sorted(1000.0 * t for t in tally.latencies)
    deciles = statistics.quantiles(ms, n=10)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "checks_per_s": metric(tally.attempted / elapsed, "1/s"),
        "check_p50_ms": metric(statistics.median(ms), "ms"),
        "check_p90_ms": metric(deciles[8], "ms"),
        "pass_share": metric(1.0 - tally.failed / tally.attempted, "share"),
        "decided_share": metric(tally.decided / tally.attempted, "share"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    report = [f"workload {args.workload} seed {args.seed}: {tally.attempted} checks in {elapsed:.2f} s"]
    report += [f"{k} = {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    report.append(f"latency samples = {len(ms)} (every attempted check, from call to verdict or raise)")
    report += tally.report()
    result = {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return result, report


# ----------------------------------------------------------------------
# the traced run (per-layer metrics)


def traced_run(args, workloads):
    """Alternate untraced and traced passes over the seed's first round until
    `seconds` have passed.  Counters come from the first traced pass; times
    are medians over traced passes; the overhead compares pass wall times."""
    import tracer as tracing

    workload = workloads.Workload(args.workload, ROOT)
    tracer = tracing.Tracer()
    plain_walls, traced_walls, layer_times = [], [], []
    plain, traced = Tally(), Tally()
    start = pair = time.perf_counter()
    # at least one pair; another only if it should end within `seconds`
    while not traced_walls or 2 * time.perf_counter() - pair - start < args.seconds:
        pair = t0 = time.perf_counter()
        for check in workload.round(random.Random(args.seed)):
            plain.run(check)
        plain_walls.append(time.perf_counter() - t0)
        checks = workload.round(random.Random(args.seed))
        tracer.reset()
        tracer.install()
        try:
            t0 = time.perf_counter()
            for check in checks:
                traced.run(check, call=lambda fn, c=check: tracer.span(c.name, "bench", fn))
            traced_walls.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        layer_times.append(tracer.metrics())
        if len(layer_times) == 1:
            write_trace(args, tracer, layer_times[0], traced.verdicts, tracing.EXACT_COUNTERS)

    metrics = {}
    for name, value in layer_times[0].items():
        if _unit(name) == "s":
            value = statistics.median(m[name] for m in layer_times)
        metrics[name] = metric(value, _unit(name))
    overhead = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    metrics["trace.overhead_share"] = metric(overhead, "share")
    same = traced.verdicts == plain.verdicts
    report = [
        f"workload {args.workload} seed {args.seed}: {len(traced_walls)} traced and "
        f"{len(plain_walls)} untraced passes over round 0 ({len(checks)} checks)"
    ]
    report += [f"{k} = {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    report.append(f"traced verdicts identical to untraced: {same}")
    result = {
        "correct": same and not plain.unexpected and not traced.unexpected,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "metrics": metrics,
    }
    return result, report


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_share"):
        return "share"
    if name.endswith(("_per_node", "exact_rounds")):
        return "ratio"
    return "count"


def write_trace(args, tracer, counts, verdicts, exact_keys):
    """Counters and verdicts of the first traced pass for the self-check, and
    its spans (microseconds from the pass start) for offline inspection."""
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-{args.seed}")
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "exact_counters": {k: counts[k] for k in exact_keys},
        "verdicts": verdicts,
    }
    with open(stem + "-trace.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    spans = sorted(tracer.spans, key=lambda s: s[1])
    t0 = spans[0][3] if spans else 0.0
    with gzip.open(stem + "-spans.csv.gz", "wt", compresslevel=1, newline="") as fh:
        out = csv.writer(fh)
        out.writerow(("name", "id", "parent", "start_us", "end_us"))
        for name, sid, parent, start, end in spans:
            out.writerow((name, sid, parent, round(1e6 * (start - t0)), round(1e6 * (end - t0))))


if __name__ == "__main__":
    sys.exit(main())
