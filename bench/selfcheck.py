"""Exact-counter self-check: the same seed must give the same counters and a
byte-identical verdict list in two separate processes.

    python3 bench/selfcheck.py --workload suite-compare --seed 1

Runs one traced pass of the seed's first round twice, each in a fresh
interpreter, and compares the machine-independent counters (EXACT_COUNTERS
in tracer.py) and the verdict list.  Exits 0 when both match, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def traced_pass(workload: str, seed: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", "1"]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=600)
    with open(os.path.join(HERE, "out", f"{workload}-{seed}-trace.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    first = traced_pass(args.workload, args.seed)
    second = traced_pass(args.workload, args.seed)
    ok = True
    for name, value in first["exact_counters"].items():
        again = second["exact_counters"][name]
        same = value == again
        ok &= same
        print(f"{name} = {value}" + ("" if same else f"  MISMATCH: second run {again}"))
    same = json.dumps(first["verdicts"]).encode() == json.dumps(second["verdicts"]).encode()
    ok &= same
    print(f"verdicts: {len(first['verdicts'])} checks, byte-identical: {same}")
    print("self-check passed" if ok else "self-check FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
