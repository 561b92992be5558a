"""tools/bench_record.py: one real pair of benchmark runs on each of two
workloads, the summary rule on fixed numbers, and which directories have a
HEAD of their own."""

import importlib.util
import json
import os
import subprocess

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "bench_record.py")
_spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

END_TO_END = ["setup_s", "checks_per_s", "check_p50_ms", "check_p90_ms", "pass_share", "decided_share", "peak_rss_mb"]


def test_one_pair_at_the_repo_root(tmp_path, capsys):
    # two workloads, one pair each: one entry per workload, in the order
    # given; deep-fuel fails its known-defect checks
    out = tmp_path / "bench.json"
    workloads = ["suite-compare", "deep-fuel"]
    argv = [ROOT, ROOT, "--workload", ",".join(workloads), "--seed", "1", "--pairs", "1",
            "--seconds", "0", "--out", str(out)]
    assert bench_record.main(argv) == 0
    doc = json.loads(out.read_text())
    assert sorted(doc) == ["checkouts", "cpu_count", "python", "seconds", "seeds", "workloads"]
    assert doc["seeds"] == [1] and list(doc["workloads"]) == workloads
    for w, entry in doc["workloads"].items():
        assert sorted(entry) == ["counters", "fixed_work", "runs", "summary"]
        # one traced run per side and seed; the same code counts the same work
        ((seed, sides),) = entry["counters"].items()
        assert seed == "1" and sorted(sides) == ["child", "parent"]
        assert {"laws.checks", "modality.folds", "trees.nodes_built"} <= set(sides["parent"])
        assert sides["parent"] == sides["child"]
        # one untraced run per side and seed at a fixed amount of work: its
        # memory and its failed checks, the same on both sides
        ((seed, sides),) = entry["fixed_work"].items()
        assert seed == "1" and sorted(sides) == ["child", "parent"]
        for fixed in sides.values():
            assert sorted(fixed) == ["correct", "failed_checks", "peak_rss_mb"]
            assert fixed["peak_rss_mb"] > 0
        failed = sides["parent"]["failed_checks"]
        assert failed == sides["child"]["failed_checks"] == sorted(failed)
        if w == "deep-fuel":
            # the known defects (ROADMAP item 14); which ones depends on the
            # interpreter's stack, so only their shape is pinned
            assert failed and all(f.startswith("deep/") and ": " in f for f in failed)
        else:
            assert failed == [] and sides["parent"]["correct"] is True
        (run,) = entry["runs"]
        assert run["first"] == "parent" and run["seed"] == 1
        for side in ("parent", "child"):
            if w != "deep-fuel":
                assert run[side]["correct"] is True
            assert sorted(run[side]["metrics"]) == sorted(END_TO_END)
        assert list(entry["summary"]) == END_TO_END
        for s in entry["summary"].values():
            assert {"parent", "child", "ratio", "bound", "wins", "pairs", "unresolved"} <= set(s)
            assert s["pairs"] == 1 and s["unresolved"] is False
    printed = capsys.readouterr().out.splitlines()
    for k, w in enumerate(workloads):
        block = printed[len(printed) - 10 * (len(workloads) - k):][:10]
        assert block[0] == f"{w}:"
        assert [line.split(":")[0].strip() for line in block[1:8]] == END_TO_END
        assert block[8].strip() == "counters at seed 1: identical"
        n = len(doc["workloads"][w]["fixed_work"]["1"]["parent"]["failed_checks"])
        assert block[9].strip().startswith("fixed work at seed 1: peak_rss_mb ")
        assert block[9].endswith(f"; failed checks identical ({n} -> {n})")


def test_git_head_reads_only_the_checkout_itself(tmp_path):
    # a plain directory inside a repository is no checkout: no HEAD, not the
    # enclosing repository's
    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), *args], check=True, capture_output=True)

    git("init", "-q")
    git("-c", "user.name=bench", "-c", "user.email=bench@example.invalid", "-c", "commit.gpgsign=false",
        "commit", "-q", "--allow-empty", "-m", "x")
    plain = tmp_path / "plain"
    plain.mkdir()
    head = bench_record.git_head(str(tmp_path))
    assert head is not None and len(head) == 40
    assert bench_record.git_head(str(plain)) is None


def test_summary_counts_wins_and_marks_a_wide_parent_unresolved():
    def run(p, c):
        return {"parent": {"metrics": {"m": p}}, "child": {"metrics": {"m": c}}}

    runs = [run(10.0, 12.0), run(12.0, 13.0), run(14.0, 13.0), run(16.0, 20.0), run(18.0, 19.0)]
    (s,) = bench_record.summarize(runs, [{"name": "m", "better": "higher", "bound": 0.25}]).values()
    assert s["parent"] == {"q1": 12.0, "median": 14.0, "q3": 16.0}
    assert s["child"]["median"] == 13.0 and s["ratio"] == 13.0 / 14.0
    assert s["wins"] == 4 and s["pairs"] == 5
    # parent IQR 4 is 29% of its median 14, wider than the 25% bound
    assert s["unresolved"] is True
    (s,) = bench_record.summarize(runs, [{"name": "m", "better": "lower", "bound": 0.5}]).values()
    assert s["wins"] == 1 and s["unresolved"] is False
