"""Run every shipped example bundle through the CLI and pin its report.

`manifest_golden.json` holds the exit code and the full report of every
manifest invocation, as text and with `--json`, as `cli.run` returned them
when the file was recorded; each must stay byte-identical.
"""

import json
import os
import shlex

import pytest

from cbpv_quant.cli import run

BUNDLE_DIR = os.path.join(os.path.dirname(__file__), "..", "programs")
with open(os.path.join(os.path.dirname(__file__), "manifest_golden.json"), encoding="utf-8") as fh:
    GOLDEN = json.load(fh)


def _manifest():
    out = []
    with open(os.path.join(BUNDLE_DIR, "manifest.txt"), encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            args, code, first = (part.strip() for part in line.split("|", 2))
            out.append((args, int(code), first))
    return out


@pytest.mark.parametrize("args,code,first", _manifest(), ids=lambda v: str(v)[:60])
def test_bundle(args, code, first, monkeypatch):
    monkeypatch.chdir(BUNDLE_DIR)
    got_code, report = run(shlex.split(args))
    assert got_code == code, report
    assert report.splitlines()[0] == first


def test_golden_covers_the_manifest():
    invocations = [args + extra for args, _, _ in _manifest() for extra in ("", " --json")]
    assert sorted(GOLDEN) == sorted(invocations)


@pytest.mark.parametrize("invocation", sorted(GOLDEN))
def test_bundle_report_is_golden(invocation, monkeypatch):
    monkeypatch.chdir(BUNDLE_DIR)
    code, report = run(shlex.split(invocation))
    assert {"code": code, "report": report} == GOLDEN[invocation]
