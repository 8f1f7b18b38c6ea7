"""Smoke test of the benchmark at toy size.

    python3 -m pytest -q bench/test_smoke.py      (or: python3 bench/test_smoke.py)

Runs every workload untraced and traced at TINY size.  Checks that each
metric BENCHMARK.json names is reported with its unit, that the checks pass,
that the traced run's outputs are bit for bit those of the untraced run,
and that the benchmark refuses to run without the svcl sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(workload: str, trace: int):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    record = json.loads((ROOT / ".bench_out"
                         / f"result_{workload}_seed0_trace{trace}_tiny.json").read_text())
    return result, record


def _check_metrics(result, specs):
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


def test_every_workload_reports_every_metric_and_traced_digests_match():
    for w in (x["name"] for x in SPEC["workloads"]):
        plain, plain_record = _result(w, 0)
        traced, traced_record = _result(w, 1)
        _check_metrics(plain, SPEC["end_to_end"])
        _check_metrics(traced, SPEC["per_layer"])
        assert plain["correct"], (w, plain_record["problems"])
        # the traced run compares each traced unit's digest with its untraced twin
        assert traced["correct"], (w, traced_record["problems"])
        assert plain_record["ref_digest"] == traced_record["ref_digest"], w
        assert plain["attempted"] >= 1 and traced["attempted"] >= 1
        assert "environment" in plain_record and "environment" in traced_record


def test_refuses_to_run_without_sources():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, tmp / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench(SPEC["workloads"][0]["name"], 0, cwd=tmp)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""


if __name__ == "__main__":
    test_every_workload_reports_every_metric_and_traced_digests_match()
    test_refuses_to_run_without_sources()
    print("ok")
