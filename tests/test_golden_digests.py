"""The recorded outputs of the benchmark: unit 0 of each workload in
bench/workloads.py, run in-process at FULL size, must reproduce its digest
in bench/golden.json, so a change to any output bit of those runs fails
here and not only in a full-size `bench/run.py`."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
GOLDEN = json.loads((BENCH / "golden.json").read_text())


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses resolve their module by name
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[spec.name]
    return mod


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_unit_0_reproduces_its_recorded_digest(name, tmp_path, monkeypatch):
    wl = _workloads()
    # the CLI workload writes relative output paths, as bench/worker.py runs it
    monkeypatch.chdir(tmp_path)
    unit = wl.WORKLOADS[name](wl.FULL)
    unit.specs(tmp_path)
    res = unit.run(unit.prepare(wl.unit_seed(wl.DEFAULT_SEED, 0), tmp_path))
    assert res.problems == []
    assert res.digest == GOLDEN[name]
