"""Fault-injection matrix: which tier-1 tests, acceptance criteria and
`svcl validate` checks fail when one named fault is put into the sources.

    python3 tools/fault_matrix.py [--fault NAME ...] [--root DIR] [--json FILE]

Each fault is one exact edit, (file, old text, new text), whose old text
must occur exactly once in its file.  For each fault the script copies the
checkout under `--root` (default: this one) into a temporary directory,
applies the edit there, runs tier-1 (`python -m pytest` over the
checkout's testpaths, with --junitxml) and `svcl validate`, and prints a
Markdown table of what failed.  Tier-1 runs without
tests/test_fault_matrix.py, which fails on every fault by design (the
old text is gone from the copy), so the table counts only the checks
that see the fault's effect.  The row `none` runs the unedited copy, so
a failure there is the checkout's own.  A source edit reaches code inside
the step loop and is in place before `Stepper` builds its kernels lazily,
which a monkeypatch of a module attribute is not.  `--json` writes every
failing test id per fault, the input of a comparison between two trees.

A full run is twelve tier-1 runs, as many at once as the process has
CPUs: about 12 minutes on a 2-core Xeon VM.  A check that still passes on a broken kernel verifies
nothing; the table shows which faults no check sees.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 1800.0  # per command: a fault that keeps a run from stopping fails it
MEMORY_MB = 3000  # address space per command, so such a run cannot fill the machine


class Fault(NamedTuple):
    name: str
    path: str  # relative to the checkout
    old: str
    new: str
    what: str


FAULTS = (
    Fault("aliased_grid", "src/svcl/flux.py",
          "n = max((spec.degree + 1) * k + 2, 3 * k + 2)", "n = 2 * k + 2",
          "every flux on the m + 2 grid: n_pad 18 in place of 26 for Burgers at m = 16"),
    Fault("cubic_on_3_2_grid", "src/svcl/flux.py",
          "n = max((spec.degree + 1) * k + 2, 3 * k + 2)", "n = 3 * k + 2",
          "every flux on the 3/2-rule grid: a cubic at n = 26 where it needs 34"),
    Fault("negated_nonlinear_term", "src/svcl/integrator.py",
          "wavenumbers = tiled(self.basis.wavenumbers)",
          "wavenumbers = tiled(-self.basis.wavenumbers)",
          "-N(u): the x-reflected dynamics"),
    Fault("ou_std_sqrt2", "src/svcl/noise.py",
          "self._ou_key, self._ou_std = (nu, dt), np.sqrt(var)",
          "self._ou_key, self._ou_std = (nu, dt), np.sqrt(2.0 * var)",
          "the OU increment's std times sqrt(2)"),
    Fault("decay_at_half_dt", "src/svcl/integrator.py",
          "self.decay = basis.heat_decay(model.nu, cfg.dt)",
          "self.decay = basis.heat_decay(model.nu, 0.5 * cfg.dt)",
          "the step's heat factor over dt/2"),
    Fault("resume_draw_index_off_by_one", "src/svcl/integrator.py",
          "path.draw_index = step0", "path.draw_index = step0 + bool(step0)",
          "a resumed run draws from the index after its step"),
    Fault("analyze_one_bin_off", "src/svcl/spectral.py",
          "self.spectrum_band = self.spectrum.view(float)[..., 2 : m + 2]",
          "self.spectrum_band = self.spectrum.view(float)[..., 4 : m + 4]",
          "analyze reads its band from the next rfft bin up"),
    Fault("lp_columns_at_p_minus_1", "src/svcl/observables.py",
          "for p in bufs[0].lp_orders]", "for p in [q - 1 for q in bufs[0].lp_orders]]",
          "each lp{p}_p record column holds the mean of |u|^(p - 1)"),
    Fault("residual_window_off_by_one", "src/svcl/integrator.py",
          "buf.fill_residuals(residual_window, model.nu, trace_h2(",
          "buf.fill_residuals(residual_window + 1, model.nu, trace_h2(",
          "run_single's balance residuals over one record more than the window"),
    Fault("left_rule_residual", "src/svcl/observables.py",
          "seg = 0.5 * (h1[k0 + 1 : s1] + h1[k0 : s1 - 1]) * np.diff(t[k0:s1])",
          "seg = h1[k0 : s1 - 1] * np.diff(t[k0:s1])",
          "full residual windows integrate h1 by the left rule, not the trapezoid"),
    Fault("guard_trip_time_from_the_row_before", "src/svcl/integrator.py",
          "trip = GuardTrip(float(times[i]), float(h1[i, r]))",
          "trip = GuardTrip(float(times[i - 1]), float(h1[i, r]))",
          "a guard trip reports the time of the kept row before its step's"),
)


def occurrences(fault: Fault, root: Path = ROOT) -> int:
    """How many times the fault's old text occurs in its file under root."""
    return (root / fault.path).read_text().count(fault.old)


def _copy(root: Path, dest: Path):
    skip = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                  ".bench_out", "*.egg-info")
    shutil.copytree(root, dest, ignore=skip)


def _failed_tests(junit: Path) -> list[str]:
    """Ids (module.Class::name) of the failed and errored test cases."""
    if not junit.exists():
        return ["<no junit report>"]
    out = []
    for case in ET.parse(junit).iter("testcase"):
        if any(child.tag in ("failure", "error") for child in case):
            out.append(f"{case.get('classname')}::{case.get('name')}")
    return sorted(out)


def run_fault(fault: Fault | None, root: Path) -> dict:
    """Apply one fault (None: no edit) to a copy of root; run tier-1 and
    svcl validate there, each under TIMEOUT_S and MEMORY_MB."""
    name = "none" if fault is None else fault.name
    with tempfile.TemporaryDirectory(prefix=f"fault_{name}_") as tmp:
        tree = Path(tmp) / "tree"
        _copy(root, tree)
        if fault is not None:  # main has checked that the old text occurs once
            target = tree / fault.path
            target.write_text(target.read_text().replace(fault.old, fault.new))
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        start = time.perf_counter()
        try:
            subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                            "--continue-on-collection-errors", f"--junitxml={tmp}/junit.xml",
                            "--ignore=tests/test_fault_matrix.py"],
                           cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass  # the report is missing or partial; a missing one reads as a failure
        tests = _failed_tests(Path(tmp) / "junit.xml")
        tier1_s = time.perf_counter() - start
        try:
            proc = subprocess.run([sys.executable, "-m", "svcl.cli", "validate", "--out",
                                   f"{tmp}/validate"], cwd=tree, env=env, capture_output=True,
                                  text=True, timeout=TIMEOUT_S)
            lines = proc.stdout.splitlines()
            checks = sorted(ln.split()[1].rstrip(":") for ln in lines if ln.startswith("FAIL "))
            if proc.returncode not in (0, 1) or not any(ln.startswith(("PASS ", "FAIL "))
                                                         for ln in lines):
                checks.append(f"<exit {proc.returncode}>")
        except subprocess.TimeoutExpired:
            checks = ["<timeout>"]
    criteria = sorted(t.split("::")[1].split("_")[2] for t in tests
                      if "test_acceptance" in t and "::test_criterion_" in t)
    return {"fault": name, "tests": tests, "criteria": criteria, "checks": checks,
            "tier1_s": round(tier1_s, 1)}


def table(rows: list[dict]) -> str:
    """The Markdown table: per fault, how many tier-1 tests fail (and how
    many of them in each test module), the criteria and the validate
    checks that fail."""
    out = ["| fault | tier-1 tests failed (per module) | criteria | validate checks | tier-1 s |",
           "|---|---|---|---|---|"]
    for r in rows:
        modules = Counter(t.split("::")[0].split(".")[1].removeprefix("test_")
                          for t in r["tests"] if "::" in t)
        per = ", ".join(f"{m} {n}" for m, n in sorted(modules.items()))
        out.append(f"| {r['fault']} | {len(r['tests'])}{f' ({per})' if per else ''} | "
                   f"{', '.join(r['criteria']) or '-'} | {', '.join(r['checks']) or '-'} | "
                   f"{r['tier1_s']} |")
    return "\n".join(out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--fault", action="append", choices=[f.name for f in FAULTS] + ["none"],
                    help="run only these faults (repeatable); default: none and every fault")
    ap.add_argument("--root", type=Path, default=ROOT, help="the checkout to copy")
    ap.add_argument("--json", type=Path, help="write every row, all failing ids, here")
    args = ap.parse_args(argv)
    by_name = {f.name: f for f in FAULTS}
    names = args.fault or ["none", *by_name]
    for name in names:
        if name != "none" and occurrences(by_name[name], args.root) != 1:
            ap.error(f"{name}: old text does not occur exactly once under {args.root}")
    # the cap is inherited by every command the workers start
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_MB << 20, MEMORY_MB << 20))
    with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:
        rows = list(pool.map(lambda n: run_fault(by_name.get(n), args.root), names))
    print(table(rows))
    if args.json:
        args.json.write_text(json.dumps(rows, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
