"""svcl benchmark: one workload per call, end-to-end or per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree holding src/svcl.  Workloads are defined
in bench/workloads.py and listed in BENCHMARK.json.  Each call starts fresh
single-threaded worker processes (BLAS and OpenMP pinned to one thread) with
src/ on the import path:

* --trace 0: SETUP_PROBES worker processes that only import svcl and build
  the workload's specs, whose median time is setup_s; then one worker that
  runs units for S seconds and reports wall_s (median seconds per checked
  unit), steps_per_s (median trajectory-steps per second of a unit) and
  peak_rss_mb (peak resident memory of that worker).  Unit times are
  paced: wall time divided by the core's slowdown measured by bench/pace.py
  just before and after the unit, so that drift of a shared host does not
  read as a change; setup times are paced in part (pace.SETUP_EXPONENT).
  Raw times and slowdowns are kept in the results file.
* --trace 1: one worker that runs every unit untraced and traced, and
  reports the per-layer metrics of bench/spans.py and trace.overhead_frac
  (from raw wall times of each untraced/traced pair).

Human-readable lines come first; the last line of output is the JSON result
{"correct", "attempted", "failed", "metrics"}.  fail_frac, failed units over
attempted units, is printed on its own line and carried by that pair.  A
results file with an environment block goes to .bench_out/.  Exit status is
0 whenever a result is printed, failed checks included, and non-zero when no
result could be produced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

UNITS = {"wall_s": "s", "steps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def _per_layer_units() -> dict[str, str]:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker(args: list[str], env: dict, timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                          env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited with {proc.returncode}:\n"
                           + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_rev(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted((root / "src").rglob("*.py")):
        h.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def environment(root: Path, worker: dict) -> dict:
    return {
        "python": worker.get("python", platform.python_version()),
        "numpy": worker.get("numpy"),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_rev": _git_rev(root),
        "src_sha256": _src_digest(root),
        "blas_threads": {v: "1" for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    # a terminated run unwinds, so subprocess.run kills the worker it waits on
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    p = argparse.ArgumentParser(description="svcl benchmark, one workload per call")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs every path at toy size (smoke test only)")
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "svcl" / "__init__.py").is_file():
        print(f"no svcl sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}_{args.size}"
    env = _env(root)
    workdir = Path(tempfile.mkdtemp(prefix=f"work_{tag}_", dir=out_dir))
    try:
        base = ["--workload", args.workload, "--workdir", str(workdir)]
        setup = []
        if not args.trace:
            # the first probe fills the bytecode cache, which users pay once
            for i in range(1 + (SETUP_PROBES if args.size == "full" else 1)):
                probe = _worker(["setup", *base], env, 60)
                if i:
                    setup.append(probe)
        run = ["run", *base, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        if args.trace:
            # spans run to tens of MB, so only the latest traced run keeps them
            run += ["--spans", str(out_dir / f"spans_{args.workload}_{args.size}.npz")]
        res = _worker(run, env, WORKER_TIMEOUT_S)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        units = _per_layer_units()
        values = res["metrics"]
    else:
        units = UNITS
        values = dict(res["metrics"],
                      setup_s=statistics.median(p["setup_s"] for p in setup))
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    attempted, failed = res["attempted"], res["failed"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{res['units']} units in {args.seconds:g} s")
    for k, m in metrics.items():
        print(f"  {k:40s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'fail_frac':40s} {failed / attempted:>16.6g} ratio")
    for line in res["problems"]:
        print(f"  FAILED {line}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size,
              "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "environment": environment(root, res), "result": result,
              "fail_frac": failed / attempted, "setup_probes": setup,
              **{k: res[k] for k in ("units", "ref_digest", "problems",
                                     "wall_samples_s", "raw_wall_samples_s",
                                     "slowdown_samples", "steps")}}
    if args.trace:
        record["traced_wall_samples_s"] = res["traced_wall_samples_s"]
    (out_dir / f"result_{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
