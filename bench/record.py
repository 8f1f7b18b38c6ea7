"""Run every workload on seeds 0-9 and append the results to a file.

    python3 bench/record.py --label TEXT

For each workload in BENCHMARK.json this runs bench/run.py untraced once
per seed, for run_seconds of BENCHMARK.json, and traced once, on seed 0.
The entry appended to bench/results/baseline.json holds, per workload and
end-to-end metric, every value with its median and quartiles, the spread
(q3 - q1) / median next to the metric's bound, and the change of the median
from the previous entry; each run's raw (unpaced) wall and setup medians
with the slowdowns they were paced by; the traced run's per-layer metrics;
and the environment block.  The tables are printed and written, with
units, to bench/results/baseline.md.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results" / "baseline.json"
SEEDS = list(range(10))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: {proc.stderr}")
    path = ROOT / ".bench_out" / f"result_{workload}_seed{seed}_trace{trace}_full.json"
    return json.loads(path.read_text())


def _stats(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def _raw(run: dict) -> dict:
    """A run's medians before pacing, and the slowdowns that paced them."""
    probes = run["setup_probes"]
    return {"seed": run["seed"],
            "wall_s": statistics.median(run["raw_wall_samples_s"]),
            "slowdown": statistics.median(run["slowdown_samples"]),
            "setup_s": statistics.median(p["raw_s"] for p in probes),
            "setup_slowdown": statistics.median(p["slowdown"] for p in probes)}


def record(label: str, previous: dict | None) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    entry = {"label": label,
             "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
             "seeds": SEEDS, "run_seconds": seconds, "workloads": {}}
    for w in (x["name"] for x in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(_run(w, seed, seconds, 0))
            print(f"{w} seed {seed}: "
                  + ", ".join(f"{k} {m['value']:.6g} {m['unit']}"
                              for k, m in runs[-1]["result"]["metrics"].items()),
                  flush=True)
        traced = _run(w, SEEDS[0], seconds, 1)
        entry.setdefault("environment", runs[0]["environment"])
        end_to_end = {}
        for m in spec["end_to_end"]:
            st = _stats([r["result"]["metrics"][m["name"]]["value"] for r in runs])
            end_to_end[m["name"]] = {"unit": m["unit"], "bound": m["bound"], **st}
            try:
                before = previous["workloads"][w]["end_to_end"][m["name"]]["median"]
                end_to_end[m["name"]]["change"] = st["median"] / before - 1
            except (TypeError, KeyError):
                pass  # first entry, or a workload or metric new in this one
        entry["workloads"][w] = {
            "end_to_end": end_to_end,
            "fail_frac": [r["fail_frac"] for r in runs],
            "raw": [_raw(r) for r in runs],
            "correct": all(r["result"]["correct"] for r in runs + [traced]),
            "ref_digest": runs[0]["ref_digest"],
            "traced_ref_digest": traced["ref_digest"],
            "per_layer": traced["result"]["metrics"],
        }
    return entry


def tables(entry: dict) -> str:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(entry["workloads"])
    env = entry["environment"]
    out = [f"## {entry['label']} ({entry['date_utc']})", "",
           f"Python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
           f"{env['cpu_model']}, git {env['git_rev']}, src {env['src_sha256']}, "
           f"BLAS/OpenMP threads 1; {len(entry['seeds'])} seeds of "
           f"{entry['run_seconds']} s per workload.", "",
           "End to end: median [q1, q3], spread = (q3 - q1) / median, change = "
           "median / median of the previous entry - 1, bound.", "",
           "| workload | metric | unit | median | q1 | q3 | spread | change | bound |",
           "|---|---|---|---|---|---|---|---|---|"]
    for w in names:
        for k, s in entry["workloads"][w]["end_to_end"].items():
            change = f"{s['change']:+.4f}" if "change" in s else ""
            out.append(f"| {w} | {k} | {s['unit']} | {s['median']:.6g} | {s['q1']:.6g} "
                       f"| {s['q3']:.6g} | {s['spread']:.4f} | {change} | {s['bound']} |")
        ff = entry["workloads"][w]["fail_frac"]
        out.append(f"| {w} | fail_frac | ratio | {statistics.median(ff):.6g} "
                   f"| {min(ff):.6g} | {max(ff):.6g} | | | |")
    out += ["", "Per layer, traced run on seed "
            f"{entry['seeds'][0]} (counts are exact, from the default-seed unit).", "",
            "| metric | unit | " + " | ".join(names) + " |",
            "|---|---|" + "---|" * len(names)]
    for m in spec["per_layer"]:
        vals = [entry["workloads"][w]["per_layer"][m["name"]]["value"] for w in names]
        out.append(f"| {m['name']} | {m['unit']} | "
                   + " | ".join(f"{v:.6g}" for v in vals) + " |")
    return "\n".join(out) + "\n"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    args = p.parse_args(argv)
    history = json.loads(RESULTS.read_text()) if RESULTS.exists() else []
    history.append(record(args.label, history[-1] if history else None))
    RESULTS.parent.mkdir(exist_ok=True)
    RESULTS.write_text(json.dumps(history, indent=1) + "\n")
    RESULTS.with_suffix(".md").write_text(
        "# svcl benchmark results\n\n" + "\n".join(tables(e) for e in history))
    print(tables(history[-1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
