"""One workload in one fresh, single-threaded process.

    python3 bench/worker.py setup --workload NAME --workdir DIR
    python3 bench/worker.py run --workload NAME --seed N --seconds S --trace 0|1
                                --workdir DIR [--size full|tiny] [--spans FILE]

`setup` times importing svcl and building the workload's specs, and prints
{"setup_s", "raw_s", "slowdown"}: the time paced as bench/pace.py says, the
raw time and the slowdown measured right after.  `run` warms up on a tiny
unit, then runs units until --seconds have passed (at least MIN_UNITS), and
prints one JSON object as its last line of output.  Each unit's wall time
is paced by the slowdowns measured just before and after it (bench/pace.py);
the raw times and slowdowns are printed too.  With --trace 1 every unit runs
twice on the same inputs, untraced and then traced; the two digests must
agree, the difference in wall time is the tracing overhead, and the traced
copies give the per-layer metrics.  Both modes expect svcl on the import
path.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

# numpy, svcl and the bench modules that import them (workloads, pace,
# spans) are imported inside the functions, so that `setup` times them.

MIN_UNITS = 3
GOLDEN = Path(__file__).with_name("golden.json")


def _setup(args) -> dict:
    t0 = time.perf_counter()
    import workloads  # imports every svcl module

    wl = workloads.WORKLOADS[args.workload](workloads.FULL)
    wl.specs(args.workdir)
    raw = time.perf_counter() - t0
    import pace

    pace.warm_up()
    slowdown = pace.slowdown_now()
    return {"setup_s": raw / slowdown ** pace.SETUP_EXPONENT,
            "raw_s": raw, "slowdown": slowdown}


def _run_unit(wl, inputs):
    """Run one unit; returns (result, wall s)."""
    from workloads import UnitResult

    t0 = time.perf_counter()
    try:
        res = wl.run(inputs)
    except Exception as e:  # a broken program counts as a failed unit
        res = UnitResult(steps=0, digest="", problems=[f"{type(e).__name__}: {e}"])
    return res, time.perf_counter() - t0


def _run(args) -> dict:
    import numpy as np

    import pace
    import workloads
    from spans import Tracer

    os.chdir(args.workdir)  # relative output paths, see CliResume.prepare
    size = workloads.TINY if args.size == "tiny" else workloads.FULL
    wl = workloads.WORKLOADS[args.workload](size)
    wl.specs(args.workdir)
    warm = workloads.WORKLOADS[args.workload](workloads.TINY)
    warm.specs(args.workdir)
    pace.warm_up()
    _run_unit(warm, warm.prepare(2**64 - 1, args.workdir))

    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    tracer = Tracer() if args.trace else None
    walls, raw_walls, slowdowns, steps, traced_walls = [], [], [], [], []
    attempted = failed = trips = 0
    problems: list[str] = []
    ref_digest = None

    def account(res, label):
        nonlocal attempted, failed, trips
        attempted += 1
        trips += res.trips
        if res.problems:
            failed += 1
            problems.extend(f"{label}: {p}" for p in res.problems)

    t_start = time.perf_counter()
    k = 0
    while k < MIN_UNITS or time.perf_counter() - t_start < args.seconds:
        seed = workloads.unit_seed(args.seed, k)
        label = f"unit {k} (seed {seed})"
        inputs = wl.prepare(seed, args.workdir)
        before = pace.slowdown_now()
        res, raw = _run_unit(wl, inputs)
        slowdown = (before + pace.slowdown_now()) / 2
        if k == 0:
            ref_digest = res.digest
            want = golden.get(wl.name) if args.size == "full" else res.digest
            if res.digest != want:
                res.problems.append(f"digest {res.digest} differs from recorded {want}")
        account(res, label)
        walls.append(raw / slowdown)
        raw_walls.append(raw)
        slowdowns.append(slowdown)
        steps.append(res.steps)
        if tracer is not None:
            inputs = wl.prepare(seed, args.workdir)
            tracer.install(k)
            try:
                with tracer.span("bench.unit"):
                    tres, twall = _run_unit(wl, inputs)
            finally:
                tracer.uninstall()
            if tres.digest != res.digest:
                tres.problems.append(f"traced digest {tres.digest} != untraced {res.digest}")
            account(tres, label + " traced")
            traced_walls.append(twall)
        k += 1

    out = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "ref_digest": ref_digest,
        "units": k,
        "wall_samples_s": walls,
        "raw_wall_samples_s": raw_walls,
        "slowdown_samples": slowdowns,
        "steps": steps,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
    if tracer is None:
        out["metrics"] = {
            "wall_s": statistics.median(walls),
            "steps_per_s": statistics.median(s / w for s, w in zip(steps, walls)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        out["traced_wall_samples_s"] = traced_walls
        out["metrics"] = layer_metrics(tracer, wl, k, max(steps[0], 1), trips,
                                       sum(raw_walls), sum(traced_walls))
        if args.spans:
            tracer.save(args.spans)
    return out


def layer_metrics(tracer, wl, n_units, ref_steps, trips, wall, traced_wall):
    """Per-layer metrics from the traced units, the per_layer list of
    BENCHMARK.json.

    `.calls` and the work counters are exact counts in unit 0, which always
    runs the default seed; `.self_us` is the mean self time per call over
    all traced units; `.s` and `.self_s` are inclusive and self seconds per
    traced unit.  A layer the workload does not reach reads 0 in all of them.
    """
    summary = tracer.summarize()

    def calls(name):
        return summary.get(name, {}).get(0, (0, 0, 0))[0]

    def totals(name):
        rows = summary.get(name, {}).values()
        return (sum(r[0] for r in rows), sum(r[1] for r in rows),
                sum(r[2] for r in rows))

    def self_us(name):
        n, _, own = totals(name)
        return own / n / 1e3 if n else 0.0

    def per_unit_s(name, own=False):
        return totals(name)[2 if own else 1] / n_units / 1e9

    def counter(key):
        return tracer.counters.get(0, {}).get(key, 0)

    m = {}
    for name in ("noise.ou_increment", "spectral.synthesize", "spectral.analyze",
                 "flux.flux_value", "integrator.advance", "observables.append"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_us"] = self_us(name)
    m["spectral.points"] = counter("spectral.points")
    m["spectral.bytes_computed"] = counter("spectral.bytes_computed")
    m["spectral.pad_points"] = wl.pad_points
    m["integrator.advance_per_step"] = calls("integrator.advance") / ref_steps
    m["integrator.driver.self_s"] = (per_unit_s("integrator.run_single", own=True)
                                     + per_unit_s("integrator.run_coupled", own=True))
    m["integrator.trips"] = trips
    m["observables.synth_per_step"] = calls("spectral.synthesize") / ref_steps
    m["observables.csv_bytes"] = counter("observables.csv_bytes")
    m["trace.overhead_frac"] = (traced_wall - wall) / wall

    for name in ("integrator.write_snapshot", "integrator.read_snapshot"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_us"] = self_us(name)
    for name, own in (("observables.write_csv", False),
                      ("observables.read_csv_columns", False),
                      ("ergodic.ergodic_average", False),
                      ("ergodic.confluence_experiment", True),
                      ("config.parse_config", False), ("cli.entry", True)):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.{'self_s' if own else 's'}"] = per_unit_s(name, own=own)
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "run"))
    p.add_argument("--workload", required=True)
    p.add_argument("--workdir", required=True, type=Path)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--spans", default=None, help="write the traced spans here (.npz)")
    args = p.parse_args(argv)
    out = _setup(args) if args.mode == "setup" else _run(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
