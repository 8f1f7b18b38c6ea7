"""Command line driver: experiment orchestration and artifact management.

One binary with subcommands (run, couple, ergodic, validate, resume).
Given a config and a seed, every output byte is reproducible except the
timestamp, which lives only in the summary metadata block. Artifacts per
run directory: observables.csv (one comment line echoing the config, a
header, then 17-significant-digit rows), summary.json, and snapshots.
Exit codes: 0 success, 1 failed validation checks, 2 config error,
3 blowup trip, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, parse_config, parse_config_text
from .ergodic import (coupling_passage, default_burn_in, ergodic_average,
                      tightness_diagnostic)
from .integrator import (ModelSpec, SolverConfig, State, read_snapshot,
                         run_coupled, run_single, write_snapshot)
from .flux import FluxSpec
from .noise import NoiseSpec, trace_h2
from .observables import FLOAT_FMT, RecordBuffer, read_csv_columns
from .spectral import ModeBasis, SpectralField, mode_field

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_IO = 4


# --- serialization helpers ---------------------------------------------------


def _json17(obj, indent: int = 0) -> str:
    """Fixed-format JSON: floats carry 17 significant digits (stdlib json
    prints shortest-repr floats) and non-finite values become null."""
    pad = "  " * indent
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else ("true" if obj else "false")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return FLOAT_FMT % v if math.isfinite(v) else "null"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_json17(v, indent + 1)}"
            for k, v in obj.items())
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        inner = ",\n".join(f"{pad}  {_json17(v, indent + 1)}" for v in seq)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _write_atomic(path: Path, write, binary: bool = False) -> None:
    """Call write(fp) on a sibling temporary file and move it over path only
    once it is complete, so a failure or a kill mid-write leaves the file
    path held before (or no file) rather than a partial one."""
    tmp = path.with_name(path.name + ".part")
    try:
        with (open(tmp, "wb") if binary
              else open(tmp, "w", encoding="utf-8", newline="\n")) as fp:
            write(fp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_summary(out: Path, cfg: RunConfig, command: str, results: dict,
                   assumptions=()) -> None:
    meta = {"timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    if assumptions:
        meta["assumptions"] = list(assumptions)
    doc = {"run_id": cfg.run_id(), "command": command, "results": results,
           "metadata": meta, "config": cfg.echo()}
    _write_atomic(out / "summary.json", lambda fp: fp.write(_json17(doc) + "\n"))


def _write_csv(path: Path, buf, cfg: RunConfig, kept=()) -> None:
    """Write the config echo, the header and the run's rows; `kept`, the data
    rows of the segment a resumed run continues, go between header and rows."""
    _write_atomic(path, lambda fp: buf.write_csv(fp, cfg.echo(), kept))


def _write_snap(path: Path, state: State, model: ModelSpec, solver: SolverConfig,
                seed: int) -> None:
    _write_atomic(path, lambda fp: write_snapshot(fp, state, model, solver, seed),
                  binary=True)


def _trip_dict(trip):
    if trip is None:
        return None
    return {"t": trip.t, "h1_sq": trip.h1_sq, "reason": trip.reason}


def _embedded_config(comment_lines):
    """Recover the RunConfig echoed into a CSV comment block, or None."""
    if not comment_lines or not comment_lines[0].startswith("# config: "):
        return None
    parts = [comment_lines[0][len("# config: "):].rstrip("\n")]
    parts += [ln[2:].rstrip("\n") for ln in comment_lines[1:]]
    try:
        return parse_config_text("\n".join(parts))
    except ConfigError:
        return None


def _prepare(cfg: RunConfig):
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out, cfg.basis(), cfg.model(), cfg.solver()


# --- subcommand bodies -------------------------------------------------------


def _run_and_write(cfg: RunConfig, snap=None, kept=(), history=None):
    """Drive the single trajectory of `run`, `ergodic` and `resume` and write
    observables.csv, the periodic snapshots and final.snap.

    A resumed run starts from `snap` and continues the CSV data rows in
    `kept`, with `history` the (t, l2_sq, h1_sq) tail of those rows.
    """
    out, basis, model, solver = _prepare(cfg)
    if snap is None:
        u0, t0, step0 = cfg.initial.build(basis), 0.0, 0
    else:
        u0, t0, step0 = SpectralField(snap.coeffs.copy(), basis), snap.t, snap.step

    def writer(state: State):
        _write_snap(out / f"snap_{state.step:09d}.snap", state, model, solver, cfg.seed)

    res = run_single(model, solver, u0, seed=cfg.seed, n_steps=cfg.n_steps() - step0,
                     record_every=cfg.record_every, lp_orders=cfg.observables,
                     residual_window=cfg.residual_window, residual_history=history,
                     t0=t0, step0=step0, snapshot_every=cfg.snapshot_every,
                     snapshot_writer=writer if cfg.snapshot_every else None)
    _write_csv(out / "observables.csv", res.records, cfg, kept)
    _write_snap(out / "final.snap", res.state, model, solver, cfg.seed)
    return out, model, u0, res


def _blowup(trip, out: Path) -> int:
    print(f"blowup trip ({trip.reason}) at t = {trip.t:.6g}; "
          f"partial artifacts in {out}")
    return EXIT_BLOWUP


def _cmd_single(cfg: RunConfig, snap=None, rows=(), history=None) -> int:
    """`run`; also the body of `resume`, which passes the snapshot and the
    CSV data rows the new rows continue."""
    out, model, u0, res = _run_and_write(cfg, snap, rows, history)
    c = res.state.u.coeffs
    with np.errstate(over="ignore", invalid="ignore"):  # as in the step loop
        l2_sq, h1_sq = float(np.dot(c, c)), float(np.dot(-u0.basis.eigenvalues, c * c))
    results = {"kind": "single", "steps": res.state.step,
               "final_time": res.state.t, "final_l2_sq": l2_sq, "final_h1_sq": h1_sq,
               "rows": len(rows) + len(res.records)}
    if snap is not None:
        results["resumed_from_step"] = snap.step
    results["trip"] = _trip_dict(res.trip)
    _write_summary(out, cfg, "run" if snap is None else "resume", results)
    if res.trip is not None:
        return _blowup(res.trip, out)
    if snap is None:
        print(f"run {cfg.run_id()}: {res.state.step} steps to t = {res.state.t:.6g}, "
              f"{len(res.records)} rows -> {out}")
    else:
        print(f"resume {cfg.run_id()}: steps {snap.step} -> {res.state.step} "
              f"-> {out}")
    return EXIT_OK


def _cmd_coupled(cfg: RunConfig) -> int:
    out, basis, model, solver = _prepare(cfg)
    u0 = cfg.initial.build(basis)
    v0 = cfg.initial_b.build(basis)
    res = run_coupled(model, solver, u0, v0, seed=cfg.seed, n_steps=cfg.n_steps(),
                      record_every=cfg.record_every, lp_orders=cfg.observables,
                      residual_window=cfg.residual_window,
                      stop_l1_below=min(cfg.epsilons))
    _write_csv(out / "observables_a.csv", res.records_a, cfg)
    _write_csv(out / "observables_b.csv", res.records_b, cfg)
    _write_snap(out / "final_a.snap", res.state_a, model, solver, cfg.seed)
    _write_snap(out / "final_b.snap", res.state_b, model, solver, cfg.seed)
    l1 = res.l1_series
    first, monotone, reached = coupling_passage(res.times, l1, cfg.epsilons)
    results = {"kind": "coupled",
               "initial_l1": float(l1[0]), "final_l1": float(l1[-1]),
               "first_passage": {FLOAT_FMT % e: v for e, v in first.items()},
               "monotone": monotone, "reached_target": reached,
               "steps": res.state_a.step, "trip": _trip_dict(res.trip)}
    _write_summary(out, cfg, "couple", results)
    if res.trip is not None:
        return _blowup(res.trip, out)
    print(f"couple {cfg.run_id()}: l1 {l1[0]:.6g} -> {l1[-1]:.6g} "
          f"in {res.state_a.step} steps -> {out}")
    return EXIT_OK


def _cmd_ergodic(cfg: RunConfig) -> int:
    out, model, u0, res = _run_and_write(cfg)
    if res.trip is not None:
        _write_summary(out, cfg, "ergodic",
                       {"kind": "ergodic", "trip": _trip_dict(res.trip)})
        return _blowup(res.trip, out)
    burn = cfg.effective_burn_in()
    names = ["l2_sq", "h1_sq"] + [f"lp{p}_p" for p in cfg.observables]
    try:
        estimates = {}
        for name in names:
            e = ergodic_average(res, name, burn, n_batches=cfg.batches)
            estimates[name] = {"value": e.value, "stderr": e.stderr,
                               "batches": e.n_batches}
        tight = tightness_diagnostic(res, model, cfg.epsilons, u0)
    except ValueError as e:
        print(f"ergodic analysis impossible under this config: {e}",
              file=sys.stderr)
        return EXIT_CONFIG
    tr = trace_h2(model.noise, u0.basis).l2
    two_nu_h1 = 2.0 * cfg.nu * estimates["h1_sq"]["value"]
    results = {
        "kind": "ergodic", "burn_in": burn, "estimates": estimates,
        "stationary_balance": {
            "two_nu_h1_mean": two_nu_h1, "noise_trace_l2": tr,
            "relative_gap": abs(two_nu_h1 - tr) / tr if tr else float("nan")},
        "tightness": [
            {"epsilon": r.epsilon, "threshold": r.threshold,
             "fraction": r.fraction, "bound": r.bound, "satisfied": r.satisfied}
            for r in tight],
        "steps": res.state.step, "trip": None,
    }
    _write_summary(out, cfg, "ergodic", results, assumptions=(
        "expectations under the invariant measure are approximated by time "
        "averages of one long trajectory; uniqueness of the invariant "
        "measure justifies the exchange",))
    print(f"ergodic {cfg.run_id()}: {len(estimates)} estimates over "
          f"{res.state.step} steps (burn-in {burn:.6g}) -> {out}")
    return EXIT_OK


# --- validate suite ----------------------------------------------------------


def _check_heat_decay():
    """A = 0, sigma = 0: each mode must follow exp(nu lam t) to round-off."""
    basis = ModeBasis(16)
    nu = 0.02
    model = ModelSpec(nu, FluxSpec("zero"), NoiseSpec(sigma=np.zeros(16)))
    rng = np.random.default_rng(3)
    c0 = rng.standard_normal(16) / (1.0 + basis.pair_index) ** 2
    res = run_single(model, SolverConfig(dt=5e-3), SpectralField(c0.copy(), basis),
                     seed=0, n_steps=200, record_every=200)
    exact = c0 * np.exp(nu * basis.eigenvalues * res.state.t)
    rel = float(np.max(np.abs(res.state.u.coeffs - exact) / np.abs(exact)))
    return rel < 1e-12, f"max relative mode error {rel:.3e} (tol 1e-12)"


def _ou_reference_run():
    basis = ModeBasis(2)
    model = ModelSpec(1.0, FluxSpec("zero"),
                      NoiseSpec(sigma=np.array([1.0, 0.0])))
    res = run_single(model, SolverConfig(dt=0.01),
                     SpectralField(basis.zeros(), basis), seed=12,
                     n_steps=100_000)
    return model, res


def _check_ou_variance(ou):
    """Stationary L2 mass of the forced mode: sigma^2 / (-2 nu lam_1)."""
    model, res = ou
    target = 1.0 / (8.0 * math.pi**2)
    est = ergodic_average(res, "l2_sq", default_burn_in(model.nu))
    gap = abs(est.value - target)
    ok = gap < 5 * est.stderr and gap < 0.05 * target
    return ok, (f"mode-1 variance {est.value:.6g} vs {target:.6g} "
                f"(gap {gap / est.stderr:.2f} se)")


def _check_contraction():
    """Shared noise must keep the L1 distance non-increasing per step."""
    basis = ModeBasis(16)
    model = ModelSpec(0.05, FluxSpec("burgers"), NoiseSpec(c=0.3, q=3.0))
    res = run_coupled(model, SolverConfig(dt=1e-3), mode_field(basis, 1, 1.0),
                      mode_field(basis, 1, -1.0), seed=0, n_steps=2000,
                      record_every=2000)
    inc = np.diff(res.l1_series)
    worst = float(np.max(inc / res.l1_series[:-1]))
    return worst <= 1e-8, f"worst relative l1 increase {worst:.3e} (tol 1e-8)"


def _check_energy_balance(ou):
    """Stationarity: 2 nu E||u||_H1^2 must match the L2 noise trace."""
    model, res = ou
    est = ergodic_average(res, "h1_sq", default_burn_in(model.nu))
    tr = trace_h2(model.noise, ModeBasis(2)).l2
    rel = abs(2 * model.nu * est.value - tr) / tr
    ok = rel < 0.05
    return ok, f"2 nu <h1_sq> = {2 * model.nu * est.value:.6g} vs trace {tr:.6g} ({rel:.2%})"


def _cmd_validate(cfg: RunConfig) -> int:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ou = _ou_reference_run()
    checks = [
        ("heat_decay", *_check_heat_decay()),
        ("ou_variance", *_check_ou_variance(ou)),
        ("l1_contraction", *_check_contraction()),
        ("energy_balance", *_check_energy_balance(ou)),
    ]
    rows = []
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        rows.append({"name": name, "passed": ok, "detail": detail})
    n_fail = sum(not ok for _, ok, _ in checks)
    _write_summary(out, cfg, "validate",
                   {"kind": "validate", "checks": rows, "failures": n_fail})
    print(f"validate: {len(checks) - n_fail}/{len(checks)} checks passed")
    return EXIT_OK if n_fail == 0 else EXIT_CHECK_FAILED


# --- resume ------------------------------------------------------------------


def _cmd_resume(cfg: RunConfig, snap_path) -> int:
    if snap_path is None:
        print("resume requires --resume SNAPSHOT", file=sys.stderr)
        return EXIT_CONFIG
    if cfg.experiment != "single":
        print("resume supports single-run experiments only", file=sys.stderr)
        return EXIT_CONFIG
    try:
        with open(snap_path, "rb") as fp:
            snap = read_snapshot(fp)
    except OSError as e:
        print(f"cannot read snapshot: {e}", file=sys.stderr)
        return EXIT_IO
    except ValueError as e:
        print(f"unusable snapshot: {e}", file=sys.stderr)
        return EXIT_IO

    mismatches = []
    if snap.m_max != cfg.modes:
        mismatches.append(f"modes: snapshot {snap.m_max}, config {cfg.modes}")
    if snap.nu != cfg.nu:
        mismatches.append(f"nu: snapshot {snap.nu!r}, config {cfg.nu!r}")
    if snap.scheme != cfg.scheme:
        mismatches.append(f"scheme: snapshot {snap.scheme}, config {cfg.scheme}")
    if snap.seed != cfg.seed:
        mismatches.append(f"seed: snapshot {snap.seed}, config {cfg.seed}")
    # dt is not in the header, but t = step * dt pins it
    if abs(snap.t - snap.step * cfg.dt) > 1e-9 * max(1.0, abs(snap.t)):
        mismatches.append(f"dt: snapshot t = {snap.t!r} is not step {snap.step} "
                          f"of dt = {cfg.dt!r}")
    if mismatches:
        for m in mismatches:
            print(f"snapshot/config mismatch on {m}", file=sys.stderr)
        return EXIT_CONFIG
    n_total = cfg.n_steps()
    if snap.step > n_total:
        print(f"snapshot step {snap.step} is past the configured horizon "
              f"({n_total} steps)", file=sys.stderr)
        return EXIT_CONFIG

    out = Path(cfg.out_dir)
    csv_path = out / "observables.csv"
    if not csv_path.exists():
        print(f"cannot resume: {csv_path} is missing", file=sys.stderr)
        return EXIT_IO
    with open(csv_path, "r", encoding="utf-8", newline="") as fp:
        lines = fp.read().splitlines(keepends=True)
    n_comment = 0
    while n_comment < len(lines) and lines[n_comment].startswith("#"):
        n_comment += 1
    # the CSV carries the config it was written under; everything except
    # the horizon (extending a run is the point of resume) and the output
    # location (run directories get copied around) must match
    disk_cfg = _embedded_config(lines[:n_comment])
    if disk_cfg is None or replace(disk_cfg, horizon=cfg.horizon,
                                   out_dir=cfg.out_dir) != cfg:
        print("cannot resume: the CSV was written under a different config",
              file=sys.stderr)
        return EXIT_CONFIG
    data = lines[n_comment + 1:]
    keep = snap.step // cfg.record_every + 1
    if len(data) < keep:
        print(f"cannot resume: {csv_path} has {len(data)} rows, the snapshot "
              f"step implies {keep}", file=sys.stderr)
        return EXIT_IO
    # the kept rows are copied as they stand under the header the config
    # writes, so each must be a whole row of its fields; only the residual
    # tail is parsed
    header = ",".join(RecordBuffer(cfg.observables).column_names()) + "\n"
    if lines[n_comment] != header:
        print(f"cannot resume: the header of {csv_path} is not {header.strip()}",
              file=sys.stderr)
        return EXIT_IO
    width = header.count(",")
    kept = data[:keep]
    bad = next((i for i, row in enumerate(kept)
                if row.count(",") != width or row[-1:] != "\n"), None)
    if bad is not None:
        print(f"cannot resume: line {n_comment + 2 + bad} of {csv_path} is not "
              f"a whole row of {width + 1} fields", file=sys.stderr)
        return EXIT_IO
    try:
        cols = read_csv_columns(lines, slice(max(0, keep - cfg.residual_window), keep))
    except ValueError as e:
        print(f"cannot resume: {csv_path}: {e}", file=sys.stderr)
        return EXIT_IO
    history = (cols["t"], cols["l2_sq"], cols["h1_sq"])

    return _cmd_single(cfg, snap, kept, history)


# --- entry -------------------------------------------------------------------

_HELP = {
    "run": "drive the experiment configured in the file or flags",
    "couple": "drive two trajectories under one forcing realization",
    "ergodic": "long-run averages and tightness diagnostics",
    "validate": "run the built-in invariant checks and report pass/fail",
    "resume": "continue a single run from a snapshot",
}


@functools.cache  # built by the first entry call, not on import
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="svcl",
        description="pseudo-spectral simulator for a stochastic viscous "
                    "scalar conservation law on the unit torus")
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_text in _HELP.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", default=None, metavar="FILE",
                        help="INI config file; flags override its values")
        sp.add_argument("--seed", default=None, help="unsigned 64-bit noise seed")
        sp.add_argument("--horizon", default=None, help="total simulated time")
        sp.add_argument("--dt", default=None, help="time step")
        sp.add_argument("--modes", default=None,
                        help="number of retained spectral coefficients")
        sp.add_argument("--nu", default=None, help="viscosity (> 0)")
        sp.add_argument("--flux", default=None,
                        help="burgers | zero | polynomial:a0,a1,...")
        sp.add_argument("--noise-profile", dest="noise_profile", default=None,
                        help="C,Q spectral amplitude profile, or zero")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--experiment", default=None,
                        help="experiment kind (single|coupled|ergodic|validate)")
        sp.add_argument("--resume", dest="resume", default=None,
                        metavar="SNAPSHOT", help="snapshot file to continue from")
    return p


_FORCED_KIND = {"couple": "coupled", "ergodic": "ergodic", "validate": "validate"}


def entry(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {key: getattr(args, key) for key in
                 ("seed", "horizon", "dt", "modes", "nu", "flux",
                  "noise_profile", "out", "experiment")}
    if args.command in _FORCED_KIND:
        overrides["experiment"] = _FORCED_KIND[args.command]
    try:
        cfg = parse_config(args.config, overrides)
    except ConfigError as e:
        print(e, file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "resume":
            return _cmd_resume(cfg, args.resume)
        body = {"single": _cmd_single, "coupled": _cmd_coupled,
                "ergodic": _cmd_ergodic, "validate": _cmd_validate}
        return body[cfg.experiment](cfg)
    except OSError as e:
        print(f"i/o failure: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(entry())
