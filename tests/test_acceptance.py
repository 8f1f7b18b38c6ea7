"""Desk-scale acceptance battery: one test per numbered criterion.

Each test exercises one end-to-end claim at a stated tolerance and a stated
wall-clock budget, so `pytest -v tests/test_acceptance.py` reads as one
pass/fail line per criterion.  Run with -s to see the measured numbers even
on success.  Statistical margins were chosen so the checks pass with
headroom under the frozen seeds, not tuned to scrape by.
"""

import math
import time

import numpy as np
import pytest

from svcl.spectral import ModeBasis, SpectralField, mode_field
from svcl.flux import FluxSpec
from svcl.noise import NoiseSpec, NoisePath, trace_h2
from svcl.observables import l1_distance, read_csv_columns
from svcl.integrator import (
    ModelSpec,
    SolverConfig,
    run_single,
    run_coupled,
    run_on_increments,
    convolution_grid,
    increments_from_grid,
    picard_solve,
)
from svcl.ergodic import (
    ergodic_average,
    estimates_agree,
    default_burn_in,
    confluence_experiment,
    dissipation_entry_time,
    entry_time_bound,
)
from svcl.cli import entry, EXIT_OK


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} {'PASS' if ok else 'FAIL'} ({label}): {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def _smooth_random(basis: ModeBasis, seed: int, amp: float = 1.0) -> SpectralField:
    rng = np.random.default_rng(seed)
    c = amp * rng.standard_normal(basis.m_max) / (1.0 + basis.pair_index) ** 2
    return SpectralField(c, basis)


@pytest.fixture(scope="module")
def balance_run():
    """One long stationary run shared by the energy-balance and moment checks."""
    basis = ModeBasis(16)
    model = ModelSpec(0.1, FluxSpec("burgers"), NoiseSpec(c=0.5, q=3.0))
    t0 = time.perf_counter()
    res = run_single(model, SolverConfig(dt=5e-3), SpectralField(basis.zeros(), basis),
                     seed=3, n_steps=10**6, lp_orders=(2, 4, 6))
    return model, res, time.perf_counter() - t0


def test_criterion_1_linear_heat_decay_is_exact():
    t0 = time.perf_counter()
    basis = ModeBasis(64)
    model = ModelSpec(1.0, FluxSpec("zero"), NoiseSpec(sigma=np.zeros(64)))
    cfg = SolverConfig(dt=1e-5)
    u0 = _smooth_random(basis, 1)
    res = run_single(model, cfg, SpectralField(u0.coeffs.copy(), basis),
                     seed=0, n_steps=1000, record_every=1000)
    exact = u0.coeffs * np.exp(model.nu * basis.eigenvalues * 1000 * cfg.dt)
    rel = float(np.max(np.abs(res.state.u.coeffs - exact) / np.abs(exact)))
    elapsed = time.perf_counter() - t0
    ok = rel < 1e-12 and elapsed < 1.0
    _report(1, "linear heat decay exact per mode", ok,
            f"max relative mode error {rel:.3e} (tol 1e-12), {elapsed:.2f} s (budget 1 s)")


def test_criterion_2_ou_mode_variance_matches_theory():
    t0 = time.perf_counter()
    basis = ModeBasis(2)
    model = ModelSpec(1.0, FluxSpec("zero"), NoiseSpec(sigma=np.array([1.0, 0.0])))
    res = run_single(model, SolverConfig(dt=0.01), SpectralField(basis.zeros(), basis),
                     seed=12, n_steps=10**6)
    # only mode 1 is forced, so l2_sq is that mode's square
    est = ergodic_average(res, "l2_sq", default_burn_in(model.nu))
    target = 1.0 / (8.0 * math.pi**2)
    gap = abs(est.value - target)
    elapsed = time.perf_counter() - t0
    ok = gap < 3.0 * est.stderr and elapsed < 30.0
    _report(2, "stationary OU variance", ok,
            f"estimate {est.value:.8g} vs 1/(8 pi^2) = {target:.8g}, "
            f"gap {gap / est.stderr:.2f} standard errors (tol 3), {elapsed:.1f} s (budget 30 s)")


def test_criterion_3_l1_distance_contracts_every_step():
    t0 = time.perf_counter()
    basis = ModeBasis(32)
    model = ModelSpec(0.05, FluxSpec("burgers"), NoiseSpec(c=0.2, q=3.0))
    cfg = SolverConfig(dt=5e-4)
    worst = -np.inf
    for seed in range(10):
        run = run_coupled(model, cfg, _smooth_random(basis, 100 + seed),
                          _smooth_random(basis, 200 + seed),
                          seed=seed, n_steps=2000, record_every=2000)
        # violation = increase beyond 1e-8 of the current distance
        worst = max(worst, float(np.max(np.diff(run.l1_series) - 1e-8 * run.l1_series[:-1])))
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.0 and elapsed < 60.0
    _report(3, "pathwise L1 contraction, 10 seed pairs", ok,
            f"worst step increase beyond 1e-8 relative slack {worst:.3e} "
            f"(zero violations required), {elapsed:.1f} s (budget 60 s)")


def test_criterion_4_stationary_energy_balance_holds(balance_run):
    model, res, fixture_seconds = balance_run
    t0 = time.perf_counter()
    basis = ModeBasis(16)
    tr = trace_h2(model.noise, basis).l2
    horizon = float(res.records.column("t")[-1])
    est_b = ergodic_average(res, "h1_sq", burn_in=horizon / 2)
    bal_b = 2.0 * model.nu * est_b.value
    rel_b = abs(bal_b - tr) / tr

    cubic = ModelSpec(model.nu, FluxSpec("polynomial", coefficients=[0.0, 0.0, 0.0, 1.0 / 3.0]),
                      model.noise)
    res_c = run_single(cubic, SolverConfig(dt=5e-3), SpectralField(basis.zeros(), basis),
                       seed=4, n_steps=10**6)
    est_c = ergodic_average(res_c, "h1_sq", burn_in=horizon / 2)
    bal_c = 2.0 * cubic.nu * est_c.value
    rel_c = abs(bal_c - tr) / tr
    elapsed = fixture_seconds + time.perf_counter() - t0
    ok = (rel_b < 0.05 and rel_c < 0.05
          and estimates_agree(est_b, est_c) and elapsed < 300.0)
    _report(4, "2 nu <H1 energy> equals the noise trace", ok,
            f"burgers gap {rel_b:.4f}, cubic gap {rel_c:.4f} (tol 0.05), "
            f"flux independence within 3 combined standard errors: {estimates_agree(est_b, est_c)}, "
            f"{elapsed:.0f} s (budget 300 s)")


def test_criterion_5_coupled_runs_confluence_and_averages_agree():
    t0 = time.perf_counter()
    basis = ModeBasis(16)
    model = ModelSpec(0.05, FluxSpec("burgers"), NoiseSpec(c=0.2, q=3.0))
    cfg = SolverConfig(dt=1e-3)
    u0 = mode_field(basis, 1, 1.0)
    v0 = mode_field(basis, 1, -1.0)
    target = 1e-3 * l1_distance(u0, v0)
    reached = 0
    worst_passage = 0.0
    for seed in range(20):
        rep = confluence_experiment(u0, v0, model, cfg, seed=seed,
                                    epsilons=[target], horizon=10.0)
        reached += int(rep.reached_target)
        worst_passage = max(worst_passage, rep.first_passage[target])

    cfg2 = SolverConfig(dt=2e-3)
    r1 = run_single(model, cfg2, u0, seed=1001, n_steps=150_000)
    r2 = run_single(model, cfg2, v0, seed=1002, n_steps=150_000)
    burn = default_burn_in(model.nu)
    a1 = ergodic_average(r1, "l2_sq", burn)
    a2 = ergodic_average(r2, "l2_sq", burn)
    gap_se = abs(a1.value - a2.value) / math.hypot(a1.stderr, a2.stderr)
    elapsed = time.perf_counter() - t0
    ok = (reached == 20 and math.isfinite(worst_passage)
          and estimates_agree(a1, a2) and elapsed < 600.0)
    _report(5, "same-noise confluence and unique averages", ok,
            f"{reached}/20 pairs below 1e-3 of the initial distance, "
            f"worst passage t = {worst_passage:.2f} (horizon 10), "
            f"l2_sq averages gap {gap_se:.2f} combined standard errors (tol 3), "
            f"{elapsed:.0f} s (budget 600 s)")


def test_criterion_6_picard_and_stepper_gap_is_first_order():
    t0 = time.perf_counter()
    basis = ModeBasis(16)
    model = ModelSpec(0.05, FluxSpec("burgers"), NoiseSpec(c=0.3, q=3.0))
    u0 = _smooth_random(basis, 7)
    dt_coarse, n_fine = 2e-3, 200
    w = convolution_grid(NoisePath(model.noise, basis, 5), model.nu, dt_coarse / 2, n_fine)
    gaps = []
    converged = []
    for ddt, stride in ((dt_coarse, 2), (dt_coarse / 2, 1)):
        n = n_fine // stride
        cfg = SolverConfig(dt=ddt, picard_tol=1e-12)
        fixed = picard_solve(u0, model, cfg, horizon=n * ddt,
                             path=NoisePath(model.noise, basis, 5), w_grid=w[::stride])
        converged.append(fixed.converged)
        xis = increments_from_grid(w, model.nu, basis, ddt, stride)
        traj, trip = run_on_increments(model, cfg, u0, xis)
        assert trip is None, trip
        diff = traj - fixed.coeffs
        gaps.append(float(np.sqrt(np.max(np.sum(-basis.eigenvalues * diff**2, axis=1)))))
    ratio = gaps[0] / gaps[1]
    elapsed = time.perf_counter() - t0
    ok = all(converged) and ratio >= 1.8 and elapsed < 60.0
    _report(6, "mild fixed point vs stepper, first order in dt", ok,
            f"sup-t H1 gaps {gaps[0]:.3e} / {gaps[1]:.3e}, ratio {ratio:.3f} "
            f"(tol >= 1.8), both fixed points converged: {all(converged)}, "
            f"{elapsed:.1f} s (budget 60 s)")


def test_criterion_7_moment_averages_stable_under_horizon_doubling(balance_run):
    model, res, fixture_seconds = balance_run
    t0 = time.perf_counter()
    changes = {}
    for p in (2, 4, 6):
        col = res.records.column(f"lp{p}_p")
        half = float(np.mean(col[: 500_000 + 1]))
        full = float(np.mean(col))
        changes[p] = abs(full - half) / half
    elapsed = fixture_seconds + time.perf_counter() - t0
    ok = all(v < 0.05 for v in changes.values()) and elapsed < 600.0
    _report(7, "Lp moment averages stable when the horizon doubles", ok,
            f"relative change p=2: {changes[2]:.4f}, p=4: {changes[4]:.4f}, "
            f"p=6: {changes[6]:.4f} (tol 0.05), {elapsed:.0f} s (budget 600 s)")


def test_criterion_8_dissipation_entry_time_beats_drift_bound():
    t0 = time.perf_counter()
    basis = ModeBasis(8)
    model = ModelSpec(0.1, FluxSpec("burgers"), NoiseSpec(c=0.5, q=3.0))
    cfg = SolverConfig(dt=1e-3)
    u0 = mode_field(basis, 1, 2.0)
    v0 = mode_field(basis, 1, -2.0)
    radius = 4.0 * trace_h2(model.noise, basis).l2 / model.nu
    bound = entry_time_bound(u0, v0, model, basis, radius)
    taus = np.array([
        dissipation_entry_time(
            run_coupled(model, cfg, u0, v0, seed=seed, n_steps=3000, record_every=3000),
            radius)
        for seed in range(50)
    ])
    mean_tau = float(np.mean(taus))
    elapsed = time.perf_counter() - t0
    ok = bool(np.all(np.isfinite(taus))) and mean_tau <= bound and elapsed < 300.0
    _report(8, "mean entry time into the dissipation region", ok,
            f"mean tau {mean_tau:.3f} over 50 seeds vs drift bound {bound:.1f}, "
            f"all finite: {bool(np.all(np.isfinite(taus)))}, {elapsed:.0f} s (budget 300 s)")


_RESUME_CONFIG = """\
[model]
nu = 0.08
flux = burgers

[noise]
c = 0.3
q = 3.0

[solver]
modes = 16
dt = 0.001

[experiment]
kind = single
horizon = 0.3
seed = 11
snapshot_every = 100
observables = 2, 4

[initial]
kind = mode
mode = 1
amplitude = 1.0

[output]
dir = {out}
"""


def test_criterion_9_rerun_and_resume_are_bitwise_identical(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "out"
    ini = tmp_path / "run.ini"
    ini.write_text(_RESUME_CONFIG.format(out=out))
    assert entry(["run", "--config", str(ini)]) == EXIT_OK
    csv_path = out / "observables.csv"
    first_csv = csv_path.read_bytes()
    first_final = (out / "final.snap").read_bytes()
    first_snaps = {p.name: p.read_bytes() for p in out.glob("snap_*.snap")}

    assert entry(["run", "--config", str(ini)]) == EXIT_OK
    rerun_identical = (csv_path.read_bytes() == first_csv
                       and (out / "final.snap").read_bytes() == first_final)

    # interrupt after step 100: drop the later rows and snapshots
    lines = first_csv.decode().splitlines(keepends=True)
    n_comment = sum(1 for ln in lines if ln.startswith("#"))
    head = n_comment + 1  # comment block plus the header row
    csv_path.write_text("".join(lines[: head + 101]))
    (out / "final.snap").unlink()
    for name in ("snap_000000200.snap", "snap_000000300.snap"):
        (out / name).unlink()

    assert entry(["resume", "--config", str(ini),
                  "--resume", str(out / "snap_000000100.snap")]) == EXIT_OK
    resume_identical = (
        csv_path.read_bytes() == first_csv
        and (out / "final.snap").read_bytes() == first_final
        and all((out / n).read_bytes() == b for n, b in first_snaps.items())
    )
    elapsed = time.perf_counter() - t0
    ok = rerun_identical and resume_identical and elapsed < 60.0
    _report(9, "rerun and snapshot resume reproduce artifacts byte for byte", ok,
            f"rerun identical: {rerun_identical}, resumed identical: {resume_identical}, "
            f"{elapsed:.1f} s (budget 60 s)")
