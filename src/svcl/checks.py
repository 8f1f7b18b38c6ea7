"""The paper's checks, each defined once and run at two sizes.

A row of CHECKS names a check, states the claim it tests and gives its
parameters per size: `desk`, the seconds-long size `svcl validate` runs,
and `full`, acceptance criterion N of tests/test_acceptance.py with its
wall-clock budget.  The row's function maps the parameters to (passed,
numbers), the measured values; its detail line is formatted from both.
A long run that more than one check reads is a Shared parameter, which a
Runner builds once.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np

from .config import InitialSpec
from .ergodic import (balance_gap, confluence_experiment, default_burn_in, dissipation_entry_time,
                      entry_time_bound, ergodic_average, estimates_agree)
from .flux import FluxSpec
from .integrator import (ModelSpec, SolverConfig, convolution_grid, increments_from_grid,
                         picard_solve, run_coupled, run_on_increments, run_single)
from .noise import NoisePath, NoiseSpec, trace_h2
from .observables import l1_distance, sup_h1
from .spectral import ModeBasis, mode_field


def _ou_run(n_steps):
    """Zero flux at m = 2 with only mode 1 forced: an exact OU process."""
    model = ModelSpec(1.0, FluxSpec("zero"), NoiseSpec(sigma=np.array([1.0, 0.0])))
    return model, run_single(model, SolverConfig(dt=0.01), InitialSpec().build(ModeBasis(2)),
                             seed=12, n_steps=n_steps)


def _stationary_run(flux, seed, lp_orders=()):
    model = ModelSpec(0.1, flux, NoiseSpec(c=0.5, q=3.0))
    return model, run_single(model, SolverConfig(dt=5e-3), InitialSpec().build(ModeBasis(16)),
                             seed=seed, n_steps=10**6, lp_orders=lp_orders)


def _balance_run():
    """The 10^6-step m = 16 Burgers run of criteria 4 and 7."""
    return _stationary_run(FluxSpec("burgers"), 3, (2, 4, 6))


def _heat_decay(m, nu, dt, n_steps, seed, tol):
    basis = ModeBasis(m)
    model = ModelSpec(nu, FluxSpec("zero"), NoiseSpec(sigma=np.zeros(m)))
    u0 = InitialSpec("random", seed=seed).build(basis)
    res = run_single(model, SolverConfig(dt=dt), u0, seed=0, n_steps=n_steps,
                     record_every=n_steps)
    # at n_steps * dt, not at the run's clock, a sum of dt that drifts from it
    exact = u0.coeffs * np.exp(nu * basis.eigenvalues * n_steps * dt)
    rel = float(np.max(np.abs(res.state.u.coeffs - exact) / np.abs(exact)))
    return rel < tol, {"rel_error": rel}


def _ou_variance(ou_run, n_sigma, rel_tol):
    model, res = ou_run
    target = 1.0 / (8.0 * math.pi**2)  # sigma_1^2 / (-2 nu lam_1)
    est = ergodic_average(res, "l2_sq", default_burn_in(model.nu))
    gap = abs(est.value - target)
    return gap < n_sigma * est.stderr and gap < rel_tol * target, {
        "estimate": est.value, "target": target, "gap_se": gap / est.stderr,
        "rel_gap": gap / target}


def _energy_balance(ou_run, tol):
    model, res = ou_run
    two_nu_h1 = 2 * model.nu * ergodic_average(res, "h1_sq", default_burn_in(model.nu)).value
    tr = trace_h2(model.noise, ModeBasis(2)).l2
    rel = balance_gap(two_nu_h1, tr)
    return rel < tol, {"two_nu_h1": two_nu_h1, "trace": tr, "rel_gap": rel}


def _l1_contraction(m, c, dt, n_steps, pairs, u0, v0, slack):
    """Pair s runs seed s from u0 and v0 (a random kind's seed offset by s).
    A step may raise the L1 distance by at most slack times itself, a test
    with no division, so a pair at distance 0 reads 0."""
    basis = ModeBasis(m)
    model = ModelSpec(0.05, FluxSpec("burgers"), NoiseSpec(c=c, q=3.0))
    rises = []
    for s in range(pairs):
        l1 = run_coupled(model, SolverConfig(dt=dt), replace(u0, seed=u0.seed + s).build(basis),
                         replace(v0, seed=v0.seed + s).build(basis), seed=s, n_steps=n_steps,
                         record_every=n_steps).l1_series
        rises.append(np.max(np.diff(l1) - slack * l1[:-1]))
    worst = float(np.max(rises))  # a nan propagates, where max() would drop it
    return worst <= 0.0, {"worst": worst}


def _stationary_balance(balance_run, cubic_seed, tol, n_sigma):
    model, res_b = balance_run
    _, res_c = _stationary_run(FluxSpec("polynomial", coefficients=[0.0, 0.0, 0.0, 1.0 / 3.0]),
                               cubic_seed)
    tr = trace_h2(model.noise, ModeBasis(16)).l2
    burn = float(res_b.records.column("t")[-1]) / 2
    est_b, est_c = (ergodic_average(r, "h1_sq", burn_in=burn) for r in (res_b, res_c))
    rel_b, rel_c = (balance_gap(2.0 * model.nu * e.value, tr) for e in (est_b, est_c))
    agree = estimates_agree(est_b, est_c, n_sigma)
    return rel_b < tol and rel_c < tol and agree, {
        "burgers_gap": rel_b, "cubic_gap": rel_c, "agree": agree}


def _confluence(seeds, target_frac, horizon, average_seeds, average_steps, n_sigma):
    basis = ModeBasis(16)
    model = ModelSpec(0.05, FluxSpec("burgers"), NoiseSpec(c=0.2, q=3.0))
    u0, v0 = mode_field(basis, 1, 1.0), mode_field(basis, 1, -1.0)
    target = target_frac * l1_distance(u0, v0)
    reached, passages = 0, [0.0]
    for seed in range(seeds):
        rep = confluence_experiment(u0, v0, model, SolverConfig(dt=1e-3), seed=seed,
                                    epsilons=[target], horizon=horizon)
        reached += int(rep.reached_target)
        passages.append(rep.first_passage[target])
    worst = float(np.max(passages))  # nan, not dropped, for a pair that never met
    a1, a2 = (ergodic_average(run_single(model, SolverConfig(dt=2e-3), w, seed=s,
                                         n_steps=average_steps), "l2_sq",
                              default_burn_in(model.nu))
              for w, s in zip((u0, v0), average_seeds))
    return reached == seeds and math.isfinite(worst) and estimates_agree(a1, a2, n_sigma), {
        "reached": reached, "worst_passage": worst,
        "gap_se": abs(a1.value - a2.value) / math.hypot(a1.stderr, a2.stderr)}


def _mild_vs_stepper(dt, n_fine, seed, u0_seed, min_ratio):
    """The mild fixed point and the stepper at dt and dt / 2 on one fine
    Brownian grid: their sup-t H1 gap must halve with dt.  A fixed point
    that did not converge, or a stepper run that tripped, has no gap over
    the whole horizon: it reads nan and fails."""
    basis = ModeBasis(16)
    model = ModelSpec(0.05, FluxSpec("burgers"), NoiseSpec(c=0.3, q=3.0))
    u0 = InitialSpec("random", seed=u0_seed).build(basis)
    w = convolution_grid(NoisePath(model.noise, basis, seed), model.nu, dt / 2, n_fine)
    gaps, converged, tripped = [], True, False
    for ddt, stride in ((dt, 2), (dt / 2, 1)):
        cfg = SolverConfig(dt=ddt)
        fixed = picard_solve(u0, model, cfg, w[::stride])
        traj, trip = run_on_increments(model, cfg, u0,
                                       increments_from_grid(w, model.nu, basis, ddt, stride))
        converged, tripped = converged and fixed.converged, tripped or trip is not None
        gaps.append(sup_h1(traj - fixed.coeffs, basis) if fixed.converged and trip is None
                    else math.nan)
    ratio = gaps[0] / gaps[1]
    return converged and not tripped and ratio >= min_ratio, {
        "gap_coarse": gaps[0], "gap_fine": gaps[1], "ratio": ratio, "converged": converged,
        "tripped": tripped}


def _moment_stability(balance_run, tol):
    _, res = balance_run
    changes = {}
    for p in (2, 4, 6):
        col = res.records.column(f"lp{p}_p")
        half = float(np.mean(col[: len(col) // 2 + 1]))
        changes[f"change_p{p}"] = abs(float(np.mean(col)) - half) / half
    return all(v < tol for v in changes.values()), changes


def _entry_time(seeds, n_steps, radius_factor):
    basis = ModeBasis(8)
    model = ModelSpec(0.1, FluxSpec("burgers"), NoiseSpec(c=0.5, q=3.0))
    u0, v0 = mode_field(basis, 1, 2.0), mode_field(basis, 1, -2.0)
    radius = radius_factor * trace_h2(model.noise, basis).l2 / model.nu
    taus = np.array([dissipation_entry_time(
        run_coupled(model, SolverConfig(dt=1e-3), u0, v0, seed=seed, n_steps=n_steps),
        radius) for seed in range(seeds)])
    mean_tau, finite = float(np.mean(taus)), bool(np.all(np.isfinite(taus)))
    bound = entry_time_bound(u0, v0, model, radius)
    return finite and mean_tau <= bound, {"mean_tau": mean_tau, "bound": bound,
                                          "all_finite": finite}


class Shared(NamedTuple):
    """A long run that more than one check reads: the parameter that holds
    it is passed to the check as build(*args), built once per runner."""
    build: Callable
    args: tuple = ()


class Full(NamedTuple):
    criterion: int  # its number in tests/test_acceptance.py
    budget: float  # wall-clock seconds
    params: dict


class Check(NamedTuple):
    name: str
    claim: str
    measure: Callable  # (runner, **params) -> (passed, numbers)
    detail: str  # formatted from the parameters and the numbers
    desk: dict | None = None
    full: Full | None = None

    def params(self, size):
        """The parameters at `size`, "desk" or "full", or None."""
        return self.desk if size == "desk" else self.full and self.full.params


_OU_DESK_RUN = Shared(_ou_run, (100_000,))  # read by ou_variance and energy_balance
_BALANCE_RUN = Shared(_balance_run)  # read by criteria 4 and 7

CHECKS = (
    Check("heat_decay", "linear heat decay exact per mode", _heat_decay,
          "max relative mode error {rel_error:.3e} (tol {tol:g})",
          dict(m=16, nu=0.02, dt=5e-3, n_steps=200, seed=3, tol=1e-12),
          Full(1, 1.0, dict(m=64, nu=1.0, dt=1e-5, n_steps=1000, seed=1, tol=1e-12))),
    Check("ou_variance", "stationary OU variance", _ou_variance,
          "estimate {estimate:.8g} vs 1/(8 pi^2) = {target:.8g}, gap {gap_se:.2f} standard "
          "errors (tol {n_sigma:g}), relative gap {rel_gap:.2e} (tol {rel_tol:g})",
          dict(ou_run=_OU_DESK_RUN, n_sigma=5.0, rel_tol=0.05),
          Full(2, 30.0, dict(ou_run=Shared(_ou_run, (10**6,)), n_sigma=3.0, rel_tol=math.inf))),
    Check("l1_contraction", "pathwise L1 contraction", _l1_contraction,
          "worst step increase beyond {slack:g} relative slack {worst:.3e} over {pairs} "
          "seed pair(s) (zero violations required)",
          dict(m=16, c=0.3, dt=1e-3, n_steps=2000, pairs=1, u0=InitialSpec("mode"),
               v0=InitialSpec("mode", amplitude=-1.0), slack=1e-8),
          Full(3, 60.0, dict(m=32, c=0.2, dt=5e-4, n_steps=2000, pairs=10, slack=1e-8,
                             u0=InitialSpec("random", seed=100),
                             v0=InitialSpec("random", seed=200)))),
    Check("stationary_balance", "2 nu <H1 energy> equals the noise trace", _stationary_balance,
          "burgers gap {burgers_gap:.4f}, cubic gap {cubic_gap:.4f} (tol {tol:g}), flux "
          "independence within {n_sigma:g} combined standard errors: {agree}",
          full=Full(4, 300.0, dict(balance_run=_BALANCE_RUN, cubic_seed=4, tol=0.05,
                                   n_sigma=3.0))),
    Check("confluence", "same-noise confluence and unique averages", _confluence,
          "{reached}/{seeds} pairs below {target_frac:g} of the initial distance, worst passage "
          "t = {worst_passage:.2f} (horizon {horizon:g}), l2_sq averages gap {gap_se:.2f} "
          "combined standard errors (tol {n_sigma:g})",
          full=Full(5, 600.0, dict(seeds=20, target_frac=1e-3, horizon=10.0, n_sigma=3.0,
                                   average_seeds=(1001, 1002), average_steps=150_000))),
    Check("mild_vs_stepper", "mild fixed point vs stepper, first order in dt", _mild_vs_stepper,
          "sup-t H1 gaps {gap_coarse:.3e} / {gap_fine:.3e}, ratio {ratio:.3f} (tol >= "
          "{min_ratio:g}), both fixed points converged: {converged}",
          full=Full(6, 60.0, dict(dt=2e-3, n_fine=200, seed=5, u0_seed=7, min_ratio=1.8))),
    Check("moment_stability", "Lp moment averages stable when the horizon doubles",
          _moment_stability, "relative change p=2: {change_p2:.4f}, p=4: {change_p4:.4f}, "
          "p=6: {change_p6:.4f} (tol {tol:g})",
          full=Full(7, 600.0, dict(balance_run=_BALANCE_RUN, tol=0.05))),
    Check("entry_time", "mean entry time into the dissipation region", _entry_time,
          "mean tau {mean_tau:.3f} over {seeds} seeds vs drift bound {bound:.1f}, "
          "all finite: {all_finite}",
          full=Full(8, 300.0, dict(seeds=50, n_steps=3000, radius_factor=4.0))),
    Check("energy_balance", "2 nu <H1 energy> equals the noise trace of the OU mode",
          _energy_balance, "2 nu <h1_sq> = {two_nu_h1:.6g} vs trace {trace:.6g} ({rel_gap:.2%})",
          dict(ou_run=_OU_DESK_RUN, tol=0.05)),
)


class Runner:
    """Runs checks at one size, "desk" or "full", and builds each Shared run
    that the rows at that size read once, dropping it after the last row
    that reads it: one runner per `svcl validate` call, or per acceptance
    module."""

    def __init__(self, size, rows=CHECKS):
        self.size = size
        self._readers = Counter(v for c in rows for v in (c.params(size) or {}).values()
                                if isinstance(v, Shared))
        self._runs = {}  # Shared -> (run, build seconds)
        self.builds = Counter()  # Shared -> number of builds

    def run(self, check: Check):
        """(passed, numbers, seconds, detail) of `check` at the runner's
        size; the full size passes only within its budget.  seconds is the
        check's wall time plus the build time of each shared run it reads,
        whichever check built it, so it covers all its work."""
        params = check.params(self.size)
        shared = {k: v for k, v in params.items() if isinstance(v, Shared)}
        for v in shared.values():
            if v not in self._runs:
                start = time.perf_counter()
                self._runs[v] = v.build(*v.args), time.perf_counter() - start
                self.builds[v] += 1
        seconds = sum(self._runs[v][1] for v in shared.values())
        start = time.perf_counter()
        passed, numbers = check.measure(**{**params, **{k: self._runs[v][0]
                                                        for k, v in shared.items()}})
        seconds += time.perf_counter() - start
        for v in shared.values():
            self._readers[v] -= 1
            if self._readers[v] <= 0:
                del self._runs[v]
        if self.size == "full":
            passed = passed and seconds < check.full.budget
        return bool(passed), numbers, seconds, check.detail.format(**params, **numbers)
