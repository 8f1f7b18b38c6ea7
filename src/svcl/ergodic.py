"""Long-run statistics: ergodic averages with batch-means errors, tightness
and dissipation-entry diagnostics, and the same-noise coupling experiment.

Expectations under the invariant law are approximated by time averages over a
single long trajectory (uniqueness of the limit justifies this; it is echoed
as an assumption in experiment metadata).  Standard errors come from batch
means: the post-burn-in stretch is cut into equal contiguous batches and the
spread of batch averages estimates the error of the grand average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .integrator import CoupledRunResult, ModelSpec, SolverConfig, run_coupled
from .noise import trace_h2
from .observables import Reducer
from .spectral import SpectralField

MIN_BATCHES = 8
DEFAULT_BATCHES = 16


def default_burn_in(nu: float) -> float:
    """Ten relaxation times of the slowest linear mode, 10/(nu (2 pi)^2)."""
    return 10.0 / (nu * (2.0 * math.pi) ** 2)


@dataclass
class ErgodicEstimate:
    value: float  # time average after burn-in
    stderr: float  # batch-means standard error
    n_batches: int


def ergodic_average(run, observable: str, burn_in: float,
                    n_batches: int = DEFAULT_BATCHES) -> ErgodicEstimate:
    """Time average of a run's record column with a batch-means standard
    error.  Records are assumed equally spaced in time, so the time average
    is the plain mean over retained rows.
    """
    if n_batches < MIN_BATCHES:
        raise ValueError(f"need at least {MIN_BATCHES} batches for the error bar")
    t = run.records.column("t")
    series = run.records.column(observable)
    keep = t >= t[0] + burn_in
    if np.count_nonzero(keep) < 2 * n_batches:
        raise ValueError(
            f"insufficient samples: {np.count_nonzero(keep)} rows after burn-in, "
            f"need at least {2 * n_batches}")
    series = series[keep]
    n_use = len(series) - len(series) % n_batches
    series = series[-n_use:]
    batches = series.reshape(n_batches, -1).mean(axis=1)
    value = float(series.mean())
    stderr = float(batches.std(ddof=1) / math.sqrt(n_batches))
    return ErgodicEstimate(value=value, stderr=stderr, n_batches=n_batches)


def balance_gap(two_nu_h1: float, trace: float) -> float:
    """The stationary balance gap |2 nu <h1_sq> - trace| / trace; nan for a zero trace."""
    return abs(two_nu_h1 - trace) / trace if trace else math.nan


def estimates_agree(a: ErgodicEstimate, b: ErgodicEstimate,
                    n_sigma: float = 3.0) -> bool:
    """Whether two averages agree within n_sigma combined standard errors."""
    return abs(a.value - b.value) <= n_sigma * math.hypot(a.stderr, b.stderr)


@dataclass
class TightnessRow:
    epsilon: float
    threshold: float  # 1/epsilon
    fraction: float  # fraction of records with h1_sq > threshold
    bound: float  # (eps/2nu)(||u0||^2/T + L2 trace)
    satisfied: bool  # fraction <= bound (vacuously when bound >= 1)


def tightness_diagnostic(run, model: ModelSpec, epsilons,
                         u0: SpectralField) -> list[TightnessRow]:
    """Occupation fractions of {||u||_H1^2 > 1/eps} against the Markov bound.

    The bound uses the L2 noise trace: integrating the p=2 balance gives
    E int_0^T ||u||_H1^2 <= (||u0||^2 + trace * T)/(2 nu), and Markov turns
    that into a time-fraction bound.  Rows with bound >= 1 are vacuous and
    reported as such, never failed.
    """
    t = run.records.column("t")
    h1 = run.records.column("h1_sq")
    if len(t) < 2:
        raise ValueError("need at least two records")
    span = float(t[-1] - t[0])
    basis = u0.basis
    tr = trace_h2(model.noise, basis).l2
    u0_sq = float(Reducer.l2_sq(u0.coeffs))
    rows = []
    for eps in np.atleast_1d(np.asarray(epsilons, dtype=float)):
        threshold = 1.0 / eps
        fraction = float(np.mean(h1 > threshold))
        bound = (eps / (2.0 * model.nu)) * (u0_sq / span + tr)
        rows.append(TightnessRow(
            epsilon=float(eps),
            threshold=threshold,
            fraction=fraction,
            bound=float(bound),
            satisfied=bool(fraction <= bound),
        ))
    return rows


@dataclass
class CouplingReport:
    times: np.ndarray = field(repr=False)
    l1_series: np.ndarray = field(repr=False)
    first_passage: dict  # epsilon -> first time l1 < epsilon (nan if never)
    reached_target: bool  # went below min(epsilons) inside the horizon
    monotone: bool  # non-increasing within 1e-8 of the current value
    trip_time: float  # nan unless a guard/overflow trip ended the run


def coupling_passage(times, l1, epsilons) -> tuple[dict, bool, bool]:
    """First passages, monotonicity and reached target of an L1 distance series.

    Returns ({epsilon: first time l1 < epsilon, nan if never}, keyed from
    the largest epsilon down; whether the series never rises by more than
    1e-8 of its current value in one step; whether it ends below the
    smallest epsilon).
    """
    eps = np.sort(np.atleast_1d(np.asarray(epsilons, dtype=float)))[::-1]
    first = {}
    for e in eps:
        hit = np.nonzero(l1 < e)[0]
        first[float(e)] = float(times[hit[0]]) if hit.size else float("nan")
    monotone = bool(np.all(np.diff(l1) <= 1e-8 * l1[:-1]))
    return first, monotone, bool(l1[-1] < eps[-1])


def confluence_experiment(u0: SpectralField, v0: SpectralField, model: ModelSpec,
                          cfg: SolverConfig, seed: int, epsilons,
                          horizon: float) -> CouplingReport:
    """Drive the same-noise pair until the L1 distance falls below every
    epsilon or the horizon is exhausted; report first-passage times."""
    eps = np.sort(np.atleast_1d(np.asarray(epsilons, dtype=float)))[::-1]
    if eps.size == 0 or eps[-1] <= 0:
        raise ValueError("epsilons must be positive")
    n_steps = max(1, int(round(horizon / cfg.dt)))
    res = run_coupled(model, cfg, u0, v0, seed, n_steps,
                      record_every=max(1, n_steps),  # full records not needed
                      stop_l1_below=float(eps[-1]))
    first, monotone, reached = coupling_passage(res.times, res.l1_series, eps)
    return CouplingReport(
        times=res.times,
        l1_series=res.l1_series,
        first_passage=first,
        reached_target=reached,
        monotone=monotone,
        trip_time=res.trip.t if res.trip is not None else float("nan"),
    )


def dissipation_entry_time(run: CoupledRunResult, R: float) -> float:
    """First record time with ||u||_H1^2 + ||v||_H1^2 <= R along a coupled
    run, from the h1_sq columns of its records, so it resolves at the record
    cadence (nan if no record is inside the dissipation region)."""
    if R <= 0:
        raise ValueError("entry radius must be positive")
    total = run.records_a.column("h1_sq") + run.records_b.column("h1_sq")
    hit = np.nonzero(total <= R)[0]
    return float(run.records_a.column("t")[hit[0]]) if hit.size else float("nan")


def entry_time_bound(u0: SpectralField, v0: SpectralField, model: ModelSpec,
                     R: float) -> float:
    """E[tau_R] <= (||u0||^2 + ||v0||^2) / (2 (nu R - L2 trace)), the trace
    on the fields' basis.

    Valid once nu R exceeds the L2 noise trace; below that the expected-entry
    argument has no margin and the bound is undefined.
    """
    tr = trace_h2(model.noise, u0.basis).l2
    margin = model.nu * R - tr
    if margin <= 0:
        raise ValueError("need nu * R above the L2 noise trace for a finite bound")
    num = float(Reducer.l2_sq(u0.coeffs) + Reducer.l2_sq(v0.coeffs))
    return num / (2.0 * margin)
