"""Time integration: exponential schemes, the mild-form Picard solver,
same-noise coupling, blow-up guards and bitwise-resumable snapshots.

Both schemes treat the heat part by its exact semigroup factor and add the
exact Gaussian increment of the stochastic convolution, so with the flux
switched off a trajectory is exact in distribution (and exact pathwise in
the noiseless case).  The flux enters explicitly:

    exp_euler          u' = E (u + dt N(u)) + xi
    exp_midpoint_flux  u* = H (u + dt/2 N(u));  u' = E u + dt H N(u*) + xi

with E = exp(nu lam dt), H = exp(nu lam dt/2) acting mode-wise and
xi ~ N(0, sigma_m^2 (1 - E_m^2) / (-2 nu lam_m)) drawn once per step from
the counter-keyed path, so coupled trajectories can share realizations.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import flux, observables, spectral
from .flux import FluxSpec, dealias_points
from .noise import NoisePath, NoiseSpec, trace_h2
from .spectral import ModeBasis, SpectralField, Workspace, pair_weights, synthesize

SCHEMES = ("exp_euler", "exp_midpoint_flux")


@dataclass
class ModelSpec:
    """The equation du = -dx A(u) dt + nu uxx dt + dW."""

    nu: float
    flux: FluxSpec
    noise: NoiseSpec

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError("viscosity nu must be positive")


@dataclass
class SolverConfig:
    dt: float
    scheme: str = "exp_euler"
    guard_radius: float | None = None  # halt when ||u||_H1^2 reaches this
    picard_tol: float = 1e-10
    picard_max_iter: int = 64

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        if self.guard_radius is not None and self.guard_radius <= 0:
            raise ValueError("guard radius must be positive")


@dataclass
class State:
    u: SpectralField
    t: float = 0.0
    step: int = 0


@dataclass
class GuardTrip:
    t: float
    h1_sq: float
    reason: str = "guard"


class BlowupError(RuntimeError):
    """Integration halted: guard radius reached or the flux overflowed."""

    def __init__(self, t, h1_sq, reason):
        super().__init__(f"blow-up ({reason}) at t = {t:.6g}, ||u||_H1^2 = {h1_sq:.6g}")
        self.t = t
        self.h1_sq = h1_sq
        self.reason = reason


class Stepper:
    """Precomputed per-(model, cfg, basis) plan for the hot step loop.

    The nonlinear term runs on one plan per block shape, (m,) for a single
    state and (2, m) for a coupled pair, built by the first step on that
    shape: a Workspace for the transforms, the reversed (sin, cos) pair
    view of its coefficients that the -d/dx multiply reads, and a buffer
    for the flux values on the padded grid.  Only temporaries inside a
    step live there: every state `advance` returns is a fresh array.
    """

    def __init__(self, model: ModelSpec, cfg: SolverConfig, basis: ModeBasis):
        self.model = model
        self.cfg = cfg
        self.basis = basis
        lam = basis.eigenvalues
        self.neg_lam = -lam
        self.lam_sq = lam * lam
        self.n_fine = observables.DEFAULT_FINE_FACTOR * basis.m_max
        self.decay = np.exp(model.nu * lam * cfg.dt)
        self.half_decay = np.exp(model.nu * lam * 0.5 * cfg.dt)
        self.dt = cfg.dt
        self._half_dt = 0.5 * cfg.dt
        self._dt_half_decay = cfg.dt * self.half_decay
        self._zero_flux = model.flux.kind == "zero"
        self._n_pad = dealias_points(model.flux, basis)
        self.neg_dx = pair_weights(-basis.wavenumbers)  # rotate_pairs weights of -d/dx
        self._midpoint = cfg.scheme == "exp_midpoint_flux"
        self._plans = {}  # block shape -> (Workspace, reversed pairs, flux buffer)

    def _plan(self, shape: tuple):
        work = Workspace(shape, self._n_pad)
        plan = self._plans[shape] = (work, work.coeff_pairs[..., ::-1],
                                     np.empty(work.samples.shape))
        return plan

    def nonlin(self, c: np.ndarray) -> np.ndarray:
        """N(u) = -dx A(u) on raw coefficients, one state (m,) or a block
        (..., m), into a fresh array: the one nonlinear kernel.

        Pads c to the dealiasing grid, applies A pointwise, projects back
        (the mean of A(u) is annihilated by the derivative, so it is
        dropped) and differentiates exactly in coefficient space, the
        `rotate_pairs` multiply by `neg_dx`, bit for bit.
        """
        if self._zero_flux:
            return np.zeros_like(c)
        work, pairs, buf = self._plans.get(c.shape) or self._plan(c.shape)
        values = flux.flux_value(self.model.flux, spectral.synthesize(c, self._n_pad, work),
                                 out=buf)
        spectral.analyze(values, self.basis.m_max, work)
        return np.multiply(pairs, self.neg_dx).reshape(c.shape)

    def advance(self, c: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """One scheme update of c, a state (m,) or a block (R, m) of states
        driven by the same increment xi; each row of a block comes out
        bitwise equal to advancing it alone.

        The updates run in place on the fresh nonlinear term, operand by
        operand as decay * (c + dt N(c)) + xi and
        decay * c + (dt half_decay) N(u*) + xi evaluate, so the bits match.
        """
        if self._zero_flux:
            return self.decay * c + xi
        out = self.nonlin(c)
        if not self._midpoint:
            out *= self.dt
            out += c
            out *= self.decay
            out += xi
            return out
        out *= self._half_dt
        out += c
        out *= self.half_decay
        out = self.nonlin(out)
        out *= self._dt_half_decay
        out += self.decay * c
        out += xi
        return out

    def h1_sq(self, c: np.ndarray) -> float:
        return float(np.dot(self.neg_lam, c * c))


def _find_trip(stepper: Stepper, c, out, t):
    """The blow-up contract of the step from c (at time t) to out, row by
    row: the first row in order that fails trips.  A row whose output is
    not finite trips as "flux_overflow" at t with its pre-step H1 mass,
    then a row reaching the guard radius trips as "guard" at t + dt.
    Returns the trip or None.

    The flux never raises, so this is the one blow-up check.  `_drive`
    calls it only with a guard set or when one dot, the output's sum of
    squares, is not finite; an output with no non-finite entry whose
    squares passed the float range walks its rows and goes on.
    """
    r = stepper.cfg.guard_radius
    for row, new in zip(np.atleast_2d(c), np.atleast_2d(out)):
        if not np.isfinite(new).all():
            return GuardTrip(t, stepper.h1_sq(row), "flux_overflow")
        if r is not None:
            h1 = stepper.h1_sq(new)
            if h1 >= r:
                return GuardTrip(t + stepper.dt, h1)
    return None


# --- run drivers ----------------------------------------------------------


@dataclass
class RunResult:
    records: observables.RecordBuffer
    state: State
    seed: int
    trip: GuardTrip | None = None
    coeff_history: np.ndarray | None = field(default=None, repr=False)

    @property
    def tripped(self) -> bool:
        return self.trip is not None


# fine-grid samples one record flush synthesizes: bounds the flush's
# temporaries (a few of this many float64s) whatever m_max is
_RECORD_BLOCK_POINTS = 1 << 15

# run_coupled's stop test: each coefficient of a difference d is a
# fine-grid mean of d times a basis function bounded by sqrt(2), so its L1
# distance is at least max|d_m| / sqrt(2), and a step with max|d_m| at or
# above _STOP_GATE * stop cannot stop; the 1e-6 margin is orders of
# magnitude above the transform's rounding
_STOP_GATE = np.sqrt(2.0) * (1.0 + 1e-6)


def _record_rows(bufs, stepper: Stepper, times, states):
    """Append one record row per kept state: states[k], kept at times[k], is
    a state (m,) or a block (R, m) whose row r goes to bufs[r].

    Each column is reduced over all kept states at once, one batched
    synthesize for the Lp columns and row-wise vecdot for the norms; every
    value equals the one reduced from its state alone, bit for bit (unlike
    a matrix-vector product or einsum, which sum in another order).
    """
    n, n_bufs = len(times), len(bufs)
    c = states[:n].reshape(n * n_bufs, -1)
    cc = c * c
    cols = [np.vecdot(c, c), np.vecdot(cc, stepper.neg_lam), np.vecdot(cc, stepper.lam_sq)]
    if bufs[0].lp_orders:
        vals = np.abs(synthesize(c, stepper.n_fine))
        cols += [np.mean(vals**p, axis=-1) for p in bufs[0].lp_orders]
    cols = [col.reshape(n, n_bufs) for col in cols]
    r = stepper.cfg.guard_radius
    for i, buf in enumerate(bufs):
        l2, h1, h2, *lp = (col[:, i] for col in cols)
        buf.append(times, l2, h1, h2, lp, guard_margin=np.nan if r is None else r - h1)


@np.errstate(over="ignore", invalid="ignore")  # rows whose norms overflowed
def _fill_residual_column(buf, model, basis, window, history=None):
    """Windowed balance residual over the trailing `window` records.

    The window is aligned to the absolute record stream: `history` carries
    (t, l2_sq, h1_sq) rows that precede this buffer (a resumed segment seeds
    it from the tail of the existing CSV), and each window sum runs over the
    same rows in the same order an uninterrupted run would use, so resumed
    rows come out bitwise identical.
    """
    cols = [buf.column(k) for k in ("t", "l2_sq", "h1_sq")]
    off = 0
    if history is not None:
        off = len(history[0])
        cols = [np.concatenate([np.asarray(h, dtype=float), c])
                for h, c in zip(history, cols)]
    buf.set_column("energy_residual", observables.balance_residuals(
        *cols, window, model.nu, trace_h2(model.noise, basis).l2, first=off))


# a blow-up is found from the step output, so the kernels may meet inf and
# nan on the way there without a warning
@np.errstate(over="ignore", invalid="ignore")
def _drive(stepper: Stepper, c, draw, n_steps, bufs=(), record_every=1, t=0.0,
           step0=0, keep_coeffs=False, on_step=None, snapshot_every=0,
           snapshot_writer=None):
    """The one step loop: advance c, a state (m,) or a same-noise block
    (R, m), by up to n_steps increments draw(), from time t and step step0.

    Row r goes to bufs[r] on a fresh start and at every record_every-th
    step; recorded states are kept in a block that is reduced to record
    rows when it fills and when the run ends.  on_step(step, t, c) runs
    after each step and stops the run by returning True.  Returns
    (c, t, step, trip, history); history holds c at step0 and after each
    step when keep_coeffs is set, else None.
    """
    hist = np.empty((n_steps + 1, *c.shape)) if keep_coeffs else None
    if keep_coeffs:
        hist[0] = c
    times = []
    if bufs:
        rows = max(1, _RECORD_BLOCK_POINTS // (len(bufs) * stepper.n_fine))
        kept = np.empty((rows, *c.shape))
        if step0 == 0:
            kept[0] = c
            times.append(t)
    dt, advance, guarded = stepper.dt, stepper.advance, stepper.cfg.guard_radius is not None
    trip = None
    step = step0
    for n in range(step0, step0 + n_steps):
        out = advance(c, draw())
        # on a trip every row keeps its state from before the step, so each
        # row's state matches the step count and time the run reports
        if guarded or not math.isfinite(np.vdot(out, out)):
            trip = _find_trip(stepper, c, out, t)
            if trip is not None:
                break
        c = out
        t += dt
        step = n + 1
        if keep_coeffs:
            hist[step - step0] = c
        if bufs and step % record_every == 0:
            if len(times) == rows:
                _record_rows(bufs, stepper, times, kept)
                times = []
            kept[len(times)] = c
            times.append(t)
        if snapshot_every and snapshot_writer and step % snapshot_every == 0:
            snapshot_writer(State(SpectralField(c, stepper.basis), t, step))
        if on_step is not None and on_step(step, t, c):
            break
    if times:
        _record_rows(bufs, stepper, times, kept)
    if keep_coeffs and trip is not None:
        hist = hist[: step - step0 + 1]
    return c, t, step, trip, hist


def run_single(
    model: ModelSpec,
    cfg: SolverConfig,
    u0: SpectralField,
    seed: int,
    n_steps: int,
    record_every: int = 1,
    lp_orders=(),
    residual_window: int = 64,
    residual_history=None,
    t0: float = 0.0,
    step0: int = 0,
    keep_coeffs: bool = False,
    snapshot_every: int = 0,
    snapshot_writer=None,
) -> RunResult:
    """Drive one trajectory for n_steps, recording at the given cadence.

    Resuming: pass the snapshot's (u0, t0, step0); draw indices are keyed by
    the global step counter, so the continuation is bitwise identical to the
    uninterrupted run.  The initial record row is only written for a fresh
    start, which keeps resumed CSV output concatenable; residual_history
    carries the (t, l2_sq, h1_sq) tail of the rows already on disk so the
    windowed residual column also continues bitwise.
    """
    basis = u0.basis
    stepper = Stepper(model, cfg, basis)
    path = NoisePath(model.noise, basis, seed)
    path.draw_index = step0
    buf = observables.RecordBuffer(lp_orders, capacity=n_steps // max(record_every, 1) + 4)
    c, t, step, trip, hist = _drive(
        stepper, u0.coeffs.copy(), partial(path.ou_increment, model.nu, cfg.dt),
        n_steps, (buf,), record_every, t0, step0, keep_coeffs,
        snapshot_every=snapshot_every, snapshot_writer=snapshot_writer)
    _fill_residual_column(buf, model, basis, residual_window, residual_history)
    return RunResult(records=buf, state=State(SpectralField(c, basis), t, step),
                     seed=seed, trip=trip, coeff_history=hist)


@dataclass
class CoupledRunResult:
    records_a: observables.RecordBuffer
    records_b: observables.RecordBuffer
    state_a: State
    state_b: State
    seed: int
    times: np.ndarray
    l1_series: np.ndarray  # per step, not per record
    h1_sq_a: np.ndarray
    h1_sq_b: np.ndarray
    trip: GuardTrip | None = None

    @property
    def tripped(self) -> bool:
        return self.trip is not None


def run_coupled(
    model: ModelSpec,
    cfg: SolverConfig,
    u0: SpectralField,
    v0: SpectralField,
    seed: int,
    n_steps: int,
    record_every: int = 1,
    lp_orders=(),
    residual_window: int = 64,
    stop_l1_below: float | None = None,
) -> CoupledRunResult:
    """Drive two trajectories under one realization of the forcing.

    The pair is stepped as one (2, m) block by the shared driver.  The L1
    distance and both H1 masses are series over every step (the contraction
    property is a per-step statement), while full records keep the
    configured cadence.  Each step's pair is kept in a block that is
    reduced to the series when it fills and when the run ends, one batched
    synthesize and row-wise vecdot per block, bit for bit the values of one
    step at a time.  Stops at the first step whose distance is below
    stop_l1_below, if given: a step whose largest coefficient difference
    rules that out (see _STOP_GATE) skips the test, and only the others
    compute their own distance first.
    """
    if stop_l1_below is not None and not stop_l1_below > 0:
        raise ValueError("stop_l1_below must be positive")
    basis = u0.basis
    stepper = Stepper(model, cfg, basis)
    path = NoisePath(model.noise, basis, seed)
    cap = n_steps // max(record_every, 1) + 4
    bufs = (observables.RecordBuffer(lp_orders, capacity=cap),
            observables.RecordBuffer(lp_orders, capacity=cap))
    times = np.empty(n_steps + 1)
    l1 = np.empty(n_steps + 1)
    h1 = np.empty((2, n_steps + 1))
    n_fine, neg_lam = stepper.n_fine, stepper.neg_lam
    kept = np.empty((max(1, _RECORD_BLOCK_POINTS // n_fine), 2, basis.m_max))
    gate = None if stop_l1_below is None else _STOP_GATE * stop_l1_below
    done = 0  # steps whose series entries are filled

    def reduce(k):
        """Fill the series at steps done..k-1 from their kept pairs."""
        nonlocal done
        pairs = kept[: k - done]
        l1[done:k] = observables.l1_norms(pairs[:, 0] - pairs[:, 1], n_fine)
        h1[:, done:k] = np.vecdot(pairs * pairs, neg_lam).T
        done = k

    def track(k, t, c):
        if k - done == len(kept):
            reduce(k)
        kept[k - done] = c
        times[k] = t
        if gate is None:
            return False
        d = c[0] - c[1]
        return np.abs(d).max() < gate and observables.l1_norms(d, n_fine) < stop_l1_below

    c = np.stack([u0.coeffs, v0.coeffs])
    track(0, 0.0, c)
    c, t, k, trip, _ = _drive(stepper, c, partial(path.ou_increment, model.nu, cfg.dt),
                              n_steps, bufs, record_every, on_step=track)
    with np.errstate(over="ignore", invalid="ignore"):  # as in _drive
        reduce(k + 1)
    for buf in bufs:
        buf.set_column("l1_dist", l1[: k + 1 : record_every])
        _fill_residual_column(buf, model, basis, residual_window)
    states = [State(SpectralField(row, basis), t, k) for row in c]
    return CoupledRunResult(*bufs, *states, seed=seed, times=times[: k + 1],
                            l1_series=l1[: k + 1], h1_sq_a=h1[0, : k + 1],
                            h1_sq_b=h1[1, : k + 1], trip=trip)


# --- fixed-realization refinement helpers ---------------------------------


def convolution_grid(path: NoisePath, nu: float, dt: float, n: int) -> np.ndarray:
    """w(t_i) on the step grid, i = 0..n, from w(t_0) = 0 and a fork of the path.

    The exact transition w' = exp(nu lam dt) w + xi for diagonal noise; for
    a dense covariance the Euler-Maruyama step w' = w + nu lam w dt + dW,
    with the path's own increments.
    """
    p = path.fork()
    lam = p.basis.eigenvalues
    w = np.zeros((n + 1, p.basis.m_max))
    if p.spec.diagonal:
        decay = np.exp(nu * lam * dt)
        for i in range(n):
            w[i + 1] = decay * w[i] + p.ou_increment(nu, dt)
    else:
        for i in range(n):
            w[i + 1] = w[i] + nu * lam * w[i] * dt + p.ou_increment(nu, dt)
    return w


def increments_from_grid(w: np.ndarray, nu: float, basis: ModeBasis,
                         dt_coarse: float, stride: int) -> np.ndarray:
    """Coarse-step noise increments xi_i = w[(i+1)s] - E w[is] from a fine grid.

    This is how two discretizations share one Brownian path: the fine grid
    is generated once and every coarser level consumes exact functionals of
    it, so refinement studies measure pure time-discretization error.
    """
    decay = np.exp(nu * basis.eigenvalues * dt_coarse)
    end = (len(w) - 1) // stride * stride
    return w[stride : end + 1 : stride] - decay * w[:end:stride]


def run_on_increments(model: ModelSpec, cfg: SolverConfig, u0: SpectralField,
                      xis: np.ndarray) -> np.ndarray:
    """Trajectory driven by precomputed noise increments; returns (n+1, M).

    Raises BlowupError on a guard trip or a flux overflow.
    """
    _, _, _, trip, hist = _drive(Stepper(model, cfg, u0.basis), u0.coeffs.copy(),
                                 iter(xis).__next__, len(xis), keep_coeffs=True)
    if trip is not None:
        raise BlowupError(trip.t, trip.h1_sq, trip.reason)
    return hist


# --- mild-form fixed point -------------------------------------------------


@dataclass
class PicardResult:
    times: np.ndarray
    coeffs: np.ndarray  # (n+1, m_max) trajectory of the fixed point
    converged: bool
    iterations: int
    gap: float  # last sup-t H1 update distance
    gaps: np.ndarray  # sup-t H1 update distance per iteration
    horizon: float  # horizon actually used after halving
    halvings: int


@np.errstate(over="ignore", invalid="ignore")  # an overflow fails the attempt
def picard_solve(
    u0: SpectralField,
    model: ModelSpec,
    cfg: SolverConfig,
    horizon: float,
    path: NoisePath,
    w_grid: np.ndarray | None = None,
) -> PicardResult:
    """Fixed point of v -> S u0 - int S dx A(v) + w on the step grid.

    The convolution grid is taken from a fork of `path`, so the fixed point
    and an exponential-Euler run from the same seed see the same
    realization.  The time integral uses the integrating-factor trapezoid
    rule; when the map fails to contract the horizon is halved (up to 8
    times) and the attempt repeated, with failure reported in `converged`
    rather than raised.  An attempt whose flux overflows fails after 0
    iterations with gap inf; if the last one does, `coeffs` holds u0 at
    every time.
    """
    basis = u0.basis
    dt = cfg.dt
    n = max(2, int(round(horizon / dt)))
    if w_grid is None:
        w_grid = convolution_grid(path, model.nu, dt, n)
    stepper = Stepper(model, cfg, basis)
    neg_lam = -basis.eigenvalues
    decay = np.exp(model.nu * basis.eigenvalues * dt)

    def attempt(n_grid):
        w = w_grid[: n_grid + 1]
        # S_{t_i} u0 by repeated exact decay
        su0 = np.empty((n_grid + 1, basis.m_max))
        su0[0] = u0.coeffs
        for i in range(n_grid):
            su0[i + 1] = decay * su0[i]
        v = su0 + w
        v[0] = u0.coeffs
        gaps = []
        for it in range(1, cfg.picard_max_iter + 1):
            # F_i = dx A(v_i) = -N(v_i); recursion I_i = E I_{i-1} + dt/2 (E F_{i-1} + F_i)
            f_prev = -stepper.nonlin(v[0])
            integral = np.zeros(basis.m_max)
            new = np.empty_like(v)
            new[0] = u0.coeffs
            for i in range(1, n_grid + 1):
                f_i = -stepper.nonlin(v[i])
                integral = decay * integral + 0.5 * dt * (decay * f_prev + f_i)
                new[i] = su0[i] - integral + w[i]
                f_prev = f_i
            if not np.isfinite(integral).all():
                return None, False, 0, [np.inf]  # the flux overflowed
            gap = float(
                np.sqrt(np.max(np.sum(neg_lam * (new - v) ** 2, axis=1)))
            )
            gaps.append(gap)
            v = new
            if gap < cfg.picard_tol:
                return v, True, it, gaps
            if it > 2 and gap > 4.0 * gaps[-2]:
                return v, False, it, gaps  # clearly expanding: horizon too long
        return v, False, cfg.picard_max_iter, gaps

    halvings = 0
    while True:
        v, ok, iters, gaps = attempt(n)
        if ok or halvings >= 8 or n // 2 < 2:
            break
        n //= 2
        halvings += 1
    times = dt * np.arange(n + 1)
    if v is None:
        v = np.tile(u0.coeffs, (n + 1, 1))
    return PicardResult(
        times=times,
        coeffs=v,
        converged=ok,
        iterations=iters,
        gap=gaps[-1],
        gaps=np.asarray(gaps),
        horizon=n * dt,
        halvings=halvings,
    )


# --- snapshots --------------------------------------------------------------

SNAPSHOT_MAGIC = b"SVC1"
SNAPSHOT_VERSION = 1
_HEADER_FMT = "<4sIIddIQQ"  # magic, version, m_max, t, nu, scheme, seed, step


@dataclass
class Snapshot:
    m_max: int
    t: float
    nu: float
    scheme: str
    seed: int
    step: int
    coeffs: np.ndarray


def write_snapshot(fp, state: State, model: ModelSpec, cfg: SolverConfig, seed: int):
    """Binary state dump: pinned header plus little-endian float64 coefficients."""
    fp.write(
        struct.pack(
            _HEADER_FMT,
            SNAPSHOT_MAGIC,
            SNAPSHOT_VERSION,
            state.u.basis.m_max,
            state.t,
            model.nu,
            SCHEMES.index(cfg.scheme),
            int(seed) & (2**64 - 1),
            state.step,
        )
    )
    fp.write(state.u.coeffs.astype("<f8").tobytes())


def read_snapshot(fp) -> Snapshot:
    size = struct.calcsize(_HEADER_FMT)
    raw = fp.read(size)
    if len(raw) != size:
        raise ValueError("snapshot truncated: header incomplete")
    magic, version, m_max, t, nu, scheme_code, seed, step_n = struct.unpack(
        _HEADER_FMT, raw
    )
    if magic != SNAPSHOT_MAGIC:
        raise ValueError("not a snapshot file (bad magic)")
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported snapshot version {version}")
    if scheme_code >= len(SCHEMES):
        raise ValueError(f"unknown scheme code {scheme_code}")
    # what the file holds, never a read sized by the header's m_max
    raw = fp.read()
    if len(raw) < 8 * m_max:
        raise ValueError("snapshot truncated: coefficient block incomplete")
    coeffs = np.frombuffer(raw, dtype="<f8", count=m_max).astype(float)
    return Snapshot(
        m_max=m_max,
        t=t,
        nu=nu,
        scheme=SCHEMES[scheme_code],
        seed=seed,
        step=step_n,
        coeffs=coeffs,
    )
