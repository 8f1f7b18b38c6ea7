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
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import flux, observables, spectral
from .flux import FluxSpec, dealias_points
from .noise import NoisePath, NoiseSpec, trace_h2
from .spectral import ModeBasis, SpectralField, Workspace

SCHEMES = ("exp_euler", "exp_midpoint_flux")


@dataclass
class ModelSpec:
    """The equation du = -dx A(u) dt + nu uxx dt + dW."""

    nu: float
    flux: FluxSpec
    noise: NoiseSpec

    def __post_init__(self):
        if not 0 < self.nu < math.inf:
            raise ValueError("viscosity nu must be positive and finite")


@dataclass
class SolverConfig:
    dt: float
    scheme: str = "exp_euler"
    guard_radius: float | None = None  # halt when ||u||_H1^2 reaches this

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        # inf is a guard that trips once the H1 mass overflows; nan would never trip
        if self.guard_radius is not None and not self.guard_radius > 0:
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


class Stepper:
    """Precomputed per-(model, cfg, basis) plan for the hot step loop.

    The step runs on one bound kernel per block shape, (m,) for a single
    state and (2, m) for a coupled pair, built by the first call on that
    shape: the nonlinear term and the scheme update, closures over a
    Workspace for the transforms, a buffer for the flux values on the
    padded grid, the wavenumbers at the block shape and the
    three traced kernels `spectral.synthesize`, `spectral.analyze` and
    `flux.flux_value`, all looked up once, when the kernel is built.  Only
    temporaries inside a step live there: `advance` writes the new state
    into the caller's `out`, or else into a fresh array.
    """

    def __init__(self, model: ModelSpec, cfg: SolverConfig, basis: ModeBasis):
        self.model = model
        self.cfg = cfg
        self.basis = basis
        self.decay = basis.heat_decay(model.nu, cfg.dt)
        self.half_decay = basis.heat_decay(model.nu, 0.5 * cfg.dt)
        self.dt = cfg.dt
        self._kernels = {}  # block shape -> (nonlinear term, scheme update)

    def _kernel(self, shape: tuple):
        """Build the bound (nonlinear term, scheme update) of one block shape.

        The nonlinear term pads c to the dealiasing grid, applies A
        pointwise, projects back (the mean of A(u) is annihilated by the
        derivative, so it is dropped) and differentiates with one multiply
        of the analysis band, whose (cos, -sin) pairs meet the wavenumbers
        (w, w) of each pair: the products, into `out` (a fresh array when
        it is None) in storage order, are those of `rotate_pairs` by -w,
        bit for bit, since both negations are exact and a multiply passes
        a nan operand through with its own sign.  The updates run in place
        on that nonlinear term, operand by operand as (N(c) dt + c) decay +
        xi and (N(u*) (dt half_decay) + decay c) + xi evaluate, left to
        right; where two nans meet in a sum, the left one's sign survives.
        The midpoint u*, and then decay c, live in one temporary of the
        kernel's, so `out` must not be c.  Every per-mode operand (the
        decays, dt, dt/2, dt half_decay and the wavenumbers) is a
        C-contiguous copy at the block's shape, and the step loop passes xi
        at the state's shape, so no operand of a step broadcasts.  Each
        update is an explicit `np.multiply` or `np.add` call with its output
        positional, so no operand is a Python number that numpy converts on
        every call.
        """
        def tiled(x):
            return np.broadcast_to(x, shape).copy()

        decay, dt, multiply, add = tiled(self.decay), tiled(self.dt), np.multiply, np.add
        if self.model.flux.kind == "zero":
            nonlin = np.zeros_like

            def step(c, xi, out):
                out = multiply(decay, c, out)
                return add(out, xi, out)
        else:
            spec, m = self.model.flux, self.basis.m_max
            n = dealias_points(spec, self.basis)
            work = Workspace(shape, n)
            values = np.empty(work.samples.shape)
            wavenumbers = tiled(self.basis.wavenumbers)
            synthesize, analyze, flux_value = (spectral.synthesize, spectral.analyze,
                                               flux.flux_value)

            def nonlin(c, out=None):
                return multiply(analyze(flux_value(spec, synthesize(c, n, work), values), m,
                                        work), wavenumbers, out)

            if self.cfg.scheme == "exp_euler":
                def step(c, xi, out):
                    out = nonlin(c, out)
                    multiply(out, dt, out)
                    add(out, c, out)
                    multiply(out, decay, out)
                    return add(out, xi, out)
            else:
                half_dt, half_decay = tiled(0.5 * self.dt), tiled(self.half_decay)
                dt_half_decay, tmp = dt * half_decay, np.empty(shape)

                def step(c, xi, out):
                    mid = nonlin(c, tmp)
                    multiply(mid, half_dt, mid)
                    add(mid, c, mid)
                    multiply(mid, half_decay, mid)
                    out = nonlin(mid, out)
                    multiply(out, dt_half_decay, out)
                    add(out, multiply(decay, c, tmp), out)
                    return add(out, xi, out)

        kernel = self._kernels[shape] = (nonlin, step)
        return kernel

    def nonlin(self, c: np.ndarray) -> np.ndarray:
        """N(u) = -dx A(u) on raw coefficients, one state (m,) or a block
        (..., m), into a fresh array: the bound kernel of c's shape."""
        return (self._kernels.get(c.shape) or self._kernel(c.shape))[0](c)

    def advance(self, c: np.ndarray, xi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """One scheme update of c, a state (m,) or a block (R, m) of states
        driven by the increment xi, at c's shape or one (m,) row shared by
        every state, by the bound kernel of c's shape, written into out (an
        array of c's shape that is not c) or else into a fresh array; each
        row of a block comes out bitwise equal to advancing it alone, but for
        the sign of its nans when the row holds a nan, as with `synthesize`.
        The kernel is found by one dict subscript, the hot path's lookup."""
        try:
            kernel = self._kernels[c.shape]
        except KeyError:
            kernel = self._kernel(c.shape)
        return kernel[1](c, xi, out)


# --- run drivers ----------------------------------------------------------


@dataclass
class RunResult:
    records: observables.RecordBuffer
    state: State
    trip: GuardTrip | None = None


# a blow-up is found from the step output, so the kernels may meet inf and
# nan on the way there without a warning
@np.errstate(over="ignore", invalid="ignore")
def _drive(stepper: Stepper, reducer: observables.Reducer, c, draw, n_steps, t, step0, reduce):
    """The one step loop: advance c, a state (m,) or a same-noise block
    (R, m), by up to n_steps increments, from time t and step step0.

    A fresh start (step0 0) reduces its state alone, as reduce(0, [t],
    c[None]), whose return is ignored.  Then each block of
    reducer.block_rows(c) kept rows holds the next min(rows, steps left)
    steps from row 0, and reduce(first, times, states), first the step of
    row 0, consumes them as soon as they are stepped, inside this
    errstate; the rows are reused after it returns.  reduce stops the run
    by returning how many leading rows it keeps: the run ends at the last,
    with no trip, and the block's later steps, a trip among them, go.

    A step does nothing but advance(c, xi, out), written in place into the
    next kept row, so its output never shares memory with its input (hence
    at least two rows); all else is done once per block.  draw(out) fills
    out (k, *c.shape) with the next k steps' increments, each at the
    state's shape, and the times are one np.add.accumulate of
    [t + dt, dt, ...], bitwise repeated t += dt.

    The blow-up test is one dot of the block's new rows with themselves.
    When it is not finite, or a guard is set, the block is scanned as
    (k, R, m), and the first (step, row) in that order that is not finite
    or whose H1 mass reaches the radius trips: as "flux_overflow" at the
    step's start time with the row's H1 mass before the step (for row 0,
    from the block's copy of its start), else as "guard" at the step's
    time with its mass.  The flux never raises, so this is the one blow-up
    contract.  The steps before the trip are reduced, so a stop among them
    still wins, and the steps past it (at most rows - 1) are discarded.
    Returns (c, t, step, trip), c a fresh array.
    """
    rows, radius = reducer.block_rows(c), stepper.cfg.guard_radius
    kept, times = np.empty((rows, *c.shape)), np.empty(rows)
    xis = np.empty((rows, *c.shape))
    # row views made once: a list slice is cheaper than ndarray indexing
    kept_rows, xi_rows = list(kept), list(xis)
    clock = np.full(rows, stepper.dt)
    if step0 == 0:
        kept[0], times[0] = c, t
        reduce(0, times[:1], kept[:1])
    advance, first, left, trip = stepper.advance, step0 + 1, n_steps, None
    while left:
        k = min(rows, left)
        left -= k
        # the state before row 0: a wrapped block overwrites the row c views
        start = c.copy()
        draw(xis[:k])
        for out, xi in zip(kept_rows[:k], xi_rows[:k]):
            advance(c, xi, out)
            c = out
        clock[0] = t + stepper.dt
        np.add.accumulate(clock[:k], out=times[:k])
        new = kept[:k].reshape(-1)
        if not math.isfinite(np.dot(new, new)) or radius is not None:
            block = kept[:k].reshape(k, -1, c.shape[-1])
            bad = ~np.isfinite(block).all(axis=-1)
            h1 = reducer.h1_sq(block)
            fail = bad if radius is None else bad | (h1 >= radius)
            if fail.any():
                i, r = divmod(int(fail.argmax()), fail.shape[1])
                if bad[i, r]:
                    before = (kept[i - 1] if i else start).reshape(-1, c.shape[-1])[r]
                    trip = GuardTrip(float(times[i - 1]) if i else t,
                                     float(reducer.h1_sq(before)), "flux_overflow")
                else:
                    trip = GuardTrip(float(times[i]), float(h1[i, r]))
                k, left, c = i, 0, start
        if k:
            keep = reduce(first, times[:k], kept[:k])
            if keep is not None:
                k, left, trip = keep, 0, None
            c, t = kept[k - 1], float(times[k - 1])
        first += k
    return c.copy(), t, first - 1, trip


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
    on_block=None,
) -> RunResult:
    """Drive one trajectory for n_steps, recording at the given cadence.

    Resuming: pass the snapshot's (u0, t0, step0); draw indices are keyed by
    the global step counter, so the continuation is bitwise identical to the
    uninterrupted run.  The initial record row is only written for a fresh
    start, which keeps resumed CSV output concatenable; residual_history
    carries the (t, l2_sq, h1_sq) tail of the rows already on disk so the
    windowed residual column also continues bitwise.  on_block(first,
    times, states) gets each block `_drive` keeps, after its record rows
    are made; the CLI writes its snapshots there.
    """
    if record_every < 1:
        raise ValueError(f"record_every must be at least 1, not {record_every}")
    basis = u0.basis
    reducer = observables.Reducer(basis)
    path = NoisePath(model.noise, basis, seed)
    path.draw_index = step0
    buf = observables.RecordBuffer(lp_orders, capacity=n_steps // record_every + 4)

    def reduce(first, times, states):
        reducer.record_rows((buf,), cfg.guard_radius, record_every, first, times, states)
        if on_block is not None:
            on_block(first, times, states)

    c, t, step, trip = _drive(Stepper(model, cfg, basis), reducer, u0.coeffs,
                              partial(path.ou_increment, model.nu, cfg.dt), n_steps, t0,
                              step0, reduce)
    del reducer  # its Lp buffers go before the residual fill's
    buf.fill_residuals(residual_window, model.nu, trace_h2(model.noise, basis).l2,
                       residual_history)
    return RunResult(records=buf, state=State(SpectralField(c, basis), t, step),
                     trip=trip)


@dataclass
class CoupledRunResult:
    records_a: observables.RecordBuffer
    records_b: observables.RecordBuffer
    state_a: State
    state_b: State
    times: np.ndarray
    l1_series: np.ndarray  # per step, not per record
    trip: GuardTrip | None = None


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

    The pair is stepped as one (2, m) block by the shared driver, which
    keeps every step's pair; each block of increments is drawn once from
    the path and copied into both rows.  The times and the L1 distance are
    series over every step (the contraction property is a per-step
    statement), while full records keep the configured cadence: each block
    of kept pairs is reduced to its L1 distances, one batched synthesize,
    bit for bit the values of one step at a time, and to the record rows
    among its steps, whose l1_dist those distances fill (`Reducer.record_rows`
    selects them by the cadence of every other column).  The series grow
    a block at a time, so nothing is sized by n_steps.
    Stops at the first step whose distance is below stop_l1_below, if
    given, found in the series of each reduced block (the initial pair is
    reduced alone, and its distance never stops the run); the pair-steps
    of that block past the stop, at most one block of them, are computed
    and discarded.
    """
    if stop_l1_below is not None and not stop_l1_below > 0:
        raise ValueError("stop_l1_below must be positive")
    if record_every < 1:
        raise ValueError(f"record_every must be at least 1, not {record_every}")
    basis = u0.basis
    reducer = observables.Reducer(basis)
    path = NoisePath(model.noise, basis, seed)
    cap = n_steps // record_every + 4
    bufs = (observables.RecordBuffer(lp_orders, capacity=cap),
            observables.RecordBuffer(lp_orders, capacity=cap))
    stop = -math.inf if stop_l1_below is None else stop_l1_below
    times, l1s = [], []  # per reduced block: its times and l1 series

    def reduce(first, ts, pairs):
        """The series at the block's steps up to a stop, and the record rows
        among them; returns the rows kept if the block holds a stop."""
        l1 = reducer.l1_distances(pairs)
        hit = np.flatnonzero(l1 < stop)
        keep = int(hit[0]) + 1 if hit.size else None
        ts, l1 = ts[:keep].copy(), l1[:keep]  # the driver reuses its times
        times.append(ts)
        l1s.append(l1)
        reducer.record_rows(bufs, cfg.guard_radius, record_every, first, ts, pairs[:keep], l1)
        return keep

    def draw(out):
        """The pair's shared increments: one (k, m) block from the path,
        copied into both rows of out (k, 2, m)."""
        shared = path.ou_increment(model.nu, cfg.dt, out=np.empty((len(out), basis.m_max)))
        out[:] = shared[:, None]

    c, t, k, trip = _drive(Stepper(model, cfg, basis), reducer,
                           np.stack([u0.coeffs, v0.coeffs]), draw, n_steps, 0.0, 0, reduce)
    tr = trace_h2(model.noise, basis).l2
    for buf in bufs:
        buf.fill_residuals(residual_window, model.nu, tr, None)
    states = [State(SpectralField(row, basis), t, k) for row in c]
    return CoupledRunResult(*bufs, *states, times=np.concatenate(times),
                            l1_series=np.concatenate(l1s), trip=trip)


# --- fixed-realization refinement helpers ---------------------------------


def _transition(decay: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The exact linear transition y' = decay y + inc down the rows of x, in
    place: row 0 is the start and row i + 1 holds the increment into it."""
    for i in range(len(x) - 1):
        x[i + 1] = decay * x[i] + x[i + 1]
    return x


def convolution_grid(path: NoisePath, nu: float, dt: float, n: int) -> np.ndarray:
    """w(t_i) on the step grid, i = 0..n, from w(t_0) = 0 and the next n
    increments of the path, drawn by one call into w[1:], which advances it
    by n; the transition then adds the decayed w to each."""
    w = np.zeros((n + 1, path.basis.m_max))
    path.ou_increment(nu, dt, out=w[1:])
    return _transition(path.basis.heat_decay(nu, dt), w)


def increments_from_grid(w: np.ndarray, nu: float, basis: ModeBasis,
                         dt_coarse: float, stride: int) -> np.ndarray:
    """Coarse-step noise increments xi_i = w[(i+1)s] - E w[is] from a fine grid.

    This is how two discretizations share one Brownian path: the fine grid
    is generated once and every coarser level consumes exact functionals of
    it, so refinement studies measure pure time-discretization error.
    """
    end = (len(w) - 1) // stride * stride
    return w[stride : end + 1 : stride] - basis.heat_decay(nu, dt_coarse) * w[:end:stride]


def run_on_increments(model: ModelSpec, cfg: SolverConfig, u0: SpectralField,
                      xis: np.ndarray):
    """Trajectory driven by precomputed noise increments: returns the
    (n+1, M) history of u0 and each completed step, and the trip (None
    unless a guard trip or a flux overflow stopped the run after n steps).
    """
    parts, used = [], 0

    def draw(out):
        nonlocal used
        out[:] = xis[used : used + len(out)]
        used += len(out)

    _, _, _, trip = _drive(Stepper(model, cfg, u0.basis), observables.Reducer(u0.basis),
                           u0.coeffs, draw, len(xis), 0.0, 0,
                           lambda _, __, states: parts.append(states.copy()))
    return np.concatenate(parts), trip


# --- mild-form fixed point -------------------------------------------------

PICARD_TOL = 1e-12  # sup-t H1 update distance that ends the iteration
PICARD_MAX_ITER = 64


@dataclass
class PicardResult:
    coeffs: np.ndarray  # (n+1, m_max) trajectory of the fixed point
    converged: bool
    iterations: int
    gaps: np.ndarray  # sup-t H1 update distance per iteration


@np.errstate(over="ignore", invalid="ignore")  # an overflow fails the solve
def picard_solve(u0: SpectralField, model: ModelSpec, cfg: SolverConfig,
                 w: np.ndarray) -> PicardResult:
    """Fixed point of v -> S u0 - int S dx A(v) + w on the step grid of w,
    the (n+1, m_max) convolution grid at step cfg.dt: `convolution_grid`,
    or a stride of a finer one, so the fixed point and a stepper fed the
    grid's increments see the same realization.

    The time integral uses the integrating-factor trapezoid rule.  Each
    iteration evaluates F = dx A(v) = -N(v) on the whole trajectory by one
    `Stepper.nonlin` call, and the integral I_i = E I_{i-1} + dt/2 (E F_{i-1}
    + F_i) by the exact transition.  A map that fails to contract is
    reported in `converged` rather than raised; a flux that overflows fails
    after 0 iterations with gaps [inf], and `coeffs` holds u0 at every time.
    """
    stepper = Stepper(model, cfg, u0.basis)
    decay, half_dt = stepper.decay, 0.5 * cfg.dt
    # S_{t_i} u0 by repeated exact decay
    su0 = np.multiply.accumulate(np.vstack([u0.coeffs, np.tile(decay, (len(w) - 1, 1))]))
    v = su0 + w
    v[0] = u0.coeffs
    gaps = []
    for it in range(1, PICARD_MAX_ITER + 1):
        f = -stepper.nonlin(v)
        integral = np.zeros_like(v)
        integral[1:] = half_dt * (decay * f[:-1] + f[1:])
        _transition(decay, integral)
        if not np.isfinite(integral[-1]).all():  # the flux overflowed
            return PicardResult(np.tile(u0.coeffs, (len(w), 1)), False, 0, np.array([np.inf]))
        new = su0 - integral + w
        new[0] = u0.coeffs
        gaps.append(observables.sup_h1(new - v, u0.basis))
        v = new
        if gaps[-1] < PICARD_TOL:
            return PicardResult(v, True, it, np.asarray(gaps))
        if it > 2 and gaps[-1] > 4.0 * gaps[-2]:
            break  # clearly expanding
    return PicardResult(v, False, it, np.asarray(gaps))


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


def write_snapshot(fp, coeffs: np.ndarray, t: float, step: int, model: ModelSpec,
                   cfg: SolverConfig, seed: int):
    """Binary dump of the raw record `read_snapshot` returns, a state coeffs (m,)
    at time t and step `step`: pinned header plus little-endian float64 coefficients."""
    fp.write(struct.pack(_HEADER_FMT, SNAPSHOT_MAGIC, SNAPSHOT_VERSION, len(coeffs), t,
                         model.nu, SCHEMES.index(cfg.scheme), int(seed) & (2**64 - 1), step))
    fp.write(coeffs.astype("<f8").tobytes())


def read_snapshot(fp) -> Snapshot:
    """The raw record of a file that is a header and its m_max coefficients
    exactly, m_max a mode count a `ModeBasis` can hold."""
    size = struct.calcsize(_HEADER_FMT)
    raw = fp.read(size)
    if len(raw) != size:
        raise ValueError("snapshot truncated: header incomplete")
    magic, version, m_max, t, nu, scheme_code, seed, step_n = struct.unpack(_HEADER_FMT, raw)
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
    if len(raw) > 8 * m_max:
        raise ValueError(f"snapshot holds {len(raw) - 8 * m_max} bytes past its "
                         f"{m_max} coefficients")
    if m_max < 2 or m_max % 2:
        raise ValueError(f"snapshot m_max {m_max} is not an even mode count of at least 2")
    coeffs = np.frombuffer(raw, dtype="<f8").astype(float)
    return Snapshot(m_max, t, nu, SCHEMES[scheme_code], seed, step_n, coeffs)
