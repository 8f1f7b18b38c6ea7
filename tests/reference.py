"""A plain per-step, per-row model of the drivers' contract.

Each function here is written the slow, obvious way and shares no code with
the blocked path it models: the transforms go through np.fft, the
derivative through `rotate_pairs`, the flux through polyval, the
dealiasing grid and the heat and OU factors are computed here from their
formulas, and each draw comes from a freshly keyed Philox generator.
`run` steps a state or a same-noise pair one step at a time, checks each
row of each step for blow-up, records the rows at the cadence one state at
a time and fills the balance residuals one row at a time.  The tests hold
every driver to it bit for bit.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from svcl.spectral import ModeBasis

FINE = 8  # the record quadrature grid per retained mode


def rotate_pairs(c, w):
    """d/dx on raw coefficients (last axis) with per-mode wavenumbers w,
    into a fresh array: each (sin, cos) pair (s, k) maps to (-w k, w s), one
    multiply of the swapped pair by the pair weights (-w_cos, w_sin).
    Wavenumbers -w give -d/dx bit for bit, since IEEE negation is exact."""
    out, k = np.empty(c.shape), c.shape[-1] // 2

    def pairs(x):
        return x.reshape(*x.shape[:-1], k, 2)

    np.multiply(pairs(c)[..., ::-1], np.stack([-w[1::2], w[0::2]], axis=-1), out=pairs(out))
    return out


def pack(c, n):
    """The rfft bins of coefficient vectors (last axis) on an n-point grid:
    the (sin, cos) pair (s, k) of wavenumber p sits in bin p as
    (n/sqrt(2)) (k - i s), and every other bin is zero."""
    k, scale = c.shape[-1] // 2, n / np.sqrt(2.0)
    bins = np.zeros((*c.shape[:-1], n // 2 + 1), dtype=complex)
    bins.real[..., 1 : k + 1] = c[..., 1::2] * scale
    bins.imag[..., 1 : k + 1] = c[..., 0::2] * -scale
    return bins


def synthesize(c, n):
    """Samples of coefficient vectors (last axis) on j/n: np.fft.irfft of
    their bins."""
    return np.fft.irfft(pack(c, n), n)


def analyze(samples, m):
    """The first m coefficients of samples (last axis) in storage order,
    (sin, cos) pairs, the mean dropped: np.fft.rfft's band times sqrt(2)/n,
    its imaginary parts negated by the multiply."""
    n, k = samples.shape[-1], m // 2
    bins, scale = np.fft.rfft(samples)[..., 1 : k + 1], np.sqrt(2.0) / n
    out = np.empty((*samples.shape[:-1], m))
    out[..., 0::2] = bins.imag * -scale
    out[..., 1::2] = bins.real * scale
    return out


def band(samples, m):
    """A workspace's analysis band: the coefficients as (cos, -sin) pairs,
    the sine negated by a multiply, which keeps a nan's sign."""
    c, out = analyze(samples, m), np.empty((*samples.shape[:-1], m))
    out[..., 0::2] = c[..., 1::2]
    np.multiply(c[..., 0::2], -1.0, out=out[..., 1::2])
    return out


def from_band(band):
    """Storage-order coefficients, (sin, cos) pairs, from an analysis band
    of (cos, -sin) pairs: the band times the signs [1, -1], a multiply,
    since np.negative would flip the sign bit of a nan, then swapped."""
    m = band.shape[-1]
    swap = np.arange(m).reshape(m // 2, 2)[:, ::-1].ravel()
    return np.multiply(band, np.tile([1.0, -1.0], m // 2)).take(swap, axis=-1)


def grid(spec, m):
    """The dealiasing grid: past (degree + 1) K points, K = m/2 pairs, at
    least 3K + 2, and even."""
    k = m // 2
    n = max((spec.degree + 1) * k + 2, 3 * k + 2)
    return n + n % 2


def flux(spec, v):
    """A(v): Burgers' 0.5 v v, else polyval of the coefficients."""
    if spec.kind == "burgers":
        return 0.5 * v * v
    return np.polynomial.polynomial.polyval(v, spec.coefficients)


def nonlin(spec, c, basis):
    """N(c) = -dx A(c): pad, apply A, project and rotate by -w."""
    if spec.kind == "zero":
        return np.zeros_like(c)
    m = basis.m_max
    return rotate_pairs(analyze(flux(spec, synthesize(c, grid(spec, m))), m), -basis.wavenumbers)


def advance(model, cfg, basis, c, xi):
    """One scheme update of c, a state or a block of rows sharing xi, as
    one expression per scheme with the operands in the stepper's order:
    where two nans meet in a sum, the left one's sign survives."""
    lam, dt = basis.eigenvalues, cfg.dt
    decay = np.exp(model.nu * lam * dt)
    if model.flux.kind == "zero":
        return decay * c + xi

    def n(x):
        return nonlin(model.flux, x, basis)

    if cfg.scheme == "exp_euler":
        return (n(c) * dt + c) * decay + xi
    half = np.exp(model.nu * lam * (0.5 * dt))
    pred = (n(c) * (0.5 * dt) + c) * half
    return n(pred) * (dt * half) + decay * c + xi


def increment(noise, basis, nu, dt, seed, index):
    """The fresh noise of draw index `index`: the standard normal block of
    Philox(key=seed, counter=[0, index, 0, 0]) times the OU std
    sqrt(sigma^2 (1 - exp(2 nu lam dt)) / (-2 nu lam))."""
    lam = basis.eigenvalues
    var = noise.resolve(basis) ** 2 * (1.0 - np.exp(2.0 * nu * lam * dt)) / (-2.0 * nu * lam)
    key, counter = int(seed) % 2**64, np.array([0, index, 0, 0], dtype=np.uint64)
    draws = np.random.Generator(np.random.Philox(key=key, counter=counter))
    return draws.standard_normal(basis.m_max) * np.sqrt(var)


@np.errstate(over="ignore", invalid="ignore")
def h1_sq(basis, c):
    """The H1 mass of one state, summed by np.dot."""
    return float(np.dot(-basis.eigenvalues, c * c))


def l1(basis, pair):
    """The L1 distance of a pair (2, m) on the record grid."""
    return float(np.mean(np.abs(synthesize(pair[0] - pair[1], FINE * basis.m_max))))


def record_row(basis, t, c, lp_orders, radius, l1_dist=np.nan):
    """One record row of a state c at time t, every column but the
    residual (nan here): t, l2, h1, h2, each lp{p}_p, l1_dist, the
    residual and the guard margin."""
    lam, cc = basis.eigenvalues, c * c
    h1 = np.dot(-lam, cc)
    vals = np.abs(synthesize(c, FINE * basis.m_max))
    return [t, np.dot(c, c), h1, np.dot(lam * lam, cc), *(np.mean(vals**p) for p in lp_orders),
            l1_dist, np.nan, np.nan if radius is None else radius - h1]


@np.errstate(all="ignore")
def residuals(t, l2, h1, window, nu, trace):
    """The balance residual of each row over its trailing window, rows k =
    max(0, i - window) to i: (l2[i] - l2[k]) / span + 2 nu (trapezoid of
    h1) / span - trace.  Row 0, and a row whose filling window spans no
    time, is nan, and every nan is np.nan."""
    t, l2, h1 = (np.asarray(x, dtype=float) for x in (t, l2, h1))
    seg = 0.5 * (h1[1:] + h1[:-1]) * np.diff(t)
    res = np.full(len(t), np.nan)
    for i in range(1, len(t)):
        k = max(0, i - window)
        span = t[i] - t[k]
        if i >= window or span > 0:
            res[i] = (l2[i] - l2[k]) / span + 2.0 * nu * np.sum(seg[k:i]) / span - trace
    res[np.isnan(res)] = np.nan
    return res


class Run(NamedTuple):
    states: list  # the start and each completed step's state
    times: list
    step0: int
    trip: tuple | None  # (t, h1_sq, reason)
    l1: list | None  # a pair's distance at each state
    records: list  # one table per row, columns in RecordBuffer order

    @property
    def step(self):
        return self.step0 + len(self.states) - 1


def blow_up(basis, c, new, t, dt, radius):
    """The first row of a step from c at time t to new that blows up: a
    row that is not finite trips as "flux_overflow" at t with its H1 mass
    before the step, then a row at the guard radius as "guard" at t + dt
    with its mass after it."""
    for row, out in zip(np.atleast_2d(c), np.atleast_2d(new)):
        if not np.isfinite(out).all():
            return t, h1_sq(basis, row), "flux_overflow"
        if radius is not None and h1_sq(basis, out) >= radius:
            return t + dt, h1_sq(basis, out), "guard"
    return None


@np.errstate(all="ignore")
def run(model, cfg, u0, seed, n_steps, every=1, lp_orders=(), window=64, stop=None, t0=0.0,
        step0=0, xis=None, poison=None) -> Run:
    """The drivers' contract one step at a time, from u0, a state (m,) or a
    same-noise pair (2, m), at time t0 and step step0.

    n_steps must be at least 0, every at least 1 and stop, if given,
    positive; each is refused by ValueError before any step.  Step k + 1
    adds the increment of draw index step0 + k, or xis[k] when xis is
    given, to every row; poison (step, row) makes that row of that step's
    output nan.  A step that blows up (`blow_up`) ends the run before it.  A
    pair's L1 distance is taken at every state; the first step, never the
    start, whose distance is below stop ends the run after it.  Each state
    of a step that is a multiple of every is a record row, but a resumed
    run's (step0 > 0) start; a pair's rows carry its distance.
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must be at least 0, not {n_steps}")
    if every < 1:
        raise ValueError(f"record_every must be at least 1, not {every}")
    if stop is not None and not stop > 0:
        raise ValueError("stop_l1_below must be positive")
    c = np.array(u0, dtype=float)
    basis, pair = ModeBasis(c.shape[-1]), c.ndim == 2
    t, trip, states, times = t0, None, [c], [t0]
    dists = [l1(basis, c)] if pair else None
    for k in range(n_steps):
        xi = (increment(model.noise, basis, model.nu, cfg.dt, seed, step0 + k) if xis is None
              else xis[k])
        new = advance(model, cfg, basis, c, xi)
        if poison is not None and poison[0] == step0 + k + 1:
            np.atleast_2d(new)[poison[1]] = np.nan
        trip = blow_up(basis, c, new, t, cfg.dt, cfg.guard_radius)
        if trip is not None:
            break
        c, t = new, t + cfg.dt
        states.append(c)
        times.append(t)
        if pair:
            dists.append(l1(basis, c))
            if stop is not None and dists[-1] < stop:
                break
    kept = [i for i in range(len(states)) if (step0 + i) % every == 0 and (i > 0 or step0 == 0)]
    trace = float(np.sum(model.noise.resolve(basis) ** 2))
    records = []
    for r in range(2 if pair else 1):
        rows = [record_row(basis, times[i], np.atleast_2d(states[i])[r], lp_orders,
                           cfg.guard_radius, dists[i] if pair else np.nan) for i in kept]
        table = np.array(rows, dtype=float).reshape(len(kept), 7 + len(lp_orders))
        table[:, -2] = residuals(table[:, 0], table[:, 1], table[:, 2], window, model.nu, trace)
        records.append(table)
    return Run(states, times, step0, trip, dists, records)


def table(buf):
    """A RecordBuffer's columns, in order, as one (rows, columns) array."""
    return np.column_stack([buf.column(k) for k in buf.column_names()])


def trip_bits(trip):
    """A GuardTrip or a reference trip as comparable bits."""
    if trip is not None and not isinstance(trip, tuple):
        trip = trip.t, trip.h1_sq, trip.reason
    return trip and (trip[0], np.float64(trip[1]).tobytes(), trip[2])


def assert_matches(ref: Run, res, tables=None):
    """A run_single or run_coupled result equals the reference run bit for
    bit: its end, trip, series and record columns, or in place of its
    records the given tables."""
    assert trip_bits(res.trip) == trip_bits(ref.trip)
    pair = hasattr(res, "state_b")
    ends = (res.state_a, res.state_b) if pair else (res.state,)
    tables = tables or [table(b) for b in ((res.records_a, res.records_b) if pair
                                           else (res.records,))]
    for r, (end, got) in enumerate(zip(ends, tables)):
        assert type(end.step) is int and (end.step, end.t) == (ref.step, ref.times[-1])
        assert end.u.coeffs.tobytes() == np.atleast_2d(ref.states[-1])[r].tobytes()
        assert got.tobytes() == ref.records[r].tobytes(), r
    if pair:
        assert res.times.tobytes() == np.array(ref.times).tobytes()
        assert res.l1_series.tobytes() == np.array(ref.l1).tobytes()
