"""Integrator: scheme exactness, convergence orders, guards, coupling,
the Picard cross-check, and snapshot/resume determinism."""

import io
import math
import warnings
from functools import partial
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from svcl import integrator, observables
from svcl.flux import FluxSpec, _constant, _horner, dealias_points, flux_value
from svcl.integrator import (
    SCHEMES,
    ModelSpec,
    SolverConfig,
    Stepper,
    convolution_grid,
    increments_from_grid,
    picard_solve,
    read_snapshot,
    run_coupled,
    run_on_increments,
    run_single,
    write_snapshot,
)
from svcl.noise import NoisePath, NoiseSpec, trace_h2
from svcl.observables import DEFAULT_FINE_FACTOR, RecordBuffer, Reducer, sup_h1
from svcl.spectral import (ModeBasis, SpectralField, analyze, mode_field, rotate_pairs,
                           synthesize)

FOUR_PI_SQ = 39.47841760435743


def random_field(basis, seed, decay=1.5, amp=1.0):
    rng = np.random.default_rng(seed)
    c = amp * rng.standard_normal(basis.m_max) / basis.pair_index.astype(float) ** decay
    return SpectralField(c, basis)


def h1_norm(basis, coeffs):
    return np.sqrt(np.sum(-basis.eigenvalues * coeffs**2, axis=-1))


def h1_sq(basis, c):
    """The H1 mass of one state, summed by np.dot."""
    return float(np.dot(-basis.eigenvalues, c * c))


def silent_model(nu=0.1, m=16):
    return ModelSpec(nu, FluxSpec("zero"), NoiseSpec(sigma=np.zeros(m)))


class TestValidation:
    def test_model_requires_positive_viscosity(self):
        with pytest.raises(ValueError, match="nu"):
            ModelSpec(0.0, FluxSpec("zero"), NoiseSpec(sigma=np.zeros(4)))

    NON_FINITE = {
        "nu_nan": lambda: ModelSpec(math.nan, FluxSpec("zero"), NoiseSpec(sigma=np.zeros(4))),
        "nu_inf": lambda: ModelSpec(math.inf, FluxSpec("zero"), NoiseSpec(sigma=np.zeros(4))),
        "dt_nan": lambda: SolverConfig(dt=math.nan),
        "dt_inf": lambda: SolverConfig(dt=math.inf),
        "guard_nan": lambda: SolverConfig(dt=1e-3, guard_radius=math.nan),
        "c_nan": lambda: NoiseSpec(c=math.nan, q=3.0),
        "c_inf": lambda: NoiseSpec(c=math.inf, q=3.0),
        "q_nan": lambda: NoiseSpec(c=0.5, q=math.nan),
        "q_inf": lambda: NoiseSpec(c=0.5, q=math.inf),
        "sigma_nan": lambda: NoiseSpec(sigma=[1.0, math.nan]),
        "sigma_inf": lambda: NoiseSpec(sigma=[math.inf, 0.0]),
        "flux_nan": lambda: FluxSpec("polynomial", coefficients=[0.0, math.nan]),
        "flux_inf": lambda: FluxSpec("polynomial", coefficients=[math.inf]),
        "flux_minus_inf": lambda: FluxSpec("polynomial", coefficients=[0.0, 0.5, -math.inf]),
    }

    @pytest.mark.parametrize("spec", sorted(NON_FINITE))
    def test_specs_refuse_nan_and_inf(self, spec):
        # the config layer refuses these values before any spec is built;
        # the library specs refuse them too, rather than run on them
        with pytest.raises(ValueError):
            self.NON_FINITE[spec]()

    @pytest.mark.parametrize("every", [0, -2])
    @pytest.mark.parametrize("coupled", [False, True])
    def test_drivers_refuse_record_every_below_1_before_a_step(self, coupled, every):
        basis = ModeBasis(8)
        model, u0 = silent_model(m=8), mode_field(basis, 1, 1.0)
        with patch.object(Stepper, "advance", side_effect=AssertionError("stepped")):
            with pytest.raises(ValueError, match="record_every"):
                if coupled:
                    run_coupled(model, SolverConfig(dt=0.01), u0, mode_field(basis, 1, -1.0),
                                seed=0, n_steps=10, record_every=every)
                else:
                    run_single(model, SolverConfig(dt=0.01), u0, seed=0, n_steps=10,
                               record_every=every)

    def test_solver_config_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="dt"):
            SolverConfig(dt=0.0)
        with pytest.raises(ValueError, match="scheme"):
            SolverConfig(dt=0.1, scheme="leapfrog")
        with pytest.raises(ValueError, match="guard"):
            SolverConfig(dt=0.1, guard_radius=-1.0)


class TestSchemes:
    @pytest.mark.parametrize("scheme", ["exp_euler", "exp_midpoint_flux"])
    def test_linear_exactness(self, scheme):
        # A = 0, sigma = 0: the update is the exact heat semigroup.
        basis = ModeBasis(16)
        model = silent_model(nu=0.02)  # keeps the fastest mode in normal range
        cfg = SolverConfig(dt=0.005, scheme=scheme)
        u0 = random_field(basis, 1)
        res = run_single(model, cfg, u0, seed=0, n_steps=200, record_every=200)
        exact = np.exp(0.02 * basis.eigenvalues * (200 * 0.005)) * u0.coeffs
        rel = np.abs(res.state.u.coeffs - exact) / np.abs(exact)
        assert np.max(rel) < 1e-13

    def test_ou_chain_matches_direct_recursion_bitwise(self):
        # A = 0 with noise: each step must be exactly decay * c + xi with the
        # path's own increments, no hidden reordering.
        basis = ModeBasis(8)
        spec = NoiseSpec(c=0.5, q=3.0)
        model = ModelSpec(0.2, FluxSpec("zero"), spec)
        cfg = SolverConfig(dt=0.01)
        u0 = random_field(basis, 2)
        res = run_single(model, cfg, u0, seed=77, n_steps=500, record_every=500)
        path = NoisePath(spec, basis, 77)
        decay = np.exp(model.nu * basis.eigenvalues * cfg.dt)
        c = u0.coeffs.copy()
        for _ in range(500):
            xi = path.ou_increment(model.nu, cfg.dt)
            c = decay * c + xi
        assert np.array_equal(res.state.u.coeffs, c)

    def test_step_matches_run_single(self):
        basis = ModeBasis(8)
        model = ModelSpec(0.1, FluxSpec("burgers"), NoiseSpec(c=0.3, q=3.0))
        cfg = SolverConfig(dt=0.01)
        u0 = random_field(basis, 3)
        xi = NoisePath(model.noise, basis, 5).ou_increment(model.nu, cfg.dt)
        c = Stepper(model, cfg, basis).advance(u0.coeffs, xi)
        res = run_single(model, cfg, u0, seed=5, n_steps=1)
        assert np.array_equal(c, res.state.u.coeffs)
        assert res.state.t == cfg.dt and res.state.step == 1

    def test_mean_stays_zero(self):
        # No constant mode exists; physical samples stay mean-zero to rounding.
        basis = ModeBasis(16)
        model = ModelSpec(0.05, FluxSpec("burgers"), NoiseSpec(c=0.5, q=3.0))
        res = run_single(model, SolverConfig(dt=1e-3), random_field(basis, 4),
                         seed=8, n_steps=400, record_every=400)
        samples = synthesize(res.state.u.coeffs, 128)
        assert abs(np.mean(samples)) < 1e-14

    @pytest.mark.parametrize("scheme,min_ratio", [("exp_euler", 1.7),
                                                  ("exp_midpoint_flux", 3.4)])
    def test_deterministic_self_convergence(self, scheme, min_ratio):
        # Noiseless burgers against an 8x-refined reference: halving dt must
        # shrink the terminal H1 error by the scheme's order.
        basis = ModeBasis(16)
        model = ModelSpec(0.05, FluxSpec("burgers"), NoiseSpec(sigma=np.zeros(16)))
        u0 = random_field(basis, 7)
        T = 0.5
        ref = run_single(model, SolverConfig(dt=T / 3200, scheme=scheme), u0,
                         seed=0, n_steps=3200, record_every=3200).state.u.coeffs
        errs = []
        for n in (200, 400, 800):
            out = run_single(model, SolverConfig(dt=T / n, scheme=scheme), u0,
                             seed=0, n_steps=n, record_every=n).state.u.coeffs
            errs.append(h1_norm(basis, out - ref))
        assert errs[0] / errs[1] > min_ratio
        assert errs[1] / errs[2] > min_ratio

    def test_strong_self_convergence_fixed_path(self):
        # One Brownian realization on a fine grid; both coarse levels consume
        # exact functionals of it, so the measured error is pure dt error.
        basis = ModeBasis(16)
        model = ModelSpec(0.05, FluxSpec("burgers"), NoiseSpec(c=0.3, q=3.0))
        u0 = random_field(basis, 7)
        dt, n = 1e-3, 400
        for seed in (3, 4):
            w = convolution_grid(NoisePath(model.noise, basis, seed),
                                 model.nu, dt / 4, 4 * n)
            ref, _ = run_on_increments(
                model, SolverConfig(dt=dt / 4), u0,
                increments_from_grid(w, model.nu, basis, dt / 4, 1))
            errs = []
            for stride, ddt in ((4, dt), (2, dt / 2)):
                xis = increments_from_grid(w, model.nu, basis, ddt, stride)
                traj, _ = run_on_increments(model, SolverConfig(dt=ddt), u0, xis)
                errs.append(np.max(h1_norm(basis, traj - ref[::stride])))
            assert errs[0] / errs[1] > 1.7  # order >= 1 strong

    def test_run_on_increments_matches_run_single(self):
        basis = ModeBasis(8)
        model = ModelSpec(0.1, FluxSpec("burgers"), NoiseSpec(c=0.4, q=3.0))
        cfg = SolverConfig(dt=0.005)
        u0 = random_field(basis, 9)
        states = []
        run_single(model, cfg, u0, seed=21, n_steps=100,
                   on_block=lambda first, times, block: states.extend(block.copy()))
        w = convolution_grid(NoisePath(model.noise, basis, 21), model.nu, cfg.dt, 100)
        traj, trip = run_on_increments(model, cfg, u0,
                                       increments_from_grid(w, model.nu, basis, cfg.dt, 1))
        assert trip is None
        np.testing.assert_allclose(traj, np.array(states), atol=1e-13)


def trip_reference(stepper, c, out, t):
    """The blow-up contract of one step from c (at time t) to out, a state
    or a block, checked row by row as a per-step loop would: the first row
    in order that fails trips.  A row whose output is not finite trips as
    "flux_overflow" at t with its H1 mass before the step, then a row
    reaching the guard radius trips as "guard" at t + dt, each mass the
    Reducer's of that row alone.  Returns the trip or None."""
    reducer, radius = Reducer(stepper.basis), stepper.cfg.guard_radius
    for row, new in zip(np.atleast_2d(c), np.atleast_2d(out)):
        if not np.isfinite(new).all():
            return integrator.GuardTrip(t, float(reducer.h1_sq(row)), "flux_overflow")
        if radius is not None:
            h1 = float(reducer.h1_sq(new))
            if h1 >= radius:
                return integrator.GuardTrip(t + stepper.dt, h1)
    return None


def _trip_bits(trip):
    """A trip as comparable bits: a nan H1 mass equals itself."""
    return trip and (trip.t, np.float64(trip.h1_sq).tobytes(), trip.reason)


class TestBlock:
    FLUXES = {"burgers": FluxSpec("burgers"), "zero": FluxSpec("zero"),
              "cubic": FluxSpec("polynomial", coefficients=[0.0, 0.5, -0.2, 1.0 / 3.0])}

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), rows=st.integers(1, 4), m=st.sampled_from([2, 8, 16, 32, 256]),
           flux=st.sampled_from(sorted(FLUXES)), scheme=st.sampled_from(SCHEMES))
    @np.errstate(over="ignore", invalid="ignore")
    def test_block_equals_rows_bitwise(self, data, rows, m, flux, scheme):
        # one call on an (R, m) block of same-noise states must give each
        # row's own 1-D result bit for bit, as must the transforms under it,
        # and the block must equal the np.fft reference; rows scaled by
        # 1e160 overflow any nonzero flux, a few entries are signed zeros,
        # subnormals, infinities or nan, and the block's trip must be the
        # first one found by stepping each row alone, with no guard or a
        # guard at the H1 mass of one row's step
        block = data.draw(arrays(float, (rows, m), elements=st.floats(-2.0, 2.0)))
        block *= data.draw(arrays(float, (rows, 1), elements=st.sampled_from([1e160, 1.0])))
        block = with_edges(data, block)
        xi = data.draw(arrays(float, m, elements=st.floats(-0.1, 0.1)))
        basis = ModeBasis(m)
        model = ModelSpec(0.1, self.FLUXES[flux], NoiseSpec(sigma=np.zeros(m)))
        stepper = Stepper(model, SolverConfig(dt=1e-3, scheme=scheme), basis)
        out = stepper.advance(block, xi)
        assert out.tobytes() == _ref_advance(stepper, block, xi).tobytes()
        # written into a caller's block, whatever it held: the same bits
        into = np.full(block.shape, data.draw(st.sampled_from([np.nan, -0.0, 1e300])))
        assert stepper.advance(block, xi, into) is into
        assert into.tobytes() == out.tobytes()
        n = dealias_points(model.flux, basis)
        samples = synthesize(block, n)
        coeffs = analyze(samples, m)
        assert out.shape == block.shape and coeffs.shape == block.shape

        def bits(x):
            # pocketfft's batched transforms can give a row that holds a nan
            # nans of the other sign than its own call does: with a nan
            # drawn, nans compare as nan and every other value bit for bit
            return (np.where(np.isnan(x), np.nan, x) if np.isnan(block).any() else x).tobytes()

        for i, row in enumerate(block):
            assert bits(stepper.advance(row, xi)) == bits(out[i])
            assert bits(synthesize(row, n)) == bits(samples[i])
            assert bits(analyze(samples[i], m)) == bits(coeffs[i])
        finite = [i for i, row in enumerate(out) if np.isfinite(row).all()]
        guard_row = data.draw(st.sampled_from([None, *finite]))
        r = None if guard_row is None else h1_sq(basis, out[guard_row])
        cfg = SolverConfig(dt=1e-3, scheme=scheme,
                           guard_radius=r if r is not None and 0 < r < np.inf else None)
        checked = Stepper(model, cfg, basis)

        def draw(out):
            out[:] = xi

        # the step loop's trip of one step of the block, from step 1 at t = 1e-3
        trip = integrator._drive(checked, Reducer(basis), block, draw, 1, 1e-3, 1,
                                 lambda *_: None)[3]
        alone = [trip_reference(checked, row, checked.advance(row, xi), 1e-3) for row in block]
        assert _trip_bits(trip) == _trip_bits(next((a for a in alone if a is not None), None))


def _ref_flux(spec, v):
    if spec.kind == "burgers":
        return 0.5 * v * v
    return np.polynomial.polynomial.polyval(v, spec.coefficients)


# signed zeros, subnormals, infinities and nans of both signs
EDGES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072e-308, np.inf, -np.inf, np.nan,
         -np.nan)


def with_edges(data, a):
    """a with up to three entries replaced by EDGES values; most draws keep
    most rows finite, so a layout slip still shows after the transforms."""
    flat = a.reshape(-1)
    hits = data.draw(st.lists(st.tuples(st.integers(0, flat.size - 1), st.sampled_from(EDGES)),
                              max_size=3))
    for i, v in hits:
        flat[i] = v
    return a


def _ref_nonlin(spec, c, basis):
    """N(c) through np.fft.irfft/rfft and explicit per-pair products, with
    no Workspace: the (sin, cos) pair (s, k) of wavenumber w sits in rfft
    bin p as (n/sqrt(2)) (k - i s), and -d/dx maps it to (w k, -w s)."""
    if spec.kind == "zero":
        return np.zeros_like(c)
    n, k = dealias_points(spec, basis), basis.n_pairs
    bins = np.zeros((*c.shape[:-1], n // 2 + 1), dtype=complex)
    scale = n / np.sqrt(2.0)
    bins.real[..., 1 : k + 1] = c[..., 1::2] * scale
    bins.imag[..., 1 : k + 1] = c[..., 0::2] * -scale
    a = np.fft.rfft(_ref_flux(spec, np.fft.irfft(bins, n)))
    back, w = np.sqrt(2.0) / n, basis.wavenumbers[0::2]
    out = np.empty_like(c)
    out[..., 0::2] = (a.real[..., 1 : k + 1] * back) * w
    out[..., 1::2] = (a.imag[..., 1 : k + 1] * -back) * -w
    return out


def _ref_advance(stepper, c, xi):
    """The scheme update written out as one expression per scheme, each sum
    with its operands in the stepper's order: where two nans meet, the
    first one's sign survives."""
    def n(x):
        return _ref_nonlin(stepper.model.flux, x, stepper.basis)

    dt = stepper.dt
    if stepper.model.flux.kind == "zero":
        return stepper.decay * c + xi
    if stepper.cfg.scheme == "exp_euler":
        return (n(c) * dt + c) * stepper.decay + xi
    pred = (n(c) * (0.5 * dt) + c) * stepper.half_decay
    return n(pred) * (dt * stepper.half_decay) + stepper.decay * c + xi


class TestPlan:
    """Stepper's per-shape workspaces and the Horner flux reproduce the
    allocating kernels with polyval bit for bit."""

    FLUXES = {
        "burgers": FluxSpec("burgers"), "zero": FluxSpec("zero"),
        "cubic": FluxSpec("polynomial", coefficients=[0.0, 0.5, -0.2, 1.0 / 3.0]),
    }

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), rows=st.sampled_from([None, 1, 2, 3]),
           m=st.sampled_from([2, 4, 8, 16, 32, 256]), flux=st.sampled_from(sorted(FLUXES)),
           scheme=st.sampled_from(SCHEMES), exp=st.sampled_from([*range(-5, 4), 160]))
    @np.errstate(over="ignore", invalid="ignore")
    def test_plan_matches_reference_bitwise(self, data, rows, m, flux, scheme, exp):
        shape = (m,) if rows is None else (rows, m)
        c = data.draw(arrays(float, shape, elements=st.floats(-2.0, 2.0))) * 10.0**exp
        c = with_edges(data, c)
        xi = data.draw(arrays(float, m, elements=st.floats(-0.1, 0.1)))
        basis = ModeBasis(m)
        model = ModelSpec(0.1, self.FLUXES[flux], NoiseSpec(sigma=np.zeros(m)))
        stepper = Stepper(model, SolverConfig(dt=1e-3, scheme=scheme), basis)
        # a state past the float range first fills the plan's buffers with
        # inf and nan; nothing of it may reach the next call
        big = np.full(shape, 1e160)
        n_big = stepper.nonlin(big)
        a_big = stepper.advance(big, xi)
        keep = n_big.tobytes(), a_big.tobytes()
        ref = _ref_nonlin(model.flux, c, basis)
        assert stepper.nonlin(c).tobytes() == ref.tobytes()
        if flux != "zero":  # and the allocating transforms with the reference -d/dx
            v = synthesize(c, dealias_points(model.flux, basis))
            d = rotate_pairs(analyze(_ref_flux(model.flux, v), m), -basis.wavenumbers)
            assert d.tobytes() == ref.tobytes()
        out = stepper.advance(c, xi)
        assert out.tobytes() == _ref_advance(stepper, c, xi).tobytes()
        # written into a caller's array, whatever it held: the same bits
        into = np.full(shape, data.draw(st.sampled_from([np.nan, -0.0, 1e300])))
        assert stepper.advance(c, xi, into) is into
        assert into.tobytes() == out.tobytes()
        # returned arrays are fresh: later calls leave them as they were
        assert (n_big.tobytes(), a_big.tobytes()) == keep
        before = out.tobytes()
        stepper.advance(out, xi)
        stepper.nonlin(c)
        assert out.tobytes() == before

    # polyval's inputs: normal values, huge ones whose powers overflow,
    # subnormals, signed zeros, infinities and nans of both signs
    HORNER_VALUES = st.floats(-1e3, 1e3) | st.sampled_from(
        [1e80, -1e80, 1e200, -1e200, 5e-324, -5e-324, 1e-310, -2.2250738585072e-308,
         0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), n_coef=st.integers(1, 5))
    @np.errstate(over="ignore", invalid="ignore")
    def test_horner_matches_polyval_bitwise(self, data, n_coef):
        # coefficient counts 1..5 drawn from the same values: where two
        # nans meet in a sum, polyval's operand order decides the sign, so
        # Horner's rule must run its operations in that order, into fresh
        # arrays and into out alike
        coef = data.draw(arrays(float, n_coef, elements=self.HORNER_VALUES), label="coef")
        v = data.draw(arrays(float, st.integers(1, 24), elements=self.HORNER_VALUES), label="v")
        if np.isfinite(coef).all():
            value = partial(flux_value, FluxSpec("polynomial", coefficients=coef))
        else:  # a spec refuses these: Horner's rule on the 0-d terms directly
            value = partial(_horner, tuple(map(_constant, coef[::-1])))
        want = np.polynomial.polynomial.polyval(v, coef)
        assert value(v).tobytes() == want.tobytes()
        into = np.full(v.shape, np.nan)
        assert value(v, out=into) is into
        assert into.tobytes() == want.tobytes()


class TestRecordBlock:
    """Records reduced a block of kept states at a time equal rows reduced
    from one state at a time, whatever the block boundaries."""

    MODEL = ModelSpec(0.1, FluxSpec("burgers"), NoiseSpec(c=0.5, q=3.0))
    DT = 4e-3

    @staticmethod
    def reference_rows(stepper, states, times, lp_orders, r):
        """The record columns but l1_dist and energy_residual, per state of
        the stepper's basis."""
        lam, rows = stepper.basis.eigenvalues, []
        for t, c in zip(times, states):
            cc = c * c
            h1 = np.dot(-lam, cc)
            vals = np.abs(synthesize(c, DEFAULT_FINE_FACTOR * stepper.basis.m_max))
            rows.append([t, np.dot(c, c), h1, np.dot(lam * lam, cc)]
                        + [np.mean(vals**p) for p in lp_orders]
                        + [np.nan if r is None else r - h1])
        return np.array(rows, dtype=float).reshape(len(rows), 5 + len(lp_orders))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), coupled=st.booleans(), m=st.sampled_from([8, 16]),
           every=st.sampled_from([1, 3, 7]),
           lp_orders=st.lists(st.sampled_from([1, 2, 3, 4, 6]), unique=True, max_size=3),
           guard=st.sampled_from(["none", "loose", "trip"]))
    def test_block_records_equal_per_row_records(self, data, coupled, m, every,
                                                 lp_orders, guard):
        n_bufs = 2 if coupled else 1
        rows = observables._RECORD_BLOCK_POINTS // (n_bufs * DEFAULT_FINE_FACTOR * m)
        n_rec = data.draw(st.sampled_from([rows - 1, rows, rows + 1, 2 * rows + 3]),
                          label="records")
        step0 = 0 if coupled else data.draw(st.sampled_from([0, 1, 5, 40]), label="step0")
        # steps to the n_rec-th record (counting the initial row of a fresh
        # start), plus a tail that records nothing
        first = step0 // every + (step0 > 0)
        n_steps = (first + n_rec - 1) * every - step0 + data.draw(
            st.integers(0, every - 1), label="tail")
        basis = ModeBasis(m)
        u0 = [random_field(basis, 5, amp=0.01), random_field(basis, 6, amp=0.01)][:n_bufs]
        seed = 11

        # the trajectory, stepped one state at a time from the same path
        stepper = Stepper(self.MODEL, SolverConfig(dt=self.DT), basis)
        path = NoisePath(self.MODEL.noise, basis, seed)
        path.draw_index = step0
        states = np.empty((n_steps + 1, n_bufs, m))
        states[0] = [u.coeffs for u in u0]
        times = [step0 * self.DT]
        for k in range(n_steps):
            xi = path.ou_increment(self.MODEL.nu, self.DT)
            states[k + 1] = [stepper.advance(c, xi) for c in states[k]]
            times.append(times[-1] + self.DT)
        h1 = np.array([[h1_sq(basis, c) for c in s] for s in states])
        radius, stop = None, n_steps  # stop: last step the run completes
        if guard == "loose":
            radius = 2.0 * h1.max()
        elif guard == "trip":
            # the largest h1 up to a step in the second half; the run trips
            # at the first step any row reaches it and keeps the state before
            radius = h1[1 : data.draw(st.integers(n_steps // 2, n_steps)) + 1].max()
            stop = int(np.argmax(h1[1:].max(axis=1) >= radius))

        cfg = SolverConfig(dt=self.DT, guard_radius=radius)
        if coupled:
            res = run_coupled(self.MODEL, cfg, *u0, seed=seed, n_steps=n_steps,
                              record_every=every, lp_orders=lp_orders)
            bufs, ends = (res.records_a, res.records_b), (res.state_a, res.state_b)
        else:
            res = run_single(self.MODEL, cfg, u0[0], seed=seed, n_steps=n_steps,
                             record_every=every, lp_orders=lp_orders,
                             t0=times[0], step0=step0)
            bufs, ends = (res.records,), (res.state,)
        assert (res.trip is not None) == (stop < n_steps)
        for r, end in enumerate(ends):
            assert end.step == step0 + stop and end.t == times[stop]
            assert end.u.coeffs.tobytes() == states[stop, r].tobytes()
        kept = [k for k in range(stop + 1)
                if (k == 0 and step0 == 0) or (k > 0 and (step0 + k) % every == 0)]
        names = ["t", "l2_sq", "h1_sq", "h2_sq", *(f"lp{p}_p" for p in lp_orders),
                 "guard_margin"]
        for r, buf in enumerate(bufs):
            want = self.reference_rows(stepper, states[kept, r],
                                       [times[k] for k in kept], lp_orders, radius)
            got = np.column_stack([buf.column(name) for name in names])
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("coupled, step0", [(False, 0), (False, 3), (True, 0)])
    def test_one_row_blocks(self, monkeypatch, coupled, step0):
        # a flush budget below one row's fine grid gives the smallest blocks,
        # of two rows (the floor), each reduced before the next state is kept
        monkeypatch.setattr(observables, "_RECORD_BLOCK_POINTS", 1)
        self.check_against_rows(ModeBasis(8), coupled, step0, n_steps=5)

    def test_one_row_blocks_at_large_m(self):
        # m = 4096: one row already fills the flush budget, so blocks hold
        # the floor of two rows
        self.check_against_rows(ModeBasis(4096), False, 0, n_steps=2)

    def check_against_rows(self, basis, coupled, step0, n_steps):
        lp_orders = (2, 4)
        n_bufs = 2 if coupled else 1
        u0 = [random_field(basis, 5, amp=0.01), random_field(basis, 6, amp=0.01)][:n_bufs]
        stepper = Stepper(self.MODEL, SolverConfig(dt=self.DT), basis)
        path = NoisePath(self.MODEL.noise, basis, 11)
        path.draw_index = step0
        states = [np.stack([u.coeffs for u in u0])]
        times = [step0 * self.DT]
        for _ in range(n_steps):
            states.append(stepper.advance(states[-1], path.ou_increment(self.MODEL.nu,
                                                                        self.DT)))
            times.append(times[-1] + self.DT)
        if step0:  # a resumed segment records no initial row
            states, times = states[1:], times[1:]
        if coupled:
            res = run_coupled(self.MODEL, stepper.cfg, *u0, seed=11, n_steps=n_steps,
                              lp_orders=lp_orders)
            bufs = (res.records_a, res.records_b)
        else:
            res = run_single(self.MODEL, stepper.cfg, u0[0], seed=11, n_steps=n_steps,
                             lp_orders=lp_orders, t0=step0 * self.DT, step0=step0)
            bufs = (res.records,)
        names = ["t", "l2_sq", "h1_sq", "h2_sq", "lp2_p", "lp4_p", "guard_margin"]
        for r, buf in enumerate(bufs):
            want = self.reference_rows(stepper, [s[r] for s in states], times,
                                       lp_orders, None)
            got = np.column_stack([buf.column(name) for name in names])
            assert got.tobytes() == want.tobytes()


class TestLeanStep:
    """Whole runs, on the planned kernels with the in-place draw and the
    inline blow-up test, equal a loop of the allocating `_ref_advance` on
    increments drawn from freshly built Philox generators, bit for bit:
    records, final states and trips."""

    NU, DT = 0.1, 2e-3

    def increment(self, model, basis, seed, step):
        lam = basis.eigenvalues
        var = (model.noise.resolve(basis) ** 2 * (1.0 - np.exp(2.0 * self.NU * lam * self.DT))
               / (-2.0 * self.NU * lam))
        gen = np.random.Generator(np.random.Philox(key=seed, counter=[0, step, 0, 0]))
        return np.sqrt(var) * gen.standard_normal(basis.m_max)

    def ref_run(self, stepper, c, xis, radius):
        """States and times up to the last completed step, and the trip as
        (t, h1_sq, reason): the rows of each step's output are checked in
        order, a non-finite row trips at t with its pre-step mass, then a
        row at the radius at t + dt."""
        neg_lam = -stepper.basis.eigenvalues
        states, times = [c], [0.0]
        for xi in xis:
            out, t = _ref_advance(stepper, c, xi), times[-1]
            for row, new in zip(np.atleast_2d(c), np.atleast_2d(out)):
                if not np.isfinite(new).all():
                    return states, times, (t, float(np.dot(neg_lam, row * row)), "flux_overflow")
                h1 = float(np.dot(neg_lam, new * new))
                if radius is not None and h1 >= radius:
                    return states, times, (t + self.DT, h1, "guard")
            c = out
            states.append(c)
            times.append(t + self.DT)
        return states, times, None

    def check_records(self, stepper, buf, states, times, every, radius):
        kept = range(0, len(states), every)
        want = TestRecordBlock.reference_rows(stepper, [states[k] for k in kept],
                                              [times[k] for k in kept], (), radius)
        names = ("t", "l2_sq", "h1_sq", "h2_sq", "guard_margin")
        assert np.column_stack([buf.column(k) for k in names]).tobytes() == want.tobytes()

    @staticmethod
    def trip_of(trip):
        return None if trip is None else (trip.t, trip.h1_sq, trip.reason)

    @pytest.mark.parametrize("guard", ["none", "trip", "overflow"])
    @pytest.mark.parametrize("flux", sorted(TestPlan.FLUXES))
    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), m=st.sampled_from([8, 16]), scheme=st.sampled_from(SCHEMES),
           n_steps=st.integers(1, 30), every=st.sampled_from([1, 4]))
    @np.errstate(over="ignore", invalid="ignore")
    def test_runs_equal_reference_loop(self, flux, guard, data, m, scheme, n_steps, every):
        basis = ModeBasis(m)
        model = ModelSpec(self.NU, TestPlan.FLUXES[flux], NoiseSpec(c=0.5, q=3.0))
        seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
        u0 = data.draw(arrays(float, (2, m), elements=st.floats(-2.0, 2.0)), label="u0")
        if guard == "overflow":  # squares past the float range; a nonzero flux overflows
            u0[data.draw(st.integers(0, 1), label="row")] *= 1e160
        xis = [self.increment(model, basis, seed, k) for k in range(n_steps)]
        ref = Stepper(model, SolverConfig(dt=self.DT, scheme=scheme), basis)
        radius = None
        if guard == "trip":
            # the largest H1 mass of either row up to a step in the second
            # half: the runs trip at the first step a row reaches it
            states = self.ref_run(ref, u0, xis, None)[0]
            last = data.draw(st.integers(max(1, n_steps // 2), n_steps), label="last")
            radius = max(h1_sq(basis, row) for c in states[1 : last + 1] for row in c)
        cfg = SolverConfig(dt=self.DT, scheme=scheme, guard_radius=radius)
        fields = [SpectralField(row, basis) for row in u0]

        states, times, trip = self.ref_run(ref, u0[0], xis, radius)
        res = run_single(model, cfg, fields[0], seed, n_steps, record_every=every)
        assert self.trip_of(res.trip) == trip
        assert (res.state.step, res.state.t) == (len(states) - 1, times[-1])
        assert res.state.u.coeffs.tobytes() == states[-1].tobytes()
        self.check_records(ref, res.records, states, times, every, radius)
        hist, hist_trip = run_on_increments(model, cfg, fields[0], np.array(xis))
        assert self.trip_of(hist_trip) == trip
        assert hist.tobytes() == np.array(states).tobytes()

        states, times, trip = self.ref_run(ref, u0, xis, radius)
        res = run_coupled(model, cfg, *fields, seed, n_steps, record_every=every)
        assert self.trip_of(res.trip) == trip
        for r, end in enumerate((res.state_a, res.state_b)):
            assert (end.step, end.t) == (len(states) - 1, times[-1])
            assert end.u.coeffs.tobytes() == states[-1][r].tobytes()
        assert res.times.tobytes() == np.array(times).tobytes()
        for r, buf in enumerate((res.records_a, res.records_b)):
            self.check_records(ref, buf, [c[r] for c in states], times, every, radius)


class TestTwoRowBlocks:
    """At the floor of two kept rows a block wraps at every other step, and
    each step is written in place into its kept row: no step's output may
    share memory with its input.  Runs equal the per-step reference loop of
    TestLeanStep bit for bit: records, final states, coupled series and the
    states on_block sees."""

    MODEL = ModelSpec(TestLeanStep.NU, FluxSpec("burgers"), NoiseSpec(c=0.5, q=3.0))
    SEED, N_STEPS = 7, 23

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("run", ["single_every_1", "single_every_3", "coupled"])
    def test_runs_equal_reference_loop(self, monkeypatch, kept_blocks, scheme, run):
        lean, basis = TestLeanStep(), ModeBasis(8)
        cfg = SolverConfig(dt=lean.DT, scheme=scheme)
        ref = Stepper(self.MODEL, cfg, basis)
        u0 = np.stack([random_field(basis, 5, amp=0.3).coeffs,
                       random_field(basis, 6, amp=0.3).coeffs])
        xis = [lean.increment(self.MODEL, basis, self.SEED, k) for k in range(self.N_STEPS)]
        every = 3 if run == "single_every_3" else 1
        # a budget below one row's fine grid: blocks of two kept rows
        monkeypatch.setattr(observables, "_RECORD_BLOCK_POINTS", 1)
        reduced = []
        record_rows = Reducer.record_rows

        def counted(reducer, bufs, radius, every, first, times, states, l1=None):
            reduced.append((first, len(times)))
            return record_rows(reducer, bufs, radius, every, first, times, states, l1)

        monkeypatch.setattr(Reducer, "record_rows", counted)
        if run == "coupled":
            states, times, _ = lean.ref_run(ref, u0, xis, None)
            res = run_coupled(self.MODEL, cfg, *(SpectralField(r, basis) for r in u0),
                              self.SEED, self.N_STEPS)
            assert res.times.tobytes() == np.array(times).tobytes()
            for r, (end, buf) in enumerate(((res.state_a, res.records_a),
                                            (res.state_b, res.records_b))):
                assert end.u.coeffs.tobytes() == states[-1][r].tobytes()
                lean.check_records(ref, buf, [c[r] for c in states], times, 1, None)
            n_fine = DEFAULT_FINE_FACTOR * basis.m_max
            l1 = [np.mean(np.abs(synthesize(c[0] - c[1], n_fine))) for c in states]
            assert res.l1_series.tobytes() == np.array(l1).tobytes()
        else:
            states, times, _ = lean.ref_run(ref, u0[0], xis, None)
            seen = []
            res = run_single(self.MODEL, cfg, SpectralField(u0[0], basis), self.SEED,
                             self.N_STEPS, record_every=every,
                             on_block=lambda first, ts, block: seen.extend(
                                 zip(range(first, first + len(ts)), ts.tolist(), block.copy())))
            assert res.state.u.coeffs.tobytes() == states[-1].tobytes()
            lean.check_records(ref, res.records, states, times, every, None)
            assert [(step, t) for step, t, _ in seen] == list(enumerate(times))
            assert np.array([c for *_, c in seen]).tobytes() == np.array(states).tobytes()
            hist, _ = run_on_increments(self.MODEL, cfg, SpectralField(u0[0], basis),
                                        np.array(xis))
            assert hist.tobytes() == np.array(states).tobytes()
        # every step is kept, whatever the record cadence: one call per
        # block of two steps, after the fresh start's own
        assert reduced == kept_blocks(self.N_STEPS, 2)


class TestBlockHook:
    """run_single(on_block=) sees every step of the run once and in order,
    each block after its record rows are made: fresh and resumed runs, at
    any record cadence, across block wraps and up to a trip inside a
    block, past which it sees nothing.  The CLI's snapshots, written from
    the hook, are the states of their steps at any snapshot cadence."""

    MODEL = ModelSpec(0.1, FluxSpec("burgers"), NoiseSpec(c=0.5, q=3.0))
    DT, SEED, ROWS, N_STEPS = 2e-3, 3, 4, 17

    def reference(self, basis, u0, step0):
        """The states and times of steps step0 .. step0 + N_STEPS, stepped
        one state at a time from the path's own draws."""
        stepper = Stepper(self.MODEL, SolverConfig(dt=self.DT), basis)
        path = NoisePath(self.MODEL.noise, basis, self.SEED)
        path.draw_index = step0
        states, times = [u0.coeffs], [step0 * self.DT]
        for _ in range(self.N_STEPS):
            states.append(stepper.advance(states[-1], path.ou_increment(self.MODEL.nu,
                                                                        self.DT)))
            times.append(times[-1] + self.DT)
        return states, times

    @pytest.mark.parametrize("trip", [False, True])
    @pytest.mark.parametrize("every", [1, 3])
    @pytest.mark.parametrize("step0", [0, 5])
    def test_each_step_once_and_in_order(self, monkeypatch, step0, every, trip):
        basis = ModeBasis(8)
        # blocks of ROWS kept states: a run of N_STEPS wraps four times
        monkeypatch.setattr(observables, "_RECORD_BLOCK_POINTS",
                            self.ROWS * DEFAULT_FINE_FACTOR * basis.m_max)
        u0 = random_field(basis, 5, amp=1e-3)
        states, times = self.reference(basis, u0, step0)
        radius, last = None, self.N_STEPS  # last: the last step the run completes
        if trip:
            # the first step past the second block whose H1 mass exceeds
            # every earlier one and that is not the first row of its block
            # (row 0 is step step0 + 1 of a block of steps)
            h1 = [h1_sq(basis, c) for c in states]
            s = next(s for s in range(2 * self.ROWS + 1, self.N_STEPS)
                     if h1[s] > max(h1[1:s]) and (s - 1) % self.ROWS)
            radius, last = h1[s], s - 1
        events = []
        record_rows = Reducer.record_rows

        def recorded(reducer, bufs, r, rec_every, first, ts, block, l1=None):
            events.append(("records", first))
            return record_rows(reducer, bufs, r, rec_every, first, ts, block, l1)

        def on_block(first, ts, block):
            assert 0 < len(ts) == len(block) <= self.ROWS
            events.append(("hook", first))
            seen.extend(zip(range(first, first + len(ts)), ts.tolist(), block.copy()))

        monkeypatch.setattr(Reducer, "record_rows", recorded)
        seen = []
        res = run_single(self.MODEL, SolverConfig(dt=self.DT, guard_radius=radius), u0,
                         self.SEED, self.N_STEPS, record_every=every, t0=times[0],
                         step0=step0, on_block=on_block)
        assert (res.trip is not None) == trip
        assert res.state.step == step0 + last
        # a resumed run starts at the step after its snapshot's
        want = range(int(step0 > 0), last + 1)
        assert [(step, t) for step, t, _ in seen] == [(step0 + i, times[i]) for i in want]
        assert (np.array([c for *_, c in seen]).tobytes()
                == np.array([states[i] for i in want]).tobytes())
        firsts = [first for kind, first in events[::2]]
        assert events == [(kind, first) for first in firsts for kind in ("records", "hook")]
        assert len(firsts) >= 3  # two wraps at least
        assert len(res.records) == len([i for i in want if (step0 + i) % every == 0])

    # a snapshot cadence of 7 is neither a multiple nor a divisor of the
    # record cadence or of the block's 10 rows
    @pytest.mark.parametrize("step0", [0, 14, 35])
    def test_cli_snapshots_are_the_states_of_their_steps(self, monkeypatch, tmp_path, step0):
        from svcl.cli import entry

        basis, n_steps, every, snap_every = ModeBasis(8), 50, 4, 7
        monkeypatch.setattr(observables, "_RECORD_BLOCK_POINTS",
                            10 * DEFAULT_FINE_FACTOR * basis.m_max)
        ini = tmp_path / "run.ini"
        ini.write_text(f"[model]\nnu = 0.1\nflux = burgers\n[noise]\nc = 0.5\nq = 3\n"
                       f"[solver]\nmodes = 8\ndt = {self.DT!r}\n"
                       f"[experiment]\nkind = single\nhorizon = {n_steps * self.DT!r}\n"
                       f"seed = {self.SEED}\nrecord_every = {every}\n"
                       f"snapshot_every = {snap_every}\n"
                       f"[initial]\nkind = mode\nmode = 1\namplitude = 1.0\n"
                       f"[output]\ndir = {tmp_path / 'out'}\n")
        flags = ["--config", str(ini)]
        assert entry(["run", *flags]) == 0
        if step0:  # resume from an earlier snapshot, the later ones removed
            for p in (tmp_path / "out").glob("snap_*.snap"):
                if int(p.stem[5:]) > step0:
                    p.unlink()
            resume = tmp_path / "out" / f"snap_{step0:09d}.snap"
            assert entry(["resume", *flags, "--resume", str(resume)]) == 0
        snaps = sorted((tmp_path / "out").glob("snap_*.snap"))
        steps = range(snap_every, n_steps + 1, snap_every)
        assert [p.name for p in snaps] == [f"snap_{k:09d}.snap" for k in steps]
        u0, cfg = mode_field(basis, 1, 1.0), SolverConfig(dt=self.DT)
        for p, k in zip(snaps, steps):
            buf = io.BytesIO()
            end = run_single(self.MODEL, cfg, u0, self.SEED, k).state
            write_snapshot(buf, end.u.coeffs, end.t, end.step, self.MODEL, cfg, self.SEED)
            assert p.read_bytes() == buf.getvalue(), p.name


class TestContinuousDependence:
    def test_h2_gap_proportional_to_perturbation(self):
        # Fixed noise path, u0 vs u0 + delta e_1: sup_t H2 distance scales
        # linearly in delta across three decades.
        basis = ModeBasis(16)
        model = ModelSpec(0.05, FluxSpec("burgers"), NoiseSpec(c=0.3, q=3.0))
        cfg = SolverConfig(dt=1e-3)
        u0 = random_field(basis, 7)
        lam2 = basis.eigenvalues**2
        path = NoisePath(model.noise, basis, 9)
        xis = np.array([path.ou_increment(model.nu, cfg.dt) for _ in range(300)])
        base, _ = run_on_increments(model, cfg, u0, xis)
        ratios = []
        for delta in (1e-2, 1e-3, 1e-4):
            pert = SpectralField(u0.coeffs + delta * mode_field(basis, 1).coeffs,
                                 basis)
            other, _ = run_on_increments(model, cfg, pert, xis)
            sup = np.max(np.sqrt(np.sum(lam2 * (other - base) ** 2, axis=1)))
            ratios.append(sup / delta)
        assert max(ratios) / min(ratios) < 1.5


class TestGuard:
    def test_zero_field_never_trips(self):
        basis = ModeBasis(8)
        cfg = SolverConfig(dt=0.01, guard_radius=1e-6)
        res = run_single(silent_model(m=8), cfg, SpectralField(basis.zeros(), basis),
                         seed=0, n_steps=50)
        assert res.trip is None and res.state.step == 50

    def test_single_mode_trips_exactly_at_threshold(self):
        # A = 0, sigma = 0: the first stepped state is E e_1, and a radius
        # equal to its H1 mass trips at step 1 while a hair more never does
        basis = ModeBasis(8)
        model = silent_model(m=8)
        u0 = mode_field(basis, 1, 1.0)
        stepper = Stepper(model, SolverConfig(dt=0.01), basis)
        r = h1_sq(basis, stepper.advance(u0.coeffs, np.zeros(8)))
        res = run_single(model, SolverConfig(dt=0.01, guard_radius=r), u0,
                         seed=0, n_steps=20)
        assert res.trip is not None and res.trip.reason == "guard" and res.trip.h1_sq == r
        assert res.trip.t == 0.01 and res.state.step == 0
        res = run_single(model, SolverConfig(dt=0.01, guard_radius=r * (1 + 1e-12)),
                         u0, seed=0, n_steps=20)
        assert res.trip is None and res.state.step == 20

    def test_guard_trip_ends_the_history(self):
        # the path's own draws: the history is run_single's states, up to
        # the state before the step that reached the radius
        basis = ModeBasis(8)
        model = ModelSpec(0.1, FluxSpec("zero"), NoiseSpec(c=2.0, q=3.0))
        cfg = SolverConfig(dt=0.01, guard_radius=1e-8)
        path = NoisePath(model.noise, basis, 3)
        xis = np.array([path.ou_increment(model.nu, cfg.dt) for _ in range(50)])
        u0 = SpectralField(basis.zeros(), basis)
        hist, trip = run_on_increments(model, cfg, u0, xis)
        assert trip.reason == "guard"
        assert trip.h1_sq >= 1e-8
        states = []
        res = run_single(model, cfg, u0, seed=3, n_steps=50,
                         on_block=lambda first, times, block: states.extend(block.copy()))
        assert (trip.t, trip.h1_sq) == (res.trip.t, res.trip.h1_sq)
        assert len(hist) == res.state.step + 1 < 51
        assert hist.tobytes() == np.array(states).tobytes()

    def test_huge_step_count_returns_at_its_trip(self):
        # nothing is sized by n_steps: a run of 10^16 steps whose guard
        # trips at step 1 returns at once
        basis = ModeBasis(8)
        model = silent_model(m=8)
        u0 = mode_field(basis, 1, 1.0)
        stepper = Stepper(model, SolverConfig(dt=0.01), basis)
        r = h1_sq(basis, stepper.advance(u0.coeffs, np.zeros(8)))
        res = run_single(model, SolverConfig(dt=0.01, guard_radius=r), u0,
                         seed=0, n_steps=10**16, lp_orders=(2,))
        assert res.trip is not None and res.trip.reason == "guard"
        assert res.state.step == 0 and len(res.records) == 1

    def test_run_single_captures_trip(self):
        basis = ModeBasis(8)
        model = ModelSpec(0.1, FluxSpec("zero"), NoiseSpec(c=2.0, q=3.0))
        cfg = SolverConfig(dt=0.01, guard_radius=1e-8)
        res = run_single(model, cfg, SpectralField(basis.zeros(), basis),
                         seed=3, n_steps=100)
        assert res.trip is not None and res.trip.reason == "guard"
        assert res.state.t < 100 * 0.01  # halted early
        assert len(res.records) < 101

    def test_flux_overflow_becomes_trip(self):
        basis = ModeBasis(8)
        cubic = FluxSpec("polynomial", coefficients=[0.0, 0.0, 0.0, 1.0 / 3.0])
        model = ModelSpec(0.1, cubic, NoiseSpec(sigma=np.zeros(8)))
        cfg = SolverConfig(dt=0.01)
        u0 = mode_field(basis, 1, 1e110)
        hist, trip = run_on_increments(model, cfg, u0, np.zeros((1, 8)))
        assert trip.reason == "flux_overflow"
        assert hist.tobytes() == u0.coeffs.tobytes()  # only the start
        res = run_single(model, cfg, u0, seed=0, n_steps=10)
        assert res.trip is not None and res.trip.reason == "flux_overflow"
        assert res.state.step == 0  # nothing advanced

    @pytest.mark.parametrize("guard", [None, 1.0])
    def test_non_finite_step_trips_before_the_guard(self, guard):
        # 1e154 e1 sits at the edge of the float range: its flux values stay
        # finite, the transform of them overflows, and the step's output
        # holds +-inf but no nan, so its H1 mass (inf) is past any guard.
        # The non-finite check comes first: the run stops before the step
        # with its last finite state, whether a guard is set or not
        basis = ModeBasis(8)
        model = ModelSpec(0.1, FluxSpec("burgers"), NoiseSpec(sigma=np.zeros(8)))
        u0 = mode_field(basis, 1, 1e154)
        res = run_single(model, SolverConfig(dt=0.01, guard_radius=guard), u0,
                         seed=0, n_steps=10)
        assert res.trip.reason == "flux_overflow" and res.trip.t == 0.0
        assert res.trip.h1_sq == np.inf  # 4 pi^2 1e308 is past the float range too
        assert res.state.step == 0 and res.state.u.coeffs.tobytes() == u0.coeffs.tobytes()

    def test_flux_overflow_trip_time_is_the_state_time(self):
        # the cubic overflows at step 2, after t = 0.01 + 0.01; the trip
        # reports the pre-step time itself, not (t + dt) - dt, which here
        # is one ulp below it
        basis = ModeBasis(8)
        cubic = FluxSpec("polynomial", coefficients=[0.0, 0.0, 0.0, 1.0 / 3.0])
        model = ModelSpec(0.1, cubic, NoiseSpec(sigma=np.zeros(8)))
        res = run_single(model, SolverConfig(dt=0.01), mode_field(basis, 1, 1.149e12),
                         seed=0, n_steps=10)
        assert res.trip.reason == "flux_overflow" and res.state.step == 2
        assert res.trip.t == res.state.t

    def test_finite_state_with_overflowing_squares_never_trips(self):
        # 1e200 e1 under a zero flux: every entry stays finite while the sum
        # of squares is past the float range, so the one-dot check cannot
        # clear the step and the row walk must; with no guard the run goes
        # to its end, each state exactly the decayed one before it
        basis = ModeBasis(8)
        model, cfg = silent_model(m=8), SolverConfig(dt=0.01)
        u0 = mode_field(basis, 1, 1e200)
        xis = np.zeros((30, 8))
        hist, trip = run_on_increments(model, cfg, u0, xis)
        assert trip is None and len(hist) == 31 and np.isfinite(hist).all()
        with np.errstate(over="ignore"):
            assert np.vdot(hist[-1], hist[-1]) == np.inf
        decay, c = Stepper(model, cfg, basis).decay, u0.coeffs
        for row, xi in zip(hist[1:], xis):
            c = decay * c + xi
            assert row.tobytes() == c.tobytes()

    def test_overflowing_norms_fill_records_without_a_warning(self):
        # the same 1e200 e1 state through run_single: every recorded norm is
        # inf and every windowed residual nan (inf - inf), and the residual
        # fill after the step loop must not leak a RuntimeWarning
        basis = ModeBasis(8)
        model = ModelSpec(0.1, FluxSpec("zero"), NoiseSpec(c=0.5, q=3.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = run_single(model, SolverConfig(dt=0.01), mode_field(basis, 1, 1e200),
                             seed=1, n_steps=30)
        assert res.trip is None and res.state.step == 30
        assert np.isfinite(res.state.u.coeffs).all()
        assert np.all(res.records.column("l2_sq") == np.inf)
        assert np.isnan(res.records.column("energy_residual")).all()

    def test_trip_frequency_decays_at_least_like_markov(self):
        # P(T_r < t) <= E[...]/r, so r * freq(r) must not grow in r.
        basis = ModeBasis(16)
        model = ModelSpec(0.1, FluxSpec("burgers"), NoiseSpec(c=1.0, q=3.0))
        u0 = SpectralField(basis.zeros(), basis)
        radii = (0.4, 0.8, 1.6)
        freqs = []
        for r in radii:
            cfg = SolverConfig(dt=2e-3, guard_radius=r)
            trips = sum(
                run_single(model, cfg, u0, seed=s, n_steps=1200,
                           record_every=400).trip is not None
                for s in range(30))
            freqs.append(trips / 30.0)
        assert freqs[0] > 0.5  # regime check: excursions actually happen
        for f_lo, f_hi in zip(freqs, freqs[1:]):
            assert f_hi <= f_lo + 1e-12
        scaled = [r * f for r, f in zip(radii, freqs)]
        for s_lo, s_hi in zip(scaled, scaled[1:]):
            assert s_hi <= s_lo + 0.15  # Monte Carlo slack at 30 seeds


class TestCoupled:
    def test_equal_states_stay_bitwise_identical(self):
        basis = ModeBasis(16)
        model = ModelSpec(0.05, FluxSpec("burgers"), NoiseSpec(c=0.5, q=3.0))
        cfg = SolverConfig(dt=1e-3)
        u0 = random_field(basis, 10)
        res = run_coupled(model, cfg, u0, u0, seed=17, n_steps=200)
        assert res.state_a.step == 200
        assert np.array_equal(res.state_a.u.coeffs, res.state_b.u.coeffs)

    def test_first_trajectory_matches_single_run(self):
        # The coupled driver consumes one draw per step, exactly like the
        # single driver, so trajectory a is bitwise the single-run trajectory.
        basis = ModeBasis(16)
        model = ModelSpec(0.05, FluxSpec("burgers"), NoiseSpec(c=0.5, q=3.0))
        cfg = SolverConfig(dt=1e-3)
        u0 = random_field(basis, 11)
        v0 = random_field(basis, 12)
        cres = run_coupled(model, cfg, u0, v0, seed=23, n_steps=150)
        sres = run_single(model, cfg, u0, seed=23, n_steps=150)
        assert np.array_equal(cres.state_a.u.coeffs, sres.state.u.coeffs)

    def test_pair_steps_on_one_shared_increment_at_its_shape(self, monkeypatch):
        # the step loop hands advance an increment at the pair's (2, m) shape,
        # so no operand of the update broadcasts; its two rows are the
        # path's one-step draws, bit for bit, step after step
        basis = ModeBasis(16)
        model = ModelSpec(0.05, FluxSpec("burgers"), NoiseSpec(c=0.5, q=3.0))
        cfg = SolverConfig(dt=1e-3)
        seen, original = [], Stepper.advance

        def advance(self, c, xi, out=None):
            assert xi.shape == c.shape == (2, 16)
            seen.append(xi.copy())
            return original(self, c, xi, out)

        monkeypatch.setattr(Stepper, "advance", advance)
        run_coupled(model, cfg, random_field(basis, 1), random_field(basis, 2), seed=9,
                    n_steps=300)
        path = NoisePath(model.noise, basis, 9)
        assert len(seen) == 300
        for xi in seen:
            want = path.ou_increment(model.nu, cfg.dt)
            assert xi[0].tobytes() == xi[1].tobytes() == want.tobytes()

    def test_noiseless_l1_contraction_is_monotone(self):
        basis = ModeBasis(16)
        model = ModelSpec(0.05, FluxSpec("burgers"), NoiseSpec(sigma=np.zeros(16)))
        cfg = SolverConfig(dt=1e-3)
        for seed in range(5):
            u0 = random_field(basis, 3 * seed)
            v0 = random_field(basis, 3 * seed + 1)
            res = run_coupled(model, cfg, u0, v0, seed=seed, n_steps=2000,
                              record_every=500)
            assert np.all(np.diff(res.l1_series) <= 0.0)

    def test_noisy_l1_contraction_within_step_tolerance(self):
        # Same-noise coupling: non-increasing up to 1e-8 of the current value.
        basis = ModeBasis(16)
        model = ModelSpec(0.05, FluxSpec("burgers"), NoiseSpec(c=0.2, q=3.0))
        cfg = SolverConfig(dt=1e-3)
        for seed in range(5):
            u0 = random_field(basis, 100 + 3 * seed)
            v0 = random_field(basis, 101 + 3 * seed)
            res = run_coupled(model, cfg, u0, v0, seed=seed, n_steps=1000,
                              record_every=500)
            inc = np.diff(res.l1_series)
            assert np.all(inc <= 1e-8 * res.l1_series[:-1])

    def _trip_pair(self, flux, guard_radius, a0, b0):
        basis = ModeBasis(8)
        model = ModelSpec(0.1, flux, NoiseSpec(sigma=np.zeros(8)))
        cfg = SolverConfig(dt=0.01, guard_radius=guard_radius)
        res = run_coupled(model, cfg, SpectralField(a0, basis), SpectralField(b0, basis),
                          seed=0, n_steps=10)
        return Stepper(model, SolverConfig(dt=0.01), basis), res

    def test_guard_trip_in_second_row(self):
        # a is the zero state, which the silent step keeps; b trips at step 1
        basis = ModeBasis(8)
        b0 = mode_field(basis, 1, 2.0).coeffs
        stepper = Stepper(silent_model(m=8), SolverConfig(dt=0.01), basis)
        r = h1_sq(basis, stepper.advance(b0, np.zeros(8)))
        _, res = self._trip_pair(FluxSpec("zero"), r, basis.zeros(), b0)
        assert res.trip.reason == "guard" and res.trip.h1_sq == r
        assert res.trip.t == 0.01 and res.state_a.step == res.state_b.step == 0
        assert np.array_equal(res.state_a.u.coeffs, basis.zeros())
        assert np.array_equal(res.state_b.u.coeffs, b0)
        assert len(res.l1_series) == 1 and len(res.records_b) == 1

    def test_flux_overflow_in_second_row(self):
        basis = ModeBasis(8)
        cubic = FluxSpec("polynomial", coefficients=[0.0, 0.0, 0.0, 1.0 / 3.0])
        b0 = mode_field(basis, 1, 1e110).coeffs
        stepper, res = self._trip_pair(cubic, None, basis.zeros(), b0)
        assert res.trip.reason == "flux_overflow"
        assert res.trip.h1_sq == h1_sq(basis, b0) and res.trip.t == 0.0
        assert np.array_equal(res.state_b.u.coeffs, b0)

    def test_nan_in_second_row_trips_at_its_step(self, monkeypatch):
        # burgers' flux, wrapped to put a nan into row b's flux samples on
        # its 4th call, the 4th exp_euler step: the rows are checked in
        # order, so a passes and b trips as flux_overflow from the state
        # time and H1 mass before that step, and both rows keep their
        # states from before it, those of a 3-step burgers run.  The trip
        # is found once its kept block is stepped, so the block's steps
        # past it are computed and discarded: at most one block of calls
        basis = ModeBasis(8)
        calls = []
        flux_value = integrator.flux.flux_value

        def value(spec, v, out=None):
            calls.append(v.shape)
            out = flux_value(spec, v, out)
            if len(calls) == 4:
                out[1, 3] = np.nan
            return out

        monkeypatch.setattr(integrator.flux, "flux_value", value)
        noise, cfg = NoiseSpec(c=0.5, q=3.0), SolverConfig(dt=0.01)
        u0, v0 = mode_field(basis, 1, 0.5), mode_field(basis, 2, -0.7)
        burgers = ModelSpec(0.1, FluxSpec("burgers"), noise)
        res = run_coupled(burgers, cfg, u0, v0, seed=4, n_steps=10)
        monkeypatch.undo()  # the reference run's calls are not counted
        ref = run_coupled(burgers, cfg, u0, v0, seed=4, n_steps=3)
        rows = Reducer(basis).block_rows(np.empty((2, 8)))
        assert 4 <= len(calls) <= rows and calls[3][0] == 2
        assert res.trip.reason == "flux_overflow"
        assert res.state_a.step == res.state_b.step == 3
        assert res.trip.t == res.state_a.t == ref.state_a.t
        assert res.state_a.u.coeffs.tobytes() == ref.state_a.u.coeffs.tobytes()
        assert res.state_b.u.coeffs.tobytes() == ref.state_b.u.coeffs.tobytes()
        assert res.trip.h1_sq == h1_sq(basis, ref.state_b.u.coeffs)
        assert res.l1_series.tobytes() == ref.l1_series.tobytes()

    def test_first_row_guard_wins_over_second_row_overflow(self):
        # rows trip in row order: a's guard is reported, not b's overflow
        basis = ModeBasis(8)
        cubic = FluxSpec("polynomial", coefficients=[0.0, 0.0, 0.0, 1.0 / 3.0])
        a0 = mode_field(basis, 1, 1.0).coeffs
        stepper, res = self._trip_pair(cubic, 1.0, a0, mode_field(basis, 1, 1e110).coeffs)
        assert res.trip.reason == "guard"
        assert res.trip.h1_sq == h1_sq(basis, stepper.advance(a0, np.zeros(8)))
        assert res.trip.t == 0.01

    def test_second_row_trip_keeps_both_rows_before_the_step(self):
        # b reaches the guard at step 1 while a is still below it; both
        # states must be the ones at step 0, the step and time reported
        basis = ModeBasis(8)
        model = ModelSpec(0.1, FluxSpec("burgers"), NoiseSpec(c=0.5, q=3.0))
        a0 = mode_field(basis, 1, 0.3).coeffs
        b0 = mode_field(basis, 1, 0.9).coeffs
        res = run_coupled(model, SolverConfig(dt=0.01, guard_radius=30.0),
                          SpectralField(a0, basis), SpectralField(b0, basis),
                          seed=3, n_steps=10)
        assert res.trip.reason == "guard" and res.trip.t == 0.01
        assert res.state_a.step == res.state_b.step == 0 and res.state_a.t == 0.0
        assert res.state_a.u.coeffs.tobytes() == a0.tobytes()
        assert res.state_b.u.coeffs.tobytes() == b0.tobytes()

    def test_overflowing_squares_leak_no_warning(self):
        # b = 1e150 e2 is finite but its squares are not: the series and
        # residuals reduced after the step loop overflow, and must do so
        # under the same errstate as the loop instead of warning
        basis = ModeBasis(8)
        model = ModelSpec(0.08, FluxSpec("burgers"), NoiseSpec(c=0.5, q=3.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = run_coupled(model, SolverConfig(dt=2e-3), mode_field(basis, 1, 1.0),
                              mode_field(basis, 2, 1e150), seed=1, n_steps=20)
        assert res.trip.reason == "flux_overflow" and res.state_b.step == 1
        assert res.records_b.column("h1_sq")[-1] == np.inf
        assert np.isfinite(res.l1_series).all()
        assert res.records_b.column("l2_sq")[-1] == np.inf

    def test_early_stop_on_confluence(self):
        basis = ModeBasis(16)
        model = ModelSpec(0.1, FluxSpec("burgers"), NoiseSpec(c=0.2, q=3.0))
        cfg = SolverConfig(dt=1e-3)
        res = run_coupled(model, cfg, mode_field(basis, 1, 1.0),
                          mode_field(basis, 1, -1.0), seed=2, n_steps=50000,
                          stop_l1_below=1e-4)
        assert res.l1_series[-1] < 1e-4
        assert len(res.l1_series) < 50001

    def test_huge_step_count_returns_at_its_stop(self):
        # the series grow a block at a time: a pair of 10^16 steps that
        # stops early equals the same run given only the steps it needs
        basis = ModeBasis(8)
        args = (silent_model(m=8), SolverConfig(dt=1e-2), mode_field(basis, 1, 1.0),
                mode_field(basis, 1, -1.0))
        res = run_coupled(*args, seed=0, n_steps=10**16, stop_l1_below=1.0)
        ref = run_coupled(*args, seed=0, n_steps=1000, stop_l1_below=1.0)
        assert 0 < res.state_a.step == ref.state_a.step < 1000 and res.trip is None
        assert res.l1_series[-1] < 1.0 <= res.l1_series[-2]
        for a, b in ((res.times, ref.times), (res.l1_series, ref.l1_series),
                     (res.records_b.column("h1_sq"), ref.records_b.column("h1_sq")),
                     (res.state_a.u.coeffs, ref.state_a.u.coeffs),
                     (res.records_a.column("l2_sq"), ref.records_a.column("l2_sq"))):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("stop", [math.nan, 0.0, -1e-3, -math.inf])
    def test_rejects_a_stop_threshold_that_is_not_positive(self, stop):
        # a NaN would pass no step's stop test and run to the horizon
        basis = ModeBasis(8)
        with pytest.raises(ValueError, match="stop_l1_below must be positive"):
            run_coupled(silent_model(m=8), SolverConfig(dt=1e-3), mode_field(basis, 1, 1.0),
                        mode_field(basis, 1, -1.0), seed=0, n_steps=5, stop_l1_below=stop)


class TestCoupledSeries:
    """run_coupled's series and records, reduced a block of kept pairs at a
    time, which also finds the stop, equal a loop that steps the
    pair and computes each step's values as it is made, bit for bit,
    wherever a stop or trip falls against the block."""

    FLUXES = {"burgers": FluxSpec("burgers"),
              "cubic": FluxSpec("polynomial", coefficients=[0.0, 0.5, -0.2, 1.0 / 3.0])}
    RECORD_EVERY, LP_ORDERS = 3, (2, 4)

    @classmethod
    def reference(cls, model, cfg, u0, v0, seed, n_steps, stop):
        """run_coupled one step at a time on Stepper.advance and the blow-up
        contract of trip_reference: an L1 distance and two H1 masses per step,
        and a record row per row at every RECORD_EVERY-th step."""
        basis = u0.basis
        stepper = Stepper(model, cfg, basis)
        path = NoisePath(model.noise, basis, seed)
        c, t, trip = np.stack([u0.coeffs, v0.coeffs]), 0.0, None
        states, times, l1, h1 = [], [], [], []

        def track(c, t):
            states.append(c)
            times.append(t)
            l1.append(float(np.mean(np.abs(synthesize(c[0] - c[1],
                                                      DEFAULT_FINE_FACTOR * basis.m_max)))))
            h1.append([h1_sq(basis, row) for row in c])
            return stop is not None and l1[-1] < stop

        track(c, t)  # the initial distance is never tested against stop
        for _ in range(n_steps):
            out = stepper.advance(c, path.ou_increment(model.nu, cfg.dt))
            trip = trip_reference(stepper, c, out, t)
            if trip is not None:
                break
            c, t = out, t + cfg.dt
            if track(c, t):
                break
        kept = slice(None, None, cls.RECORD_EVERY)
        bufs = (RecordBuffer(cls.LP_ORDERS), RecordBuffer(cls.LP_ORDERS))
        for r, buf in enumerate(bufs):
            rows = TestRecordBlock.reference_rows(stepper, [s[r] for s in states[kept]],
                                                  times[kept], cls.LP_ORDERS,
                                                  cfg.guard_radius)
            buf.append(rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3], rows[:, 4:-1].T,
                       guard_margin=rows[:, -1])
            buf.set_column("l1_dist", l1[kept])
            buf.fill_residuals(64, model.nu, trace_h2(model.noise, basis).l2, None)
        h1 = np.array(h1).T
        return dict(times=np.array(times), l1=np.array(l1), h1_a=h1[0], h1_b=h1[1], c=c,
                    t=t, step=len(states) - 1, trip=trip, bufs=bufs)

    @staticmethod
    def outputs(res):
        return dict(times=res.times, l1=res.l1_series,
                    c=np.stack([res.state_a.u.coeffs, res.state_b.u.coeffs]),
                    t=res.state_a.t, step=res.state_a.step, trip=res.trip,
                    bufs=(res.records_a, res.records_b))

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), m=st.sampled_from([8, 16, 32]), flux=st.sampled_from(sorted(FLUXES)),
           scheme=st.sampled_from(SCHEMES), block=st.sampled_from([1, 2, 5, 16]),
           case=st.sampled_from(["stop", "none", "trip"]))
    def test_block_series_equal_per_step_reference(self, data, m, flux, scheme, block, case):
        basis = ModeBasis(m)
        model = ModelSpec(0.05, self.FLUXES[flux], NoiseSpec(c=0.2, q=3.0))
        n_steps = 3 * block + 4
        seed = data.draw(st.integers(0, 50), label="seed")
        if case == "trip":  # states small enough for the noise to grow them
            u0, v0 = (random_field(basis, seed, amp=1e-3),
                      random_field(basis, seed + 1, amp=1e-3))
        elif data.draw(st.booleans(), label="pm_e1"):  # a sine-mode difference
            a = data.draw(st.sampled_from([0.25, 0.5, 1.0]), label="amplitude")
            u0, v0 = mode_field(basis, 1, a), mode_field(basis, 1, -a)
        else:
            u0, v0 = random_field(basis, seed, amp=0.3), random_field(basis, seed + 1, amp=0.3)
        free = self.reference(model, SolverConfig(dt=1e-3, scheme=scheme), u0, v0, seed,
                              n_steps, None)
        assert free["trip"] is None
        # a step on the last row of a series block, the first or the second
        s = max(1, data.draw(st.integers(1, 3), label="block") * block
                + data.draw(st.sampled_from([-1, 0, 1]), label="row"))
        radius, stops = None, [None]
        if case == "stop":
            # thresholds at, and one ulp either side of, that step's distance
            stops = [free["l1"][s], np.nextafter(free["l1"][s], np.inf),
                     np.nextafter(free["l1"][s], -np.inf)]
        elif case == "trip":
            # the largest H1 mass up to that step, first reached there while
            # the noise grows the states; a stop threshold below every
            # distance keeps the stop test running
            radius = float(np.maximum(free["h1_a"], free["h1_b"])[1 : s + 1].max())
            stops = [None, 0.5 * float(free["l1"].min())]
        cfg = SolverConfig(dt=1e-3, scheme=scheme, guard_radius=radius)
        for stop in stops:
            with pytest.MonkeyPatch.context() as mp:
                # blocks of `block` pairs: a (2, m) block row reduces 2 n_fine points
                mp.setattr(observables, "_RECORD_BLOCK_POINTS",
                           2 * block * DEFAULT_FINE_FACTOR * m)
                want = self.reference(model, cfg, u0, v0, seed, n_steps, stop)
                got = self.outputs(run_coupled(
                    model, cfg, u0, v0, seed=seed, n_steps=n_steps,
                    record_every=self.RECORD_EVERY, lp_orders=self.LP_ORDERS,
                    stop_l1_below=stop))
            assert (got["trip"] is not None) == (case == "trip")
            assert got["step"] == want["step"] and got["t"] == want["t"]
            assert got["trip"] == want["trip"]
            for key in ("times", "l1", "c"):
                assert got[key].tobytes() == want[key].tobytes(), key
            for buf, ref in zip(got["bufs"], want["bufs"]):
                assert buf.column_names() == ref.column_names()
                for name in buf.column_names():
                    assert buf.column(name).tobytes() == ref.column(name).tobytes(), name


class TestCoupledStopInBlock:
    """run_coupled finds its stop in the series of a reduced block: a trip
    after the stop in the same block is dropped with the block's later
    pair-steps, a trip before it still ends the run, and at most one block
    of pair-steps past the stop is computed; each run equals
    TestCoupledSeries.reference, bit for bit."""

    MODEL = ModelSpec(0.05, FluxSpec("burgers"), NoiseSpec(c=0.2, q=3.0))
    SEED, BLOCK = 4, 8  # the second block of 8 pairs holds steps 9 to 16

    def run(self, monkeypatch, u0, v0, n_steps, stop, radius=None, block=None):
        basis = u0.basis
        if block is not None:  # blocks of `block` pairs
            monkeypatch.setattr(observables, "_RECORD_BLOCK_POINTS",
                                2 * block * DEFAULT_FINE_FACTOR * basis.m_max)
        cfg = SolverConfig(dt=1e-3, guard_radius=radius)
        want = TestCoupledSeries.reference(self.MODEL, cfg, u0, v0, self.SEED, n_steps, stop)
        got = TestCoupledSeries.outputs(run_coupled(
            self.MODEL, cfg, u0, v0, seed=self.SEED, n_steps=n_steps,
            record_every=TestCoupledSeries.RECORD_EVERY,
            lp_orders=TestCoupledSeries.LP_ORDERS, stop_l1_below=stop))
        assert got["step"] == want["step"] and got["t"] == want["t"]
        assert got["trip"] == want["trip"]
        for key in ("times", "l1", "c"):
            assert got[key].tobytes() == want[key].tobytes(), key
        for buf, ref in zip(got["bufs"], want["bufs"]):
            for name in ref.column_names():
                assert buf.column(name).tobytes() == ref.column(name).tobytes(), name
        return got

    def thresholds(self, stop_step, trip_step):
        """A stop threshold first passed at stop_step and a guard radius
        first reached at trip_step, from the free run of the small pair."""
        basis = ModeBasis(8)
        u0, v0 = random_field(basis, 0, amp=1e-3), random_field(basis, 1, amp=1e-3)
        free = TestCoupledSeries.reference(self.MODEL, SolverConfig(dt=1e-3), u0, v0,
                                           self.SEED, 24, None)
        l1, h1 = free["l1"], np.maximum(free["h1_a"], free["h1_b"])
        stop = np.nextafter(l1[stop_step], np.inf)
        assert (l1[1:stop_step] >= stop).all()
        assert (h1[1:trip_step] < h1[trip_step]).all()
        return u0, v0, stop, float(h1[trip_step])

    def test_stop_before_a_trip_in_its_block_drops_the_trip(self, monkeypatch):
        u0, v0, stop, radius = self.thresholds(11, 13)
        got = self.run(monkeypatch, u0, v0, 24, stop, radius, self.BLOCK)
        assert got["trip"] is None and got["step"] == 11

    def test_trip_before_a_stop_in_its_block_is_returned(self, monkeypatch):
        u0, v0, stop, radius = self.thresholds(14, 12)
        got = self.run(monkeypatch, u0, v0, 24, stop, radius, self.BLOCK)
        assert got["trip"] is not None and got["trip"].reason == "guard"
        assert got["step"] == 11

    # steps 1, rows, rows + 1 and 2 rows - 1: the first and last rows of
    # the first block of steps, and the first and next to last of the second
    @pytest.mark.parametrize("block,row", [(0, 1), (1, 0), (1, 1), (1, -1)])
    def test_wasted_pair_steps_are_under_one_block(self, monkeypatch, block, row):
        basis = ModeBasis(8)
        u0, v0 = mode_field(basis, 1, 0.5), mode_field(basis, 1, -0.5)
        rows = observables._RECORD_BLOCK_POINTS // (2 * DEFAULT_FINE_FACTOR * basis.m_max)
        step = block * rows + row % rows
        n_steps = 2 * rows + 8
        free = TestCoupledSeries.reference(self.MODEL, SolverConfig(dt=1e-3), u0, v0,
                                           self.SEED, n_steps, None)
        stop = np.nextafter(free["l1"][step], np.inf)
        assert (free["l1"][1:step] >= stop).all()
        calls = []
        advance = Stepper.advance

        def counted(stepper, c, xi, out=None):
            calls.append(1)
            return advance(stepper, c, xi, out)

        with monkeypatch.context() as mp:
            mp.setattr(Stepper, "advance", counted)
            res = run_coupled(self.MODEL, SolverConfig(dt=1e-3), u0, v0, seed=self.SEED,
                              n_steps=n_steps, stop_l1_below=stop)
        assert res.state_a.step == step
        assert len(calls) <= step + rows - 1
        self.run(monkeypatch, u0, v0, n_steps, stop)


class TestTripMidBlock:
    """A guard trip inside the second block, after the first was reduced,
    leaves each reducer (records, coupled series, histories) exactly the
    output of the same run stopped untripped at the step before the trip."""

    MODEL = ModelSpec(0.1, FluxSpec("burgers"), NoiseSpec(c=0.5, q=3.0))
    CFG, ROWS, SEED = SolverConfig(dt=1e-3), 4, 0

    def fields(self, basis):
        return random_field(basis, 0, amp=1e-3), random_field(basis, 1, amp=1e-3)

    def radius(self, h1):
        """The largest H1 mass up to step 6, which the noise reaches there
        first, and the step that reaches it: inside the second block of
        ROWS kept states (steps ROWS + 1 to 2 ROWS)."""
        r = float(h1[1:7].max())
        trip_step = int(np.argmax(h1[1:] >= r)) + 1
        assert self.ROWS < trip_step < 2 * self.ROWS
        return r, trip_step

    @pytest.mark.parametrize("reducer", ["records", "series", "history"])
    def test_trip_keeps_the_rows_before_it(self, monkeypatch, reducer):
        basis = ModeBasis(8)
        u0, v0 = self.fields(basis)
        n_fine = DEFAULT_FINE_FACTOR * basis.m_max
        pair = reducer == "series"
        monkeypatch.setattr(observables, "_RECORD_BLOCK_POINTS",
                            (1 + pair) * self.ROWS * n_fine)
        if pair:
            free = run_coupled(self.MODEL, self.CFG, u0, v0, seed=self.SEED, n_steps=20)
            r, trip_step = self.radius(np.maximum(free.records_a.column("h1_sq"),
                                                  free.records_b.column("h1_sq")))
        else:
            free = run_single(self.MODEL, self.CFG, u0, seed=self.SEED, n_steps=20)
            r, trip_step = self.radius(free.records.column("h1_sq"))
        cfg = SolverConfig(dt=self.CFG.dt, guard_radius=r)

        def outputs(n_steps):
            if reducer == "history":
                path = NoisePath(self.MODEL.noise, basis, self.SEED)
                xis = np.array([path.ou_increment(self.MODEL.nu, cfg.dt)
                                for _ in range(n_steps)])
                hist, trip = run_on_increments(self.MODEL, cfg, u0, xis)
                return trip, [hist]
            if pair:
                res = run_coupled(self.MODEL, cfg, u0, v0, seed=self.SEED, n_steps=n_steps,
                                  lp_orders=(2,))
                bufs = (res.records_a, res.records_b)
                arrays = [res.times, res.l1_series, res.state_a.u.coeffs, res.state_b.u.coeffs]
            else:
                res = run_single(self.MODEL, cfg, u0, seed=self.SEED, n_steps=n_steps,
                                 lp_orders=(2,))
                bufs, arrays = (res.records,), [res.state.u.coeffs]
            arrays += [buf.column(name) for buf in bufs for name in buf.column_names()]
            return res.trip, arrays

        trip, got = outputs(20)
        assert trip.reason == "guard" and trip.h1_sq >= r
        assert trip.t == (free.times if pair else free.records.column("t"))[trip_step]
        untripped, want = outputs(trip_step - 1)
        assert untripped is None
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        assert len(got[-1]) == trip_step  # the states of steps 0 .. trip_step - 1


class TestTripAtEachRow:
    """The step loop tests a kept block for blow-up once, after stepping it:
    a guard trip or a nan put into the flux at any row of a block (the
    first tested row, the last row, the first row of a wrapped block, at
    the floor of two rows and at four) gives the run of a per-step loop,
    bit for bit: records, coupled series, final state, t, step and trip.
    on_block sees nothing at or past the trip."""

    MODEL = ModelSpec(0.1, FluxSpec("burgers"), NoiseSpec(c=0.5, q=3.0))
    DT, SEED, N_STEPS, STEP0 = 2e-3, 3, 40, 5

    def free(self, basis, c, step0):
        """States and times of the untripped run, one step at a time from
        the path's own draws."""
        stepper = Stepper(self.MODEL, SolverConfig(dt=self.DT), basis)
        path = NoisePath(self.MODEL.noise, basis, self.SEED)
        path.draw_index = step0
        states, times = [c], [step0 * self.DT]
        for _ in range(self.N_STEPS):
            xi = np.broadcast_to(path.ou_increment(self.MODEL.nu, self.DT), c.shape).copy()
            states.append(stepper.advance(states[-1], xi))
            times.append(times[-1] + self.DT)
        return stepper, states, times

    @pytest.mark.parametrize("cause", ["guard", "nan"])
    @pytest.mark.parametrize("run", ["single", "resumed", "coupled"])
    @pytest.mark.parametrize("rows", [2, 4])
    def test_trip_equals_per_step_reference(self, monkeypatch, rows, run, cause):
        basis, pair = ModeBasis(8), run == "coupled"
        step0 = self.STEP0 if run == "resumed" else 0
        n_fine = DEFAULT_FINE_FACTOR * basis.m_max
        # a budget below one row's fine grid gives the floor of two rows
        budget = 1 if rows == 2 else rows * (1 + pair) * n_fine
        monkeypatch.setattr(observables, "_RECORD_BLOCK_POINTS", budget)
        u0 = np.stack([random_field(basis, 5, amp=1e-3).coeffs,
                       random_field(basis, 6, amp=1e-3).coeffs])
        stepper, states, times = self.free(basis, u0 if pair else u0[0], step0)
        h1 = [[h1_sq(basis, row) for row in np.atleast_2d(c)] for c in states]

        def row_of(s):  # the kept row of step step0 + s
            return (s - 1) % rows

        if cause == "nan":
            trip_steps = range(1, 2 * rows + 1)
        else:
            # the steps whose H1 mass passes every earlier one: a radius
            # there is first reached there, at every row position past the
            # first block and at the first tested row
            top = [max(m) for m in h1]
            trip_steps = [s for s in range(1, self.N_STEPS + 1) if top[s] > max(top[1:s] or [0])]
            assert {row_of(s) for s in trip_steps if s > rows} == set(range(rows))
        assert row_of(trip_steps[0]) == 0
        for s in trip_steps:
            radius, flux_value, calls = None, integrator.flux.flux_value, []

            def value(spec, v, out=None, _s=s):
                calls.append(1)
                out = flux_value(spec, v, out)
                if len(calls) == _s:  # one flux call per exp_euler step
                    np.atleast_2d(out)[int(pair), 3] = np.nan  # row b of a pair
                return out

            if cause == "guard":
                radius = max(h1[s])
                r = next(r for r, v in enumerate(h1[s]) if v >= radius)
                want_trip = (times[s - 1] + self.DT, h1[s][r], "guard")
            else:
                want_trip = (times[s - 1], h1[s - 1][int(pair)], "flux_overflow")
            cfg = SolverConfig(dt=self.DT, guard_radius=radius)
            seen, kept = [], range(int(step0 > 0), s)
            with monkeypatch.context() as mp:
                if cause == "nan":
                    mp.setattr(integrator.flux, "flux_value", value)
                if pair:
                    res = run_coupled(self.MODEL, cfg, *(SpectralField(c, basis) for c in u0),
                                      self.SEED, self.N_STEPS)
                else:
                    res = run_single(self.MODEL, cfg, SpectralField(u0[0], basis), self.SEED,
                                     self.N_STEPS, t0=times[0], step0=step0,
                                     on_block=lambda first, ts, block: seen.extend(
                                         zip(range(first, first + len(ts)), ts.tolist(),
                                             block.copy())))
            if pair:
                ends, bufs = (res.state_a, res.state_b), (res.records_a, res.records_b)
                l1 = [np.mean(np.abs(synthesize(states[k][0] - states[k][1], n_fine)))
                      for k in kept]
                assert res.times.tobytes() == np.array(times[:s]).tobytes()
                assert res.l1_series.tobytes() == np.array(l1).tobytes()
            else:
                ends, bufs = (res.state,), (res.records,)
                assert [(k, t) for k, t, _ in seen] == [(step0 + k, times[k]) for k in kept]
                assert (np.array([c for *_, c in seen]).tobytes()
                        == np.array([states[k] for k in kept]).tobytes())
            assert TestLeanStep.trip_of(res.trip) == want_trip, s
            for i, (end, buf) in enumerate(zip(ends, bufs)):
                assert (end.step, end.t) == (step0 + s - 1, times[s - 1])
                rows_i = [np.atleast_2d(states[k])[i] for k in kept]
                assert end.u.coeffs.tobytes() == np.atleast_2d(states[s - 1])[i].tobytes()
                want = TestRecordBlock.reference_rows(stepper, rows_i,
                                                      [times[k] for k in kept], (), radius)
                names = ("t", "l2_sq", "h1_sq", "h2_sq", "guard_margin")
                got = np.column_stack([buf.column(k) for k in names])
                assert got.tobytes() == want.tobytes(), s


class TestBlockClock:
    """The step loop sets a kept block's times by one np.add.accumulate of
    [t + dt, dt, dt, ...]: bitwise the repeated t += dt of a per-step loop,
    for fresh and resumed start times and any block size."""

    @pytest.mark.parametrize("dt", [1e-3, 2e-3, 0.01, 1.0 / 3.0, 7e-5, 0.1])
    @pytest.mark.parametrize("t0", [0.0, 1.7999999999999126, 123.456])
    def test_accumulate_equals_repeated_addition(self, dt, t0):
        n = 20_000
        want, t = np.empty(n), t0
        for k in range(n):
            t += dt
            want[k] = t
        for block in (2, 3, 256, 4096):
            got, t = np.empty(n), t0
            clock = np.full(block, dt)
            for k0 in range(0, n, block):
                k1 = min(n, k0 + block)
                clock[0] = t + dt
                np.add.accumulate(clock[: k1 - k0], out=got[k0:k1])
                t = float(got[k1 - 1])
            assert got.tobytes() == want.tobytes(), block


class TestCoupledL1Column:
    """A coupled run's l1_dist column is chosen by the record cadence of
    every other column: each record row holds the L1 distance of its own
    step, the l1_series value there, also when a stop ends a block early."""

    MODEL = ModelSpec(0.05, FluxSpec("burgers"), NoiseSpec(c=0.2, q=3.0))

    @pytest.mark.parametrize("every", [1, 3, 7])
    def test_l1_dist_is_the_series_at_each_record_step(self, monkeypatch, every):
        basis, rows = ModeBasis(8), 16
        monkeypatch.setattr(observables, "_RECORD_BLOCK_POINTS",
                            2 * rows * DEFAULT_FINE_FACTOR * basis.m_max)
        u0, v0 = mode_field(basis, 1, 0.5), mode_field(basis, 1, -0.5)
        cfg, n_steps = SolverConfig(dt=1e-3), 5 * rows
        free = run_coupled(self.MODEL, cfg, u0, v0, seed=4, n_steps=n_steps)
        step = 2 * rows + rows // 2 + 1  # the middle of the third block
        stop = np.nextafter(free.l1_series[step], np.inf)
        assert (free.l1_series[1:step] >= stop).all()
        res = run_coupled(self.MODEL, cfg, u0, v0, seed=4, n_steps=n_steps,
                          record_every=every, stop_l1_below=stop)
        assert res.state_a.step == step and res.trip is None
        for buf in (res.records_a, res.records_b):
            steps = np.searchsorted(res.times, buf.column("t"))
            assert steps.tolist() == list(range(0, step + 1, every))
            assert buf.column("t").tobytes() == res.times[steps].tobytes()
            assert buf.column("l1_dist").tobytes() == res.l1_series[steps].tobytes()
            # the cadence the column was written with before record_rows chose it
            assert buf.column("l1_dist").tobytes() == res.l1_series[::every].tobytes()


@np.errstate(over="ignore", invalid="ignore")
def picard_reference(u0, model, cfg, w):
    """The mild-form fixed point one row at a time: the per-row trapezoid
    recursion and nonlinear term that `picard_solve` evaluates by blocks,
    kept as the reference it must match bit for bit.  Returns (coeffs,
    converged, iterations, gaps)."""
    basis, dt, n = u0.basis, cfg.dt, len(w) - 1
    stepper = Stepper(model, cfg, basis)
    neg_lam = -basis.eigenvalues
    decay = np.exp(model.nu * basis.eigenvalues * dt)
    su0 = np.empty((n + 1, basis.m_max))
    su0[0] = u0.coeffs
    for i in range(n):
        su0[i + 1] = decay * su0[i]
    v = su0 + w
    v[0] = u0.coeffs
    gaps = []
    for it in range(1, integrator.PICARD_MAX_ITER + 1):
        f_prev = -stepper.nonlin(v[0])
        integral = np.zeros(basis.m_max)
        new = np.empty_like(v)
        new[0] = u0.coeffs
        for i in range(1, n + 1):
            f_i = -stepper.nonlin(v[i])
            integral = decay * integral + 0.5 * dt * (decay * f_prev + f_i)
            new[i] = su0[i] - integral + w[i]
            f_prev = f_i
        if not np.isfinite(integral).all():
            return np.tile(u0.coeffs, (n + 1, 1)), False, 0, [np.inf]
        gap = float(np.sqrt(np.max(np.sum(neg_lam * (new - v) ** 2, axis=1))))
        gaps.append(gap)
        v = new
        if gap < integrator.PICARD_TOL:
            return v, True, it, gaps
        if it > 2 and gap > 4.0 * gaps[-2]:
            return v, False, it, gaps
    return v, False, integrator.PICARD_MAX_ITER, gaps


PICARD_FLUXES = {"zero": FluxSpec("zero"), "burgers": FluxSpec("burgers"),
                 "linear": FluxSpec("polynomial", coefficients=[0.0, 3.0]),
                 "cubic": FluxSpec("polynomial", coefficients=[0.0, 0.0, 0.0, 1.0 / 3.0])}


class TestPicard:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(m=st.sampled_from([2, 8, 16, 32]), flux=st.sampled_from(sorted(PICARD_FLUXES)),
           scheme=st.sampled_from(SCHEMES), n=st.integers(2, 60),
           dt=st.sampled_from([1e-4, 1e-3, 5e-3, 0.02]), seed=st.integers(0, 2**32),
           amp=st.sampled_from([0.0, 0.1, 1.0, 10.0]))
    @example(m=16, flux="burgers", scheme="exp_euler", n=60, dt=0.02, seed=1,
             amp=50.0)  # does not contract
    @example(m=8, flux="cubic", scheme="exp_euler", n=10, dt=0.01, seed=0,
             amp=1e110)  # the flux overflows
    def test_block_solver_equals_row_reference(self, m, flux, scheme, n, dt, seed, amp):
        """The block solver reproduces the per-row reference bit for bit,
        coefficients, gaps, iteration count and convergence, with one block
        Stepper.nonlin call per iteration (the overflowing one among them)."""
        basis = ModeBasis(m)
        model = ModelSpec(0.05, PICARD_FLUXES[flux], NoiseSpec(c=0.3, q=3.0))
        cfg = SolverConfig(dt=dt, scheme=scheme)
        u0 = random_field(basis, seed, amp=amp)
        w = convolution_grid(NoisePath(model.noise, basis, seed), model.nu, dt, n)
        want = picard_reference(u0, model, cfg, w)
        shapes, nonlin = [], Stepper.nonlin
        with patch.object(Stepper, "nonlin",
                          lambda self, c: shapes.append(c.shape) or nonlin(self, c)):
            got = picard_solve(u0, model, cfg, w)
        assert got.coeffs.tobytes() == want[0].tobytes()
        assert (got.converged, got.iterations) == want[1:3]
        assert got.gaps.tobytes() == np.asarray(want[3], dtype=float).tobytes()
        assert shapes == [(n + 1, m)] * len(got.gaps)

    def test_zero_flux_converges_in_one_iteration(self):
        # A = 0: G does not depend on v, so the first iterate is the answer.
        basis = ModeBasis(8)
        spec = NoiseSpec(c=0.5, q=3.0)
        model = ModelSpec(0.2, FluxSpec("zero"), spec)
        cfg = SolverConfig(dt=0.01)
        u0 = random_field(basis, 5)
        w = convolution_grid(NoisePath(spec, basis, 31), model.nu, cfg.dt, 10)
        fixed = picard_solve(u0, model, cfg, w)
        assert fixed.converged and fixed.iterations == 1 and fixed.gaps[-1] < 1e-14
        # fixed point is S_t u0 + w(t) from the same realization
        decay = np.exp(model.nu * basis.eigenvalues * cfg.dt)
        su0 = u0.coeffs.copy()
        for i in range(1, 11):
            su0 = decay * su0
            np.testing.assert_allclose(fixed.coeffs[i], su0 + w[i], atol=1e-15)

    def test_gap_sequence_contracts_geometrically(self):
        basis = ModeBasis(16)
        model = ModelSpec(0.05, FluxSpec("burgers"), NoiseSpec(c=0.3, q=3.0))
        cfg = SolverConfig(dt=1e-3)
        u0 = random_field(basis, 7)
        fixed = picard_solve(u0, model, cfg,
                          convolution_grid(NoisePath(model.noise, basis, 11), model.nu, cfg.dt,
                                           100))
        assert fixed.converged
        gaps = fixed.gaps
        live = gaps > 100 * integrator.PICARD_TOL  # above the rounding floor
        ratios = gaps[1:][live[1:]] / gaps[:-1][live[1:]]
        assert np.all(ratios < 0.5)

    def test_agreement_with_stepper_is_first_order(self):
        # Same realization at two resolutions: the sup-t H1 gap between the
        # fixed point and the exponential-Euler trajectory halves with dt.
        basis = ModeBasis(16)
        model = ModelSpec(0.05, FluxSpec("burgers"), NoiseSpec(c=0.3, q=3.0))
        u0 = random_field(basis, 7)
        dtc, nf = 2e-3, 200  # fine grid at dtc/2 covering horizon 0.4
        w = convolution_grid(NoisePath(model.noise, basis, 5), model.nu, dtc / 2, nf)
        gaps = []
        for ddt, stride in ((dtc, 2), (dtc / 2, 1)):
            cfg = SolverConfig(dt=ddt)
            fixed = picard_solve(u0, model, cfg, w[::stride])
            assert fixed.converged
            xis = increments_from_grid(w, model.nu, basis, ddt, stride)
            traj, _ = run_on_increments(model, cfg, u0, xis)
            gaps.append(sup_h1(traj - fixed.coeffs, basis))
        assert gaps[0] / gaps[1] > 1.8

    def test_non_contraction_reported_not_raised(self):
        # Violent data on a long horizon: the map expands, and the solver
        # reports it on the whole grid.
        basis = ModeBasis(16)
        model = ModelSpec(0.05, FluxSpec("burgers"), NoiseSpec(sigma=np.zeros(16)))
        u0 = random_field(basis, 13, amp=50.0)
        fixed = picard_solve(u0, model, SolverConfig(dt=0.01), np.zeros((201, 16)))
        assert not fixed.converged and fixed.coeffs.shape == (201, 16)
        assert len(fixed.gaps) == fixed.iterations < integrator.PICARD_MAX_ITER
        assert fixed.gaps[-1] > 4.0 * fixed.gaps[-2]

    def test_overflow_in_every_attempt_is_reported(self):
        # the cubic flux of 1e110 e1 overflows at once: the solve fails
        # after 0 iterations, and the reported trajectory holds u0 at every time
        basis = ModeBasis(8)
        cubic = FluxSpec("polynomial", coefficients=[0.0, 0.0, 0.0, 1.0 / 3.0])
        model = ModelSpec(0.1, cubic, NoiseSpec(sigma=np.zeros(8)))
        u0 = mode_field(basis, 1, 1e110)
        fixed = picard_solve(u0, model, SolverConfig(dt=0.01), np.zeros((11, 8)))
        assert not fixed.converged and fixed.iterations == 0
        assert fixed.gaps.tolist() == [np.inf]
        assert fixed.coeffs.tobytes() == np.tile(u0.coeffs, (11, 1)).tobytes()


class TestSnapshotResume:
    def _setup(self):
        basis = ModeBasis(16)
        model = ModelSpec(0.05, FluxSpec("burgers"), NoiseSpec(c=0.5, q=3.0))
        cfg = SolverConfig(dt=1e-3, guard_radius=1e6)
        return basis, model, cfg, random_field(basis, 20)

    def test_round_trip(self, tmp_path):
        basis, model, cfg, u0 = self._setup()
        res = run_single(model, cfg, u0, seed=5, n_steps=40)
        path = tmp_path / "state.snap"
        with open(path, "wb") as fp:
            write_snapshot(fp, res.state.u.coeffs, res.state.t, res.state.step, model, cfg, 5)
        with open(path, "rb") as fp:
            snap = read_snapshot(fp)
        assert snap.m_max == 16 and snap.scheme == "exp_euler"
        assert snap.t == res.state.t and snap.step == 40 and snap.seed == 5
        assert snap.nu == model.nu
        assert np.array_equal(snap.coeffs, res.state.u.coeffs)

    def test_corrupt_inputs_rejected(self):
        basis, model, cfg, u0 = self._setup()
        buf = io.BytesIO()
        write_snapshot(buf, u0.coeffs, 0.0, 0, model, cfg, 1)
        raw = buf.getvalue()
        with pytest.raises(ValueError, match="magic"):
            read_snapshot(io.BytesIO(b"XXXX" + raw[4:]))
        with pytest.raises(ValueError, match="version"):
            read_snapshot(io.BytesIO(raw[:4] + b"\x63\x00\x00\x00" + raw[8:]))
        with pytest.raises(ValueError, match="truncated"):
            read_snapshot(io.BytesIO(raw[:-8]))

    def test_bytes_past_the_coefficients_rejected(self):
        # a snapshot is its header and the header's m_max coefficients: a
        # valid m=8 one with bytes appended is refused, not read as its head
        _, model, cfg, _ = self._setup()
        c = random_field(ModeBasis(8), 3).coeffs
        buf = io.BytesIO()
        write_snapshot(buf, c, 0.25, 250, model, cfg, 1)
        raw = buf.getvalue()
        assert read_snapshot(io.BytesIO(raw)).coeffs.tobytes() == c.tobytes()
        for extra in (b"\x00", bytes(24)):
            with pytest.raises(ValueError, match="past its 8 coefficients"):
                read_snapshot(io.BytesIO(raw + extra))

    @pytest.mark.parametrize("m_max", [7, 1, 0])
    def test_m_max_no_basis_holds_rejected(self, m_max):
        # a header m_max (bytes 8..12) that is odd or below 2, with the file
        # cut to that many coefficients, is no snapshot of any ModeBasis
        _, model, cfg, _ = self._setup()
        buf = io.BytesIO()
        write_snapshot(buf, random_field(ModeBasis(8), 3).coeffs, 0.25, 250, model, cfg, 1)
        raw = bytearray(buf.getvalue()[: 48 + 8 * m_max])
        raw[8:12] = m_max.to_bytes(4, "little")
        with pytest.raises(ValueError, match=f"m_max {m_max} is not an even mode count"):
            read_snapshot(io.BytesIO(bytes(raw)))

    @pytest.mark.parametrize("m_max", [2**24, 2**32 - 1])
    def test_header_m_max_never_sizes_a_read(self, m_max):
        # a header claiming more coefficients than the file holds (bytes
        # 8..12 are m_max) is a truncated snapshot, found without asking
        # the file for more than it holds
        basis, model, cfg, u0 = self._setup()
        buf = io.BytesIO()
        write_snapshot(buf, u0.coeffs, 0.0, 0, model, cfg, 1)
        raw = bytearray(buf.getvalue())
        raw[8:12] = m_max.to_bytes(4, "little")

        class Reads(io.BytesIO):
            def read(self, n=-1):
                self.asked.append(n)
                return super().read(n)

        fp = Reads(bytes(raw))
        fp.asked = []
        with pytest.raises(ValueError, match="truncated"):
            read_snapshot(fp)
        assert fp.asked and all(n is None or 0 <= n <= len(raw) or n == -1 for n in fp.asked)

    def test_resume_is_bitwise(self):
        basis, model, cfg, u0 = self._setup()
        full = run_single(model, cfg, u0, seed=5, n_steps=200, lp_orders=(2,))
        half = run_single(model, cfg, u0, seed=5, n_steps=100, lp_orders=(2,))
        hist = tuple(half.records.column(k)[-64:]
                     for k in ("t", "l2_sq", "h1_sq"))
        cont = run_single(model, cfg, half.state.u, seed=5, n_steps=100,
                          lp_orders=(2,), t0=half.state.t, step0=half.state.step,
                          residual_history=hist)
        assert np.array_equal(full.state.u.coeffs, cont.state.u.coeffs)
        assert full.state.t == cont.state.t
        # every record column continues bitwise, the windowed residual included
        n_half = len(half.records)
        for name in full.records.column_names():
            whole = full.records.column(name)
            glued = np.concatenate([half.records.column(name),
                                    cont.records.column(name)])
            np.testing.assert_array_equal(whole, glued, err_msg=name)
            assert len(whole) == n_half + len(cont.records)

    def test_resume_skips_initial_record(self):
        basis, model, cfg, u0 = self._setup()
        cont = run_single(model, cfg, u0, seed=5, n_steps=10, t0=0.1, step0=100)
        # rows only at steps 101..110, no duplicate of the snapshot row
        assert len(cont.records) == 10
        assert cont.records.column("t")[0] > 0.1


class TestRunDrivers:
    def test_record_cadence(self):
        basis = ModeBasis(8)
        model = silent_model(m=8)
        res = run_single(model, SolverConfig(dt=0.01), random_field(basis, 1),
                         seed=0, n_steps=100, record_every=10)
        assert len(res.records) == 11
        np.testing.assert_allclose(np.diff(res.records.column("t")), 0.1,
                                   atol=1e-12)

    def test_history_endpoints(self):
        basis = ModeBasis(8)
        model = ModelSpec(0.1, FluxSpec("burgers"), NoiseSpec(c=0.3, q=3.0))
        cfg = SolverConfig(dt=0.01)
        u0 = random_field(basis, 6)
        path = NoisePath(model.noise, basis, 1)
        xis = np.array([path.ou_increment(model.nu, cfg.dt) for _ in range(50)])
        hist, trip = run_on_increments(model, cfg, u0, xis)
        states = []
        res = run_single(model, cfg, u0, seed=1, n_steps=50,
                         on_block=lambda first, times, block: states.extend(block.copy()))
        assert trip is None and hist.shape == (51, 8)
        assert np.array_equal(hist[0], u0.coeffs)
        assert np.array_equal(hist[-1], res.state.u.coeffs)
        assert hist.tobytes() == np.array(states).tobytes()

    def test_column_discipline(self):
        basis = ModeBasis(8)
        model = ModelSpec(0.1, FluxSpec("burgers"), NoiseSpec(c=0.3, q=3.0))
        cfg = SolverConfig(dt=0.01, guard_radius=100.0)
        res = run_single(model, cfg, random_field(basis, 2), seed=2, n_steps=30,
                         lp_orders=(2, 4))
        buf = res.records
        assert np.all(np.isnan(buf.column("l1_dist")))  # single run
        margins = buf.column("guard_margin")
        np.testing.assert_allclose(margins, 100.0 - buf.column("h1_sq"))
        lp2 = buf.column("lp2_p")
        np.testing.assert_allclose(lp2, buf.column("l2_sq"), rtol=1e-10)

    def test_windowed_residual_on_heat_decay(self):
        # Pure heat: d/dt l2 = -2 nu h1 exactly, so the windowed residual is
        # trapezoid-error small at any window position.
        basis = ModeBasis(8)
        model = silent_model(nu=0.05, m=8)
        res = run_single(model, SolverConfig(dt=1e-3), mode_field(basis, 1, 1.0),
                         seed=0, n_steps=300, residual_window=64)
        resid = res.records.column("energy_residual")
        assert np.isnan(resid[0])
        assert np.nanmax(np.abs(resid)) < 2e-5  # trapezoid bias at this dt

    def test_coupled_records_carry_distance(self):
        basis = ModeBasis(8)
        model = ModelSpec(0.1, FluxSpec("burgers"), NoiseSpec(c=0.3, q=3.0))
        res = run_coupled(model, SolverConfig(dt=0.01), random_field(basis, 1),
                          random_field(basis, 2), seed=4, n_steps=40,
                          record_every=10)
        d = res.records_a.column("l1_dist")
        assert np.all(np.isfinite(d))
        np.testing.assert_array_equal(d, res.records_b.column("l1_dist"))
        assert len(res.times) == 41 and len(res.l1_series) == 41
        assert len(res.records_a) == len(res.records_b) == 5


class TestZeroSteps:
    """A run of no steps returns its start at its own step, as a Python
    int, with no trip: a fresh start with its one record row, series entry
    or history row, a resumed one with no record row."""

    MODEL = ModelSpec(0.1, FluxSpec("burgers"), NoiseSpec(c=0.3, q=3.0))
    CFG = SolverConfig(dt=0.01, guard_radius=1e6)

    @pytest.mark.parametrize("step0", [0, 7])
    def test_run_single(self, step0):
        basis = ModeBasis(8)
        u0 = random_field(basis, 1)
        seen = []
        res = run_single(self.MODEL, self.CFG, u0, seed=1, n_steps=0, t0=step0 * self.CFG.dt,
                         step0=step0, on_block=lambda first, ts, block: seen.append(first))
        assert res.trip is None and type(res.state.step) is int and res.state.step == step0
        assert res.state.t == step0 * self.CFG.dt
        assert res.state.u.coeffs.tobytes() == u0.coeffs.tobytes()
        assert res.state.u.coeffs is not u0.coeffs
        assert len(res.records) == seen.count(0) == (step0 == 0)

    def test_run_coupled(self):
        basis = ModeBasis(8)
        u0, v0 = random_field(basis, 1), random_field(basis, 2)
        res = run_coupled(self.MODEL, self.CFG, u0, v0, seed=1, n_steps=0, stop_l1_below=1e9)
        assert res.trip is None
        for end, start in ((res.state_a, u0), (res.state_b, v0)):
            assert type(end.step) is int and (end.step, end.t) == (0, 0.0)
            assert end.u.coeffs.tobytes() == start.coeffs.tobytes()
        assert res.times.tolist() == [0.0] and len(res.l1_series) == 1
        assert len(res.records_a) == len(res.records_b) == 1

    def test_run_on_increments(self):
        basis = ModeBasis(8)
        u0 = random_field(basis, 1)
        hist, trip = run_on_increments(self.MODEL, self.CFG, u0, np.empty((0, 8)))
        assert trip is None and hist.tobytes() == u0.coeffs[None].tobytes()


class TestStopBelowAtStart:
    def test_pair_starting_below_the_stop_stops_at_its_first_step_below(self):
        # the initial pair is reduced alone and never stops the run: a pair
        # whose start is already below the threshold runs to its first
        # step below it, and equals the free run up to there
        basis = ModeBasis(8)
        model = ModelSpec(0.1, FluxSpec("burgers"), NoiseSpec(c=0.3, q=3.0))
        cfg, u0, v0 = SolverConfig(dt=0.01), mode_field(basis, 1, 0.5), mode_field(basis, 2, 0.5)
        free = run_coupled(model, cfg, u0, v0, seed=3, n_steps=40)
        stop = np.nextafter(free.l1_series[0], np.inf)
        first = 1 + int(np.argmax(free.l1_series[1:] < stop))
        assert free.l1_series[first] < stop
        res = run_coupled(model, cfg, u0, v0, seed=3, n_steps=40, stop_l1_below=stop)
        assert res.trip is None and res.state_a.step == first
        assert res.l1_series.tobytes() == free.l1_series[: first + 1].tobytes()
        assert res.times.tobytes() == free.times[: first + 1].tobytes()
