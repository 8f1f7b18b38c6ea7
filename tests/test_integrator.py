"""Integrator: scheme exactness, convergence orders, guards, coupling,
the Picard cross-check, and snapshot/resume determinism."""

import io
import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from svcl import integrator
from svcl.flux import FluxSpec, dealias_points, flux_value
from svcl.integrator import (
    _RECORD_BLOCK_POINTS,
    SCHEMES,
    BlowupError,
    ModelSpec,
    SolverConfig,
    State,
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
from svcl.noise import NoisePath, NoiseSpec
from svcl.observables import DEFAULT_FINE_FACTOR, RecordBuffer
from svcl.spectral import (ModeBasis, SpectralField, analyze, mode_field, pair_weights,
                           rotate_pairs, synthesize)

FOUR_PI_SQ = 39.47841760435743


def random_field(basis, seed, decay=1.5, amp=1.0):
    rng = np.random.default_rng(seed)
    c = amp * rng.standard_normal(basis.m_max) / basis.pair_index.astype(float) ** decay
    return SpectralField(c, basis)


def h1_norm(basis, coeffs):
    return np.sqrt(np.sum(-basis.eigenvalues * coeffs**2, axis=-1))


def silent_model(nu=0.1, m=16):
    return ModelSpec(nu, FluxSpec("zero"), NoiseSpec(sigma=np.zeros(m)))


class TestValidation:
    def test_model_requires_positive_viscosity(self):
        with pytest.raises(ValueError, match="nu"):
            ModelSpec(0.0, FluxSpec("zero"), NoiseSpec(sigma=np.zeros(4)))

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
            ref = run_on_increments(
                model, SolverConfig(dt=dt / 4), u0,
                increments_from_grid(w, model.nu, basis, dt / 4, 1))
            errs = []
            for stride, ddt in ((4, dt), (2, dt / 2)):
                xis = increments_from_grid(w, model.nu, basis, ddt, stride)
                traj = run_on_increments(model, SolverConfig(dt=ddt), u0, xis)
                errs.append(np.max(h1_norm(basis, traj - ref[::stride])))
            assert errs[0] / errs[1] > 1.7  # order >= 1 strong

    def test_run_on_increments_matches_run_single(self):
        basis = ModeBasis(8)
        model = ModelSpec(0.1, FluxSpec("burgers"), NoiseSpec(c=0.4, q=3.0))
        cfg = SolverConfig(dt=0.005)
        u0 = random_field(basis, 9)
        res = run_single(model, cfg, u0, seed=21, n_steps=100, keep_coeffs=True)
        w = convolution_grid(NoisePath(model.noise, basis, 21), model.nu, cfg.dt, 100)
        traj = run_on_increments(model, cfg, u0,
                                 increments_from_grid(w, model.nu, basis, cfg.dt, 1))
        np.testing.assert_allclose(traj, res.coeff_history, atol=1e-13)


class TestBlock:
    FLUXES = {"burgers": FluxSpec("burgers"), "zero": FluxSpec("zero"),
              "cubic": FluxSpec("polynomial", coefficients=[0.0, 0.5, -0.2, 1.0 / 3.0])}

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), rows=st.integers(1, 4), m=st.sampled_from([8, 16, 32]),
           flux=st.sampled_from(sorted(FLUXES)), scheme=st.sampled_from(SCHEMES))
    @np.errstate(over="ignore", invalid="ignore")
    def test_block_equals_rows_bitwise(self, data, rows, m, flux, scheme):
        # one call on an (R, m) block of same-noise states must give each
        # row's own 1-D result bit for bit, as must the transforms under it;
        # rows scaled by 1e160 overflow any nonzero flux, and the block's
        # trip must be the first one found by stepping each row alone, with
        # no guard or a guard at the H1 mass of one row's step
        block = data.draw(arrays(float, (rows, m), elements=st.floats(-2.0, 2.0)))
        block *= data.draw(arrays(float, (rows, 1), elements=st.sampled_from([1e160, 1.0])))
        xi = data.draw(arrays(float, m, elements=st.floats(-0.1, 0.1)))
        basis = ModeBasis(m)
        model = ModelSpec(0.1, self.FLUXES[flux], NoiseSpec(sigma=np.zeros(m)))
        stepper = Stepper(model, SolverConfig(dt=1e-3, scheme=scheme), basis)
        out = stepper.advance(block, xi)
        n = dealias_points(model.flux, basis)
        samples = synthesize(block, n)
        coeffs = analyze(samples, m)
        assert out.shape == block.shape and coeffs.shape == block.shape
        for i, row in enumerate(block):
            assert stepper.advance(row, xi).tobytes() == out[i].tobytes()
            assert synthesize(row, n).tobytes() == samples[i].tobytes()
            assert analyze(samples[i], m).tobytes() == coeffs[i].tobytes()
        finite = [i for i, row in enumerate(out) if np.isfinite(row).all()]
        guard_row = data.draw(st.sampled_from([None, *finite]))
        r = None if guard_row is None else stepper.h1_sq(out[guard_row])
        cfg = SolverConfig(dt=1e-3, scheme=scheme,
                           guard_radius=r if r is not None and 0 < r < np.inf else None)
        checked = Stepper(model, cfg, basis)
        trip = integrator._find_trip(checked, block, checked.advance(block, xi), 1e-3)
        alone = [integrator._find_trip(checked, row, checked.advance(row, xi), 1e-3)
                 for row in block]
        assert trip == next((a for a in alone if a is not None), None)


def _ref_flux(spec, v):
    if spec.kind == "burgers":
        return 0.5 * v * v
    if spec.kind == "polynomial":
        return np.polynomial.polynomial.polyval(v, spec.coefficients)
    return np.asarray(spec.value_fn(v), dtype=float)


def _ref_nonlin(spec, c, basis):
    """N(c) with allocating transforms and polyval, no workspace."""
    if spec.kind == "zero":
        return np.zeros_like(c)
    v = synthesize(c, dealias_points(spec, basis))
    return rotate_pairs(analyze(_ref_flux(spec, v), basis.m_max), pair_weights(-basis.wavenumbers))


def _ref_advance(stepper, c, xi):
    """The scheme update written out as one expression per scheme."""
    def n(x):
        return _ref_nonlin(stepper.model.flux, x, stepper.basis)

    dt = stepper.dt
    if stepper.model.flux.kind == "zero":
        return stepper.decay * c + xi
    if stepper.cfg.scheme == "exp_euler":
        return stepper.decay * (c + dt * n(c)) + xi
    pred = stepper.half_decay * (c + 0.5 * dt * n(c))
    return stepper.decay * c + dt * stepper.half_decay * n(pred) + xi


class TestPlan:
    """Stepper's per-shape workspaces and the Horner flux reproduce the
    allocating kernels with polyval bit for bit."""

    FLUXES = {
        "burgers": FluxSpec("burgers"), "zero": FluxSpec("zero"),
        "cubic": FluxSpec("polynomial", coefficients=[0.0, 0.5, -0.2, 1.0 / 3.0]),
        "callback": FluxSpec("callback", value_fn=lambda v: v * np.sin(v),
                             deriv_fn=lambda v: np.sin(v) + v * np.cos(v),
                             growth_constant=2.0, growth_exponent=1),
    }

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), rows=st.sampled_from([None, 1, 2, 3]),
           m=st.sampled_from([4, 8, 16, 32]), flux=st.sampled_from(sorted(FLUXES)),
           scheme=st.sampled_from(SCHEMES), exp=st.sampled_from([*range(-5, 4), 160]))
    @np.errstate(over="ignore", invalid="ignore")
    def test_plan_matches_reference_bitwise(self, data, rows, m, flux, scheme, exp):
        shape = (m,) if rows is None else (rows, m)
        c = data.draw(arrays(float, shape, elements=st.floats(-2.0, 2.0))) * 10.0**exp
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
        out = stepper.advance(c, xi)
        assert out.tobytes() == _ref_advance(stepper, c, xi).tobytes()
        # returned arrays are fresh: later calls leave them as they were
        assert (n_big.tobytes(), a_big.tobytes()) == keep
        before = out.tobytes()
        stepper.advance(out, xi)
        stepper.nonlin(c)
        assert out.tobytes() == before

    def test_horner_matches_polyval_bitwise(self):
        # coefficient counts 1..5 with signed zeros, magnitudes to 1e80 so
        # that some values overflow, and inf and nan inputs
        rng = np.random.default_rng(2)
        v = np.concatenate([rng.standard_normal(200) * 10.0 ** rng.integers(-5, 81, 200),
                            [0.0, -0.0, np.inf, -np.inf, np.nan]])
        for _ in range(300):
            n = int(rng.integers(1, 6))
            coef = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n)
            coef[rng.random(n) < 0.3] = rng.choice([0.0, -0.0])
            spec = FluxSpec("polynomial", coefficients=coef, growth_constant=1e9,
                            growth_exponent=max(n - 2, 1))
            with np.errstate(over="ignore", invalid="ignore"):
                got = flux_value(spec, v)
                want = np.polynomial.polynomial.polyval(v, coef)
            assert got.tobytes() == want.tobytes()


class TestRecordBlock:
    """Records reduced a block of kept states at a time equal rows reduced
    from one state at a time, whatever the block boundaries."""

    MODEL = ModelSpec(0.1, FluxSpec("burgers"), NoiseSpec(c=0.5, q=3.0))
    DT = 4e-3

    @staticmethod
    def reference_rows(stepper, states, times, lp_orders, r):
        """The record columns but l1_dist and energy_residual, per state."""
        rows = []
        for t, c in zip(times, states):
            cc = c * c
            h1 = np.dot(stepper.neg_lam, cc)
            vals = np.abs(synthesize(c, stepper.n_fine))
            rows.append([t, np.dot(c, c), h1, np.dot(stepper.lam_sq, cc)]
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
        rows = _RECORD_BLOCK_POINTS // (n_bufs * DEFAULT_FINE_FACTOR * m)
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
        h1 = np.array([[stepper.h1_sq(c) for c in s] for s in states])
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
        assert res.tripped == (stop < n_steps)
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
        # a flush budget below one row's fine grid gives blocks of one row,
        # which must be reduced before the next recorded state is kept
        monkeypatch.setattr(integrator, "_RECORD_BLOCK_POINTS", 1)
        self.check_against_rows(ModeBasis(8), coupled, step0, n_steps=5)

    def test_one_row_blocks_at_large_m(self):
        # m = 4096: one row already fills the flush budget
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
            radius = max(ref.h1_sq(row) for c in states[1 : last + 1] for row in c)
        cfg = SolverConfig(dt=self.DT, scheme=scheme, guard_radius=radius)
        fields = [SpectralField(row, basis) for row in u0]

        states, times, trip = self.ref_run(ref, u0[0], xis, radius)
        res = run_single(model, cfg, fields[0], seed, n_steps, record_every=every,
                         keep_coeffs=True)
        assert self.trip_of(res.trip) == trip
        assert (res.state.step, res.state.t) == (len(states) - 1, times[-1])
        assert res.coeff_history.tobytes() == np.array(states).tobytes()
        self.check_records(ref, res.records, states, times, every, radius)
        if trip is None:
            got = run_on_increments(model, cfg, fields[0], np.array(xis))
            assert got.tobytes() == np.array(states).tobytes()
        else:
            with pytest.raises(BlowupError) as err:
                run_on_increments(model, cfg, fields[0], np.array(xis))
            assert (err.value.t, err.value.h1_sq, err.value.reason) == trip

        states, times, trip = self.ref_run(ref, u0, xis, radius)
        res = run_coupled(model, cfg, *fields, seed, n_steps, record_every=every)
        assert self.trip_of(res.trip) == trip
        for r, end in enumerate((res.state_a, res.state_b)):
            assert (end.step, end.t) == (len(states) - 1, times[-1])
            assert end.u.coeffs.tobytes() == states[-1][r].tobytes()
        assert res.times.tobytes() == np.array(times).tobytes()
        for r, buf in enumerate((res.records_a, res.records_b)):
            self.check_records(ref, buf, [c[r] for c in states], times, every, radius)


class TestContinuousDependence:
    def test_h2_gap_proportional_to_perturbation(self):
        # Fixed noise path, u0 vs u0 + delta e_1: sup_t H2 distance scales
        # linearly in delta across three decades.
        basis = ModeBasis(16)
        model = ModelSpec(0.05, FluxSpec("burgers"), NoiseSpec(c=0.3, q=3.0))
        cfg = SolverConfig(dt=1e-3)
        u0 = random_field(basis, 7)
        lam2 = basis.eigenvalues**2
        base = run_single(model, cfg, u0, seed=9, n_steps=300,
                          keep_coeffs=True).coeff_history
        ratios = []
        for delta in (1e-2, 1e-3, 1e-4):
            pert = SpectralField(u0.coeffs + delta * mode_field(basis, 1).coeffs,
                                 basis)
            other = run_single(model, cfg, pert, seed=9, n_steps=300,
                               keep_coeffs=True).coeff_history
            sup = np.max(np.sqrt(np.sum(lam2 * (other - base) ** 2, axis=1)))
            ratios.append(sup / delta)
        assert max(ratios) / min(ratios) < 1.5


class TestGuard:
    def test_zero_field_never_trips(self):
        basis = ModeBasis(8)
        cfg = SolverConfig(dt=0.01, guard_radius=1e-6)
        res = run_single(silent_model(m=8), cfg, SpectralField(basis.zeros(), basis),
                         seed=0, n_steps=50)
        assert not res.tripped and res.state.step == 50

    def test_single_mode_trips_exactly_at_threshold(self):
        # A = 0, sigma = 0: the first stepped state is E e_1, and a radius
        # equal to its H1 mass trips at step 1 while a hair more never does
        basis = ModeBasis(8)
        model = silent_model(m=8)
        u0 = mode_field(basis, 1, 1.0)
        stepper = Stepper(model, SolverConfig(dt=0.01), basis)
        r = stepper.h1_sq(stepper.advance(u0.coeffs, np.zeros(8)))
        res = run_single(model, SolverConfig(dt=0.01, guard_radius=r), u0,
                         seed=0, n_steps=20)
        assert res.tripped and res.trip.reason == "guard" and res.trip.h1_sq == r
        assert res.trip.t == 0.01 and res.state.step == 0
        res = run_single(model, SolverConfig(dt=0.01, guard_radius=r * (1 + 1e-12)),
                         u0, seed=0, n_steps=20)
        assert not res.tripped and res.state.step == 20

    def test_step_raises_on_guard(self):
        basis = ModeBasis(8)
        model = ModelSpec(0.1, FluxSpec("zero"), NoiseSpec(c=2.0, q=3.0))
        cfg = SolverConfig(dt=0.01, guard_radius=1e-8)
        path = NoisePath(model.noise, basis, 3)
        xis = np.array([path.ou_increment(model.nu, cfg.dt) for _ in range(50)])
        with pytest.raises(BlowupError) as err:
            run_on_increments(model, cfg, SpectralField(basis.zeros(), basis), xis)
        assert err.value.reason == "guard"
        assert err.value.h1_sq >= 1e-8

    def test_run_single_captures_trip(self):
        basis = ModeBasis(8)
        model = ModelSpec(0.1, FluxSpec("zero"), NoiseSpec(c=2.0, q=3.0))
        cfg = SolverConfig(dt=0.01, guard_radius=1e-8)
        res = run_single(model, cfg, SpectralField(basis.zeros(), basis),
                         seed=3, n_steps=100)
        assert res.tripped and res.trip.reason == "guard"
        assert res.state.t < 100 * 0.01  # halted early
        assert len(res.records) < 101

    def test_flux_overflow_becomes_trip(self):
        basis = ModeBasis(8)
        cubic = FluxSpec("polynomial", coefficients=[0.0, 0.0, 0.0, 1.0 / 3.0])
        model = ModelSpec(0.1, cubic, NoiseSpec(sigma=np.zeros(8)))
        cfg = SolverConfig(dt=0.01)
        u0 = mode_field(basis, 1, 1e110)
        with pytest.raises(BlowupError) as err:
            run_on_increments(model, cfg, u0, np.zeros((1, 8)))
        assert err.value.reason == "flux_overflow"
        res = run_single(model, cfg, u0, seed=0, n_steps=10)
        assert res.tripped and res.trip.reason == "flux_overflow"
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
        hist = run_on_increments(model, cfg, u0, xis)
        assert len(hist) == 31 and np.isfinite(hist).all()
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
                           record_every=400).tripped
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
        res = run_coupled(model, cfg, u0, u0.copy(), seed=17, n_steps=200)
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
        r = stepper.h1_sq(stepper.advance(b0, np.zeros(8)))
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
        assert res.trip.h1_sq == stepper.h1_sq(b0) and res.trip.t == 0.0
        assert np.array_equal(res.state_b.u.coeffs, b0)

    def test_nan_in_second_row_trips_at_its_step(self):
        # a callback flux equal to burgers' that puts a nan into row b's
        # flux samples on its 4th call, the 4th exp_euler step: the rows
        # are checked in order, so a passes and b trips as flux_overflow
        # from the state time and H1 mass before that step, and both rows
        # keep their states from before it, those of a 3-step burgers run
        basis = ModeBasis(8)
        calls = []

        def value(v):
            calls.append(v.shape)
            out = 0.5 * v * v
            if len(calls) == 4:
                out[1, 3] = np.nan
            return out

        flux = FluxSpec("callback", value_fn=value, deriv_fn=lambda v: v,
                        growth_constant=1.0, growth_exponent=1)
        noise, cfg = NoiseSpec(c=0.5, q=3.0), SolverConfig(dt=0.01)
        u0, v0 = mode_field(basis, 1, 0.5), mode_field(basis, 2, -0.7)
        res = run_coupled(ModelSpec(0.1, flux, noise), cfg, u0, v0, seed=4, n_steps=10)
        burgers = ModelSpec(0.1, FluxSpec("burgers"), noise)
        ref = run_coupled(burgers, cfg, u0, v0, seed=4, n_steps=3)
        assert len(calls) == 4 and calls[-1][0] == 2
        assert res.trip.reason == "flux_overflow"
        assert res.state_a.step == res.state_b.step == 3
        assert res.trip.t == res.state_a.t == ref.state_a.t
        assert res.state_a.u.coeffs.tobytes() == ref.state_a.u.coeffs.tobytes()
        assert res.state_b.u.coeffs.tobytes() == ref.state_b.u.coeffs.tobytes()
        assert res.trip.h1_sq == Stepper(burgers, cfg, basis).h1_sq(ref.state_b.u.coeffs)
        assert res.l1_series.tobytes() == ref.l1_series.tobytes()

    def test_first_row_guard_wins_over_second_row_overflow(self):
        # rows trip in row order: a's guard is reported, not b's overflow
        basis = ModeBasis(8)
        cubic = FluxSpec("polynomial", coefficients=[0.0, 0.0, 0.0, 1.0 / 3.0])
        a0 = mode_field(basis, 1, 1.0).coeffs
        stepper, res = self._trip_pair(cubic, 1.0, a0, mode_field(basis, 1, 1e110).coeffs)
        assert res.trip.reason == "guard"
        assert res.trip.h1_sq == stepper.h1_sq(stepper.advance(a0, np.zeros(8)))
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
        assert res.h1_sq_b[-1] == np.inf and np.isfinite(res.l1_series).all()
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

    @pytest.mark.parametrize("stop", [math.nan, 0.0, -1e-3, -math.inf])
    def test_rejects_a_stop_threshold_that_is_not_positive(self, stop):
        # a NaN would pass no step's stop test and run to the horizon
        basis = ModeBasis(8)
        with pytest.raises(ValueError, match="stop_l1_below must be positive"):
            run_coupled(silent_model(m=8), SolverConfig(dt=1e-3), mode_field(basis, 1, 1.0),
                        mode_field(basis, 1, -1.0), seed=0, n_steps=5, stop_l1_below=stop)


class TestCoupledSeries:
    """run_coupled's series, reduced a block of kept pairs at a time behind
    the max-coefficient stop test, equal the per-step tracking they replace,
    bit for bit, wherever a stop or trip falls against the block."""

    FLUXES = {"burgers": FluxSpec("burgers"),
              "cubic": FluxSpec("polynomial", coefficients=[0.0, 0.5, -0.2, 1.0 / 3.0])}
    RECORD_EVERY, LP_ORDERS = 3, (2, 4)

    @classmethod
    def reference(cls, model, cfg, u0, v0, seed, n_steps, stop):
        """run_coupled with its series tracked at every step: an L1 distance
        and two H1 masses computed from each step's pair as it is made."""
        basis = u0.basis
        stepper = Stepper(model, cfg, basis)
        path = NoisePath(model.noise, basis, seed)
        cap = n_steps // cls.RECORD_EVERY + 4
        bufs = (RecordBuffer(cls.LP_ORDERS, capacity=cap),
                RecordBuffer(cls.LP_ORDERS, capacity=cap))
        times, l1, h1 = np.empty(n_steps + 1), np.empty(n_steps + 1), np.empty((2, n_steps + 1))

        def track(k, t, c):
            times[k] = t
            l1[k] = float(np.mean(np.abs(synthesize(c[0] - c[1], stepper.n_fine))))
            h1[:, k] = [stepper.h1_sq(row) for row in c]
            return stop is not None and l1[k] < stop

        c = np.stack([u0.coeffs, v0.coeffs])
        track(0, 0.0, c)
        c, t, k, trip, _ = integrator._drive(
            stepper, c, partial(path.ou_increment, model.nu, cfg.dt), n_steps, bufs,
            cls.RECORD_EVERY, on_step=track)
        for buf in bufs:
            buf.set_column("l1_dist", l1[: k + 1 : cls.RECORD_EVERY])
            integrator._fill_residual_column(buf, model, basis, 64)
        return dict(times=times[: k + 1], l1=l1[: k + 1], h1_a=h1[0, : k + 1],
                    h1_b=h1[1, : k + 1], c=c, t=t, step=k, trip=trip, bufs=bufs)

    @staticmethod
    def outputs(res):
        return dict(times=res.times, l1=res.l1_series, h1_a=res.h1_sq_a, h1_b=res.h1_sq_b,
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
                mp.setattr(integrator, "_RECORD_BLOCK_POINTS", block * DEFAULT_FINE_FACTOR * m)
                want = self.reference(model, cfg, u0, v0, seed, n_steps, stop)
                got = self.outputs(run_coupled(
                    model, cfg, u0, v0, seed=seed, n_steps=n_steps,
                    record_every=self.RECORD_EVERY, lp_orders=self.LP_ORDERS,
                    stop_l1_below=stop))
            assert (got["trip"] is not None) == (case == "trip")
            assert got["step"] == want["step"] and got["t"] == want["t"]
            assert got["trip"] == want["trip"]
            for key in ("times", "l1", "h1_a", "h1_b", "c"):
                assert got[key].tobytes() == want[key].tobytes(), key
            for buf, ref in zip(got["bufs"], want["bufs"]):
                assert buf.column_names() == ref.column_names()
                for name in buf.column_names():
                    assert buf.column(name).tobytes() == ref.column(name).tobytes(), name


class TestPicard:
    def test_zero_flux_converges_in_one_iteration(self):
        # A = 0: G does not depend on v, so the first iterate is the answer.
        basis = ModeBasis(8)
        spec = NoiseSpec(c=0.5, q=3.0)
        model = ModelSpec(0.2, FluxSpec("zero"), spec)
        cfg = SolverConfig(dt=0.01)
        u0 = random_field(basis, 5)
        pr = picard_solve(u0, model, cfg, horizon=0.1, path=NoisePath(spec, basis, 31))
        assert pr.converged and pr.iterations == 1 and pr.gap < 1e-14
        # fixed point is S_t u0 + w(t) reconstructed from the same realization
        w = convolution_grid(NoisePath(spec, basis, 31), model.nu, cfg.dt, 10)
        decay = np.exp(model.nu * basis.eigenvalues * cfg.dt)
        su0 = u0.coeffs.copy()
        for i in range(1, 11):
            su0 = decay * su0
            np.testing.assert_allclose(pr.coeffs[i], su0 + w[i], atol=1e-15)

    def test_gap_sequence_contracts_geometrically(self):
        basis = ModeBasis(16)
        model = ModelSpec(0.05, FluxSpec("burgers"), NoiseSpec(c=0.3, q=3.0))
        cfg = SolverConfig(dt=1e-3, picard_tol=1e-12)
        u0 = random_field(basis, 7)
        pr = picard_solve(u0, model, cfg, horizon=0.1,
                          path=NoisePath(model.noise, basis, 11))
        assert pr.converged and pr.halvings == 0
        gaps = pr.gaps
        live = gaps > 100 * cfg.picard_tol  # above the rounding floor
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
            nn = nf // stride
            cfg = SolverConfig(dt=ddt, picard_tol=1e-12)
            pr = picard_solve(u0, model, cfg, horizon=nn * ddt,
                              path=NoisePath(model.noise, basis, 5),
                              w_grid=w[::stride])
            assert pr.converged
            xis = increments_from_grid(w, model.nu, basis, ddt, stride)
            traj = run_on_increments(model, cfg, u0, xis)
            gaps.append(np.max(h1_norm(basis, traj - pr.coeffs)))
        assert gaps[0] / gaps[1] > 1.8

    def test_non_contraction_reported_not_raised(self):
        # Violent data on a long horizon: the solver halves and reports.
        basis = ModeBasis(16)
        model = ModelSpec(0.05, FluxSpec("burgers"), NoiseSpec(sigma=np.zeros(16)))
        cfg = SolverConfig(dt=0.01, picard_max_iter=12)
        u0 = random_field(basis, 13, amp=50.0)
        pr = picard_solve(u0, model, cfg, horizon=2.0,
                          path=NoisePath(model.noise, basis, 1))
        assert pr.halvings > 0 or not pr.converged
        assert pr.horizon <= 2.0

    def test_overflow_in_every_attempt_is_reported(self):
        # the cubic flux of 1e110 e1 overflows at once: every attempt fails
        # after 0 iterations until the horizon can halve no further, and the
        # reported trajectory holds u0 at every time
        basis = ModeBasis(8)
        cubic = FluxSpec("polynomial", coefficients=[0.0, 0.0, 0.0, 1.0 / 3.0])
        model = ModelSpec(0.1, cubic, NoiseSpec(sigma=np.zeros(8)))
        u0 = mode_field(basis, 1, 1e110)
        pr = picard_solve(u0, model, SolverConfig(dt=0.01), horizon=0.1,
                          path=NoisePath(model.noise, basis, 0))
        assert not pr.converged and pr.iterations == 0
        assert pr.gap == np.inf and pr.gaps.tolist() == [np.inf]
        assert pr.halvings == 2 and pr.horizon == 0.02  # 10 -> 5 -> 2 steps
        assert pr.times.tolist() == [0.0, 0.01, 0.02]
        assert pr.coeffs.tobytes() == np.tile(u0.coeffs, (3, 1)).tobytes()


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
            write_snapshot(fp, res.state, model, cfg, 5)
        with open(path, "rb") as fp:
            snap = read_snapshot(fp)
        assert snap.m_max == 16 and snap.scheme == "exp_euler"
        assert snap.t == res.state.t and snap.step == 40 and snap.seed == 5
        assert snap.nu == model.nu
        assert np.array_equal(snap.coeffs, res.state.u.coeffs)

    def test_corrupt_inputs_rejected(self):
        basis, model, cfg, u0 = self._setup()
        buf = io.BytesIO()
        write_snapshot(buf, State(u0), model, cfg, 1)
        raw = buf.getvalue()
        with pytest.raises(ValueError, match="magic"):
            read_snapshot(io.BytesIO(b"XXXX" + raw[4:]))
        with pytest.raises(ValueError, match="version"):
            read_snapshot(io.BytesIO(raw[:4] + b"\x63\x00\x00\x00" + raw[8:]))
        with pytest.raises(ValueError, match="truncated"):
            read_snapshot(io.BytesIO(raw[:-8]))

    @pytest.mark.parametrize("m_max", [2**24, 2**32 - 1])
    def test_header_m_max_never_sizes_a_read(self, m_max):
        # a header claiming more coefficients than the file holds (bytes
        # 8..12 are m_max) is a truncated snapshot, found without asking
        # the file for more than it holds
        basis, model, cfg, u0 = self._setup()
        buf = io.BytesIO()
        write_snapshot(buf, State(u0), model, cfg, 1)
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

    def test_coeff_history_endpoints(self):
        basis = ModeBasis(8)
        model = ModelSpec(0.1, FluxSpec("burgers"), NoiseSpec(c=0.3, q=3.0))
        u0 = random_field(basis, 6)
        res = run_single(model, SolverConfig(dt=0.01), u0, seed=1, n_steps=50,
                         keep_coeffs=True)
        assert res.coeff_history.shape == (51, 8)
        assert np.array_equal(res.coeff_history[0], u0.coeffs)
        assert np.array_equal(res.coeff_history[-1], res.state.u.coeffs)

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
        assert len(res.h1_sq_a) == 41
