"""Integrator: scheme exactness, convergence orders, guards, coupling,
the Picard cross-check, and snapshot/resume determinism.

Every driver is held to the per-step reference model of tests/reference.py
bit for bit: by a property over its parameters (`draw_case`), and by named
cases at the edges the property must not miss, each one call of `drive`.
"""

import io
import math

import numpy as np
import pytest
import reference as ref
from conftest import FLUXES, kept_blocks, random_field, spy, with_edges
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from svcl import flux, integrator, observables
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
from svcl.noise import NoisePath, NoiseSpec
from svcl.observables import Reducer, sup_h1
from svcl.spectral import ModeBasis, SpectralField, Workspace, analyze, mode_field, synthesize

FOUR_PI_SQ = 39.47841760435743
NOISE = NoiseSpec(c=0.5, q=3.0)
MODEL = ModelSpec(0.1, FluxSpec("burgers"), NOISE)
B8, B16, DT = ModeBasis(8), ModeBasis(16), 2e-3


def pair(basis, a, b, amp=1.0):
    """The pair (2, m) of random_field(basis, a) and random_field(basis, b)."""
    return np.stack([random_field(basis, s, amp=amp).coeffs for s in (a, b)])


def modes(*amps, m=8):
    """The state a e_i, or the pair of rows a e_i, of each (i, a) of amps."""
    return np.squeeze(np.stack([mode_field(ModeBasis(m), i, a).coeffs for i, a in amps]))


def h1_norm(basis, coeffs):
    return np.sqrt(np.sum(-basis.eigenvalues * coeffs**2, axis=-1))


def silent_model(nu=0.1, m=16):
    return ModelSpec(nu, FluxSpec("zero"), NoiseSpec(sigma=np.zeros(m)))


def top_h1(basis, states):
    """The largest H1 mass among the rows of each state."""
    return [max(ref.h1_sq(basis, r) for r in np.atleast_2d(c)) for c in states]


def drive(driver, u0, model=MODEL, dt=DT, scheme="exp_euler", radius=None, seed=3, n_steps=20,
          every=1, lp=(), window=64, stop=None, step0=0, resume=None, rows=None, poison=None,
          on_block=None):
    """Run `driver` on one case, and the reference model on the same case,
    and assert that they agree bit for bit; returns (result, reference).

    driver is "single" (run_single, whose on_block must see each kept step
    once and in order, after on_block's own call), "coupled" (u0 a pair),
    "history" (run_on_increments on the reference's draws; its result is
    (history, trip)) or "resumed" (run_single cut after `resume` steps and
    resumed from its end).  A run from step0 starts at t0 = step0 dt.  rows
    sets the kept block's row count through the record budget, and poison
    (step, row) puts a nan into that row's flux samples at that step's
    first flux call.
    """
    u0 = np.asarray(u0, dtype=float)
    basis, t0 = ModeBasis(u0.shape[-1]), step0 * dt
    cfg = SolverConfig(dt=dt, scheme=scheme, guard_radius=radius)
    xis = None
    if driver == "history":
        xis = np.array([ref.increment(model.noise, basis, model.nu, dt, seed, k)
                        for k in range(n_steps)]).reshape(n_steps, basis.m_max)
    want = ref.run(model, cfg, u0, seed, n_steps, every, lp, window, stop, t0, step0, xis=xis,
                   poison=poison)
    fields = [SpectralField(row, basis) for row in np.atleast_2d(u0)]
    seen = []

    def hook(first, ts, block):
        if on_block is not None:
            on_block(first, ts, block)
        seen.extend(zip(range(first, first + len(ts)), ts.tolist(), block.copy()))

    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:  # a budget below one state's fine grid gives the floor of two
            mp.setattr(observables, "_RECORD_BLOCK_POINTS",
                       1 if rows == 2 else rows * len(fields) * ref.FINE * basis.m_max)
        if poison is not None:
            call = (poison[0] - step0 - 1) * (1 if scheme == "exp_euler" else 2) + 1

            def nan_row(out, calls, *_):
                if len(calls) == call:
                    np.atleast_2d(out)[poison[1], 3] = np.nan
                return out

            spy(mp, flux, "flux_value", nan_row)
        if driver == "history":
            hist, trip = run_on_increments(model, cfg, fields[0], xis)
            assert ref.trip_bits(trip) == ref.trip_bits(want.trip)
            assert hist.tobytes() == np.array(want.states).tobytes()
            return (hist, trip), want
        if driver == "coupled":
            res = run_coupled(model, cfg, *fields, seed, n_steps, every, lp, window, stop)
        elif driver == "resumed":  # a cut at step 0 is a fresh start, not a resume
            cut = min(resume, n_steps) if step0 + resume else n_steps
            res = run_single(model, cfg, fields[0], seed, cut, every, lp, window, t0=t0,
                             step0=step0)
            if res.trip is None and cut < n_steps:
                half = ref.table(res.records)
                tail = tuple(res.records.column(k)[-window:] for k in ("t", "l2_sq", "h1_sq"))
                res = run_single(model, cfg, res.state.u, seed, n_steps - cut, every, lp,
                                 window, tail, res.state.t, res.state.step)
                ref.assert_matches(want, res, [np.concatenate([half, ref.table(res.records)])])
                return res, want
        else:
            res = run_single(model, cfg, fields[0], seed, n_steps, every, lp, window, t0=t0,
                             step0=step0, on_block=hook)
            start = int(step0 > 0)
            assert [(k, t) for k, t, _ in seen] == list(zip(range(step0 + start, want.step + 1),
                                                            want.times[start:]))
            states = np.array([c for *_, c in seen])
            assert states.tobytes() == np.array(want.states[start:]).tobytes()
    ref.assert_matches(want, res)
    return res, want


DRIVERS = ("single", "coupled", "history", "resumed")


def draw_case(data, **fixed):
    """The arguments of one `drive` call, each parameter not fixed drawn:
    the driver, m, flux, scheme, the kept block's rows, the steps, cadence,
    Lp orders, residual window, step0, resume point, seed and start (with a
    row past the float range, or not), and a guard radius, a pair's stop
    threshold and a poisoned row first reached at a drawn step of the free
    run."""
    def draw(name, strategy):
        return fixed[name] if name in fixed else data.draw(strategy, label=name)

    driver = draw("driver", st.sampled_from(DRIVERS))
    m = draw("m", st.sampled_from([2, 8, 16, 32]))
    rows = draw("rows", st.sampled_from([None, 2, 3, 5]))
    n_steps = draw("n_steps", st.integers(0, 3 * (rows or 4) + 6))
    single = driver in ("single", "resumed")
    case = dict(driver=driver, n_steps=n_steps, rows=rows,
                model=ModelSpec(0.1, FLUXES[draw("flux", st.sampled_from(sorted(FLUXES)))], NOISE),
                scheme=draw("scheme", st.sampled_from(SCHEMES)),
                every=draw("every", st.sampled_from([1, 3, 7])),
                lp=tuple(draw("lp", st.lists(st.sampled_from([1, 2, 3, 4, 6]), unique=True,
                                             max_size=3))),
                window=draw("window", st.sampled_from([2, 3, 5, 64])),
                step0=draw("step0", st.sampled_from([0, 1, 5, 40])) if single else 0,
                resume=draw("resume", st.integers(0, n_steps)) if driver == "resumed" else None,
                seed=draw("seed", st.integers(0, 2**64 - 1)))
    basis = ModeBasis(m)
    u0 = (draw("amp", st.sampled_from([1e-3, 0.3]))
          * np.random.default_rng(case["seed"] % 1000).standard_normal((2, m))
          / basis.pair_index**1.5)
    if draw("overflow", st.booleans()):  # squares past the float range; a nonzero flux overflows
        u0[draw("overflow_row", st.integers(0, 1))] *= 1e160
    case["u0"] = u0 if driver == "coupled" else u0[0]
    free = ref.run(case["model"], SolverConfig(dt=DT, scheme=case["scheme"]), case["u0"],
                   case["seed"], n_steps, t0=case["step0"] * DT, step0=case["step0"])
    if len(free.states) < 2:
        return case
    s = draw("at", st.integers(1, len(free.states) - 1))
    top = [x if x == x else 0.0 for x in top_h1(basis, free.states)]  # nan reaches no radius
    guard = draw("guard", st.sampled_from(["none", "loose", "at"]))
    radius = {"none": None, "loose": 2.0 * max(top), "at": max(top[1 : s + 1])}[guard]
    case["radius"] = radius if radius else None
    if driver == "coupled" and free.l1[s] > 0:
        to = draw("stop", st.sampled_from([None, free.l1[s], np.inf, -np.inf]))
        case["stop"] = None if to is None else np.nextafter(free.l1[s], to)
    if case["model"].flux.kind != "zero" and draw("poison", st.booleans()):
        row = draw("poison_row", st.integers(0, 1)) if driver == "coupled" else 0
        case["poison"] = (case["step0"] + s, row)
    return case


class TestReference:
    @settings(max_examples=300)
    @given(data=st.data())
    def test_every_driver_equals_reference(self, data):
        # one property over every driver and every parameter of the contract
        drive(**draw_case(data))


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

    @staticmethod
    def refused(monkeypatch, coupled, match, **counts):
        """Both drivers, and the reference, refuse the counts before a step."""
        model, u0, v0 = silent_model(m=8), mode_field(B8, 1, 1.0), mode_field(B8, 1, -1.0)
        counts = {"n_steps": 10, **counts}
        steps = spy(monkeypatch, Stepper, "advance")
        with pytest.raises(ValueError, match=match):
            if coupled:
                run_coupled(model, SolverConfig(dt=0.01), u0, v0, seed=0, **counts)
            else:
                run_single(model, SolverConfig(dt=0.01), u0, seed=0, **counts)
        assert not steps
        with pytest.raises(ValueError, match=match):
            ref.run(model, SolverConfig(dt=0.01), u0.coeffs, 0, counts["n_steps"],
                    counts.get("record_every", 1))

    @pytest.mark.parametrize("every", [0, -2])
    @pytest.mark.parametrize("coupled", [False, True])
    def test_drivers_refuse_record_every_below_1_before_a_step(self, monkeypatch, coupled, every):
        self.refused(monkeypatch, coupled, "record_every", record_every=every)

    @pytest.mark.parametrize("n_steps", [-1, -3])
    @pytest.mark.parametrize("coupled", [False, True])
    def test_drivers_refuse_a_negative_step_count_before_a_step(self, monkeypatch, coupled,
                                                                n_steps):
        # the step loop would step a block of rows - 3 states for n_steps = -3
        self.refused(monkeypatch, coupled, "n_steps must be at least 0", n_steps=n_steps)

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
        # A = 0 with noise: each step is exactly decay * c + xi with the
        # path's own increments, no hidden reordering
        model = ModelSpec(0.2, FluxSpec("zero"), NOISE)
        drive("single", random_field(B8, 2).coeffs, model, dt=0.01, seed=77,
              n_steps=500, every=500)

    def test_step_matches_run_single(self):
        basis, cfg = B8, SolverConfig(dt=0.01)
        model = ModelSpec(0.1, FluxSpec("burgers"), NoiseSpec(c=0.3, q=3.0))
        u0 = random_field(basis, 3).coeffs
        res, want = drive("single", u0, model, dt=0.01, seed=5, n_steps=1)
        xi = ref.increment(model.noise, basis, model.nu, cfg.dt, 5, 0)
        assert Stepper(model, cfg, basis).advance(u0, xi).tobytes() == want.states[1].tobytes()
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
        model = ModelSpec(0.1, FluxSpec("burgers"), NoiseSpec(c=0.4, q=3.0))
        for driver in ("history", "single"):
            drive(driver, random_field(B8, 9).coeffs, model, dt=0.005, seed=21, n_steps=100)


def kernel_case(data, shape, flux, scheme, scale):
    """A stepper at m = shape[-1] and a drawn state or block c (times scale,
    with edge entries) and increment xi.  After a state past the float range
    fills the plan's buffers with inf and nan, advance(c, xi) equals the
    reference's bit for bit, into a fresh array or a caller's whatever it
    held, and the arrays returned before are left as they were.  Returns
    (model, stepper, c, xi, out)."""
    m = shape[-1]
    c = with_edges(data, data.draw(arrays(float, shape, elements=st.floats(-2.0, 2.0))) * scale)
    xi = data.draw(arrays(float, m, elements=st.floats(-0.1, 0.1)))
    model = ModelSpec(0.1, FLUXES[flux], NoiseSpec(sigma=np.zeros(m)))
    stepper = Stepper(model, SolverConfig(dt=1e-3, scheme=scheme), ModeBasis(m))
    big = [stepper.nonlin(np.full(shape, 1e160)), stepper.advance(np.full(shape, 1e160), xi)]
    keep = [b.tobytes() for b in big]
    out = stepper.advance(c, xi)
    assert out.tobytes() == ref.advance(model, stepper.cfg, stepper.basis, c, xi).tobytes()
    into = np.full(shape, data.draw(st.sampled_from([np.nan, -0.0, 1e300])))
    assert stepper.advance(c, xi, into) is into and into.tobytes() == out.tobytes()
    assert [b.tobytes() for b in big] == keep
    return model, stepper, c, xi, out


class TestBlock:
    @settings(max_examples=100)
    @given(data=st.data(), rows=st.integers(1, 4), m=st.sampled_from([2, 8, 16, 32, 256]),
           flux=st.sampled_from(sorted(FLUXES)), scheme=st.sampled_from(SCHEMES))
    @np.errstate(over="ignore", invalid="ignore")
    def test_block_equals_rows_bitwise(self, data, rows, m, flux, scheme):
        # one call on an (R, m) block of same-noise states must give each
        # row's own 1-D result bit for bit, as must the transforms under it;
        # rows scaled by 1e160 overflow any nonzero flux, and the block's
        # trip must be the first one found by stepping each row alone, with
        # no guard or a guard at the H1 mass of one row's step
        scale = data.draw(arrays(float, (rows, 1), elements=st.sampled_from([1e160, 1.0])))
        model, stepper, block, xi, out = kernel_case(data, (rows, m), flux, scheme, scale)
        basis, n = stepper.basis, dealias_points(model.flux, stepper.basis)
        samples = synthesize(block, n)
        coeffs = analyze(samples, m, Workspace(block.shape, n))

        def bits(x):
            # pocketfft's batched transforms can give a row that holds a nan
            # nans of the other sign than its own call does: with a nan
            # drawn, nans compare as nan and every other value bit for bit
            return (np.where(np.isnan(x), np.nan, x) if np.isnan(block).any() else x).tobytes()

        for i, row in enumerate(block):
            assert bits(stepper.advance(row, xi)) == bits(out[i])
            assert bits(synthesize(row, n)) == bits(samples[i])
            assert bits(analyze(samples[i], m, Workspace((m,), n))) == bits(coeffs[i])
        finite = [ref.h1_sq(basis, row) for row in out if np.isfinite(row).all()]
        r = data.draw(st.sampled_from([None, *finite]))
        cfg = SolverConfig(dt=1e-3, scheme=scheme, guard_radius=r if r and r < np.inf else None)

        def draw(out):
            out[:] = xi

        # the step loop's trip of one step of the block, from step 1 at t = 1e-3
        trip = integrator._drive(Stepper(model, cfg, basis), Reducer(basis), block, draw, 1,
                                 1e-3, 1, lambda *_: None)[3]
        alone = [ref.blow_up(basis, row, stepper.advance(row, xi), 1e-3, 1e-3, cfg.guard_radius)
                 for row in block]
        assert ref.trip_bits(trip) == ref.trip_bits(next(filter(None, alone), None))


class TestPlan:
    """Stepper's per-shape workspaces and the Horner flux reproduce the
    reference kernels and polyval bit for bit."""

    @settings(max_examples=150)
    @given(data=st.data(), rows=st.sampled_from([None, 1, 2, 3]),
           m=st.sampled_from([2, 4, 8, 16, 32, 256]), flux=st.sampled_from(sorted(FLUXES)),
           scheme=st.sampled_from(SCHEMES), exp=st.sampled_from([*range(-5, 4), 160]))
    @np.errstate(over="ignore", invalid="ignore")
    def test_plan_matches_reference_bitwise(self, data, rows, m, flux, scheme, exp):
        shape = (m,) if rows is None else (rows, m)
        model, stepper, c, xi, out = kernel_case(data, shape, flux, scheme, 10.0**exp)
        assert stepper.nonlin(c).tobytes() == ref.nonlin(model.flux, c, stepper.basis).tobytes()
        # returned arrays are fresh: later calls leave them as they were
        before = out.tobytes()
        stepper.advance(out, xi)
        stepper.nonlin(c)
        assert out.tobytes() == before

    # polyval's inputs: normal values, huge ones whose powers overflow,
    # subnormals, signed zeros, infinities and nans of both signs
    HORNER_VALUES = st.floats(-1e3, 1e3) | st.sampled_from(
        [1e80, -1e80, 1e200, -1e200, 5e-324, -5e-324, 1e-310, -2.2250738585072e-308,
         0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])

    @settings(max_examples=300)
    @given(data=st.data(), n_coef=st.integers(1, 5))
    @np.errstate(over="ignore", invalid="ignore")
    def test_horner_matches_polyval_bitwise(self, data, n_coef):
        # coefficient counts 1..5 drawn from the same values: where two
        # nans meet in a sum, polyval's operand order decides the sign, so
        # Horner's rule must run its operations in that order, into fresh
        # arrays and into out alike; a spec refuses coefficients that are
        # not finite, so those go to Horner's rule on the 0-d terms directly
        coef = data.draw(arrays(float, n_coef, elements=self.HORNER_VALUES), label="coef")
        v = data.draw(arrays(float, st.integers(1, 24), elements=self.HORNER_VALUES), label="v")
        want, terms = np.polynomial.polynomial.polyval(v, coef), tuple(map(_constant, coef[::-1]))
        if np.isfinite(coef).all():
            spec = FluxSpec("polynomial", coefficients=coef)
            assert flux_value(spec, v).tobytes() == want.tobytes()
            terms = spec.horner_terms
        assert _horner(terms, v).tobytes() == want.tobytes()
        into = np.full(v.shape, np.nan)
        assert _horner(terms, v, into) is into and into.tobytes() == want.tobytes()


class TestRecordBlock:
    """Records reduced a block of kept states at a time equal the rows of
    the reference, reduced one state at a time, whatever the block
    boundaries."""

    @settings(max_examples=40)
    @given(data=st.data(), driver=st.sampled_from(["single", "coupled"]))
    def test_block_records_equal_per_row_records(self, data, driver):
        # m = 8 runs ending around the default block's boundaries, which
        # hold 512 kept states of a single run and 256 of a pair
        rows = observables._RECORD_BLOCK_POINTS // ((1 + (driver == "coupled")) * ref.FINE * 8)
        n_steps = data.draw(st.sampled_from([rows - 1, rows, rows + 1, 2 * rows + 3]))
        drive(**draw_case(data, driver=driver, m=8, rows=None, flux="burgers", n_steps=n_steps,
                          overflow=False))

    @pytest.mark.parametrize("coupled, step0", [(False, 0), (False, 3), (True, 0)])
    def test_one_row_blocks(self, coupled, step0):
        # a flush budget below one row's fine grid gives the smallest blocks,
        # of two rows (the floor), each reduced before the next state is kept
        u0 = pair(B8, 5, 6, amp=0.01)
        drive("coupled" if coupled else "single", u0 if coupled else u0[0], dt=4e-3, seed=11,
              n_steps=5, lp=(2, 4), step0=step0, rows=2)

    def test_one_row_blocks_at_large_m(self):
        # m = 4096: one row already fills the flush budget, so blocks hold
        # the floor of two rows
        drive("single", random_field(ModeBasis(4096), 5, amp=0.01).coeffs, dt=4e-3, seed=11,
              n_steps=2, lp=(2, 4))


class TestLeanStep:
    """Whole runs of every driver, on the planned kernels with the block
    draw and the one blow-up test per kept block, equal the reference."""

    @pytest.mark.parametrize("guard", ["none", "trip", "overflow"])
    @pytest.mark.parametrize("flux", sorted(FLUXES))
    @settings(max_examples=12)
    @given(data=st.data())
    def test_runs_equal_reference_loop(self, flux, guard, data):
        drive(**draw_case(data, flux=flux, m=data.draw(st.sampled_from([8, 16])),
                          guard="at" if guard == "trip" else "none",
                          overflow=guard == "overflow", poison=False))


class TestTwoRowBlocks:
    """At the floor of two kept rows a block wraps at every other step, and
    each step is written in place into its kept row: no step's output may
    share memory with its input.  Runs equal the reference bit for bit."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("run", ["single_every_1", "single_every_3", "coupled"])
    def test_runs_equal_reference_loop(self, monkeypatch, scheme, run):
        reduced = spy(monkeypatch, Reducer, "record_rows")
        u0 = pair(B8, 5, 6, amp=0.3)
        drive("coupled" if run == "coupled" else "single", u0 if run == "coupled" else u0[0],
              scheme=scheme, seed=7, n_steps=23, every=3 if run == "single_every_3" else 1,
              rows=2)
        # every step is kept, whatever the record cadence: one call per
        # block of two steps, after the fresh start's own
        assert [(call[4], len(call[5])) for call in reduced] == kept_blocks(23, 2)


class TestBlockHook:
    """run_single(on_block=) sees every step of the run once and in order,
    each block after its record rows are made: fresh and resumed runs, at
    any record cadence, across block wraps and up to a trip inside a
    block, past which it sees nothing.  The CLI's snapshots, written from
    the hook, are the states of their steps at any snapshot cadence."""

    @pytest.mark.parametrize("trip", [False, True])
    @pytest.mark.parametrize("every", [1, 3])
    @pytest.mark.parametrize("step0", [0, 5])
    def test_each_step_once_and_in_order(self, monkeypatch, step0, every, trip):
        u0, radius = random_field(B8, 5, amp=1e-3).coeffs, None
        if trip:
            # the first step past the second block of 4 whose H1 mass exceeds
            # every earlier one and that is not the first row of its block
            h1 = top_h1(B8, ref.run(MODEL, SolverConfig(dt=DT), u0, 3, 17, t0=step0 * DT,
                                       step0=step0).states)
            radius = h1[next(s for s in range(9, 17) if h1[s] > max(h1[1:s]) and (s - 1) % 4)]
        events = []
        spy(monkeypatch, Reducer, "record_rows",
            lambda out, calls, *args: events.append(("records", args[4])))
        res, _ = drive("single", u0, n_steps=17, every=every, step0=step0, radius=radius, rows=4,
                       on_block=lambda first, ts, block: events.append(("hook", first)))
        assert (res.trip is not None) == trip
        firsts = [first for kind, first in events[::2]]
        assert events == [(kind, first) for first in firsts for kind in ("records", "hook")]
        assert len(firsts) >= 3  # two wraps at least

    # a snapshot cadence of 7 is neither a multiple nor a divisor of the
    # record cadence or of the block's 10 rows
    @pytest.mark.parametrize("step0", [0, 14, 35])
    def test_cli_snapshots_are_the_states_of_their_steps(self, monkeypatch, tmp_path, step0):
        from svcl.cli import entry

        basis, n_steps, every, snap_every, seed = B8, 50, 4, 7, 3
        monkeypatch.setattr(observables, "_RECORD_BLOCK_POINTS", 10 * ref.FINE * basis.m_max)
        ini = tmp_path / "run.ini"
        ini.write_text(f"[model]\nnu = 0.1\nflux = burgers\n[noise]\nc = 0.5\nq = 3\n"
                       f"[solver]\nmodes = 8\ndt = {DT!r}\n"
                       f"[experiment]\nkind = single\nhorizon = {n_steps * DT!r}\n"
                       f"seed = {seed}\nrecord_every = {every}\n"
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
        cfg = SolverConfig(dt=DT)
        want = ref.run(MODEL, cfg, mode_field(basis, 1, 1.0).coeffs, seed, n_steps)
        for p, k in zip(snaps, steps):
            buf = io.BytesIO()
            write_snapshot(buf, want.states[k], want.times[k], k, MODEL, cfg, seed)
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


CUBIC = FluxSpec("polynomial", coefficients=[0.0, 0.0, 0.0, 1.0 / 3.0])


class TestGuard:
    E1 = mode_field(B8, 1, 1.0)
    # the silent step of e_1 is E e_1: its H1 mass is the radius it reaches
    E1_RADIUS = ref.h1_sq(B8, np.exp(0.1 * B8.eigenvalues * 0.01) * E1.coeffs)

    def test_zero_field_never_trips(self):
        res, _ = drive("single", np.zeros(8), silent_model(m=8), dt=0.01, radius=1e-6, n_steps=50)
        assert res.trip is None and res.state.step == 50

    def test_single_mode_trips_exactly_at_threshold(self):
        # a radius equal to the H1 mass of step 1 trips there, while a hair
        # more never does
        for r, steps in ((self.E1_RADIUS, 0), (self.E1_RADIUS * (1 + 1e-12), 20)):
            res, _ = drive("single", self.E1.coeffs, silent_model(m=8), dt=0.01, radius=r,
                           n_steps=20)
            assert res.state.step == steps and (res.trip is None) == bool(steps)

    def test_guard_trip_ends_the_history(self):
        # the history and run_single end at the state before the step that
        # reached the radius
        model = ModelSpec(0.1, FluxSpec("zero"), NoiseSpec(c=2.0, q=3.0))
        for driver in ("history", "single"):
            _, want = drive(driver, np.zeros(8), model, dt=0.01, radius=1e-8, n_steps=50)
        assert want.trip[2] == "guard" and want.trip[1] >= 1e-8 and want.step < 50

    def test_huge_step_count_returns_at_its_trip(self):
        # nothing is sized by n_steps: a run of 10^16 steps whose guard
        # trips at step 1 returns at once
        res, _ = drive("single", self.E1.coeffs, silent_model(m=8), dt=0.01,
                       radius=self.E1_RADIUS, n_steps=10**16, lp=(2,))
        assert res.trip.reason == "guard" and res.state.step == 0 and len(res.records) == 1

    def test_run_single_captures_trip(self):
        model = ModelSpec(0.1, FluxSpec("zero"), NoiseSpec(c=2.0, q=3.0))
        res, _ = drive("single", np.zeros(8), model, dt=0.01, radius=1e-8, n_steps=100)
        assert res.trip.reason == "guard" and len(res.records) < 101

    def test_flux_overflow_becomes_trip(self):
        model = ModelSpec(0.1, CUBIC, NoiseSpec(sigma=np.zeros(8)))
        for driver in ("history", "single"):
            _, want = drive(driver, modes((1, 1e110)), model, dt=0.01, n_steps=10)
        assert want.trip[2] == "flux_overflow" and want.step == 0  # nothing advanced

    @pytest.mark.parametrize("guard", [None, 1.0])
    def test_non_finite_step_trips_before_the_guard(self, guard):
        # 1e154 e1 sits at the edge of the float range: its flux values stay
        # finite, the transform of them overflows, and the step's output
        # holds +-inf but no nan, so its H1 mass (inf) is past any guard.
        # The non-finite check comes first: the run stops before the step
        # with its last finite state, whether a guard is set or not
        model = ModelSpec(0.1, FluxSpec("burgers"), NoiseSpec(sigma=np.zeros(8)))
        _, want = drive("single", modes((1, 1e154)), model, dt=0.01, radius=guard, n_steps=10)
        # 4 pi^2 1e308 is past the float range too
        assert want.trip == (0.0, np.inf, "flux_overflow") and want.step == 0

    def test_flux_overflow_trip_time_is_the_state_time(self):
        # the cubic overflows at step 2, after t = 0.01 + 0.01; the trip
        # reports the pre-step time itself, not (t + dt) - dt, which here
        # is one ulp below it
        model = ModelSpec(0.1, CUBIC, NoiseSpec(sigma=np.zeros(8)))
        res, _ = drive("single", modes((1, 1.149e12)), model, dt=0.01, n_steps=10)
        assert res.trip.reason == "flux_overflow" and res.state.step == 2
        assert res.trip.t == res.state.t

    def test_finite_state_with_overflowing_squares_never_trips(self):
        # 1e200 e1 under a zero flux: every entry stays finite while the sum
        # of squares is past the float range, so the one-dot check cannot
        # clear the step and the row walk must; with no guard the run goes
        # to its end, each state exactly the decayed one before it
        (hist, trip), _ = drive("history", modes((1, 1e200)),
                                silent_model(m=8), dt=0.01, n_steps=30)
        assert trip is None and len(hist) == 31 and np.isfinite(hist).all()

    def test_overflowing_norms_fill_records_without_a_warning(self):
        # the same 1e200 e1 state through run_single: every recorded norm is
        # inf and every windowed residual nan (inf - inf), and the residual
        # fill after the step loop must not leak a RuntimeWarning
        res, _ = drive("single", modes((1, 1e200)),
                       ModelSpec(0.1, FluxSpec("zero"), NOISE), dt=0.01, seed=1, n_steps=30)
        assert res.trip is None and res.state.step == 30
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
        model = ModelSpec(0.05, FluxSpec("burgers"), NoiseSpec(c=0.5, q=3.0))
        seen = []
        spy(monkeypatch, Stepper, "advance",
            lambda out, calls, stepper, c, xi, *_: seen.append((c.shape, xi.copy())) or out)
        run_coupled(model, SolverConfig(dt=1e-3), random_field(B16, 1), random_field(B16, 2),
                    seed=9, n_steps=300)
        assert len(seen) == 300
        for k, (shape, xi) in enumerate(seen):
            want = ref.increment(model.noise, B16, model.nu, 1e-3, 9, k)
            assert shape == xi.shape == (2, 16)
            assert xi[0].tobytes() == xi[1].tobytes() == want.tobytes()

    @staticmethod
    def rises(noise, seeds, n_steps):
        """The largest step increase of the L1 series of each pair of
        random fields, relative to the distance before the step."""
        model = ModelSpec(0.05, FluxSpec("burgers"), noise)
        return [np.max(np.diff(l1) / l1[:-1]) for l1 in (run_coupled(
            model, SolverConfig(dt=1e-3), random_field(B16, a),
            random_field(B16, a + 1), seed=s, n_steps=n_steps,
            record_every=500).l1_series for s, a in seeds)]

    def test_noiseless_l1_contraction_is_monotone(self):
        assert max(self.rises(NoiseSpec(sigma=np.zeros(16)), [(s, 3 * s) for s in range(5)],
                              2000)) <= 0.0

    def test_noisy_l1_contraction_within_step_tolerance(self):
        # Same-noise coupling: non-increasing up to 1e-8 of the current value.
        assert max(self.rises(NoiseSpec(c=0.2, q=3.0), [(s, 100 + 3 * s) for s in range(5)],
                              1000)) <= 1e-8

    @staticmethod
    def trip_pair(flux, radius, a0, b0, **kw):
        """A noiseless pair of m = 8 runs of 10 steps of 0.01 from (a0, b0)."""
        model = ModelSpec(0.1, flux, NoiseSpec(sigma=np.zeros(8)))
        return drive("coupled", np.stack([a0, b0]), model, dt=0.01, radius=radius, n_steps=10,
                     **kw)[1]

    def test_guard_trip_in_second_row(self):
        # a is the zero state, which the silent step keeps; b trips at step 1
        b0 = modes((1, 2.0))
        r = ref.h1_sq(B8, np.exp(0.1 * B8.eigenvalues * 0.01) * b0)
        want = self.trip_pair(FluxSpec("zero"), r, B8.zeros(), b0)
        assert want.trip == (0.01, r, "guard") and want.step == 0

    def test_flux_overflow_in_second_row(self):
        b0 = modes((1, 1e110))
        want = self.trip_pair(CUBIC, None, B8.zeros(), b0)
        assert want.trip == (0.0, ref.h1_sq(B8, b0), "flux_overflow")

    def test_nan_in_second_row_trips_at_its_step(self, monkeypatch):
        # a nan put into row b's flux samples on the 4th call, the 4th
        # exp_euler step: the rows are checked in order, so a passes and b
        # trips as flux_overflow from the state before that step, and both
        # rows keep their states from before it.  The trip is found once
        # its kept block is stepped, so the block's steps past it are
        # computed and discarded: at most one block of calls
        calls = spy(monkeypatch, flux, "flux_value")
        _, want = drive("coupled", modes((1, 0.5), (2, -0.7)),
                        dt=0.01, seed=4, n_steps=10, poison=(4, 1))
        assert want.trip[2] == "flux_overflow" and want.step == 3
        assert 4 <= len(calls) <= Reducer(B8).block_rows(np.empty((2, 8)))
        assert calls[3][1].shape[0] == 2

    def test_first_row_guard_wins_over_second_row_overflow(self):
        # rows trip in row order: a's guard is reported, not b's overflow
        want = self.trip_pair(CUBIC, 1.0, modes((1, 1.0)), modes((1, 1e110)))
        assert want.trip[0::2] == (0.01, "guard")

    def test_second_row_trip_keeps_both_rows_before_the_step(self):
        # b reaches the guard at step 1 while a is still below it; both
        # states must be the ones at step 0, the step and time reported
        _, want = drive("coupled", modes((1, 0.3), (1, 0.9)), dt=0.01, radius=30.0, n_steps=10)
        assert want.trip[0::2] == (0.01, "guard") and want.step == 0

    def test_overflowing_squares_leak_no_warning(self):
        # b = 1e150 e2 is finite but its squares are not: the series and
        # residuals reduced after the step loop overflow, and must do so
        # under the same errstate as the loop instead of warning
        res, _ = drive("coupled", modes((1, 1.0), (2, 1e150)),
                       ModelSpec(0.08, FluxSpec("burgers"), NOISE), seed=1, n_steps=20)
        assert res.trip.reason == "flux_overflow" and res.state_b.step == 1
        assert res.records_b.column("h1_sq")[-1] == np.inf

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
        # stops early returns at its stop
        res, want = drive("coupled", modes((1, 1.0), (1, -1.0)),
                          silent_model(m=8), dt=1e-2, seed=0, n_steps=10**16, stop=1.0)
        assert 0 < want.step < 1000 and want.trip is None
        assert res.l1_series[-1] < 1.0 <= res.l1_series[-2]

    @pytest.mark.parametrize("stop", [math.nan, 0.0, -1e-3, -math.inf])
    def test_rejects_a_stop_threshold_that_is_not_positive(self, stop):
        # a NaN would pass no step's stop test and run to the horizon
        basis = ModeBasis(8)
        with pytest.raises(ValueError, match="stop_l1_below must be positive"):
            run_coupled(silent_model(m=8), SolverConfig(dt=1e-3), mode_field(basis, 1, 1.0),
                        mode_field(basis, 1, -1.0), seed=0, n_steps=5, stop_l1_below=stop)


MODEL_C = ModelSpec(0.05, FluxSpec("burgers"), NoiseSpec(c=0.2, q=3.0))


class TestCoupledStopInBlock:
    """run_coupled finds its stop in the series of a reduced block: a trip
    after the stop in the same block is dropped with the block's later
    pair-steps, a trip before it still ends the run, and at most one block
    of pair-steps past the stop is computed."""

    CASE = dict(model=MODEL_C, dt=1e-3, seed=4)

    def thresholds(self, stop_step, trip_step):
        """A stop threshold first passed at stop_step and a guard radius
        first reached at trip_step, from the free run of the small pair."""
        u0 = pair(B8, 0, 1, amp=1e-3)
        free = ref.run(MODEL_C, SolverConfig(dt=1e-3), u0, 4, 24)
        l1, h1 = np.array(free.l1), top_h1(B8, free.states)
        stop = np.nextafter(l1[stop_step], np.inf)
        assert (l1[1:stop_step] >= stop).all() and max(h1[1:trip_step]) < h1[trip_step]
        return u0, stop, h1[trip_step]

    def test_stop_before_a_trip_in_its_block_drops_the_trip(self):
        u0, stop, radius = self.thresholds(11, 13)
        res, _ = drive("coupled", u0, n_steps=24, every=3, lp=(2, 4), stop=stop, radius=radius,
                       rows=8, **self.CASE)
        assert res.trip is None and res.state_a.step == 11

    def test_trip_before_a_stop_in_its_block_is_returned(self):
        u0, stop, radius = self.thresholds(14, 12)
        res, _ = drive("coupled", u0, n_steps=24, every=3, lp=(2, 4), stop=stop, radius=radius,
                       rows=8, **self.CASE)
        assert res.trip.reason == "guard" and res.state_a.step == 11

    # steps 1, rows, rows + 1 and 2 rows - 1: the first and last rows of
    # the first block of steps, and the first and next to last of the second
    @pytest.mark.parametrize("block,row", [(0, 1), (1, 0), (1, 1), (1, -1)])
    def test_wasted_pair_steps_are_under_one_block(self, monkeypatch, block, row):
        u0 = modes((1, 0.5), (1, -0.5))
        rows = Reducer(B8).block_rows(u0)
        step, n_steps = block * rows + row % rows, 2 * rows + 8
        l1 = np.array(ref.run(MODEL_C, SolverConfig(dt=1e-3), u0, 4, step).l1)
        stop = np.nextafter(l1[step], np.inf)
        assert (l1[1:step] >= stop).all()
        calls = spy(monkeypatch, Stepper, "advance")
        res, _ = drive("coupled", u0, n_steps=n_steps, every=3, lp=(2, 4), stop=stop,
                       **self.CASE)
        assert res.state_a.step == step and len(calls) <= step + rows - 1


class TestTripMidBlock:
    """A guard trip inside the second block of 4, after the first was
    reduced, leaves every output (records, coupled series, histories) that
    of the reference, which stops before the step."""

    @pytest.mark.parametrize("reducer", ["records", "series", "history"])
    def test_trip_keeps_the_rows_before_it(self, reducer):
        u0 = pair(B8, 0, 1, amp=1e-3)
        u0 = u0 if reducer == "series" else u0[0]
        h1 = top_h1(B8, ref.run(MODEL, SolverConfig(dt=1e-3), u0, 0, 20).states)
        # the largest H1 mass up to step 6, which the noise reaches there first
        radius = max(h1[1:7])
        trip_step = h1.index(radius)
        assert 4 < trip_step < 8
        driver = {"records": "single", "series": "coupled", "history": "history"}[reducer]
        _, want = drive(driver, u0, dt=1e-3, radius=radius, seed=0, n_steps=20, lp=(2,), rows=4)
        assert want.trip[2] == "guard" and want.step == trip_step - 1


class TestTripAtEachRow:
    """The step loop tests a kept block for blow-up once, after stepping it:
    a guard trip or a nan put into the flux at any row of a block (the
    first tested row, the last row, the first row of a wrapped block, at
    the floor of two rows and at four) gives the reference's run, bit for
    bit, and on_block sees nothing at or past the trip."""

    @pytest.mark.parametrize("cause", ["guard", "nan"])
    @pytest.mark.parametrize("run", ["single", "resumed", "coupled"])
    @pytest.mark.parametrize("rows", [2, 4])
    def test_trip_equals_per_step_reference(self, rows, run, cause):
        basis, step0 = B8, 5 if run == "resumed" else 0
        u0 = pair(basis, 5, 6, amp=1e-3)
        u0 = u0 if run == "coupled" else u0[0]
        top = top_h1(basis, ref.run(MODEL, SolverConfig(dt=DT), u0, 3, 40, t0=step0 * DT,
                                    step0=step0).states)
        if cause == "nan":
            trip_steps = range(1, 2 * rows + 1)
        else:
            # the steps whose H1 mass passes every earlier one: a radius
            # there is first reached there, at every row position past the
            # first block and at the first tested row
            trip_steps = [s for s in range(1, 41) if top[s] > max(top[1:s] or [0])]
            assert {(s - 1) % rows for s in trip_steps if s > rows} == set(range(rows))
        assert (trip_steps[0] - 1) % rows == 0
        for s in trip_steps:
            _, want = drive("coupled" if run == "coupled" else "single", u0, n_steps=40,
                            step0=step0, rows=rows, radius=top[s] if cause == "guard" else None,
                            poison=(step0 + s, int(run == "coupled")) if cause == "nan" else None)
            assert want.step == step0 + s - 1 and want.trip is not None


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

    @pytest.mark.parametrize("every", [1, 3, 7])
    def test_l1_dist_is_the_series_at_each_record_step(self, every):
        basis, rows = B8, 16
        u0 = np.stack([mode_field(basis, 1, 0.5).coeffs, mode_field(basis, 1, -0.5).coeffs])
        step = 2 * rows + rows // 2 + 1  # the middle of the third block
        l1 = np.array(ref.run(MODEL_C, SolverConfig(dt=1e-3), u0, 4, step).l1)
        stop = np.nextafter(l1[step], np.inf)
        assert (l1[1:step] >= stop).all()
        res, _ = drive("coupled", u0, MODEL_C, dt=1e-3, seed=4, n_steps=5 * rows, every=every,
                       stop=stop, rows=rows)
        assert res.state_a.step == step
        assert res.records_a.column("l1_dist").tobytes() == res.l1_series[::every].tobytes()


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
    @settings(max_examples=40)
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
        with pytest.MonkeyPatch.context() as mp:
            calls = spy(mp, Stepper, "nonlin")
            got = picard_solve(u0, model, cfg, w)
        shapes = [c.shape for _, c in calls]
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
    MODEL = ModelSpec(0.05, FluxSpec("burgers"), NOISE)
    CFG = SolverConfig(dt=1e-3, guard_radius=1e6)

    def snapshot(self, c, t=0.0, step=0):
        """The bytes write_snapshot writes for c at (t, step), seed 1."""
        buf = io.BytesIO()
        write_snapshot(buf, c, t, step, self.MODEL, self.CFG, 1)
        return buf.getvalue()

    def test_round_trip(self, tmp_path):
        res = run_single(self.MODEL, self.CFG, random_field(B16, 20), seed=5, n_steps=40)
        path = tmp_path / "state.snap"
        with open(path, "wb") as fp:
            write_snapshot(fp, res.state.u.coeffs, res.state.t, res.state.step, self.MODEL,
                           self.CFG, 5)
        with open(path, "rb") as fp:
            snap = read_snapshot(fp)
        assert snap.m_max == 16 and snap.scheme == "exp_euler"
        assert snap.t == res.state.t and snap.step == 40 and snap.seed == 5
        assert snap.nu == self.MODEL.nu
        assert np.array_equal(snap.coeffs, res.state.u.coeffs)

    def test_corrupt_inputs_rejected(self):
        raw = self.snapshot(random_field(B16, 20).coeffs)
        with pytest.raises(ValueError, match="magic"):
            read_snapshot(io.BytesIO(b"XXXX" + raw[4:]))
        with pytest.raises(ValueError, match="version"):
            read_snapshot(io.BytesIO(raw[:4] + b"\x63\x00\x00\x00" + raw[8:]))
        with pytest.raises(ValueError, match="truncated"):
            read_snapshot(io.BytesIO(raw[:-8]))

    def test_bytes_past_the_coefficients_rejected(self):
        # a snapshot is its header and the header's m_max coefficients: a
        # valid m=8 one with bytes appended is refused, not read as its head
        c = random_field(B8, 3).coeffs
        raw = self.snapshot(c, 0.25, 250)
        assert read_snapshot(io.BytesIO(raw)).coeffs.tobytes() == c.tobytes()
        for extra in (b"\x00", bytes(24)):
            with pytest.raises(ValueError, match="past its 8 coefficients"):
                read_snapshot(io.BytesIO(raw + extra))

    @pytest.mark.parametrize("m_max", [7, 1, 0])
    def test_m_max_no_basis_holds_rejected(self, m_max):
        # a header m_max (bytes 8..12) that is odd or below 2, with the file
        # cut to that many coefficients, is no snapshot of any ModeBasis
        raw = bytearray(self.snapshot(random_field(B8, 3).coeffs)[: 48 + 8 * m_max])
        raw[8:12] = m_max.to_bytes(4, "little")
        with pytest.raises(ValueError, match=f"m_max {m_max} is not an even mode count"):
            read_snapshot(io.BytesIO(bytes(raw)))

    @pytest.mark.parametrize("m_max", [2**24, 2**32 - 1])
    def test_header_m_max_never_sizes_a_read(self, m_max):
        # a header claiming more coefficients than the file holds (bytes
        # 8..12 are m_max) is a truncated snapshot, found without asking
        # the file for more than it holds
        raw = bytearray(self.snapshot(random_field(B16, 20).coeffs))
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
        # every record column continues bitwise, the windowed residual included
        drive("resumed", random_field(B16, 20).coeffs, self.MODEL, dt=1e-3,
              radius=1e6, seed=5, n_steps=200, lp=(2,), resume=100)

    def test_resume_skips_initial_record(self):
        # rows only at steps 101..110, no duplicate of the snapshot row
        res, _ = drive("single", random_field(B16, 20).coeffs, self.MODEL, dt=1e-3,
                       radius=1e6, seed=5, n_steps=10, step0=100)
        assert len(res.records) == 10 and res.records.column("t")[0] > 0.1


class TestRunDrivers:
    M = ModelSpec(0.1, FluxSpec("burgers"), NoiseSpec(c=0.3, q=3.0))

    def test_record_cadence(self):
        res, _ = drive("single", random_field(B8, 1).coeffs, silent_model(m=8), dt=0.01,
                       n_steps=100, every=10)
        assert len(res.records) == 11
        np.testing.assert_allclose(np.diff(res.records.column("t")), 0.1, atol=1e-12)

    def test_history_endpoints(self):
        for driver in ("history", "single"):
            _, want = drive(driver, random_field(B8, 6).coeffs, self.M, dt=0.01, seed=1,
                            n_steps=50)
        assert want.trip is None and np.array(want.states).shape == (51, 8)

    def test_column_discipline(self):
        res, _ = drive("single", random_field(B8, 2).coeffs, self.M, dt=0.01, radius=100.0,
                       seed=2, n_steps=30, lp=(2, 4))
        np.testing.assert_allclose(res.records.column("lp2_p"), res.records.column("l2_sq"),
                                   rtol=1e-10)

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
        res, _ = drive("coupled", pair(B8, 1, 2), self.M, dt=0.01, seed=4, n_steps=40, every=10)
        assert np.isfinite(res.records_a.column("l1_dist")).all() and len(res.records_b) == 5


class TestZeroSteps:
    """A run of no steps returns its start at its own step, as a Python
    int, in a fresh array, with no trip: a fresh start with its one record
    row, series entry or history row, a resumed one with no record row."""

    CASE = dict(model=ModelSpec(0.1, FluxSpec("burgers"), NoiseSpec(c=0.3, q=3.0)), dt=0.01,
                radius=1e6, seed=1, n_steps=0)

    @pytest.mark.parametrize("step0", [0, 7])
    def test_run_single(self, step0):
        u0 = random_field(B8, 1).coeffs
        res, _ = drive("single", u0, step0=step0, **self.CASE)
        assert not np.shares_memory(res.state.u.coeffs, u0)
        assert len(res.records) == (step0 == 0)

    def test_run_coupled(self):
        drive("coupled", pair(B8, 1, 2), stop=1e9, **self.CASE)

    def test_run_on_increments(self):
        drive("history", random_field(B8, 1).coeffs, **self.CASE)


class TestStopBelowAtStart:
    def test_pair_starting_below_the_stop_stops_at_its_first_step_below(self):
        # the initial pair is reduced alone and never stops the run: a pair
        # whose start is already below the threshold runs to its first
        # step below it
        model = ModelSpec(0.1, FluxSpec("burgers"), NoiseSpec(c=0.3, q=3.0))
        u0 = modes((1, 0.5), (2, 0.5))
        l1 = np.array(ref.run(model, SolverConfig(dt=0.01), u0, 3, 40).l1)
        stop = np.nextafter(l1[0], np.inf)
        res, _ = drive("coupled", u0, model, dt=0.01, seed=3, n_steps=40, stop=stop)
        assert res.trip is None and res.state_a.step == 1 + int(np.argmax(l1[1:] < stop))
