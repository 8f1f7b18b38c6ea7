"""Ergodic averaging, tightness and entry diagnostics, coupling experiment."""

import math

import numpy as np
import pytest

from svcl.ergodic import (
    MIN_BATCHES,
    confluence_experiment,
    default_burn_in,
    dissipation_entry_time,
    entry_time_bound,
    ergodic_average,
    estimates_agree,
    tightness_diagnostic,
)
from svcl.flux import FluxSpec
from svcl.integrator import ModelSpec, SolverConfig, run_coupled, run_single
from svcl.noise import NoiseSpec, trace_h2
from svcl.spectral import ModeBasis, SpectralField, mode_field

NU = 0.2
BASIS = ModeBasis(8)
SPEC = NoiseSpec(c=0.5, q=3.0)
OU_MODEL = ModelSpec(NU, FluxSpec("zero"), SPEC)
CFG = SolverConfig(dt=2e-3)
BURN = default_burn_in(NU)
# stationary E||u||_L2^2 of the linear model: sum of sigma_m^2 / (-2 nu lam_m)
OU_L2_SQ = float(np.sum(SPEC.resolve(BASIS) ** 2 / (-2.0 * NU * BASIS.eigenvalues)))


@pytest.fixture(scope="module")
def ou_runs():
    """Two stationary-regime runs from different (u0, seed); linear model,
    so their statistics are exact OU and fast to generate."""
    r1 = run_single(OU_MODEL, CFG, SpectralField(BASIS.zeros(), BASIS),
                    seed=1, n_steps=60_000)
    r2 = run_single(OU_MODEL, CFG, mode_field(BASIS, 1, 2.0),
                    seed=2, n_steps=60_000)
    return r1, r2


class TestErgodicAverage:
    def test_constant_observable(self, ou_runs):
        est = ergodic_average(ou_runs[0], lambda buf: np.ones(len(buf)), BURN)
        assert est.value == 1.0 and est.stderr == 0.0
        assert est.n_batches >= MIN_BATCHES

    def test_stationary_energy_balance(self):
        # 2 nu E||u||_H1^2 = sum sigma_m^2 for the linear model, exactly
        # stationary after burn-in; a long run pins it within 5%.
        run = run_single(OU_MODEL, CFG, SpectralField(BASIS.zeros(), BASIS),
                         seed=1, n_steps=200_000)
        est = ergodic_average(run, "h1_sq", BURN)
        tr = trace_h2(SPEC, BASIS).l2
        assert 2 * NU * est.value == pytest.approx(tr, rel=0.05)
        assert abs(2 * NU * est.value - tr) < 5 * (2 * NU * est.stderr)

    def test_distinct_initial_conditions_agree(self, ou_runs):
        r1, r2 = ou_runs
        a1 = ergodic_average(r1, "l2_sq", BURN)
        a2 = ergodic_average(r2, "l2_sq", BURN)
        assert estimates_agree(a1, a2)
        assert abs(a1.value - OU_L2_SQ) < 4 * a1.stderr
        assert abs(a2.value - OU_L2_SQ) < 4 * a2.stderr

    def test_burn_in_removes_transient_bias(self, ou_runs):
        _, r2 = ou_runs  # starts from 2 e_1, far above the stationary level
        with_burn = ergodic_average(r2, "l2_sq", BURN)
        without = ergodic_average(r2, "l2_sq", 0.0)
        assert abs(with_burn.value - OU_L2_SQ) < abs(without.value - OU_L2_SQ)

    def test_insufficient_samples(self, ou_runs):
        with pytest.raises(ValueError, match="insufficient"):
            ergodic_average(ou_runs[0], "l2_sq", burn_in=1e9)

    def test_batch_floor_enforced(self, ou_runs):
        with pytest.raises(ValueError, match="batches"):
            ergodic_average(ou_runs[0], "l2_sq", BURN, n_batches=4)

    def test_observable_name_recorded(self, ou_runs):
        est = ergodic_average(ou_runs[0], "h2_sq", BURN)
        assert est.observable == "h2_sq"
        assert est.burn_in == BURN and est.horizon > 0


class TestTightness:
    def test_decaying_run_fraction_vanishes(self):
        model = ModelSpec(0.1, FluxSpec("zero"), NoiseSpec(sigma=np.zeros(8)))
        u0 = mode_field(BASIS, 1, 0.05)  # h1_sq well below every threshold
        run = run_single(model, SolverConfig(dt=1e-3), u0, seed=0, n_steps=2000)
        rows = tightness_diagnostic(run, model, [1.0, 0.5, 0.1], u0)
        assert all(r.fraction == 0.0 for r in rows)
        assert all(r.satisfied for r in rows)

    def test_vacuous_bound_reported_not_failed(self, ou_runs):
        # Threshold below the stationary mean: the occupation fraction is
        # large, the Markov bound exceeds one, and the row stays satisfied.
        row = tightness_diagnostic(ou_runs[0], OU_MODEL, [100.0],
                                   SpectralField(BASIS.zeros(), BASIS))[0]
        assert row.fraction > 0.3
        assert row.bound > 1.0
        assert row.satisfied

    def test_markov_bound_holds_across_seeds(self):
        u0 = SpectralField(BASIS.zeros(), BASIS)
        for seed in range(3):
            run = run_single(OU_MODEL, CFG, u0, seed=seed, n_steps=30_000)
            for row in tightness_diagnostic(run, OU_MODEL,
                                            [50.0, 10.0, 1.0, 0.1], u0):
                assert row.fraction <= row.bound

    def test_short_run_rejected(self):
        run = run_single(OU_MODEL, CFG, SpectralField(BASIS.zeros(), BASIS),
                         seed=0, n_steps=0)
        with pytest.raises(ValueError, match="two records"):
            tightness_diagnostic(run, OU_MODEL, [1.0],
                                 SpectralField(BASIS.zeros(), BASIS))


class TestConfluence:
    def test_identical_initial_conditions(self):
        model = ModelSpec(0.1, FluxSpec("burgers"), NoiseSpec(c=0.3, q=3.0))
        u0 = mode_field(BASIS, 1, 1.0)
        rep = confluence_experiment(u0, u0.copy(), model, SolverConfig(dt=1e-3),
                                    seed=0, epsilons=[1e-2, 1e-6], horizon=1.0)
        assert rep.initial_distance == 0.0
        assert rep.final_distance == 0.0
        assert rep.reached_target and rep.monotone
        assert all(t == 0.0 for t in rep.first_passage.values())

    def test_noiseless_contraction(self):
        # sigma = 0: viscosity alone drives confluence, monotonically.
        model = ModelSpec(0.05, FluxSpec("burgers"), NoiseSpec(sigma=np.zeros(8)))
        rep = confluence_experiment(mode_field(BASIS, 1, 1.0),
                                    mode_field(BASIS, 1, -1.0), model,
                                    SolverConfig(dt=1e-3), seed=0,
                                    epsilons=[1e-2, 1e-3], horizon=6.0)
        assert rep.monotone and rep.reached_target
        assert rep.first_passage[1e-2] < rep.first_passage[1e-3]
        assert rep.final_distance < 1e-3

    def test_noisy_confluence_across_seeds(self):
        model = ModelSpec(0.05, FluxSpec("burgers"), NoiseSpec(c=0.2, q=3.0))
        for seed in range(3):
            rep = confluence_experiment(mode_field(BASIS, 1, 1.0),
                                        mode_field(BASIS, 1, -1.0), model,
                                        SolverConfig(dt=1e-3), seed=seed,
                                        epsilons=[1.8e-3], horizon=10.0)
            assert rep.reached_target, f"seed {seed} stalled at {rep.final_distance}"
            assert rep.monotone

    def test_epsilons_validated(self):
        model = ModelSpec(0.1, FluxSpec("zero"), SPEC)
        with pytest.raises(ValueError, match="positive"):
            confluence_experiment(mode_field(BASIS, 1, 1.0),
                                  mode_field(BASIS, 1, -1.0), model,
                                  SolverConfig(dt=1e-3), seed=0,
                                  epsilons=[-1.0], horizon=1.0)

    def test_descriptors_and_metadata(self):
        model = ModelSpec(0.1, FluxSpec("burgers"), NoiseSpec(c=0.3, q=3.0))
        rep = confluence_experiment(mode_field(BASIS, 1, 1.0),
                                    mode_field(BASIS, 2, -1.0), model,
                                    SolverConfig(dt=1e-3, guard_radius=500.0),
                                    seed=9, epsilons=[1e-4], horizon=0.05)
        assert "m_max=8" in rep.u0_descriptor
        assert rep.guard_radius == 500.0
        assert rep.horizon == pytest.approx(0.05)
        assert math.isnan(rep.trip_time)


class TestDissipationEntry:
    def test_zero_initial_enters_immediately(self):
        model = ModelSpec(0.1, FluxSpec("zero"), NoiseSpec(sigma=np.zeros(8)))
        z = SpectralField(BASIS.zeros(), BASIS)
        run = run_coupled(model, SolverConfig(dt=1e-3), z, z.copy(), seed=0,
                          n_steps=10)
        assert dissipation_entry_time(run, 1e-12) == 0.0

    def test_heat_decay_closed_form(self):
        # sigma = 0, A = 0, both states on the first pair: the entry time of
        # (a^2+b^2) 4 pi^2 e^{2 nu lam t} <= R is known in closed form.
        nu = 0.1
        model = ModelSpec(nu, FluxSpec("zero"), NoiseSpec(sigma=np.zeros(8)))
        run = run_coupled(model, SolverConfig(dt=1e-3), mode_field(BASIS, 1, 1.0),
                          mode_field(BASIS, 1, -0.5), seed=0, n_steps=5000)
        lam1 = BASIS.eigenvalues[0]
        R = 1.0
        exact = math.log((1.0 + 0.25) * (-lam1) / R) / (-2 * nu * lam1)
        tau = dissipation_entry_time(run, R)
        assert abs(tau - exact) <= 1e-3  # resolved to one step

    def test_never_entering_is_nan(self):
        model = ModelSpec(0.1, FluxSpec("zero"), NoiseSpec(sigma=np.zeros(8)))
        run = run_coupled(model, SolverConfig(dt=1e-3), mode_field(BASIS, 1, 1.0),
                          mode_field(BASIS, 1, -1.0), seed=0, n_steps=5)
        assert math.isnan(dissipation_entry_time(run, 1e-9))

    def test_mean_entry_time_below_bound(self):
        # The Markov-style bound is loose; the empirical mean sits far below.
        nu = 0.1
        model = ModelSpec(nu, FluxSpec("burgers"), NoiseSpec(c=0.5, q=3.0))
        u0 = mode_field(BASIS, 1, 2.0)
        v0 = mode_field(BASIS, 1, -2.0)
        tr = trace_h2(model.noise, BASIS).l2
        R = 4.0 * tr / nu
        bound = entry_time_bound(u0, v0, model, BASIS, R)
        taus = []
        for seed in range(10):
            run = run_coupled(model, SolverConfig(dt=1e-3), u0, v0, seed=seed,
                              n_steps=3000)
            taus.append(dissipation_entry_time(run, R))
        assert np.all(np.isfinite(taus))
        assert np.mean(taus) <= bound

    def test_bound_needs_margin(self):
        model = ModelSpec(0.1, FluxSpec("zero"), SPEC)
        tr = trace_h2(SPEC, BASIS).l2
        with pytest.raises(ValueError, match="trace"):
            entry_time_bound(mode_field(BASIS, 1, 1.0), mode_field(BASIS, 1, -1.0),
                             model, BASIS, R=0.5 * tr / 0.1)

    def test_radius_validated(self):
        model = ModelSpec(0.1, FluxSpec("zero"), NoiseSpec(sigma=np.zeros(8)))
        z = SpectralField(BASIS.zeros(), BASIS)
        run = run_coupled(model, SolverConfig(dt=1e-3), z, z.copy(), seed=0,
                          n_steps=2)
        with pytest.raises(ValueError, match="positive"):
            dissipation_entry_time(run, 0.0)


class TestDefaults:
    def test_burn_in_is_ten_relaxation_times(self):
        assert default_burn_in(0.2) == pytest.approx(1.2665147955292222, rel=1e-15)
        assert default_burn_in(0.1) == pytest.approx(2.5330295910584444, rel=1e-15)
