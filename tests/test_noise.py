"""Noise amplitude, trace, draw-discipline and OU transition checks.

Statistical assertions use fixed seeds, so they are deterministic; the
tolerance bands were sized at several standard errors of the estimator
they check.
"""

import numpy as np
import pytest
import reference as ref
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from svcl.integrator import convolution_grid
from svcl.noise import NoisePath, NoiseSpec, trace_h2
from svcl.spectral import ModeBasis

D0_SINGLE_MODE = 1558.5454565440386  # 16 pi^4 = lam_1^2
OU_STAT_VAR = 0.012665147955292222  # 1 / (8 pi^2)
OU_STEP_VAR = 0.01266043212157055  # (1 - exp(-8 pi^2 / 10)) / (8 pi^2)


def e1_spec(m_max=4):
    sig = np.zeros(m_max)
    sig[0] = 1.0
    return NoiseSpec(sigma=sig)


class TestNoiseSpec:
    def test_profile_values(self):
        basis = ModeBasis(6)
        sig = NoiseSpec(c=1.0, q=3.0).resolve(basis)
        assert sig[0] == sig[1] == pytest.approx(0.125, rel=1e-14)  # 2^-3
        assert sig[2] == sig[3] == pytest.approx(3.0**-3, rel=1e-14)

    def test_profile_rejects_divergent_q(self):
        with pytest.raises(ValueError, match="H2 trace"):
            NoiseSpec(c=1.0, q=2.0)
        with pytest.raises(ValueError, match="H2 trace"):
            NoiseSpec(c=1.0, q=2.5)

    def test_exactly_one_description(self):
        with pytest.raises(ValueError):
            NoiseSpec()
        with pytest.raises(ValueError):
            NoiseSpec(sigma=[1.0, 0.0], c=1.0, q=3.0)
        with pytest.raises(ValueError):
            NoiseSpec(c=1.0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(sigma=[1.0, -0.5])

    def test_sigma_length_checked(self):
        basis = ModeBasis(8)
        with pytest.raises(ValueError):
            NoiseSpec(sigma=[1.0, 0.0]).resolve(basis)

    def test_trace_single_mode_frozen(self):
        basis = ModeBasis(4)
        tr = trace_h2(e1_spec(), basis)
        assert tr.h2 == pytest.approx(D0_SINGLE_MODE, rel=1e-12)
        assert tr.l2 == pytest.approx(1.0, rel=1e-14)

    def test_trace_profile_summation(self):
        basis = ModeBasis(8)
        spec = NoiseSpec(c=0.5, q=3.0)
        sig = spec.resolve(basis)
        tr = trace_h2(spec, basis)
        assert tr.l2 == pytest.approx(np.sum(sig**2), rel=1e-13)
        assert tr.h2 == pytest.approx(np.sum(basis.eigenvalues**2 * sig**2), rel=1e-13)


class TestDrawDiscipline:
    def test_same_seed_bitwise_identical(self):
        basis = ModeBasis(8)
        spec = NoiseSpec(c=1.0, q=3.0)
        a = NoisePath(spec, basis, 123)
        b = NoisePath(spec, basis, 123)
        for _ in range(50):
            assert np.array_equal(a.ou_increment(0.1, 0.01), b.ou_increment(0.1, 0.01))

    def test_different_seeds_differ(self):
        basis = ModeBasis(8)
        spec = NoiseSpec(c=1.0, q=3.0)
        a = NoisePath(spec, basis, 1).ou_increment(0.1, 0.01)
        b = NoisePath(spec, basis, 2).ou_increment(0.1, 0.01)
        assert not np.array_equal(a, b)

    def test_block_matches_fresh_construction(self):
        """State-reset draws equal literally keyed Philox generators."""
        basis = ModeBasis(8)
        path = NoisePath(NoiseSpec(c=1.0, q=3.0), basis, 77)
        for idx in (0, 1, 5, 1000, 2**40):
            fresh = np.random.Generator(
                np.random.Philox(key=77, counter=[0, idx, 0, 0])
            ).standard_normal(8)
            assert np.array_equal(path.block(idx, np.empty(8)), fresh)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_block_matches_fresh_construction_at_extreme_indices(self, seed):
        """The reset from a dict of Python ints holds over the whole 64-bit
        index range, out of order and on a second path set to the same draw
        index.  The fresh counter is a uint64 array: numpy turns a list
        holding 2^64 - 1 into float64 and casts it to 0."""
        basis = ModeBasis(16)
        path = NoisePath(NoiseSpec(c=1.0, q=3.0), basis, seed)
        path.block(5, np.empty(16))
        twin = NoisePath(NoiseSpec(c=1.0, q=3.0), basis, seed)
        twin.draw_index = path.draw_index
        for idx in (2**63, 0, 2**64 - 1, 2**32, 0, 2**63):
            counter = np.array([0, idx, 0, 0], dtype=np.uint64)
            fresh = np.random.Generator(np.random.Philox(key=seed, counter=counter))
            want = fresh.standard_normal(16).tobytes()
            assert path.block(idx, np.empty(16)).tobytes() == want
            assert twin.block(idx, np.empty(16)).tobytes() == want

    def test_silent_modes_exact_zero_and_stable(self):
        """sigma_m = 0 gives exactly 0.0 and does not shift other modes."""
        basis = ModeBasis(6)
        full = NoisePath(NoiseSpec(sigma=[1.0, 1.0, 1.0, 1.0, 1.0, 1.0]), basis, 9)
        sparse = NoisePath(NoiseSpec(sigma=[1.0, 0.0, 1.0, 0.0, 0.0, 1.0]), basis, 9)
        for _ in range(20):
            a = full.ou_increment(0.1, 0.05)
            b = sparse.ou_increment(0.1, 0.05)
            assert b[1] == 0.0 and b[3] == 0.0 and b[4] == 0.0
            for m in (0, 2, 5):
                assert a[m] == b[m]

    def test_resume_by_draw_index(self):
        basis = ModeBasis(4)
        spec = NoiseSpec(c=1.0, q=3.0)
        a = NoisePath(spec, basis, 5)
        seq = [a.ou_increment(0.1, 0.01) for _ in range(10)]
        b = NoisePath(spec, basis, 5)
        b.draw_index = 6
        for k in range(6, 10):
            assert np.array_equal(b.ou_increment(0.1, 0.01), seq[k])

    @pytest.mark.parametrize("m", [2, 8, 16, 64])
    def test_mode_draw_does_not_depend_on_the_truncation(self, m):
        """A mode's increment depends only on (seed, mode, step): at every m
        the shared modes get the m=128 increment bit for bit, so one noise
        path serves every Galerkin truncation."""
        spec = NoiseSpec(c=0.5, q=3.0)
        paths = [NoisePath(spec, ModeBasis(k), 5) for k in (m, 128)]
        for p in paths:
            p.draw_index = 11
        got, full = (p.ou_increment(0.05, 1e-3) for p in paths)
        assert got.tobytes() == full[:m].tobytes()

    def test_fork_continues_identically(self):
        """A fresh path set to another's draw index continues its realization."""
        basis = ModeBasis(4)
        path = NoisePath(e1_spec(), basis, 3)
        for _ in range(4):
            path.ou_increment(1.0, 0.01)
        twin = NoisePath(e1_spec(), basis, 3)
        twin.draw_index = path.draw_index
        assert np.array_equal(convolution_grid(path, 1.0, 0.01, 1),
                              convolution_grid(twin, 1.0, 0.01, 1))
        assert path.draw_index == twin.draw_index == 5
        assert np.array_equal(path.ou_increment(1.0, 0.01), twin.ou_increment(1.0, 0.01))

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**64 - 1), m=st.sampled_from([2, 8, 16, 64]),
           k=st.integers(1, 40), start=st.one_of(st.integers(0, 1000),
                                                 st.integers(0, 2**64 - 41)),
           nu=st.sampled_from([0.01, 0.1, 1.0]), dt=st.sampled_from([1e-4, 5e-3, 0.1]),
           warm=st.booleans())
    def test_block_draw_equals_one_step_draws(self, seed, m, k, start, nu, dt, warm):
        """k rows drawn into one block from any draw index equal k one-step
        draws bit for bit, and advance the index by k; with warm, the std
        was first cached for another (nu, dt)."""
        spec = NoiseSpec(c=0.5, q=3.0)
        block, steps = NoisePath(spec, ModeBasis(m), seed), NoisePath(spec, ModeBasis(m), seed)
        if warm:
            block.ou_increment(2.0 * nu, dt, out=np.empty((2, m)))
        block.draw_index = steps.draw_index = start
        out = np.full((k, m), np.nan)
        assert block.ou_increment(nu, dt, out=out) is out
        assert block.draw_index == start + k
        want = np.array([steps.ou_increment(nu, dt) for _ in range(k)])
        assert out.tobytes() == want.tobytes()

    def test_block_draw_refuses_a_block_it_cannot_fill_in_place(self):
        """An out that reshapes to (k, m) only by a copy would get its draws
        in that copy: a strided view, a wrong row length and a 0-d array
        raise before drawing, and draw_index stays."""
        path = NoisePath(NoiseSpec(c=0.5, q=3.0), ModeBasis(16), 7)
        for out in (np.empty((2, 4, 16))[:, :2], np.empty((4, 32))[:, ::2],
                    np.empty((4, 8)), np.empty(())):
            with pytest.raises(ValueError, match="C-contiguous"):
                path.ou_increment(0.1, 0.01, out=out)
            assert path.draw_index == 0
        assert path.ou_increment(0.1, 0.01, out=np.empty((4, 16))).shape == (4, 16)
        assert path.draw_index == 4

    def test_negative_seed_accepted(self):
        basis = ModeBasis(4)
        a = NoisePath(e1_spec(), basis, -7)
        b = NoisePath(e1_spec(), basis, -7)
        assert np.array_equal(a.block(0, np.empty(4)), b.block(0, np.empty(4)))


class TestWienerIncrements:
    """One step's fresh noise, the Wiener increments as the exact OU
    transition integrates them."""

    def test_variance_matches_sigma(self):
        """Mode variance sigma^2 (1 - exp(2 nu lam dt)) / (-2 nu lam)."""
        basis = ModeBasis(4)
        path = NoisePath(NoiseSpec(sigma=[2.0, 1.0, 0.5, 0.0]), basis, 202)
        nu, dt = 0.1, 0.02
        lam = basis.eigenvalues
        draws = np.array([path.ou_increment(nu, dt) for _ in range(40000)])
        var = draws.var(axis=0)
        expected = (np.array([4.0, 1.0, 0.25, 0.0]) * (1.0 - np.exp(2.0 * nu * lam * dt))
                    / (-2.0 * nu * lam))
        # relative SE of a variance estimate at n = 4e4 is sqrt(2/n) ~ 0.7%
        assert np.allclose(var[:3], expected[:3], rtol=0.05)
        assert var[3] == 0.0

    def test_h2_pairing_variance(self):
        """<w(t), u>_H2 has variance sum_k <g_k, u>_H2^2 (1 - exp(2 nu lam_k t))
        / (-2 nu lam_k) for a unit H2 vector: the exact OU law at t."""
        basis = ModeBasis(4)
        sig = np.array([1.0, 0.5, 0.25, 0.0])
        lam = basis.eigenvalues
        u = np.array([0.6, 0.8, 0.3, -0.2])
        u = u / np.sqrt(np.sum(lam**2 * u**2))  # unit in H2
        nu, t, n_steps, n_paths = 0.1, 0.1, 5, 3000
        dt = t / n_steps
        vals = np.empty(n_paths)
        for k in range(n_paths):
            path = NoisePath(NoiseSpec(sigma=sig), basis, 1000 + k)
            w = convolution_grid(path, nu, dt, n_steps)[-1]
            vals[k] = np.sum(lam**2 * w * u)
        expected = np.sum((lam**2 * sig * u) ** 2 * (1.0 - np.exp(2.0 * nu * lam * t))
                          / (-2.0 * nu * lam))
        assert vals.var() == pytest.approx(expected, rel=0.1)


class TestOUConvolution:
    def test_one_step_variance_frozen(self):
        """nu=1, dt=0.1, sigma_1=1: fresh variance (1 - e^(-8 pi^2/10))/(8 pi^2)."""
        basis = ModeBasis(4)
        samples = np.empty(40000)
        for k in range(len(samples)):
            path = NoisePath(e1_spec(), basis, 50000 + k)
            samples[k] = convolution_grid(path, 1.0, 0.1, 1)[1, 0]
        assert samples.mean() == pytest.approx(0.0, abs=4 * np.sqrt(OU_STEP_VAR / 4e4))
        assert samples.var() == pytest.approx(OU_STEP_VAR, rel=0.05)

    def test_stationary_variance(self):
        """Long single-mode chain reaches sigma^2/(2 nu |lam_1|) = 1/(8 pi^2)."""
        basis = ModeBasis(4)
        path = NoisePath(e1_spec(), basis, 8)
        n = 100000
        vals = convolution_grid(path, 1.0, 0.01, n)[1:, 0]
        assert vals.var() == pytest.approx(OU_STAT_VAR, rel=0.05)

    def test_n_small_steps_match_one_big_step(self):
        """Composition exactness: n steps of dt vs one step of n dt (two-sample KS)."""
        basis = ModeBasis(2)
        nu, dt, n = 0.7, 0.02, 5
        m = 10000
        composed = np.empty(m)
        for k in range(m):
            path = NoisePath(NoiseSpec(sigma=[1.0, 0.0]), basis, 200000 + k)
            composed[k] = convolution_grid(path, nu, dt, n)[n, 0]
        lam = basis.eigenvalues[0]
        big_var = (1.0 - np.exp(2 * nu * lam * n * dt)) / (-2 * nu * lam)
        direct = np.sqrt(big_var) * np.random.default_rng(99).standard_normal(m)
        assert stats.ks_2samp(composed, direct).pvalue > 0.01

    def test_decay_factor_exact(self):
        """Between draws the convolution decays by exp(nu lam dt): w(t_2) is
        exp(nu lam dt) w(t_1) plus the second draw, bit for bit; with silent
        noise it stays exactly zero."""
        basis = ModeBasis(4)
        path = NoisePath(NoiseSpec(sigma=[1.0, 1.0, 1.0, 1.0]), basis, 1)
        w = convolution_grid(path, 2.0, 0.003, 2)
        assert path.draw_index == 2
        draws = NoisePath(NoiseSpec(sigma=[1.0, 1.0, 1.0, 1.0]), basis, 1)
        xi = [draws.ou_increment(2.0, 0.003) for _ in range(2)]
        assert np.array_equal(w[1], xi[0])
        assert np.array_equal(w[2], np.exp(2.0 * basis.eigenvalues * 0.003) * w[1] + xi[1])
        silent = NoisePath(NoiseSpec(sigma=[0.0, 0.0, 0.0, 0.0]), basis, 1)
        assert np.all(convolution_grid(silent, 2.0, 0.003, 3) == 0.0)

    def test_grid_equals_tracked_recursion_bitwise(self):
        """convolution_grid equals the convolution tracked draw by draw with
        the same operations, exp(nu lam dt) w + xi."""
        basis = ModeBasis(8)
        spec = NoiseSpec(c=0.7, q=3.0)
        nu, dt, n = 0.3, 0.01, 50
        path = NoisePath(spec, basis, 12)
        path.draw_index = 7
        lam = basis.eigenvalues
        want = np.zeros((n + 1, 8))
        for i in range(n):
            want[i + 1] = np.exp(nu * lam * dt) * want[i] + ref.increment(spec, basis, nu, dt, 12,
                                                                         7 + i)
        got = convolution_grid(path, nu, dt, n)
        assert got.tobytes() == want.tobytes()
        assert path.draw_index == 7 + n


class TestContinuity:
    def run_h2_series(self, dt, n=400, seed=21):
        basis = ModeBasis(8)
        path = NoisePath(NoiseSpec(c=1.0, q=3.0), basis, seed)
        lam2 = basis.eigenvalues**2
        return np.sqrt(np.sum(lam2 * convolution_grid(path, 1.0, dt, n) ** 2, axis=1))

    def test_sqrt_dt_scaling(self):
        """Typical H2 jumps scale like sqrt(dt): log-log slope 0.5 +- 0.1."""
        dts = np.array([1e-2, 1e-3, 1e-4])
        med = []
        for dt in dts:
            series = self.run_h2_series(dt)
            med.append(np.median(np.abs(np.diff(series[100:]))))
        slope = np.polyfit(np.log(dts), np.log(med), 1)[0]
        assert 0.4 <= slope <= 0.6
