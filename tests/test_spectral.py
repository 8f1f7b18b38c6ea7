"""Basis, transform, norm and semigroup checks.

Frozen oracle values are computed from closed forms independent of the
implementation: eigenvalues -(2 pi mp)^2, heat factors exp(nu lam t),
Parseval against direct quadrature, and the mode-wise smoothing envelope
sup_x sqrt(x) exp(-nu x t) = (2 e nu t)^(-1/2).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from svcl.spectral import (
    ModeBasis,
    SpectralField,
    Workspace,
    analyze,
    heat_apply,
    mode_field,
    sobolev_norm,
    spectral_derivative,
    synthesize,
)

LAM1 = -39.47841760435743  # -(2 pi)^2
LAM3 = -157.91367041742973  # -(4 pi)^2
TWO_PI = 6.283185307179586
HEAT_FACTOR_001 = 0.6738254512314336  # exp(-4 pi^2 * 0.01)


def random_field(basis, seed, decay=1.5, amp=1.0):
    """Smooth random field with coefficients amp * N(0,1) / mp^decay."""
    rng = np.random.default_rng(seed)
    c = amp * rng.standard_normal(basis.m_max) / basis.pair_index**decay
    return SpectralField(c, basis)


class TestModeBasis:
    def test_eigenvalue_pairing(self):
        """Sine and cosine members of a pair share -(2 pi mp)^2."""
        basis = ModeBasis(16)
        assert basis.eigenvalue(1) == pytest.approx(LAM1, rel=1e-14)
        assert basis.eigenvalue(2) == basis.eigenvalue(1)
        assert basis.eigenvalue(3) == pytest.approx(LAM3, rel=1e-14)
        assert basis.eigenvalue(4) == basis.eigenvalue(3)

    def test_eigenvalue_bounds(self):
        basis = ModeBasis(8)
        for m in (0, 9, -1):
            with pytest.raises(ValueError):
                basis.eigenvalue(m)

    def test_basis_eval_values(self):
        basis = ModeBasis(8)
        s2 = np.sqrt(2.0)
        assert basis.basis_eval(1, 0.25) == pytest.approx(s2, rel=1e-14)
        assert basis.basis_eval(2, 0.0) == pytest.approx(s2, rel=1e-14)
        assert basis.basis_eval(3, 0.125) == pytest.approx(s2, rel=1e-14)
        assert basis.basis_eval(1, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_orthonormality_quadrature(self):
        """Gram matrix of the sampled basis is the identity on a resolving grid."""
        basis = ModeBasis(12)
        x = basis.grid()
        E = np.stack([basis.basis_eval(m, x) for m in range(1, basis.m_max + 1)])
        gram = E @ E.T / basis.n_x
        assert np.max(np.abs(gram - np.eye(basis.m_max))) < 1e-12

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ModeBasis(7)
        with pytest.raises(ValueError):
            ModeBasis(0)
        with pytest.raises(ValueError):
            ModeBasis(16, n_x=17)
        assert ModeBasis(16).n_x == 32
        assert ModeBasis(16, n_x=18).n_x == 18


def np_fft_synthesize(coeffs, n):
    """synthesize through the public np.fft.irfft."""
    k = coeffs.shape[-1] // 2
    spec = np.zeros((*coeffs.shape[:-1], n // 2 + 1), dtype=complex)
    scale = n / np.sqrt(2.0)
    spec.real[..., 1 : k + 1] = coeffs[..., 1::2] * scale
    spec.imag[..., 1 : k + 1] = coeffs[..., 0::2] * -scale
    return np.fft.irfft(spec, n)


def np_fft_analyze(samples, m_max):
    """analyze through the public np.fft.rfft."""
    n, k = samples.shape[-1], m_max // 2
    spec = np.fft.rfft(samples)
    coeffs = np.empty((*samples.shape[:-1], m_max))
    scale = np.sqrt(2.0) / n
    coeffs[..., 0::2] = spec.imag[..., 1 : k + 1] * -scale
    coeffs[..., 1::2] = spec.real[..., 1 : k + 1] * scale
    return coeffs, spec.real[..., 0] / n


class TestTransforms:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), m=st.sampled_from([2, 4, 8, 16, 32]),
           rows=st.sampled_from([None, 1, 2, 5]), extra=st.integers(2, 40),
           exp=st.sampled_from([-300, -5, 0, 5, 300]))
    def test_gufunc_transforms_equal_np_fft_bitwise(self, data, m, rows, extra, exp):
        # the transforms call numpy's pocketfft gufuncs directly; a numpy
        # whose private module no longer matches np.fft fails here.  n runs
        # over even and odd sizes from m + 2 up
        shape, n = (m,) if rows is None else (rows, m), m + extra
        coeffs = data.draw(arrays(float, shape, elements=st.floats(-2.0, 2.0))) * 10.0**exp
        samples = data.draw(arrays(float, (*shape[:-1], n), elements=st.floats(-2.0, 2.0)))
        samples *= 10.0**exp
        want_s = np_fft_synthesize(coeffs, n)
        want_c, want_mean = np_fft_analyze(samples, m)
        work = Workspace(shape, n)
        for w in (None, work, work):  # a reused workspace too
            got_s = synthesize(coeffs, n, w)
            got_c, got_mean = analyze(samples, m, w)
            assert got_s.shape == want_s.shape and got_c.shape == want_c.shape
            assert got_s.tobytes() == want_s.tobytes()
            assert got_c.tobytes() == want_c.tobytes()
            assert np.float64(got_mean).tobytes() == np.float64(want_mean).tobytes()

    @pytest.mark.parametrize("m_max", [2, 8, 32, 64])
    def test_round_trip(self, m_max):
        """analyze(synthesize(f)) recovers band-limited f to 1e-12."""
        basis = ModeBasis(m_max)
        for seed in range(5):
            f = random_field(basis, seed)
            back, _ = analyze(synthesize(f.coeffs, basis.n_x), m_max)
            assert np.max(np.abs(back - f.coeffs)) < 1e-12

    def test_round_trip_fine_grid(self):
        basis = ModeBasis(16)
        f = random_field(basis, 3)
        back, _ = analyze(synthesize(f.coeffs, 200), 16)
        assert np.max(np.abs(back - f.coeffs)) < 1e-12

    def test_single_mode_samples(self):
        """Synthesis of e_m matches direct evaluation on the grid."""
        basis = ModeBasis(8)
        x = basis.grid()
        for m in range(1, 9):
            g = synthesize(mode_field(basis, m).coeffs, basis.n_x)
            assert np.max(np.abs(g - basis.basis_eval(m, x))) < 1e-13

    def test_projection_truncates_high_modes(self):
        """Content above the retained band is dropped, not aliased in."""
        x = np.arange(64) / 64
        high = np.sqrt(2.0) * np.sin(2 * np.pi * 7 * x)  # pair 7 > m_max/2 = 4
        coeffs, _ = analyze(high, 8)
        assert np.max(np.abs(coeffs)) < 1e-13

    def test_mean_is_reported_apart_from_modes(self):
        """A constant offset is reported as the mean and kept out of the modes."""
        basis = ModeBasis(8)
        f = random_field(basis, 1)
        offset = 5e-13
        back, mean = analyze(synthesize(f.coeffs, basis.n_x) + offset, 8)
        assert np.max(np.abs(back - f.coeffs)) < 1e-12
        assert mean == pytest.approx(offset, rel=1e-3)

    def test_coarse_grid_rejected(self):
        basis = ModeBasis(16)
        with pytest.raises(ValueError):
            synthesize(random_field(basis, 0).coeffs, 17)
        with pytest.raises(ValueError):
            analyze(np.zeros(17), 16)


class TestDerivative:
    def test_pair_rotation(self):
        """d/dx e_1 = 2 pi e_2 and d/dx e_2 = -2 pi e_1."""
        basis = ModeBasis(8)
        d1 = spectral_derivative(mode_field(basis, 1))
        expected = np.zeros(8)
        expected[1] = TWO_PI
        assert np.max(np.abs(d1.coeffs - expected)) < 1e-13
        d2 = spectral_derivative(mode_field(basis, 2))
        expected = np.zeros(8)
        expected[0] = -TWO_PI
        assert np.max(np.abs(d2.coeffs - expected)) < 1e-13

    def test_matches_finite_differences(self):
        basis = ModeBasis(16)
        f = random_field(basis, 7)
        x = np.linspace(0, 1, 2001)[:-1]
        h = 1e-6
        fx = np.zeros_like(x)
        for m in range(1, 17):
            fx += f.coeffs[m - 1] * (
                basis.basis_eval(m, x + h) - basis.basis_eval(m, x - h)
            ) / (2 * h)
        df = spectral_derivative(f)
        vals = np.zeros_like(x)
        for m in range(1, 17):
            vals += df.coeffs[m - 1] * basis.basis_eval(m, x)
        assert np.max(np.abs(vals - fx)) < 1e-4

    def test_second_derivative_is_laplacian(self):
        """d2/dx2 acts as multiplication by lambda_m."""
        basis = ModeBasis(12)
        f = random_field(basis, 2)
        dd = spectral_derivative(spectral_derivative(f))
        assert np.max(np.abs(dd.coeffs - basis.eigenvalues * f.coeffs)) < 1e-10


class TestHeatSemigroup:
    def test_mode1_factor_frozen(self):
        basis = ModeBasis(8)
        out = heat_apply(mode_field(basis, 1), nu=1.0, t=0.01)
        assert out.coeffs[0] == pytest.approx(HEAT_FACTOR_001, rel=1e-14)

    def test_semigroup_property(self):
        """S_{t+s} = S_t S_s to machine precision."""
        basis = ModeBasis(16)
        f = random_field(basis, 4)
        a = heat_apply(f, 0.3, 0.07)
        b = heat_apply(heat_apply(f, 0.3, 0.03), 0.3, 0.04)
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-15

    def test_contractive_in_every_hs(self):
        basis = ModeBasis(16)
        for seed in range(4):
            f = random_field(basis, seed)
            g = heat_apply(f, 0.5, 0.01)
            for s in (0.0, 0.5, 1.0, 2.0):
                assert sobolev_norm(g, s) <= sobolev_norm(f, s) * (1 + 1e-14)

    def test_negative_time_rejected(self):
        basis = ModeBasis(8)
        with pytest.raises(ValueError):
            heat_apply(mode_field(basis, 1), 1.0, -0.1)

    def test_smoothing_bound_fitted_constant(self):
        """||S_t f||_H2 <= C t^(-1/2) ||f||_H1 with fitted C below the envelope.

        The mode-wise envelope sup_x sqrt(x) exp(-nu x t) gives the ceiling
        C = (2 e nu)^(-1/2) once the sqrt(t) is pulled out.
        """
        nu = 1.0
        basis = ModeBasis(64)
        ceiling = 1.0 / np.sqrt(2 * np.e * nu)
        fitted = 0.0
        for seed in range(8):
            f = random_field(basis, seed, decay=1.0)
            h1 = sobolev_norm(f, 1)
            for t in np.geomspace(1e-5, 1.0, 12):
                ratio = sobolev_norm(heat_apply(f, nu, t), 2) * np.sqrt(t) / h1
                fitted = max(fitted, ratio)
        assert fitted <= ceiling * (1 + 1e-12)
        # the fitted constant is itself a valid bound on fresh samples
        for seed in range(100, 104):
            f = random_field(basis, seed, decay=1.0)
            for t in np.geomspace(3e-5, 0.3, 7):
                lhs = sobolev_norm(heat_apply(f, nu, t), 2)
                assert lhs <= fitted / np.sqrt(t) * sobolev_norm(f, 1) * (1 + 1e-9)


def quad_lp(f, n, p):
    """L^p quadrature norm of f's samples on n points (p = inf: max)."""
    a = np.abs(synthesize(f.coeffs, n))
    return float(a.max()) if np.isinf(p) else float(np.mean(a**p) ** (1.0 / p))


class TestNorms:
    def test_parseval(self):
        """sobolev_norm(f, 0) equals the L2 quadrature norm of the samples."""
        basis = ModeBasis(32)
        for seed in range(4):
            f = random_field(basis, seed)
            quad = quad_lp(f, basis.n_x, 2)
            assert sobolev_norm(f, 0) == pytest.approx(quad, rel=1e-12)

    def test_h1_frozen_value(self):
        """||e_1||_H1^2 = 4 pi^2."""
        basis = ModeBasis(8)
        assert sobolev_norm(mode_field(basis, 1), 1) ** 2 == pytest.approx(
            -LAM1, rel=1e-14
        )

    def test_h2_weights(self):
        basis = ModeBasis(8)
        f = mode_field(basis, 3, 2.0)
        assert sobolev_norm(f, 2) == pytest.approx(2.0 * (-LAM3), rel=1e-13)

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_poincare_chain(self, p):
        """||v||_Lp <= ||v||_Linf <= ||v||_H1 on random fields."""
        basis = ModeBasis(32)
        for seed in range(6):
            f = random_field(basis, seed, decay=1.2)
            vp = quad_lp(f, 4 * basis.m_max, p)
            vinf = quad_lp(f, 4 * basis.m_max, np.inf)
            assert vp <= vinf * (1 + 1e-13)
            assert vinf <= sobolev_norm(f, 1) * (1 + 1e-13)

    def test_lp_known_values(self):
        """||e_1||_2 = 1 and ||e_1||_inf = sqrt(2) on a fine grid."""
        e1 = mode_field(ModeBasis(8), 1)
        assert quad_lp(e1, 4096, 2) == pytest.approx(1.0, rel=1e-12)
        assert quad_lp(e1, 4096, np.inf) == pytest.approx(np.sqrt(2), rel=1e-6)
