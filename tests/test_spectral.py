"""Basis, transform, derivative, norm and semigroup checks.

Frozen oracle values are computed from closed forms independent of the
implementation: eigenvalues -(2 pi mp)^2, heat factors exp(nu lam t),
Parseval against direct quadrature, and the mode-wise smoothing envelope
sup_x sqrt(x) exp(-nu x t) = (2 e nu t)^(-1/2).  The derivative, heat and
norm checks run on what the step loop uses: `rotate_pairs` with a
`Stepper`'s weights, `Stepper.decay`, and `Stepper.h1_sq` / `np.vecdot`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.fft import _pocketfft_umath as pocketfft

from svcl.flux import FluxSpec
from svcl.integrator import ModelSpec, SolverConfig, Stepper
from svcl.noise import NoiseSpec
from svcl.spectral import (
    ModeBasis,
    SpectralField,
    Workspace,
    analyze,
    mode_field,
    pair_weights,
    rotate_pairs,
    synthesize,
)

LAM1 = -39.47841760435743  # -(2 pi)^2
LAM3 = -157.91367041742973  # -(4 pi)^2
TWO_PI = 6.283185307179586
HEAT_FACTOR_001 = 0.6738254512314336  # exp(-4 pi^2 * 0.01)


def silent_stepper(basis, nu=1.0, dt=1.0):
    """A Stepper with no flux and no noise: its decay is S_dt, and its
    derivative weights and norm weights are those every run uses."""
    model = ModelSpec(nu, FluxSpec("zero"), NoiseSpec(sigma=np.zeros(basis.m_max)))
    return Stepper(model, SolverConfig(dt=dt), basis)


def hs_norm(basis, c, s):
    """(sum_m |lambda_m|^s c_m^2)^(1/2), with np.vecdot as the record columns
    take their norms."""
    return float(np.sqrt(np.vecdot(c * c, np.abs(basis.eigenvalues) ** s)))


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
    return coeffs


def two_multiply_synthesize(coeffs, n):
    """The packing as written before the pair views: two multiplies into
    the real and imaginary band of the padded spectrum.  Returns the
    padded spectrum too."""
    k = coeffs.shape[-1] // 2
    spec = np.zeros((*coeffs.shape[:-1], n // 2 + 1), dtype=complex)
    scale = n / np.sqrt(2.0)
    np.multiply(coeffs[..., 1::2], scale, out=spec.real[..., 1 : k + 1])
    np.multiply(coeffs[..., 0::2], -scale, out=spec.imag[..., 1 : k + 1])
    return pocketfft.irfft(spec, 1.0 / n, out=np.empty((*coeffs.shape[:-1], n))), spec


def two_multiply_analyze(samples, m_max):
    """The unpacking as written before the pair views."""
    n, k = samples.shape[-1], m_max // 2
    spec = np.empty((*samples.shape[:-1], n // 2 + 1), dtype=complex)
    coeffs = np.empty((*samples.shape[:-1], m_max))
    (pocketfft.rfft_n_even if n % 2 == 0 else pocketfft.rfft_n_odd)(samples, 1, out=spec)
    scale = np.sqrt(2.0) / n
    np.multiply(spec.imag[..., 1 : k + 1], -scale, out=coeffs[..., 0::2])
    np.multiply(spec.real[..., 1 : k + 1], scale, out=coeffs[..., 1::2])
    return coeffs


def two_multiply_rotate(c, w):
    """The pair rotation as written before the pair weights."""
    out = np.empty_like(c)
    np.multiply(c[..., 1::2], -w[1::2], out=out[..., 0::2])
    np.multiply(c[..., 0::2], w[0::2], out=out[..., 1::2])
    return out


SPECIALS = (0.0, -0.0, np.inf, -np.inf, np.nan)


def with_specials(data, a):
    """a with a few entries replaced by signed zeros, infinities and nan;
    most rows stay finite, so a packing error still shows after the FFT."""
    flat = a.reshape(-1)
    hits = data.draw(st.lists(st.tuples(st.integers(0, flat.size - 1), st.sampled_from(SPECIALS)),
                              max_size=3))
    for i, v in hits:
        flat[i] = v
    return a


class TestTransforms:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), m=st.sampled_from([2, 4, 16, 32, 256]),
           rows=st.sampled_from([None, 1, 3]), extra=st.integers(2, 41),
           exp=st.sampled_from([-300, 0, 300]))
    @np.errstate(over="ignore", invalid="ignore")
    def test_pair_views_equal_two_multiplies_bitwise(self, data, m, rows, extra, exp):
        # one multiply on (..., k, 2) pair views must give the bits of the
        # separate sin and cos multiplies, signed zeros, infinities and nan
        # included, on fresh arrays and on a workspace; n runs over even and
        # odd sizes
        shape, n = (m,) if rows is None else (rows, m), m + extra
        elements = st.floats(-2.0, 2.0)
        coeffs = with_specials(data, data.draw(arrays(float, shape, elements=elements)) * 10.0**exp)
        samples = data.draw(arrays(float, (*shape[:-1], n), elements=elements)) * 10.0**exp
        samples = with_specials(data, samples)
        w = data.draw(arrays(float, m, elements=st.floats(-50.0, 50.0)))
        basis = ModeBasis(m)
        want_s, want_spec = two_multiply_synthesize(coeffs, n)
        want_c = two_multiply_analyze(samples, m)
        work = Workspace(shape, n)
        for wk in (None, work, work):
            assert synthesize(coeffs, n, wk).tobytes() == want_s.tobytes()
            assert analyze(samples, m, wk).tobytes() == want_c.tobytes()
        assert work.padded.tobytes() == want_spec.tobytes()
        for weights in (w, basis.wavenumbers, -basis.wavenumbers):
            got = rotate_pairs(coeffs, pair_weights(weights))
            assert got.shape == coeffs.shape
            assert got.tobytes() == two_multiply_rotate(coeffs, weights).tobytes()

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
        want_c = np_fft_analyze(samples, m)
        work = Workspace(shape, n)
        for w in (None, work, work):  # a reused workspace too
            got_s = synthesize(coeffs, n, w)
            got_c = analyze(samples, m, w)
            assert got_s.shape == want_s.shape and got_c.shape == want_c.shape
            assert got_s.tobytes() == want_s.tobytes()
            assert got_c.tobytes() == want_c.tobytes()

    @pytest.mark.parametrize("m", [2, 16])
    def test_workspace_rejects_a_coarse_grid(self, m):
        # calls on a workspace skip the grid check, so its constructor makes it
        for shape in ((m,), (2, m)):
            with pytest.raises(ValueError, match="too coarse"):
                Workspace(shape, m + 1)
            Workspace(shape, m + 2)

    @pytest.mark.parametrize("n", [18, 19, 34, 35])
    def test_workspace_calls_equal_allocating_calls(self, n):
        # the workspace picks the rfft kernel for the parity of n once
        rng = np.random.default_rng(n)
        for shape in ((16,), (2, 16)):
            coeffs = rng.standard_normal(shape)
            samples = rng.standard_normal((*shape[:-1], n))
            work = Workspace(shape, n)
            for _ in range(2):
                assert synthesize(coeffs, n, work).tobytes() == synthesize(coeffs, n).tobytes()
                assert analyze(samples, 16, work).tobytes() == analyze(samples, 16).tobytes()

    @pytest.mark.parametrize("m_max", [2, 8, 32, 64])
    def test_round_trip(self, m_max):
        """analyze(synthesize(f)) recovers band-limited f to 1e-12."""
        basis = ModeBasis(m_max)
        for seed in range(5):
            f = random_field(basis, seed)
            back = analyze(synthesize(f.coeffs, basis.n_x), m_max)
            assert np.max(np.abs(back - f.coeffs)) < 1e-12

    def test_round_trip_fine_grid(self):
        basis = ModeBasis(16)
        f = random_field(basis, 3)
        back = analyze(synthesize(f.coeffs, 200), 16)
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
        coeffs = analyze(high, 8)
        assert np.max(np.abs(coeffs)) < 1e-13

    def test_constant_offset_stays_out_of_modes(self):
        """A constant offset is the dropped mean: the modes come out as without it."""
        basis = ModeBasis(8)
        f = random_field(basis, 1)
        for offset in (5e-13, 3.0):
            back = analyze(synthesize(f.coeffs, basis.n_x) + offset, 8)
            assert back.shape == (8,)
            assert np.max(np.abs(back - f.coeffs)) < 1e-12

    def test_coarse_grid_rejected(self):
        basis = ModeBasis(16)
        with pytest.raises(ValueError):
            synthesize(random_field(basis, 0).coeffs, 17)
        with pytest.raises(ValueError):
            analyze(np.zeros(17), 16)


def ddx(c, basis):
    """d/dx as the step loop applies it: the nonlinear term rotates by the
    Stepper's -d/dx weights, and IEEE negation is exact."""
    return -rotate_pairs(c, silent_stepper(basis).neg_dx)


class TestDerivative:
    def test_pair_rotation(self):
        """d/dx e_1 = 2 pi e_2 and d/dx e_2 = -2 pi e_1."""
        basis = ModeBasis(8)
        d1 = ddx(mode_field(basis, 1).coeffs, basis)
        expected = np.zeros(8)
        expected[1] = TWO_PI
        assert np.max(np.abs(d1 - expected)) < 1e-13
        d2 = ddx(mode_field(basis, 2).coeffs, basis)
        expected = np.zeros(8)
        expected[0] = -TWO_PI
        assert np.max(np.abs(d2 - expected)) < 1e-13
        assert silent_stepper(basis).neg_dx.tobytes() == pair_weights(
            -basis.wavenumbers).tobytes()

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
        df = ddx(f.coeffs, basis)
        vals = np.zeros_like(x)
        for m in range(1, 17):
            vals += df[m - 1] * basis.basis_eval(m, x)
        assert np.max(np.abs(vals - fx)) < 1e-4

    def test_second_derivative_is_laplacian(self):
        """d2/dx2 acts as multiplication by lambda_m, on a block of rows too."""
        basis = ModeBasis(12)
        block = np.stack([random_field(basis, seed).coeffs for seed in (2, 3)])
        dd = ddx(ddx(block, basis), basis)
        assert dd.shape == block.shape
        assert np.max(np.abs(dd - basis.eigenvalues * block)) < 1e-10


class TestHeatSemigroup:
    def test_mode1_factor_frozen(self):
        basis = ModeBasis(8)
        out = silent_stepper(basis, nu=1.0, dt=0.01).decay * mode_field(basis, 1).coeffs
        assert out[0] == pytest.approx(HEAT_FACTOR_001, rel=1e-14)

    def test_semigroup_property(self):
        """S_{t+s} = S_t S_s to machine precision."""
        basis = ModeBasis(16)
        f = random_field(basis, 4).coeffs

        def heat(c, t):
            return silent_stepper(basis, nu=0.3, dt=t).decay * c

        a = heat(f, 0.07)
        b = heat(heat(f, 0.03), 0.04)
        assert np.max(np.abs(a - b)) < 1e-15

    def test_contractive_in_every_hs(self):
        basis = ModeBasis(16)
        decay = silent_stepper(basis, nu=0.5, dt=0.01).decay
        for seed in range(4):
            f = random_field(basis, seed).coeffs
            g = decay * f
            for s in (0.0, 0.5, 1.0, 2.0):
                assert hs_norm(basis, g, s) <= hs_norm(basis, f, s) * (1 + 1e-14)

    def test_negative_time_rejected(self):
        # a semigroup step needs dt > 0: the solver config refuses the rest
        for dt in (-0.1, 0.0):
            with pytest.raises(ValueError, match="dt"):
                silent_stepper(ModeBasis(8), dt=dt)

    def test_smoothing_bound_fitted_constant(self):
        """||S_t f||_H2 <= C t^(-1/2) ||f||_H1 with fitted C below the envelope.

        The mode-wise envelope sup_x sqrt(x) exp(-nu x t) gives the ceiling
        C = (2 e nu)^(-1/2) once the sqrt(t) is pulled out.
        """
        nu = 1.0
        basis = ModeBasis(64)
        ceiling = 1.0 / np.sqrt(2 * np.e * nu)

        def h2_after(c, t):
            st = silent_stepper(basis, nu=nu, dt=t)
            g = st.decay * c
            return float(np.sqrt(np.vecdot(g * g, st.lam_sq)))

        h1_of = silent_stepper(basis).h1_sq
        fitted = 0.0
        for seed in range(8):
            f = random_field(basis, seed, decay=1.0).coeffs
            h1 = np.sqrt(h1_of(f))
            for t in np.geomspace(1e-5, 1.0, 12):
                fitted = max(fitted, h2_after(f, t) * np.sqrt(t) / h1)
        assert fitted <= ceiling * (1 + 1e-12)
        # the fitted constant is itself a valid bound on fresh samples
        for seed in range(100, 104):
            f = random_field(basis, seed, decay=1.0).coeffs
            for t in np.geomspace(3e-5, 0.3, 7):
                assert h2_after(f, t) <= fitted / np.sqrt(t) * np.sqrt(h1_of(f)) * (1 + 1e-9)


def quad_lp(f, n, p):
    """L^p quadrature norm of f's samples on n points (p = inf: max)."""
    a = np.abs(synthesize(f.coeffs, n))
    return float(a.max()) if np.isinf(p) else float(np.mean(a**p) ** (1.0 / p))


class TestNorms:
    def test_parseval(self):
        """The record's L2 column, vecdot(c, c), is the squared L2 quadrature
        norm of the samples."""
        basis = ModeBasis(32)
        for seed in range(4):
            f = random_field(basis, seed)
            quad = quad_lp(f, basis.n_x, 2)
            assert np.sqrt(np.vecdot(f.coeffs, f.coeffs)) == pytest.approx(quad, rel=1e-12)

    def test_h1_frozen_value(self):
        """||e_1||_H1^2 = 4 pi^2."""
        basis = ModeBasis(8)
        assert silent_stepper(basis).h1_sq(mode_field(basis, 1).coeffs) == pytest.approx(
            -LAM1, rel=1e-14
        )

    def test_h2_weights(self):
        basis = ModeBasis(8)
        c = mode_field(basis, 3, 2.0).coeffs
        h2_sq = np.vecdot(c * c, silent_stepper(basis).lam_sq)
        assert np.sqrt(h2_sq) == pytest.approx(2.0 * (-LAM3), rel=1e-13)

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_poincare_chain(self, p):
        """||v||_Lp <= ||v||_Linf <= ||v||_H1 on random fields."""
        basis = ModeBasis(32)
        h1_sq = silent_stepper(basis).h1_sq
        for seed in range(6):
            f = random_field(basis, seed, decay=1.2)
            vp = quad_lp(f, 4 * basis.m_max, p)
            vinf = quad_lp(f, 4 * basis.m_max, np.inf)
            assert vp <= vinf * (1 + 1e-13)
            assert vinf <= np.sqrt(h1_sq(f.coeffs)) * (1 + 1e-13)

    def test_lp_known_values(self):
        """||e_1||_2 = 1 and ||e_1||_inf = sqrt(2) on a fine grid."""
        e1 = mode_field(ModeBasis(8), 1)
        assert quad_lp(e1, 4096, 2) == pytest.approx(1.0, rel=1e-12)
        assert quad_lp(e1, 4096, np.inf) == pytest.approx(np.sqrt(2), rel=1e-6)
