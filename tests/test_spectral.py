"""Basis, transform, derivative, norm and semigroup checks.

Frozen oracle values are computed from closed forms independent of the
implementation: eigenvalues -(2 pi mp)^2, heat factors exp(nu lam t),
Parseval against direct quadrature, and the mode-wise smoothing envelope
sup_x sqrt(x) exp(-nu x t) = (2 e nu t)^(-1/2).  The derivative, heat and
norm checks run on what the step loop uses: the analysis band times the
wavenumbers, pinned to the reference `rotate_pairs`, `Stepper.decay`, and
the H1 mass and H2 weights of the `Reducer` behind every record row.
"""

import numpy as np
import pytest
import reference as ref
from conftest import random_field, with_edges
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.fft import _pocketfft_umath as pocketfft

from svcl.flux import FluxSpec
from svcl.integrator import ModelSpec, SolverConfig, Stepper
from svcl.noise import NoisePath, NoiseSpec
from svcl.observables import Reducer
from svcl.spectral import (
    ModeBasis,
    Workspace,
    _scales,
    analyze,
    mode_field,
    synthesize,
)

LAM1 = -39.47841760435743  # -(2 pi)^2
LAM3 = -157.91367041742973  # -(4 pi)^2
TWO_PI = 6.283185307179586
HEAT_FACTOR_001 = 0.6738254512314336  # exp(-4 pi^2 * 0.01)


def silent_stepper(basis, nu=1.0, dt=1.0):
    """A Stepper with no flux and no noise: its decay is S_dt."""
    model = ModelSpec(nu, FluxSpec("zero"), NoiseSpec(sigma=np.zeros(basis.m_max)))
    return Stepper(model, SolverConfig(dt=dt), basis)


def hs_norm(basis, c, s):
    """(sum_m |lambda_m|^s c_m^2)^(1/2), with np.vecdot as the record columns
    take their norms."""
    return float(np.sqrt(np.vecdot(c * c, np.abs(basis.eigenvalues) ** s)))


def closed_form_mode(m, x):
    """e_m at x from its closed form: sqrt(2) sin(2 pi mp x) for odd m,
    sqrt(2) cos(2 pi mp x) for even m, mp = (m + 1) // 2."""
    fn = np.sin if m % 2 else np.cos
    return np.sqrt(2.0) * fn(TWO_PI * ((m + 1) // 2) * np.asarray(x, dtype=float))


class TestModeBasis:
    def test_eigenvalue_pairing(self):
        """Sine and cosine members of a pair share -(2 pi mp)^2."""
        lam = ModeBasis(16).eigenvalues
        assert lam.shape == (16,)
        assert lam[0] == pytest.approx(LAM1, rel=1e-14)
        assert lam[1] == lam[0]
        assert lam[2] == pytest.approx(LAM3, rel=1e-14)
        assert lam[3] == lam[2]

    def test_basis_eval_values(self):
        """e_m takes its closed form's peaks and zeros: the synthesized
        samples on j/16 at the points where the closed form is known."""
        samples = synthesize(np.eye(8), 16)  # row m - 1 samples e_m at j/16
        s2 = np.sqrt(2.0)
        assert samples[0, 4] == pytest.approx(s2, rel=1e-14)  # e_1 at 1/4
        assert samples[1, 0] == pytest.approx(s2, rel=1e-14)  # e_2 at 0
        assert samples[2, 2] == pytest.approx(s2, rel=1e-14)  # e_3 at 1/8
        assert samples[0, 0] == pytest.approx(0.0, abs=1e-15)  # e_1 at 0

    def test_mode_field_checks_its_index(self):
        basis = ModeBasis(4)
        assert mode_field(basis, 1, 2.0).coeffs.tolist() == [2.0, 0.0, 0.0, 0.0]
        assert mode_field(basis, 4).coeffs.tolist() == [0.0, 0.0, 0.0, 1.0]
        for m in (0, -1, 5):
            with pytest.raises(ValueError, match=f"mode index m = {m} is outside 1..4"):
                mode_field(basis, m)

    def test_orthonormality_quadrature(self):
        """analyze(synthesize(e_m, n)) = e_m for every m, and the sampled
        basis has the identity Gram matrix, on resolving grids even and odd."""
        m_max = 12
        for n in (14, 24, 41):
            samples = synthesize(np.eye(m_max), n)  # row m - 1 samples e_m
            assert np.max(np.abs(analyzed(samples, m_max) - np.eye(m_max))) < 1e-13
            gram = samples @ samples.T / n
            assert np.max(np.abs(gram - np.eye(m_max))) < 1e-12

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ModeBasis(7)
        with pytest.raises(ValueError):
            ModeBasis(0)
        assert repr(ModeBasis(16)) == "ModeBasis(m_max=16)"


def analyzed(samples, m):
    """analyze on a fresh workspace, in storage order."""
    return ref.from_band(analyze(samples, m, Workspace((*samples.shape[:-1], m),
                                                       samples.shape[-1])))


def rfft(n):
    """np.fft.rfft's gufunc for the parity of n."""
    return pocketfft.rfft_n_even if n % 2 == 0 else pocketfft.rfft_n_odd


class TestTransforms:
    @settings(max_examples=300)
    @given(data=st.data(), m=st.sampled_from([2, 4, 8, 16, 32, 256]),
           rows=st.sampled_from([None, 1, 2, 3, 5]), extra=st.integers(2, 41),
           exp=st.sampled_from([-300, -5, 0, 5, 300]))
    @np.errstate(over="ignore", invalid="ignore")
    def test_pair_views_equal_two_multiplies_bitwise(self, data, m, rows, extra, exp):
        # the transforms call numpy's pocketfft gufuncs directly: the pack,
        # one multiply in rfft bin order, and the scaled rfft's band must
        # give the bits of the reference's np.fft calls and separate sin and
        # cos multiplies, signed zeros, infinities and nans of both signs
        # included, on fresh arrays, a fresh workspace and a reused one, and
        # the step kernel's -d/dx, the band times the wavenumbers, those of
        # rotate_pairs by -w; n runs over even and odd sizes from m + 2 up.
        # A numpy whose private module no longer matches np.fft fails here
        shape, n = (m,) if rows is None else (rows, m), m + extra
        elements = st.floats(-2.0, 2.0)
        coeffs = with_edges(data, data.draw(arrays(float, shape, elements=elements)) * 10.0**exp)
        samples = data.draw(arrays(float, (*shape[:-1], n), elements=elements)) * 10.0**exp
        samples = with_edges(data, samples)
        basis, work = ModeBasis(m), Workspace(shape, n)
        for wk in (None, work, work):
            assert synthesize(coeffs, n, wk).tobytes() == ref.synthesize(coeffs, n).tobytes()
        wavenumbers = np.broadcast_to(basis.wavenumbers, shape).copy()
        for wk in (Workspace(shape, n), work, work):  # the band, (cos, -sin) pairs
            band = analyze(samples, m, wk)
            assert band.tobytes() == ref.band(samples, m).tobytes()
            assert ref.from_band(band).tobytes() == ref.analyze(samples, m).tobytes()
            assert (np.multiply(band, wavenumbers).tobytes()
                    == ref.rotate_pairs(ref.analyze(samples, m), -basis.wavenumbers).tobytes())
        assert work.padded.tobytes() == ref.pack(coeffs, n).tobytes()

    @settings(max_examples=150)
    @given(data=st.data(), m=st.sampled_from([2, 4, 8, 16, 32]),
           rows=st.sampled_from([None, 1, 2, 5]), extra=st.integers(2, 40),
           exp=st.sampled_from([-300, -5, 0, 5, 300]))
    def test_gufunc_transforms_equal_np_fft_bitwise(self, data, m, rows, extra, exp):
        # the transforms call numpy's pocketfft gufuncs directly; a numpy
        # whose private module no longer matches np.fft fails here, on
        # finite data.  n runs over even and odd sizes from m + 2 up
        shape, n = (m,) if rows is None else (rows, m), m + extra
        coeffs = data.draw(arrays(float, shape, elements=st.floats(-2.0, 2.0))) * 10.0**exp
        samples = data.draw(arrays(float, (*shape[:-1], n), elements=st.floats(-2.0, 2.0)))
        samples *= 10.0**exp
        want_s, want_band = ref.synthesize(coeffs, n), ref.band(samples, m)
        work = Workspace(shape, n)
        for w in (None, work, work):  # a reused workspace too
            got_s = synthesize(coeffs, n, w)
            got_band = analyze(samples, m, Workspace(shape, n) if w is None else w)
            assert got_s.shape == want_s.shape and got_band.shape == want_band.shape
            assert got_s.tobytes() == want_s.tobytes()
            assert got_band.tobytes() == want_band.tobytes()

    @pytest.mark.parametrize("n", [26, 34, 50, 386, 27, 35, 51, 193, 387])
    @np.errstate(over="ignore", invalid="ignore")
    def test_rfft_norm_factor_is_one_final_multiply(self, n):
        # analyze passes sqrt(2)/n to rfft as its norm factor in place of a
        # multiply of its own.  pocketfft multiplies each output float by
        # the factor last (copy_and_norm in rfftp, the last *fct in
        # Bluestein), so the scaled transform is the unit-norm one times
        # the factor, bit for bit, nans of both signs, infinities, signed
        # zeros and the ends of the float range included; a numpy that
        # applies the factor elsewhere fails here
        rng = np.random.default_rng(n)
        x = rng.standard_normal((12, n)) * 10.0 ** rng.choice([-300, 0, 300], (12, 1))
        specials = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1e300, -1e-300]
        for row, v in enumerate(specials):  # one row per special, the rest finite
            x[row, rng.integers(n)] = v
        x[8, :2] = np.nan, -np.nan
        kernel, out = rfft(n), np.empty((12, n // 2 + 1), dtype=complex)
        unit = kernel(x, np.array(1.0), out).view(float).copy()
        for a in (np.sqrt(2.0) / n, 1.0 / n, 3.7):
            got = kernel(x, np.array(a), out).view(float)
            assert got.tobytes() == (unit * a).tobytes(), a

    @pytest.mark.parametrize("m", [2, 16])
    def test_workspace_rejects_a_coarse_grid(self, m):
        # calls on a workspace skip the grid check, so its constructor makes it
        for shape in ((m,), (2, m)):
            with pytest.raises(ValueError, match="too coarse"):
                Workspace(shape, m + 1)
            Workspace(shape, m + 2)

    @pytest.mark.parametrize("shape", [(16,), (2, 16), (128, 16), (2, 256)])
    def test_pack_runs_over_one_contiguous_band(self, shape):
        # the pack is one multiply of C-contiguous runs of rows m floats:
        # the band bins of every row in the bin-major padded spectrum, in
        # (bin, row, real/imag) order, and the scales in the same order; the
        # analysis band is a view of the rfft output, which rfft scales by
        # its 0-d norm factor sqrt(2)/n
        m = shape[-1]
        rows, n = int(np.prod(shape[:-1])), 3 * m // 2 + 2  # Burgers' dealiasing grid
        work = Workspace(shape, n)
        swap, pack = _scales(n, m)
        band = work.padded_band
        assert band.shape == (rows * m,) and band.flags.c_contiguous
        assert np.shares_memory(band, work.padded)
        assert work.pack.shape == band.shape and work.pack.flags.c_contiguous
        assert work.pack.tobytes() == np.tile(pack, rows).tobytes()
        # bin b + 1 of row r holds (cos, sin) of pair b of row r
        coeffs = np.arange(rows * m, dtype=float).reshape(shape)
        want = coeffs.reshape(rows, m)[:, swap].reshape(rows, m // 2, 2).transpose(1, 0, 2)
        assert coeffs.take(work.pack_index).tobytes() == want.tobytes()
        assert work.spectrum_band.shape == shape
        assert np.shares_memory(work.spectrum_band, work.spectrum)
        assert work.rfft_norm.shape == () and work.rfft_norm == np.sqrt(2.0) / n

    @pytest.mark.parametrize("use", ["state", "pair", "picard"])
    def test_many_row_blocks_equal_rows_and_np_fft_bitwise(self, use):
        # the bin-major spectrum makes irfft read each row with a core
        # stride of `rows` bins: blocks of the reducer plans' row counts at
        # n_fine (256 rows for a state, 128 for a pair) and a Picard
        # trajectory of 201 states on Burgers' grid must give each row's
        # own call and the np.fft reference bit for bit
        basis = ModeBasis(16)
        m, reducer = basis.m_max, Reducer(basis)
        rows, n = {"state": (reducer.block_rows(np.zeros(m)), reducer.n_fine),
                   "pair": (reducer.block_rows(np.zeros((2, m))), reducer.n_fine),
                   "picard": (201, 3 * m // 2 + 2)}[use]
        assert rows == {"state": 256, "pair": 128, "picard": 201}[use]
        block = np.random.default_rng(rows).standard_normal((rows, m)) / basis.pair_index**1.5
        got = synthesize(block, n, Workspace(block.shape, n))
        assert got.tobytes() == ref.synthesize(block, n).tobytes()
        for i, row in enumerate(block):
            assert synthesize(row, n).tobytes() == got[i].tobytes()

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
                assert analyze(samples, 16, work).tobytes() == ref.band(samples, 16).tobytes()

    @pytest.mark.parametrize("m_max", [2, 8, 32, 64])
    def test_round_trip(self, m_max):
        """analyze(synthesize(f)) recovers band-limited f to 1e-12."""
        basis = ModeBasis(m_max)
        for seed in range(5):
            f = random_field(basis, seed)
            back = analyzed(synthesize(f.coeffs, 2 * m_max), m_max)
            assert np.max(np.abs(back - f.coeffs)) < 1e-12

    def test_round_trip_fine_grid(self):
        basis = ModeBasis(16)
        f = random_field(basis, 3)
        back = analyzed(synthesize(f.coeffs, 200), 16)
        assert np.max(np.abs(back - f.coeffs)) < 1e-12

    def test_single_mode_samples(self):
        """Synthesis of e_m samples sqrt(2) sin/cos(2 pi mp j/n)."""
        samples = synthesize(np.eye(8), 16)  # row m - 1 samples e_m
        x = np.arange(16) / 16
        for m in range(1, 9):
            assert np.max(np.abs(samples[m - 1] - closed_form_mode(m, x))) < 1e-13

    def test_projection_truncates_high_modes(self):
        """Content above the retained band is dropped, not aliased in."""
        x = np.arange(64) / 64
        high = np.sqrt(2.0) * np.sin(2 * np.pi * 7 * x)  # pair 7 > m_max/2 = 4
        coeffs = analyzed(high, 8)
        assert np.max(np.abs(coeffs)) < 1e-13

    def test_constant_offset_stays_out_of_modes(self):
        """A constant offset is the dropped mean: the modes come out as without it."""
        basis = ModeBasis(8)
        f = random_field(basis, 1)
        for offset in (5e-13, 3.0):
            back = analyzed(synthesize(f.coeffs, 16) + offset, 8)
            assert back.shape == (8,)
            assert np.max(np.abs(back - f.coeffs)) < 1e-12

    def test_coarse_grid_rejected(self):
        basis = ModeBasis(16)
        with pytest.raises(ValueError):
            synthesize(random_field(basis, 0).coeffs, 17)
        with pytest.raises(ValueError):
            analyzed(np.zeros(17), 16)


def ddx(c, basis):
    """d/dx by the reference pair rotation, which the step kernel's -d/dx
    is pinned to bit for bit."""
    return ref.rotate_pairs(c, basis.wavenumbers)


class TestDerivative:
    def test_pair_rotation(self):
        """d/dx e_1 = 2 pi e_2 and d/dx e_2 = -2 pi e_1."""
        basis = ModeBasis(8)
        expected = np.zeros((2, 8))
        expected[0, 1], expected[1, 0] = TWO_PI, -TWO_PI
        assert np.max(np.abs(ddx(np.eye(8)[:2], basis) - expected)) < 1e-13

    def test_matches_finite_differences(self):
        basis = ModeBasis(16)
        f = random_field(basis, 7)
        x = np.linspace(0, 1, 2001)[:-1]
        h = 1e-6
        fx = np.zeros_like(x)
        for m in range(1, 17):
            fx += f.coeffs[m - 1] * (
                closed_form_mode(m, x + h) - closed_form_mode(m, x - h)
            ) / (2 * h)
        df = ddx(f.coeffs, basis)
        vals = np.zeros_like(x)
        for m in range(1, 17):
            vals += df[m - 1] * closed_form_mode(m, x)
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

    # every m, nu and dt the suites step or grid with: each stepper's dt,
    # its half and the fine grids of the refinement checks
    DECAY_MS = (2, 4, 6, 8, 16, 32, 64, 256, 4096)
    DECAY_NUS = (0.01, 0.02, 0.05, 0.08, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0, 2.0)
    DECAY_DTS = (
        5e-06, 1e-05, 1.4240179342178995e-05, 1.5e-05, 2.848035868435799e-05, 3e-05,
        4.055654153948436e-05, 5e-05, 6.962383250419169e-05, 7.8125e-05,
        8.111308307896872e-05, 0.0001, 0.0001155064850041579, 0.000125,
        0.00013924766500838338, 0.00015625, 0.0002, 0.0002310129700083158, 0.00025,
        0.0003125, 0.00032316520350478246, 0.0003289666123287841, 0.0005, 0.000625,
        0.0006463304070095649, 0.0006579332246575682, 0.0009369087114301915, 0.001,
        0.00125, 0.0015000000000000005, 0.001873817422860383, 0.002, 0.0025,
        0.0026683496156031535, 0.003, 0.003000000000000001, 0.004, 0.005,
        0.005336699231206307, 0.006962383250419169, 0.007599555414764665, 0.01,
        0.013924766500838338, 0.015, 0.01519911082952933, 0.02, 0.021643806405415286,
        0.03, 0.032316520350478245, 0.035, 0.04, 0.04328761281083057,
        0.06164233697210329, 0.06463304070095649, 0.07, 0.1, 0.12328467394420659, 0.15,
        0.17555958671075636, 0.3, 0.3511191734215127, 0.5, 1.0)

    @pytest.mark.parametrize("scheme", ["exp_euler", "exp_midpoint_flux"])
    @pytest.mark.parametrize("m", DECAY_MS)
    def test_decay_bits_equal_the_spelled_out_factors(self, m, scheme):
        # heat_decay, the one decay factor, at dt and dt/2 against the
        # expressions the stepper, convolution_grid and increments_from_grid
        # each spelled out, exp(nu lam dt) and exp(nu lam 0.5 dt)
        basis = ModeBasis(m)
        lam = basis.eigenvalues
        for nu in self.DECAY_NUS:
            model = ModelSpec(nu, FluxSpec("burgers"), NoiseSpec(c=0.5, q=3.0))
            for dt in self.DECAY_DTS:
                stepper = Stepper(model, SolverConfig(dt=dt, scheme=scheme), basis)
                full, half = np.exp(nu * lam * dt), np.exp(nu * lam * 0.5 * dt)
                assert basis.heat_decay(nu, dt).tobytes() == full.tobytes()
                assert stepper.decay.tobytes() == full.tobytes()
                assert stepper.half_decay.tobytes() == half.tobytes()

    @pytest.mark.parametrize("m", DECAY_MS)
    def test_ou_variance_bits_equal_the_spelled_out_factor(self, m):
        # NoisePath.ou_increment takes its OU variance from heat_decay over
        # 2 dt: its draws are the reference's, whose std spells out
        # exp(2 nu lam dt) in that order, bit for bit
        basis, spec = ModeBasis(m), NoiseSpec(c=0.5, q=3.0)
        for nu in self.DECAY_NUS:
            for dt in self.DECAY_DTS:
                got = NoisePath(spec, basis, 1).ou_increment(nu, dt)
                want = ref.increment(spec, basis, nu, dt, 1, 0)
                assert got.tobytes() == want.tobytes(), (nu, dt)

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
            return float(np.sqrt(np.vecdot(g * g, Reducer(basis).lam_sq)))

        h1_of = Reducer(basis).h1_sq
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
            quad = quad_lp(f, 2 * basis.m_max, 2)
            assert np.sqrt(np.vecdot(f.coeffs, f.coeffs)) == pytest.approx(quad, rel=1e-12)

    def test_h1_frozen_value(self):
        """||e_1||_H1^2 = 4 pi^2."""
        basis = ModeBasis(8)
        assert Reducer(basis).h1_sq(mode_field(basis, 1).coeffs) == pytest.approx(
            -LAM1, rel=1e-14
        )

    def test_h2_weights(self):
        basis = ModeBasis(8)
        c = mode_field(basis, 3, 2.0).coeffs
        h2_sq = np.vecdot(c * c, Reducer(basis).lam_sq)
        assert np.sqrt(h2_sq) == pytest.approx(2.0 * (-LAM3), rel=1e-13)

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_poincare_chain(self, p):
        """||v||_Lp <= ||v||_Linf <= ||v||_H1 on random fields."""
        basis = ModeBasis(32)
        h1_sq = Reducer(basis).h1_sq
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
