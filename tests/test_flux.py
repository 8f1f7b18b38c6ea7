"""Flux law and nonlinear term checks.

The dealiasing oracle below is independent of the package transforms: it
evaluates the flux of an explicitly summed trigonometric polynomial on a
2^14-point grid (equispaced quadrature is exact for trigonometric
integrands well below that band) and projects against directly evaluated
basis functions.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svcl.flux import (
    FluxSpec,
    dealias_points,
    flux_value,
)
from svcl.integrator import ModelSpec, SolverConfig, Stepper
from svcl.noise import NoiseSpec
from svcl.observables import Reducer
from svcl.spectral import ModeBasis, SpectralField, mode_field

NEG_PI_SQRT2 = -4.442882938158366  # -pi sqrt(2), the burgers e_1 -> e_3 coefficient


def oracle_nonlinear(coeffs, a_of_u):
    """Directly computed N(u) = -dx A(u) coefficients, no package transforms."""
    m_max = len(coeffs)
    n = 1 << 14
    x = np.arange(n) / n
    u = np.zeros(n)
    for m in range(1, m_max + 1):
        mp = (m + 1) // 2
        fn = np.sin if m % 2 else np.cos
        u += coeffs[m - 1] * np.sqrt(2.0) * fn(2 * np.pi * mp * x)
    a = a_of_u(u)
    proj = np.empty(m_max)
    for m in range(1, m_max + 1):
        mp = (m + 1) // 2
        fn = np.sin if m % 2 else np.cos
        proj[m - 1] = np.mean(a * np.sqrt(2.0) * fn(2 * np.pi * mp * x))
    out = np.empty(m_max)
    pair = np.repeat(np.arange(1, m_max // 2 + 1), 2)
    out[0::2] = 2 * np.pi * pair[0::2] * proj[1::2]
    out[1::2] = -2 * np.pi * pair[1::2] * proj[0::2]
    return out


def nonlin(flux, u: SpectralField) -> SpectralField:
    """N(u) = -dx A(u) through the production kernel, Stepper.nonlin."""
    model = ModelSpec(nu=1.0, flux=flux, noise=NoiseSpec(c=0.0, q=3.0))
    stepper = Stepper(model, SolverConfig(dt=1e-3), u.basis)
    return SpectralField(stepper.nonlin(u.coeffs), u.basis)


class TestFluxSpec:
    def test_burgers_values(self):
        f = FluxSpec("burgers")
        v = np.array([-2.0, 0.0, 3.0])
        assert np.allclose(flux_value(f, v), [2.0, 0.0, 4.5])

    @pytest.mark.parametrize("v", [
        np.array([-3, 0, 7, 2**40 + 1, -(2**53) - 3]),
        [-2.5, 0, 3, 1e200, -0.0, 2**53 + 1],
        np.array(-1.25),
        np.array(3),
        7,
    ], ids=["int_array", "list", "0d_float", "0d_int", "python_int"])
    def test_fresh_burgers_reads_any_numbers_as_floats(self, v):
        # the fresh call is the out= expression, (0.5 v) v with a 0-d 0.5:
        # ints, lists and 0-d input give the type and bits of 0.5 * v * v
        # on v as a float array
        f = np.asarray(v, dtype=float)
        with np.errstate(over="ignore"):
            want = 0.5 * f * f
            got = flux_value(FluxSpec("burgers"), v)
        assert type(got) is type(want) and np.asarray(got).dtype == float
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_zero_flux(self):
        f = FluxSpec("zero")
        v = np.linspace(-5, 5, 11)
        assert np.all(flux_value(f, v) == 0)

    def test_polynomial_matches_burgers(self):
        f = FluxSpec("polynomial", coefficients=[0.0, 0.0, 0.5])
        g = FluxSpec("burgers")
        v = np.linspace(-3, 3, 101)
        assert np.max(np.abs(flux_value(f, v) - flux_value(g, v))) < 1e-15

    def test_degree(self):
        """The degree that sizes the grid is that of the last nonzero
        coefficient; a huge one is read without overflow."""
        assert FluxSpec("polynomial", coefficients=[0.0, 0.0, 0.0, 1.0 / 3.0]).degree == 3
        assert FluxSpec("polynomial", coefficients=[0.0, 0.0, 0.0, 1e308]).degree == 3
        assert FluxSpec("polynomial", coefficients=[1.0, 2.0, 0.0, -0.0]).degree == 1
        assert FluxSpec("burgers").degree == 2 and FluxSpec("zero").degree == 1

    def test_polynomial_requires_coefficients(self):
        for coefficients in (None, []):
            with pytest.raises(ValueError, match="requires coefficients"):
                FluxSpec("polynomial", coefficients=coefficients)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            FluxSpec("cubic")

    def test_overflow_returns_nonfinite(self):
        # past the float range A comes back as inf, elementwise, and nothing
        # is raised: the step loop finds the blow-up in its output
        f = FluxSpec("polynomial", coefficients=[0.0, 0.0, 0.0, 1.0])
        with np.errstate(over="ignore", invalid="ignore"):
            val = flux_value(f, np.array([1e150, -1e150, 2.0]))
        assert val[0] == np.inf and val[1] == -np.inf and val[2] == 8.0


class TestNonlinearTerm:
    def test_burgers_single_mode_frozen(self):
        """N(e_1) = -2 pi sin(4 pi x) lands on mode 3 with coefficient -pi sqrt(2)."""
        basis = ModeBasis(8)
        out = nonlin(FluxSpec("burgers"), mode_field(basis, 1))
        expected = np.zeros(8)
        expected[2] = NEG_PI_SQRT2
        assert np.max(np.abs(out.coeffs - expected)) < 1e-12

    @pytest.mark.parametrize("m_max", [4, 6, 8])
    def test_burgers_matches_convolution_oracle(self, m_max):
        basis = ModeBasis(m_max)
        rng = np.random.default_rng(41 + m_max)
        for _ in range(4):
            c = rng.standard_normal(m_max) / np.repeat(
                np.arange(1, m_max // 2 + 1), 2
            )
            got = nonlin(FluxSpec("burgers"), SpectralField(c, basis))
            want = oracle_nonlinear(c, lambda v: 0.5 * v * v)
            assert np.max(np.abs(got.coeffs - want)) < 1e-12

    def test_cubic_matches_oracle(self):
        """Degree-sized padding keeps the cubic flux alias-free too."""
        basis = ModeBasis(8)
        rng = np.random.default_rng(7)
        flux = FluxSpec("polynomial", coefficients=[0.0, 0.0, 0.0, 1.0 / 3.0])
        for _ in range(4):
            c = rng.standard_normal(8) / np.repeat(np.arange(1, 5), 2)
            got = nonlin(flux, SpectralField(c, basis))
            want = oracle_nonlinear(c, lambda v: v**3 / 3.0)
            assert np.max(np.abs(got.coeffs - want)) < 1e-12

    def test_zero_flux_returns_zero_field(self):
        basis = ModeBasis(16)
        rng = np.random.default_rng(0)
        u = SpectralField(rng.standard_normal(16), basis)
        out = nonlin(FluxSpec("zero"), u)
        assert np.all(out.coeffs == 0.0)

    def test_dealias_grid_sizing(self):
        basis = ModeBasis(16)  # K = 8
        assert dealias_points(FluxSpec("burgers"), basis) >= 26  # (2+1)*8 + 2
        cubic = FluxSpec("polynomial", coefficients=[0, 0, 0, 1.0])
        assert dealias_points(cubic, basis) >= 34  # (3+1)*8 + 2

    def test_overflow_carries_through(self):
        # the overflowed flux reaches the coefficients as non-finite values
        basis = ModeBasis(8)
        u = mode_field(basis, 1, 1e200)
        with np.errstate(over="ignore", invalid="ignore"):
            out = nonlin(FluxSpec("burgers"), u)
        assert out.coeffs.shape == (8,) and not np.isfinite(out.coeffs).any()

    def test_lipschitz_fit_stable_under_refinement(self):
        """Fitted L(m) with ||u||_H1, ||v||_H1 <= m barely moves with M_max."""
        fitted = {}
        for m_max in (16, 32):
            basis = ModeBasis(m_max)
            h1_sq = Reducer(basis).h1_sq
            rng = np.random.default_rng(11)
            worst = 0.0
            for _ in range(40):
                pair = []
                for _ in range(2):
                    c = rng.standard_normal(m_max) / np.repeat(
                        np.arange(1, m_max // 2 + 1), 2
                    ) ** 1.5
                    f = SpectralField(c, basis)
                    h1 = np.sqrt(h1_sq(c))
                    f = SpectralField(c * min(1.0, 2.0 / h1), basis)
                    pair.append(f)
                u, v = pair
                du = np.sqrt(h1_sq(u.coeffs - v.coeffs))
                if du < 1e-12:
                    continue
                nu_ = nonlin(FluxSpec("burgers"), u)
                nv = nonlin(FluxSpec("burgers"), v)
                dn = np.sqrt(np.vecdot(nu_.coeffs - nv.coeffs, nu_.coeffs - nv.coeffs))
                worst = max(worst, dn / du)
            fitted[m_max] = worst
        assert 0 < fitted[16] < np.inf
        assert fitted[32] <= 2.0 * fitted[16]
        assert fitted[32] >= 0.4 * fitted[16]


class TestFluxValueOut:
    FLUXES = [FluxSpec("burgers"), FluxSpec("zero"),
              FluxSpec("polynomial", coefficients=[0.3, 0.5, -0.2, 1.0 / 3.0]),
              FluxSpec("polynomial", coefficients=[-0.0])]

    @pytest.mark.parametrize("spec", FLUXES, ids=lambda s: s.kind)
    def test_out_equals_allocating_call_bitwise(self, spec):
        # out, prefilled with nan, receives every value the allocating call
        # returns, overflow, inf, nan and signed zeros included; squares
        # near the ends of the float range round differently in another
        # operation order
        rng = np.random.default_rng(7)
        v = np.concatenate([rng.standard_normal(56) * 10.0 ** rng.integers(-5, 200, 56),
                            [1.5e154, -1.9e154, 3.3e-162, 7.7e-159],
                            [0.0, -0.0, np.inf, -np.inf, np.nan]]).reshape(5, 13)
        with np.errstate(over="ignore", invalid="ignore"):
            want = flux_value(spec, v)
            buf = np.full(v.shape, np.nan)
            got = flux_value(spec, v, out=buf)
        assert got is buf
        assert got.tobytes() == want.tobytes()


# polynomials of degree 1 to 5, coefficients in [-2, 2]: the leading one is
# at least 0.1 in size, so the degree is the one drawn and N(u) is more than
# rounding, which the pairing bound is relative to
POLYNOMIALS = st.integers(0, 4).flatmap(lambda d: st.tuples(
    st.lists(st.floats(-2.0, 2.0), min_size=d + 1, max_size=d + 1),
    st.floats(0.1, 2.0) | st.floats(-2.0, -0.1),
)).map(lambda t: [*t[0], t[1]])


class TestEnergyPairing:
    """<u, N(u)> = -int u dx A(u) dx = -int dx G(u) dx with G' = v A'(v),
    a perfect derivative: the energy pairing of the nonlinear term vanishes.
    On the dealiasing grid, sized by the flux's degree, the quadrature of
    u_x A(u) is exact, so through Stepper.nonlin it vanishes to rounding,
    relative to |u| |N(u)|."""

    @staticmethod
    def assert_pairing_vanishes(flux, seed, m_values=(8, 16, 64, 256)):
        rng = np.random.default_rng(seed)
        for m_max in m_values:
            basis = ModeBasis(m_max)
            for _ in range(3):
                c = rng.standard_normal(m_max) / basis.pair_index
                n = nonlin(flux, SpectralField(c, basis)).coeffs
                pairing = abs(np.dot(c, n))
                assert pairing <= 1e-13 * np.linalg.norm(c) * np.linalg.norm(n)

    def test_burgers_p2_vanishes(self):
        self.assert_pairing_vanishes(FluxSpec("burgers"), 3)

    @settings(max_examples=60)
    @given(coefficients=POLYNOMIALS, m_max=st.sampled_from([8, 16, 64]),
           seed=st.integers(0, 2**32 - 1))
    @example(coefficients=[0, 0, 0, 1 / 3], m_max=64, seed=5)
    @example(coefficients=[0, 0.5, 0, -1, 0.25], m_max=64, seed=5)
    def test_cubic_p2_vanishes(self, coefficients, m_max, seed):
        """The cubic and a quartic as examples, and generated polynomial
        fluxes of degree 1 to 5, each on the grid its degree sizes."""
        flux = FluxSpec("polynomial", coefficients=coefficients)
        self.assert_pairing_vanishes(flux, seed, (m_max,))
