"""Observable stream: CSV round-trip, balance residual, distances, moments."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from svcl.flux import FluxSpec
from svcl.integrator import ModelSpec, SolverConfig, _fill_residual_column, run_single
from svcl.noise import NoiseSpec, trace_h2
from svcl.observables import (
    RecordBuffer,
    energy_balance_residual,
    l1_distance,
    read_csv_columns,
)
from svcl.spectral import ModeBasis, SpectralField, mode_field

TWO_PI = 2.0 * math.pi
LAM1 = -TWO_PI**2  # eigenvalue of the first pair
L1_E1 = 0.9003163161571062  # int |sqrt(2) sin(2 pi x)| dx = 2 sqrt(2)/pi


def random_field(basis, seed, decay=1.5, amp=1.0):
    rng = np.random.default_rng(seed)
    pair = basis.pair_index
    c = amp * rng.standard_normal(basis.m_max) / pair.astype(float) ** decay
    return SpectralField(c, basis)


def heat_model(nu=0.01, m=8):
    return ModelSpec(nu, FluxSpec("zero"), NoiseSpec(sigma=np.zeros(m)))


class TestRecordBuffer:
    def test_column_order_fixed(self):
        buf = RecordBuffer(lp_orders=(2, 4))
        assert buf.column_names() == [
            "t", "l2_sq", "h1_sq", "h2_sq", "lp2_p", "lp4_p",
            "l1_dist", "energy_residual", "guard_margin",
        ]

    def test_append_and_views(self):
        buf = RecordBuffer(lp_orders=(2,), capacity=2)
        for i in range(5):  # force growth past the tiny capacity
            buf.append(0.1 * i, 1.0 + i, 2.0 + i, 3.0 + i, (4.0 + i,))
        assert len(buf) == 5
        np.testing.assert_array_equal(buf.column("t"), 0.1 * np.arange(5))
        np.testing.assert_array_equal(buf.column("lp2_p"), 4.0 + np.arange(5))
        assert buf.column("l2_sq")[3] == 4.0 and buf.column("lp2_p")[3] == 7.0
        assert np.isnan(buf.column("l1_dist")[3])
        assert np.isnan(buf.column("guard_margin")[3])

    def test_csv_round_trip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(99)
        buf = RecordBuffer(lp_orders=(2, 4))
        for i in range(20):
            vals = rng.uniform(1e-8, 1e3, size=6)
            buf.append(0.25 * i, *vals[:3], tuple(vals[3:5]),
                       l1_dist=vals[5], energy_residual=np.nan,
                       guard_margin=-vals[0])
        path = tmp_path / "run.csv"
        with open(path, "w") as fp:
            buf.write_csv(fp, config_echo="nu = 0.1")
        text = path.read_text().splitlines()
        assert text[0].startswith("# config: nu = 0.1")
        assert text[1] == ",".join(buf.column_names())
        cols = read_csv_columns(path)
        for name in buf.column_names():
            np.testing.assert_array_equal(
                cols[name], buf.column(name),
                err_msg=f"column {name} did not survive the round trip")

    def test_single_row_csv_readable(self, tmp_path):
        buf = RecordBuffer()
        buf.append(0.0, 1.0, 2.0, 3.0)
        path = tmp_path / "one.csv"
        with open(path, "w") as fp:
            buf.write_csv(fp)
        cols = read_csv_columns(path)
        assert cols["t"].shape == (1,) and cols["h2_sq"][0] == 3.0


class TestEnergyBalanceResidual:
    def test_heat_decay_closed_form(self):
        # sigma = 0, A = 0, u = e_1: d/dt e^{2 nu lam t} + 2 nu (4 pi^2) e^{...} = 0.
        # Records on a fine grid make the trapezoid error < 1e-10.
        nu = 0.01
        a = 2.0 * nu * LAM1
        t = 0.1 + 1e-5 * np.arange(101)
        l2 = np.exp(a * t)
        h1 = -LAM1 * np.exp(a * t)
        model = heat_model(nu)
        basis = ModeBasis(8)
        res = energy_balance_residual((t, l2, h1), model, basis)
        assert abs(res) < 1e-10

    def test_frozen_field_reports_dissipation_gap(self):
        # No dynamics: residual = 2 nu ||u||_H1^2 - sum sigma_m^2 exactly.
        basis = ModeBasis(4)
        u = mode_field(basis, 1, 1.0)
        h1 = -LAM1
        spec = NoiseSpec(c=0.5, q=3.0)
        model = ModelSpec(0.1, FluxSpec("zero"), spec)
        t = np.array([0.0, 1.0, 2.0])
        window = (t, np.ones(3), np.full(3, h1))
        res = energy_balance_residual(window, model, basis)
        expected = 2 * 0.1 * h1 - trace_h2(spec, basis).l2
        assert res == pytest.approx(expected, abs=1e-15)

    def test_window_forms_agree(self):
        nu = 0.05
        model = heat_model(nu)
        basis = ModeBasis(8)
        run = run_single(model, SolverConfig(dt=0.01), random_field(basis, 3),
                         seed=0, n_steps=50)
        buf = run.records
        triple = (buf.column("t"), buf.column("l2_sq"), buf.column("h1_sq"))
        r1 = energy_balance_residual(buf, model, basis)
        r2 = energy_balance_residual(triple, model, basis)
        assert r1 == r2

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_residual_column_matches_residual_function(self, data):
        """Every row of the energy_residual column, resumed or not, is
        energy_balance_residual over that row's trailing window, bit for bit."""
        n_hist = data.draw(st.integers(0, 40), label="history rows")
        n_new = data.draw(st.integers(1, 60), label="buffer rows")
        window = data.draw(st.integers(2, 30), label="window")
        nu = data.draw(st.floats(1e-3, 2.0), label="nu")
        n = n_hist + n_new
        t = data.draw(st.floats(0.0, 100.0), label="t0") + np.cumsum(
            data.draw(arrays(float, n, elements=st.floats(1e-3, 10.0)), label="dt"))
        mass = st.floats(0.0, 1e3)
        l2 = data.draw(arrays(float, n, elements=mass), label="l2_sq")
        h1 = data.draw(arrays(float, n, elements=mass), label="h1_sq")
        basis = ModeBasis(8)
        model = ModelSpec(nu, FluxSpec("zero"), NoiseSpec(c=0.5, q=3.0))

        def column(start, history):
            buf = RecordBuffer()
            for i in range(start, n):
                buf.append(t[i], l2[i], h1[i], 0.0)
            _fill_residual_column(buf, model, basis, window, history)
            return buf.column("energy_residual").view(np.int64)

        whole = column(0, None)
        expected = [energy_balance_residual((t[max(0, i - window):i + 1],
                                             l2[max(0, i - window):i + 1],
                                             h1[max(0, i - window):i + 1]), model, basis)
                    for i in range(n)]
        np.testing.assert_array_equal(whole, np.array(expected).view(np.int64))
        if n_hist:
            # a resumed segment, seeded with the whole prefix or only the
            # trailing window of it, continues the column bit for bit
            for k in (0, max(0, n_hist - window)):
                tail = slice(k, n_hist)
                resumed = column(n_hist, (t[tail], l2[tail], h1[tail]))
                np.testing.assert_array_equal(resumed, whole[n_hist:])

    def test_short_window_is_nan(self):
        model = heat_model()
        basis = ModeBasis(8)
        assert np.isnan(energy_balance_residual(
            (np.array([1.0]), np.array([2.0]), np.array([3.0])), model, basis))


class TestL1Distance:
    def test_identical_fields(self):
        basis = ModeBasis(8)
        u = random_field(basis, 5)
        assert l1_distance(u, u) == 0.0

    def test_single_mode_closed_form(self):
        basis = ModeBasis(8)
        e1 = mode_field(basis, 1, 1.0)
        zero = SpectralField(basis.zeros(), basis)
        # default grid (8 m_max = 64 points) carries O(n^-2) kink error
        assert l1_distance(e1, zero) == pytest.approx(L1_E1, abs=1e-3)
        assert l1_distance(e1, zero, n=4096) == pytest.approx(L1_E1, abs=1e-6)

    def test_metric_properties(self):
        basis = ModeBasis(8)
        for trial in range(20):
            a = random_field(basis, 3 * trial)
            b = random_field(basis, 3 * trial + 1)
            c = random_field(basis, 3 * trial + 2)
            dab = l1_distance(a, b)
            assert dab >= 0.0
            assert dab == l1_distance(b, a)
            assert dab <= l1_distance(a, c) + l1_distance(c, b) + 1e-14

    def test_sign_flip_invariance(self):
        basis = ModeBasis(8)
        a = random_field(basis, 11)
        b = random_field(basis, 12)
        neg_a = SpectralField(-a.coeffs, basis)
        neg_b = SpectralField(-b.coeffs, basis)
        assert l1_distance(a, b) == pytest.approx(l1_distance(neg_a, neg_b),
                                                  rel=1e-15)

    def test_basis_mismatch(self):
        a = random_field(ModeBasis(8), 1)
        b = random_field(ModeBasis(16), 1)
        with pytest.raises(ValueError, match="band"):
            l1_distance(a, b)


class TestMomentBoundCheck:
    """The time integral of an lp{p}_p column against its closed form."""

    def test_heat_decay_integral_closed_form(self):
        # A = 0, sigma = 0, u0 = e_1: ||u(t)||_2^2 = e^{2 nu lam_1 t} and
        # int_0^1 = (e^a - 1)/a with a = 2 nu lam_1.  The scheme is exact for
        # the linear part, so the only error is the trapezoid quadrature.
        nu = 0.01
        basis = ModeBasis(8)
        model = heat_model(nu)
        run = run_single(model, SolverConfig(dt=2e-4), mode_field(basis, 1, 1.0),
                         seed=0, n_steps=5000, lp_orders=(2,))
        t = run.records.column("t")
        integral = np.trapezoid(run.records.column("lp2_p"), t)
        a = 2.0 * nu * LAM1
        exact = (math.exp(a) - 1.0) / a
        assert t[-1] == pytest.approx(1.0, rel=1e-12)
        assert integral == pytest.approx(exact, abs=1e-8)
