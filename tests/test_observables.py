"""Observable stream: CSV round-trip, balance residual, distances, moments."""

import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from svcl import observables
from svcl.flux import FluxSpec
from svcl.integrator import ModelSpec, SolverConfig, _fill_residual_column, run_single
from svcl.noise import NoiseSpec, trace_h2
from svcl.observables import (
    FLOAT_FMT,
    RecordBuffer,
    balance_residuals,
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


# values whose %.17g text is easy to get wrong: signed zeros, non-finite
# values, the smallest subnormal, a subnormal, the largest finite float
_SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
            2.2250738585072014e-308, 1.2345678901234567e-310,
            1.7976931348623157e308, -1.7976931348623157e308]
_VALUES = st.one_of(st.sampled_from(_SPECIAL), st.floats())


def _reference_csv(buf, config_echo=None, kept=()):
    """The writer the row template replaced: one FLOAT_FMT % v per numpy
    scalar, one join and one write per row."""
    fp = io.StringIO()
    if config_echo is not None:
        lines = config_echo.splitlines() or [""]
        fp.write("# config: " + lines[0] + "\n")
        for ln in lines[1:]:
            fp.write("# " + ln + "\n")
    names = buf.column_names()
    fp.write(",".join(names) + "\n")
    fp.writelines(kept)
    for row in zip(*(buf.column(k) for k in names)):
        fp.write(",".join(FLOAT_FMT % v for v in row) + "\n")
    return fp.getvalue()


def _genfromtxt_columns(path):
    """The reader read_csv_columns replaced: np.genfromtxt over every row."""
    with open(path) as fp:
        skip = 0
        for line in fp:
            if not line.startswith("#"):
                break
            skip += 1
    data = np.genfromtxt(path, delimiter=",", names=True, skip_header=skip)
    if data.ndim == 0:
        data = data.reshape(1)
    return {name: np.asarray(data[name], dtype=float) for name in data.dtype.names}


def _filled_buffer(lp_orders, table):
    """A RecordBuffer whose rows are the rows of table, one column each."""
    buf = RecordBuffer(lp_orders, capacity=1)
    if len(table):
        t, l2, h1, h2, *rest = table.T
        k = len(lp_orders)
        buf.append(t, l2, h1, h2, rest[:k], *rest[k:])
    return buf


class TestCsvText:
    """write_csv renders every byte the per-value writer did, in chunks of
    any size; read_csv_columns returns the bits genfromtxt returned."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(data=st.data(), lp_orders=st.sampled_from([(), (2,), (2, 4)]),
           n=st.sampled_from([0, 1, 2, 3, 6, 7, 8, 14, 15, 40]),
           chunk=st.sampled_from([1, 2, 7, observables.CSV_CHUNK_ROWS]),
           echo=st.sampled_from([None, "", "nu = 0.1", "[model]\nnu = 0.1\n"]),
           n_kept=st.integers(0, 3))
    def test_writer_bytes_equal_per_value_reference(self, data, lp_orders, n, chunk,
                                                    echo, n_kept):
        ncols = len(RecordBuffer(lp_orders).column_names())
        table = data.draw(arrays(np.float64, (n, ncols), elements=_VALUES))
        kept = [",".join(FLOAT_FMT % v for v in row) + "\n"
                for row in data.draw(arrays(np.float64, (n_kept, ncols), elements=_VALUES))]
        buf = _filled_buffer(lp_orders, table)
        fp = io.StringIO()
        with mock.patch.object(observables, "CSV_CHUNK_ROWS", chunk):
            buf.write_csv(fp, echo, kept)
        assert fp.getvalue() == _reference_csv(buf, echo, kept)

    def test_writer_bytes_across_default_chunks(self):
        rng = np.random.default_rng(7)
        n = 2 * observables.CSV_CHUNK_ROWS + 3
        table = rng.standard_normal((n, 10)) * 10.0 ** rng.integers(-300, 300, (n, 10))
        table[::97] = np.nan
        buf = _filled_buffer((2, 4, 6), table)
        fp = io.StringIO()
        buf.write_csv(fp, "nu = 0.1", ["1,2\n"])
        assert fp.getvalue() == _reference_csv(buf, "nu = 0.1", ["1,2\n"])

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data(), lp_orders=st.sampled_from([(), (2,), (2, 4)]),
           n=st.integers(1, 12), echo=st.sampled_from([None, "nu = 0.1\nseed = 3"]))
    def test_reader_bits_equal_genfromtxt(self, tmp_path_factory, data, lp_orders, n, echo):
        ncols = len(RecordBuffer(lp_orders).column_names())
        table = data.draw(arrays(np.float64, (n, ncols), elements=_VALUES))
        buf = _filled_buffer(lp_orders, table)
        path = tmp_path_factory.mktemp("csv") / "run.csv"
        with open(path, "w", encoding="utf-8", newline="\n") as fp:
            buf.write_csv(fp, echo)
        full = read_csv_columns(path)
        ref = _genfromtxt_columns(path)
        assert list(full) == list(ref) == buf.column_names()
        for name in ref:
            assert full[name].tobytes() == ref[name].tobytes(), name
        rows = data.draw(st.slices(n))
        lines = path.read_text().splitlines(keepends=True)
        part = read_csv_columns(lines, rows)
        assert list(part) == list(ref)
        for name in ref:
            assert part[name].tobytes() == ref[name][rows].tobytes(), name

    @pytest.mark.parametrize("line, reason", [
        ("1,2,3\n", "3 fields, the header has 4"),
        ("1,2,3,4,5\n", "5 fields, the header has 4"),
        ("1,2,x,4\n", "could not convert"),
        ("1,2,,4\n", "could not convert"),
    ])
    def test_reader_rejects_a_malformed_selected_row(self, line, reason):
        lines = ["# config: nu = 0.1\n", "t,l2_sq,h1_sq,h2_sq\n", "0,1,2,3\n", line,
                 "2,1,2,3\n"]
        with pytest.raises(ValueError, match=f"line 4: .*{reason}"):
            read_csv_columns(lines)
        # rows outside the selection are not parsed
        assert read_csv_columns(lines, slice(2, 3))["t"].tolist() == [2.0]
        assert read_csv_columns(lines, slice(0, 1))["h2_sq"].tolist() == [3.0]


def window_residual(t, l2, h1, nu, trace):
    """The balance residual of the last row over the whole of t as its
    trailing window: (l2[-1] - l2[0]) / span + 2 nu (trapezoid of h1) / span
    - trace."""
    last = len(t) - 1
    return balance_residuals(t, l2, h1, max(last, 1), nu, trace, first=last)[0]


class TestEnergyBalanceResidual:
    def test_heat_decay_closed_form(self):
        # sigma = 0, A = 0, u = e_1: d/dt e^{2 nu lam t} + 2 nu (4 pi^2) e^{...} = 0.
        # Records on a fine grid make the trapezoid error < 1e-10.
        nu = 0.01
        a = 2.0 * nu * LAM1
        t = 0.1 + 1e-5 * np.arange(101)
        l2 = np.exp(a * t)
        h1 = -LAM1 * np.exp(a * t)
        res = balance_residuals(t, l2, h1, 100, nu, 0.0)
        assert np.isnan(res[0]) and np.all(np.abs(res[1:]) < 1e-10)

    def test_frozen_field_reports_dissipation_gap(self):
        # No dynamics: residual = 2 nu ||u||_H1^2 - sum sigma_m^2 exactly.
        basis = ModeBasis(4)
        h1 = -LAM1
        spec = NoiseSpec(c=0.5, q=3.0)
        tr = trace_h2(spec, basis).l2
        t = np.array([0.0, 1.0, 2.0])
        res = balance_residuals(t, np.ones(3), np.full(3, h1), 2, 0.1, tr)
        expected = 2 * 0.1 * h1 - tr
        assert np.isnan(res[0])
        assert res[1:] == pytest.approx([expected, expected], abs=1e-15)

    def test_run_column_matches_balance_residuals(self):
        # a run's energy_residual column is balance_residuals over its own
        # (t, l2_sq, h1_sq) columns, bit for bit
        nu = 0.05
        basis = ModeBasis(8)
        model = ModelSpec(nu, FluxSpec("burgers"), NoiseSpec(c=0.5, q=3.0))
        run = run_single(model, SolverConfig(dt=0.01), random_field(basis, 3),
                         seed=0, n_steps=50, residual_window=16)
        buf = run.records
        want = balance_residuals(buf.column("t"), buf.column("l2_sq"), buf.column("h1_sq"),
                                 16, nu, trace_h2(model.noise, basis).l2)
        assert buf.column("energy_residual").tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_residual_column_matches_residual_function(self, data):
        """Every row of the energy_residual column, resumed or not, is the
        balance residual over that row's trailing window alone, bit for bit."""
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
        tr = trace_h2(model.noise, basis).l2

        def column(start, history):
            buf = RecordBuffer()
            for i in range(start, n):
                buf.append(t[i], l2[i], h1[i], 0.0)
            _fill_residual_column(buf, model, basis, window, history)
            return buf.column("energy_residual").view(np.int64)

        whole = column(0, None)
        expected = [window_residual(t[max(0, i - window):i + 1], l2[max(0, i - window):i + 1],
                                    h1[max(0, i - window):i + 1], nu, tr)
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
        # a first row has no window, and a window spanning no time is nan
        for t in ([1.0], [1.0, 1.0]):
            res = balance_residuals(np.array(t), np.ones(len(t)), np.ones(len(t)), 4, 0.1, 0.0)
            assert np.isnan(res).all()


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
