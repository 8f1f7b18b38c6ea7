"""Observable stream: CSV round-trip, balance residual, distances, moments."""

import io
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import reference as ref
from conftest import random_field
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from svcl import observables
from svcl.flux import FluxSpec
from svcl.integrator import ModelSpec, SolverConfig, run_single
from svcl.noise import NoiseSpec, trace_h2
from svcl.observables import (
    FLOAT_FMT,
    RecordBuffer,
    Reducer,
    balance_residuals,
    l1_distance,
    l1_norms,
    read_csv_columns,
)
from svcl.spectral import ModeBasis, SpectralField, mode_field

TWO_PI = 2.0 * math.pi
LAM1 = -TWO_PI**2  # eigenvalue of the first pair
L1_E1 = 0.9003163161571062  # int |sqrt(2) sin(2 pi x)| dx = 2 sqrt(2)/pi


def heat_model(nu=0.01, m=8):
    return ModelSpec(nu, FluxSpec("zero"), NoiseSpec(sigma=np.zeros(m)))


class TestRecordBuffer:
    def test_column_order_fixed(self):
        buf = RecordBuffer(lp_orders=(2, 4))
        assert buf.column_names() == [
            "t", "l2_sq", "h1_sq", "h2_sq", "lp2_p", "lp4_p",
            "l1_dist", "energy_residual", "guard_margin",
        ]

    def test_huge_capacity_allocates_a_bounded_first_block(self):
        # the expected row count of a 10^16-step run: the first allocation
        # is capped and the buffer grows only as rows arrive
        buf = RecordBuffer(lp_orders=(2,), capacity=10**16)
        n = RecordBuffer.FIRST_CAPACITY_MAX + 5
        buf.append(np.arange(n, dtype=float), 1.0, 2.0, 3.0, (4.0,))
        assert len(buf) == n
        np.testing.assert_array_equal(buf.column("t"), np.arange(n))

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
            vals = rng.uniform(1e-8, 1e3, size=5)
            buf.append(0.25 * i, *vals[:3], tuple(vals[3:5]), guard_margin=-vals[0])
        buf.set_column("l1_dist", rng.uniform(1e-8, 1e3, size=20))
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
        buf.append(t, l2, h1, h2, rest[:k])
        for name, col in zip(buf.column_names()[-3:], rest[k:]):
            buf.set_column(name, col)
    return buf


class TestCsvText:
    """write_csv renders every byte the per-value writer did, in chunks of
    any size; read_csv_columns returns the bits genfromtxt returned."""

    @settings(max_examples=150)
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

    @settings(max_examples=60)
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
        lines = ["# config: nu = 0.1\n", "t,l2_sq,h1_sq,h2_sq\n", "0,1,2,3\n", line, "2,1,2,3\n"]
        with pytest.raises(ValueError, match=f"line 4: .*{reason}"):
            read_csv_columns(lines)
        # rows outside the selection are not parsed
        assert read_csv_columns(lines, slice(2, 3))["t"].tolist() == [2.0]
        assert read_csv_columns(lines, slice(0, 1))["h2_sq"].tolist() == [3.0]


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

    @settings(max_examples=150)
    @given(data=st.data())
    def test_residual_column_matches_residual_function(self, data):
        """Every row of the energy_residual column, resumed or not, is the
        balance residual over that row's trailing window alone, bit for bit,
        and equals the per-row reference whatever the block size."""
        n_hist = data.draw(st.integers(0, 40), label="history rows")
        n_new = data.draw(st.integers(1, 60), label="buffer rows")
        window = data.draw(st.integers(2, 30), label="window")
        block = data.draw(st.integers(1, 64), label="block points")
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
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(observables, "_BLOCK_POINTS", block)
                buf.fill_residuals(window, nu, tr, history)
            return buf.column("energy_residual").view(np.int64)

        whole = column(0, None)
        want = ref.residuals(t, l2, h1, window, nu, tr)
        np.testing.assert_array_equal(whole, want.view(np.int64))
        if n_hist:
            # a resumed segment, seeded with the whole prefix, a tail longer
            # than the window or only the trailing window of it, continues
            # the column bit for bit
            longer = data.draw(st.integers(0, max(0, n_hist - window)), label="tail start")
            for k in (0, longer, max(0, n_hist - window)):
                tail = slice(k, n_hist)
                resumed = column(n_hist, (t[tail], l2[tail], h1[tail]))
                np.testing.assert_array_equal(resumed, whole[n_hist:])

    def test_short_window_is_nan(self):
        # a first row has no window, and a window spanning no time is nan
        for t in ([1.0], [1.0, 1.0]):
            res = balance_residuals(np.array(t), np.ones(len(t)), np.ones(len(t)), 4, 0.1, 0.0)
            assert np.isnan(res).all()

    def test_nan_rows_do_not_depend_on_the_split(self):
        # a nan met with a nan keeps one operand's sign, by the element's
        # SIMD lane; every nan comes out as np.nan, so the column from row
        # 3 equals rows 3.. of the whole column bit for bit
        z, h1 = np.zeros(11), np.full(11, np.nan)
        with np.errstate(invalid="ignore"):
            whole = balance_residuals(z, z, h1, 2, 1.0, 0.0)
            tail = balance_residuals(z, z, h1, 2, 1.0, 0.0, first=3)
        assert whole[3:].tobytes() == tail.tobytes()
        assert whole.tobytes() == np.full(11, np.nan).tobytes()


class TestBlockedResiduals:
    """balance_residuals sums its full windows in blocks of
    max(1, _BLOCK_POINTS // window) rows; every value stays the per-row
    reference's, bit for bit."""

    @staticmethod
    def stream(rng, n):
        t = 3.0 + np.cumsum(rng.uniform(1e-3, 1e-2, n))
        return t, rng.uniform(0.0, 10.0, n), rng.uniform(0.0, 100.0, n)

    @settings(max_examples=300)
    @given(data=st.data())
    def test_blocks_equal_the_unblocked_reference(self, data):
        block = data.draw(st.integers(1, 64), label="block points")
        window = data.draw(st.integers(2, 80), label="window")
        rows = max(1, block // window)
        edges = [0, 1, window - 1, window, window + 1]
        edges += [window + j * rows + d for j in (1, 2) for d in (-1, 0, 1)]
        n = data.draw(st.sampled_from(edges) | st.integers(0, 150), label="rows")
        first = data.draw(st.integers(0, n), label="first")
        # steps of zero length leave filling windows spanning no time
        dt = data.draw(arrays(float, n, elements=st.sampled_from([0.0, 1e-3]) |
                              st.floats(1e-3, 10.0)), label="dt")
        t = data.draw(st.floats(0.0, 100.0), label="t0") + np.cumsum(dt)
        value = st.floats(-1e3, 1e3) | st.sampled_from([np.inf, -np.inf, np.nan])
        l2 = data.draw(arrays(float, n, elements=value), label="l2_sq")
        h1 = data.draw(arrays(float, n, elements=value), label="h1_sq")
        nu = data.draw(st.floats(1e-3, 2.0), label="nu")
        tr = data.draw(st.floats(0.0, 50.0), label="trace")
        with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
            mp.setattr(observables, "_BLOCK_POINTS", block)
            got = balance_residuals(t, l2, h1, window, nu, tr, first)
        want = ref.residuals(t, l2, h1, window, nu, tr)[first:]
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("window", [2, 64, 2_000, observables._BLOCK_POINTS + 5])
    def test_module_block_boundaries(self, window):
        # the module's own block size, around the end of the first two blocks
        rows = max(1, observables._BLOCK_POINTS // window)
        t, l2, h1 = self.stream(np.random.default_rng(window), window + 2 * rows + 2)
        first = window - 2  # two filling rows, not the whole filling loop
        want = ref.residuals(t, l2, h1, window, 0.3, 1.7)  # a row sees no later row
        for n in (window + rows - 1, window + rows, window + rows + 1, window + 2 * rows + 1):
            got = balance_residuals(t[:n], l2[:n], h1[:n], window, 0.3, 1.7, first)
            assert got.tobytes() == want[first:n].tobytes()

    @pytest.mark.parametrize("n, window", [(10_000, 2_000), (200_000, 64)])
    def test_memory_is_the_output_plus_one_block(self, n, window):
        # the unblocked windows held rows x window floats at once (122.5 MB
        # at window 2,000 on 10^4 rows); the blocks hold a few hundred kB
        t, l2, h1 = self.stream(np.random.default_rng(0), n)
        tracemalloc.start()
        try:
            res = balance_residuals(t, l2, h1, window, 0.1, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < res.nbytes + 1_000_000


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
        assert l1_norms(e1.coeffs - zero.coeffs, 4096) == pytest.approx(L1_E1, abs=1e-6)

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


class TestReducerBlocks:
    """A block of kept states reduces, where it lies, to the reference's
    record rows and L1 distances of its states, one at a time, bit for bit,
    whatever the block's length and the cadence's stride through it, on one
    Reducer whose fine-grid plans serve every block shape it meets."""

    LP = (2, 3, 4, 6)
    # shorter blocks replace the plans of longer ones, which are built again
    BLOCKS = (256, 17, 1, 17, 256)

    def check(self, seed, every, first, radius, pair):
        basis = ModeBasis(16)
        reducer, rng = Reducer(basis), np.random.default_rng(seed)
        for k in self.BLOCKS:
            times = 0.5 + 1e-3 * np.arange(k)
            states = rng.standard_normal((k, 2, 16)) * 10.0 ** rng.uniform(-3, 1, (k, 1, 1))
            states, l1 = (states, reducer.l1_distances(states)) if pair else (states[:, 0], None)
            bufs = [RecordBuffer(self.LP) for _ in range(1 + pair)]
            reducer.record_rows(bufs, radius, every, first, times, states, l1)
            kept = [i for i in range(k) if (first + i) % every == 0]
            for i in range(k * pair):  # every distance, recorded or not
                assert l1[i] == ref.l1(basis, states[i])
            for r, buf in enumerate(bufs):
                want = [ref.record_row(basis, times[i], np.atleast_2d(states[i])[r], self.LP,
                                       radius, l1[i] if pair else np.nan) for i in kept]
                assert ref.table(buf).tobytes() == np.array(want).reshape(len(kept), 11).tobytes()

    @pytest.mark.parametrize("every, first", [(1, 0), (3, 0), (3, 5), (7, 2)])
    @pytest.mark.parametrize("radius", [None, 5.0])
    def test_rows_equal_their_own_calls(self, every, first, radius):
        self.check(every + first, every, first, radius, pair=True)

    @pytest.mark.parametrize("every, first", [(1, 0), (3, 5), (7, 2)])
    def test_single_state_rows_equal_their_own_calls(self, every, first):
        self.check(every * first + 1, every, first, None, pair=False)

    def test_a_shorter_block_replaces_longer_plans(self):
        # a run's last, partial block adds no plan beside its full blocks'
        reducer = Reducer(ModeBasis(16))
        for k in (256, 256, 17):
            reducer.l1_distances(np.zeros((k, 2, 16)))
        assert list(reducer._plans) == [(17, 16)]


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
