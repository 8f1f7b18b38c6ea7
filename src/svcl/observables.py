"""Norm trajectories, balance residuals and contraction distances, plus the
delimited on-disk form every run emits.

The CSV layout is fixed: a `# config: ...` echo comment, then the header

    t,l2_sq,h1_sq,h2_sq,lp{p}_p...,l1_dist,energy_residual,guard_margin

one row per retained step, floats rendered with %.17g so files round-trip
bitwise for identical (config, seed).  lp{p}_p columns hold the p-th powers
||u||_p^p, the quantities the moment identities integrate.  Columns that do
not apply to a run (l1_dist outside coupled runs, the residual before its
window fills) hold nan.
"""

from __future__ import annotations

import os

import numpy as np

from .spectral import ModeBasis, SpectralField, Workspace, synthesize

FLOAT_FMT = "%.17g"
CSV_CHUNK_ROWS = 4096  # rows rendered per write, so memory does not grow with the run
DEFAULT_FINE_FACTOR = 8  # quadrature grid for L1/Lp rendering, per m_max
# trapezoid areas one block of balance residual windows copies: bounds the
# residual fill's temporaries whatever the run length or window
_BLOCK_POINTS = 1 << 15
# fine-grid samples one reduction of the kept-state block synthesizes:
# bounds its temporaries (a few of this many float64s) whatever m_max is
_RECORD_BLOCK_POINTS = 1 << 15


class RecordBuffer:
    """Columnar store for the observable stream of one run.

    Preallocated for `capacity` rows, at most FIRST_CAPACITY_MAX of them,
    and grown geometrically, so a run's expected row count allocates
    nothing it does not fill; run loops append whole blocks of rows and the
    CSV view is materialized on demand.
    """

    FIRST_CAPACITY_MAX = 1 << 14

    def __init__(self, lp_orders=(), capacity: int = 1024):
        self.lp_orders = tuple(int(p) for p in lp_orders)
        self.n = 0
        self._cap = min(max(int(capacity), 16), self.FIRST_CAPACITY_MAX)
        self._cols = {name: np.empty(self._cap) for name in self.column_names()}

    def column_names(self):
        names = ["t", "l2_sq", "h1_sq", "h2_sq"]
        names += [f"lp{p}_p" for p in self.lp_orders]
        names += ["l1_dist", "energy_residual", "guard_margin"]
        return names

    def header_line(self) -> str:
        """The CSV header: the column names, comma-separated, and a newline."""
        return ",".join(self.column_names()) + "\n"

    def _grow(self, need):
        while self._cap < need:
            self._cap *= 2
        for k, v in self._cols.items():
            new = np.empty(self._cap)
            new[: self.n] = v[: self.n]
            self._cols[k] = new

    def append(self, t, l2_sq, h1_sq, h2_sq, lp_powers=(), guard_margin=np.nan,
               l1_dist=np.nan):
        """Append a block of rows: t holds one time per row (a scalar is a
        block of one), every other column one value per row or one value
        broadcast to all, and lp_powers one such column per Lp order.
        l1_dist is nan outside a coupled run; the energy_residual column
        starts as nan, for `fill_residuals` to set."""
        t = np.atleast_1d(t)
        i, j = self.n, self.n + len(t)
        if j > self._cap:
            self._grow(j)
        c = self._cols
        c["t"][i:j] = t
        c["l2_sq"][i:j] = l2_sq
        c["h1_sq"][i:j] = h1_sq
        c["h2_sq"][i:j] = h2_sq
        for p, v in zip(self.lp_orders, lp_powers):
            c[f"lp{p}_p"][i:j] = v
        c["l1_dist"][i:j] = l1_dist
        c["energy_residual"][i:j] = np.nan
        c["guard_margin"][i:j] = guard_margin
        self.n = j

    def __len__(self):
        return self.n

    def column(self, name) -> np.ndarray:
        return self._cols[name][: self.n]

    def set_column(self, name, values, start=0):
        """Write the array values into rows start, start + 1, ... of a column."""
        self._cols[name][start : start + len(values)] = values

    @np.errstate(over="ignore", invalid="ignore")  # rows whose norms overflowed
    def fill_residuals(self, window, nu, trace, history):
        """Fill the energy_residual column: each row's balance residual over
        its trailing `window` records.

        The window is aligned to the absolute record stream: `history`, None
        or (t, l2_sq, h1_sq) rows that precede this buffer (a resumed segment
        seeds it from the tail of the existing CSV), so each window sum runs
        over the same rows in the same order an uninterrupted run would use,
        and resumed rows come out bitwise identical.  Only the buffer's first
        `window` rows reach back into the history, so only they are joined to
        its last `window` rows.
        """
        cols = [self.column(k) for k in ("t", "l2_sq", "h1_sq")]
        hist = [np.asarray(h, dtype=float)[-window:] for h in history or ((), (), ())]
        head = [np.concatenate([h, c[:window]]) for h, c in zip(hist, cols)]
        self.set_column("energy_residual",
                        balance_residuals(*head, window, nu, trace, first=len(hist[0])))
        if self.n > window:
            self.set_column("energy_residual",
                            balance_residuals(*cols, window, nu, trace, first=window), window)

    def write_csv(self, fp, config_echo: str | None = None, kept=()):
        """Stream the buffer as delimited text; fp is a writable text file.

        `kept`, data rows already rendered (the rows a resumed run
        continues, each ending in its newline), go between the header and
        this buffer's rows.  Rows are rendered by one template over Python
        floats, CSV_CHUNK_ROWS at a time with one write per chunk.
        """
        if config_echo is not None:
            lines = config_echo.splitlines() or [""]
            fp.write("# config: " + lines[0] + "\n")
            for ln in lines[1:]:
                fp.write("# " + ln + "\n")
        names = self.column_names()
        fp.write(self.header_line())
        fp.writelines(kept)
        row = ",".join([FLOAT_FMT] * len(names)) + "\n"
        for i in range(0, self.n, CSV_CHUNK_ROWS):
            j = min(self.n, i + CSV_CHUNK_ROWS)
            cols = [self._cols[k][i:j].tolist() for k in names]
            fp.write("".join([row % r for r in zip(*cols)]))


def count_comments(lines) -> int:
    """How many leading lines of a run CSV's lines are `#` comments."""
    n = 0
    while n < len(lines) and lines[n].startswith("#"):
        n += 1
    return n


def read_csv_columns(source, rows=slice(None)):
    """Read a run CSV back into {column: array}, skipping the echo comment.

    source is a path or the file's lines; rows selects data rows, and only
    those are parsed.  float() is correctly rounded, so every %.17g value
    comes back bit for bit.  A selected row whose field count differs from
    the header's, or a field that is not a float, raises ValueError.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, encoding="utf-8", newline="") as fp:
            source = fp.read().splitlines(keepends=True)
    head = count_comments(source)
    if head == len(source):
        raise ValueError("no header line")
    names = source[head].rstrip("\r\n").split(",")
    table = []
    for i in range(head + 1, len(source))[rows]:
        fields = source[i].split(",")
        if len(fields) != len(names):
            raise ValueError(f"line {i + 1}: {len(fields)} fields, "
                             f"the header has {len(names)}")
        try:
            table.append(list(map(float, fields)))
        except ValueError as e:
            raise ValueError(f"line {i + 1}: {e}") from None
    cols = np.array(table, dtype=float).reshape(-1, len(names)).T.copy()
    return dict(zip(names, cols))


def balance_residuals(t, l2, h1, window, nu, trace, first=0) -> np.ndarray:
    """Windowed balance residuals of rows first, first+1, ... of a record stream.

    Row i is measured over its trailing window, rows k = max(0, i - window)
    through i, with span = t[i] - t[k]:

        (l2[i] - l2[k]) / span + 2 nu (trapezoid integral of h1) / span - trace

    Row 0 has no window and is nan, as is a row whose window is still
    filling and spans no time.  Each window sum runs over the same
    trapezoid areas in the same order wherever the row sits, so a residual
    does not depend on how the stream was split into segments.  Every nan
    comes out as np.nan: numpy's SIMD loops take a nan's sign from one
    operand or the other by the element's position in the call.

    Full windows are summed in blocks of max(1, _BLOCK_POINTS // window)
    rows, each from the trapezoid areas of its own input rows alone, so
    besides the output column the temporaries hold a few times
    max(_BLOCK_POINTS, window) floats whatever the stream's length (under
    1 MiB for windows up to _BLOCK_POINTS).
    """
    n = len(t)
    res = np.full(n - first, np.nan)
    nu2 = 2.0 * nu
    w = min(window, n)
    if first < w:  # windows still filling
        seg = 0.5 * (h1[1:w] + h1[: w - 1]) * np.diff(t[:w])  # trapezoid areas
        for i in range(max(first, 1), w):
            span = t[i] - t[0]
            if span > 0:
                res[i - first] = (l2[i] - l2[0]) / span + nu2 * np.sum(seg[:i]) / span - trace
    rows = max(1, _BLOCK_POINTS // window)
    for s0 in range(max(first, window), n, rows):
        s1 = min(n, s0 + rows)
        k0, k1 = s0 - window, s1 - window
        seg = 0.5 * (h1[k0 + 1 : s1] + h1[k0 : s1 - 1]) * np.diff(t[k0:s1])
        # row j views seg[j : j + window]; summed on a C-contiguous copy, so
        # each row adds in the order of a lone window
        sw = np.lib.stride_tricks.as_strided(seg, (s1 - s0, window), seg.strides * 2,
                                             writeable=False)
        sums = np.ascontiguousarray(sw).sum(axis=1)
        span = t[s0:s1] - t[k0:k1]
        res[s0 - first : s1 - first] = (
            (l2[s0:s1] - l2[k0:k1]) / span + nu2 * sums / span - trace)
    res[np.isnan(res)] = np.nan
    return res


def sup_h1(d: np.ndarray, basis: ModeBasis) -> float:
    """sup over rows of the H1 seminorm of d (n, m_max), coefficient rows of
    a trajectory, e.g. the difference of two: the distance in C([0, T]; H1)."""
    return float(np.sqrt(np.max(np.sum(-basis.eigenvalues * d**2, axis=1))))


def l1_norms(coeffs: np.ndarray, n: int, work: Workspace | None = None) -> np.ndarray:
    """L1 quadrature norms of coefficient vectors (last axis) on the n-point
    grid, on `work` (a Workspace for coeffs' shape and n) if given; each row
    of a block comes out bitwise equal to its own call.  The mean is the
    sum and true divide np.mean runs, without its Python layer."""
    samples = synthesize(coeffs, n, work)
    return np.add.reduce(np.abs(samples, out=samples), axis=-1) / n


def l1_distance(a: SpectralField, b: SpectralField) -> float:
    """L1 quadrature distance between two fields on the n_fine grid."""
    if a.basis.m_max != b.basis.m_max:
        raise ValueError("fields live on different bands")
    return float(l1_norms(a.coeffs - b.coeffs, DEFAULT_FINE_FACTOR * a.basis.m_max))


class Reducer:
    """Every reduction of a run's coefficient states on one basis: the L2
    and H1 masses, record rows, a coupled pair's L1 distances and the size
    of the kept-state block the step loop hands them.  A block of states reduces
    at once, each row bit for bit as its state alone: the norms by row-wise
    vecdot (a matrix product or einsum sums in another order), the Lp and
    L1 columns by one synthesize of the block where it lies, on the n_fine
    grid, through the fine-grid plan of its shape (`_plan`), kept by shape
    as `Stepper` keeps its kernels.
    """

    def __init__(self, basis: ModeBasis):
        lam = basis.eigenvalues
        self.neg_lam = -lam
        self.lam_sq = lam * lam
        self.n_fine = DEFAULT_FINE_FACTOR * basis.m_max
        self._plans = {}  # block shape -> (n_fine Workspace, power buffer)

    def block_rows(self, c: np.ndarray) -> int:
        """Rows of the kept-state block for c, a state (m,) or a block
        (R, m): max(2, _RECORD_BLOCK_POINTS // (R n_fine))."""
        return max(2, _RECORD_BLOCK_POINTS // (c.size // c.shape[-1] * self.n_fine))

    @staticmethod
    def l2_sq(c: np.ndarray):
        """The L2 mass of a state c (m,), or of each row of a block (k, m)."""
        return np.vecdot(c, c)

    def h1_sq(self, c: np.ndarray):
        """The H1 mass of a state c (m,), or of each row of a block (k, m)."""
        return np.vecdot(c * c, self.neg_lam)

    def _plan(self, shape: tuple):
        """The fine-grid plan of a (k, m) block: its Workspace and power
        buffer, built by the first block of that shape.  It replaces the
        plans of longer blocks: a block shorter than one planned is a run's
        last, or the shorter of the cadence's two selections from a block,
        so a run's last block adds no plan to its full blocks' ones (and a
        fresh start's one-row block, reduced first, keeps its own)."""
        plan = self._plans.get(shape)
        if plan is None:
            self._plans = {s: p for s, p in self._plans.items() if s[0] < shape[0]}
            work = Workspace(shape, self.n_fine)
            plan = self._plans[shape] = (work, np.empty(work.samples.shape))
        return plan

    def l1_distances(self, pairs: np.ndarray) -> np.ndarray:
        """The L1 distance of each kept pair, rows of pairs (k, 2, m)."""
        d = pairs[:, 0] - pairs[:, 1]
        return l1_norms(d, self.n_fine, self._plan(d.shape)[0])

    def record_rows(self, bufs, radius, every, first, times, states, l1=None):
        """Append one record row per kept state whose step is a multiple of
        every: states[k], of step first + k at times[k], is a state (m,) or
        a block (R, m) whose row r goes to bufs[r], and l1[k], a coupled
        pair's L1 distance, goes to every buffer's l1_dist (nan when l1 is
        None); every column is chosen by that one cadence.  An Lp column is
        the mean of |u|^p on the n_fine grid, and the guard margin is
        radius - h1_sq, nan when radius is None."""
        sel = slice(-first % every, None, every)
        times, states = times[sel], states[sel]
        n, n_bufs = len(times), len(bufs)
        if not n:
            return
        c = states.reshape(n * n_bufs, -1)
        cols = [self.l2_sq(c), self.h1_sq(c), np.vecdot(c * c, self.lam_sq)]
        if bufs[0].lp_orders:
            work, power = self._plan(c.shape)
            vals = np.abs(synthesize(c, self.n_fine, work), out=work.samples)
            # vals**p into one buffer: ** squares for p = 2 and calls np.power
            # otherwise; each mean as np.mean sums and divides
            cols += [np.add.reduce(np.square(vals, out=power) if p == 2
                                   else np.power(vals, p, out=power), axis=-1) / self.n_fine
                     for p in bufs[0].lp_orders]
        cols = [col.reshape(n, n_bufs) for col in cols]
        l1 = np.nan if l1 is None else l1[sel]
        for i, buf in enumerate(bufs):
            l2, h1, h2, *lp = (col[:, i] for col in cols)
            buf.append(times, l2, h1, h2, lp,
                       guard_margin=np.nan if radius is None else radius - h1, l1_dist=l1)
