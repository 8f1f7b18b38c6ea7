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

from .spectral import SpectralField, synthesize

FLOAT_FMT = "%.17g"
CSV_CHUNK_ROWS = 4096  # rows rendered per write, so memory does not grow with the run
DEFAULT_FINE_FACTOR = 8  # quadrature grid for L1/Lp rendering, per m_max


class RecordBuffer:
    """Columnar store for the observable stream of one run.

    Preallocated and grown geometrically; run loops append whole blocks of
    rows and the CSV view is materialized on demand.
    """

    def __init__(self, lp_orders=(), capacity: int = 1024):
        self.lp_orders = tuple(int(p) for p in lp_orders)
        self.n = 0
        self._cap = max(int(capacity), 16)
        self._cols = {name: np.empty(self._cap) for name in self.column_names()}

    def column_names(self):
        names = ["t", "l2_sq", "h1_sq", "h2_sq"]
        names += [f"lp{p}_p" for p in self.lp_orders]
        names += ["l1_dist", "energy_residual", "guard_margin"]
        return names

    def _grow(self, need):
        while self._cap < need:
            self._cap *= 2
        for k, v in self._cols.items():
            new = np.empty(self._cap)
            new[: self.n] = v[: self.n]
            self._cols[k] = new

    def append(self, t, l2_sq, h1_sq, h2_sq, lp_powers=(),
               l1_dist=np.nan, energy_residual=np.nan, guard_margin=np.nan):
        """Append a block of rows: t holds one time per row (a scalar is a
        block of one), every other column one value per row or one value
        broadcast to all, and lp_powers one such column per Lp order."""
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
        c["energy_residual"][i:j] = energy_residual
        c["guard_margin"][i:j] = guard_margin
        self.n = j

    def __len__(self):
        return self.n

    def column(self, name) -> np.ndarray:
        return self._cols[name][: self.n]

    def set_column(self, name, values):
        self._cols[name][: self.n] = values

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
        fp.write(",".join(names) + "\n")
        fp.writelines(kept)
        row = ",".join([FLOAT_FMT] * len(names)) + "\n"
        for i in range(0, self.n, CSV_CHUNK_ROWS):
            j = min(self.n, i + CSV_CHUNK_ROWS)
            cols = [self._cols[k][i:j].tolist() for k in names]
            fp.write("".join([row % r for r in zip(*cols)]))


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
    head = 0
    while head < len(source) and source[head].startswith("#"):
        head += 1
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
    does not depend on how the stream was split into segments.
    """
    seg = 0.5 * (h1[1:] + h1[:-1]) * np.diff(t)  # per-interval trapezoid areas
    n = len(t)
    res = np.full(n - first, np.nan)
    nu2 = 2.0 * nu
    for i in range(max(first, 1), min(window, n)):  # windows still filling
        span = t[i] - t[0]
        if span > 0:
            res[i - first] = (l2[i] - l2[0]) / span + nu2 * np.sum(seg[:i]) / span - trace
    full = max(first, window)
    if n > full:
        sw = np.lib.stride_tricks.sliding_window_view(seg, window)
        for s0 in range(full, n, 65536):
            s1 = min(n, s0 + 65536)
            i = np.arange(s0, s1)
            k = i - window
            span = t[i] - t[k]
            res[s0 - first : s1 - first] = (
                (l2[i] - l2[k]) / span + nu2 * sw[k].sum(axis=1) / span - trace)
    return res


def l1_norms(coeffs: np.ndarray, n: int) -> np.ndarray:
    """L1 quadrature norms of coefficient vectors (last axis) on the n-point
    grid; each row of a block comes out bitwise equal to its own call."""
    return np.mean(np.abs(synthesize(coeffs, n)), axis=-1)


def l1_distance(a: SpectralField, b: SpectralField, n: int | None = None) -> float:
    """L1 quadrature distance between two fields on a dealiased fine grid."""
    if a.basis.m_max != b.basis.m_max:
        raise ValueError("fields live on different bands")
    if n is None:
        n = DEFAULT_FINE_FACTOR * a.basis.m_max
    return float(l1_norms(a.coeffs - b.coeffs, n))
