"""Sine/cosine spectral basis on the unit torus and the operators built on it.

Everything lives in the mean-zero subspace of L2[0, 1).  Modes come in
wavenumber pairs: for pair index mp = 1, 2, ... the odd mode 2*mp - 1 is
sqrt(2) sin(2 pi mp x) and the even mode 2*mp is sqrt(2) cos(2 pi mp x).
Both members share the Laplacian eigenvalue -(2 pi mp)^2, so the heat
semigroup and Sobolev norms act diagonally, and the spatial derivative
pairwise, on the real coefficient vector.

Coefficient storage is a flat float64 array of length m_max with the sine
member first inside each pair.  Transforms call the pocketfft gufuncs
under numpy's real FFT (`numpy.fft._pocketfft_umath`, numpy >= 2.0)
directly, with 0-d norm factors and the output passed positionally, so
the results are theirs bit for bit without their per-call norm, dtype and
axis handling and without converting a Python number on every call: irfft
gets the 1/n that `np.fft.irfft` passes it, and rfft the analysis scale
sqrt(2)/n in place of `np.fft.rfft`'s 1.  pocketfft applies its norm
factor as one final multiply of each output float, so that rfft is the
unit-norm one times sqrt(2)/n bit for bit, and the scale costs no pass of
its own.  On a grid of n points the pair mp occupies the complex rfft bin
mp, which requires n >= m_max + 2 so the highest retained pair stays
strictly below the Nyquist bin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

_SQRT2 = np.sqrt(2.0)  # once here, not one ufunc call per workspace


class ModeBasis:
    """Truncated mean-zero Fourier basis with m_max retained real modes.

    m_max must be even and >= 2; pairs are (sine, cosine) members of
    wavenumbers mp = 1 .. m_max/2.
    """

    def __init__(self, m_max: int):
        m_max = int(m_max)
        if m_max < 2 or m_max % 2 != 0:
            raise ValueError("m_max must be even and >= 2")
        self.m_max = m_max
        self.n_pairs = m_max // 2
        # pair index mp for each mode m = 1..m_max, stored 0-based
        self.pair_index = np.repeat(np.arange(1, self.n_pairs + 1), 2)
        self.wavenumbers = 2.0 * np.pi * self.pair_index
        self.eigenvalues = -(self.wavenumbers**2)

    def zeros(self) -> np.ndarray:
        return np.zeros(self.m_max)

    def heat_decay(self, nu: float, dt: float) -> np.ndarray:
        """exp(nu lam dt) per mode: the one heat-semigroup factor over dt."""
        return np.exp(nu * self.eigenvalues * dt)

    def __repr__(self):
        return f"ModeBasis(m_max={self.m_max})"


@dataclass
class SpectralField:
    """Coefficient vector against the retained basis (mean-zero by construction)."""

    coeffs: np.ndarray
    basis: ModeBasis

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.basis.m_max,):
            raise ValueError(
                f"coefficient array has shape {self.coeffs.shape}, "
                f"expected ({self.basis.m_max},)"
            )


def mode_field(basis: ModeBasis, m: int, amplitude: float = 1.0) -> SpectralField:
    """Field amplitude * e_m, a convenient initial condition."""
    if not 1 <= m <= basis.m_max:
        raise ValueError(f"mode index m = {m} is outside 1..{basis.m_max}")
    c = basis.zeros()
    c[m - 1] = amplitude
    return SpectralField(c, basis)


def _pairs(c: np.ndarray, k: int) -> np.ndarray:
    """(..., k, 2) view of coefficient vectors (last axis) as (sin, cos) pairs."""
    return c.reshape(*c.shape[:-1], k, 2)


@cache
def _scales(n: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pair swap, the pack scales and the analysis signs of m
    coefficients on an n-point grid.  rfft bin mp holds
    (n/sqrt(2)) * (cos_coeff - i sin_coeff), so bins 1..m/2, read as floats
    in their own (real, imag) order, hold the swapped (cos, sin) pairs
    times the m/2 repeats of [n/sqrt(2), -n/sqrt(2)] (the pack), and an
    rfft scaled by sqrt(2)/n gives them back as (cos, -sin) pairs, which
    the m/2 repeats of [1, -1] (the signs) turn into (cos, sin).  The swap
    is the index permutation (1, 0, 3, 2, ...), its own inverse."""
    s = n / _SQRT2
    swap = np.arange(m).reshape(m // 2, 2)[:, ::-1].ravel()
    pack, signs = np.tile([s, -s], m // 2), np.tile([1.0, -1.0], m // 2)
    for x in (swap, pack, signs):
        x.flags.writeable = False  # shared by every caller
    return swap, pack, signs


class Workspace:
    """Preallocated buffers for `synthesize` and `analyze` of one block shape
    (..., m_max) on an n-point grid, with their views, scales and rfft
    kernel made once; the constructor makes the grid check the calls on it
    then skip.

    The padded spectrum is kept bin-major: one (n/2 + 1, rows) complex
    buffer, rows the block's row count (1 for a state), whose transpose at
    the block shape, `padded`, is the irfft input.  It is zero outside the
    band bins 1..m_max/2, and every call overwrites all of those bins, so
    nothing carries over from one call to the next.  The band bins of every
    row are one C-contiguous run of rows m_max floats in (bin, row,
    real/imag) order, `padded_band`; the pack gathers the coefficients into
    that order by one flat take of `pack_index` and multiplies them by
    `pack`, a scale run in the same order, n/sqrt(2) on each real part and
    -n/sqrt(2) on each imaginary one.  For a state the index is the pair
    swap.  With no operand broadcast, numpy runs that multiply without
    building a broadcasting iterator, which at small m costs more than the
    arithmetic.  The analysis band `spectrum_band` is a (..., m_max) float
    view of the rfft output's band bins, which rfft fills already scaled
    by `rfft_norm` (sqrt(2)/n): the coefficients as (cos, -sin) pairs, with
    no pass of its own.  The norm factors are 0-d arrays, `inv_n` (1/n) for
    irfft and `rfft_norm`, so no call converts a Python number.  Results
    are these buffers, valid until the next call with the same workspace.
    """

    __slots__ = ("padded", "samples", "spectrum", "padded_band", "spectrum_band", "swap",
                 "signs", "pack_index", "pack", "inv_n", "rfft_norm", "rfft")

    def __init__(self, shape: tuple, n: int):
        if n < shape[-1] + 2:
            raise ValueError("grid too coarse for the retained band")
        lead, m = shape[:-1], shape[-1]
        rows = math.prod(lead)
        bins = np.zeros((n // 2 + 1, rows), dtype=complex)
        # pocketfft copies each row into its own buffer, so the strided
        # transpose gives the bits of a row-major spectrum
        self.padded = bins.T.reshape(*lead, n // 2 + 1)
        self.samples = np.empty((*lead, n))
        self.spectrum = np.empty((*lead, n // 2 + 1), dtype=complex)
        # bins 1..m/2 as (real, imag) floats
        self.padded_band = bins[1 : m // 2 + 1].view(float).reshape(-1)
        self.spectrum_band = self.spectrum.view(float)[..., 2 : m + 2]
        self.swap, pack, self.signs = _scales(n, m)
        # flat position (bin b, row r, e) reads coefficient r m + swap[2b + e]
        self.pack_index = (np.arange(0, rows * m, m)[:, None]
                           + self.swap.reshape(m // 2, 1, 2)).reshape(-1)
        self.pack = np.tile(pack, rows)
        self.inv_n = np.array(1.0 / n)
        self.rfft_norm = np.array(_SQRT2 / n)
        # np.fft.rfft's kernel for the parity of n
        self.rfft = _pocketfft.rfft_n_even if n % 2 == 0 else _pocketfft.rfft_n_odd


def synthesize(coeffs: np.ndarray, n: int, work: Workspace | None = None) -> np.ndarray:
    """Evaluate coefficient vectors (last axis) on the grid j/n, j = 0..n-1.

    Each row of a block comes out bitwise equal to its own call, but for
    the sign of its nans when the row holds a nan.  The pack is one flat
    take of the coefficients in the workspace's bin-major band order and
    one contiguous multiply into its padded band.  Without a
    workspace (one built for coeffs' shape and n) the call builds its own,
    which checks n >= m_max + 2, so its result is a fresh array.  Used by
    the dealiased nonlinear term and every quadrature-based observable.
    """
    if work is None:
        work = Workspace(coeffs.shape, n)
    np.multiply(coeffs.take(work.pack_index), work.pack, work.padded_band)
    # np.fft.irfft's call: the 1/n norm, with n taken from out
    return _pocketfft.irfft(work.padded, work.inv_n, work.samples)


def analyze(samples: np.ndarray, m_max: int, work: Workspace | None = None) -> np.ndarray:
    """Project samples (last axis) onto the first m_max modes; the mean is
    dropped.

    On a workspace the result is its `spectrum_band`: the coefficients in
    rfft bin order with the sine negated, (cos, -sin) in each pair, valid
    until the next call.  Without one the call builds its own workspace
    (for m_max and the samples' grid) and returns a fresh (..., m_max)
    array in storage order, (sin, cos) in each pair: the band times the
    signs [1, -1], a multiply, since np.negative would flip the sign bit
    of a nan, then swapped.  Its bits are those of the unit-norm rfft's
    band times [sqrt(2)/n, -sqrt(2)/n].
    """
    fresh = work is None
    if fresh:
        work = Workspace((*samples.shape[:-1], m_max), samples.shape[-1])
    work.rfft(samples, work.rfft_norm, work.spectrum)
    if fresh:
        return np.multiply(work.spectrum_band, work.signs).take(work.swap, axis=-1)
    return work.spectrum_band


def rotate_pairs(c: np.ndarray, w: np.ndarray) -> np.ndarray:
    """d/dx on raw coefficients (last axis) with per-mode wavenumbers w,
    into a fresh array.

    Each (sin, cos) pair (s, k) maps to (-w k, w s): one multiply of the
    swapped pair by the pair weights (-w_cos, w_sin).  Wavenumbers -w yield
    -d/dx bit for bit, since IEEE negation is exact.
    """
    out = np.empty(c.shape)
    k = c.shape[-1] // 2
    np.multiply(_pairs(c, k)[..., ::-1], np.stack([-w[1::2], w[0::2]], axis=-1),
                out=_pairs(out, k))
    return out
