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
directly, with the arguments `np.fft.rfft`/`irfft` pass them, so the
results are theirs bit for bit without their per-call norm, dtype and axis
handling; on a grid of n points the pair mp occupies the complex rfft bin
mp, which requires n >= m_max + 2 so the highest retained pair stays
strictly below the Nyquist bin.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

_SQRT2 = np.sqrt(2.0)  # once here, not one ufunc call per transform


class ModeBasis:
    """Truncated mean-zero Fourier basis with m_max retained real modes.

    Parameters
    ----------
    m_max : int
        Number of retained modes.  Must be even and >= 2; pairs are
        (sine, cosine) members of wavenumbers mp = 1 .. m_max/2.
    n_x : int, optional
        Physical quadrature grid size.  Defaults to 2*m_max, which leaves
        headroom for dealiased products.  Must satisfy n_x >= m_max + 2.
    """

    def __init__(self, m_max: int, n_x: int | None = None):
        m_max = int(m_max)
        if m_max < 2 or m_max % 2 != 0:
            raise ValueError("m_max must be even and >= 2")
        self.m_max = m_max
        self.n_pairs = m_max // 2
        self.n_x = 2 * m_max if n_x is None else int(n_x)
        if self.n_x < m_max + 2:
            raise ValueError("n_x must be >= m_max + 2")
        # pair index mp for each mode m = 1..m_max, stored 0-based
        self.pair_index = np.repeat(np.arange(1, self.n_pairs + 1), 2)
        self.wavenumbers = 2.0 * np.pi * self.pair_index
        self.eigenvalues = -(self.wavenumbers**2)

    def eigenvalue(self, m: int) -> float:
        """Laplacian eigenvalue of mode m (1-based)."""
        if not 1 <= m <= self.m_max:
            raise ValueError(f"mode index {m} outside 1..{self.m_max}")
        return float(self.eigenvalues[m - 1])

    def basis_eval(self, m: int, x):
        """Evaluate basis function e_m at x (scalar or array)."""
        if not 1 <= m <= self.m_max:
            raise ValueError(f"mode index {m} outside 1..{self.m_max}")
        arg = self.wavenumbers[m - 1] * np.asarray(x, dtype=float)
        if m % 2 == 1:
            return np.sqrt(2.0) * np.sin(arg)
        return np.sqrt(2.0) * np.cos(arg)

    def grid(self, n: int | None = None) -> np.ndarray:
        """Equispaced quadrature points j/n on [0, 1)."""
        n = self.n_x if n is None else int(n)
        return np.arange(n) / n

    def zeros(self) -> np.ndarray:
        return np.zeros(self.m_max)

    def __repr__(self):
        return f"ModeBasis(m_max={self.m_max}, n_x={self.n_x})"


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

    def copy(self) -> "SpectralField":
        return SpectralField(self.coeffs.copy(), self.basis)


def mode_field(basis: ModeBasis, m: int, amplitude: float = 1.0) -> SpectralField:
    """Field amplitude * e_m, a convenient initial condition."""
    c = basis.zeros()
    c[m - 1] = amplitude
    return SpectralField(c, basis)


def _band(spec: np.ndarray, k: int) -> np.ndarray:
    """Band bins 1..k of spectra (last axis) as a (..., k, 2) float view of
    swapped (imag, real) parts, lined up with `_pairs` of the coefficients."""
    return spec.view(float).reshape(*spec.shape, 2)[..., 1 : k + 1, ::-1]


def _pairs(c: np.ndarray, k: int) -> np.ndarray:
    """(..., k, 2) view of coefficient vectors (last axis) as (sin, cos) pairs."""
    return c.reshape(*c.shape[:-1], k, 2)


@cache
def _scales(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair factors on an n-point grid: rfft bin mp holds
    (n/sqrt(2)) * (cos_coeff - i sin_coeff), so a (sin, cos) pair packs
    into (imag, real) times [-n/sqrt(2), n/sqrt(2)] and unpacks from it
    times [-sqrt(2)/n, sqrt(2)/n]."""
    s, a = n / _SQRT2, _SQRT2 / n
    pack, unpack = np.array([-s, s]), np.array([-a, a])
    pack.flags.writeable = unpack.flags.writeable = False  # shared by every caller
    return pack, unpack


class Workspace:
    """Preallocated buffers for `synthesize` and `analyze` of one block shape
    (..., m_max) on an n-point grid, with their pair views, scale pairs and
    rfft kernel made once; the constructor makes the grid check the calls
    on it then skip.

    The padded spectrum is zero outside the band bins 1..m_max/2, and every
    call overwrites all of those bins, so nothing carries over from one call
    to the next.  Results are views of these buffers, valid until the next
    call with the same workspace.
    """

    def __init__(self, shape: tuple, n: int):
        if n < shape[-1] + 2:
            raise ValueError("grid too coarse for the retained band")
        lead, k = shape[:-1], shape[-1] // 2
        self.pair_shape = (*lead, k, 2)
        self.padded = np.zeros((*lead, n // 2 + 1), dtype=complex)
        self.samples = np.empty((*lead, n))
        self.spectrum = np.empty((*lead, n // 2 + 1), dtype=complex)
        self.coeffs = np.empty(shape)
        self.padded_band = _band(self.padded, k)
        self.spectrum_band = _band(self.spectrum, k)
        self.coeff_pairs = _pairs(self.coeffs, k)
        self.pack, self.unpack = _scales(n)
        self.inv_n = 1.0 / n
        # np.fft.rfft's kernel: the even or odd one by n
        self.rfft = _pocketfft.rfft_n_even if n % 2 == 0 else _pocketfft.rfft_n_odd


def synthesize(coeffs: np.ndarray, n: int, work: Workspace | None = None) -> np.ndarray:
    """Evaluate coefficient vectors (last axis) on the grid j/n, j = 0..n-1.

    Each row of a block comes out bitwise equal to its own call, and a call
    on a workspace (built for coeffs' shape and n, which it checked)
    bitwise equal to one without.  Used by the dealiased nonlinear term and
    every quadrature-based observable.  Requires n >= m_max + 2.
    """
    if work is not None:
        np.multiply(coeffs.reshape(work.pair_shape), work.pack, out=work.padded_band)
        return _pocketfft.irfft(work.padded, work.inv_n, out=work.samples)
    m_max = coeffs.shape[-1]
    k = m_max // 2
    if n < m_max + 2:
        raise ValueError("grid too coarse for the retained band")
    lead = coeffs.shape[:-1]
    spec = np.zeros((*lead, n // 2 + 1), dtype=complex)
    np.multiply(_pairs(coeffs, k), _scales(n)[0], out=_band(spec, k))
    # np.fft.irfft's call: the 1/n norm, with n taken from out
    return _pocketfft.irfft(spec, 1.0 / n, out=np.empty((*lead, n)))


def analyze(samples: np.ndarray, m_max: int, work: Workspace | None = None) -> np.ndarray:
    """Project samples (last axis) onto the first m_max modes; the mean is
    dropped.  On a workspace (built for m_max and the samples' grid) the
    result is its buffer, bitwise equal to the allocating call."""
    if work is not None:
        work.rfft(samples, 1, out=work.spectrum)
        np.multiply(work.spectrum_band, work.unpack, out=work.coeff_pairs)
        return work.coeffs
    n = samples.shape[-1]
    k = m_max // 2
    if n < m_max + 2:
        raise ValueError("grid too coarse for the retained band")
    lead = samples.shape[:-1]
    spec, coeffs = np.empty((*lead, n // 2 + 1), dtype=complex), np.empty((*lead, m_max))
    # np.fft.rfft's call: no norm, the even or odd kernel by n
    (_pocketfft.rfft_n_even if n % 2 == 0 else _pocketfft.rfft_n_odd)(samples, 1, out=spec)
    np.multiply(_band(spec, k), _scales(n)[1], out=_pairs(coeffs, k))
    return coeffs


def pair_weights(w: np.ndarray) -> np.ndarray:
    """`rotate_pairs` weights for per-mode wavenumbers w: the (m_max/2, 2)
    pairs (-w_cos, w_sin), built once per operator."""
    return np.stack([-w[1::2], w[0::2]], axis=-1)


def rotate_pairs(c: np.ndarray, wp: np.ndarray) -> np.ndarray:
    """d/dx on raw coefficients (last axis) with weights wp = pair_weights(w),
    into a fresh array.

    Each (sin, cos) pair (s, k) maps to (-w k, w s), the swapped pair times
    wp.  Weights of -w yield -d/dx bit for bit, since IEEE negation is exact.
    """
    out = np.empty(c.shape)
    k = c.shape[-1] // 2
    np.multiply(_pairs(c, k)[..., ::-1], wp, out=_pairs(out, k))
    return out
