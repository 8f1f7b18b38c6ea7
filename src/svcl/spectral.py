"""Sine/cosine spectral basis on the unit torus and the operators built on it.

Everything lives in the mean-zero subspace of L2[0, 1).  Modes come in
wavenumber pairs: for pair index mp = 1, 2, ... the odd mode 2*mp - 1 is
sqrt(2) sin(2 pi mp x) and the even mode 2*mp is sqrt(2) cos(2 pi mp x).
Both members share the Laplacian eigenvalue -(2 pi mp)^2, so the heat
semigroup, Sobolev norms and the spatial derivative all act diagonally
(or pairwise, for the derivative) on the real coefficient vector.

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


def _band(spec: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(real, imag) views of the band bins 1..k of spectra (last axis)."""
    return spec.real[..., 1 : k + 1], spec.imag[..., 1 : k + 1]


def _pairs(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sin, cos) member views of coefficient vectors (last axis)."""
    return c[..., 0::2], c[..., 1::2]


class Workspace:
    """Preallocated buffers for `synthesize` and `analyze` of one block shape
    (..., m_max) on an n-point grid, with their band views made once.

    The padded spectrum is zero outside the band bins 1..m_max/2, and every
    call overwrites all of those bins, so nothing carries over from one call
    to the next.  Results are views of these buffers, valid until the next
    call with the same workspace.
    """

    def __init__(self, shape: tuple, n: int):
        lead, k = shape[:-1], shape[-1] // 2
        self.padded = np.zeros((*lead, n // 2 + 1), dtype=complex)
        self.samples = np.empty((*lead, n))
        self.spectrum = np.empty((*lead, n // 2 + 1), dtype=complex)
        self.coeffs = np.empty(shape)
        self.padded_band = _band(self.padded, k)
        self.spectrum_band = _band(self.spectrum, k)
        self.coeff_pairs = _pairs(self.coeffs)


def synthesize(coeffs: np.ndarray, n: int, work: Workspace | None = None) -> np.ndarray:
    """Evaluate coefficient vectors (last axis) on the grid j/n, j = 0..n-1.

    Each row of a block comes out bitwise equal to its own call, and a call
    on a workspace bitwise equal to one without.  Used by the dealiased
    nonlinear term and every quadrature-based observable.  Requires
    n >= m_max + 2.
    """
    m_max = coeffs.shape[-1]
    k = m_max // 2
    if n < m_max + 2:
        raise ValueError("grid too coarse for the retained band")
    if work is None:
        lead = coeffs.shape[:-1]
        spec, out = np.zeros((*lead, n // 2 + 1), dtype=complex), np.empty((*lead, n))
        re, im = _band(spec, k)
    else:
        spec, out, (re, im) = work.padded, work.samples, work.padded_band
    # rfft bin mp holds (n/sqrt(2)) * (cos_coeff - i sin_coeff)
    scale = n / _SQRT2
    sin, cos = _pairs(coeffs)
    np.multiply(cos, scale, out=re)
    np.multiply(sin, -scale, out=im)
    # np.fft.irfft's call: the 1/n norm, with n taken from out
    return _pocketfft.irfft(spec, 1.0 / n, out=out)


def analyze(samples: np.ndarray, m_max: int,
            work: Workspace | None = None) -> tuple[np.ndarray, float]:
    """Project samples (last axis) onto the first m_max modes; returns
    (coeffs, mean), with a scalar mean for one sample vector.  On a
    workspace, coeffs is its buffer, bitwise equal to the allocating call."""
    n = samples.shape[-1]
    k = m_max // 2
    if n < m_max + 2:
        raise ValueError("grid too coarse for the retained band")
    if work is None:
        lead = samples.shape[:-1]
        spec, coeffs = np.empty((*lead, n // 2 + 1), dtype=complex), np.empty((*lead, m_max))
        (re, im), (sin, cos) = _band(spec, k), _pairs(coeffs)
    else:
        spec, coeffs = work.spectrum, work.coeffs
        (re, im), (sin, cos) = work.spectrum_band, work.coeff_pairs
    # np.fft.rfft's call: no norm, the even or odd kernel by n
    (_pocketfft.rfft_n_even if n % 2 == 0 else _pocketfft.rfft_n_odd)(samples, 1, out=spec)
    mean = spec.real[..., 0][()] / n  # [()]: a scalar, not a 0-d array, for one vector
    scale = _SQRT2 / n
    np.multiply(im, -scale, out=sin)
    np.multiply(re, scale, out=cos)
    return coeffs, mean


def rotate_pairs(c: np.ndarray, w: np.ndarray) -> np.ndarray:
    """d/dx on raw coefficients (last axis) with per-mode wavenumbers w,
    into a fresh array.

    Each (sin, cos) pair (s, k) maps to (-w k, w s).  Passing -w yields
    -d/dx bit for bit, since IEEE negation is exact.
    """
    out = np.empty_like(c)
    (s, k), (out_s, out_k) = _pairs(c), _pairs(out)
    np.multiply(k, -w[1::2], out=out_s)
    np.multiply(s, w[0::2], out=out_k)
    return out


def spectral_derivative(f: SpectralField) -> SpectralField:
    """Exact d/dx: rotates each (sin, cos) pair and scales by 2 pi mp.

    d/dx e_{2mp-1} = (2 pi mp) e_{2mp} and d/dx e_{2mp} = -(2 pi mp) e_{2mp-1}.
    """
    return SpectralField(rotate_pairs(f.coeffs, f.basis.wavenumbers), f.basis)


def heat_apply(f: SpectralField, nu: float, t: float) -> SpectralField:
    """Heat semigroup: multiply mode m by exp(nu * lambda_m * t), t >= 0."""
    if t < 0:
        raise ValueError("heat semigroup requires t >= 0")
    return SpectralField(np.exp(nu * f.basis.eigenvalues * t) * f.coeffs, f.basis)


def sobolev_norm(f: SpectralField, s: float) -> float:
    """Fractional Sobolev norm (sum_m |lambda_m|^s <f, e_m>^2)^(1/2); s=0 is L2."""
    if s == 0:
        return float(np.sqrt(np.dot(f.coeffs, f.coeffs)))
    weights = np.abs(f.basis.eigenvalues) ** s
    return float(np.sqrt(np.sum(weights * f.coeffs**2)))
