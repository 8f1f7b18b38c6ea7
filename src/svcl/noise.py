"""Q-Wiener forcing: spectral amplitudes, traces, and the exact OU convolution.

Draw discipline
---------------
Every Gaussian the path ever produces is addressed by (seed, mode, step):
the Philox key is the seed, the 256-bit counter is advanced by one 2^64
block per draw index (one index per step), and a mode's value sits at its
fixed position inside the block.  Consequences the rest of the code relies
on:

* identical seeds give bitwise-identical increment sequences,
* a mode's draw never depends on which other modes are active, so modes
  with sigma_m = 0 receive exactly 0.0 without shifting anything else,
* coupled trajectories share one path object and therefore one realization,
* resuming at step n only requires setting the draw index to n.

The stochastic convolution w(t) = int_0^t S_{t-s} dW(s) is advanced by its
exact Gaussian transition for diagonal covariance: mode m picks up the
decay factor exp(nu lam_m dt) plus fresh noise of variance
sigma_m^2 (1 - exp(2 nu lam_m dt)) / (-2 nu lam_m).  A dense covariance
matrix G[k][m] falls back to Euler-Maruyama with distributional error
O(dt) instead of zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .spectral import ModeBasis

# q at or below this makes sum_m lam_m^2 sigma_m^2 ~ sum mp^(4 - 2q) diverge
MIN_PROFILE_Q = 2.5


@dataclass
class NoiseSpec:
    """Spectral noise description: explicit sigma array, (c, q) profile with
    sigma_m = c (1 + mp)^(-q), or a dense covariance factor G[k][m]."""

    sigma: np.ndarray | None = None
    c: float | None = None
    q: float | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        given = [self.sigma is not None, self.c is not None or self.q is not None,
                 self.matrix is not None]
        if sum(given) != 1:
            raise ValueError(
                "specify exactly one of: sigma array, (c, q) profile, matrix"
            )
        if self.sigma is not None:
            self.sigma = np.asarray(self.sigma, dtype=float)
            if np.any(self.sigma < 0):
                raise ValueError("sigma amplitudes must be >= 0")
        if self.c is not None or self.q is not None:
            if self.c is None or self.q is None:
                raise ValueError("profile needs both c and q")
            if self.c < 0:
                raise ValueError("profile amplitude c must be >= 0")
            if self.q <= MIN_PROFILE_Q:
                raise ValueError(
                    f"H2 trace diverges under the lam_m^2 weight: profile "
                    f"q = {self.q} must exceed {MIN_PROFILE_Q}"
                )
        if self.matrix is not None:
            self.matrix = np.atleast_2d(np.asarray(self.matrix, dtype=float))

    @property
    def diagonal(self) -> bool:
        return self.matrix is None

    def resolve(self, basis: ModeBasis) -> np.ndarray:
        """Per-mode amplitudes sigma_m on the given basis.

        For a dense matrix this returns the effective marginal amplitudes
        sqrt(sum_k G[k][m]^2), which set variances but not correlations.
        """
        if self.sigma is not None:
            if len(self.sigma) != basis.m_max:
                raise ValueError(
                    f"sigma has {len(self.sigma)} entries, basis retains "
                    f"{basis.m_max} modes"
                )
            return self.sigma.copy()
        if self.matrix is not None:
            if self.matrix.shape[1] != basis.m_max:
                raise ValueError("matrix column count must equal m_max")
            return np.sqrt(np.sum(self.matrix**2, axis=0))
        return self.c * (1.0 + basis.pair_index) ** (-self.q)


class TraceInfo(NamedTuple):
    h2: float  # D_0 = sum_k ||g_k||_H2^2
    l2: float  # sum_k ||g_k||_L2^2, what the p=2 balance produces


def trace_h2(spec: NoiseSpec, basis: ModeBasis) -> TraceInfo:
    """H2 and L2 traces of the covariance on the retained band."""
    lam2 = basis.eigenvalues**2
    if spec.matrix is not None:
        col = np.sum(spec.matrix**2, axis=0)
        return TraceInfo(float(np.sum(lam2 * col)), float(np.sum(col)))
    sig2 = spec.resolve(basis) ** 2
    return TraceInfo(float(np.sum(lam2 * sig2)), float(np.sum(sig2)))


class NoisePath:
    """One realization of the forcing, owned by a single run.

    State is (seed, draw_index): the path only draws, and the convolution
    itself is built from its draws by `integrator.convolution_grid`.  The
    Philox generator is recreated logically per draw by resetting its
    counter, which is bitwise identical to constructing
    Philox(key=seed, counter=[0, index, 0, 0]) fresh and far cheaper.  The
    state dict it is reset from holds Python lists and ints, which the
    generator's state setter reads faster than numpy arrays, and an empty
    buffer (buffer_pos 4), as a fresh generator has.
    """

    def __init__(self, spec: NoiseSpec, basis: ModeBasis, seed: int):
        self.spec = spec
        self.basis = basis
        self.seed = int(seed) & (2**64 - 1)
        self.sigma = spec.resolve(basis)
        self.draw_index = 0
        self._n_draws = spec.matrix.shape[0] if spec.matrix is not None else basis.m_max
        self._bg = np.random.Philox(key=self.seed)
        self._gen = np.random.Generator(self._bg)
        self._counter = [0, 0, 0, 0]  # block sets [1], the draw index
        key = self._bg.state["state"]["key"].tolist()
        self._state = {"bit_generator": "Philox", "state": {"counter": self._counter, "key": key},
                       "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        self._ou_key = self._ou_std = None  # ou_increment's std and its (nu, dt)

    def fork(self) -> "NoisePath":
        """Independent handle on the same realization at the same position."""
        other = NoisePath(self.spec, self.basis, self.seed)
        other.draw_index = self.draw_index
        return other

    def block(self, index: int) -> np.ndarray:
        """The fixed Gaussian block of draw index `index` (pure lookup)."""
        self._counter[1] = index
        self._bg.state = self._state
        return self._gen.standard_normal(self._n_draws)

    def wiener_increment(self, dt: float) -> np.ndarray:
        """Raw increment W(t+dt) - W(t): mode variance sigma_m^2 dt."""
        z = self.block(self.draw_index)
        self.draw_index += 1
        if self.spec.matrix is not None:
            return np.sqrt(dt) * (z @ self.spec.matrix)
        return np.sqrt(dt) * self.sigma * z

    def ou_increment(self, nu: float, dt: float) -> np.ndarray:
        """Draw one step's fresh-noise part of the convolution,
        w(t+dt) - exp(nu lam dt) w(t), exactly what the integrator adds:
        the step's block times the per-mode std, cached for the last
        (nu, dt).

        Dense covariance has no diagonal transition, so it falls back to the
        Euler-Maruyama increment, the raw Wiener increment.
        """
        if self.spec.matrix is not None:
            return self.wiener_increment(dt)
        if self._ou_key != (nu, dt):
            lam = self.basis.eigenvalues
            var = self.sigma**2 * (1.0 - np.exp(2.0 * nu * lam * dt)) / (-2.0 * nu * lam)
            self._ou_key, self._ou_std = (nu, dt), np.sqrt(var)
        z = self.block(self.draw_index)
        self.draw_index += 1
        z *= self._ou_std
        return z
