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

The covariance is diagonal in the sine/cosine basis, so the stochastic
convolution w(t) = int_0^t S_{t-s} dW(s) is advanced by its exact Gaussian
transition: mode m picks up the decay factor exp(nu lam_m dt) plus fresh
noise of variance sigma_m^2 (1 - exp(2 nu lam_m dt)) / (-2 nu lam_m).
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
    """Spectral noise description: explicit sigma array or (c, q) profile
    with sigma_m = c (1 + mp)^(-q)."""

    sigma: np.ndarray | None = None
    c: float | None = None
    q: float | None = None

    def __post_init__(self):
        if (self.sigma is not None) == (self.c is not None or self.q is not None):
            raise ValueError("specify exactly one of: sigma array, (c, q) profile")
        if self.sigma is not None:
            self.sigma = np.asarray(self.sigma, dtype=float)
            if np.any(self.sigma < 0):
                raise ValueError("sigma amplitudes must be >= 0")
            if not np.isfinite(self.sigma).all():
                raise ValueError("sigma amplitudes must be finite")
        if self.c is not None or self.q is not None:
            if self.c is None or self.q is None:
                raise ValueError("profile needs both c and q")
            if not np.isfinite([self.c, self.q]).all():
                raise ValueError(f"profile c = {self.c}, q = {self.q} must be finite")
            if self.c < 0:
                raise ValueError("profile amplitude c must be >= 0")
            if self.q <= MIN_PROFILE_Q:
                raise ValueError(
                    f"H2 trace diverges under the lam_m^2 weight: profile "
                    f"q = {self.q} must exceed {MIN_PROFILE_Q}"
                )

    def resolve(self, basis: ModeBasis) -> np.ndarray:
        """Per-mode amplitudes sigma_m on the given basis."""
        if self.sigma is not None:
            if len(self.sigma) != basis.m_max:
                raise ValueError(
                    f"sigma has {len(self.sigma)} entries, basis retains "
                    f"{basis.m_max} modes"
                )
            return self.sigma.copy()
        return self.c * (1.0 + basis.pair_index) ** (-self.q)


class TraceInfo(NamedTuple):
    h2: float  # D_0 = sum_k ||g_k||_H2^2
    l2: float  # sum_k ||g_k||_L2^2, what the p=2 balance produces


def trace_h2(spec: NoiseSpec, basis: ModeBasis) -> TraceInfo:
    """H2 and L2 traces of the covariance on the retained band."""
    sig2 = spec.resolve(basis) ** 2
    return TraceInfo(float(np.sum(basis.eigenvalues**2 * sig2)), float(np.sum(sig2)))


class NoisePath:
    """One realization of the forcing, owned by a single run.

    State is (seed, draw_index): the path only draws, and the convolution
    itself is built from its draws by `integrator.convolution_grid`.  The
    Philox generator is recreated logically per draw by resetting its
    counter, which is bitwise identical to constructing
    Philox(key=seed, counter=[0, index, 0, 0]) fresh and far cheaper.  The
    state dict it is reset from holds Python lists and ints, which the
    generator's state setter reads faster than numpy arrays, and an empty
    buffer (buffer_pos 4), as a fresh generator has.  A draw is a pure
    lookup by index, so the increments of a whole block of steps can be
    drawn at once, into the caller's block, bitwise equal to drawing them
    one step at a time.
    """

    def __init__(self, spec: NoiseSpec, basis: ModeBasis, seed: int):
        self.basis = basis
        self.seed = int(seed) & (2**64 - 1)
        self.sigma = spec.resolve(basis)
        self.draw_index = 0
        self._bg = np.random.Philox(key=self.seed)
        self._gen = np.random.Generator(self._bg)
        self._counter = [0, 0, 0, 0]  # block sets [1], the draw index
        key = self._bg.state["state"]["key"].tolist()
        self._state = {"bit_generator": "Philox", "state": {"counter": self._counter, "key": key},
                       "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        self._ou_key = self._ou_std = None  # ou_increment's std and its (nu, dt)

    def block(self, index: int, out: np.ndarray) -> np.ndarray:
        """The fixed Gaussian block of draw index `index` (pure lookup),
        drawn into out, a C-contiguous (m,) row."""
        self._counter[1] = index
        self._bg.state = self._state
        return self._gen.standard_normal(out=out)

    def ou_increment(self, nu: float, dt: float, out: np.ndarray | None = None) -> np.ndarray:
        """Draw the fresh-noise part of the convolution,
        w(t+dt) - exp(nu lam dt) w(t), exactly what the integrator adds, for
        the next k steps: row i of out, a C-contiguous (k, m) block, gets
        the block of draw index draw_index + i, and then the whole block is
        multiplied by the per-mode std, cached for the last (nu, dt).  With
        no out, one step into a fresh (m,) array, the one-row case.  Each
        row equals its own one-step draw bit for bit; draw_index advances
        by k.  Any other out raises ValueError: a block that reshapes to
        (k, m) only by a copy would get its draws in that copy.
        """
        if self._ou_key != (nu, dt):
            lam = self.basis.eigenvalues
            var = self.sigma**2 * (1.0 - self.basis.heat_decay(nu, 2.0 * dt)) / (-2.0 * nu * lam)
            self._ou_key, self._ou_std = (nu, dt), np.sqrt(var)
        if out is None:
            out = np.empty(self.basis.m_max)
        elif not out.flags.c_contiguous or out.shape[-1:] != (self.basis.m_max,):
            raise ValueError(f"out must be a C-contiguous block of rows of "
                             f"{self.basis.m_max} modes, not {out.shape}")
        rows, block = out.reshape(-1, self.basis.m_max), self.block
        for index, row in enumerate(rows, self.draw_index):
            block(index, row)
        self.draw_index += len(rows)
        out *= self._ou_std
        return out
