"""Flux laws A(u) and the dealiased pseudo-spectral nonlinear term -dx A(u).

A flux enters the dynamics only through N(u) = -dx A(u), computed by the
classical pad / evaluate / project / differentiate route.  The padded grid is
sized by the polynomial degree of the flux rather than a fixed 3/2 rule: a
degree-d flux of a band-K field has exact band d*K, and its aliases stay out
of the retained band on any grid with more than (d+1)*K points.  The 3/2
rule is kept as a floor so callback fluxes get at least the quadratic
treatment.

Growth metadata (C_1, p_A) declares |A'(v)| <= C_1 (1 + |v|^p_A) and is
checked at construction for polynomial fluxes: the asymptote is checked
exactly from the leading coefficient and the finite range on a wide grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .spectral import (ModeBasis, SpectralField, Workspace, analyze, pair_weights,
                       rotate_pairs, synthesize)

FLUX_KINDS = ("burgers", "polynomial", "zero", "callback")


@dataclass
class FluxSpec:
    """Flux law with declared growth.

    kind = "burgers" is A(v) = v^2/2, "zero" switches the nonlinearity off,
    "polynomial" takes coefficients [a_0, a_1, ...] meaning sum a_j v^j, and
    "callback" takes explicit value/derivative callables with declared
    growth, taken on trust.  value_fn and deriv_fn must act elementwise on
    arrays of any shape: the nonlinear term applies them to a whole block
    of same-noise states at once.  Past the float range they return inf or
    nan rather than raise; the step loop finds a blow-up from the step's
    output.
    """

    kind: str = "burgers"
    coefficients: np.ndarray | None = None
    growth_constant: float | None = None  # C_1
    growth_exponent: int | None = None  # p_A
    value_fn: Callable | None = field(default=None, repr=False)
    deriv_fn: Callable | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in FLUX_KINDS:
            raise ValueError(f"unknown flux kind {self.kind!r}; choose from {FLUX_KINDS}")
        if self.kind == "burgers":
            self.coefficients = np.array([0.0, 0.0, 0.5])
        elif self.kind == "zero":
            self.coefficients = np.array([0.0])
        elif self.kind == "polynomial":
            if self.coefficients is None:
                raise ValueError("polynomial flux requires coefficients")
            self.coefficients = np.atleast_1d(np.asarray(self.coefficients, dtype=float))
        else:  # callback
            if self.value_fn is None or self.deriv_fn is None:
                raise ValueError("callback flux requires value_fn and deriv_fn")
            if self.growth_constant is None or self.growth_exponent is None:
                raise ValueError("callback flux requires declared (C_1, p_A)")
        if self.kind != "callback":
            self._fill_growth_defaults()
            self._check_growth()
        if self.growth_constant <= 0:
            raise ValueError("growth constant C_1 must be positive")
        if self.growth_exponent < 1 or self.growth_exponent != int(self.growth_exponent):
            raise ValueError("growth exponent p_A must be a positive integer")
        self.growth_exponent = int(self.growth_exponent)

    # --- growth handling -------------------------------------------------

    def _deriv_coefficients(self):
        c = self.coefficients
        b = c[1:] * np.arange(1, len(c))
        nz = np.nonzero(b)[0]
        return b[: nz[-1] + 1] if len(nz) else np.zeros(0)

    def _fill_growth_defaults(self):
        b = self._deriv_coefficients()
        deg = len(b) - 1 if len(b) else 0
        if self.growth_exponent is None:
            self.growth_exponent = max(deg, 1)
        if self.growth_constant is None:
            self.growth_constant = max(float(np.sum(np.abs(b))), 1.0)

    def _check_growth(self):
        """Verify |A'(v)| <= C_1 (1 + |v|^p_A) for the declared metadata."""
        b = self._deriv_coefficients()
        if len(b) == 0:
            return
        deg = len(b) - 1
        c1, pa = self.growth_constant, self.growth_exponent
        if deg > pa:
            raise ValueError(
                f"growth bound fails: deg A' = {deg} exceeds declared p_A = {pa}"
            )
        if deg == pa and abs(b[-1]) > c1 * (1 + 1e-12):
            raise ValueError(
                f"growth bound fails asymptotically: |leading A' coeff| = {abs(b[-1])} "
                f"> C_1 = {c1}"
            )
        # The ratio |A'(v)| / (1 + |v|^p_A) is checked on |v| <= 1 directly and on
        # |v| >= 1 through w = 1/v, where it equals |sum b_j w^(p_A-j)| / (1 + |w|^p_A):
        # both forms stay below sum |b_j|, so the check cannot overflow.
        vs = np.linspace(-1.0, 1.0, 4001)
        denom = 1.0 + np.abs(vs) ** pa
        bb = np.zeros(pa + 1)
        bb[pa - np.arange(len(b))] = b
        worst = max(
            (np.abs(_horner(b, vs)) / denom).max(),
            (np.abs(_horner(bb, vs)) / denom).max(),
        )
        if worst > c1 * (1 + 1e-9):
            raise ValueError(
                f"growth bound fails: |A'(v)| / (1 + |v|^p_A) reaches {worst:.6g} "
                f"> C_1 = {c1}"
            )

    @property
    def degree(self) -> int:
        """Polynomial degree used to size the dealiasing grid."""
        if self.kind == "callback":
            return self.growth_exponent + 1
        c = self.coefficients
        nz = np.nonzero(c)[0]
        return int(nz[-1]) if len(nz) else 1


def _horner(c: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum c_j v^j by Horner's rule in polyval's order, so the result equals
    np.polynomial.polynomial.polyval(v, c) bit for bit, inf and nan included,
    without its per-call argument handling."""
    acc = v * 0
    acc += c[-1]
    for a in c[-2::-1]:
        acc *= v
        acc += a
    return acc


def flux_value(spec: FluxSpec, v: np.ndarray) -> np.ndarray:
    """A(v), elementwise; past the float range the value is inf or nan and
    nothing is raised (callers set numpy's error state for the warning)."""
    v = np.asarray(v, dtype=float)
    if spec.kind == "burgers":
        return 0.5 * v * v
    if spec.kind == "zero":
        return np.zeros_like(v)
    if spec.kind == "polynomial":
        return _horner(spec.coefficients, v)
    return np.asarray(spec.value_fn(v), dtype=float)


def flux_derivative(spec: FluxSpec, v: np.ndarray) -> np.ndarray:
    """A'(v), elementwise, with the same non-finite contract as flux_value."""
    v = np.asarray(v, dtype=float)
    if spec.kind == "burgers":
        return v.copy()
    if spec.kind == "zero":
        return np.zeros_like(v)
    if spec.kind == "polynomial":
        b = spec.coefficients[1:] * np.arange(1, len(spec.coefficients))
        return _horner(b, v) if len(b) else np.zeros_like(v)
    return np.asarray(spec.deriv_fn(v), dtype=float)


def dealias_points(spec: FluxSpec, basis: ModeBasis) -> int:
    """Padded grid size: beyond (degree+1)*K to keep aliases off the band."""
    k = basis.n_pairs
    n = max((spec.degree + 1) * k + 2, 3 * k + 2)
    return n + (n % 2)


def dx_flux(spec: FluxSpec, c: np.ndarray, n_pad: int, wp: np.ndarray,
            work: Workspace) -> np.ndarray:
    """Dealiased dx A(u) on raw coefficients, differentiated with the
    `rotate_pairs` weights wp = pair_weights(w) of wavenumbers w.

    Pads c, one vector or a block (..., m_max) of them, to the n_pad-point
    grid, applies A pointwise, projects back (the mean of A(u) is
    annihilated by the derivative, so it is dropped), and differentiates
    exactly in coefficient space.  With w = -wavenumbers this is
    N(u) = -dx A(u), the one nonlinear kernel every caller uses.  The
    transforms run on `work`, a Workspace for c's shape on n_pad points;
    the result is a fresh array.
    """
    if spec.kind == "zero":
        return np.zeros_like(c)
    samples = flux_value(spec, synthesize(c, n_pad, work))
    return rotate_pairs(analyze(samples, c.shape[-1], work), wp)


def flux_energy_pairing(spec: FluxSpec, u: SpectralField, p: int = 2) -> float:
    """Quadrature of u^(p-1) * dx A(u) over the torus.

    Vanishes identically for any smooth flux because the integrand is a
    perfect derivative, so the returned value is a pure dealiasing and
    discretization diagnostic.  The grid is sized for the full band
    (p - 1 + degree) * K of the integrand.
    """
    if p < 2 or p != int(p):
        raise ValueError("p must be an integer >= 2")
    p = int(p)
    basis = u.basis
    k = basis.n_pairs
    n = max((p + spec.degree - 1) * k + 2, 3 * k + 2)
    n += n % 2
    uv = synthesize(u.coeffs, n)
    ux = synthesize(rotate_pairs(u.coeffs, pair_weights(basis.wavenumbers)), n)
    return float(np.mean(uv ** (p - 1) * flux_derivative(spec, uv) * ux))
