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

from .spectral import ModeBasis

FLUX_KINDS = ("burgers", "polynomial", "zero", "callback")


@dataclass
class FluxSpec:
    """Flux law with declared growth.

    kind = "burgers" is A(v) = v^2/2, "zero" switches the nonlinearity off,
    "polynomial" takes coefficients [a_0, a_1, ...] meaning sum a_j v^j, and
    "callback" takes a value callable with declared growth (C_1, p_A),
    taken on trust.  value_fn must act elementwise on arrays of any shape:
    the nonlinear term applies it to a whole block of same-noise states at
    once.  Past the float range it returns inf or nan rather than raise;
    the step loop finds a blow-up from the step's output.
    """

    kind: str = "burgers"
    coefficients: np.ndarray | None = None
    growth_constant: float | None = None  # C_1
    growth_exponent: int | None = None  # p_A
    value_fn: Callable | None = field(default=None, repr=False)

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
            if self.value_fn is None:
                raise ValueError("callback flux requires value_fn")
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


def _horner(c: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sum c_j v^j by Horner's rule in polyval's order, so the result equals
    np.polynomial.polynomial.polyval(v, c) bit for bit, inf and nan included,
    without its per-call argument handling; into out if given."""
    acc = np.multiply(v, 0, out=out)
    acc += c[-1]
    for a in c[-2::-1]:
        acc *= v
        acc += a
    return acc


def flux_value(spec: FluxSpec, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A(v), elementwise; past the float range the value is inf or nan and
    nothing is raised (callers set numpy's error state for the warning).

    out, a float array of v's shape other than v itself, receives the
    values bit for bit as the allocating call returns them, and is
    returned; "burgers" and "polynomial" compute them in it.
    """
    v = np.asarray(v, dtype=float)
    if spec.kind == "burgers":
        if out is None:
            return 0.5 * v * v
        np.multiply(0.5, v, out=out)
        out *= v
        return out
    if spec.kind == "polynomial":
        return _horner(spec.coefficients, v, out)
    values = np.zeros_like(v) if spec.kind == "zero" else np.asarray(spec.value_fn(v), dtype=float)
    if out is None:
        return values
    out[...] = values
    return out


def dealias_points(spec: FluxSpec, basis: ModeBasis) -> int:
    """Padded grid size: beyond (degree+1)*K to keep aliases off the band."""
    k = basis.n_pairs
    n = max((spec.degree + 1) * k + 2, 3 * k + 2)
    return n + (n % 2)

