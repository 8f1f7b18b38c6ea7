"""Polynomial flux laws A(u) and the dealiased nonlinear term -dx A(u).

A flux is Burgers' v^2/2, the zero flux, or sum a_j v^j from its
coefficients, and enters the dynamics only through N(u) = -dx A(u), computed
by the classical pad / evaluate / project / differentiate route.  The padded
grid is sized by the degree of the flux rather than a fixed 3/2 rule: a
degree-d flux of a band-K field has exact band d*K, and its aliases stay out
of the retained band on any grid with more than (d+1)*K points.  The 3/2
rule is kept as a floor, which only a linear flux reaches: it keeps that
flux on the grid it has always had, and so keeps its output bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import ModeBasis

FLUX_KINDS = ("burgers", "polynomial", "zero")
_HALF = np.array(0.5)  # Burgers' factor, a 0-d array so no call converts it
_HALF.flags.writeable = False


@dataclass
class FluxSpec:
    """Polynomial flux law.

    kind = "burgers" is A(v) = v^2/2, "zero" switches the nonlinearity off
    and "polynomial" takes coefficients [a_0, a_1, ...] meaning sum a_j v^j.
    Past the float range A comes out inf or nan rather than raise; the step
    loop finds a blow-up from the step's output.
    """

    kind: str = "burgers"
    coefficients: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in FLUX_KINDS:
            raise ValueError(f"unknown flux kind {self.kind!r}; choose from {FLUX_KINDS}")
        if self.kind == "burgers":
            self.coefficients = np.array([0.0, 0.0, 0.5])
        elif self.kind == "zero":
            self.coefficients = np.array([0.0])
        elif self.coefficients is None or np.size(self.coefficients) == 0:
            raise ValueError("polynomial flux requires coefficients")
        else:
            self.coefficients = np.atleast_1d(np.asarray(self.coefficients, dtype=float))

    @property
    def degree(self) -> int:
        """Polynomial degree used to size the dealiasing grid."""
        nz = np.nonzero(self.coefficients)[0]
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
    returned.  Burgers squares directly, into out by two multiplies with
    positional outputs, (0.5 v) v, the 0.5 a 0-d array; every other kind,
    "zero" with its coefficients [0.0] included, goes through Horner's rule.
    """
    v = np.asarray(v, dtype=float)
    if spec.kind == "burgers":
        if out is None:
            return 0.5 * v * v
        return np.multiply(np.multiply(_HALF, v, out), v, out)
    return _horner(spec.coefficients, v, out)


def dealias_points(spec: FluxSpec, basis: ModeBasis) -> int:
    """Padded grid size: beyond (degree+1)*K to keep aliases off the band."""
    k = basis.n_pairs
    n = max((spec.degree + 1) * k + 2, 3 * k + 2)
    return n + (n % 2)
