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

from dataclasses import dataclass, field

import numpy as np

from .spectral import ModeBasis

FLUX_KINDS = ("burgers", "polynomial", "zero")


def _constant(x) -> np.ndarray:
    """x as a read-only 0-d float array, an operand no ufunc call converts."""
    a = np.array(x, dtype=float)
    a.flags.writeable = False
    return a


_HALF = _constant(0.5)  # Burgers' factor
_ZERO = _constant(0.0)  # polyval's x * 0


@dataclass
class FluxSpec:
    """Polynomial flux law.

    kind = "burgers" is A(v) = v^2/2, "zero" switches the nonlinearity off
    and "polynomial" takes coefficients [a_0, a_1, ...] meaning sum a_j v^j.
    Past the float range A comes out inf or nan rather than raise; the step
    loop finds a blow-up from the step's output.  The coefficients are read
    once, into `horner_terms`, the 0-d operands of Horner's rule from the
    leading coefficient down.
    """

    kind: str = "burgers"
    coefficients: np.ndarray | None = None
    horner_terms: tuple = field(init=False, repr=False, compare=False)

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
            if not np.isfinite(self.coefficients).all():
                raise ValueError("flux coefficients must be finite")
        self.horner_terms = tuple(map(_constant, self.coefficients[::-1]))

    @property
    def degree(self) -> int:
        """Polynomial degree used to size the dealiasing grid."""
        nz = np.nonzero(self.coefficients)[0]
        return int(nz[-1]) if len(nz) else 1


def _horner(terms: tuple, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sum c_j v^j from terms, the 0-d coefficients c_d, ..., c_0, by
    Horner's rule with polyval's operations in polyval's order,
    c_d + v * 0 and then c_j + acc * v, so the result equals
    np.polynomial.polynomial.polyval(v, c) bit for bit, where two nans
    meet too; into out if given, else into fresh arrays as polyval does."""
    multiply, add = np.multiply, np.add
    acc = add(terms[0], multiply(v, _ZERO, out), out)
    for a in terms[1:]:
        acc = add(a, multiply(acc, v, out), out)
    return acc


def flux_value(spec: FluxSpec, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A(v), elementwise; past the float range the value is inf or nan and
    nothing is raised (callers set numpy's error state for the warning).

    One expression serves both calls, every operand an array and every
    output positional: Burgers squares by two multiplies, (0.5 v) v with
    a 0-d 0.5, bit for bit 0.5 * v * v on v as a float array; every other
    kind, "zero" with its coefficients [0.0] included, goes through
    Horner's rule on the spec's 0-d terms.  out, a float array of v's
    shape other than v itself, with v a float array, receives the values
    of the fresh call and is returned.
    """
    if spec.kind == "burgers":
        return np.multiply(np.multiply(_HALF, v, out), v, out)
    return _horner(spec.horner_terms, v, out)


def dealias_points(spec: FluxSpec, basis: ModeBasis) -> int:
    """Padded grid size: beyond (degree+1)*K to keep aliases off the band."""
    k = basis.n_pairs
    n = max((spec.degree + 1) * k + 2, 3 * k + 2)
    return n + (n % 2)
