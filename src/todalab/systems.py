"""The radial PDE system variants and their right-hand sides.

Every variant is a system -Lap(u_i) = F_i(u) whose F is a signed sum of
exponentials.  Each right-hand side is stored as a list of terms
(c, e) meaning the vector contribution c * exp(e . u), which gives one
uniform code path for evaluation and for the small-radius series heads,
including the scalar equations whose terms mix exponentials of +-u.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

# exp() argument cap; keeps trial steps finite, never binds below the
# +50 blow-up guard used by the integrator
_EXP_CAP = 700.0


class Variant(Enum):
    LIOUVILLE = "liouville"
    SINH_GORDON = "sinh-gordon"
    AFFINE_SU3 = "su3"
    LIMIT_PAIR = "limitpair"
    TZITZEICA = "tzitzeica"
    AFFINE_SU4 = "su4"


# terms (coefficients row, exponents row): F(u) = sum_t c_t * exp(e_t . u)
_TERMS: dict[Variant, tuple[tuple[tuple[float, ...], tuple[float, ...]], ...]] = {
    Variant.LIOUVILLE: (((1.0,), (1.0,)),),
    Variant.SINH_GORDON: (
        ((1.0,), (1.0,)),
        ((-1.0,), (-1.0,)),
    ),
    Variant.TZITZEICA: (
        ((1.0,), (2.0,)),
        ((-1.0,), (-1.0,)),
    ),
    Variant.AFFINE_SU3: (
        ((1.0, 0.0, -0.5), (1.0, 0.0, 0.0)),
        ((0.0, 1.0, -0.5), (0.0, 1.0, 0.0)),
        ((-1.0, -1.0, 1.0), (0.0, 0.0, 1.0)),
    ),
    Variant.LIMIT_PAIR: (
        ((1.0, -0.5), (1.0, 0.0)),
        ((-1.0, 1.0), (0.0, 1.0)),
    ),
    Variant.AFFINE_SU4: (
        ((1.0, -0.5, -0.5), (1.0, 0.0, 0.0)),
        ((-0.5, 1.0, -0.5), (0.0, 1.0, 0.0)),
        ((-0.5, -0.5, 1.0), (0.0, 0.0, 1.0)),
    ),
}

_N_COMPONENTS = {
    Variant.LIOUVILLE: 1,
    Variant.SINH_GORDON: 1,
    Variant.AFFINE_SU3: 3,
    Variant.LIMIT_PAIR: 2,
    Variant.TZITZEICA: 1,
    Variant.AFFINE_SU4: 3,
}

# weights of the linear constraint sum(w_i u_i) = 0, when the variant has one
_CONSTRAINT = {
    Variant.AFFINE_SU3: (1.0, 1.0, 2.0),
    Variant.AFFINE_SU4: (1.0, 1.0, 1.0),
}

_MATRIX_CACHE: dict[Variant, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _matrices(variant: Variant) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(C, E, C.T) term matrices, built once per variant."""
    if variant not in _MATRIX_CACHE:
        C = np.array([c for c, _ in _TERMS[variant]], dtype=float)
        E = np.array([e for _, e in _TERMS[variant]], dtype=float)
        _MATRIX_CACHE[variant] = (C, E, np.ascontiguousarray(C.T))
    return _MATRIX_CACHE[variant]


@dataclass(frozen=True)
class SystemKind:
    """A system variant plus per-component Dirac weights at the origin.

    ``singular_weights[i] = b`` makes component i behave like
    2 b log r + const near r = 0 (a -4 pi b point source); all zeros means
    regular initial data.
    """

    variant: Variant
    singular_weights: tuple[float, ...] = field(default=())

    def __post_init__(self):
        n = _N_COMPONENTS[self.variant]
        w = self.singular_weights
        if w == ():
            object.__setattr__(self, "singular_weights", (0.0,) * n)
        elif len(w) != n:
            raise ValueError(
                f"{self.variant.value} has {n} components, got "
                f"{len(w)} singular weights"
            )
        if any(b < 0 for b in self.singular_weights):
            raise ValueError("singular weights must be non-negative")

    @property
    def n_components(self) -> int:
        return _N_COMPONENTS[self.variant]

    @property
    def is_singular(self) -> bool:
        return any(b != 0 for b in self.singular_weights)

    def coeff_matrix(self) -> np.ndarray:
        """Term coefficient rows stacked, shape (n_terms, n)."""
        return _matrices(self.variant)[0].copy()

    def exponent_matrix(self) -> np.ndarray:
        """Term exponent rows stacked, shape (n_terms, n)."""
        return _matrices(self.variant)[1].copy()

    def rhs(self, u: np.ndarray) -> np.ndarray:
        """F(u), the vector right-hand side of -Lap(u) = F(u)."""
        _, e, ct = _matrices(self.variant)
        return ct @ np.exp(np.minimum(e @ u, _EXP_CAP))

    def constraint_weights(self) -> tuple[float, ...] | None:
        return _CONSTRAINT.get(self.variant)

    def constraint_value(self, u: np.ndarray) -> float | None:
        """Value of the conserved linear combination, or None."""
        w = self.constraint_weights()
        if w is None:
            return None
        return float(np.dot(w, u))

    def series_terms(
        self, heights: np.ndarray
    ) -> list[tuple[np.ndarray, float]]:
        """Power-law decomposition of F near r = 0.

        With u_j ~ 2 b_j log r + c_j, each right-hand-side term contributes
        rho * r^p per component, rho = c_term * exp(e . c),
        p = 2 e . b.  Returns the list of (rho vector, p).
        """
        b = np.asarray(self.singular_weights, dtype=float)
        c = np.asarray(heights, dtype=float)
        out = []
        for coeffs, expo in _TERMS[self.variant]:
            e = np.asarray(expo)
            rho = np.asarray(coeffs) * np.exp(float(e @ c))
            p = 2.0 * float(e @ b)
            out.append((rho, p))
        return out
