"""The radial PDE system variants, their right-hand sides and their identities.

Every variant is a system -Lap(u_i) = F_i(u) whose F is a signed sum of
exponentials.  Each right-hand side is stored as a list of terms
(c, e) meaning the vector contribution c * exp(e . u), which gives one
uniform code path for evaluation and for the small-radius series heads,
including the scalar equations whose terms mix exponentials of +-u.
All else is derived from that table once, in exact fractions: the
component count and, for exponential-linear variants (F = A e^u, A = C^T),
the ``Identity`` and the weights d of the constraint sum_i d_i u_i = 0
when every row of D A sums to zero (su3, su4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cache
from itertools import product
from typing import NamedTuple, Optional

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

Matrix = tuple[tuple[Fraction, ...], ...]


class Identity(NamedTuple):
    """The quadratic identity of an exponential-linear variant F = A e^u: the
    symmetrizer d (d_1 = 1, D A symmetric) and the flux form, whose
    sum_i flux_w_i (A sigma)_i^2 + sum_j flux_sigma_j sigma_j^2 equals
    sigma^T (D A) sigma for every sigma (see ``analysis.IdentityBalance``)."""

    A: Matrix
    d: tuple[Fraction, ...]
    DA: Matrix
    flux_w: tuple[Fraction, ...]
    flux_sigma: tuple[Fraction, ...]


def _symmetrizer(A: Matrix) -> tuple[Fraction, ...]:
    """Positive d, d_1 = 1, with d_i A_ij = d_j A_ji, spread along the couplings."""
    n = len(A)
    d = [Fraction(1)] + [None] * (n - 1)
    for _ in range(n):
        for i, j in product(range(n), repeat=2):
            if d[i] is not None and d[j] is None and A[i][j] != 0 != A[j][i]:
                d[j] = d[i] * A[i][j] / A[j][i]
    if None in d or min(d) <= 0 or any(d[i] * A[i][j] != d[j] * A[j][i]
                                       for i, j in product(range(n), repeat=2)):
        raise ValueError("term table has no positive symmetrizer")
    return tuple(d)


def _flux_form(A: Matrix, DA: Matrix) -> tuple[tuple[Fraction, ...], ...]:
    """(flux_w, flux_sigma) of ``Identity`` for n <= 3, by Gauss-Jordan on the
    n(n+1)/2 coefficient equations plus flux_sigma_j = 0 for the first
    2n - n(n+1)/2 components, so the derivatives carry all they can."""
    n = len(A)
    rows = [[A[i][j] * A[i][k] for i in range(n)]
            + [Fraction(i == j == k) for i in range(n)] + [DA[j][k]]
            for j in range(n) for k in range(j, n)]
    rows += [[Fraction(i == n + j) for i in range(2 * n + 1)]
             for j in range(2 * n - len(rows))]
    for c in range(2 * n):
        p = next(i for i in range(c, 2 * n) if rows[i][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        rows = [r if i == c else [x - r[c] * y for x, y in zip(r, rows[c])]
                for i, r in enumerate(rows)]
    return tuple(r[-1] for r in rows[:n]), tuple(r[-1] for r in rows[n:])


class _Table(NamedTuple):
    n: int
    exponents: np.ndarray  # E, one row per term
    coeffs_t: np.ndarray  # C^T, one column per term
    identity: Optional[Identity]
    floats: Optional[Identity]  # the same, as (nested) lists of floats
    constraint: Optional[tuple[float, ...]]


@cache
def _table(variant: Variant) -> _Table:
    """Everything derived from a variant's term rows, built once."""
    terms = _TERMS[variant]
    n = len(terms[0][0])
    C = np.array([c for c, _ in terms], dtype=float)
    E = np.array([e for _, e in terms], dtype=float)
    identity = floats = constraint = None
    if np.array_equal(E, np.eye(n)):
        A = tuple(tuple(Fraction(c[i]) for c, _ in terms) for i in range(n))
        d = _symmetrizer(A)
        DA = tuple(tuple(d[i] * a for a in row) for i, row in enumerate(A))
        identity = Identity(A, d, DA, *_flux_form(A, DA))
        floats = Identity(*(np.array(x, dtype=float).tolist() for x in identity))
        if all(sum(row) == 0 for row in DA):
            constraint = tuple(float(x) for x in d)
    return _Table(n, E, np.ascontiguousarray(C.T), identity, floats, constraint)


@dataclass(frozen=True)
class SystemKind:
    """A system variant plus per-component Dirac weights at the origin.

    ``singular_weights[i] = b`` makes component i behave like
    2 b log r + const near r = 0 (a -4 pi b point source); all zeros means
    regular initial data.  Weights must be finite and non-negative.
    """

    variant: Variant
    singular_weights: tuple[float, ...] = field(default=())

    def __post_init__(self):
        # a plain attribute, not a field: eq, hash, repr and JSON ignore it,
        # and ``rhs`` reads it without a cached lookup per call
        object.__setattr__(self, "_t", _table(self.variant))
        n = self.n_components
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
        if not all(map(math.isfinite, self.singular_weights)):
            raise ValueError("singular weights must be finite")

    @property
    def n_components(self) -> int:
        return self._t.n

    @property
    def is_singular(self) -> bool:
        return any(b != 0 for b in self.singular_weights)

    @property
    def identity(self) -> Optional[Identity]:
        """The derived quadratic identity; None unless exponential-linear."""
        return self._t.identity

    @property
    def identity_floats(self) -> Optional[Identity]:
        """``identity`` as (nested) lists of floats, built once."""
        return self._t.floats

    def rhs(self, u: np.ndarray) -> np.ndarray:
        """F(u), the vector right-hand side of -Lap(u) = F(u): C^T exp(E u),
        with E u capped at 700.  u is a state (n,) or a block (n, k) of k
        states as columns.

        This is the one F evaluator: ``shoot``'s right-hand side,
        ``RadialProfile``'s nodal slopes and the scipy copy of the shot in
        the agreement tests all call it, so they share its bits.
        ``ndarray.dot`` gives the same bits as ``@`` here at less than half
        the per-call cost.
        """
        t = self._t
        return t.coeffs_t.dot(np.exp(np.minimum(t.exponents.dot(u), _EXP_CAP)))

    def constraint_weights(self) -> tuple[float, ...] | None:
        return self._t.constraint

    def to_json_dict(self) -> dict:
        """The ``variant`` and ``singular_weights`` keys of profile files."""
        return {"variant": self.variant.value,
                "singular_weights": list(self.singular_weights)}

    @staticmethod
    def from_json_dict(d: dict) -> "SystemKind":
        """The system of ``to_json_dict``'s keys in d (absent weights: regular)."""
        return SystemKind(Variant(d["variant"]), tuple(d.get("singular_weights") or ()))

    def series_terms(
        self, heights: np.ndarray
    ) -> list[tuple[np.ndarray, float]]:
        """Power-law decomposition of F near r = 0.

        With u_j ~ 2 b_j log r + c_j, each right-hand-side term contributes
        rho * r^p per component, rho = c_term * exp(e . c),
        p = 2 e . b.  Returns the list of (rho vector, p).
        """
        t = self._t
        b = np.asarray(self.singular_weights, dtype=float)
        c = np.asarray(heights, dtype=float)
        # a term that overflows (inf, or NaN as 0 * inf) is refused by
        # ShootSpec's head bound.  Every exponent row is a unit vector or a
        # scalar, so each dot product is exact
        with np.errstate(over="ignore", invalid="ignore"):
            rho = np.exp(t.exponents @ c)[:, None] * t.coeffs_t.T
            p = 2.0 * (t.exponents @ b)
        return list(zip(rho, p.tolist()))
