"""Closed-form radial bubbles.

The bubble family solves the radial operator u'' + u'/r = -e^u away from
the origin, with an optional power-law singularity there.

Normalization: the standalone scalar equation here is -Lap(u) = e^u, so a
regular bubble carries total mass 4 in units of 1/(2 pi).  The variant with
coefficient 2 on the right-hand side is the same family shifted by log 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ArrayLike = float | np.ndarray


@dataclass(frozen=True)
class BubbleSpec:
    """Finite scale mu > 0 and finite singular weight b >= 0 (b = 0 means
    regular)."""

    mu: float
    b: float = 0.0

    def __post_init__(self):
        if not 0 < self.mu < math.inf:
            raise ValueError(f"mu must be finite and positive, got {self.mu!r}")
        if not 0 <= self.b < math.inf:
            raise ValueError(
                f"singular weight b must be finite and non-negative, got {self.b!r}")


def liouville_bubble(spec: BubbleSpec, r: ArrayLike) -> ArrayLike:
    """Regular bubble u(r) = log(8 mu^2 / (1 + mu^2 r^2)^2), valid at r = 0."""
    if spec.b != 0:
        raise ValueError("regular bubble requires b = 0; use singular_bubble")
    r = np.asarray(r, dtype=float)
    out = np.log(8 * spec.mu**2) - 2 * np.log1p(spec.mu**2 * r**2)
    return float(out) if out.ndim == 0 else out


def singular_bubble(spec: BubbleSpec, r: ArrayLike) -> ArrayLike:
    """Singular bubble w(r) = log(8 mu^2 (1+b)^2 r^(2b) / (1 + mu^2 r^(2+2b))^2).

    Solves w'' + w'/r = -e^w for r > 0, with w(r) - 2 b log r bounded near
    the origin (a Dirac source of weight -4 pi b there).
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("singular bubble requires r > 0")
    mu, b = spec.mu, spec.b
    out = (
        np.log(8 * mu**2 * (1 + b) ** 2)
        + 2 * b * np.log(r)
        - 2 * np.log1p(mu**2 * r ** (2 + 2 * b))
    )
    return float(out) if out.ndim == 0 else out


def bubble_value(spec: BubbleSpec, r: ArrayLike) -> ArrayLike:
    """Bubble value for either family (dispatches on spec.b)."""
    if spec.b == 0:
        return liouville_bubble(spec, r)
    return singular_bubble(spec, r)


def bubble_derivative(spec: BubbleSpec, r: ArrayLike) -> ArrayLike:
    """du/dr of the bubble, by exact differentiation of the closed form."""
    r = np.asarray(r, dtype=float)
    mu, b = spec.mu, spec.b
    y = mu**2 * r ** (2 + 2 * b)
    out = 2 * b / r - 2 * (2 + 2 * b) * y / (r * (1 + y))
    return float(out) if out.ndim == 0 else out


def bubble_second_derivative(spec: BubbleSpec, r: ArrayLike) -> ArrayLike:
    """d^2u/dr^2 of the bubble, exact."""
    r = np.asarray(r, dtype=float)
    mu, b = spec.mu, spec.b
    p = 2 + 2 * b
    y = mu**2 * r**p
    # d/dr [2b/r - 2p y / (r (1+y))], with dy/dr = p y / r
    out = -2 * b / r**2 - 2 * p * y * (p - 1 - y) / (r**2 * (1 + y) ** 2)
    return float(out) if out.ndim == 0 else out


def bubble_operator_residual(spec: BubbleSpec, r: ArrayLike) -> ArrayLike:
    """u'' + u'/r + e^u, which vanishes identically on the family."""
    u = bubble_value(spec, r)
    return (
        bubble_second_derivative(spec, r)
        + bubble_derivative(spec, r) / np.asarray(r, dtype=float)
        + np.exp(u)
    )


def bubble_mass(spec: BubbleSpec, r: ArrayLike) -> ArrayLike:
    """Cumulative mass integral int_0^r e^u s ds = 4(1+b) y/(1+y), y = mu^2 r^(2+2b)."""
    r = np.asarray(r, dtype=float)
    y = spec.mu**2 * r ** (2 + 2 * spec.b)
    out = 4 * (1 + spec.b) * y / (1 + y)
    return float(out) if out.ndim == 0 else out


def bubble_total_mass(spec: BubbleSpec) -> float:
    """Total mass 4(1+b): the r -> infinity limit of bubble_mass."""
    return 4.0 * (1.0 + spec.b)
