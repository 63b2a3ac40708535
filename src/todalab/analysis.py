"""Verifiers connecting numerical profiles to the quantized mass triples.

``pohozaev_check`` evaluates the Pohozaev identity that every
exponential-linear variant derives from its term table (``systems.Identity``):
the mass-form residual, its exact finite-radius correction (the boundary
defect) and the flux recomputation, as an ``IdentityBalance``;
``su4_radial_balance`` is a view of the same balance.  Also fast/slow decay
classification, annulus scans, and the double-limit bubble-mass extraction
with nearest-member matching.

Profiles map onto mass triples by variant: the three-component systems
(su3, and su4, whose candidate triple is its component masses) fill all
slots, the two-component limit system fills slots (1, 3) with
slot 2 empty, and scalar profiles fill slot 1 only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import mul
from typing import Optional, Sequence

import numpy as np

from .ode_engine import DECAY_LEVEL, RadialProfile
from .spectrum import RULES, MassTriple, ParamIndex, SpectrumSet
from .systems import Variant


class DecayKind(Enum):
    FAST = "fast"
    SLOW = "slow"


@dataclass(frozen=True)
class DecayVerdict:
    """Fast/slow verdict of a witness sup(u + 2 log r) against a threshold:
    FAST iff witness <= -threshold."""

    witness: float
    threshold: float

    @property
    def kind(self) -> DecayKind:
        return DecayKind.FAST if self.witness <= -self.threshold else DecayKind.SLOW


def _checked_threshold(threshold: float) -> float:
    """The decay threshold of a fast/slow rule that takes one, which must be
    finite and positive: a NaN would make every circle slow, and one at or
    below 0 every circle of a decaying profile fast."""
    if not 0 < threshold < math.inf:
        raise ValueError(f"decay threshold must be finite and positive, got {threshold!r}")
    return threshold


def decay_classify(p: RadialProfile, r: float,
                   threshold: float = DECAY_LEVEL) -> DecayVerdict:
    """Classify the circle of radius r: fast iff max_i(u_i + 2 log r) <= -threshold,
    the maximum taken over every component."""
    return DecayVerdict(float(np.max(p.witness_at(r))), _checked_threshold(threshold))


def fast_decay_radius_scan(
    p: RadialProfile,
    component: int,
    interval: tuple[float, float],
    threshold: float,
) -> Optional[float]:
    """Smallest grid radius in [a, b] where u + 2 log r drops to -threshold.

    Returns None when the component never reaches fast decay on the
    interval; in that case its annulus mass, p.mass_at(b) - p.mass_at(a),
    grows like log(b/a) and is the quantity to inspect.
    """
    _checked_threshold(threshold)
    n = p.n_components
    if not 0 <= component < n:
        raise ValueError(f"component {component!r} outside 0 <= component < {n}")
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise ValueError("need a < b")
    if not p.covers(a, b):
        raise ValueError(
            f"interval [{a:g}, {b:g}] not contained in the profile grid "
            f"[{p.grid[0]:g}, {p.grid[-1]:g}]"
        )
    mask = (p.grid >= a) & (p.grid <= b)
    radii = p.grid[mask]
    hits = np.nonzero(p.witnesses[mask, component] <= -threshold)[0]
    if hits.size == 0:
        return None
    return float(radii[hits[0]])


def final_fast_decay_onset(p: RadialProfile) -> Optional[float]:
    """Start of the terminal annulus where every component is fast-decaying.

    Scanning inward from the outer edge, the smallest grid radius such
    that max_i(u_i + 2 log r) <= -DECAY_LEVEL from there outward.  None
    when the profile does not end in fast decay.
    """
    fast = np.max(p.witnesses, axis=1) <= -DECAY_LEVEL
    if not fast[-1]:
        return None
    k = len(fast) - 1
    while k > 0 and fast[k - 1]:
        k -= 1
    return float(p.grid[k])


# --------------------------------------------------------------------------
# Pohozaev checks
# --------------------------------------------------------------------------

# component feeding each (s1, s2, s3) slot, None for an empty slot
_SLOTS = {
    Variant.AFFINE_SU3: (0, 1, 2),
    Variant.AFFINE_SU4: (0, 1, 2),
    Variant.LIMIT_PAIR: (0, None, 1),
    Variant.LIOUVILLE: (0, None, None),
}


def _to_slots(variant: Variant, x: Sequence[float]) -> tuple[float, float, float]:
    """A per-component vector of a variant mapped into the (s1, s2, s3) slots."""
    slots = _SLOTS.get(variant)
    if slots is None:
        raise ValueError(
            f"no mass-triple mapping for variant {variant.value}; "
            "expected one of " + ", ".join(v.value for v in _SLOTS)
        )
    return tuple(0.0 if i is None else float(x[i]) for i in slots)


@dataclass(frozen=True)
class IdentityBalance:
    """The derived Pohozaev identity of a profile at one radius.

    With A, d and D = diag(d) of ``SystemKind.identity``: quadratic =
    sigma^T (D A) sigma, linear = 4 d . sigma, and boundary_defect =
    2 r^2 sum_j d_j e^{u_j}, which measures how far the circle is from
    fast decay.  Exact radial solutions have w = r u' = -A sigma and, at
    every radius,

        balance_residual = quadratic - linear + boundary_defect = 0
        mean_value_gap = flux_quadratic - quadratic = 0

    where flux_quadratic recomputes the quadratic from the stored
    derivatives by the flux form sum_i flux_w_i w_i^2 +
    sum_j flux_sigma_j sigma_j^2.  ``residual`` = quadratic - linear
    vanishes once the circle is in fast decay.

    ``triple`` holds the masses in the (s1, s2, s3) slots.  For su3
    (d = (1, 1, 2)), the limit pair (d = (1, 2)) and Liouville (d = (1))

        residual = (s1-s3)^2 + (s2-s3)^2 - 4 (s1 + s2 + 2 s3)
        boundary_defect = 2 r^2 (e^{u1} + e^{u2} + 2 e^{u3})

    in slots, and flux_quadratic is (r u1')^2 + (r u2')^2 (su3),
    (r u1')^2 + s3^2 (limit pair: empty slot 2 carries the flux s3) or
    (r u1')^2.

    At grid nodes ``mean_value_gap`` is a quadratic function of the linear
    invariant w + A sigma, which every Runge-Kutta step keeps exactly, so
    it reads only the series-head offset of that invariant: like
    ``ode_engine.mean_value_residuals`` it cannot fail from integration
    error.  ``balance_residual`` is the accuracy check.
    """

    variant: Variant
    radius: float
    masses: tuple[float, ...]
    quadratic: float
    linear: float
    boundary_defect: float
    flux_quadratic: float

    residual = property(lambda self: self.quadratic - self.linear)
    balance_residual = property(lambda self: self.residual + self.boundary_defect)
    mean_value_gap = property(lambda self: self.flux_quadratic - self.quadratic)
    triple = property(lambda self: _to_slots(self.variant, self.masses))


def _identity_balance(p: RadialProfile, r: float) -> IdentityBalance:
    """Worker of ``pohozaev_check`` and ``su4_radial_balance``; each calls it
    directly, so a wrapper of one (such as ``bench/spans.py``'s) does not
    count the other's queries."""
    identity = p.system.identity_floats
    if identity is None:
        raise ValueError(f"no Pohozaev identity for {p.system.variant.value}: "
                         "its right-hand side is not exponential-linear")
    # float lists: for n <= 3 plain Python beats numpy's per-call overhead
    _, d, DA, flux_w, flux_sigma = identity
    s = p.mass_at(r).tolist()
    e = np.exp(p.value_at(r)).tolist()
    w = p.log_deriv_at(r).tolist()
    return IdentityBalance(
        variant=p.system.variant,
        radius=float(r),
        masses=tuple(s),
        quadratic=sum(map(mul, s, [sum(map(mul, row, s)) for row in DA])),
        linear=4.0 * sum(map(mul, d, s)),
        boundary_defect=2.0 * r * r * sum(map(mul, d, e)),
        flux_quadratic=sum(map(mul, flux_w, map(mul, w, w)))
        + sum(map(mul, flux_sigma, map(mul, s, s))),
    )


def pohozaev_check(p: RadialProfile, r: float) -> IdentityBalance:
    """The derived Pohozaev identity of p at radius r."""
    return _identity_balance(p, r)


@dataclass(frozen=True)
class Su4Balance:
    """The identity balance of an SU(4) profile (d = (1, 1, 1), D A = A,
    flux form (2/3) sum_i w_i^2) in the symmetric normalisation

        quad_mass = 2 quadratic = (s1-s2)^2 + (s2-s3)^2 + (s3-s1)^2
        mass_sum = linear / 4 = s1 + s2 + s3
        flux_quadratic = sum_i (r u_i')^2
        boundary_defect = r^2 (e^{u1} + e^{u2} + e^{u3}),

    in which exact radial solutions satisfy

        sum_i (r u_i')^2 = (3/4) quad_mass                  (mean value)
        (1/2) sum_i (r u_i')^2 = 3 mass_sum - (3/2) defect  (Pohozaev)

    which force quad_mass = 8 mass_sum - 4 defect, the coefficient 8 of the
    symmetric identity at fast-decay radii.
    """

    balance: IdentityBalance

    def __post_init__(self):
        if self.balance.variant is not Variant.AFFINE_SU4:
            raise ValueError("su4 balance needs an su4 profile")

    radius = property(lambda self: self.balance.radius)
    triple = property(lambda self: self.balance.masses)
    quad_mass = property(lambda self: 2.0 * self.balance.quadratic)
    mass_sum = property(lambda self: self.balance.linear / 4.0)
    flux_quadratic = property(lambda self: 1.5 * self.balance.flux_quadratic)
    boundary_defect = property(lambda self: self.balance.boundary_defect / 2.0)
    mean_value_gap = property(lambda self: self.flux_quadratic - 0.75 * self.quad_mass)
    flux_balance_residual = property(
        lambda self: 0.5 * self.flux_quadratic - 3.0 * self.mass_sum
        + 1.5 * self.boundary_defect)
    # quad_mass - (8 mass_sum - 4 defect); ~0 at every radius
    defect_corrected_residual = property(
        lambda self: self.quad_mass - 8.0 * self.mass_sum + 4.0 * self.boundary_defect)
    # the empirical symmetric-form coefficient
    coefficient_estimate = property(lambda self: self.quad_mass / self.mass_sum)

    def symmetric_form_residual(self, coefficient: float) -> float:
        """quad_mass - coefficient * mass_sum for a candidate coefficient."""
        return self.quad_mass - coefficient * self.mass_sum


def su4_radial_balance(p: RadialProfile, r: float) -> Su4Balance:
    """Measure the SU(4) radial Pohozaev balance pieces at radius r."""
    return Su4Balance(_identity_balance(p, r))


# --------------------------------------------------------------------------
# Bubble masses and spectrum matching
# --------------------------------------------------------------------------


@dataclass
class BubbleReport:
    """Measured local-mass triple of a bubble and its nearest exact member."""

    measured: MassTriple
    nearest: MassTriple
    nearest_index: Optional[ParamIndex]
    distance: float
    pohozaev_residual: float
    delta_ladder: list[tuple[float, tuple[float, float, float]]]
    eps_table: list[tuple[float, tuple[float, float, float]]]
    fast_decay_radius: Optional[float]

    def to_json_dict(self) -> dict:
        return {
            "measured": [self.measured.s1, self.measured.s2, self.measured.s3],
            "nearest": [int(self.nearest.s1), int(self.nearest.s2), int(self.nearest.s3)],
            "nearest_index": (
                None
                if self.nearest_index is None
                else [self.nearest_index.m1, self.nearest_index.m2]
            ),
            "distance": self.distance,
            "pohozaev_residual": self.pohozaev_residual,
            "fast_decay_radius": self.fast_decay_radius,
            "delta_ladder": [
                {"delta": d, "triple": list(t)} for d, t in self.delta_ladder
            ],
            "eps_table": [
                {"eps": e, "triple": list(t)} for e, t in self.eps_table
            ],
        }


def nearest_member(
    spectrum: SpectrumSet, triple: Sequence[float]
) -> tuple[MassTriple, Optional[ParamIndex], float]:
    """Euclidean-nearest spectrum member; lexicographic order breaks ties."""
    if len(spectrum) == 0:
        raise ValueError("spectrum set is empty")
    d = np.linalg.norm(spectrum.points - np.asarray(triple, dtype=float), axis=1)
    # argmin keeps the first minimum, the lexicographically smallest member
    k = int(np.argmin(d))
    return spectrum.members[k], spectrum.indices[k], float(d[k])


# halvings of delta in bubble_masses' headline walk
_MAX_REFINEMENTS = 12


def bubble_masses(
    base: RadialProfile,
    eps_ladder: Sequence[float],
    delta: float,
    spectrum: SpectrumSet,
) -> BubbleReport:
    """Estimate the double-limit local masses of a rescaled bubble family.

    The blow-up family u_k = rescale(base, 1/eps_k) concentrates the base
    at scale eps_k.  Rescaling only reindexes the grid, so sigma(delta; u_k)
    = sigma(delta/eps_k; base), and every mass is read off the base.  The
    table over the ladder shows the inner limit stabilizing; the headline
    value takes the deepest rescale and then walks delta down while the
    evaluation radius stays beyond the base's fast-decay radius.  On the
    README session (the limit-pair search from log 8, ladder 0.1 ... 1e-4,
    delta = 0.1) delta/eps_min = 1000, where the witness is -7.46, lies
    inside that radius, 3758 at DECAY_LEVEL = 10, so ``delta_ladder``
    has one row and the headline is read at delta = 0.1.
    """
    eps = [float(e) for e in eps_ladder]
    if not eps or not all(0 < e < math.inf for e in eps):
        raise ValueError(f"eps ladder must be finite and positive, got {eps}")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("eps ladder must be strictly decreasing")
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be finite and positive, got {delta!r}")
    # every mass is read at some delta/eps_k, the largest at eps_min; each
    # must lie in the base's grid
    radii = [delta / e for e in eps]
    if not base.covers(radii[0], radii[-1]):
        raise ValueError(
            f"delta/eps from {radii[0]:g} to {radii[-1]:g} (delta {delta:g}, "
            f"eps ladder {eps[0]:g} to {eps[-1]:g}) leaves the base profile's "
            f"range [{base.grid[0]:g}, {base.r_end:g}]")

    def slot_masses(r: float) -> tuple[float, float, float]:
        return _to_slots(base.system.variant, base.mass_at(r))

    eps_table = [(e, slot_masses(r)) for e, r in zip(eps, radii)]

    r_fast = final_fast_decay_onset(base)

    # headline estimate: deepest rescale, then walk delta down while the
    # evaluation radius stays beyond the base's terminal fast-decay onset;
    # without such an onset the given delta is the only trusted radius
    e_min = eps[-1]
    delta_ladder = [(float(delta), eps_table[-1][1])]
    d = 0.5 * float(delta)
    for _ in range(_MAX_REFINEMENTS if r_fast is not None else 0):
        # r_fast is a grid node, so this also keeps d / e_min in the grid
        if d / e_min < r_fast:
            break
        delta_ladder.append((d, slot_masses(d / e_min)))
        d *= 0.5

    measured_vals = delta_ladder[-1][1]
    measured = MassTriple(*measured_vals)
    near, near_idx, dist = nearest_member(spectrum, measured_vals)
    return BubbleReport(
        measured=measured,
        nearest=near,
        nearest_index=near_idx,
        distance=dist,
        pohozaev_residual=float(RULES[spectrum.variant].residual(measured)),
        delta_ladder=delta_ladder,
        eps_table=eps_table,
        fast_decay_radius=r_fast,
    )
