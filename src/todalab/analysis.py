"""Verifiers connecting numerical profiles to the quantized mass triples.

The mass-form Pohozaev residual, its exact finite-radius correction (the
boundary defect), fast/slow decay classification, annulus scans, and the
double-limit bubble-mass extraction with nearest-member matching.

Profiles map onto mass triples by variant: the three-component system
fills all slots, the two-component limit system fills slots (1, 3) with
slot 2 empty, and scalar profiles fill slot 1 only.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .ode_engine import RadialProfile, rescale
from .spectrum import (
    MassTriple,
    ParamIndex,
    SpectrumSet,
    SpectrumVariant,
    pohozaev_residual_su3,
    pohozaev_residual_su4,
)
from .systems import Variant


class DecayKind(Enum):
    FAST = "fast"
    SLOW = "slow"


@dataclass(frozen=True)
class DecayVerdict:
    """Fast/slow verdict with its witness sup(u + 2 log r) and threshold."""

    kind: DecayKind
    witness: float
    threshold: float

    def __post_init__(self):
        expected = DecayKind.FAST if self.witness <= -self.threshold else DecayKind.SLOW
        if self.kind is not expected:
            raise ValueError("verdict kind inconsistent with witness/threshold")


def decay_classify(
    p: RadialProfile,
    r: float,
    threshold: float = 10.0,
    components: Optional[Sequence[int]] = None,
) -> DecayVerdict:
    """Classify the circle of radius r: fast iff max_i(u_i + 2 log r) <= -threshold."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    wit = p.witness_at(r)
    if components is not None:
        wit = wit[list(components)]
    witness = float(np.max(wit))
    kind = DecayKind.FAST if witness <= -threshold else DecayKind.SLOW
    return DecayVerdict(kind, witness, threshold)


def fast_decay_radius_scan(
    p: RadialProfile,
    component: int,
    interval: tuple[float, float],
    threshold: float,
) -> Optional[float]:
    """Smallest grid radius in [a, b] where u + 2 log r drops to -threshold.

    Returns None when the component never reaches fast decay on the
    interval; in that case its annulus mass (see :func:`annulus_mass`)
    grows like log(b/a) and is the quantity to inspect.
    """
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise ValueError("need a < b")
    slop = 1e-12
    if a < p.grid[0] * (1 - slop) or b > p.grid[-1] * (1 + slop):
        raise ValueError(
            f"interval [{a:g}, {b:g}] not contained in the profile grid "
            f"[{p.grid[0]:g}, {p.grid[-1]:g}]"
        )
    mask = (p.grid >= a) & (p.grid <= b)
    radii = p.grid[mask]
    wit = p.values[mask, component] + 2.0 * np.log(radii)
    hits = np.nonzero(wit <= -threshold)[0]
    if hits.size == 0:
        return None
    return float(radii[hits[0]])


def annulus_mass(p: RadialProfile, component: int, a: float, b: float) -> float:
    """Mass of one component over the annulus a < |x| < b."""
    return float(p.mass_at(b)[component] - p.mass_at(a)[component])


def final_fast_decay_onset(p: RadialProfile, threshold: float) -> Optional[float]:
    """Start of the terminal annulus where every component is fast-decaying.

    Scanning inward from the outer edge, the smallest grid radius such
    that max_i(u_i + 2 log r) <= -threshold from there outward.  None when
    the profile does not end in fast decay.
    """
    wit = np.max(p.values + 2.0 * np.log(p.grid)[:, None], axis=1)
    fast = wit <= -threshold
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
    Variant.LIMIT_PAIR: (0, None, 1),
    Variant.LIOUVILLE: (0, None, None),
}


def _to_slots(p: RadialProfile, x: np.ndarray) -> np.ndarray:
    """A per-component vector of the profile mapped into the (s1, s2, s3) slots."""
    slots = _SLOTS.get(p.system.variant)
    if slots is None:
        raise ValueError(
            f"no mass-triple mapping for variant {p.system.variant.value}; "
            "expected one of " + ", ".join(v.value for v in _SLOTS)
        )
    return np.array([0.0 if i is None else x[i] for i in slots])


@dataclass(frozen=True)
class PohozaevCheck:
    """Mass-form residual at a radius together with its exact correction.

    For exact radial solutions the balance

        residual + boundary_defect = 0

    holds at every radius, with boundary_defect =
    2 r^2 (e^{u1} + e^{u2} + 2 e^{u3}); the defect measures how far the
    circle is from fast decay.  ``flux_quadratic`` is the same quadratic
    recomputed from the stored derivatives, r^2 ((u1')^2 + (u2')^2), an
    independent route through the divergence-theorem identities.
    """

    radius: float
    triple: tuple[float, float, float]
    residual: float
    boundary_defect: float
    flux_quadratic: float

    @property
    def mean_value_gap(self) -> float:
        """flux_quadratic minus the mass-side quadratic; ~0 for consistent runs."""
        s1, s2, s3 = self.triple
        return self.flux_quadratic - ((s1 - s3) ** 2 + (s2 - s3) ** 2)

    @property
    def balance_residual(self) -> float:
        """residual + boundary_defect; ~0 at every radius for exact solutions."""
        return self.residual + self.boundary_defect


def pohozaev_check(p: RadialProfile, r: float) -> PohozaevCheck:
    """Full Pohozaev bookkeeping at radius r (three-component mapping)."""
    s = _to_slots(p, p.mass_at(r))
    ex = _to_slots(p, np.exp(p.value_at(r)))
    residual = float(
        (s[0] - s[2]) ** 2 + (s[1] - s[2]) ** 2 - 4 * (s[0] + s[1] + 2 * s[2])
    )
    defect = float(2.0 * r * r * (ex[0] + ex[1] + 2.0 * ex[2]))

    w = p.log_deriv_at(r)
    v = p.system.variant
    if v is Variant.AFFINE_SU3:
        flux = float(w[0] ** 2 + w[1] ** 2)
    elif v is Variant.LIMIT_PAIR:
        # ghost slot 2 carries flux sigma_3(r)
        flux = float(w[0] ** 2 + s[2] ** 2)
    else:
        flux = float(w[0] ** 2)
    return PohozaevCheck(
        radius=float(r),
        triple=(float(s[0]), float(s[1]), float(s[2])),
        residual=residual,
        boundary_defect=defect,
        flux_quadratic=flux,
    )


@dataclass(frozen=True)
class Su4Balance:
    """Measured pieces of the radial Pohozaev balance for the SU(4) system.

    Derived from the divergence theorem plus the constraint u1+u2+u3 = 0,
    exact radial solutions satisfy

        sum_i (r u_i')^2 = (3/4) quad_mass                  (mean value)
        (1/2) sum_i (r u_i')^2 = 3 mass_sum - (3/2) defect  (Pohozaev)

    with quad_mass = (s1-s2)^2 + (s2-s3)^2 + (s3-s1)^2,
    mass_sum = s1+s2+s3 and defect = r^2 (e^{u1}+e^{u2}+e^{u3}).  Together
    these force quad_mass = 8 mass_sum - 4 defect, which pins the
    coefficient of the symmetric identity at fast-decay radii.
    """

    radius: float
    triple: tuple[float, float, float]
    quad_mass: float
    mass_sum: float
    flux_quadratic: float
    boundary_defect: float

    @property
    def mean_value_gap(self) -> float:
        return self.flux_quadratic - 0.75 * self.quad_mass

    @property
    def flux_balance_residual(self) -> float:
        return (
            0.5 * self.flux_quadratic
            - 3.0 * self.mass_sum
            + 1.5 * self.boundary_defect
        )

    @property
    def defect_corrected_residual(self) -> float:
        """quad_mass - (8 mass_sum - 4 defect); ~0 at every radius."""
        return self.quad_mass - 8.0 * self.mass_sum + 4.0 * self.boundary_defect

    def symmetric_form_residual(self, coefficient: float) -> float:
        """quad_mass - coefficient * mass_sum for a candidate coefficient."""
        return self.quad_mass - coefficient * self.mass_sum

    @property
    def coefficient_estimate(self) -> float:
        """quad_mass / mass_sum; the empirical symmetric-form coefficient."""
        return self.quad_mass / self.mass_sum


def su4_radial_balance(p: RadialProfile, r: float) -> Su4Balance:
    """Measure the SU(4) radial Pohozaev balance pieces at radius r."""
    if p.system.variant is not Variant.AFFINE_SU4:
        raise ValueError("su4 balance needs an su4 profile")
    m = p.mass_at(r)
    u = p.value_at(r)
    w = p.log_deriv_at(r)
    quad = float(
        (m[0] - m[1]) ** 2 + (m[1] - m[2]) ** 2 + (m[2] - m[0]) ** 2
    )
    return Su4Balance(
        radius=float(r),
        triple=(float(m[0]), float(m[1]), float(m[2])),
        quad_mass=quad,
        mass_sum=float(np.sum(m)),
        flux_quadratic=float(np.sum(w**2)),
        boundary_defect=float(r * r * np.sum(np.exp(u))),
    )


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
    pts = np.array([t.as_tuple() for t in spectrum.members], dtype=float)
    d = np.linalg.norm(pts - np.asarray(triple, dtype=float), axis=1)
    # argmin keeps the first minimum, the lexicographically smallest member
    k = int(np.argmin(d))
    return spectrum.members[k], spectrum.indices[k], float(d[k])


def _spectrum_residual(spectrum: SpectrumSet, triple: Sequence[float]) -> float:
    t = MassTriple(*[float(x) for x in triple])
    if spectrum.variant is SpectrumVariant.SU3_AFFINE:
        return float(pohozaev_residual_su3(t))
    return float(pohozaev_residual_su4(t))


def bubble_masses(
    base: RadialProfile,
    eps_ladder: Sequence[float],
    delta: float,
    spectrum: SpectrumSet,
    *,
    decay_threshold: float = 10.0,
    max_refinements: int = 12,
) -> BubbleReport:
    """Estimate the double-limit local masses of a rescaled bubble family.

    The blow-up family u_k concentrates the base at scale eps_k (through
    :func:`rescale`, whose mass law gives sigma(delta; u_k) =
    sigma(delta/eps_k; base)).  The table over the ladder shows the inner
    limit stabilizing; the headline value takes the deepest rescale and
    then walks delta down while the evaluation radius stays beyond the
    base's fast-decay radius.
    """
    eps = [float(e) for e in eps_ladder]
    if not eps or any(e <= 0 for e in eps):
        raise ValueError("eps ladder must be positive")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("eps ladder must be strictly decreasing")
    if delta <= 0:
        raise ValueError("delta must be positive")

    eps_table = []
    for e in eps:
        zoomed = rescale(base, 1.0 / e)
        tri = _to_slots(zoomed, zoomed.mass_at(delta))
        eps_table.append((e, tuple(float(x) for x in tri)))

    r_fast = final_fast_decay_onset(base, decay_threshold)

    # headline estimate: deepest rescale, then walk delta down while the
    # evaluation radius stays beyond the base's terminal fast-decay onset;
    # without such an onset the given delta is the only trusted radius
    e_min = eps[-1]
    zoomed = rescale(base, 1.0 / e_min)
    delta_ladder = [(float(delta), eps_table[-1][1])]
    d = 0.5 * float(delta)
    for _ in range(max_refinements if r_fast is not None else 0):
        if d / e_min <= float(base.grid[0]) * (1 + 1e-9):
            break
        if d / e_min < r_fast:
            break
        tri = _to_slots(zoomed, zoomed.mass_at(d))
        delta_ladder.append((d, tuple(float(x) for x in tri)))
        d *= 0.5

    measured_vals = delta_ladder[-1][1]
    measured = MassTriple(*measured_vals)
    near, near_idx, dist = nearest_member(spectrum, measured_vals)
    return BubbleReport(
        measured=measured,
        nearest=near,
        nearest_index=near_idx,
        distance=dist,
        pohozaev_residual=_spectrum_residual(spectrum, measured_vals),
        delta_ladder=delta_ladder,
        eps_table=eps_table,
        fast_decay_radius=r_fast,
    )
