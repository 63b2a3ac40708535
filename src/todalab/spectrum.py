"""Exact arithmetic on blow-up local-mass triples.

The admissible triples for the three-component affine system are the
non-negative multiples of 4 on the quadric

    (s1 - s3)^2 + (s2 - s3)^2 = 4 (s1 + s2 + 2 s3),

minus the origin.  The same set is swept by an integer parametrization
(m1, m2).  This module enumerates it both ways, by solving the quadric
for s3 exactly and by sweeping (m1, m2), and checks that the two
productions coincide.  A three-fold symmetric analogue (the SU(4) affine
candidate set) is enumerated by the same quadric solve.

The solve reads a residual's integer coefficients once per s1 row, so it
calls the residual O(bound) times, does O(bound^2) integer operations
(one ``math.isqrt`` per (s1, s2)) and keeps O(members) memory.  It
accepts only residuals that are quadratic in (s2, s3) with integer
coefficients and raises ``ValueError`` on any other.

The arithmetic is exact: inputs may be ints or ``fractions.Fraction``, and
no enumeration, residual or membership test uses floats.  The one float
array is ``SpectrumSet.points``, a copy of the members kept for
nearest-member searches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

Exact = int | Fraction


@dataclass(frozen=True, order=True)
class MassTriple:
    """A triple of local masses (s1, s2, s3).

    Members of the quantization set carry non-negative integers divisible
    by 4.  Measured (floating) triples reuse this container; the exact
    operations below simply propagate whatever number type they are given.
    """

    s1: Exact
    s2: Exact
    s3: Exact

    def as_tuple(self) -> tuple:
        return (self.s1, self.s2, self.s3)

    def swapped(self) -> "MassTriple":
        """Exchange the two symmetric slots."""
        return MassTriple(self.s2, self.s1, self.s3)


@dataclass(frozen=True, order=True)
class ParamIndex:
    """Integer index pair (m1, m2) of the quadric parametrization."""

    m1: int
    m2: int

    def residue_ok(self) -> bool:
        """Both indices in {0,1} mod 4, or both in {2,3} mod 4.

        This is exactly the condition that the third component of the
        generated triple is divisible by 4.
        """
        r1, r2 = self.m1 % 4, self.m2 % 4
        return (r1 in (0, 1) and r2 in (0, 1)) or (r1 in (2, 3) and r2 in (2, 3))


class SpectrumVariant(Enum):
    SU3_AFFINE = "su3"
    SU4_AFFINE = "su4"


@dataclass(frozen=True)
class SpectrumSet:
    """Finite enumeration of admissible triples up to a bound.

    ``members`` are pairwise distinct and sorted lexicographically;
    ``indices`` aligns with ``members`` (``None`` for the SU(4) variant,
    which has no index parametrization here).
    """

    variant: SpectrumVariant
    bound: int
    members: tuple[MassTriple, ...]
    indices: tuple[Optional[ParamIndex], ...]

    def __post_init__(self):
        if len(self.members) != len(self.indices):
            raise ValueError("members and indices must align")

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, t: MassTriple) -> bool:
        return t in self.members

    @cached_property
    def points(self) -> np.ndarray:
        """The members as a read-only (len, 3) float array, built once."""
        pts = np.array([t.as_tuple() for t in self.members], dtype=float)
        pts = pts.reshape(-1, 3)
        pts.setflags(write=False)
        return pts

    def to_lines(self) -> list[str]:
        """Line-oriented text form: ``sigma1 sigma2 sigma3 [m1 m2]``."""
        lines = []
        for t, p in zip(self.members, self.indices):
            cols = [str(t.s1), str(t.s2), str(t.s3)]
            if p is not None:
                cols += [str(p.m1), str(p.m2)]
            lines.append(" ".join(cols))
        return lines

    def to_json_dict(self) -> dict:
        return {
            "variant": self.variant.value,
            "bound": self.bound,
            "members": [
                {
                    "sigma": [int(t.s1), int(t.s2), int(t.s3)],
                    "index": None if p is None else [p.m1, p.m2],
                }
                for t, p in zip(self.members, self.indices)
            ],
        }


def pohozaev_residual_su3(t: MassTriple) -> Exact:
    """Residual of the quadric (s1-s3)^2 + (s2-s3)^2 - 4(s1 + s2 + 2 s3).

    Exact for exact inputs; zero precisely on the quadric.
    """
    return (t.s1 - t.s3) ** 2 + (t.s2 - t.s3) ** 2 - 4 * (t.s1 + t.s2 + 2 * t.s3)


def pohozaev_residual_su4(t: MassTriple) -> Exact:
    """Residual of the symmetric form (s1-s2)^2 + (s2-s3)^2 + (s3-s1)^2 - 12(s1+s2+s3).

    This is the published shape of the SU(4) affine mass constraint and is
    kept here verbatim as the candidate-set filter.  The radial balance
    computed in :mod:`todalab.analysis` measures the coefficient
    independently; see ``su4_radial_balance``.
    """
    q = (t.s1 - t.s2) ** 2 + (t.s2 - t.s3) ** 2 + (t.s3 - t.s1) ** 2
    return q - 12 * (t.s1 + t.s2 + t.s3)


def triple_from_params(p: ParamIndex) -> MassTriple:
    """Triple generated by the index pair.

    s1 = m1(m1+3) + m2(m2-1), s2 = m1(m1-1) + m2(m2+3),
    s3 = m1(m1-1) + m2(m2-1).  No residue condition is imposed here.
    """
    m1, m2 = p.m1, p.m2
    return MassTriple(
        m1 * (m1 + 3) + m2 * (m2 - 1),
        m1 * (m1 - 1) + m2 * (m2 + 3),
        m1 * (m1 - 1) + m2 * (m2 - 1),
    )


def _is_nonneg_multiple_of_4(x: Exact) -> bool:
    if isinstance(x, Fraction):
        if x.denominator != 1:
            return False
        x = x.numerator
    if not isinstance(x, (int, np.integer)):
        return False
    return x >= 0 and x % 4 == 0


def membership_su3(t: MassTriple) -> Optional[ParamIndex]:
    """Index pair of ``t`` when it belongs to the quantization set, else None.

    Membership requires all components to be non-negative integers divisible
    by 4, the quadric residual to vanish, and the triple to differ from the
    origin.  The recovered indices are m1 = (s1-s3)/4, m2 = (s2-s3)/4; the
    remaining conditions (third-component formula and residue condition) are
    verified rather than assumed.
    """
    if not all(_is_nonneg_multiple_of_4(s) for s in t.as_tuple()):
        return None
    s1, s2, s3 = (int(s) for s in t.as_tuple())
    if (s1, s2, s3) == (0, 0, 0):
        return None
    m1, r1 = divmod(s1 - s3, 4)
    m2, r2 = divmod(s2 - s3, 4)
    if r1 or r2:
        return None
    p = ParamIndex(m1, m2)
    if triple_from_params(p) != MassTriple(s1, s2, s3):
        return None
    if not p.residue_ok():
        return None
    return p


def _index_window(bound: int) -> int:
    # s3 >= m(m-1) for each index, so |m| <= 1 + ceil(sqrt(bound)) already
    # suffices; one extra unit of margin lets enumerate_su3 assert that no
    # member touches the window edge.
    return math.isqrt(bound) + 3


_NOT_QUADRATIC = (
    "residual is not a quadratic polynomial in (s2, s3) with integer "
    "coefficients"
)


def _row_coefficients(residual, s1: int, a: int) -> tuple[int, ...]:
    """(b0, b1, c0, c1, c2) of the row ``residual(s1, s2, s3) = a s3^2 +
    (b0 + b1 s2) s3 + c0 + c1 s2 + c2 s2^2``, read from five values and
    checked at a sixth; anything else raises ``ValueError``."""
    def at(s2, s3):
        return residual(MassTriple(s1, s2, s3))
    c0, up, down = at(0, 0), at(1, 0), at(-1, 0)
    c1, odd = divmod(up - down, 2)
    c2 = up - c0 - c1
    b0 = at(0, 1) - a - c0
    b1 = at(1, 1) - a - b0 - up
    s2, s3 = 2, 3  # off the five-point stencil
    fit = a * s3 * s3 + (b0 + b1 * s2) * s3 + c0 + (c1 + c2 * s2) * s2
    if odd or at(s2, s3) != fit:
        raise ValueError(_NOT_QUADRATIC)
    return b0, b1, c0, c1, c2


def _on_quadric(residual, bound: int) -> set[MassTriple]:
    """Multiples of 4 in [0, bound]^3, minus the origin, where ``residual``
    vanishes.

    ``residual`` must be, for each s1, a quadratic polynomial in (s2, s3)
    with integer coefficients and a constant, non-zero s3^2 coefficient a
    (``ValueError`` otherwise).  It is called O(bound) times: three times
    for a, then six times per s1 row for the row's coefficients and their
    check.  Each cell (s1, s2) then costs O(1) integer operations and one
    ``math.isqrt`` of the discriminant: O(bound^2) time, O(members) memory.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    zero = MassTriple(0, 0, 0)
    a, odd = divmod(residual(MassTriple(0, 0, 1)) + residual(MassTriple(0, 0, -1))
                    - 2 * residual(zero), 2)
    if odd:
        raise ValueError(_NOT_QUADRATIC)
    if a == 0:
        raise ValueError("residual has no s3^2 term")
    found = set()
    for s1 in range(0, bound + 1, 4):
        b0, b1, c0, c1, c2 = _row_coefficients(residual, s1, a)
        for s2 in range(0, bound + 1, 4):
            b = b0 + b1 * s2
            disc = b * b - 4 * a * (c0 + (c1 + c2 * s2) * s2)
            if disc < 0:
                continue
            root = math.isqrt(disc)
            if root * root != disc:
                continue
            for num in (-b - root, -b + root):
                if num % (8 * a) == 0 and 0 <= num // (2 * a) <= bound:
                    found.add(MassTriple(s1, s2, num // (2 * a)))
    found.discard(zero)
    return found


def _parametrized_su3(bound: int) -> dict[MassTriple, ParamIndex]:
    window = _index_window(bound)
    found: dict[MassTriple, ParamIndex] = {}
    for m1 in range(-window, window + 1):
        for m2 in range(-window, window + 1):
            p = ParamIndex(m1, m2)
            if not p.residue_ok():
                continue
            t = triple_from_params(p)
            if t == MassTriple(0, 0, 0):
                continue
            if all(0 <= s <= bound for s in t.as_tuple()):
                if max(abs(m1), abs(m2)) >= window - 1:
                    raise AssertionError(
                        "index window too small for bound %d" % bound
                    )
                found[t] = p
    return found


def enumerate_su3(bound: int) -> SpectrumSet:
    """All quantization-set members with max component <= bound.

    The set is produced twice, by solving the quadric for s3 over
    multiples of 4 and by sweeping the (m1, m2) parametrization, and the
    two productions must coincide; a mismatch raises.  Members come out
    sorted lexicographically with their indices attached.
    """
    solved = _on_quadric(pohozaev_residual_su3, bound)
    param = _parametrized_su3(bound)
    if solved != set(param):
        raise RuntimeError(
            "enumeration mismatch: quadric solve and parametrization disagree "
            f"(bound={bound}, only-quadric={sorted(solved - set(param))}, "
            f"only-param={sorted(set(param) - solved)})"
        )
    members = tuple(sorted(solved))
    indices = tuple(param[t] for t in members)
    return SpectrumSet(SpectrumVariant.SU3_AFFINE, bound, members, indices)


def is_candidate_su4(t: MassTriple) -> bool:
    """Candidate-set membership for the SU(4) variant.

    Non-negative multiples of 4, not the origin, with vanishing symmetric
    residual.
    """
    return (
        all(_is_nonneg_multiple_of_4(s) for s in t.as_tuple())
        and tuple(int(s) for s in t.as_tuple()) != (0, 0, 0)
        and pohozaev_residual_su4(t) == 0
    )


def enumerate_su4(bound: int) -> SpectrumSet:
    """Candidate triples for the SU(4) affine system up to a bound.

    Non-negative multiples of 4 (excluding the origin) on which
    :func:`pohozaev_residual_su4` vanishes.  Whether every candidate is an
    attainable local mass is an open matter, hence "candidate".
    """
    members = tuple(sorted(_on_quadric(pohozaev_residual_su4, bound)))
    return SpectrumSet(
        SpectrumVariant.SU4_AFFINE, bound, members, (None,) * len(members)
    )


def sinh_gordon_slice(s: SpectrumSet) -> list[MassTriple]:
    """Members with s1 == s2, the one-component symmetric sub-family."""
    if s.variant is not SpectrumVariant.SU3_AFFINE:
        raise ValueError("sinh-Gordon slice is defined on the su3 spectrum")
    return [t for t in s.members if t.s1 == t.s2]
