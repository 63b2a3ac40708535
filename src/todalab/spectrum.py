"""Exact arithmetic on blow-up local-mass triples.

The admissible triples for the three-component affine system are the
theorem's sigma(m1, m2) over index pairs with m1, m2 both 0 or 1 or both
2 or 3 mod 4 (``_residue_ok``), minus the origin: exactly the
non-negative multiples of 4 on the quadric

    (s1 - s3)^2 + (s2 - s3)^2 = 4 (s1 + s2 + 2 s3).

Both membership tests read one gate, ``_lattice_point``: every
admissible triple is a non-negative multiple of 4 other than the origin.

``enumerate_su3`` sweeps (m1, m2).  Both residuals, doubled, complete to
one square in s3,

    (2 s3 - s1 - s2 - c)^2 - c^2 (s1 + s2 + 1) + k (s1 - s2)^2,

with (c, k) = (4, 1) for su3 and (6, 3) for the three-fold symmetric
analogue (the SU(4) affine candidate set).  The quadric solve below
takes s3 from this closed form: it enumerates the SU(4) set, and
``todalab spectrum equiv`` runs it on the su3 quadric to compare it
with the sweep.  ``RULES`` maps each ``SpectrumVariant`` to its
enumerator, residual and membership test.

The arithmetic is exact: inputs may be ints or ``fractions.Fraction``, and
no enumeration, residual or membership test uses floats.  The one float
array is ``SpectrumSet.points``, a copy of the members kept for
nearest-member searches; it is the one use of numpy here, which is
loaded on the first ``points`` access, so enumerating and checking
triples never loads it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, Optional

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
    """Index pair (m1, m2) of the quadric parametrization; see ``_residue_ok``."""

    m1: int
    m2: int


def _residue_ok(m1: int, m2: int) -> bool:
    """Both indices in {0,1} mod 4, or both in {2,3} mod 4.

    This is exactly the condition that the third component of the
    generated triple is divisible by 4.
    """
    return (m1 % 4 < 2) == (m2 % 4 < 2)


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

    @cached_property
    def points(self):
        """The members as a read-only (len, 3) float numpy array, built once."""
        import numpy as np

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
    return MassTriple(*_sigma(p.m1, p.m2))


def _sigma(m1: int, m2: int) -> tuple[int, int, int]:
    return (
        m1 * (m1 + 3) + m2 * (m2 - 1),
        m1 * (m1 - 1) + m2 * (m2 + 3),
        m1 * (m1 - 1) + m2 * (m2 - 1),
    )


def _lattice_point(t: MassTriple) -> Optional[tuple[int, int, int]]:
    """``t`` as ints when it is a lattice point, else None: every component
    an int or an integral Fraction (never a float) that is a non-negative
    multiple of 4, and not the origin."""
    s = tuple(x.numerator if isinstance(x, Fraction) and x.denominator == 1 else x
              for x in t.as_tuple())
    if all(isinstance(x, numbers.Integral) and x >= 0 and x % 4 == 0
           for x in s) and any(s):
        return tuple(int(x) for x in s)
    return None


def membership_su3(t: MassTriple) -> Optional[ParamIndex]:
    """Index pair of ``t`` when it belongs to the quantization set, else None.

    ``t`` must be a lattice point (``_lattice_point``) that its recovered
    indices m1 = (s1-s3)/4, m2 = (s2-s3)/4 give back as sigma(m1, m2), so
    it lies on the quadric; s3 = m1(m1-1) + m2(m2-1) is then divisible by
    4, which holds exactly when the residue condition does.
    """
    s = _lattice_point(t)
    if s is None:
        return None
    m1, m2 = (s[0] - s[2]) // 4, (s[1] - s[2]) // 4
    return ParamIndex(m1, m2) if _sigma(m1, m2) == s else None


def _on_quadric(c: int, k: int, bound: int) -> set[MassTriple]:
    """Multiples of 4 in [0, bound]^3, minus the origin, on the quadric

        (2 s3 - s1 - s2 - c)^2 = D,   D = c^2 (s1 + s2 + 1) - k (s1 - s2)^2,

    which is twice the su3 residual for (c, k) = (4, 1) and twice the su4
    residual for (6, 3).  Each cell (s1, s2) keeps
    s3 = (s1 + s2 + c +- sqrt D) / 2 when it is a multiple of 4 in
    [0, bound]: one ``math.isqrt`` per cell, O(bound^2) time, O(members)
    memory.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    found = set()
    for s1 in range(0, bound + 1, 4):
        for s2 in range(0, bound + 1, 4):
            disc = c * c * (s1 + s2 + 1) - k * (s1 - s2) ** 2
            if disc < 0:
                continue
            root = math.isqrt(disc)
            if root * root != disc:
                continue
            for num in (s1 + s2 + c - root, s1 + s2 + c + root):
                if num % 8 == 0 and 0 <= num <= 2 * bound:
                    found.add(MassTriple(s1, s2, num // 2))
    found.discard(MassTriple(0, 0, 0))
    return found


def enumerate_su3(bound: int) -> SpectrumSet:
    """All quantization-set members with max component <= bound.

    Sweeps the residue-valid index pairs (m1, m2) and keeps the non-zero
    triples in [0, bound]^3, sorted lexicographically with their indices.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    # s3 >= m(m-1) for each index, so |m| <= 1 + ceil(sqrt(bound)) already
    # suffices; one extra unit of margin lets the sweep assert that no member
    # touches the window edge.  The residue and range tests run on plain
    # ints; objects are built for members only.
    window = math.isqrt(bound) + 3
    rows = []
    for m1 in range(-window, window + 1):
        for m2 in range(-window, window + 1):
            if not _residue_ok(m1, m2):
                continue
            t = _sigma(m1, m2)
            if t == (0, 0, 0) or min(t) < 0 or max(t) > bound:
                continue
            if max(abs(m1), abs(m2)) >= window - 1:
                raise AssertionError("index window too small for bound %d" % bound)
            rows.append((t, ParamIndex(m1, m2)))
    # sigma is injective, so the sort never compares two indices
    rows.sort()
    return SpectrumSet(SpectrumVariant.SU3_AFFINE, bound,
                       tuple(MassTriple(*t) for t, _ in rows),
                       tuple(p for _, p in rows))


def is_candidate_su4(t: MassTriple) -> bool:
    """Candidate-set membership for the SU(4) variant: a lattice point
    (``_lattice_point``) with vanishing symmetric residual."""
    return _lattice_point(t) is not None and pohozaev_residual_su4(t) == 0


def enumerate_su4(bound: int) -> SpectrumSet:
    """Candidate triples for the SU(4) affine system up to a bound.

    Non-negative multiples of 4 (excluding the origin) on which
    :func:`pohozaev_residual_su4` vanishes, with s3 solved in closed form
    ((c, k) = (6, 3) in ``_on_quadric``).  Whether every candidate is an
    attainable local mass is an open matter, hence "candidate".
    """
    members = tuple(sorted(_on_quadric(6, 3, bound)))
    return SpectrumSet(
        SpectrumVariant.SU4_AFFINE, bound, members, (None,) * len(members)
    )


def sinh_gordon_slice(s: SpectrumSet) -> list[MassTriple]:
    """Members with s1 == s2, the one-component symmetric sub-family."""
    if s.variant is not SpectrumVariant.SU3_AFFINE:
        raise ValueError("sinh-Gordon slice is defined on the su3 spectrum")
    return [t for t in s.members if t.s1 == t.s2]


class SpectrumRules(NamedTuple):
    """A spectrum variant's enumerator, Pohozaev residual and membership
    test; ``membership(t)`` is (member, index pair or None)."""

    enumerate: Callable[[int], SpectrumSet]
    residual: Callable[[MassTriple], Exact]
    membership: Callable[[MassTriple], tuple[bool, Optional[ParamIndex]]]


def _membership_su3(t: MassTriple) -> tuple[bool, Optional[ParamIndex]]:
    index = membership_su3(t)
    return index is not None, index


RULES = {
    SpectrumVariant.SU3_AFFINE: SpectrumRules(
        enumerate_su3, pohozaev_residual_su3, _membership_su3),
    SpectrumVariant.SU4_AFFINE: SpectrumRules(
        enumerate_su4, pohozaev_residual_su4, lambda t: (is_candidate_su4(t), None)),
}
