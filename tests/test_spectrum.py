"""Exact-arithmetic tests for the mass-triple spectrum module."""

import itertools
import math
import numbers
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from todalab import spectrum
from todalab.spectrum import (
    MassTriple,
    ParamIndex,
    SpectrumSet,
    SpectrumVariant,
    enumerate_su3,
    enumerate_su4,
    is_candidate_su4,
    membership_su3,
    pohozaev_residual_su3,
    pohozaev_residual_su4,
    sinh_gordon_slice,
    triple_from_params,
)


def brute_su3(bound):
    """Independent pure-python sweep used as the enumeration oracle."""
    out = set()
    for n1 in range(bound // 4 + 1):
        for n2 in range(bound // 4 + 1):
            for n3 in range(bound // 4 + 1):
                s1, s2, s3 = 4 * n1, 4 * n2, 4 * n3
                if (s1, s2, s3) == (0, 0, 0):
                    continue
                if (s1 - s3) ** 2 + (s2 - s3) ** 2 == 4 * (s1 + s2 + 2 * s3):
                    out.add((s1, s2, s3))
    return out


def brute_su4(bound):
    out = set()
    for n1 in range(bound // 4 + 1):
        for n2 in range(bound // 4 + 1):
            for n3 in range(bound // 4 + 1):
                s = (4 * n1, 4 * n2, 4 * n3)
                if s == (0, 0, 0):
                    continue
                q = (s[0] - s[1]) ** 2 + (s[1] - s[2]) ** 2 + (s[2] - s[0]) ** 2
                if q == 12 * sum(s):
                    out.add(s)
    return out


class TestResiduals:
    def test_su3_values(self):
        assert pohozaev_residual_su3(MassTriple(0, 0, 4)) == 0
        assert pohozaev_residual_su3(MassTriple(1, 1, 1)) == -16
        assert pohozaev_residual_su3(MassTriple(16, 0, 12)) == 0

    def test_su4_values(self):
        assert pohozaev_residual_su4(MassTriple(0, 0, 0)) == 0
        assert pohozaev_residual_su4(MassTriple(8, 8, 0)) == -64
        assert pohozaev_residual_su4(MassTriple(12, 12, 0)) == 0

    def test_exact_fraction_arithmetic(self):
        t = MassTriple(Fraction(1, 2), Fraction(0), Fraction(0))
        r = pohozaev_residual_su3(t)
        assert isinstance(r, Fraction)
        assert r == Fraction(1, 4) - 2

    def test_swap_symmetry_of_residual(self):
        for t in (MassTriple(4, 0, 0), MassTriple(7, 3, 1), MassTriple(16, 0, 12)):
            assert pohozaev_residual_su3(t) == pohozaev_residual_su3(t.swapped())


class TestParametrization:
    @pytest.mark.parametrize(
        "m1,m2,expected",
        [
            (1, 0, (4, 0, 0)),
            (0, 0, (0, 0, 0)),
            (2, 2, (12, 12, 4)),
            (1, -3, (16, 0, 12)),
            (-1, -1, (0, 0, 4)),
            (-2, -2, (4, 4, 12)),
        ],
    )
    def test_triple_from_params(self, m1, m2, expected):
        assert triple_from_params(ParamIndex(m1, m2)).as_tuple() == expected

    def test_residue_condition(self):
        assert spectrum._residue_ok(1, -3)  # residues 1, 1
        assert spectrum._residue_ok(-1, -1)  # residues 3, 3
        assert spectrum._residue_ok(2, 3)
        assert not spectrum._residue_ok(1, 2)
        assert not spectrum._residue_ok(0, 3)

    def test_valid_indices_generate_members(self):
        # exhaustive over the index window: residue-valid non-negative
        # triples are exactly on the quadric with components in 4Z
        count = 0
        for m1 in range(-50, 51):
            for m2 in range(-50, 51):
                if (m1 % 4 < 2) != (m2 % 4 < 2):
                    continue
                p = ParamIndex(m1, m2)
                t = triple_from_params(p)
                if t.as_tuple() == (0, 0, 0):
                    continue
                if any(s < 0 for s in t.as_tuple()):
                    continue
                count += 1
                assert pohozaev_residual_su3(t) == 0
                assert all(s % 4 == 0 for s in t.as_tuple())
                assert t.s1 - t.s3 == 4 * m1 and t.s2 - t.s3 == 4 * m2
                assert membership_su3(t) == p
        assert count > 1000  # the sweep actually exercised the lattice


class TestMembership:
    def test_examples(self):
        assert membership_su3(MassTriple(4, 4, 12)) == ParamIndex(-2, -2)
        assert membership_su3(MassTriple(4, 4, 4)) is None
        assert membership_su3(MassTriple(0, 0, 4)) == ParamIndex(-1, -1)

    def test_rejects_origin_negatives_and_nonmultiples(self):
        assert membership_su3(MassTriple(0, 0, 0)) is None
        assert membership_su3(MassTriple(-4, 0, 0)) is None
        assert membership_su3(MassTriple(2, 2, 0)) is None
        assert membership_su3(MassTriple(Fraction(1, 2), 0, 0)) is None
        # exact arithmetic only: an integral float is not an exact integer
        assert membership_su3(MassTriple(16.0, 0.0, 12.0)) is None

    def test_accepts_integral_fractions(self):
        assert membership_su3(
            MassTriple(Fraction(16), Fraction(0), Fraction(12))
        ) == ParamIndex(1, -3)

    def test_agrees_with_the_enumeration_on_every_multiple_of_4(self):
        """Over [0, 120]^3 in steps of 4: a member exactly when enumerated,
        with the enumeration's index."""
        sset = enumerate_su3(120)
        index = dict(zip(sset.members, sset.indices))
        for t in itertools.product(range(0, 121, 4), repeat=3):
            t = MassTriple(*t)
            assert membership_su3(t) == index.get(t), t


# ints, numpy ints, bools, integral and non-integral Fractions, floats,
# negatives, non-multiples of 4, zeros and values that are not numbers
GATE_ZOO = [0, 4, 8, 12, 16, 24, 400, -4, 2, 3, np.int64(12), np.int32(0),
            True, False, Fraction(16), Fraction(0), Fraction(12), Fraction(1, 2),
            Fraction(-4), 16.0, 12.0, 0.0, math.nan, np.float64(4.0), "4", None]


def paper_lattice_point(t):
    """The theorem's wording: every sigma_i a non-negative integer divisible
    by 4, and sigma not the origin.  Exact numbers only: a rational with
    denominator 1 is an integer, a float never is."""
    s = t.as_tuple()
    if not all(isinstance(x, numbers.Rational) for x in s):
        return False
    q = [Fraction(x) for x in s]
    return (all(x.denominator == 1 and x >= 0 and x.numerator % 4 == 0 for x in q)
            and q != [0, 0, 0])


class TestLatticeGate:
    """Off the lattice both membership tests refuse; on it the su3 test is
    the quadric residual, with the index pair ((s1-s3)/4, (s2-s3)/4), and
    the su4 test the symmetric residual."""

    @pytest.mark.parametrize("s1", GATE_ZOO, ids=[repr(x) for x in GATE_ZOO])
    def test_both_membership_tests_read_the_lattice_gate(self, s1):
        for s2, s3 in itertools.product(GATE_ZOO, repeat=2):
            t = MassTriple(s1, s2, s3)
            gate = paper_lattice_point(t)
            su3 = gate and pohozaev_residual_su3(t) == 0
            su4 = gate and pohozaev_residual_su4(t) == 0
            index = membership_su3(t)
            assert (index is not None) == su3, t
            assert bool(is_candidate_su4(t)) == su4, t
            if su3:
                assert index == ParamIndex((s1 - s3) // 4, (s2 - s3) // 4), t


class TestRules:
    def test_each_variant_has_its_functions(self):
        assert set(spectrum.RULES) == set(SpectrumVariant)
        su3 = spectrum.RULES[SpectrumVariant.SU3_AFFINE]
        su4 = spectrum.RULES[SpectrumVariant.SU4_AFFINE]
        assert (su3.enumerate, su3.residual) == (enumerate_su3, pohozaev_residual_su3)
        assert (su4.enumerate, su4.residual) == (enumerate_su4, pohozaev_residual_su4)

    @pytest.mark.parametrize("variant,triple,want", [
        (SpectrumVariant.SU3_AFFINE, (4, 4, 12), (True, ParamIndex(-2, -2))),
        (SpectrumVariant.SU3_AFFINE, (4, 4, 4), (False, None)),
        (SpectrumVariant.SU4_AFFINE, (12, 12, 0), (True, None)),
        (SpectrumVariant.SU4_AFFINE, (4, 4, 4), (False, None)),
    ])
    def test_membership_gives_member_and_index(self, variant, triple, want):
        assert spectrum.RULES[variant].membership(MassTriple(*triple)) == want


class TestEnumerationSu3:
    def test_bound_4_contents(self):
        s = enumerate_su3(4)
        got = {t.as_tuple() for t in s.members}
        assert got == {(0, 0, 4), (0, 4, 0), (4, 0, 0), (4, 4, 0)}

    def test_bound_0_empty(self):
        assert len(enumerate_su3(0)) == 0

    def test_bound_16_members(self):
        got = {t.as_tuple() for t in enumerate_su3(16).members}
        assert (16, 0, 12) in got and (12, 12, 4) in got

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            enumerate_su3(-1)

    @pytest.mark.parametrize("bound", range(65))
    def test_against_pure_python_oracle(self, bound):
        got = {t.as_tuple() for t in enumerate_su3(bound).members}
        assert got == brute_su3(bound)

    def test_sorted_distinct_and_integer(self, spectrum_400):
        members = spectrum_400.members
        assert list(members) == sorted(set(members))
        for t in members:
            assert all(isinstance(s, int) for s in t.as_tuple())

    def test_indices_annotated_and_consistent(self, spectrum_400):
        for t, p in zip(spectrum_400.members, spectrum_400.indices):
            assert p is not None
            assert triple_from_params(p) == t
            assert pohozaev_residual_su3(t) == 0

    def test_swap_symmetry_of_set(self):
        s = enumerate_su3(100)
        got = {t.as_tuple() for t in s.members}
        index_of = {t: p for t, p in zip(s.members, s.indices)}
        for t in s.members:
            assert t.swapped().as_tuple() in got
            assert index_of[t.swapped()] == ParamIndex(
                index_of[t].m2, index_of[t].m1
            )

    def test_text_lines_format(self):
        s = enumerate_su3(4)
        lines = s.to_lines()
        assert lines[0].split() == ["0", "0", "4", "-1", "-1"]
        assert all(len(line.split()) == 5 for line in lines)


class TestEquivalenceLemma:
    """The multiples of 4 on the su3 quadric, minus the origin, are the
    theorem's sigma(m1, m2) over residue-valid index pairs at every bound;
    ``todalab spectrum equiv`` compares the two productions at one bound."""

    def test_quadric_in_index_coordinates(self):
        # with s1 = s3 + 4 m1 and s2 = s3 + 4 m2 the quadric reads
        # s3 = m1(m1-1) + m2(m2-1); both sides have degree <= 2 in each of
        # m1, m2 and s3, so agreeing on a 3x3x3 grid makes them equal
        for m1, m2, s3 in itertools.product(range(3), repeat=3):
            t = MassTriple(s3 + 4 * m1, s3 + 4 * m2, s3)
            assert pohozaev_residual_su3(t) == -16 * (
                s3 - m1 * (m1 - 1) - m2 * (m2 - 1))

    def test_residue_rule_is_s3_divisible_by_4(self):
        # m(m-1) mod 4 depends on m mod 4 only, and is 0, 0, 2, 2
        for m in range(-8, 8):
            assert m * (m - 1) % 4 == (0, 0, 2, 2)[m % 4]
        for m1, m2 in itertools.product(range(4), repeat=2):
            s3 = m1 * (m1 - 1) + m2 * (m2 - 1)
            assert (s3 % 4 == 0) == spectrum._residue_ok(m1, m2)

    def test_membership_inverts_the_map(self):
        for m1, m2 in itertools.product(range(-12, 13), repeat=2):
            p = ParamIndex(m1, m2)
            t = triple_from_params(p)
            member = ((m1 % 4 < 2) == (m2 % 4 < 2) and t.as_tuple() != (0, 0, 0)
                      and min(t.as_tuple()) >= 0)
            assert membership_su3(t) == (p if member else None)

    @pytest.mark.parametrize("residual,c,k", [
        (pohozaev_residual_su3, 4, 1), (pohozaev_residual_su4, 6, 3)],
        ids=["su3", "su4"])
    def test_residual_completes_to_the_closed_form(self, residual, c, k):
        # twice each residual is (2 s3 - s1 - s2 - c)^2 - D with
        # D = c^2 (s1 + s2 + 1) - k (s1 - s2)^2; both sides have degree <= 2
        # in each of s1, s2 and s3, so agreeing on a 3x3x3 grid makes them equal
        for s1, s2, s3 in itertools.product(range(3), repeat=3):
            assert 2 * residual(MassTriple(s1, s2, s3)) == (
                (2 * s3 - s1 - s2 - c) ** 2 - c * c * (s1 + s2 + 1)
                + k * (s1 - s2) ** 2)

    @pytest.mark.parametrize("bound", [0, 4, 400, 1000, 1003])
    def test_productions_agree(self, bound):
        assert set(enumerate_su3(bound).members) == spectrum._on_quadric(4, 1, bound)

    def test_enumeration_does_not_solve_the_quadric(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("enumerate_su3 solved the quadric")

        monkeypatch.setattr(spectrum, "_on_quadric", refuse)
        assert len(enumerate_su3(400)) == 566


class TestEnumerationSu4:
    def test_bound_8_empty(self):
        assert len(enumerate_su4(8)) == 0

    def test_bound_12_permutations(self):
        got = {t.as_tuple() for t in enumerate_su4(12).members}
        assert got == {(12, 12, 0), (12, 0, 12), (0, 12, 12)}

    def test_bound_0_empty(self):
        assert len(enumerate_su4(0)) == 0

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            enumerate_su4(-3)

    @pytest.mark.parametrize("bound", range(65))
    def test_against_pure_python_oracle(self, bound):
        got = {t.as_tuple() for t in enumerate_su4(bound).members}
        assert got == brute_su4(bound)

    def test_members_have_no_indices(self):
        s = enumerate_su4(24)
        assert all(p is None for p in s.indices)

    def test_candidate_predicate(self):
        assert is_candidate_su4(MassTriple(12, 12, 0))
        assert not is_candidate_su4(MassTriple(0, 0, 0))
        assert not is_candidate_su4(MassTriple(8, 8, 0))
        assert not is_candidate_su4(MassTriple(6, 6, 0))
        assert not is_candidate_su4(MassTriple(12.0, 12.0, 0.0))
        for t in enumerate_su4(60).members:
            assert is_candidate_su4(t)


class TestEnumerationCost:
    @pytest.mark.parametrize("enumerate_fn", [enumerate_su3, enumerate_su4])
    def test_peak_memory_tracks_the_answer(self, enumerate_fn):
        # a (bound/4 + 1)^3 grid at bound 600 would peak above 100 MB
        tracemalloc.start()
        try:
            enumerate_fn(600)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5e6


def per_cell_on_quadric(residual, bound):
    """The earlier per-cell solver, three residual calls per (s1, s2): the
    oracle for the closed-form solve."""
    found = set()
    for s1 in range(0, bound + 1, 4):
        def at(s2, s3):
            return residual(MassTriple(s1, s2, s3))
        a = (at(0, 1) + at(0, -1)) // 2 - at(0, 0)
        for s2 in range(0, bound + 1, 4):
            c = at(s2, 0)
            b = at(s2, 1) - a - c
            disc = b * b - 4 * a * c
            root = math.isqrt(max(disc, 0))
            if root * root != disc:
                continue
            for num in (-b - root, -b + root):
                if num % (8 * a) == 0 and 0 <= num // (2 * a) <= bound:
                    found.add(MassTriple(s1, s2, num // (2 * a)))
    found.discard(MassTriple(0, 0, 0))
    return found


class TestQuadricSolver:
    # the small bounds reach the dropped origin (0) and the bounds that are
    # not multiples of 4 (3, 63), where the s3 range check decides
    @pytest.mark.parametrize("bound", [0, 3, 4, 12, 63, 400, 1000, 1003])
    @pytest.mark.parametrize("residual,c,k", [
        (pohozaev_residual_su3, 4, 1), (pohozaev_residual_su4, 6, 3)],
        ids=["su3", "su4"])
    def test_matches_per_cell_solve(self, residual, c, k, bound):
        got = spectrum._on_quadric(c, k, bound)
        assert got == per_cell_on_quadric(residual, bound)

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError, match="bound must be non-negative"):
            spectrum._on_quadric(4, 1, -4)

    def test_member_counts_at_1000(self):
        assert len(enumerate_su3(1000)) == 1474
        assert len(enumerate_su4(1000)) == 426


class TestSpectrumSet:
    def test_refuses_misaligned_indices(self):
        with pytest.raises(ValueError, match="^members and indices must align$"):
            SpectrumSet(SpectrumVariant.SU3_AFFINE, 4, (MassTriple(0, 0, 4),), ())


class TestPoints:
    def test_float_copy_built_once(self):
        s = enumerate_su3(40)
        pts = s.points
        assert pts is s.points and not pts.flags.writeable
        assert pts.tolist() == [list(map(float, t.as_tuple())) for t in s.members]

    def test_empty_set(self):
        assert enumerate_su3(0).points.shape == (0, 3)

    def test_not_a_field(self):
        s = enumerate_su3(40)
        s.points
        assert s == enumerate_su3(40)


class TestSinhGordonSlice:
    def test_bound_4(self):
        sl = sinh_gordon_slice(enumerate_su3(4))
        assert MassTriple(4, 4, 0) in sl

    def test_bound_12(self):
        sl = sinh_gordon_slice(enumerate_su3(12))
        assert MassTriple(4, 4, 12) in sl

    def test_empty_set(self):
        assert sinh_gordon_slice(enumerate_su3(0)) == []

    def test_all_entries_symmetric(self):
        for t in sinh_gordon_slice(enumerate_su3(200)):
            assert t.s1 == t.s2

    def test_rejects_su4_input(self):
        with pytest.raises(ValueError):
            sinh_gordon_slice(enumerate_su4(12))
