"""Exact-arithmetic tests for the mass-triple spectrum module."""

import math
import tracemalloc
from fractions import Fraction

import pytest

from todalab import spectrum
from todalab.spectrum import (
    MassTriple,
    ParamIndex,
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
        assert ParamIndex(1, -3).residue_ok()  # residues 1, 1
        assert ParamIndex(-1, -1).residue_ok()  # residues 3, 3
        assert ParamIndex(2, 3).residue_ok()
        assert not ParamIndex(1, 2).residue_ok()
        assert not ParamIndex(0, 3).residue_ok()

    def test_valid_indices_generate_members(self):
        # exhaustive over the index window: residue-valid non-negative
        # triples are exactly on the quadric with components in 4Z
        count = 0
        for m1 in range(-50, 51):
            for m2 in range(-50, 51):
                p = ParamIndex(m1, m2)
                if not p.residue_ok():
                    continue
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

    def test_accepts_integral_fractions(self):
        assert membership_su3(
            MassTriple(Fraction(16), Fraction(0), Fraction(12))
        ) == ParamIndex(1, -3)


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

    @pytest.mark.parametrize(
        "production,patched",
        [
            ("_on_quadric", lambda found: found - {MassTriple(16, 0, 12)}),
            ("_parametrized_su3", lambda found: {**found, MassTriple(4, 4, 4): None}),
        ],
    )
    def test_disagreeing_productions_raise(self, monkeypatch, production, patched):
        original = getattr(spectrum, production)
        monkeypatch.setattr(
            spectrum, production, lambda *args: patched(original(*args))
        )
        with pytest.raises(RuntimeError, match="enumeration mismatch"):
            enumerate_su3(40)


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
    oracle for the row-coefficient solve."""
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
    @pytest.mark.parametrize("bound", [400, 1000, 1003])
    @pytest.mark.parametrize(
        "residual", [pohozaev_residual_su3, pohozaev_residual_su4])
    def test_matches_per_cell_solve(self, residual, bound):
        got = spectrum._on_quadric(residual, bound)
        assert got == per_cell_on_quadric(residual, bound)

    def test_member_counts_at_1000(self):
        assert len(enumerate_su3(1000)) == 1474
        assert len(enumerate_su4(1000)) == 426

    def test_residual_calls_linear_in_bound(self, monkeypatch):
        calls = 0

        def counted(t):
            nonlocal calls
            calls += 1
            return pohozaev_residual_su3(t)

        monkeypatch.setattr(spectrum, "pohozaev_residual_su3", counted)
        bound = 1000
        assert len(enumerate_su3(bound)) == 1474
        # the per-cell solve made 126,755 calls at this bound
        assert 0 < calls <= 7 * (bound // 4 + 1) + 3

    @pytest.mark.parametrize(
        "extra",
        [
            lambda t: t.s3 ** 3,
            lambda t: t.s3 ** 3 - t.s3,  # vanishes where a is read
            lambda t: t.s2 ** 3,
            lambda t: t.s2 * t.s3 * t.s3,
            lambda t: t.s1 * t.s3 * t.s3,
            lambda t: t.s2 * (t.s2 - 1) // 2,  # integer-valued, half coefficients
            lambda t: Fraction(t.s2, 2),
        ],
        ids=["s3^3", "s3^3-s3", "s2^3", "s2*s3^2", "s1*s3^2", "half_binomial",
             "fraction_valued"],
    )
    def test_non_quadratic_residual_rejected(self, extra):
        def residual(t):
            return pohozaev_residual_su3(t) + extra(t)

        with pytest.raises(ValueError, match="not a quadratic polynomial"):
            spectrum._on_quadric(residual, 40)

    def test_residual_without_s3_squared_rejected(self):
        with pytest.raises(ValueError, match="no s3\\^2 term"):
            spectrum._on_quadric(lambda t: t.s1 + t.s2 - t.s3, 40)


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
