"""Decay classification, Pohozaev residuals, and bubble-mass reports."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from todalab.analysis import (
    DecayKind,
    DecayVerdict,
    IdentityBalance,
    bubble_masses,
    decay_classify,
    fast_decay_radius_scan,
    final_fast_decay_onset,
    nearest_member,
    pohozaev_check,
    su4_radial_balance,
)
from todalab.closed_forms import BubbleSpec, bubble_mass, liouville_bubble
from todalab.ode_engine import DECAY_LEVEL, ShootSpec, shoot
from todalab.spectrum import MassTriple, ParamIndex, enumerate_su3, enumerate_su4
from todalab.systems import SystemKind, Variant

from conftest import shot


@pytest.fixture(scope="module")
def su4_zero_profile():
    return shot(Variant.AFFINE_SU4, (0.0, 0.0, 0.0), r_max=100.0)


class TestDecayClassify:
    def test_bubble_fast_at_large_radius(self, liouville_profile):
        v = decay_classify(liouville_profile, 100.0, threshold=5.0)
        assert v.kind is DecayKind.FAST
        expected = liouville_bubble(BubbleSpec(1.0), 100.0) + 2 * math.log(100.0)
        assert v.witness == pytest.approx(expected, abs=1e-6)
        assert v.witness == pytest.approx(-7.131, abs=1e-3)

    def test_bubble_slow_at_unity(self, liouville_profile):
        v = decay_classify(liouville_profile, 1.0, threshold=5.0)
        assert v.kind is DecayKind.SLOW
        assert v.witness == pytest.approx(math.log(2), abs=1e-6)

    def test_constant_zero_profile_slow(self, su4_zero_profile):
        v = decay_classify(su4_zero_profile, math.exp(3.0), threshold=5.0)
        assert v.kind is DecayKind.SLOW
        assert v.witness == pytest.approx(6.0, abs=1e-9)

    def test_threshold_validation(self, liouville_profile):
        with pytest.raises(ValueError):
            decay_classify(liouville_profile, 1.0, threshold=0.0)

    def test_kind_follows_witness_and_threshold(self):
        assert DecayVerdict(witness=1.0, threshold=5.0).kind is DecayKind.SLOW
        assert DecayVerdict(witness=-4.0, threshold=5.0).kind is DecayKind.SLOW
        assert DecayVerdict(witness=-5.0, threshold=5.0).kind is DecayKind.FAST
        assert DecayVerdict(witness=-6.0, threshold=5.0).kind is DecayKind.FAST


class TestFastDecayScan:
    def oracle_root(self, level=5.0):
        f = lambda r: liouville_bubble(BubbleSpec(1.0), r) + 2 * math.log(r) + level
        return brentq(f, 10.0, 1000.0, xtol=1e-12)

    def test_scan_matches_closed_form_root(self, liouville_profile_fine):
        root = self.oracle_root()
        got = fast_decay_radius_scan(liouville_profile_fine, 0, (10.0, 1000.0), 5.0)
        assert got is not None
        assert abs(got - root) / root < 0.01

    def test_flip_within_one_grid_step(self, liouville_profile_fine):
        p = liouville_profile_fine
        root = self.oracle_root()
        got = fast_decay_radius_scan(p, 0, (10.0, 1000.0), 5.0)
        step = p.grid[1] / p.grid[0]
        assert root / step <= got <= root * step
        # verdicts flip across the returned radius
        k = int(np.searchsorted(p.grid, got))
        assert decay_classify(p, p.grid[k - 1], 5.0).kind is DecayKind.SLOW
        assert decay_classify(p, p.grid[k], 5.0).kind is DecayKind.FAST

    def test_absent_for_non_decaying(self, su4_zero_profile):
        assert fast_decay_radius_scan(su4_zero_profile, 0, (1.0, 50.0), 1.0) is None

    def test_interval_validation(self, liouville_profile):
        with pytest.raises(ValueError):
            fast_decay_radius_scan(liouville_profile, 0, (50.0, 10.0), 5.0)
        with pytest.raises(ValueError):
            fast_decay_radius_scan(liouville_profile, 0, (1e-6, 1e-5), 5.0)

    @pytest.mark.parametrize("component", [-1, 2])
    def test_component_validation(self, limitpair_target, component):
        with pytest.raises(ValueError) as err:
            fast_decay_radius_scan(limitpair_target[1], component, (1.0, 1e3), 5.0)
        assert str(err.value) == f"component {component} outside 0 <= component < 2"

    def test_final_onset(self, liouville_profile, su4_zero_profile):
        # the first node at or past the closed-form root at DECAY_LEVEL
        p, root = liouville_profile, self.oracle_root(DECAY_LEVEL)
        onset = final_fast_decay_onset(p)
        step = p.grid[1] / p.grid[0]
        assert root <= onset <= root * step
        assert final_fast_decay_onset(su4_zero_profile) is None


class TestDecayThresholdValidation:
    """Every fast/slow rule that takes a threshold refuses one that is not
    finite and positive, with one message.  A NaN made every circle slow.
    (``final_fast_decay_onset`` and ``bubble_masses`` read DECAY_LEVEL.)"""

    CALLS = {
        "decay_classify": lambda p, th: decay_classify(p, 1.0, th),
        "fast_decay_radius_scan":
            lambda p, th: fast_decay_radius_scan(p, 0, (10.0, 1000.0), th),
    }

    @pytest.mark.parametrize("name", list(CALLS))
    @pytest.mark.parametrize("threshold", [math.nan, 0.0, -5.0, -math.inf, math.inf])
    def test_rejects(self, liouville_profile, name, threshold):
        with pytest.raises(ValueError, match=(
                f"decay threshold must be finite and positive, got {threshold!r}")):
            self.CALLS[name](liouville_profile, threshold)

    @pytest.mark.parametrize("name", list(CALLS))
    def test_accepts_a_finite_positive_threshold(self, liouville_profile, name):
        self.CALLS[name](liouville_profile, 5.0)


class TestPohozaevChecks:
    def test_limitpair_residual_vanishes_in_tail(self, limitpair_target):
        _, prof = limitpair_target
        chk = pohozaev_check(prof, 1e4)
        scale = 4 * (chk.triple[0] + chk.triple[1] + 2 * chk.triple[2])
        assert abs(chk.residual) < 1e-2 * scale
        assert abs(chk.residual) < 1e-3  # far past the fast-decay radius

    def test_residual_decreases_along_tail(self, limitpair_target):
        _, prof = limitpair_target
        vals = [abs(pohozaev_check(prof, r).residual) for r in (1e2, 1e3, 1e4)]
        assert vals[0] > vals[1] > vals[2]

    def test_balance_residual_tiny_everywhere(self, limitpair_target):
        # residual + boundary defect cancel at every radius, not only in
        # the tail: this is the exact finite-radius form of the identity
        # (grid nodes, where no interpolation error enters)
        _, prof = limitpair_target
        for r_query in (0.01, 1.0, 50.0, 1e4):
            r = float(prof.grid[np.searchsorted(prof.grid, r_query)])
            chk = pohozaev_check(prof, r)
            scale = 1 + abs(chk.residual) + chk.boundary_defect
            assert abs(chk.balance_residual) < 1e-7 * scale

    def test_defect_large_at_slow_radii(self, limitpair_target):
        _, prof = limitpair_target
        assert pohozaev_check(prof, 1.0).boundary_defect > 0.1

    def test_scalar_degenerate_form(self, liouville_profile):
        # single component in slot 1: residual reduces to sigma^2 - 4 sigma
        for r in (0.5, 2.0, 100.0):
            sigma = bubble_mass(BubbleSpec(1.0), r)
            got = pohozaev_check(liouville_profile, r).residual
            assert got == pytest.approx(sigma**2 - 4 * sigma, abs=1e-4)

    def test_empty_ball_residual_negligible(self, liouville_profile):
        r0 = float(liouville_profile.grid[0])
        assert abs(pohozaev_check(liouville_profile, r0).residual) < 1e-6

    def test_mean_value_gap_small(self, limitpair_target):
        _, prof = limitpair_target
        for r in (0.1, 10.0, 1e3):
            chk = pohozaev_check(prof, r)
            assert abs(chk.mean_value_gap) < 1e-6 * (1 + chk.flux_quadratic)

    def test_su3_profile_accepted(self, su3_ladder_profile):
        chk = pohozaev_check(su3_ladder_profile, 0.1)
        assert np.isfinite(chk.residual)

    def test_rejects_unmapped_variant(self):
        p = shoot(ShootSpec(SystemKind(Variant.SINH_GORDON), (0.0,), r_max=10.0))
        with pytest.raises(ValueError):
            pohozaev_check(p, 1.0).residual

    def test_radius_range_checked(self, liouville_profile):
        with pytest.raises(ValueError):
            pohozaev_check(liouville_profile, 1e9).residual


class TestSu4Balance:
    def test_exact_radial_relations(self, su4_bubble_profile):
        p = su4_bubble_profile
        for r_query in (1e-3, 0.1, 1.0, 100.0):
            r = float(p.grid[np.searchsorted(p.grid, r_query)])
            bal = su4_radial_balance(p, r)
            assert abs(bal.mean_value_gap) < 1e-7 * (1 + bal.flux_quadratic)
            # the finite start radius leaves an O(head^2) offset in the
            # integrated balance; it is constant and fades against scale
            scale = 1 + abs(bal.quad_mass) + bal.mass_sum + bal.boundary_defect
            assert abs(bal.flux_balance_residual) < 2e-5 * scale
            assert abs(bal.defect_corrected_residual) < 5e-5 * scale

    def test_coefficient_is_eight_at_fast_radii(self, su4_bubble_profile):
        p = su4_bubble_profile
        wit = np.max(p.values + 2 * np.log(p.grid)[:, None], axis=1)
        mask = (wit <= -6.0) & (p.masses.sum(axis=1) > 2.0)
        assert mask.any()
        r = float(p.grid[np.argmin(np.where(mask, wit, np.inf))])
        bal = su4_radial_balance(p, r)
        assert bal.coefficient_estimate == pytest.approx(8.0, rel=1e-3)

    def test_rejects_other_variants(self, liouville_profile):
        with pytest.raises(ValueError):
            su4_radial_balance(liouville_profile, 1.0)

    def test_slots_are_the_component_masses(self, su4_bubble_profile):
        p = su4_bubble_profile
        for r in (1e-3, 0.1, 1.0):
            assert pohozaev_check(p, r).triple == tuple(p.mass_at(r))

    def test_bubble_masses_read_the_base(self, su4_bubble_profile):
        p = su4_bubble_profile
        ladder, delta = [1e-1, 1e-2], 1e-4
        rep = bubble_masses(p, ladder, delta, enumerate_su4(400))
        for e, triple in rep.eps_table:
            assert triple == tuple(p.mass_at(delta / e))
        d, triple = rep.delta_ladder[-1]
        assert triple == tuple(p.mass_at(d / ladder[-1]))
        assert rep.measured.as_tuple() == triple


def _poho_rel(p, r):
    """|Pohozaev balance| over the sum of its terms' sizes, su3 profile."""
    c = pohozaev_check(p, r)
    s1, s2, s3 = c.triple
    scale = (s1 - s3) ** 2 + (s2 - s3) ** 2 + 4 * (s1 + s2 + 2 * s3) + c.boundary_defect
    return abs(c.balance_residual) / scale


def _su4_rel(p, r):
    """|quad - (8 sum - 4 defect)| over the sum of its terms' sizes."""
    b = su4_radial_balance(p, r)
    scale = b.quad_mass + 8 * b.mass_sum + 4 * b.boundary_defect
    return abs(b.defect_corrected_residual) / scale


class TestBalancesBetweenNodes:
    """The balances hold between grid nodes as well as at them, over the
    resolved range from one decade past the start radius out to r = 1."""

    CASES = (("su3_ladder_profile", _poho_rel), ("su4_bubble_profile", _su4_rel))

    @pytest.fixture(scope="class")
    def node_levels(self):
        """Largest grid-node balance per case, filled on first use."""
        return {}

    @pytest.mark.parametrize("fixture,rel", CASES)
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(x=st.floats(0.0, 1.0))
    def test_off_node_balance(self, request, node_levels, fixture, rel, x):
        p = request.getfixturevalue(fixture)
        lo = float(p.grid[p.spec.samples_per_decade])
        if fixture not in node_levels:
            nodes = p.grid[(p.grid >= lo) & (p.grid <= 1.0)]
            node_levels[fixture] = max(rel(p, float(r)) for r in nodes)
        got = rel(p, lo ** (1.0 - x))
        assert got <= 1e-4
        assert got <= 10 * node_levels[fixture]


class TestBubbleMasses:
    def test_limitpair_double_limit(self, limitpair_target, spectrum_400):
        _, base = limitpair_target
        rep = bubble_masses(base, [1e-1, 1e-2, 1e-3, 1e-4], 0.1, spectrum_400)
        assert rep.nearest == MassTriple(16, 0, 12)
        assert rep.nearest_index == ParamIndex(1, -3)
        assert rep.distance < 0.2
        # constructed bubbles land within 10x the mass-convergence tolerance
        assert rep.distance < 10 * 1e-4
        assert abs(rep.pohozaev_residual) < 1.0

    def test_eps_table_stabilizes(self, limitpair_target, spectrum_400):
        _, base = limitpair_target
        rep = bubble_masses(base, [1e-1, 1e-2, 1e-3, 1e-4], 0.1, spectrum_400)
        last, prev = np.array(rep.eps_table[-1][1]), np.array(rep.eps_table[-2][1])
        target = np.array([16.0, 0.0, 12.0])
        assert np.linalg.norm(last - target) < np.linalg.norm(prev - target) + 1e-12

    def test_delta_stability(self, limitpair_target, spectrum_400):
        # once past the fast-decay radius the measurement is delta-stable:
        # delta / eps_min = 40000 lies past the onset, 3758 at DECAY_LEVEL,
        # so the walk halves delta three times
        _, base = limitpair_target
        rep = bubble_masses(base, [1e-2, 1e-3], 40.0, spectrum_400)
        assert len(rep.delta_ladder) == 4
        a = np.array(rep.delta_ladder[0][1])
        b = np.array(rep.delta_ladder[-1][1])
        assert np.max(np.abs(a - b)) < 1e-4
        assert rep.nearest == MassTriple(16, 0, 12)

    def test_readme_session_reads_the_headline_at_delta(self, limitpair_target,
                                                        spectrum_400):
        """delta / eps_min = 1000 lies inside the base's terminal fast-decay
        onset (r = 3758 at level 10; the witness at 1000 is -7.46), so the
        delta walk takes no step and the headline is the given delta's row."""
        _, base = limitpair_target
        delta, ladder = 0.1, [1e-1, 1e-2, 1e-3, 1e-4]
        rep = bubble_masses(base, ladder, delta, spectrum_400)
        assert rep.fast_decay_radius > delta / ladder[-1]
        assert rep.delta_ladder == [(delta, rep.eps_table[-1][1])]
        assert max(base.witness_at(delta / ladder[-1])) > -10.0

    def test_liouville_bubble_masses(self, liouville_profile, spectrum_400):
        rep = bubble_masses(liouville_profile, [1e-1, 1e-2], 10.0, spectrum_400)
        assert rep.nearest == MassTriple(4, 0, 0)
        assert rep.nearest_index == ParamIndex(1, 0)
        assert rep.distance < 0.05

    def test_trivial_ladder_returns_totals(self, liouville_profile, spectrum_400):
        r_end = float(liouville_profile.grid[-1]) * 0.999
        rep = bubble_masses(liouville_profile, [1.0], r_end, spectrum_400)
        assert float(rep.measured.s1) == pytest.approx(
            liouville_profile.masses[-1, 0], abs=1e-3
        )

    def test_ladder_validation(self, liouville_profile, spectrum_400):
        with pytest.raises(ValueError):
            bubble_masses(liouville_profile, [1e-2, 1e-1], 0.1, spectrum_400)
        with pytest.raises(ValueError):
            bubble_masses(liouville_profile, [], 0.1, spectrum_400)
        with pytest.raises(ValueError):
            bubble_masses(liouville_profile, [1.0, -0.5], 0.1, spectrum_400)

    def test_delta_outside_grid_rejected(self, liouville_profile, spectrum_400):
        with pytest.raises(ValueError):
            bubble_masses(liouville_profile, [1e-6], 1e5, spectrum_400)

    def test_nearest_member_requires_nonempty(self):
        with pytest.raises(ValueError):
            nearest_member(enumerate_su3(0), [1.0, 2.0, 3.0])

    def test_nearest_member_tie_break_lexicographic(self, spectrum_400):
        # equidistant between (0,4,0) and (4,0,0); the smaller one wins
        member, _, _ = nearest_member(spectrum_400, [2.0, 2.0, 0.0])
        assert member == MassTriple(0, 4, 0)

    def test_nearest_member_matches_loop(self, spectrum_400):
        def loop(spectrum, triple):
            x = np.asarray(triple, dtype=float)
            best, best_idx, best_d = None, None, math.inf
            for t, idx in zip(spectrum.members, spectrum.indices):
                d = float(np.linalg.norm(x - np.array(t.as_tuple(), dtype=float)))
                if d < best_d:
                    best, best_idx, best_d = t, idx, d
            return best, best_idx, best_d

        members = [np.array(t.as_tuple(), dtype=float) for t in spectrum_400.members]
        rng = np.random.default_rng(17)
        queries = []
        for _ in range(20):
            a = members[rng.integers(len(members))]
            queries.append(a + rng.uniform(-3.0, 3.0, 3))
            # midpoint to a nearest other member: an exact tie
            d = [np.linalg.norm(b - a) if b is not a else math.inf for b in members]
            queries.append((a + members[int(np.argmin(d))]) / 2)
        for q in queries:
            got, idx, dist = nearest_member(spectrum_400, q)
            want, want_idx, want_dist = loop(spectrum_400, q)
            assert got == want and idx == want_idx
            assert dist == pytest.approx(want_dist, rel=1e-12)


# The balance formulas as written per variant before the identities were
# derived from the term table; oracles for the views.
_OLD_SLOTS = {
    Variant.AFFINE_SU3: (0, 1, 2),
    Variant.LIMIT_PAIR: (0, None, 1),
    Variant.LIOUVILLE: (0, None, None),
}


def _old_pohozaev(p, r):
    slots = _OLD_SLOTS[p.system.variant]
    m, eu, w = p.mass_at(r), np.exp(p.value_at(r)), p.log_deriv_at(r)
    s = np.array([0.0 if i is None else m[i] for i in slots])
    ex = np.array([0.0 if i is None else eu[i] for i in slots])
    residual = (s[0] - s[2]) ** 2 + (s[1] - s[2]) ** 2 - 4 * (s[0] + s[1] + 2 * s[2])
    defect = 2.0 * r * r * (ex[0] + ex[1] + 2.0 * ex[2])
    v = p.system.variant
    if v is Variant.AFFINE_SU3:
        flux = w[0] ** 2 + w[1] ** 2
    elif v is Variant.LIMIT_PAIR:
        flux = w[0] ** 2 + s[2] ** 2
    else:
        flux = w[0] ** 2
    quad = (s[0] - s[2]) ** 2 + (s[1] - s[2]) ** 2
    fields = {
        "radius": r, "triple": tuple(s), "residual": residual,
        "boundary_defect": defect, "flux_quadratic": flux,
        "mean_value_gap": flux - quad, "balance_residual": residual + defect,
    }
    scale = quad + 4 * (s[0] + s[1] + 2 * s[2]) + defect + flux
    return fields, scale


def _old_su4(p, r):
    m, u, w = p.mass_at(r), p.value_at(r), p.log_deriv_at(r)
    quad = (m[0] - m[1]) ** 2 + (m[1] - m[2]) ** 2 + (m[2] - m[0]) ** 2
    S, F, D = float(np.sum(m)), float(np.sum(w**2)), r * r * float(np.sum(np.exp(u)))
    fields = {
        "radius": r, "triple": tuple(m), "quad_mass": quad, "mass_sum": S,
        "flux_quadratic": F, "boundary_defect": D,
        "mean_value_gap": F - 0.75 * quad,
        "flux_balance_residual": 0.5 * F - 3.0 * S + 1.5 * D,
        "defect_corrected_residual": quad - 8.0 * S + 4.0 * D,
    }
    return fields, quad + 8 * S + 4 * D + F


class TestViewsMatchOldFormulas:
    """Every field and property of the views equals the per-variant formulas
    they replaced, to 1e-12 of the structure's scale, at grid nodes and
    between them."""

    @staticmethod
    def radii(p):
        rng = np.random.default_rng(41)
        lo, hi = math.log(p.grid[0]), math.log(p.grid[-1])
        return [float(r) for r in p.grid] + [
            math.exp(x) for x in rng.uniform(lo, hi, 60)
        ]

    @pytest.mark.parametrize(
        "fixture", ["su3_ladder_profile", "limitpair_target", "liouville_profile"]
    )
    def test_pohozaev_check(self, request, fixture):
        p = request.getfixturevalue(fixture)
        p = p[1] if isinstance(p, tuple) else p
        for r in self.radii(p):
            chk = pohozaev_check(p, r)
            want, scale = _old_pohozaev(p, r)
            for name, value in want.items():
                got = getattr(chk, name)
                assert np.allclose(got, value, rtol=0, atol=1e-12 * scale), (name, r)

    def test_su4_balance(self, su4_bubble_profile):
        p = su4_bubble_profile
        for r in self.radii(p):
            bal = su4_radial_balance(p, r)
            want, scale = _old_su4(p, r)
            for name, value in want.items():
                got = getattr(bal, name)
                assert np.allclose(got, value, rtol=0, atol=1e-12 * scale), (name, r)
            S = want["mass_sum"]
            assert abs(bal.symmetric_form_residual(12.0)
                       - (want["quad_mass"] - 12.0 * S)) <= 1e-12 * scale
            assert abs(bal.coefficient_estimate - want["quad_mass"] / S) \
                <= 1e-12 * scale / S


class TestPohozaevCheckIsTheBalance:
    def test_returns_the_identity_balance_with_slots(self, limitpair_target):
        _, prof = limitpair_target
        chk = pohozaev_check(prof, 1.0)
        assert type(chk) is IdentityBalance
        s1, s3 = chk.masses
        assert chk.triple == (s1, 0.0, s3)
