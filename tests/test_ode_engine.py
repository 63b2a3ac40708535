"""Radial integration engine tests against the closed-form oracles."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from todalab.closed_forms import (
    BubbleSpec,
    bubble_derivative,
    bubble_mass,
    bubble_value,
)
from todalab import dop853
from todalab.dop853 import STEP_UNDERFLOW
from todalab.ode_engine import (
    BLOWUP_GUARD,
    SETTLE_TOL,
    BracketError,
    RadialProfile,
    ShootSpec,
    TargetSearchError,
    TerminationReason,
    _fill_heights,
    _series_state,
    classify_shot,
    find_decaying,
    mean_value_residuals,
    rescale,
    shoot,
    total_masses,
)
from todalab.profile_io import (
    FORMAT_VERSION,
    profile_from_json_dict,
    profile_to_json_dict,
)
from todalab.systems import SystemKind, Variant

from conftest import LOG8, shot


class TestShootSpecValidation:
    def test_height_count(self):
        with pytest.raises(ValueError):
            ShootSpec(SystemKind(Variant.AFFINE_SU3), (0.0, 0.0))

    def test_tolerance_range(self):
        with pytest.raises(ValueError):
            ShootSpec(SystemKind(Variant.LIOUVILLE), (0.0,), rel_tol=0.5)
        with pytest.raises(ValueError):
            ShootSpec(SystemKind(Variant.LIOUVILLE), (0.0,), abs_tol=0.0)

    def test_radius_ordering(self):
        with pytest.raises(ValueError):
            ShootSpec(SystemKind(Variant.LIOUVILLE), (0.0,), r_start=10.0, r_max=1.0)

    def test_default_start_radii(self):
        assert ShootSpec(SystemKind(Variant.LIOUVILLE), (0.0,)).r_start == 1e-4
        assert (
            ShootSpec(SystemKind(Variant.LIOUVILLE, (1.0,)), (0.0,)).r_start == 1e-6
        )

    def test_start_radius_shrinks_for_tall_data(self):
        spec = ShootSpec(SystemKind(Variant.LIOUVILLE), (24.0,))
        assert spec.r_start < 1e-5

    def test_explicit_start_radius_must_fit_series(self):
        with pytest.raises(ValueError):
            ShootSpec(SystemKind(Variant.LIOUVILLE), (24.0,), r_start=1e-2)

    def test_samples_per_decade_must_be_positive(self):
        with pytest.raises(ValueError, match="^samples_per_decade must be positive$"):
            ShootSpec(SystemKind(Variant.LIOUVILLE), (0.0,), samples_per_decade=0)

    def test_singular_weight_validation(self):
        with pytest.raises(ValueError):
            SystemKind(Variant.LIOUVILLE, (-1.0,))
        with pytest.raises(ValueError):
            SystemKind(Variant.LIMIT_PAIR, (1.0,))


class TestShootSpecJson:
    KEYS = ["variant", "singular_weights", "init_heights", "r_start", "r_max",
            "rel_tol", "abs_tol", "samples_per_decade", "mass_guard"]

    def test_round_trip_off_every_default(self):
        spec = ShootSpec(SystemKind(Variant.LIOUVILLE, (1.0,)), (0.5,),
                         r_start=1e-7, r_max=1e3, rel_tol=1e-8, abs_tol=1e-10,
                         samples_per_decade=17, mass_guard=5e5)
        default = ShootSpec(SystemKind(Variant.LIOUVILLE), (0.0,))
        for f in dataclasses.fields(ShootSpec):
            assert getattr(spec, f.name) != getattr(default, f.name), f.name
        assert ShootSpec.from_json_dict(spec.to_json_dict()) == spec
        d = json.loads(json.dumps(spec.to_json_dict()))
        assert ShootSpec.from_json_dict(d) == spec

    def test_absent_keys_take_the_defaults(self):
        system = SystemKind(Variant.AFFINE_SU3)
        d = {"variant": "su3", "init_heights": [1.0, 1.0, -1.0]}
        assert ShootSpec.from_json_dict(d) == ShootSpec(system, (1.0, 1.0, -1.0))

    def test_key_order(self):
        spec = ShootSpec(SystemKind(Variant.LIOUVILLE), (LOG8,))
        assert list(spec.to_json_dict()) == self.KEYS
        assert list(profile_to_json_dict(shoot(dataclasses.replace(
            spec, r_max=10.0)))["shoot_spec"]) == self.KEYS


class TestRegularShot:
    def test_matches_closed_form(self, liouville_profile):
        p = liouville_profile
        cf = bubble_value(BubbleSpec(1.0), p.grid)
        rel = np.max(np.abs(p.values[:, 0] - cf) / np.maximum(np.abs(cf), 1e-3))
        assert rel < 1e-8

    def test_value_at_unity(self, liouville_profile):
        assert liouville_profile.value_at(1.0)[0] == pytest.approx(
            math.log(2), abs=1e-8
        )

    def test_cumulative_mass_against_closed_form(self, liouville_profile):
        for r in (0.01, 0.5, 1.0, 30.0, 900.0):
            expected = bubble_mass(BubbleSpec(1.0), r)
            got = liouville_profile.mass_at(r)[0]
            assert got == pytest.approx(expected, rel=1e-6, abs=1e-10)

    def test_mass_at_one_hundred(self, liouville_profile):
        # sigma(100) = 4 * 1e4 / (1 + 1e4)
        assert liouville_profile.mass_at(100.0)[0] == pytest.approx(
            3.99960004, abs=1e-6
        )

    def test_head_estimate_at_first_grid_point(self, liouville_profile):
        p = liouville_profile
        r0 = p.grid[0]
        assert p.masses[0, 0] == pytest.approx(math.exp(LOG8) * r0**2 / 2, rel=1e-6)

    def test_total_mass(self, liouville_profile):
        totals, converged = total_masses(liouville_profile)
        assert converged[0]
        assert totals[0] == pytest.approx(4.0, abs=1e-6)

    def test_masses_non_decreasing(self, liouville_profile):
        d = np.diff(liouville_profile.masses[:, 0])
        assert np.all(d >= 0)

    def test_determinism(self):
        spec = ShootSpec(SystemKind(Variant.LIOUVILLE), (LOG8,), r_max=100.0)
        p1, p2 = shoot(spec), shoot(spec)
        assert np.array_equal(p1.values, p2.values)
        assert np.array_equal(p1.masses, p2.masses)
        assert np.array_equal(p1.grid, p2.grid)

    def test_mass_query_outside_grid(self, liouville_profile):
        with pytest.raises(ValueError):
            liouville_profile.mass_at(1e-6)
        with pytest.raises(ValueError):
            liouville_profile.mass_at(1e9)


class TestSingularShot:
    @pytest.mark.parametrize("b", [1.0, 2.0])
    def test_matches_closed_form(self, b):
        c = math.log(8 * (1 + b) ** 2)  # mu = 1 asymptote constant
        p = shot(Variant.LIOUVILLE, (c,), (b,), r_max=1e4)
        cf = bubble_value(BubbleSpec(1.0, b), p.grid)
        rel = np.max(np.abs(p.values[:, 0] - cf) / np.maximum(np.abs(cf), 1.0))
        assert rel < 1e-8

    @pytest.mark.parametrize("b", [1.0, 2.0, 3.0])
    def test_total_mass_quantized(self, b):
        c = math.log(8 * (1 + b) ** 2)
        p = shot(Variant.LIOUVILLE, (c,), (b,), r_max=1e4)
        totals, converged = total_masses(p)
        assert converged[0]
        assert totals[0] == pytest.approx(4 * (1 + b), rel=1e-6)

    def test_singular_head_estimate(self):
        b, c = 2.0, 1.3
        p = shoot(ShootSpec(SystemKind(Variant.LIOUVILLE, (b,)), (c,), r_max=1.0))
        r0 = p.grid[0]
        expected = math.exp(c) * r0 ** (2 * b + 2) / (2 * b + 2)
        assert p.masses[0, 0] == pytest.approx(expected, rel=1e-6)

    def test_resonant_singular_weight_rejected(self):
        # sinh-Gordon with b = 1 hits the resonance of the correction term
        with pytest.raises(ValueError):
            shoot(ShootSpec(SystemKind(Variant.SINH_GORDON, (1.0,)), (0.0,)))

    def test_singular_pair_runs(self):
        # singular weight on one component of the two-component system
        p = shoot(
            ShootSpec(
                SystemKind(Variant.LIMIT_PAIR, (1.0, 0.0)),
                (2.0, 0.5),
                r_max=10.0,
            )
        )
        assert p.reason is TerminationReason.REACHED_R_MAX
        assert np.all(np.isfinite(p.values))

    @pytest.mark.parametrize(
        "weights,expected",
        [((1.0, 0.0), (24.0, 16.0)), ((1.0, 1.0), (32.0, 24.0))],
    )
    def test_singular_pair_mass_quantization(self, weights, expected):
        # integer point sources keep the two-component totals on multiples
        # of 4; values frozen from converged runs after checking the
        # quantization held for every probed weight combination
        p = shoot(
            ShootSpec(SystemKind(Variant.LIMIT_PAIR, weights), (2.0, 0.0), r_max=1e6)
        )
        totals, converged = total_masses(p)
        assert converged.all()
        near_int = np.abs(totals / 4 - np.round(totals / 4))
        assert np.max(near_int) < 0.005
        assert totals == pytest.approx(expected, rel=1e-4)


class TestConstrainedSystems:
    def test_su4_zero_data_constant_profile(self):
        p = shot(Variant.AFFINE_SU4, (0.0, 0.0, 0.0), r_max=100.0)
        assert np.max(np.abs(p.values)) < 1e-12
        # unit density: sigma = r^2 / 2 per component
        assert p.masses[-1, 0] == pytest.approx(100.0**2 / 2, rel=1e-8)
        _, converged = total_masses(p)
        assert not converged.any()  # constant profile never decays

    def test_su3_symmetric_data_stays_symmetric(self, su3_ladder_profile):
        p = su3_ladder_profile
        assert np.max(np.abs(p.values[:, 0] - p.values[:, 1])) == 0.0

    def test_su3_constraint_conservation(self, su3_ladder_profile):
        p = su3_ladder_profile
        bound = 10 * p.spec.rel_tol * (1 + np.max(np.abs(p.values)))
        assert p.max_constraint_violation() <= bound

    def test_su4_constraint_conservation(self, su4_bubble_profile):
        p = su4_bubble_profile
        bound = 10 * p.spec.rel_tol * (1 + np.max(np.abs(p.values)))
        assert p.max_constraint_violation() <= bound

    def test_su3_mean_value_identity(self, su3_ladder_profile):
        p = su3_ladder_profile
        res = np.abs(mean_value_residuals(p))
        scale = 1.0 + p.masses.sum(axis=1)
        assert np.max(res / scale[:, None]) < 1e-7

    def test_mean_value_rejects_mixed_exponential_variants(self):
        p = shoot(ShootSpec(SystemKind(Variant.SINH_GORDON), (0.5,), r_max=10.0))
        with pytest.raises(ValueError):
            mean_value_residuals(p)

    def test_symmetric_initial_data_stays_symmetric(self):
        p = shoot(ShootSpec(SystemKind(Variant.AFFINE_SU3), (-6.0, -6.0, 6.0), r_max=10.0))
        assert np.max(np.abs(p.values[:, 0] - p.values[:, 1])) == 0.0


class TestTermination:
    def test_sinh_gordon_blow_up(self):
        # a deep negative start rebounds past the guard (turning height
        # is about a third of the starting depth)
        p = shot(Variant.SINH_GORDON, (-160.0,), r_max=1e3)
        assert p.reason is TerminationReason.COMPONENT_BLOW_UP
        assert p.values.max() >= 49.0
        assert p.r_end < 1e3

    def test_start_above_guard(self):
        p = shot(Variant.LIOUVILLE, (60.0,), r_max=10.0)
        assert p.reason is TerminationReason.COMPONENT_BLOW_UP
        assert len(p.grid) == 1

    @pytest.mark.parametrize("below", [False, True])
    def test_start_at_or_above_the_mass_guard(self, below):
        """A mass_guard at or below the start state's summed mass, 5e-9,
        ends the shot at r_start with one row, as the blow-up guard does."""
        start = shot(Variant.LIOUVILLE, (0.0,), r_max=1e3).masses[0].sum()
        guard = 1e-12 if below else float(start)
        p = shot(Variant.LIOUVILLE, (0.0,), mass_guard=guard, r_max=1e3)
        assert p.reason is TerminationReason.MASS_OVERFLOW
        assert len(p.grid) == 1
        assert p.r_end == pytest.approx(p.spec.r_start, rel=1e-12)
        assert p.masses[0].sum() == start
        assert p.stats.message == "A termination event occurred."
        assert (p.stats.nfev, p.stats.n_accepted) == (0, 0)

    def test_start_above_both_guards_reads_the_blow_up_first(self):
        p = shot(Variant.LIOUVILLE, (60.0,), mass_guard=1e-12, r_max=10.0)
        assert p.reason is TerminationReason.COMPONENT_BLOW_UP
        assert p.stats.message == "A termination event occurred."
        assert len(p.grid) == 1

    def test_mass_overflow_guard(self):
        # generic three-component shots leave the quantized plateaus and
        # enter unbounded mass growth; the guard must cut them off
        p = shoot(
            ShootSpec(
                SystemKind(Variant.AFFINE_SU3),
                (-8.0, -8.0, 8.0),
                mass_guard=1e4,
            )
        )
        assert p.reason is TerminationReason.MASS_OVERFLOW
        assert p.masses[-1].sum() == pytest.approx(1e4, rel=1e-6)
        assert p.r_end < 1e6

    def test_mass_guard_validation(self):
        with pytest.raises(ValueError):
            ShootSpec(SystemKind(Variant.LIOUVILLE), (0.0,), mass_guard=0.0)

    def test_event_next_to_a_sample_is_the_last_row(self):
        # the mass_guard root lies within 1e-12 in log r of the sample at
        # r = 1; the event state, not that sample, must end the profile
        p = shot(Variant.LIOUVILLE, (0.0,), (1e15,))
        assert p.reason is TerminationReason.MASS_OVERFLOW
        # the mass grows like r^(2b + 2) there, so a root placed to a few
        # ulp in log r fixes it only to within a factor of order one
        assert p.masses[-1].sum() == pytest.approx(p.spec.mass_guard, rel=0.25)
        assert p.masses[-2].sum() < 1e-6 * p.spec.mass_guard

    def test_mass_overflow_row_can_sit_below_the_guard(self):
        # the crossing is located in log r to 4 machine epsilons; the mass
        # grows like r^(2e15 + 2) there, so the last row misses the 1e6
        # guard by 8 % although the root is within a few ulp of r = 1
        p = shot(Variant.LIOUVILLE, (0.0,), (1e15,))
        assert p.reason is TerminationReason.MASS_OVERFLOW
        assert p.r_end == 1.0000000000000224
        assert p.masses[-1].sum() == pytest.approx(9.1594e5, rel=1e-4)
        assert p.masses[-1].sum() < p.spec.mass_guard

    def test_stats_record_wall_time_and_event_radius(self, liouville_profile):
        blown = shot(Variant.SINH_GORDON, (-160.0,), r_max=1e3)
        assert blown.stats.wall_s > 0
        # the last row is the event state, so r_end is the event radius
        assert blown.reason is TerminationReason.COMPONENT_BLOW_UP
        assert np.max(blown.values[-1]) == pytest.approx(BLOWUP_GUARD, rel=1e-9)
        assert liouville_profile.stats.wall_s > 0
        start = shot(Variant.LIOUVILLE, (60.0,), r_max=10.0)
        assert start.r_end == pytest.approx(start.spec.r_start, rel=1e-12)
        # a rescaled profile reports the event at its own radius
        assert rescale(blown, 1e-3).r_end == blown.r_end / 1e-3
        assert sorted(blown.stats.to_json_dict()) == ["n_accepted", "n_rejected", "nfev"]


class TestTotalMasses:
    def test_a_one_row_profile_converges_nothing(self):
        p = shot(Variant.LIOUVILLE, (60.0,), r_max=10.0)
        totals, converged = total_masses(p)
        assert totals.tobytes() == p.masses[-1].tobytes()
        assert converged.tolist() == [False]


class TestRescale:
    def test_identity(self, liouville_profile):
        q = rescale(liouville_profile, 1.0)
        assert np.array_equal(q.grid, liouville_profile.grid)
        assert np.array_equal(q.values, liouville_profile.values)

    def test_rejects_nonpositive(self, liouville_profile):
        with pytest.raises(ValueError):
            rescale(liouville_profile, 0.0)

    @pytest.mark.parametrize("eps,message", [
        (math.inf, "eps must be finite and positive, got inf"),
        (math.nan, "eps must be finite and positive, got nan"),
        (1e-320, r"eps = 1e-320 takes the grid \[0.0001, 1000\] outside \(0, inf\)"),
    ], ids=["inf", "nan", "1e-320"])
    def test_rejects_eps_without_a_usable_grid(self, liouville_profile, eps, message):
        """eps = inf made the grid 0 and u inf, whose queries failed with a
        math domain error; 1e-320 overflowed the grid to inf."""
        with pytest.raises(ValueError, match=message):
            rescale(liouville_profile, eps)

    def test_rejects_eps_that_underflows_the_grid(self, liouville_profile):
        q = rescale(liouville_profile, 1e300)
        assert q.grid[0] == pytest.approx(1e-304)
        with pytest.raises(ValueError, match=r"takes the grid \[1e-304, 1e-297\]"):
            rescale(q, 1e300)

    @pytest.mark.parametrize("eps", [1e-3, 0.1, 1.0, 1e3])
    def test_scaling_covariance(self, liouville_profile, eps):
        # rescaled mu=1 bubble equals the mu=eps bubble
        q = rescale(liouville_profile, eps)
        cf = bubble_value(BubbleSpec(eps), q.grid)
        assert np.max(np.abs(q.values[:, 0] - cf)) < 1e-7

    @pytest.mark.parametrize("eps", [1e-3, 1.0, 1e3])
    def test_mass_law(self, liouville_profile, eps):
        p = liouville_profile
        q = rescale(p, eps)
        for r in (0.3, 2.0, 70.0):
            lhs = q.mass_at(r / eps)
            rhs = p.mass_at(r)
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_mass_law_exact_on_grid(self, liouville_profile):
        q = rescale(liouville_profile, 7.3)
        assert np.array_equal(q.masses, liouville_profile.masses)

    def test_rescaled_profile_drops_spec_and_round_trips(self, liouville_profile):
        # no shot reproduces the rescaled grid; provenance records the rescale
        q = rescale(liouville_profile, 7.3)
        assert q.spec is None
        assert q.provenance.endswith("rescale(eps=7.3)")
        d = json.loads(json.dumps(profile_to_json_dict(q)))
        assert d["shoot_spec"] is None
        back = profile_from_json_dict(d)
        assert back.spec is None
        for name in ("grid", "values", "masses"):
            assert np.array_equal(getattr(back, name), getattr(q, name))


class TestProfileEquality:
    def test_two_shots_of_one_spec_are_equal(self):
        spec = ShootSpec(SystemKind(Variant.LIOUVILLE), (LOG8,), r_max=100.0)
        p, q = shoot(spec), shoot(spec)
        assert p == q and not p != q

    def test_rescaled_profile_differs(self, liouville_profile):
        assert rescale(liouville_profile, 2.0) != liouville_profile

    def test_stats_are_not_compared(self, liouville_profile):
        assert dataclasses.replace(liouville_profile, stats=None) == liouville_profile

    def test_one_flipped_bit_differs(self, liouville_profile):
        state = liouville_profile.state.copy()
        state[-1, 0] = np.nextafter(state[-1, 0], np.inf)
        assert dataclasses.replace(liouville_profile, state=state) != liouville_profile

    @pytest.mark.parametrize("other", [None, 0, "profile", (1.0,)])
    def test_non_profile_compares_unequal(self, liouville_profile, other):
        assert liouville_profile != other and not liouville_profile == other


class TestWitnesses:
    def test_nodes_match_witness_at(self, liouville_profile):
        p = liouville_profile
        assert p.witnesses.shape == p.values.shape
        for k in (0, len(p.grid) // 2, len(p.grid) - 1):
            np.testing.assert_allclose(p.witnesses[k], p.witness_at(p.grid[k]),
                                       rtol=0, atol=1e-12)
        np.testing.assert_array_equal(
            p.witnesses[:, 0], p.values[:, 0] + 2.0 * np.log(p.grid))


class TestFindDecaying:
    def test_limitpair_masses(self, limitpair_target):
        heights, prof = limitpair_target
        totals, converged = total_masses(prof)
        assert converged.all()
        assert totals[0] == pytest.approx(16.0, rel=0.01)
        assert totals[1] == pytest.approx(12.0, rel=0.01)
        assert heights[0] == pytest.approx(LOG8)

    def test_liouville_degenerate_returns_input(self):
        heights, prof = find_decaying(
            SystemKind(Variant.LIOUVILLE), 0, LOG8, (-1.0, 1.0), r_max=1e4
        )
        assert heights == (LOG8,)
        totals, _ = total_masses(prof)
        assert totals[0] == pytest.approx(4.0, abs=1e-6)

    def test_empty_bracket(self):
        with pytest.raises(BracketError):
            find_decaying(
                SystemKind(Variant.LIMIT_PAIR), 0, LOG8, (0.0, 0.0), r_max=1e4
            )

    def test_three_shots_that_do_not_settle(self):
        """No shot of (-9, -8) settles by r_max = 1e5: the search fails
        after the midpoint and the two ends, and names r_max."""
        with pytest.raises(TargetSearchError) as err:
            find_decaying(
                SystemKind(Variant.LIMIT_PAIR), 0, LOG8, (-9.0, -8.0), r_max=1e5
            )
        assert type(err.value) is TargetSearchError
        assert str(err.value) == (
            "no decaying solution found after 3 shots; 3 of them reached "
            "r_max = 100000 without decaying, so a larger r_max may let a shot "
            "decay")
        walk = "walk: component 1 re-ignites at r=0.5957"
        assert [c.summary() for c in err.value.trace] == [
            f"height=-8.5 over (unsettled at r_max) witness=-8.17; {walk}",
            f"height=-9 over (unsettled at r_max) witness=-7.67; {walk}",
            f"height=-8 over (unsettled at r_max) witness=-8.67; {walk}",
        ]

    def test_classifier_orientation(self):
        """Both shots decay in full, so both are UNDER; their walks start on
        opposite components: below the band the free component re-ignites
        first, above it the anchored one."""
        low = classify_shot(shot(Variant.LIMIT_PAIR, (LOG8, -5.0), r_max=1e6))
        high = classify_shot(shot(Variant.LIMIT_PAIR, (LOG8, 5.0), r_max=1e6))
        assert (low.kind, low.fate, low.first_up) == ("under", "decays", 1)
        assert (high.kind, high.fate, high.first_up) == ("under", "decays", 0)

    def test_classifications_are_values(self):
        """Two runs of one shot classify equal, with equal hashes: equality
        leaves out the solver's wall time.  A classification is frozen."""
        spec = ShootSpec(SystemKind(Variant.LIMIT_PAIR), (LOG8, -5.0))
        a, b = (classify_shot(shoot(spec), free_value=-5.0) for _ in range(2))
        slower = dataclasses.replace(
            a, stats=dataclasses.replace(a.stats, wall_s=a.stats.wall_s + 1.0))
        assert a == b == slower and hash(a) == hash(b) == hash(slower)
        assert a != dataclasses.replace(a, free_value=-4.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.free_value = 0.0

    def test_the_midpoint_then_the_ends(self):
        """From (-5, 15) the midpoint 5 decays and is the one shot.  At
        r_max = 1e3 no shot settles: the search fails after the midpoint 5,
        the lower end and the upper end, 4,695 rhs calls in all."""
        trace = []
        heights, _ = find_decaying(SystemKind(Variant.LIMIT_PAIR), 0, LOG8,
                                   (-5.0, 15.0), trace=trace)
        assert heights == (LOG8, 5.0)
        assert [(c.free_value, c.kind, c.first_up) for c in trace] == [
            (5.0, "under", 0)]
        trace = []
        with pytest.raises(TargetSearchError, match="after 3 shots; 3 of them"):
            find_decaying(SystemKind(Variant.LIMIT_PAIR), 0, LOG8, (-5.0, 15.0),
                          r_max=1e3, trace=trace)
        assert [(c.free_value, c.first_up) for c in trace] == [
            (5.0, 0), (-5.0, 1), (15.0, 0)]
        assert sum(c.stats.nfev for c in trace) == 4695

    def test_endpoints_that_blow_up_at_the_start(self):
        """Anchor 60 puts the start state above the +50 guard, so the
        midpoint's shot and both ends' end with COMPONENT_BLOW_UP at r_start
        and classify OVER with no re-ignition; none reached r_max, so the
        error gives no r_max hint."""
        trace = []
        with pytest.raises(TargetSearchError) as err:
            find_decaying(SystemKind(Variant.LIMIT_PAIR), 0, 60.0, (-5.0, 5.0),
                          trace=trace)
        assert str(err.value) == "no decaying solution found after 3 shots"
        assert [c.free_value for c in trace] == [0.0, -5.0, 5.0]
        for c in trace:
            assert c.reason is TerminationReason.COMPONENT_BLOW_UP
            assert (c.kind, c.first_up, c.r_up) == ("over", None, None)
            assert c.summary() == (f"height={c.free_value:g} over (blow-up) "
                                   "witness=-4.48; walk: no re-ignition")

    @pytest.mark.parametrize("side", ["lo", "hi"])
    def test_an_endpoint_that_already_decays(self, side):
        """An end at the decaying height 0 is returned once the midpoint, shot
        first, does not decay: the second shot from lo = 0 of (0, 120), whose
        midpoint 60 blows up at the start, the third from hi = 0 of (-40, 0),
        whose midpoint -20 and lower end do not settle by r_max.  The UNDER
        shot ending the trace summarizes its masses and its walk."""
        bracket, fates = {
            "lo": ((0.0, 120.0), ["blow-up", "decays"]),
            "hi": ((-40.0, 0.0), ["unsettled at r_max"] * 2 + ["decays"])}[side]
        trace = []
        heights, prof = find_decaying(SystemKind(Variant.LIMIT_PAIR), 0, LOG8,
                                      bracket, trace=trace)
        assert heights == (LOG8, 0.0)
        assert prof == shot(Variant.LIMIT_PAIR, (LOG8, 0.0))
        assert [c.fate for c in trace] == fates
        masses = ", ".join(f"{m:.6g}" for m in total_masses(prof)[0])
        assert trace[-1].summary() == (
            f"height=0 under (decays) masses=({masses}); walk: no re-ignition")


class TestSearchShotsAreFullShots:
    """``find_decaying`` runs every shot in full, since only a full shot
    shows its fate: each shot is ``shoot`` of its spec, none is STOPPED, and
    each classification is that of the full shot."""

    PAIR = SystemKind(Variant.LIMIT_PAIR)
    TZITZEICA = SystemKind(Variant.TZITZEICA)
    # (system, anchor height, bracket, shots, whether the search finds a solution)
    SEARCHES = {
        "pair_log8": (PAIR, LOG8, (-5.0, 5.0), 1, True),
        "pair_four_shots": (PAIR, 1.83, (-4.5, 3.1), 1, True),
        "pair_wide_bracket": (PAIR, 2.05, (-5.5, 3.4), 1, True),
        "pair_no_shot_decays": (PAIR, 2.0, (-40.0, -20.0), 3, False),
        # one shot, which re-ignites and runs to mass_overflow, and one flat
        # shot that runs to mass_overflow
        "tzitzeica": (TZITZEICA, LOG8, (-1.0, 1.0), 1, False),
        "tzitzeica_flat": (TZITZEICA, 0.0, (-1.0, 1.0), 1, False),
    }

    @pytest.mark.parametrize("name", sorted(SEARCHES))
    def test_search_matches_full_shots(self, name, monkeypatch):
        from todalab import ode_engine

        system, anchor, bracket, shots, solvable = self.SEARCHES[name]
        made = []

        def recorded(spec, **kwargs):
            prof = shoot(spec, **kwargs)
            made.append(prof)
            return prof

        # the search looks shoot up on the module, as the bench tracer needs
        monkeypatch.setattr(ode_engine, "shoot", recorded)
        trace = []
        try:
            heights, found = find_decaying(system, 0, anchor, bracket, trace=trace)
        except TargetSearchError as exc:
            assert exc.trace == trace and not solvable
            found = None
        assert len(trace) == len(made) == shots and (found is not None) == solvable
        for cls, prof in zip(trace, made):
            full = shoot(prof.spec)
            assert prof.reason is not TerminationReason.STOPPED and prof == full
            assert cls == classify_shot(full, free_value=cls.free_value)
            assert cls.reason is prof.reason and cls.stats is prof.stats
        if found is not None:
            assert [c.kind for c in trace] == ["under"]
            assert heights == found.spec.init_heights
            assert found is made[-1]

    def test_failing_search_reports_full_shots(self):
        """The bracket's three shots run to r_max without settling; each
        over shot's witness is read at r_max, its last row."""
        with pytest.raises(TargetSearchError) as err:
            find_decaying(self.PAIR, 0, 2.0, (-40.0, -20.0))
        assert str(err.value) == (
            "no decaying solution found after 3 shots; 3 of them reached "
            "r_max = 1e+06 without decaying, so a larger r_max may let a shot "
            "decay")
        lines = [c.summary() for c in err.value.trace]
        walk = "walk: component 1 re-ignites at r=0.631"
        assert lines == [
            f"height=-30 over (unsettled at r_max) witness=-4.57; {walk}",
            f"height=-40 over (unsettled at r_max) witness=-2.04; {walk}",
            f"height=-20 over (unsettled at r_max) witness=-1.34; {walk}",
        ]
        for c in err.value.trace:
            assert c.reason is TerminationReason.REACHED_R_MAX and c.stats.nfev > 0


def _ends_first_search(system, anchor_component, anchor_height, search_interval,
                       trace, tol=SETTLE_TOL, r_max=ShootSpec.r_max):
    """The search as it ran before the midpoint was shot first: lo, then hi,
    then a bisection from 0.5 * (lo + hi) of up to 200 midpoints.  An OVER
    shot's side was its first re-igniting component, else its blown-up one,
    else its slowest-decaying one.  The oracle of ``TestMidpointFirst``; it
    keeps the other shot defaults and the n = 2 path."""

    def run(x):
        heights = _fill_heights(system, anchor_component, anchor_height, x)
        prof = shoot(ShootSpec(system, heights, r_max=r_max))
        cls = classify_shot(prof, mass_tol=tol, free_value=x)
        trace.append(cls)
        if cls.first_up is not None or cls.kind == "under":
            return cls, prof, cls.first_up
        blown = prof.reason is TerminationReason.COMPONENT_BLOW_UP
        return cls, prof, int(np.argmax(prof.values[-1] if blown
                                        else prof.witnesses[-1]))

    lo, hi = float(search_interval[0]), float(search_interval[1])
    if not lo < hi:
        raise BracketError("search interval is empty or inverted", trace)

    cls_lo, prof_lo, side_lo = run(lo)
    if cls_lo.kind == "under":
        return tuple(prof_lo.spec.init_heights), prof_lo
    cls_hi, prof_hi, side_hi = run(hi)
    if cls_hi.kind == "under":
        return tuple(prof_hi.spec.init_heights), prof_hi

    if side_lo == side_hi:
        raise BracketError(
            "interval endpoints re-ignite the same component "
            f"({side_lo}); no sign change to bisect",
            trace,
        )

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        cls, prof, side = run(mid)
        if cls.kind == "under":
            return tuple(prof.spec.init_heights), prof
        if side == side_lo:
            lo = mid
        elif side == side_hi:
            hi = mid
        else:
            raise TargetSearchError(
                f"ambiguous classification at height {mid!r} (component {side})",
                trace,
            )
        if hi - lo < 1e-14 * max(1.0, abs(lo) + abs(hi)):
            break
    undecided = sum(c.kind == "over" and c.reason is TerminationReason.REACHED_R_MAX
                    for c in trace)
    raise TargetSearchError(
        f"no decaying solution found after {len(trace)} shots"
        + (f"; {undecided} of them reached r_max = {r_max:g} without decaying, "
           "so a larger r_max may let a shot decay" if undecided else ""),
        trace,
    )


class TestMidpointFirst:
    """``find_decaying`` shoots the midpoint, then lo, then hi.  A midpoint
    that decays is the one shot.  Otherwise, where the ends-first search
    with its bisection finds a decaying shot, the search returns its heights
    and profile, and its trace is that search's with the midpoint's shot at
    the front; where it finds none, the search fails with
    ``TargetSearchError`` after the midpoint, lo and hi."""

    PAIR = SystemKind(Variant.LIMIT_PAIR)
    SINGULAR = SystemKind(Variant.LIMIT_PAIR, (1.0, 0.0))
    # (system, anchor component, anchor height, bracket, r_max)
    BRACKETS = {
        "readme": (PAIR, 0, LOG8, (-5.0, 5.0), 1e6),
        "four_shots": (PAIR, 0, 1.83, (-4.5, 3.1), 1e6),
        "wide_bracket": (PAIR, 0, 2.05, (-5.5, 3.4), 1e6),
        # the midpoint 60 blows up at the start
        "lo_decays": (PAIR, 0, LOG8, (0.0, 120.0), 1e6),
        "hi_decays": (PAIR, 0, LOG8, (-40.0, 0.0), 1e6),
        "ends_on_one_side": (PAIR, 0, 2.0, (-40.0, -20.0), 1e6),
        # no shot settles by r_max: the ends-first search bisects for 47-51
        # shots and finds none
        "settles_nowhere_by_1e3": (PAIR, 0, LOG8, (-5.0, 15.0), 1e3),
        "bisects_at_r_max_1e2": (PAIR, 0, 6.0, (5.0, 7.0), 1e2),
        "bisects_at_r_max_1.7e3": (PAIR, 1, 1.2000000000000002,
                                   (0.20000000000000018, 2.2), 1.7e3),
        "bisects_singular": (SINGULAR, 1, -0.3999999999999999,
                             (-0.3999999999999999, 119.6), 1e2),
    }

    @staticmethod
    def outcome(search_fn, system, comp, anchor, bracket, r_max):
        """(heights, profile) or the error, and the trace."""
        trace = []
        try:
            found = search_fn(system, comp, anchor, bracket, trace=trace, r_max=r_max)
        except TargetSearchError as exc:
            assert exc.trace is trace
            found = exc
        return found, trace

    @pytest.mark.parametrize("name", list(BRACKETS))
    def test_against_the_ends_first_search(self, name):
        system, comp, anchor, bracket, r_max = self.BRACKETS[name]
        lo, hi = bracket
        mid = 0.5 * (lo + hi)
        found, new = self.outcome(find_decaying, *self.BRACKETS[name])
        want, old = self.outcome(_ends_first_search, *self.BRACKETS[name])
        assert [c.free_value for c in new] == [mid, lo, hi][:len(new)]
        if new[0].kind == "under":
            assert len(new) == 1
            assert found[0] == _fill_heights(system, comp, anchor, mid)
        elif isinstance(want, tuple):
            assert found == want
            assert new[1:] == old
        else:
            assert type(found) is TargetSearchError and len(new) == 3
            assert all(c.kind == "over" for c in new)
            # the oracle shot the same two ends first
            assert new[1:] == old[:2]

    def test_a_success_only_the_bisection_found(self):
        """A bracket whose upper half blows up: the singular pair's midpoint
        62.8 and upper end 122.8 blow up at the start, and its lower end 2.8
        does not settle by r_max = 300.  The ends-first search's first
        bisection step moves hi to 62.8 and its next midpoint, 32.8, decays
        to the masses (24, 16); the midpoint-and-ends search fails after its
        three shots.  A narrower bracket whose midpoint decays finds it."""
        system, anchor = SystemKind(Variant.LIMIT_PAIR, (1.0, 0.0)), 2.8000000000000007
        bracket = (anchor, anchor + 120.0)
        want, old = self.outcome(_ends_first_search, system, 0, anchor, bracket, 300.0)
        found, new = self.outcome(find_decaying, system, 0, anchor, bracket, 300.0)
        mid = 0.5 * (bracket[0] + bracket[1])
        assert want[0] == (anchor, 0.5 * (anchor + mid)) and len(old) == 4
        assert want[0][1] == pytest.approx(32.8, abs=1e-12)
        assert type(found) is TargetSearchError
        assert [(c.free_value, c.fate) for c in new] == [
            (mid, "blow-up"), (anchor, "unsettled at r_max"), (bracket[1], "blow-up")]
        assert str(found) == (
            "no decaying solution found after 3 shots; 1 of them reached "
            "r_max = 300 without decaying, so a larger r_max may let a shot decay")
        assert find_decaying(system, 0, anchor, (anchor, mid), r_max=300.0) == want


class TestTargetSearchesAreOneShot:
    """The 12 searches that the benchmark's ``target`` workload draws for
    seed 1, each as (anchor, bracket, the free height that the search
    returned while a shot's class was its walk order: OVER whenever some
    w_i rose by _UP_JUMP).  Every limit-pair shot in these brackets decays,
    so each search is now one full shot of its midpoint.  The six whose
    midpoint was UNDER under the walk-order class keep their heights and
    state bit for bit; the other six returned a bisected height or a
    decaying end, and now return their midpoint."""

    PAIR = SystemKind(Variant.LIMIT_PAIR)
    SEED_1 = [
        (1.9797153717134917, (-4.592237324580678, 4.520314248630155), -0.03596153797526158),
        (2.086705995607668, (-3.4302851088963062, 4.299492556808122), 0.43460372395590796),
        (1.873772661409138, (-4.00866647424481, 4.793682605344888), 0.39250806555003903),
        (2.3254658748547135, (-3.4254623145555003, 4.536446683817379), 0.5554921846309395),
        (2.0831155692538985, (-4.310720679736576, 4.513181854786968), 0.10123058752519576),
        (2.1008218855249097, (-5.97036535749756, 4.435030930750907), 1.8336818586887902),
        (2.076456849441203, (-5.818675356079503, 3.003189205729174), 3.003189205729174),
        (2.222020135500512, (-5.492255470555962, 4.268514020988484), 1.8283216481023727),
        (2.1633562226058127, (-5.726169552789685, 3.99582116972228), 1.5653234890942889),
        (1.9747321367147037, (-5.531372904741231, 5.417048196226874), -0.057162354257178194),
        (2.3254573988467526, (-5.767115048372978, 5.3939645093440705), 2.6036946199148083),
        (1.9671263732473385, (-3.8496344547640224, 3.019925685704114), 1.30253565058708),
    ]

    @pytest.mark.parametrize("k", range(len(SEED_1)))
    def test_each_search_is_its_midpoint(self, k):
        anchor, bracket, walk_order_free = self.SEED_1[k]
        mid = 0.5 * (bracket[0] + bracket[1])
        trace = []
        heights, prof = find_decaying(self.PAIR, 0, anchor, bracket, trace=trace)
        assert heights == (anchor, mid)
        assert prof == shoot(ShootSpec(self.PAIR, (anchor, mid)))
        assert [(c.free_value, c.kind) for c in trace] == [(mid, "under")]
        # the workload's own checks
        totals, _ = total_masses(prof)
        assert np.all(np.abs(totals - (16.0, 12.0)) <= 0.01 * np.array((16.0, 12.0)))
        assert max(prof.values[-1] + 2.0 * math.log(prof.r_end)) <= -10.0
        # the six walk-order UNDER midpoints returned this very shot
        assert (walk_order_free == mid) == (k in (0, 1, 2, 3, 4, 9))


class TestOneReignitionRule:
    """``classify_shot`` reads first_up and r_up by one rule: the first row
    where some w_i passes its threshold, and the lowest component that
    passes there; neither when no row does."""

    @staticmethod
    def tied_profile():
        # thresholds max(w(first row), 0) + 0.5 = (0.6, 0.5, 0.7); components 1
        # and 2 first pass theirs on row 3, component 2 by more, and
        # component 0 passes on row 4
        w = np.array([[0.1, -1.0, 0.2],
                      [0.2, 0.0, 0.3],
                      [0.3, 0.4, 0.6],
                      [0.4, 0.9, 1.5],
                      [0.9, 1.0, 1.6],
                      [1.0, 1.1, 1.7]])
        grid = np.geomspace(1e-2, 1e3, len(w))
        u = -2.0 * np.log(grid)[:, None] - 20.0 + np.zeros_like(w)
        sigma = np.zeros_like(w)
        return RadialProfile(SystemKind(Variant.AFFINE_SU3), grid,
                             np.hstack([u, w, sigma]),
                             TerminationReason.REACHED_R_MAX)

    def test_classify_reports_the_lower_component_of_a_tied_row(self):
        p = self.tied_profile()
        cls = classify_shot(p)
        assert (cls.kind, cls.first_up, cls.r_up) == ("over", 1, float(p.grid[3]))

    def test_matches_the_per_component_loop(self):
        """The rule against a loop over components, on coarse random w
        whose rows often tie."""
        rng = np.random.default_rng(1616)
        base = self.tied_profile()
        for _ in range(200):
            w = rng.integers(-4, 5, size=base.log_derivs.shape) / 4.0
            state = base.state.copy()
            state[:, 3:6] = w
            p = dataclasses.replace(base, state=state)
            thresholds = np.maximum(w[0], 0.0) + 0.5
            want = (None, None)
            for i in range(3):
                hits = np.nonzero(w[:, i] > thresholds[i])[0]
                if hits.size and (want[0] is None or hits[0] < want[0]):
                    want = (int(hits[0]), i)
            cls = classify_shot(p)
            if want[0] is None:
                assert (cls.first_up, cls.r_up) == (None, None)
            else:
                assert (cls.first_up, cls.r_up) == (want[1], float(p.grid[want[0]]))


class TestDenseOutputScalarIsOnePointArray:
    def test_scalar_equals_one_point_array(self, monkeypatch):
        """A scalar evaluation of a real step's interpolant has the bits of
        the one-point array evaluation, at both step ends and inside."""
        made = []

        class Recorded(dop853._DenseStep):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(dop853, "_DenseStep", Recorded)
        shoot(ShootSpec(SystemKind(Variant.LIMIT_PAIR), (LOG8, 1.0), r_max=10.0))
        assert len(made) > 10
        for dense in (made[0], made[len(made) // 2], made[-1]):
            t0, h = dense.t_old, dense.h
            for t in (t0, t0 + h / 3.0, t0 + 0.5 * h, t0 + h):
                one = dense(np.array([t]))
                assert one.shape == (dense.y_old.size, 1)
                assert dense(t).tobytes() == one[:, 0].tobytes()


class TestProfileQueries:
    def test_witness_values(self, liouville_profile):
        w = liouville_profile.witness_at(1.0)
        assert w[0] == pytest.approx(math.log(2), abs=1e-8)

    def test_value_query_outside_grid(self, liouville_profile):
        with pytest.raises(ValueError):
            liouville_profile.value_at(1e9)

    def test_covers_the_grid_to_the_query_slack(self, liouville_profile):
        p = liouville_profile
        g0, g1 = p.grid[0], p.r_end
        assert p.covers(g0 * (1 - 1e-13), g1 * (1 + 1e-13))
        assert not p.covers(g0 * (1 - 1e-11), g1)
        assert not p.covers(g0, g1 * (1 + 1e-11))
        assert np.array_equal(p.value_at(g1 * (1 + 1e-13)), p.value_at(g1))

    def test_one_row_profile_returns_its_row(self):
        """Height 60 starts above the +50 guard: the shot has one row, and
        every query at r_start returns that row's block."""
        p = shot(Variant.LIOUVILLE, (60.0,), r_max=10.0)
        assert p.state.shape == (1, 3)
        r = p.spec.r_start
        assert p.value_at(r).tolist() == p.values[0].tolist()
        assert p.log_deriv_at(r).tolist() == p.log_derivs[0].tolist()
        assert p.mass_at(r).tolist() == p.masses[0].tolist()

    def test_off_node_queries_match_closed_form(self, liouville_profile):
        p = liouville_profile
        spec = BubbleSpec(1.0)
        rng = np.random.default_rng(20240607)
        for t in rng.uniform(math.log(1e-3), math.log(1e3), 200):
            r = math.exp(t)
            assert not np.any(p.grid == r)
            assert p.value_at(r)[0] == pytest.approx(bubble_value(spec, r), abs=1e-6)
            w = r * bubble_derivative(spec, r)
            assert p.log_deriv_at(r)[0] == pytest.approx(w, abs=1e-6)

    def test_queries_return_nodes_exactly(self, su3_ladder_profile):
        p = su3_ladder_profile
        for k in (0, 1, len(p.grid) // 2, len(p.grid) - 1):
            r = float(p.grid[k])
            assert np.array_equal(p.value_at(r), p.values[k])
            assert np.array_equal(p.log_deriv_at(r), p.log_derivs[k])
            assert np.array_equal(p.mass_at(r), p.masses[k])

    def test_state_is_stored_once(self, su3_ladder_profile):
        p = su3_ladder_profile
        n = p.n_components
        assert p.state.shape == (len(p.grid), 3 * n)
        for view in (p.values, p.log_derivs, p.masses):
            assert np.shares_memory(view, p.state)
        # the profile file stores the same matrix once, as it is
        assert profile_to_json_dict(p)["state"] == p.state.tolist()

    def test_json_round_trip_keeps_format(self, su3_ladder_profile):
        p = su3_ladder_profile
        d = json.loads(json.dumps(profile_to_json_dict(p)))
        assert d["format_version"] == FORMAT_VERSION == 2
        assert list(d) == ["format_version", "variant", "singular_weights", "reason",
                           "provenance", "shoot_spec", "grid", "state"]
        assert np.asarray(d["state"]).tobytes() == p.state.tobytes()
        assert profile_from_json_dict(d) == p

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: {**d, "shoot_spec": {**d["shoot_spec"], "r_max": None}},
            lambda d: {**d, "shoot_spec": {**d["shoot_spec"],
                                           "samples_per_decade": None}},
            lambda d: {**d, "shoot_spec": {**d["shoot_spec"], "init_heights": None}},
            lambda d: {**d, "grid": None},
            lambda d: [d],
        ],
        ids=["null_r_max", "null_samples_per_decade", "null_init_heights",
             "null_grid", "json_list"],
    )
    def test_malformed_json_dict_raises_value_error(self, liouville_profile, edit):
        with pytest.raises(ValueError):
            profile_from_json_dict(edit(profile_to_json_dict(liouville_profile)))

    def test_missing_key_reads_as_its_name(self, liouville_profile):
        d = profile_to_json_dict(liouville_profile)
        del d["grid"]
        with pytest.raises(ValueError) as err:
            profile_from_json_dict(d)
        assert str(err.value) == "'grid'"


class TestConstrainedTargetingFailsFast:
    @pytest.mark.parametrize("variant", [Variant.AFFINE_SU3, Variant.AFFINE_SU4])
    def test_positive_constraint_weights_cannot_decay(self, variant):
        """sum_i w_i u_i = 0 with w > 0 keeps max_i u_i >= 0, so the witness
        max_i u_i + 2 log r >= 2 log r > -10 past r = e^-5."""
        with pytest.raises(TargetSearchError, match="constraint") as err:
            find_decaying(SystemKind(variant), 0, LOG8, (-5.0, 5.0))
        assert err.value.trace == []
        assert str(err.value).endswith(
            "above the decay level -10 for r > e^(-10/2) = 0.00674, "
            "and r_max = 1e+06")

    def test_below_the_witness_radius_no_tail_converges(self):
        """Below e^{-DECAY_LEVEL/2} the witness bound does not bind, but
        sum_i d_i w_i = 0 keeps some w_i >= 0, so no su3 shot's tail
        converges: the search is refused before any shot."""
        sk = SystemKind(Variant.AFFINE_SU3)
        r_max = math.exp(-6.0)
        for heights in [(0.0, -1.0, 0.5), (0.0, 1.0, -0.5)]:
            assert not total_masses(shot(Variant.AFFINE_SU3, heights, r_max=r_max))[1].all()
        with pytest.raises(TargetSearchError, match="a converging tail needs") as err:
            find_decaying(sk, 0, 0.0, (-1.0, 1.0), r_max=r_max)
        assert err.value.trace == []

    @pytest.mark.parametrize("variant, weights, slope, r_witness", [
        (Variant.AFFINE_SU3, (1.0, 0.0, 0.0), "2.5", "0.0183"),
        (Variant.AFFINE_SU3, (0.0, 0.0, 2.0), "4", "0.0821"),
        (Variant.AFFINE_SU4, (1.0, 0.0, 0.0), "2.66667", "0.0235"),
    ])
    def test_singular_searches_are_refused_before_any_shot(
            self, variant, weights, slope, r_witness, monkeypatch):
        """With d > 0 and d^T A = 0, sum_i d_i u_i = 2 (d . b) log r + d . h,
        so the witness is at least (2 + 2 (d . b) / sum_i d_i) log r."""
        from todalab import ode_engine

        shots = []
        monkeypatch.setattr(ode_engine, "shoot",
                            lambda spec, **kw: shots.append(spec) or shoot(spec, **kw))
        with pytest.raises(TargetSearchError, match="constraint") as err:
            find_decaying(SystemKind(variant, weights), 0, 0.0, (-5.0, 5.0))
        assert err.value.trace == [] and shots == []
        assert (f"the decay witness max_i u_i + 2 log r at least {slope} log r, above "
                f"the decay level -10 for r > e^(-10/{slope}) = {r_witness}, "
                "and r_max = 1e+06") in str(err.value)


# floats from every region that has tripped ShootSpec's validation:
# non-finite, negative, zero, subnormal and near the float limits, plus
# moderate values that reach the later checks
_EDGY = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-300,
                     1e300, -1e300, 1e308, -1.0, 10.0, 1000.0]),
    st.floats(),
    st.floats(-1e3, 1e3),
)


def _spec_fields():
    """A variant, its weights (or none) and heights, and each other field
    drawn or left at its default."""
    def for_variant(variant):
        n = SystemKind(variant).n_components
        vector = st.lists(_EDGY, min_size=n, max_size=n).map(tuple)
        others = st.fixed_dictionaries({}, optional=dict(
            r_start=_EDGY, r_max=_EDGY, rel_tol=_EDGY, abs_tol=_EDGY,
            mass_guard=_EDGY, samples_per_decade=st.integers(-10, 10**9)))
        return st.tuples(st.just(variant), st.just(()) | vector, vector, others)

    return st.sampled_from(list(Variant)).flatmap(for_variant)


class TestSpecRefusesInputsWithoutACorrectShot:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_spec_fields())
    def test_any_fields_build_or_raise_value_error(self, fields):
        """Whatever the fields, building the spec succeeds or raises
        ``ValueError``, and warns of nothing (an r_start whose r0^(p+2)
        overflowed raised ``OverflowError``, a negative one ``TypeError``)."""
        variant, weights, heights, kwargs = fields
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                ShootSpec(SystemKind(variant, weights), heights, **kwargs)
            except ValueError:
                pass
        assert caught == []

    @pytest.mark.parametrize("height,message", [
        (math.nan, "initial heights must be finite"),
        (math.inf, "initial heights must be finite"),
        (-math.inf, "initial heights must be finite"),
        (800.0, "initial heights too large"),
        (200.0, "initial heights too large"),
    ], ids=["nan", "inf", "-inf", "800", "200"])
    def test_heights(self, height, message):
        """Height 200 exhausts the default start radius's shrinking: its
        series head there is about 1.8e4, far past the 0.5 an explicit
        r_start may have."""
        with pytest.raises(ValueError, match=message):
            ShootSpec(SystemKind(Variant.LIOUVILLE), (height,))

    @pytest.mark.parametrize("variant,weights,heights", [
        (Variant.AFFINE_SU3, (), (710.0, -710.0, 0.0)),
        (Variant.LIOUVILLE, (30.0,), (710.0,)),
        (Variant.LIOUVILLE, (1000.0,), (800.0,)),
    ], ids=["su3_710", "liouville_b30_710", "liouville_b1000_800"])
    def test_nan_series_head(self, variant, weights, heights):
        """e^710 overflows, so the series head is 0 * inf (su3's zero
        coefficient) or inf * 0 (r0^(p+2) underflows) at every start
        radius: NaN, which counts as too large.  These specs used to start
        from a NaN state and end with step_underflow."""
        with pytest.raises(ValueError, match="initial heights too large.*1e-41$"):
            ShootSpec(SystemKind(variant, weights), heights)

    @pytest.mark.parametrize("weight", [math.nan, math.inf], ids=["nan", "inf"])
    def test_weights(self, weight):
        with pytest.raises(ValueError, match="singular weights must be finite"):
            SystemKind(Variant.LIOUVILLE, (weight,))

    @pytest.mark.parametrize("weight", [1e200, 1e308], ids=["1e200", "1e308"])
    def test_weights_whose_series_exponent_overflows(self, weight):
        """The series head divides by (p + 2)^2, p = 2 e . b; that square
        overflowed (1e200) or p itself was inf (1e308)."""
        with pytest.raises(ValueError, match="singular weights too large"):
            ShootSpec(SystemKind(Variant.LIOUVILLE, (weight,)), (0.0,))

    @pytest.mark.parametrize("r_max", [1e300, math.inf], ids=["1e300", "inf"])
    def test_r_max_whose_square_overflows(self, r_max):
        with pytest.raises(ValueError, match="too large"):
            ShootSpec(SystemKind(Variant.LIOUVILLE), (0.0,), r_max=r_max)
        spec = ShootSpec(SystemKind(Variant.LIOUVILLE), (0.0,), r_max=1e154)
        assert spec.r_max == 1e154


class TestNanStepEndsTheRun:
    def test_nan_initial_state_underflows(self, isolated_python):
        res = isolated_python("-c", (
            "import numpy as np\n"
            "from todalab import dop853\n"
            "sol = dop853.integrate(lambda t, y, out: np.negative(y, out=out), 0.0, 1.0,\n"
            "                       np.array([np.nan]), 1e-8, 1e-10, np.linspace(0.0, 1.0, 5))\n"
            "print(sol.status, sol.stats.n_accepted, sol.stats.message, sep='|')\n"
        ))
        assert res.returncode == 0, res.stderr
        status, accepted, message = res.stdout.rstrip("\n").split("|")
        assert (status, accepted) == (STEP_UNDERFLOW, "0")
        assert message == "Required step size is less than spacing between numbers."

    def test_nan_rhs_shot_is_its_start_row(self, monkeypatch):
        """A shot whose first step underflows samples nothing: its profile
        is the start state at r_start, after the two rhs calls of the
        initial-step rule."""
        monkeypatch.setattr(SystemKind, "rhs", lambda self, u: np.full_like(u, np.nan))
        spec = ShootSpec(SystemKind(Variant.LIOUVILLE), (0.0,), r_max=10.0)
        p = shoot(spec)
        assert p.reason is TerminationReason.STEP_UNDERFLOW
        assert p.grid.tolist() == [math.exp(math.log(spec.r_start))]
        assert p.state.tobytes() == _series_state(spec).tobytes()
        assert (p.stats.nfev, p.stats.n_accepted) == (2, 0)
        assert p.stats.message == "Required step size is less than spacing between numbers."


class TestSearchErrors:
    def test_search_that_runs_out_of_radius_names_r_max(self):
        """At r_max = 10 no shot settles: the midpoint and both ends run to
        r = 10 with witnesses between -0.05 and 1.93, far above -10.  The
        midpoint 0 does not re-ignite; the error counts all 3 shots and
        names r_max."""
        with pytest.raises(TargetSearchError) as err:
            find_decaying(SystemKind(Variant.LIMIT_PAIR), 0, 2.0794415417,
                          (-5.0, 5.0), r_max=10.0)
        trace = err.value.trace
        assert all(c.reason is TerminationReason.REACHED_R_MAX
                   and c.fate == "unsettled at r_max" and c.witness_final > -0.05
                   for c in trace)
        assert [c.summary() for c in trace] == [
            "height=0 over (unsettled at r_max) witness=0.958; walk: no re-ignition",
            "height=-5 over (unsettled at r_max) witness=1.93; "
            "walk: component 1 re-ignites at r=0.5957",
            "height=5 over (unsettled at r_max) witness=-0.0406; "
            "walk: component 0 re-ignites at r=0.09441"]
        assert (trace[0].first_up, trace[0].r_up) == (None, None)
        assert str(err.value) == (
            "no decaying solution found after 3 shots; 3 of them reached "
            "r_max = 10 without decaying, so a larger r_max may let a shot decay")

    def test_bracket_error_is_a_target_search_error(self):
        with pytest.raises(TargetSearchError) as err:
            find_decaying(SystemKind(Variant.LIMIT_PAIR), 0, LOG8, (0.0, 0.0))
        assert isinstance(err.value, BracketError)
        assert err.value.trace == []

    @pytest.mark.parametrize("bracket", [
        (math.nan, 5.0), (-5.0, math.nan), (-math.inf, 5.0), (-5.0, math.inf),
        (math.inf, -math.inf), (1e308, 1.7e308)],
        ids=["nan_lo", "nan_hi", "inf_lo", "inf_hi", "inverted_infs",
             "midpoint_overflows"])
    def test_non_finite_bracket_is_refused_before_any_shot(self, bracket, monkeypatch):
        from todalab import ode_engine

        shots = []
        monkeypatch.setattr(ode_engine, "shoot",
                            lambda spec, **kw: shots.append(spec) or shoot(spec, **kw))
        trace = []
        with pytest.raises(BracketError, match="search interval must be finite") as err:
            find_decaying(SystemKind(Variant.LIMIT_PAIR), 0, LOG8, bracket, trace=trace)
        assert err.value.trace == trace == [] and shots == []

    @pytest.mark.parametrize("variant", [Variant.LIOUVILLE, Variant.TZITZEICA],
                             ids=["liouville", "tzitzeica"])
    def test_one_component_bracket_is_checked_too(self, variant, monkeypatch):
        """A one-component search shoots only its anchor, but its interval
        is checked as the limit pair's is, before that shot."""
        from todalab import ode_engine

        shots = []
        monkeypatch.setattr(ode_engine, "shoot",
                            lambda spec, **kw: shots.append(spec) or shoot(spec, **kw))
        for bracket, message in (((math.nan, 5.0), "search interval must be finite"),
                                 ((1.0, 1.0), "^search interval is empty or inverted$")):
            with pytest.raises(BracketError, match=message):
                find_decaying(SystemKind(variant), 0, 2.08, bracket)
        assert shots == []

    def test_one_component_search_that_does_not_decay(self):
        """A Tzitzeica shot at log 8 ends in mass overflow: the search fails
        after that one shot, whose free value is the anchor height."""
        trace = []
        with pytest.raises(TargetSearchError) as err:
            find_decaying(SystemKind(Variant.TZITZEICA), 0, LOG8, (-1.0, 1.0),
                          trace=trace)
        assert str(err.value) == "no decaying solution found after 1 shot"
        assert [(c.free_value, c.fate) for c in trace] == [(LOG8, "overflow")]

    def test_finite_inverted_bracket_keeps_its_message(self):
        with pytest.raises(BracketError, match="^search interval is empty or inverted$"):
            find_decaying(SystemKind(Variant.LIMIT_PAIR), 0, LOG8, (1.7e308, 1e308))
