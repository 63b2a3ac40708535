"""Radial integration engine tests against the closed-form oracles."""

import dataclasses
import json
import math

import numpy as np
import pytest

from todalab.closed_forms import (
    BubbleSpec,
    bubble_derivative,
    bubble_mass,
    bubble_value,
    from_w_eta,
    VarsWEta,
)
from todalab.dop853 import STEP_UNDERFLOW
from todalab.ode_engine import (
    BracketError,
    ShootSpec,
    TargetSearchError,
    TerminationReason,
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

LOG8 = math.log(8.0)


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
        p = shoot(
            ShootSpec(SystemKind(Variant.LIOUVILLE, (b,)), (c,), r_max=1e4)
        )
        cf = bubble_value(BubbleSpec(1.0, b), p.grid)
        rel = np.max(np.abs(p.values[:, 0] - cf) / np.maximum(np.abs(cf), 1.0))
        assert rel < 1e-8

    @pytest.mark.parametrize("b", [1.0, 2.0, 3.0])
    def test_total_mass_quantized(self, b):
        c = math.log(8 * (1 + b) ** 2)
        p = shoot(
            ShootSpec(SystemKind(Variant.LIOUVILLE, (b,)), (c,), r_max=1e4)
        )
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
        p = shoot(
            ShootSpec(SystemKind(Variant.AFFINE_SU4), (0.0, 0.0, 0.0), r_max=100.0)
        )
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

    def test_eta_zero_initial_data_builds_symmetric_triple(self):
        u = from_w_eta(VarsWEta(6.0, 0.0))
        p = shoot(ShootSpec(SystemKind(Variant.AFFINE_SU3), u, r_max=10.0))
        assert np.max(np.abs(p.values[:, 0] - p.values[:, 1])) == 0.0


class TestTermination:
    def test_sinh_gordon_blow_up(self):
        # a deep negative start rebounds past the guard (turning height
        # is about a third of the starting depth)
        p = shoot(ShootSpec(SystemKind(Variant.SINH_GORDON), (-160.0,), r_max=1e3))
        assert p.reason is TerminationReason.COMPONENT_BLOW_UP
        assert p.values.max() >= 49.0
        assert p.r_end < 1e3

    def test_start_above_guard(self):
        p = shoot(ShootSpec(SystemKind(Variant.LIOUVILLE), (60.0,), r_max=10.0))
        assert p.reason is TerminationReason.COMPONENT_BLOW_UP
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

    def test_stats_record_wall_time_and_event_radius(self, liouville_profile):
        blown = shoot(ShootSpec(SystemKind(Variant.SINH_GORDON), (-160.0,), r_max=1e3))
        assert blown.stats.wall_s > 0
        assert blown.stats.r_event == pytest.approx(blown.r_end, rel=1e-12)
        assert liouville_profile.stats.wall_s > 0
        assert liouville_profile.stats.r_event is None
        start = shoot(ShootSpec(SystemKind(Variant.LIOUVILLE), (60.0,), r_max=10.0))
        assert start.stats.r_event == start.spec.r_start
        assert start.r_end == pytest.approx(start.spec.r_start, rel=1e-12)
        # a rescaled profile reports the event at its own radius
        assert rescale(blown, 1e-3).stats.r_event == blown.stats.r_event / 1e-3
        assert sorted(blown.stats.to_json_dict()) == ["n_accepted", "n_rejected", "nfev"]


class TestRescale:
    def test_identity(self, liouville_profile):
        q = rescale(liouville_profile, 1.0)
        assert np.array_equal(q.grid, liouville_profile.grid)
        assert np.array_equal(q.values, liouville_profile.values)

    def test_rejects_nonpositive(self, liouville_profile):
        with pytest.raises(ValueError):
            rescale(liouville_profile, 0.0)

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

    def test_same_side_bracket(self):
        with pytest.raises(BracketError) as err:
            find_decaying(
                SystemKind(Variant.LIMIT_PAIR), 0, LOG8, (-9.0, -8.0), r_max=1e5
            )
        assert err.value.trace  # classifier trace attached

    def test_classifier_orientation(self):
        sk = SystemKind(Variant.LIMIT_PAIR)
        low = shoot(ShootSpec(sk, (LOG8, -5.0), r_max=1e6))
        high = shoot(ShootSpec(sk, (LOG8, 5.0), r_max=1e6))
        assert classify_shot(low).first_up == 1  # free component re-ignites
        assert classify_shot(high).first_up == 0  # anchored component re-ignites


class TestProfileQueries:
    def test_witness_values(self, liouville_profile):
        w = liouville_profile.witness_at(1.0)
        assert w[0] == pytest.approx(math.log(2), abs=1e-8)

    def test_value_query_outside_grid(self, liouville_profile):
        with pytest.raises(ValueError):
            liouville_profile.value_at(1e9)

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
        np.testing.assert_array_equal(p.derivs, p.log_derivs / p.grid[:, None])

    def test_json_round_trip_keeps_format(self, su3_ladder_profile):
        p = su3_ladder_profile
        d = json.loads(json.dumps(profile_to_json_dict(p)))
        assert d["format_version"] == FORMAT_VERSION == 1
        assert np.array_equal(np.asarray(d["derivs"]), p.derivs)
        back = profile_from_json_dict(d)
        for name in ("grid", "values", "derivs", "masses"):
            assert np.array_equal(getattr(back, name), getattr(p, name))

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

    def test_witness_radius_is_the_threshold(self):
        sk = SystemKind(Variant.AFFINE_SU3)
        # below e^{-n_detect/2} an UNDER verdict stays possible: the search
        # runs (and fails for other reasons) instead of refusing up front
        with pytest.raises((TargetSearchError, BracketError)) as err:
            find_decaying(sk, 0, 0.0, (-1.0, 1.0), r_max=math.exp(-6.0))
        assert err.value.trace
        # n_detect moves the threshold radius: with n_detect = 20 it is e^-10
        with pytest.raises(TargetSearchError, match="constraint"):
            find_decaying(sk, 0, 0.0, (-1.0, 1.0), r_max=math.exp(-9.0), n_detect=20.0)


class TestSpecRefusesInputsWithoutACorrectShot:
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
            "sol = dop853.integrate(lambda t, y: -y, 0.0, 1.0, np.array([np.nan]),\n"
            "                       1e-8, 1e-10, np.linspace(0.0, 1.0, 5))\n"
            "print(sol.status, sol.stats.n_accepted, sol.stats.message, sep='|')\n"
        ))
        assert res.returncode == 0, res.stderr
        status, accepted, message = res.stdout.rstrip("\n").split("|")
        assert (status, accepted) == (STEP_UNDERFLOW, "0")
        assert message == "Required step size is less than spacing between numbers."


class TestSearchErrors:
    def test_bracket_error_is_a_target_search_error(self):
        with pytest.raises(TargetSearchError) as err:
            find_decaying(SystemKind(Variant.LIMIT_PAIR), 0, LOG8, (0.0, 0.0))
        assert isinstance(err.value, BracketError)
        assert err.value.trace == []
