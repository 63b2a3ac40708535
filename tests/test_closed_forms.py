"""Closed-form bubble family tests.

The bubble values are checked against quadrature (total masses) and
finite differences (operator residual), so the formulas are validated by
routes independent of their own derivation.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from todalab.closed_forms import (
    BubbleSpec,
    bubble_derivative,
    bubble_mass,
    bubble_operator_residual,
    bubble_second_derivative,
    bubble_total_mass,
    bubble_value,
    liouville_bubble,
    singular_bubble,
)

SPECS = [
    BubbleSpec(1.0, 0.0),
    BubbleSpec(0.5, 0.0),
    BubbleSpec(3.0, 0.0),
    BubbleSpec(1.0, 1.0),
    BubbleSpec(1.0, 2.0),
    BubbleSpec(0.7, 1.5),
]


class TestBubbleValues:
    def test_regular_at_origin(self):
        assert liouville_bubble(BubbleSpec(1.0), 0.0) == pytest.approx(math.log(8))

    def test_regular_at_one(self):
        assert liouville_bubble(BubbleSpec(1.0), 1.0) == pytest.approx(math.log(2))

    def test_singular_example(self):
        assert singular_bubble(BubbleSpec(1.0, 1.0), 1.0) == pytest.approx(
            math.log(8)
        )

    def test_regular_rejects_singular_weight(self):
        with pytest.raises(ValueError):
            liouville_bubble(BubbleSpec(1.0, 1.0), 1.0)

    def test_singular_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            singular_bubble(BubbleSpec(1.0, 1.0), 0.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BubbleSpec(0.0)
        with pytest.raises(ValueError):
            BubbleSpec(1.0, -0.5)

    @pytest.mark.parametrize("mu,b", [(1.0, math.nan), (math.inf, 0.0), (1.0, math.inf)],
                             ids=["b_nan", "mu_inf", "b_inf"])
    def test_spec_refuses_non_finite_values(self, mu, b):
        with pytest.raises(ValueError, match="must be finite"):
            BubbleSpec(mu, b)


class TestMassesByQuadrature:
    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_total_mass(self, spec):
        val, err = quad(
            lambda s: math.exp(bubble_value(spec, s)) * s, 0, np.inf, limit=200
        )
        assert val == pytest.approx(bubble_total_mass(spec), rel=1e-8)
        assert bubble_total_mass(spec) == 4 * (1 + spec.b)

    @pytest.mark.parametrize("spec", SPECS[:4], ids=str)
    @pytest.mark.parametrize("r", [0.3, 1.0, 7.0])
    def test_cumulative_mass(self, spec, r):
        val, _ = quad(lambda s: math.exp(bubble_value(spec, s)) * s, 0, r, limit=200)
        assert bubble_mass(spec, r) == pytest.approx(val, rel=1e-10)

    def test_mass_at_unity_regular(self):
        # sigma(1) = 4 mu^2/(1+mu^2); mu = 1 gives half the total
        assert bubble_mass(BubbleSpec(1.0), 1.0) == pytest.approx(2.0)


class TestOperatorResidual:
    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_residual_on_log_grid(self, spec):
        r = np.logspace(-3, 3, 61)
        res = bubble_operator_residual(spec, r)
        assert np.max(np.abs(res)) < 1e-9

    def test_residual_spot_value(self):
        assert abs(bubble_operator_residual(BubbleSpec(1.0, 2.0), 3.0)) < 1e-10

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_derivatives_against_finite_differences(self, spec):
        # independent check of the exact-derivative formulas
        for r in (0.05, 0.8, 4.0, 50.0):
            h = r * 1e-6
            fd1 = (bubble_value(spec, r + h) - bubble_value(spec, r - h)) / (2 * h)
            assert bubble_derivative(spec, r) == pytest.approx(fd1, rel=1e-6, abs=1e-8)
            h = r * 1e-4
            fd2 = (
                bubble_value(spec, r + h)
                - 2 * bubble_value(spec, r)
                + bubble_value(spec, r - h)
            ) / h**2
            assert bubble_second_derivative(spec, r) == pytest.approx(
                fd2, rel=1e-4, abs=1e-6
            )


class TestScalingAndFarField:
    @pytest.mark.parametrize("mu", [0.25, 1.0, 5.0])
    def test_scaling_covariance(self, mu):
        r = np.logspace(-2, 2, 41)
        lhs = liouville_bubble(BubbleSpec(mu), r)
        rhs = liouville_bubble(BubbleSpec(1.0), mu * r) + 2 * math.log(mu)
        assert np.allclose(lhs, rhs, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_far_field_constant(self, spec):
        r = 1e8
        limit = math.log(8 * (1 + spec.b) ** 2 / spec.mu**2)
        got = bubble_value(spec, r) + (4 + 2 * spec.b) * math.log(r)
        assert got == pytest.approx(limit, abs=1e-6)
