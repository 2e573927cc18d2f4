"""Tests for the radial profile: gluing, inversion, log helpers, serde.

Frozen reference numbers were computed independently with mpmath at 40
significant digits (tools/freeze_oracles.py) and pasted here.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tula.transform import (
    G1Report,
    GinSpec,
    RadialTransform,
    d2log_g_over_r,
    d2log_gprime,
    dlog_g_over_r,
    dlog_gprime,
    g_eval,
    g_inverse,
    ginbeta2_profile,
    ginbeta2_transform,
    h_forward,
    h_inverse,
    log_det_jacobian,
    log_g_over_r,
    log_gprime,
    tail_exponent,
    transform_from_dict,
    transform_from_json,
    transform_to_dict,
    transform_to_json,
    verify_g1_assumption,
    warmup_profile,
    warmup_transform,
)

# mpmath, 40 digits: root of g(r) = 1.5 for the b = 1 profile
G_INVERSE_1P5_B1 = 0.6594523327744627


class TestGinSpec:
    def test_rejects_linear_coefficient(self):
        """A linear term in the exponent makes the origin limits blow up."""
        with pytest.raises(ValueError, match="linear coefficient"):
            GinSpec(scale=1.0, log_poly=(0.0, 0.5, 1.0))

    def test_rejects_bad_scale(self):
        for scale in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                GinSpec(scale=scale, log_poly=(1.0,))

    def test_rejects_empty_polynomial(self):
        with pytest.raises(ValueError, match="constant coefficient"):
            GinSpec(scale=1.0, log_poly=())

    def test_derivatives_match_finite_differences(self):
        """Closed-form profile derivatives agree with central differences."""
        spec = ginbeta2_profile(1.3)
        r = np.linspace(0.05, 0.8, 40)
        h = 1e-6
        for order in (1, 2, 3):
            lower = spec.deriv(r - h, order - 1) if order > 1 else spec.value(r - h)
            upper = spec.deriv(r + h, order - 1) if order > 1 else spec.value(r + h)
            fd = (upper - lower) / (2 * h)
            np.testing.assert_allclose(spec.deriv(r, order), fd, rtol=1e-7, atol=1e-7)

    def test_value_at_zero(self):
        assert ginbeta2_profile(2.0).value(np.asarray(0.0)) == 0.0


class TestRadialTransformValidation:
    def test_beta_range(self):
        spec = ginbeta2_profile(1.0)
        for beta in (1.0, 0.5, 2.5):
            with pytest.raises(ValueError, match="beta"):
                RadialTransform(b=1.0, beta=beta, gin=spec, dimension=2)

    def test_b_positive(self):
        with pytest.raises(ValueError, match="b must be positive"):
            RadialTransform(b=-1.0, beta=2.0, gin=ginbeta2_profile(1.0), dimension=2)

    def test_dimension_positive(self):
        with pytest.raises(ValueError, match="dimension"):
            ginbeta2_transform(1.0, 0)

    def test_quadratic_tail_needs_scale_and_knot(self):
        with pytest.raises(ValueError, match="quadratic tail"):
            RadialTransform(
                b=0.0, beta=2.0, gin=warmup_profile(2), dimension=2,
                tail="quadratic", tail_scale=0.0, tail_knot=1.0,
            )

    def test_unknown_tail_kind(self):
        with pytest.raises(ValueError, match="unknown tail"):
            RadialTransform(b=1.0, beta=2.0, gin=ginbeta2_profile(1.0), dimension=2, tail="cubic")

    def test_knot_and_seam(self):
        t = ginbeta2_transform(4.0, 3)
        assert t.knot == pytest.approx(0.5)
        assert t.seam == math.e
        w = warmup_transform(2, knot=1.5)
        assert w.knot == 1.5
        assert w.seam == pytest.approx(2 * 1.5**2)


class TestGluing:
    """The bulk profile must meet the tail branch smoothly at the knot."""

    @pytest.mark.parametrize("b", [0.25, 0.5, 1.0, 2.0, 5.0])
    def test_exponential_kind_is_c3(self, b):
        t = ginbeta2_transform(b, 2)
        knot = t.knot
        tail_vals = []
        bulk_vals = []
        for order in range(4):
            bulk = t.gin.deriv(np.asarray(knot), order) if order else t.gin.value(np.asarray(knot))
            # tail formulas evaluated just above the knot stand in for the
            # one-sided limit; at the knot itself g_eval uses the tail branch
            tail = g_eval(t, knot, order)
            bulk_vals.append(float(bulk))
            tail_vals.append(float(tail))
        np.testing.assert_allclose(bulk_vals, tail_vals, rtol=1e-8)

    def test_exponential_knot_value_is_e(self):
        for b in (0.3, 1.0, 3.0):
            t = ginbeta2_transform(b, 1)
            assert float(t.gin.value(np.asarray(t.knot))) == pytest.approx(math.e, rel=1e-12)

    @pytest.mark.parametrize("dimension", [1, 2, 5])
    def test_warmup_kind_is_c2_not_c3(self, dimension):
        """The warm-up glue matches value through second derivative; the
        third derivative jumps by 6 d / R by construction."""
        t = warmup_transform(dimension, knot=1.0)
        for order in range(3):
            bulk = t.gin.deriv(np.asarray(1.0), order) if order else t.gin.value(np.asarray(1.0))
            assert float(bulk) == pytest.approx(g_eval(t, 1.0, order), rel=1e-10)
        jump = float(t.gin.deriv(np.asarray(1.0), 3)) - g_eval(t, 1.0, 3)
        assert jump == pytest.approx(-6.0 * dimension, rel=1e-6)

    def test_verify_passes_for_standard_profiles(self):
        for t in (ginbeta2_transform(0.5, 2), ginbeta2_transform(2.0, 4),
                  warmup_transform(1), warmup_transform(3, knot=0.7)):
            report = verify_g1_assumption(t)
            assert isinstance(report, G1Report)
            assert report.passed, [c for c in report.checks if not c.passed]

    def test_verify_flags_a_broken_glue(self):
        """A bulk profile that does not meet exp(b r^2) at the knot must
        fail the knot checks (and the report carries which ones)."""
        broken = GinSpec(scale=1.0, log_poly=(0.5, 0.0, 1.0))
        t = RadialTransform(b=1.0, beta=2.0, gin=broken, dimension=2)
        report = verify_g1_assumption(t)
        assert not report.passed
        assert not report["knot_order0"].passed
        with pytest.raises(KeyError):
            report["no_such_check"]

    def test_report_serializes(self):
        d = verify_g1_assumption(ginbeta2_transform(1.0, 2)).to_dict()
        assert d["passed"] is True
        assert {c["name"] for c in d["checks"]} >= {"origin_value", "knot_order0", "bulk_monotone"}


class TestEvaluation:
    def test_bulk_against_direct_formula(self):
        """g_in(r) = c r exp(p(r)) evaluated straight from the coefficients."""
        b = 1.7
        t = ginbeta2_transform(b, 2)
        coeffs = (47 / 60, 0.0, b, -(10 / 3) * b**1.5, (15 / 4) * b**2, -(6 / 5) * b**2.5)
        r = np.linspace(0.01, t.knot * 0.999, 50)
        direct = math.sqrt(b) * r * np.exp(sum(c * r**k for k, c in enumerate(coeffs)))
        np.testing.assert_allclose(g_eval(t, r), direct, rtol=1e-13)

    def test_tail_against_direct_formula(self):
        t = ginbeta2_transform(0.5, 3)
        r = np.linspace(t.knot, 10.0, 50)
        np.testing.assert_allclose(g_eval(t, r), np.exp(0.5 * r**2), rtol=1e-13)
        np.testing.assert_allclose(g_eval(t, r, 1), r * np.exp(0.5 * r**2), rtol=1e-13)

    def test_scalar_in_scalar_out(self):
        t = ginbeta2_transform(1.0, 2)
        assert isinstance(g_eval(t, 0.5), float)
        assert isinstance(g_eval(t, np.array([0.5, 2.0])), np.ndarray)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            g_eval(ginbeta2_transform(1.0, 2), -0.1)

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError, match="order"):
            g_eval(ginbeta2_transform(1.0, 2), 0.5, 4)

    def test_quadratic_tail_values(self):
        t = warmup_transform(2, knot=1.0)
        r = np.array([1.0, 2.0, 5.0])
        np.testing.assert_allclose(g_eval(t, r), 2.0 * r**2, rtol=1e-14)
        np.testing.assert_allclose(g_eval(t, r, 1), 4.0 * r, rtol=1e-14)
        np.testing.assert_allclose(g_eval(t, r, 2), 6.0 - 2.0 * r**0, rtol=1e-14)
        np.testing.assert_allclose(g_eval(t, r, 3), 0.0, atol=0)


class TestLogHelpers:
    """Log-space forms must agree with direct logs where those don't overflow
    and with finite differences of each other."""

    @pytest.fixture(params=[ginbeta2_transform(1.0, 2), ginbeta2_transform(0.4, 5),
                            warmup_transform(3, knot=0.8)],
                    ids=["b1", "b0.4", "warmup"])
    def t(self, request):
        return request.param

    def test_log_gprime_matches_direct(self, t):
        r = np.linspace(0.05, 5.0, 80)
        np.testing.assert_allclose(log_gprime(t, r), np.log(g_eval(t, r, 1)), rtol=1e-12)

    def test_log_g_over_r_matches_direct(self, t):
        r = np.linspace(0.05, 5.0, 80)
        np.testing.assert_allclose(log_g_over_r(t, r), np.log(g_eval(t, r) / r), rtol=1e-12)

    def test_first_log_derivatives(self, t):
        # avoid straddling the knot with the difference stencil
        r = np.concatenate([np.linspace(0.05, t.knot * 0.98, 40),
                            np.linspace(t.knot * 1.02, 5.0, 40)])
        h = 1e-6
        fd = (np.asarray(log_gprime(t, r + h)) - np.asarray(log_gprime(t, r - h))) / (2 * h)
        np.testing.assert_allclose(dlog_gprime(t, r), fd, rtol=1e-6, atol=1e-8)
        fd2 = (np.asarray(log_g_over_r(t, r + h)) - np.asarray(log_g_over_r(t, r - h))) / (2 * h)
        np.testing.assert_allclose(dlog_g_over_r(t, r), fd2, rtol=1e-6, atol=1e-8)

    def test_second_log_derivatives(self, t):
        r = np.concatenate([np.linspace(0.1, t.knot * 0.98, 40),
                            np.linspace(t.knot * 1.02, 5.0, 40)])
        h = 1e-5
        fd = (np.asarray(dlog_gprime(t, r + h)) - np.asarray(dlog_gprime(t, r - h))) / (2 * h)
        np.testing.assert_allclose(d2log_gprime(t, r), fd, rtol=1e-5, atol=1e-6)
        fd2 = (np.asarray(dlog_g_over_r(t, r + h)) - np.asarray(dlog_g_over_r(t, r - h))) / (2 * h)
        np.testing.assert_allclose(d2log_g_over_r(t, r), fd2, rtol=1e-5, atol=1e-6)

    def test_log_space_survives_deep_tail(self):
        """Radii whose raw profile value overflows still get exact logs."""
        t = ginbeta2_transform(1.0, 3)
        r = np.array([30.0, 100.0, 500.0])
        assert not np.all(np.isfinite(g_eval(t, r)))  # raw value overflows
        np.testing.assert_allclose(log_gprime(t, r), np.log(2.0 * r) + r**2, rtol=1e-14)
        np.testing.assert_allclose(log_g_over_r(t, r), r**2 - np.log(r), rtol=1e-14)

    def test_origin_values_are_finite(self, t):
        c, p0 = t.gin.scale, t.gin.log_poly[0]
        assert log_g_over_r(t, 0.0) == pytest.approx(math.log(c) + p0, rel=1e-12)
        assert np.isfinite(dlog_g_over_r(t, 0.0))
        assert np.isfinite(d2log_g_over_r(t, 0.0))

    def test_tail_exponent_values(self):
        t = ginbeta2_transform(0.5, 2)
        u, du, d2u = tail_exponent(t, 3.0)
        assert u == pytest.approx(4.5)
        assert du == pytest.approx(3.0)
        assert d2u == pytest.approx(1.0)
        with pytest.raises(ValueError, match="exponential tail"):
            tail_exponent(warmup_transform(2), 3.0)


class TestInverse:
    def test_frozen_bulk_root(self):
        """g(r) = 1.5 for b = 1; root from the 40-digit offline solve."""
        t = ginbeta2_transform(1.0, 2)
        assert g_inverse(t, 1.5) == pytest.approx(G_INVERSE_1P5_B1, abs=1e-11)

    def test_tail_closed_form(self):
        t = ginbeta2_transform(1.0, 2)
        assert g_inverse(t, math.exp(9.0)) == pytest.approx(3.0, rel=1e-14)
        w = warmup_transform(2, knot=1.0)
        assert g_inverse(w, 18.0) == pytest.approx(3.0, rel=1e-14)

    @pytest.mark.parametrize("b", [0.25, 1.0, 2.0])
    def test_round_trip_thousand_points(self, b):
        """g_inverse(g(r)) = r to 1e-9 relative across both branches."""
        t = ginbeta2_transform(b, 2)
        r_hi = min(20.0, math.sqrt(700.0 / b))  # keep exp(b r^2) in range
        r = np.geomspace(1e-3, r_hi, 1000)
        back = g_inverse(t, g_eval(t, r))
        np.testing.assert_allclose(back, r, rtol=1e-9)

    def test_round_trip_warmup(self):
        t = warmup_transform(3, knot=1.0)
        r = np.geomspace(1e-3, 50.0, 1000)
        np.testing.assert_allclose(g_inverse(t, g_eval(t, r)), r, rtol=1e-9)

    def test_zero_and_tiny_values(self):
        """The bulk stopping rule is relative, so tiny values keep their
        digits down to the smallest normal floats, and subnormals return."""
        t = ginbeta2_transform(1.0, 2)
        assert g_inverse(t, 0.0) == 0.0
        s = np.geomspace(1e-300, 0.5, 601)
        np.testing.assert_allclose(g_eval(t, g_inverse(t, s)), s, rtol=1e-11)
        assert 0.0 <= g_inverse(t, 5e-324) < 1e-323

    @given(st.floats(0.2, 3.0), st.floats(1e-3, 0.999))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, b, frac):
        """Bulk round trip for random profiles and radii below the knot."""
        t = ginbeta2_transform(b, 2)
        r = frac * t.knot
        assert g_inverse(t, t.gin.value(np.asarray(r))) == pytest.approx(r, rel=1e-9)

    @given(st.floats(0.2, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_profile_is_increasing(self, b):
        t = ginbeta2_transform(b, 2)
        r = np.linspace(1e-4, t.knot, 256)
        assert np.all(np.asarray(g_eval(t, r, 1)) > 0.0)


class TestVectorMaps:
    def test_direction_preserved(self):
        t = ginbeta2_transform(1.0, 3)
        x = np.array([0.3, -0.4, 1.2])
        y = h_forward(t, x)
        np.testing.assert_allclose(y / np.linalg.norm(y), x / np.linalg.norm(x), rtol=1e-12)
        assert np.linalg.norm(y) == pytest.approx(g_eval(t, float(np.linalg.norm(x))), rel=1e-12)

    def test_origin_is_fixed(self):
        t = ginbeta2_transform(1.0, 2)
        np.testing.assert_array_equal(h_forward(t, np.zeros(2)), np.zeros(2))
        np.testing.assert_array_equal(h_inverse(t, np.zeros(2)), np.zeros(2))

    def test_round_trip_batch(self):
        t = ginbeta2_transform(0.5, 4)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((200, 4)) * 3.0
        back = h_inverse(t, h_forward(t, x))
        np.testing.assert_allclose(back, x, rtol=1e-9, atol=1e-12)

    def test_dimension_mismatch(self):
        t = ginbeta2_transform(1.0, 3)
        with pytest.raises(ValueError, match="dimension"):
            h_forward(t, np.zeros(2))

    def test_log_det_jacobian_frozen(self):
        """d=1, b=1, r=2: log g' = log(2 b r) + b r^2 = log 4 + 4."""
        t1 = ginbeta2_transform(1.0, 1)
        assert log_det_jacobian(t1, 2.0) == pytest.approx(5.386294361119891, rel=1e-14)
        # origin limit, d = 2: each of the d log-factors tends to log c + p(0)
        t2 = ginbeta2_transform(1.0, 2)
        assert log_det_jacobian(t2, 0.0) == pytest.approx(2 * 47.0 / 60.0, rel=1e-14)

    def test_log_det_jacobian_matches_parts(self):
        t = ginbeta2_transform(0.7, 4)
        r = np.linspace(0.1, 3.0, 30)
        expected = np.asarray(log_gprime(t, r)) + 3 * np.asarray(log_g_over_r(t, r))
        np.testing.assert_allclose(log_det_jacobian(t, r), expected, rtol=1e-14)


class TestSerde:
    def test_dict_round_trip_exponential(self):
        t = ginbeta2_transform(1.3, 4)
        back = transform_from_dict(transform_to_dict(t))
        assert back.b == t.b and back.beta == t.beta and back.dimension == 4
        assert back.gin.scale == t.gin.scale
        assert back.gin.log_poly == t.gin.log_poly

    def test_dict_round_trip_quadratic(self):
        t = warmup_transform(3, knot=0.8)
        back = transform_from_dict(transform_to_dict(t))
        assert back.tail == "quadratic"
        assert back.tail_scale == t.tail_scale and back.tail_knot == t.tail_knot
        assert back.gin.log_poly == t.gin.log_poly

    def test_json_round_trip_is_bit_exact(self):
        """repr-level float fidelity through the JSON text form."""
        t = ginbeta2_transform(0.1 + 0.2, 2)  # deliberately non-representable input
        back = transform_from_json(transform_to_json(t))
        assert back.b == t.b
        assert back.gin.log_poly == t.gin.log_poly
        # and the text itself is valid JSON with the expected keys
        payload = json.loads(transform_to_json(t))
        assert set(payload) == {"b", "beta", "dimension", "gin"}

    @given(st.floats(0.2, 4.0), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, b, dimension):
        t = ginbeta2_transform(b, dimension)
        back = transform_from_json(transform_to_json(t))
        assert back == t
