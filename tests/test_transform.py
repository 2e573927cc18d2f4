"""Tests for the radial profile: gluing, inversion, log-Jacobian terms, serde.

Frozen reference numbers were computed independently with mpmath at 40
significant digits (tools/freeze_oracles.py) and pasted here.
"""

import dataclasses
import json
import math
import re
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from hypothesis import given, settings
from hypothesis import strategies as st

from tula.analysis import RadialQuadrature, check_assumption
from tula.dynamics import TransformedPotential
from tula.targets import make_example, parse_target_name
from tula.transform import (
    G1Check,
    G1Report,
    GinSpec,
    RadialTransform,
    bulk_jet,
    g_eval,
    g_inverse,
    ginbeta2_profile,
    ginbeta2_transform,
    h_forward,
    h_inverse,
    log_det_jacobian,
    log_jacobian_terms,
    tail_jet,
    _bounded_towards_zero,
    _tail_profile,
    _tail_root,
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

# mpmath, 40 digits: g and its first three derivatives at 0.9 knot (bulk)
# and 1.1 knot (tail), for ginbeta2_transform(b, 2) and warmup_transform(2)
PROFILE_JETS = [
    ("ginbeta2", 0.25, 0.9, ("2.247368143743945538987213829353944165839",
                             "2.033318813430911081651676085518144061511",
                             "2.805705723691303364818342184935488840924",
                             "5.810125367592820833538864646093430835757")),
    ("ginbeta2", 0.25, 1.1, ("3.353484652549023681003589427375712039867",
                             "3.688833117803926049103948370113283243854",
                             "5.734458755858830494516137920812467588172",
                             "9.996737749248639593071700083006997590843")),
    ("ginbeta2", 1.0, 0.9, ("2.247368143743945538987213829353944165839",
                            "4.066637626861822163303352171036288123021",
                            "11.2228228947652134592733687397419553637",
                            "46.48100294074256666831091716874744668606")),
    ("ginbeta2", 1.0, 1.1, ("3.353484652549023681003589427375712039867",
                            "7.377666235607852098207896740226566487707",
                            "22.93783502343532197806455168324987035269",
                            "79.97390199398911674457360066405598072675")),
    ("ginbeta2", 5.0, 0.9, ("2.247368143743945538987213829353944165839",
                            "9.093278173521459128166882896594818072571",
                            "56.11411447382606729636684369870977681849",
                            "519.6734111893400413817262923476169617894")),
    ("ginbeta2", 5.0, 1.1, ("3.353484652549023681003589427375712039867",
                            "16.49696321812413677465759652501812894816",
                            "114.6891751171766098903227584162493517634",
                            "894.1354064223282131864417316559825889902")),
    ("warmup", None, 0.9, ("1.621664890292232842929121418147602721328",
                           "3.553247959618092406951363818430080629399",
                           "4.810506730562879505264945774793048712548",
                           "-4.534642072745487191888587072109123718418")),
    ("warmup", None, 1.1, ("2.42", "4.4", "4.0", "0.0")),
]


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

    @given(st.floats(0.05, 5.0), st.floats(0.0, 1.0), st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_deriv_is_the_bulk_jet(self, b, frac, order):
        """GinSpec.deriv reads the bulk jet's profile, bit for bit."""
        spec = ginbeta2_profile(b)
        r = np.asarray(frac * b**-0.5)
        jet = bulk_jet(spec, r, (order,))
        assert len(jet.profile) == order + 1
        assert np.float64(spec.deriv(r, order)).tobytes() == jet.profile[order].tobytes()

    @given(st.one_of(
               st.floats(0.05, 5.0).map(lambda b: (ginbeta2_profile(b), b**-0.5)),
               st.tuples(st.sampled_from([1, 2, 5]), st.floats(0.2, 5.0)).map(
                   lambda dk: (warmup_profile(*dk), dk[1]))),
           st.lists(st.floats(0.0, 2.0), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_bulk_jet_matches_per_order_polyval_bitwise(self, spec_knot, fracs):
        """bulk_jet equals, bit for bit and for every non-empty set of orders,
        the profile pieces and log terms rebuilt from one polyval per
        derivative of p by the identities of transform's comment block, in
        the jet's operation order, on radii either side of the knot, on 0,
        the knot, NaN and inf, and past the root of 1 + r p'.  It does so on
        the whole batch and on each radius alone, which the jet works in
        Python floats, and raises nowhere the array pass gives inf or NaN."""
        spec, knot = spec_knot
        r = np.concatenate([knot * np.array(fracs),
                            [0.0, knot, np.nan, np.inf, 1.8 * knot, 3.0 * knot]])
        # past the knot 1 + r p' may turn negative, and log1p gives NaN on both sides
        with np.errstate(all="ignore"):
            p = [npoly.polyval(r, npoly.polyder(spec.log_poly, j)) for j in range(4)]
            c, lc = spec.scale, math.log(spec.scale)
            ep, q = np.exp(p[0]), p[1]
            rq = r * q
            den = 1.0 + rq
            assert (den[-2:] < 0.0).all()  # both profile kinds' roots lie below 1.7 knots
            profile = [c * r * ep, c * den * ep, c * (2.0 * q + r * p[2] + rq * q) * ep,
                       c * (3.0 * q * q + 3.0 * p[2] + 3.0 * r * q * p[2] + r * q**3
                            + r * p[3]) * ep]
            lgp = [lc + np.log1p(r * q) + p[0], q + (q + r * p[2]) / den,
                   p[2] + ((2.0 * p[2] + r * p[3]) * den - (q + r * p[2]) ** 2) / (den * den)]
            lgr = [lc + p[0], q, p[2]]
            for n in range(1, 16):
                orders = [j for j in range(4) if n >> j & 1]
                top, logs = max(orders), [j for j in orders if j <= 2]
                for at in [slice(None), *(slice(i, i + 1) for i in range(r.size))]:
                    for jet, asked in ((bulk_jet(spec, r[at], orders), logs),
                                       (bulk_jet(spec, r[at], orders, logs=False), [])):
                        assert [a.tobytes() for a in jet.profile] == [
                            a[at].tobytes() for a in profile[: top + 1]], (at, orders)
                        assert list(jet.log_gprime) == list(jet.log_g_over_r) == asked
                        assert all(jet.log_gprime[j].tobytes() == lgp[j][at].tobytes()
                                   and jet.log_g_over_r[j].tobytes() == lgr[j][at].tobytes()
                                   for j in asked), (at, orders)

    def test_bulk_jet_at_one_radius_where_one_plus_r_q_vanishes(self):
        """Where 1 + r p' is exactly zero (p = -r**2/2 at r = 1) the jet at
        that radius alone gives numpy's infinities, as the array pass does,
        and does not raise ZeroDivisionError."""
        spec = GinSpec(scale=1.0, log_poly=(0.0, 0.0, -0.5))
        r = np.array([1.0, 0.5])
        with np.errstate(all="ignore"):
            batch = bulk_jet(spec, r, range(3))
            alone = bulk_jet(spec, r[:1], range(3))
        assert batch.profile[1][0] == 0.0
        for j in range(3):
            assert alone.log_gprime[j].tobytes() == batch.log_gprime[j][:1].tobytes()
            assert alone.log_g_over_r[j].tobytes() == batch.log_g_over_r[j][:1].tobytes()
        assert alone.log_gprime[0][0] == alone.log_gprime[1][0] == alone.log_gprime[2][0] == -np.inf

    @pytest.mark.parametrize("spec", [
        *(ginbeta2_profile(b) for b in (0.1, 0.25, 0.75, 1.0, 3.0)),
        warmup_profile(1), warmup_profile(2), warmup_profile(5, knot=2.0),
    ])
    def test_log_profile_matches_polyval_bitwise(self, spec):
        """The profile exponent and its derivatives are evaluated by one
        Horner pass in numpy's polyval order, on the rows of coefficients
        the spec holds per derivative, highest power first, so they equal
        polyval bit for bit for array and scalar radii alike."""
        r = np.concatenate([[0.0], np.geomspace(1e-9, 3.0, 400), [np.inf]])
        assert len(spec._rows) == 4
        for order in range(4):
            coeffs = npoly.polyder(spec.log_poly, order)
            held = np.array(spec._rows[order][::-1])
            assert held.dtype == np.float64 and held.tobytes() == coeffs.tobytes()
            with np.errstate(invalid="ignore"):  # inf * 0 starts both at nan
                assert spec.log_profile(r, order).tobytes() == npoly.polyval(r, coeffs).tobytes()
            for x in (0.0, 0.37, 1.0):
                want = np.float64(npoly.polyval(x, coeffs)).tobytes()
                for arg in (x, np.float64(x), np.asarray(x), np.array([x])):
                    assert np.asarray(spec.log_profile(arg, order)).tobytes() == want
        values = (spec.scale, math.log(spec.scale), 1.0, 2.0)
        assert spec._constants == values
        for held, value in zip(spec._array_constants, values, strict=True):
            assert held.shape == () and float(held) == value


def _warned(call):
    """``call()`` and the (category, message) of each warning it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = call()
    return out, [(w.category, str(w.message)) for w in caught]


def _on_bulk(scale, log_poly):
    """A transform whose bulk profile is ``scale r e^p`` with ``p`` of ``log_poly``."""
    return RadialTransform(b=1.0, beta=2.0, dimension=2,
                           gin=GinSpec(scale=scale, log_poly=log_poly))


class TestJetAtOneRadius:
    """One radius, as a Python float or a one-element array, is worked in
    Python floats, whose arithmetic overflows and makes NaN without a
    warning; where that could show, the radius goes through the array pass,
    so it warns as a batch of that radius does and raises under
    np.errstate(over="raise") where the batch raises."""

    CASES = [
        # bulk: Horner overflows (the case that warned nothing), 1 + r p' < 0
        # (log1p of a value below -1), exp(p) overflows, and NaN
        ("bulk", lambda: ginbeta2_transform(1.0, 2), 1e100, (1,)),
        ("bulk", lambda: ginbeta2_transform(1.0, 2), 3.0, (0, 1, 2)),
        ("bulk", lambda: RadialTransform(b=1.0, beta=2.0, dimension=2,
                                         gin=GinSpec(scale=1.0, log_poly=(0.0, 0.0, 1.0))),
         30.0, (0, 1, 2, 3)),
        ("bulk", lambda: ginbeta2_transform(1.0, 2), math.nan, (0, 1, 2)),
        # c r overflows in Python floats alone, where p and 1 + r p' are fine
        ("bulk", lambda: RadialTransform(b=1.0, beta=2.0, dimension=2,
                                         gin=GinSpec(scale=1e300, log_poly=(0.0,))),
         1e10, (0, 1)),
        # tail: b r**beta overflows, the quadratic kind's r**3 overflows, and
        # inf, where u - log r is inf - inf
        ("tail", lambda: ginbeta2_transform(1.0, 2), 1e200, (0, 1, 2)),
        ("tail", lambda: warmup_transform(2), 1e120, (0, 1, 2, 3)),
        ("tail", lambda: ginbeta2_transform(0.37, 3), math.inf, (0, 1, 2)),
        # the edges of the float pass's range predicate.  Horner overflows
        # downward to p = -inf, which only the array pass warns of
        ("bulk-no-logs", lambda: _on_bulk(1.0, (0.0, 0.0, -1.0)), 1e200, (0,)),
        # p = 709 and one ulp above it, where c r e^p overflows
        ("bulk", lambda: _on_bulk(1.0, (709.0,)), 4.0, (0, 1)),
        ("bulk", lambda: _on_bulk(1.0, (math.nextafter(709.0, math.inf),)), 4.0, (0, 1)),
        # 1 + r q = 1e150, and |q| = 1e100 with order 3 (at p = 0.57, 1 + r q
        # = 2.1); the large scale makes the profile overflow
        ("bulk", lambda: _on_bulk(1e160, (-5e149, 0.0, 5e149)), 1.0, (0, 1, 2)),
        ("bulk", lambda: _on_bulk(1e300, (0.0, 0.0, 1e100 * 2.0**331)), 2.0**-332, (3,)),
        # the tail's bound 1e100 and one ulp below it, where b r**2 overflows
        ("tail", lambda: ginbeta2_transform(1e110, 2), 1e100, (0, 1, 2)),
        ("tail", lambda: ginbeta2_transform(1e110, 2), math.nextafter(1e100, 0.0), (0, 1, 2)),
    ]

    @staticmethod
    def _jet(branch, t, r, orders):
        if branch == "tail":
            return tail_jet(t, r, orders)
        return bulk_jet(t.gin, r, orders, logs=branch == "bulk")

    @staticmethod
    def _values(jet):
        return np.concatenate([np.ravel(v) for v in (*jet.profile, *jet.log_gprime.values(),
                                                    *jet.log_g_over_r.values())])

    @pytest.mark.parametrize("branch, build, radius, orders", CASES)
    def test_warns_and_raises_as_the_array_pass(self, branch, build, radius, orders):
        t = build()
        calls = {"float": radius, "one": np.array([radius]), "two": np.array([radius, radius])}
        runs = {name: _warned(lambda r=r: self._jet(branch, t, r, orders))
                for name, r in calls.items()}
        batch = self._values(runs["two"][0])[::2]
        jet = runs["float"][0]
        assert all(type(v) is float for v in (*jet.profile, *jet.log_gprime.values(),
                                              *jet.log_g_over_r.values()))
        for name in ("float", "one"):
            assert self._values(runs[name][0]).tobytes() == batch.tobytes(), name
            assert runs[name][1] == runs["two"][1], name
        assert (radius != radius) == (not runs["two"][1])  # NaN alone warns nothing
        overflows = any("overflow" in message for _, message in runs["two"][1])
        for r in calls.values():
            with np.errstate(over="raise", invalid="ignore", divide="ignore"):
                if overflows:
                    with pytest.raises(FloatingPointError):
                        self._jet(branch, t, r, orders)
                else:
                    self._jet(branch, t, r, orders)

    @pytest.mark.parametrize("branch", ["bulk", "tail"])
    def test_float_gives_the_bits_of_its_place_in_a_batch(self, branch):
        """A float radius gets a jet of Python floats with its batch entry's
        bits, across the knot and far either side of it."""
        t = ginbeta2_transform(0.37, 3)
        unit = np.geomspace(1e-6, 1e3, 301) if branch == "bulk" else np.geomspace(1.0, 1e6, 301)
        r = t.knot * unit
        for orders in ((0,), (1,), (1, 2), (0, 1, 2, 3)):
            with np.errstate(all="ignore"):
                batch = [self._jet(branch, t, r, orders)]
                singles = [self._jet(branch, t, x, orders) for x in r.tolist()]
            for i, jet in enumerate(singles):
                values = self._values(jet)
                assert values.tobytes() == self._values(batch[0])[i::r.size].tobytes(), (orders, i)


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

    @pytest.mark.parametrize("build, message", [
        (lambda: ginbeta2_profile(math.inf), "b must be positive and finite"),
        (lambda: ginbeta2_profile(math.nan), "b must be positive and finite"),
        (lambda: ginbeta2_transform(math.inf, 2), "b must be positive and finite"),
        (lambda: warmup_profile(2, knot=math.inf), "knot must be positive and finite"),
        (lambda: warmup_profile(2.5), "dimension must be an integer >= 1"),
        (lambda: warmup_profile(True), "dimension must be an integer >= 1"),
        (lambda: warmup_transform(2.5), "dimension must be an integer >= 1"),
    ], ids=["ginbeta2-inf", "ginbeta2-nan", "transform-inf", "warmup-knot-inf",
            "warmup-2.5", "warmup-True", "warmup-transform-2.5"])
    def test_profile_constructors_name_the_input(self, build, message):
        """ginbeta2_profile(inf) and warmup_profile(2, knot=inf) said "scale
        must be positive and finite", and warmup_profile(2.5) was accepted."""
        with pytest.raises(ValueError, match=f"^{message}"):
            build()

    @pytest.mark.parametrize("b", [1e200, 1.55e123])
    def test_ginbeta2_b_whose_coefficients_overflow_is_named(self, b):
        """1e200 raised a bare OverflowError from b**2.5; at 1.55e123 the
        coefficients are finite and the third derivative's 72 b**2.5 is not."""
        with pytest.raises(ValueError, match=f"^b = {re.escape(str(b))} is too large"):
            ginbeta2_profile(b)
        assert ginbeta2_profile(1e122).log_poly[5] == -(6.0 / 5.0) * 1e122**2.5

    def test_gin_spec_rejects_coefficients_that_are_not_finite(self):
        for log_poly in ((0.0, 0.0, math.inf), (math.nan,), (0.0, 0.0, 0.0, 1e308)):
            with pytest.raises(ValueError, match="finite coefficients"):
                GinSpec(scale=1.0, log_poly=log_poly)

    def test_quadratic_tail_needs_scale_and_knot(self):
        with pytest.raises(ValueError, match="quadratic tail"):
            RadialTransform(
                b=0.0, beta=2.0, gin=warmup_profile(2), dimension=2,
                tail="quadratic", tail_scale=0.0, tail_knot=1.0,
            )

    def test_quadratic_tail_has_beta_two(self):
        """Both tail kinds read the power of their exponent from beta."""
        with pytest.raises(ValueError, match="beta = 2"):
            RadialTransform(
                b=0.0, beta=1.5, gin=warmup_profile(2), dimension=2,
                tail="quadratic", tail_scale=2.0, tail_knot=1.0,
            )

    @pytest.mark.parametrize("kind, name", [
        ("exp", "tail_scale"), ("exp", "tail_knot"), ("quadratic", "b")])
    def test_the_other_kinds_constants_are_refused(self, kind, name):
        """No formula of one tail kind reads the other's constants, but ``==``
        and ``hash`` did: an exponential transform with tail_scale = 5 failed
        its dict round trip, and a zoo transform given one silently lost its
        target's closed phi."""
        t = ginbeta2_transform(0.5, 2) if kind == "exp" else warmup_transform(2)
        with pytest.raises(ValueError, match=f"^the {kind} tail takes no {name}, got 5.0$"):
            dataclasses.replace(t, **{name: 5.0})
        if kind == "exp":
            with pytest.raises(ValueError, match=f"takes no {name}"):
                dataclasses.replace(make_example("example6", 2).transform, **{name: 1.0})

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

    @pytest.mark.parametrize("name, params", [
        ("t2_3", {}), ("t1_1", {}), ("warmup", {"dimension": 2}),
        ("example2", {"dimension": 2, "upsilon": 1.0}),
        *((f"example{n}", {"dimension": d}) for n in range(3, 7) for d in (1, 3)),
    ])
    def test_radial_force_stays_bounded_for_the_zoo(self, name, params):
        """With a target the report adds ``limit_radial_force``,
        ``f'(g_in(r)) g_in'(r) / r``, and every zoo kind passes on its own
        transform."""
        entry = parse_target_name(name, **params)
        report = verify_g1_assumption(entry.transform, entry.potential)
        assert report.passed, [c for c in report.checks if not c.passed]
        assert report["limit_radial_force"].passed

    @pytest.mark.parametrize("name, limit", [("t2_3", 7.98), ("t1_1", 4.79)])
    def test_radial_force_of_the_t_reads_its_origin_limit(self, name, limit):
        """For the t, ``f'(s) = (d + kappa) s / (1 + s^2)`` and ``g_in(r) ~ c r
        e^(47/60)`` with ``c^2 = b``, so the force term tends to ``(d + kappa)
        b e^(47/30)``, which the check measures near 0."""
        entry = parse_target_name(name)
        d, kappa, b = entry.dimension, entry.potential.moment_max, entry.transform.b
        exact = (d + kappa) * b * math.exp(47.0 / 30.0)
        check = verify_g1_assumption(entry.transform, entry.potential)["limit_radial_force"]
        assert check.measure == pytest.approx(exact, rel=1e-6)
        assert exact == pytest.approx(limit, abs=0.005)

    def test_radial_force_flags_a_force_that_diverges(self):
        """``f'(s) = 1/s`` makes the force term grow like ``1/r^2``."""
        entry = parse_target_name("t2_3")
        target = dataclasses.replace(entry.potential, dvalue=lambda s: 1.0 / s)
        report = verify_g1_assumption(entry.transform, target)
        assert not report.passed and not report["limit_radial_force"].passed
        assert [c.name for c in report.checks if not c.passed] == ["limit_radial_force"]

    def test_report_serializes(self):
        d = verify_g1_assumption(ginbeta2_transform(1.0, 2)).to_dict()
        assert d["passed"] is True
        assert {c["name"] for c in d["checks"]} >= {"origin_value", "knot_order0", "bulk_monotone"}

    def test_a_limit_that_is_not_finite_fails_with_its_largest_magnitude(self):
        """A NaN fails the check and is skipped in its measure; an inf is the
        measure.  A limit that is NaN everywhere measured 0.0, the best a
        check can show; its measure is NaN."""
        radii = np.geomspace(1e-8, 1.0, 5)
        assert _bounded_towards_zero(radii, np.array([math.nan, 1.0, 2.0, 3.0, 4.0])) == (False, 4.0)
        assert _bounded_towards_zero(radii, np.array([math.inf, 1.0, 2.0, 3.0, 4.0])) == (
            False, math.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ok, worst = _bounded_towards_zero(radii, np.full(5, math.nan))
        assert not ok and math.isnan(worst)

    def test_check_serializes(self):
        """A force that is infinite near the origin fails its check, whose
        dict holds the fields as JSON-ready values."""
        entry = parse_target_name("t2_3")
        target = dataclasses.replace(entry.potential,
                                     dvalue=lambda s: np.where(s < 1e-4, math.inf, 1.0))
        check = verify_g1_assumption(entry.transform, target)["limit_radial_force"]
        assert isinstance(check, G1Check)
        assert check.to_dict() == {"name": "limit_radial_force", "measure": math.inf,
                                   "tolerance": math.inf, "passed": False,
                                   "detail": "max |value| near 0"}
        assert json.loads(json.dumps(check.to_dict()))["passed"] is False


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

    @pytest.mark.parametrize("kind,b,frac,expected", PROFILE_JETS)
    def test_frozen_derivatives_either_side_of_knot(self, kind, b, frac, expected):
        """g_eval orders 0-3 against 40-digit values: the bulk jet below the
        knot, the composed exp tail g = e^u and the quadratic tail above."""
        t = ginbeta2_transform(b, 2) if kind == "ginbeta2" else warmup_transform(2)
        r = frac * t.knot
        for order, value in enumerate(expected):
            assert g_eval(t, r, order) == pytest.approx(float(value), rel=1e-13, abs=0.0)


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
        (lgp,), _ = log_jacobian_terms(t, r, 0)
        np.testing.assert_allclose(lgp, np.log(g_eval(t, r, 1)), rtol=1e-12)

    def test_log_g_over_r_matches_direct(self, t):
        r = np.linspace(0.05, 5.0, 80)
        _, (lgr,) = log_jacobian_terms(t, r, 0)
        np.testing.assert_allclose(lgr, np.log(g_eval(t, r) / r), rtol=1e-12)

    def test_first_log_derivatives(self, t):
        # avoid straddling the knot with the difference stencil
        r = np.concatenate([np.linspace(0.05, t.knot * 0.98, 40),
                            np.linspace(t.knot * 1.02, 5.0, 40)])
        h = 1e-6
        (lgp, dlgp), (lgr, dlgr) = log_jacobian_terms(t, r, 1)
        (lgp_hi,), (lgr_hi,) = log_jacobian_terms(t, r + h, 0)
        (lgp_lo,), (lgr_lo,) = log_jacobian_terms(t, r - h, 0)
        fd = (lgp_hi - lgp_lo) / (2 * h)
        np.testing.assert_allclose(dlgp, fd, rtol=1e-6, atol=1e-8)
        fd2 = (lgr_hi - lgr_lo) / (2 * h)
        np.testing.assert_allclose(dlgr, fd2, rtol=1e-6, atol=1e-8)

    def test_second_log_derivatives(self, t):
        r = np.concatenate([np.linspace(0.1, t.knot * 0.98, 40),
                            np.linspace(t.knot * 1.02, 5.0, 40)])
        h = 1e-5
        lgp, lgr = log_jacobian_terms(t, r, 2)
        lgp_hi, lgr_hi = log_jacobian_terms(t, r + h, 1)
        lgp_lo, lgr_lo = log_jacobian_terms(t, r - h, 1)
        fd = (lgp_hi[1] - lgp_lo[1]) / (2 * h)
        np.testing.assert_allclose(lgp[2], fd, rtol=1e-5, atol=1e-6)
        fd2 = (lgr_hi[1] - lgr_lo[1]) / (2 * h)
        np.testing.assert_allclose(lgr[2], fd2, rtol=1e-5, atol=1e-6)

    def test_order_outside_the_log_tuples_rejected(self):
        """The jets carry log terms to order 2; order 3 used to come back
        with uninitialised entries."""
        t = ginbeta2_transform(1.0, 2)
        for order in (-1, 3):
            with pytest.raises(ValueError, match="order"):
                log_jacobian_terms(t, np.array([0.5, 2.0]), order)

    def test_log_space_survives_deep_tail(self):
        """Radii whose raw profile value overflows still get exact logs."""
        t = ginbeta2_transform(1.0, 3)
        r = np.array([30.0, 100.0, 500.0])
        assert not np.all(np.isfinite(g_eval(t, r)))  # raw value overflows
        (lgp,), (lgr,) = log_jacobian_terms(t, r, 0)
        np.testing.assert_allclose(lgp, np.log(2.0 * r) + r**2, rtol=1e-14)
        np.testing.assert_allclose(lgr, r**2 - np.log(r), rtol=1e-14)

    def test_origin_values_are_finite(self, t):
        c, p0 = t.gin.scale, t.gin.log_poly[0]
        _, lgr = log_jacobian_terms(t, 0.0, 2)
        assert lgr[0] == pytest.approx(math.log(c) + p0, rel=1e-12)
        assert np.isfinite(lgr[1])
        assert np.isfinite(lgr[2])

    def test_tail_exponent_values(self):
        t = ginbeta2_transform(0.5, 2)
        u, du, d2u = tail_jet(t, 3.0, (2,)).profile
        assert u == pytest.approx(4.5)
        assert du == pytest.approx(3.0)
        assert d2u == pytest.approx(1.0)


class TestTailExponent:
    """Every tail is g = e^u: one jet of u, one set of log terms, one root."""

    @pytest.fixture(params=[ginbeta2_transform(0.5, 2),
                            RadialTransform(b=0.75, beta=1.5, gin=ginbeta2_profile(0.75), dimension=3),
                            warmup_transform(2), warmup_transform(3, knot=0.8)],
                    ids=["b0.5", "beta1.5", "warmup", "warmup-knot0.8"])
    def t(self, request):
        return request.param

    def test_log_terms_match_the_profile_in_closed_form(self, t):
        """log g', log(g/r) and their first two derivatives from the jets, on
        radii either side of the knot, against g_eval's g to g''' in closed
        form; the tail jet's u is log g."""
        r = t.knot * np.array([0.5, 0.9, 0.999, 1.0, 1.001, 1.5, 3.0, 6.0])
        g, g1, g2, g3 = (g_eval(t, r, k) for k in range(4))
        want_lgp = (np.log(g1), g2 / g1, g3 / g1 - (g2 / g1) ** 2)
        want_lgr = (np.log(g / r), g1 / g - 1.0 / r, g2 / g - (g1 / g) ** 2 + 1.0 / r**2)
        lgp, lgr = log_jacobian_terms(t, r, 2)
        tail = r >= t.knot
        jet = tail_jet(t, r[tail], range(3))
        for k in range(3):
            np.testing.assert_allclose(lgp[k], want_lgp[k], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(lgr[k], want_lgr[k], rtol=1e-12, atol=1e-12)
            np.testing.assert_array_equal(jet.log_gprime[k], lgp[k][tail])
            np.testing.assert_array_equal(jet.log_g_over_r[k], lgr[k][tail])
        np.testing.assert_allclose(jet.profile[0], np.log(g[tail]), rtol=1e-14)

    def test_root_inverts_the_exponent(self, t):
        r = t.knot * np.array([1.0, 1.5, 10.0, 1e3, 1e6])
        np.testing.assert_allclose(_tail_root(t, _tail_profile(t, r, 0)[0]), r, rtol=1e-14)

    def test_exponential_kind_is_the_closed_form_bit_for_bit(self):
        """On the exponential kind u is b r**beta, and g's tail inverse and
        A5's psi^-1 are (log s / b)**(1/beta), to the last bit."""
        entry = make_example("t", 3, kappa=2.0, b=0.75)
        t = entry.transform
        r = np.geomspace(t.knot, 50.0, 97)
        assert _tail_profile(t, r, 0)[0].tobytes() == (t.b * r**t.beta).tobytes()
        s = np.geomspace(math.e, 1e300, 97)
        closed = (np.log(s) / t.b) ** (1.0 / t.beta)
        assert g_inverse(t, s).tobytes() == closed.tobytes()
        assert _tail_root(t, np.log(s)).tobytes() == closed.tobytes()
        lam = np.geomspace(math.e, 100.0, 16)
        report = check_assumption(TransformedPotential(entry.potential, t), "A5", grid=lam,
                                  candidate_constants={"m": 0.0, "alpha1": 1.0, "C_tail": 2.0})
        oracle = RadialQuadrature(entry.potential)
        sf = np.array([oracle.sf(x) for x in lam])
        psi_inv = (np.log(lam) / t.b) ** (1.0 / t.beta)
        assert report.margins.tobytes() == (2.0 * np.exp(-(psi_inv / 2.0)) - sf).tobytes()


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

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_quadratic_tail_root_keeps_its_digits(self, d):
        """The quadratic tail's root is taken from s itself, within 2 ulp of
        the 40-digit sqrt(s/a) from the seam to 1e308; a root through log s
        lost digits like eps log(s)/2 (1.6e-14 relative at s = 1e300)."""
        t = warmup_transform(d)
        s = np.geomspace(t.seam, 1e308, 601)
        with localcontext() as ctx:
            ctx.prec = 40
            for value, root in zip(s, g_inverse(t, s)):
                exact = (Decimal(float(value)) / Decimal(t.tail_scale)).sqrt()
                ulp = Decimal(math.ulp(float(exact)))
                assert abs(Decimal(float(root)) - exact) <= 2 * ulp, value

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

    @pytest.mark.parametrize("t", [ginbeta2_transform(1.0, 2), warmup_transform(2)])
    def test_nan_maps_to_nan(self, t):
        """NaN is neither a tail value nor positive, yet must not become 0."""
        assert math.isnan(g_inverse(t, math.nan))
        out = g_inverse(t, np.array([0.0, math.nan, 1.5, 2.0 * t.seam]))
        assert out[0] == 0.0 and math.isnan(out[1]) and np.isfinite(out[2:]).all()

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

    def test_nan_coordinate_maps_to_nan(self):
        """A point with a NaN coordinate has a NaN radius, not the origin's."""
        t = ginbeta2_transform(1.0, 2)
        for h in (h_forward, h_inverse):
            assert np.isnan(h(t, [math.nan, 0.0])).all()
            out = h(t, np.array([[math.nan, 0.0], [0.0, 0.0], [0.3, 0.4]]))
            assert np.isnan(out[0]).all() and (out[1] == 0.0).all() and np.isfinite(out[2]).all()

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
        (lgp,), (lgr,) = log_jacobian_terms(t, r, 0)
        expected = lgp + 3 * lgr
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
