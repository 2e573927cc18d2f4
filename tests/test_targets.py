"""Target zoo tests.

The load-bearing check here is the dual-route identity: every benchmark
entry carries the closed radial form phi its transformed potential was
built to equal, and the x-side potential pulled back through the profile,
f(g(r)) - log g'(r) - (d-1) log(g(r)/r), must agree with it.
"""

import functools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tula.targets import (
    ExampleKind,
    _hook,
    IsotropicPotential,
    available_targets,
    make_example,
    make_multivariate_t,
    parse_target_name,
    radial_log_density,
)
from tula.transform import (
    g_eval,
    ginbeta2_transform,
    log_jacobian_terms,
    transform_from_json,
    transform_to_json,
)

# mpmath, 40 digits
T_D2_K1_VALUE_AT_1 = 1.0397207708399180  # (3/2) log 2
# example6, d = 2, vartheta = 1 (b = 1), bulk branch |x| < e:
# f = u^2 + log g'(u) + log(g(u)/u) at u = g^{-1}(|x|), and f'
EX6_D2_BULK = {
    0.5: (1.681628911384157763411261, 0.2788627028758865731527105),
    1.5: (2.165074183215356729264432, 1.058204708299940676865976),
    2.5: (3.442427380486742887859631, 1.193938647797065783742645),
}

# f, f', f'' at |x| and F, F', F'' at t = log |x| on the tail, from the
# closed tail formulas in tools/freeze_oracles.py (mpmath, 40 digits).  The
# warm-up's F(1e4) = f(e^1e4) leaves double range.
TAIL_ORACLES = {
    ("example6", 2): {
        "x": {5.0: (5.52146091786224643321951, 0.6, -0.12),
              50.0: (12.42921619684438348527348, 0.06, -0.0012),
              1e6: (42.13967885445276762174108, 0.000003, -3.0e-12)},
        "t": {2.0: (6.693147180559945309417232, 3.0, 0.0),
              40.0: (120.6931471805599453094172, 3.0, 0.0),
              1e4: (30000.69314718055994530942, 3.0, 0.0)},
    },
    ("example3", 4): {
        "x": {5.0: (11.003370746655066547394, 1.018349797958213838461099,
                    -0.1933125623871485615172236),
              50.0: (23.00385849936852973836818, 0.1049987496853888746609991,
                     -0.002099396967563874270359701),
              1e6: (74.50630280265803276984826, 0.000005152141042300139927875166,
                    -5.15950452406227121195216e-12)},
        "t": {2.0: (13.00815479355254814674652, 5.166666666666666666666667,
                    0.1388888888888888888888889),
              40.0: (207.982143178759381801647, 5.065909090909090909090909,
                     -0.001441115702479338842975207),
              1e4: (50024.16688489321412940265, 5.000299840063974410235906,
                    -2.996801918976511754354636e-8)},
    },
    ("warmup", 2): {
        "x": {5.0: (6.708457426026885204628983, 1.180580675690920159620812,
                    -0.03245707172545446031060914),
              50.0: (53.92202200562809607261455, 1.019800059980006997480924,
                     -0.0003920047976011194962216639),
              1e6: (1000013.815511057964274104, 1.0000009999995, -9.999990000000000015e-13)},
        "t": {2.0: (9.456416701951698130973631, 8.322304025585548618407318,
                    7.454004523195998531559113),
              40.0: (235385266837020025.4078999, 235385266837019986.4078999,
                     235385266837019985.4078999)},
    },
}
# phi, phi', phi'' of the warm-up (d = 2) where d u^2 is beyond 1e154
WARMUP_D2_PHI_FAR = {1e80: (2.0e160, 4.0e80, 4.0), 1e120: (2.0e240, 4.0e120, 4.0)}


def _pulled_back(entry, r):
    """f(g(r)) - log g'(r) - (d-1) log(g(r)/r): the x-side potential pulled
    back through the profile, composed without the closed form."""
    t = entry.transform
    (lgp,), (lgr,) = log_jacobian_terms(t, r, 0)
    return entry.potential.value(g_eval(t, r)) - lgp - (t.dimension - 1.0) * lgr


class TestMultivariateT:
    def test_frozen_value(self):
        p = make_multivariate_t(2, 1.0)
        assert p.value(1.0) == pytest.approx(T_D2_K1_VALUE_AT_1, rel=1e-15)

    def test_value_formula(self):
        p = make_multivariate_t(3, 2.5)
        r = np.geomspace(1e-3, 1e6, 200)
        np.testing.assert_allclose(p.value(r), 2.75 * np.log1p(r**2), rtol=1e-13)

    def test_derivatives_consistent(self):
        p = make_multivariate_t(2, 3.0)
        r = np.geomspace(0.01, 50.0, 120)
        h = 1e-6 * np.maximum(1.0, r)
        fd1 = (p.value(r + h) - p.value(r - h)) / (2 * h)
        np.testing.assert_allclose(p.dvalue(r), fd1, rtol=1e-7, atol=1e-9)
        fd2 = (p.dvalue(r + h) - p.dvalue(r - h)) / (2 * h)
        np.testing.assert_allclose(p.d2value(r), fd2, rtol=1e-6, atol=1e-8)

    def test_log_hooks_match_composition(self):
        """F(t) = f(e^t) wherever e^t is representable."""
        p = make_multivariate_t(4, 1.5)
        t = np.linspace(-5.0, 5.0, 60)
        np.testing.assert_allclose(p.log_value(t), p.value(np.exp(t)), rtol=1e-12)
        np.testing.assert_allclose(
            p.dlog_value(t), p.dvalue(np.exp(t)) * np.exp(t), rtol=1e-10
        )

    def test_log_hooks_deep_tail(self):
        """For t far beyond overflow the slope saturates at d + kappa."""
        p = make_multivariate_t(2, 1.0)
        t = np.array([400.0, 1e4, 1e8])
        np.testing.assert_allclose(p.log_value(t), 3.0 * t, rtol=1e-12)
        np.testing.assert_allclose(p.dlog_value(t), 3.0, rtol=1e-12)
        np.testing.assert_allclose(p.d2log_value(t), 0.0, atol=1e-12)

    def test_moment_max_and_parameters(self):
        p = make_multivariate_t(5, 2.0)
        assert p.moment_max == 2.0 and p.dimension == 5
        assert p.name == "t5_2"

    def test_validation(self):
        with pytest.raises(ValueError, match="dimension"):
            make_multivariate_t(0, 1.0)
        with pytest.raises(ValueError, match="kappa"):
            make_multivariate_t(2, 0.0)

    @pytest.mark.parametrize("dimension", [2.5, 2.0, True, "2"])
    def test_dimension_that_is_not_an_integer_names_it(self, dimension):
        """make_multivariate_t(2.5, 3.0) built a potential of dimension 2.5."""
        with pytest.raises(ValueError, match="dimension must be an integer >= 1"):
            make_multivariate_t(dimension, 3.0)
        assert make_multivariate_t(np.int64(2), 3.0).dimension == 2


class TestZooEntries:
    @pytest.mark.parametrize("kind,kwargs", [
        (ExampleKind.EXAMPLE2, {"upsilon": 1.0}),
        (ExampleKind.EXAMPLE2, {"upsilon": -1.2}),
        (ExampleKind.EXAMPLE3, {}),
        (ExampleKind.EXAMPLE4, {}),
        (ExampleKind.EXAMPLE5, {}),
        (ExampleKind.EXAMPLE6, {}),
    ])
    @pytest.mark.parametrize("dimension", [1, 2, 5])
    def test_transformed_form_matches_expected(self, kind, kwargs, dimension):
        """The pullback of the constructed density equals the closed form the
        construction targets, across bulk, knot region, and tail."""
        entry = make_example(kind, dimension, vartheta=1.5, **kwargs)
        r = np.geomspace(0.05, 8.0, 160)
        want = entry.potential.transformed_form.value(r)
        np.testing.assert_allclose(_pulled_back(entry, r), want, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("dimension", [1, 2, 4])
    def test_warmup_transformed_form(self, dimension):
        entry = make_example(ExampleKind.WARMUP, dimension)
        r = np.geomspace(0.05, 6.0, 120)
        d = float(dimension)
        want = np.sqrt(1.0 + (d * r * r) ** 2) - 0.5 * d * math.log(d) - math.log(2.0)
        np.testing.assert_allclose(_pulled_back(entry, r), want, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("radius", sorted(EX6_D2_BULK))
    def test_frozen_bulk_potential(self, radius):
        """The x-side bulk potential, Newton inversion of g plus the log
        terms, against 40-digit values (tools/freeze_oracles.py)."""
        p = make_example(ExampleKind.EXAMPLE6, 2, vartheta=1.0).potential
        value, slope = EX6_D2_BULK[radius]
        assert p.value(radius) == pytest.approx(value, rel=1e-12)
        assert p.dvalue(radius) == pytest.approx(slope, rel=1e-12)

    @pytest.mark.parametrize("kind, dimension", sorted(TAIL_ORACLES))
    def test_frozen_tail_potential(self, kind, dimension):
        """f on the tail is pulled back from phi; the oracles come from the
        closed tail formulas, independent of that pullback."""
        p = make_example(kind, dimension).potential
        for side, hooks in (("x", (p.value, p.dvalue, p.d2value)),
                            ("t", (p.log_value, p.dlog_value, p.d2log_value))):
            for arg, want in TAIL_ORACLES[kind, dimension][side].items():
                for k, (hook, value) in enumerate(zip(hooks, want)):
                    np.testing.assert_allclose(hook(arg), value, rtol=1e-12, atol=0.0,
                                               err_msg=f"{kind} {side}={arg} order {k}")

    @pytest.mark.parametrize("u", sorted(WARMUP_D2_PHI_FAR))
    def test_warmup_phi_far_out(self, u):
        """phi serves every radius, so it must not overflow before d u^2 does."""
        form = make_example(ExampleKind.WARMUP, 2).potential.transformed_form
        for hook, value in zip((form.value, form.dvalue, form.d2value), WARMUP_D2_PHI_FAR[u]):
            assert hook(u) == pytest.approx(value, rel=1e-12)

    @pytest.mark.parametrize("kind,kwargs", [
        (ExampleKind.EXAMPLE6, {}), (ExampleKind.EXAMPLE2, {"upsilon": 1.0}),
        (ExampleKind.WARMUP, {}), (ExampleKind.MULTIVARIATE_T, {"kappa": 3.0}),
    ])
    def test_nan_radius_gives_nan(self, kind, kwargs):
        """NaN goes to the bulk branch, whose inversion of g must not turn
        it into the origin's finite potential."""
        p = make_example(kind, 2, **kwargs).potential
        for fn in (p.value, p.dvalue, p.d2value, p.log_value, p.dlog_value, p.d2log_value):
            assert math.isnan(fn(math.nan))
            assert np.isnan(fn(np.array([0.5, math.nan, 5.0]))).tolist() == [False, True, False]

    def test_default_tail_coefficient(self):
        entry = make_example(ExampleKind.EXAMPLE6, 4, vartheta=2.0)
        assert entry.transform.b == pytest.approx(1.0)  # d / (2 vartheta)

    def test_t_entry_default_b(self):
        entry = make_example(ExampleKind.MULTIVARIATE_T, 3, kappa=2.0)
        assert entry.transform.b == pytest.approx(0.75)
        assert entry.potential.transformed_form is None

    def test_t_entry_b_override(self):
        entry = make_example("t", 2, kappa=1.0, b=1.0)
        assert entry.transform.b == 1.0

    def test_zoo_moment_tags(self):
        entry = make_example(ExampleKind.EXAMPLE5, 3, vartheta=2.5)
        assert entry.potential.moment_max == 2.5
        warm = make_example(ExampleKind.WARMUP, 2)
        assert warm.potential.moment_max == math.inf

    def test_potential_derivative_consistency(self):
        """f' and f'' of the implicitly defined zoo density agree with
        differences of f across the seam-free regions."""
        entry = make_example(ExampleKind.EXAMPLE3, 3, vartheta=1.0)
        p = entry.potential
        (seam,) = p.seams
        r = np.concatenate([np.linspace(0.1, seam * 0.98, 50),
                            np.linspace(seam * 1.02, 30.0, 50)])
        h = 1e-6 * np.maximum(1.0, r)
        fd1 = (p.value(r + h) - p.value(r - h)) / (2 * h)
        np.testing.assert_allclose(p.dvalue(r), fd1, rtol=3e-6, atol=1e-7)
        fd2 = (p.dvalue(r + h) - p.dvalue(r - h)) / (2 * h)
        np.testing.assert_allclose(p.d2value(r), fd2, rtol=3e-5, atol=1e-6)

    def test_log_hooks_consistency(self):
        entry = make_example(ExampleKind.EXAMPLE4, 2, vartheta=1.0)
        p = entry.potential
        t = np.linspace(1.1, 200.0, 40)  # tail side of the seam at e
        np.testing.assert_allclose(p.dlog_value(t),
                                   p.dvalue(np.exp(np.minimum(t, 300.0)))
                                   * np.exp(np.minimum(t, 300.0)),
                                   rtol=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError, match="kappa"):
            make_example(ExampleKind.MULTIVARIATE_T, 2)
        with pytest.raises(ValueError, match="upsilon"):
            make_example(ExampleKind.EXAMPLE2, 2)
        with pytest.raises(ValueError, match="upsilon"):
            make_example(ExampleKind.EXAMPLE2, 2, upsilon=7.6)
        with pytest.raises(ValueError, match="vartheta"):
            make_example(ExampleKind.EXAMPLE6, 2, vartheta=0.0)
        with pytest.raises(ValueError, match="dimension"):
            make_example(ExampleKind.EXAMPLE6, 0)

    @pytest.mark.parametrize("kind, parameters, name", [
        ("t", {"kappa": math.inf}, "kappa"),
        ("t", {"kappa": 3.0, "b": math.inf}, "b"),
        ("t", {"kappa": 3.0, "b": math.nan}, "b"),
        ("example6", {"vartheta": math.inf}, "vartheta"),
        ("example2", {"upsilon": 0.5, "vartheta": math.inf}, "vartheta"),
        ("warmup", {"knot": math.inf}, "knot"),
        ("warmup", {"knot": math.nan}, "knot"),
    ])
    def test_non_finite_parameter_names_it(self, kind, parameters, name):
        """A non-finite kappa died in the name formatter with OverflowError,
        vartheta = inf said "b must be positive, got 0.0" (example6) or "math
        domain error" (example2), and b or knot = inf said "scale must be
        positive and finite"."""
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            make_example(kind, 2, **parameters)
        if name == "kappa":
            with pytest.raises(ValueError, match="^kappa must be positive and finite"):
                make_multivariate_t(2, parameters["kappa"])

    @pytest.mark.parametrize("kind, parameters, message", [
        ("t", {"kappa": 3.0, "b": 1e200}, r"^b = 1e\+200 is too large"),
        ("t", {"kappa": 1e-200}, r"^kappa = 1e-200 gives b = d / \(2 kappa\) = 1e\+200"),
        ("example6", {"vartheta": 1e-320}, r"^vartheta = 1e-320 gives b = d / \(2 vartheta\)"),
        ("example2", {"upsilon": 0.5, "vartheta": 1e-320}, r"^vartheta = 1e-320 gives b"),
    ])
    def test_b_out_of_float_range_names_the_parameter(self, kind, parameters, message):
        """b = 1e200 died in the bulk coefficients with a bare OverflowError,
        and vartheta = 1e-320 said "b must be positive and finite, got inf"."""
        with pytest.raises(ValueError, match=message):
            make_example(kind, 2, **parameters)

    @pytest.mark.parametrize("kind", list(ExampleKind))
    def test_dimension_that_is_not_an_integer_names_it(self, kind):
        """make_example("example6", 2.5) built an entry of dimension 2.5, on
        which run_tula died with "'float' object cannot be interpreted as an
        integer"."""
        extra = {ExampleKind.MULTIVARIATE_T: {"kappa": 3.0},
                 ExampleKind.EXAMPLE2: {"upsilon": 0.5}}.get(kind, {})
        for dimension in (2.5, 2.0, True):
            with pytest.raises(ValueError, match="dimension must be an integer >= 1"):
                make_example(kind, dimension, **extra)
        assert make_example(kind, np.int64(2), **extra).transform.dimension == 2

    @pytest.mark.parametrize("kind", list(ExampleKind))
    def test_numpy_integer_dimension_round_trips_the_json(self, kind):
        """make_example("example6", np.int64(2)) kept an np.int64 dimension,
        so transform_to_json raised "Object of type int64 is not JSON
        serializable"; the entry now holds a Python int everywhere."""
        extra = {ExampleKind.MULTIVARIATE_T: {"kappa": 3.0},
                 ExampleKind.EXAMPLE2: {"upsilon": 0.5}}.get(kind, {})
        entry = make_example(kind, np.int64(2), **extra)
        dims = (entry.transform.dimension, entry.potential.dimension)
        assert all(type(d) is int and d == 2 for d in dims)
        assert transform_from_json(transform_to_json(entry.transform)) == entry.transform
        t = ginbeta2_transform(1.0, np.int64(2))
        assert type(t.dimension) is int and transform_from_json(transform_to_json(t)) == t
        assert type(make_multivariate_t(np.int64(2), 3.0).dimension) is int

    @pytest.mark.parametrize("kind, takes", [
        (ExampleKind.MULTIVARIATE_T, {"kappa": 3.0, "b": 0.5}),
        (ExampleKind.EXAMPLE2, {"upsilon": 1.0, "vartheta": 2.0}),
        *((kind, {"vartheta": 2.0}) for kind in (ExampleKind.EXAMPLE3, ExampleKind.EXAMPLE4,
                                                 ExampleKind.EXAMPLE5, ExampleKind.EXAMPLE6)),
        (ExampleKind.WARMUP, {"knot": 0.5}),
    ])
    def test_each_kind_takes_only_its_own_parameters(self, kind, takes):
        entry = make_example(kind, 2, **takes)
        pot, t = entry.potential, entry.transform
        carried = {  # the field that carries each parameter
            "kappa": lambda: pot.moment_max, "vartheta": lambda: pot.moment_max,
            "b": lambda: t.b, "knot": lambda: t.tail_knot,
            # phi'(1) = d + (1/2 + upsilon) d / (3/2) at d = 2
            "upsilon": lambda: (entry.closed_form.dvalue(1.0) - 2.0) * 0.75 - 0.5,
        }
        assert {k: carried[k]() for k in takes} == pytest.approx(takes)
        if "vartheta" in takes:
            assert t.b == 1.0 / takes["vartheta"]  # d / (2 vartheta) at d = 2
        for name in {"kappa", "upsilon", "vartheta", "b", "knot"} - set(takes):
            with pytest.raises(ValueError, match=f"takes no {name};"):
                make_example(kind, 2, **takes, **{name: 1.0})

    def test_unset_tail_weight_and_knot_default_to_one(self):
        for entry in (make_example(ExampleKind.EXAMPLE4, 2),
                      make_example(ExampleKind.EXAMPLE2, 2, upsilon=0.0)):
            assert entry.potential.moment_max == 1.0 and entry.transform.b == 1.0
        assert make_example(ExampleKind.WARMUP, 2).transform.tail_knot == 1.0

    @given(st.sampled_from([ExampleKind.EXAMPLE3, ExampleKind.EXAMPLE6]),
           st.integers(1, 6), st.floats(0.5, 4.0))
    @settings(max_examples=25, deadline=None)
    def test_transformed_form_property(self, kind, dimension, vartheta):
        entry = make_example(kind, dimension, vartheta=vartheta)
        r = np.geomspace(0.1, 5.0, 24)
        np.testing.assert_allclose(
            _pulled_back(entry, r), entry.potential.transformed_form.value(r),
            rtol=1e-8, atol=1e-8,
        )


@functools.lru_cache(maxsize=None)
def _entry(kind: str, dimension: int):
    extra = {"t": {"kappa": 3.0}, "example2": {"upsilon": 1.0}}.get(kind, {})
    return make_example(kind, dimension, **extra)


_HOOKS = ("value", "dvalue", "d2value", "log_value", "dlog_value", "d2log_value")
# the zoo kinds built from a closed transformed potential, and the hooks of
# that form: phi, phi' and phi''
_CLOSED = [k.value for k in ExampleKind if k is not ExampleKind.MULTIVARIATE_T]
_FORMS = ("value", "dvalue", "d2value")
# a Python float below 1e50 in magnitude takes a hook's float path; these
# arguments sit on either side of that bound
_AT_THE_BOUND = (1e49, math.nextafter(1e50, 0.0), 1e50, math.nextafter(1e50, math.inf), 1e51)


def _hook_argument(entry, hook: str, anchor: int, factor: float, ulps: int) -> float:
    """An argument of ``hook`` near a seam or knot: the radius hooks at a
    multiple of the potential's seams, 1 (the t's seam), the transform's
    knot or its image; the log hooks at the log of one of those or, for the
    larger anchors, in [-2, 2] around the t's log seam 0."""
    t = entry.transform
    radii = [*entry.potential.seams, 1.0, t.knot, t.seam]
    x = radii[anchor % len(radii)] * factor
    log = hook.startswith(("log", "dlog", "d2log"))
    if log:
        x = math.log(x) if x > 0.0 and anchor < 2 * len(radii) else factor - 2.0
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x if log else abs(x)  # the zoo's radius hooks reject a negative radius


class TestHookAtOneRadius:
    """Each potential hook gives the same bits on a Python float as on a
    one-element array: the t's hooks and every closed form's phi, phi' and
    phi'' run their own formulas on the float, the zoo's pullback hooks
    take it as a one-element array."""

    @given(st.sampled_from([k.value for k in ExampleKind]), st.sampled_from([1, 2, 5]),
           st.sampled_from(_HOOKS), st.integers(0, 20),
           st.one_of(st.just(1.0), st.floats(0.0, 4.0)), st.integers(-2, 2))
    @settings(max_examples=250, deadline=None)
    def test_float_gives_the_one_element_array_bits(self, kind, dimension, hook, anchor,
                                                    factor, ulps):
        entry = _entry(kind, dimension)
        fn = getattr(entry.potential, hook)
        x = _hook_argument(entry, hook, anchor, factor, ulps)
        with np.errstate(all="ignore"):
            alone, batch = fn(x), fn(np.array([x]))
        assert type(alone) is float
        assert np.float64(alone).tobytes() == batch.tobytes(), (kind, dimension, hook, x)

    @pytest.mark.parametrize("kind", ["t", "example3", "warmup"])
    @pytest.mark.parametrize("hook", _HOOKS)
    def test_float_warns_as_the_one_element_array(self, kind, hook):
        """Python floats overflow without a warning, so a float whose value
        is not finite, or that lies beyond 1e50, takes the array path: the
        warnings are the array's at arguments far out and non-finite."""
        fn = getattr(_entry(kind, 2).potential, hook)
        # every radius hook rejects a negative radius; a log argument is any real
        negative = (-800.0, -1e49, -1e99, -1e200, -math.inf) if "log" in hook else ()
        for x in (0.0, 0.5, 2.0, 800.0, 1e49, 1e99, 1e200, 1.7e308, math.inf, math.nan,
                  *negative):
            alone, caught = _warned(lambda: fn(x))
            batch, caught_batch = _warned(lambda: fn(np.array([x])))
            assert caught == caught_batch, (hook, x)
            assert np.float64(alone).tobytes() == batch.tobytes(), (hook, x)

    @given(st.sampled_from(_CLOSED), st.sampled_from([1, 2, 5]), st.sampled_from(_FORMS),
           st.one_of(st.floats(-4.0, 4.0), st.floats(1e45, 1e55), st.floats(0.0, 1e300),
                     st.sampled_from(_AT_THE_BOUND)))
    @settings(max_examples=250, deadline=None)
    def test_closed_form_float_gives_the_one_element_array_bits(self, kind, dimension, hook, x):
        """phi, phi' and phi'' of every closed pairing, on both sides of the
        float path's bound, where a float hands over to the array path."""
        fn = getattr(_entry(kind, dimension).potential.transformed_form, hook)
        with np.errstate(all="ignore"):
            alone, batch = fn(x), fn(np.array([x]))
        assert type(alone) is float
        assert np.float64(alone).tobytes() == batch.tobytes(), (kind, dimension, hook, x)

    @pytest.mark.parametrize("kind", _CLOSED)
    @pytest.mark.parametrize("dimension", [1, 2, 5])
    @pytest.mark.parametrize("hook", _FORMS)
    def test_closed_form_float_warns_as_the_one_element_array(self, kind, dimension, hook):
        """phi's hooks take any radius, a negative one too (ROADMAP.md, item
        6).  From 1e50 out, and where the float's value is not finite, a
        float takes the array path, with the array's warnings."""
        fn = getattr(_entry(kind, dimension).potential.transformed_form, hook)
        warned = False
        for x in (0.0, 0.5, 2.0, 800.0, *_AT_THE_BOUND, 1e99, 1e160, 1e200, 1.7e308, math.inf,
                  math.nan):
            for arg in (x, -x):
                alone, caught = _warned(lambda: fn(arg))
                batch, caught_batch = _warned(lambda: fn(np.array([arg])))
                assert caught == caught_batch, (hook, arg)
                assert type(alone) is float
                assert np.float64(alone).tobytes() == batch.tobytes(), (hook, arg)
                warned |= bool(caught)
        assert warned  # the arguments far out overflow

    def test_a_float_value_that_is_not_finite_takes_the_array_path(self):
        """A hook whose float formula overflows gives the array path's value
        and warning, once."""
        hook = _hook(lambda x: x * 1e308, lambda x: x * 1e308)
        for x in (10.0, np.array([10.0])):
            value, caught = _warned(lambda: hook(x))
            assert np.all(value == math.inf) and caught == ["overflow encountered in multiply"]
        assert _warned(lambda: hook(0.5)) == (5e307, [])


class TestHookSweep:
    """A dense float-against-batch sweep of the t's six hooks.  A float pass
    that calls the math module's log or exp where the batch calls numpy's
    agrees on all but a few in 10^4 arguments, too few for the sampled
    tests above; 10^5 seeded arguments per hook catch it."""

    COUNT = 100_000

    @pytest.mark.parametrize("hook", _HOOKS)
    def test_float_equals_its_batch_element_bitwise(self, hook):
        rng = np.random.default_rng(20220122)
        half = self.COUNT // 2
        if hook.startswith(("log", "dlog", "d2log")):
            # softplus forms: seam at 0, exp(2t) and exp(-2t) inside
            x = np.concatenate([rng.uniform(-4.0, 4.0, half), rng.uniform(-60.0, 60.0, half)])
            parts = np.exp(2.0 * x), [math.exp(v) for v in (2.0 * x).tolist()]
        else:
            # radius forms: seam at 1, log(r) and log1p(r^-2) or log1p(r^2) inside
            x = np.concatenate([rng.uniform(0.0, 100.0, half),
                                np.exp(rng.uniform(-20.0, 60.0, half))])
            parts = np.log(x), [math.log(v) for v in x.tolist()]
        # the sweep holds arguments where the math module and numpy differ
        assert np.count_nonzero(parts[0] != np.array(parts[1])) >= 5
        fn = getattr(make_multivariate_t(2, 3.0), hook)
        batch = fn(x)
        alone = np.array([fn(v) for v in x.tolist()])
        differ = np.flatnonzero(alone.view(np.int64) != batch.view(np.int64))
        assert differ.size == 0, (hook, x[differ[:5]].tolist())

    @pytest.mark.parametrize("kind", ["example3", "warmup"])
    @pytest.mark.parametrize("hook", _FORMS)
    def test_closed_form_float_equals_its_batch_element_bitwise(self, kind, hook):
        """The same sweep of phi, phi' and phi'' on example3 (whose log term
        is on, c_log = 1) and the warm-up.  A float pass that squares the
        zoo's 1 + u^2/2, or cubes the warm-up's w, by Python's ** (the C
        library's pow) where the batch multiplies disagrees on about 1 in
        1,200 arguments (the square) or 1 in 20 (the cube)."""
        rng = np.random.default_rng(20220123)
        half = self.COUNT // 2
        x = np.concatenate([rng.uniform(0.0, 4.0, half), np.exp(rng.uniform(-20.0, 60.0, half))])
        if kind == "warmup":
            base, power = 2.0 * x * x / np.hypot(1.0, 2.0 * x * x), 3
            exact = np.power(base, 3)
        else:
            base, power = 1.0 + 0.5 * x * x, 2
            exact = base * base
        # the sweep holds arguments where ** and the batch's powers differ
        assert np.count_nonzero(exact != np.array([v ** power for v in base.tolist()])) >= 5
        fn = getattr(_entry(kind, 2).potential.transformed_form, hook)
        batch = fn(x)
        alone = np.array([fn(v) for v in x.tolist()])
        differ = np.flatnonzero(alone.view(np.int64) != batch.view(np.int64))
        assert differ.size == 0, (kind, hook, x[differ[:5]].tolist())


def _warned(call):
    """``call()`` and the messages of the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = call()
    return out, [str(w.message) for w in caught]


class TestRadialLogDensity:
    def test_formula(self):
        p = make_multivariate_t(3, 2.0)
        r = np.array([0.5, 1.0, 4.0])
        want = 2.0 * np.log(r) - p.value(r)
        np.testing.assert_allclose(radial_log_density(p, r), want, rtol=1e-13)

    def test_one_dimensional_case(self):
        p = make_multivariate_t(1, 2.0)
        assert radial_log_density(p, 0.0) == pytest.approx(-float(p.value(0.0)))

    def test_origin_in_higher_dimension(self):
        p = make_multivariate_t(2, 2.0)
        assert radial_log_density(p, 0.0) == -math.inf

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            radial_log_density(make_multivariate_t(2, 2.0), -1.0)


class TestParseTargetName:
    def test_t_shorthand(self):
        entry = parse_target_name("t2_3")
        assert entry.potential.name == "t2_3" and entry.potential.transformed_form is None
        assert (entry.dimension, entry.potential.moment_max, entry.transform.b) == (2, 3.0, 1 / 3)

    def test_t_with_decimal_kappa(self):
        entry = parse_target_name("t3_2.5")
        assert entry.potential.moment_max == 2.5 and entry.potential.name == "t3_2.5"

    @pytest.mark.parametrize("options, message", [
        ({"dimension": 5}, "dimension 5 contradicts target 't2_3' (dimension 2)"),
        ({"kappa": 7.0}, "kappa 7.0 contradicts target 't2_3' (kappa 3.0)"),
        ({"dimension": 2, "kappa": 2.5}, "kappa 2.5 contradicts"),
    ])
    def test_t_shorthand_rejects_a_contradicting_option(self, options, message):
        """A dimension or kappa that differs from the one the name gives was
        silently dropped, so the run and its echo disagreed."""
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_target_name("t2_3", **options)

    def test_t_shorthand_accepts_equal_options(self):
        base = parse_target_name("t2_3")
        for entry in (parse_target_name("t2_3", dimension=2, kappa=3.0),
                      parse_target_name("t2_3", kappa=3)):
            assert entry.transform == base.transform
            assert (entry.potential.name, entry.potential.moment_max) == ("t2_3", 3.0)

    @pytest.mark.parametrize("name, options, named", [
        ("t2_3", {"knot": 7.0}, "target 't' takes no knot; it takes kappa and b"),
        ("t2_3", {"vartheta": 1.0, "upsilon": 2.0}, "takes no upsilon, vartheta"),
        ("example3", {"dimension": 4, "b": 0.75}, "'example3' takes no b; it takes vartheta"),
        ("example2", {"dimension": 2, "upsilon": 1.0, "kappa": 3.0},
         "'example2' takes no kappa; it takes upsilon and vartheta"),
        ("warmup", {"dimension": 2, "vartheta": 1.0}, "'warmup' takes no vartheta; it takes knot"),
    ])
    def test_rejects_a_parameter_the_kind_does_not_take(self, name, options, named):
        """These were dropped, so a run echoed values it never used."""
        with pytest.raises(ValueError, match=re.escape(named)):
            parse_target_name(name, **options)

    def test_t_plain_needs_dimension_and_kappa(self):
        entry = parse_target_name("t", dimension=4, kappa=1.0)
        assert entry.potential.dimension == 4

    def test_zoo_names(self):
        entry = parse_target_name("example6", dimension=2, vartheta=2.0)
        assert entry.potential.name == "example6" and entry.potential.moment_max == 2.0
        warm = parse_target_name("warmup", dimension=3, knot=0.5)
        assert warm.transform.tail_knot == 0.5

    def test_missing_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            parse_target_name("example3")

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown target"):
            parse_target_name("cauchy")

    def test_available_targets_lists_all_kinds(self):
        names = available_targets()
        assert "t{d}_{kappa}" in names
        assert {"warmup", "example2", "example6"} <= set(names)


class TestIsotropicPotentialContract:
    def test_callable_fields_vectorize(self):
        p = make_multivariate_t(2, 2.0)
        assert isinstance(p.value(1.0), float)
        out = p.value(np.array([1.0, 2.0]))
        assert isinstance(out, np.ndarray) and out.shape == (2,)

    def test_frozen(self):
        p = make_multivariate_t(2, 2.0)
        with pytest.raises(AttributeError):
            p.dimension = 3

    def test_custom_potential_accepted(self):
        """The dataclass is open to user-defined radial potentials."""
        gauss = IsotropicPotential(
            dimension=2, name="gauss",
            value=lambda r: 0.5 * np.asarray(r) ** 2,
            dvalue=lambda r: np.asarray(r),
            d2value=lambda r: np.ones_like(np.asarray(r, dtype=float)),
            log_value=lambda t: 0.5 * np.exp(2 * np.asarray(t)),
            dlog_value=lambda t: np.exp(2 * np.asarray(t)),
            d2log_value=lambda t: 2 * np.exp(2 * np.asarray(t)),
        )
        assert radial_log_density(gauss, 1.0) == pytest.approx(-0.5)
