"""One calling convention for every radial function and radial field.

A radial function takes a radius (or a log argument ``t``): a scalar gives
a float and an array an array of its shape, with the same values.  A
radial field ``s(|x|) x/|x|`` takes a point or a batch of points and
returns a vector or a batch.  NaN radii and points map to NaN, except for
the gradient of the transformed potential, which rejects non-finite input.
A numeric input at a public boundary is a number, never a bool.
"""

import math

import numpy as np
import pytest

from tula import dynamics, transform
from tula.analysis import RadialQuadrature, check_assumption, classify_regime, estimate_lsi
from tula.dynamics import TransformedPotential
from tula.sampler import SamplerConfig, plan_step_size, tula_step
from tula.targets import make_example, make_multivariate_t, radial_log_density

ENTRIES = {
    "t2_3": make_example("t", 2, kappa=3.0),
    "example6": make_example("example6", 2),
    "warmup": make_example("warmup", 3),
}

# name -> (function of (entry, tp, argument), kind of argument, NaN maps to NaN)
RADIAL = {
    "value": (lambda e, tp, r: e.potential.value(r), "radius", True),
    "dvalue": (lambda e, tp, r: e.potential.dvalue(r), "radius", True),
    "d2value": (lambda e, tp, r: e.potential.d2value(r), "radius", True),
    "log_value": (lambda e, tp, t: e.potential.log_value(t), "log", True),
    "dlog_value": (lambda e, tp, t: e.potential.dlog_value(t), "log", True),
    "d2log_value": (lambda e, tp, t: e.potential.d2log_value(t), "log", True),
    "phi": (lambda e, tp, r: e.potential.transformed_form.value(r), "radius", True),
    "dphi": (lambda e, tp, r: e.potential.transformed_form.dvalue(r), "radius", True),
    "d2phi": (lambda e, tp, r: e.potential.transformed_form.d2value(r), "radius", True),
    "radial_log_density": (lambda e, tp, r: radial_log_density(e.potential, r), "radius", False),
    "g_eval": (lambda e, tp, r: transform.g_eval(e.transform, r, 0), "radius", True),
    "g_eval_3": (lambda e, tp, r: transform.g_eval(e.transform, r, 3), "radius", True),
    "g_inverse": (lambda e, tp, s: transform.g_inverse(e.transform, s), "radius", True),
    "log_jacobian_terms": (lambda e, tp, r: transform.log_jacobian_terms(e.transform, r, 2),
                           "radius", False),
    "gin_deriv": (lambda e, tp, r: e.transform.gin.deriv(r, 2), "radius", False),
    "value_radial": (lambda e, tp, r: dynamics.value_radial(tp, r), "radius", False),
    "grad_factor": (lambda e, tp, r: dynamics.grad_factor(tp, r), "radius", False),
    "hessian_eigenvalues": (lambda e, tp, r: dynamics.hessian_eigenvalues(tp, r), "radius",
                            False),
}


def _arguments(entry, kind):
    """Four arguments on both sides of the knot (log arguments of any sign)."""
    if kind == "log":
        return np.array([-1.5, 0.3, 1.0, 4.0])
    return entry.transform.knot * np.array([0.25, 0.9, 1.0, 3.0])


def _leaves(out):
    """The arrays or floats of a result, flattening tuples of them."""
    if isinstance(out, tuple):
        return [leaf for item in out for leaf in _leaves(item)]
    return [out]


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("name, target", [
    (name, target) for name in RADIAL for target, entry in ENTRIES.items()
    # the t family is not built from a transformed potential
    if "phi" not in name or entry.potential.transformed_form is not None
])
def test_radial_function_scalar_and_array(name, target):
    entry = ENTRIES[target]
    fn, kind, nan_to_nan = RADIAL[name]
    tp = TransformedPotential(entry.potential, entry.transform)
    args = _arguments(entry, kind)

    batch = _leaves(fn(entry, tp, args))
    for leaf in batch:
        assert isinstance(leaf, np.ndarray) and leaf.shape == args.shape
    for i, arg in enumerate(args):
        single = _leaves(fn(entry, tp, float(arg)))
        assert len(single) == len(batch)
        for leaf, whole in zip(single, batch):
            assert isinstance(leaf, float)
            assert _same(leaf, whole[i])
    if nan_to_nan:
        assert math.isnan(fn(entry, tp, math.nan))
        with_nan = fn(entry, tp, np.array([args[0], math.nan, args[-1]]))
        assert np.isnan(with_nan).tolist() == [False, True, False]


FIELDS = {
    "h_forward": lambda e, tp, x: transform.h_forward(e.transform, x),
    "h_inverse": lambda e, tp, x: transform.h_inverse(e.transform, x),
    "transformed_gradient": lambda e, tp, x: dynamics.transformed_gradient(tp, x),
}


@pytest.mark.parametrize("target", ENTRIES)
@pytest.mark.parametrize("name", [*FIELDS, "transformed_value"])
def test_point_and_batch(name, target):
    """A point gives a vector (a float for the potential value) and a batch
    gives a batch, row for row equal to the single points."""
    entry = ENTRIES[target]
    tp = TransformedPotential(entry.potential, entry.transform)
    d = tp.dimension
    rng = np.random.default_rng(7)
    dirs = rng.standard_normal((4, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = (entry.transform.knot * np.array([0.25, 0.9, 1.0, 3.0]))[:, None] * dirs
    if name == "transformed_value":
        batch = dynamics.transformed_value(tp, pts)
        assert batch.shape == (4,)
        for row, want in zip(pts, batch):
            value = dynamics.transformed_value(tp, row)
            assert isinstance(value, float) and value == want
        return
    fn = FIELDS[name]
    batch = fn(entry, tp, pts)
    assert batch.shape == pts.shape
    for row, want in zip(pts, batch):
        single = fn(entry, tp, row)
        assert single.shape == (d,)
        np.testing.assert_array_equal(single, want)
    with pytest.raises(ValueError, match="dimension"):
        fn(entry, tp, np.zeros(d + 1))


@pytest.mark.parametrize("target", ENTRIES)
@pytest.mark.parametrize("name", ["h_forward", "transformed_gradient"])
def test_origin_rule_on_a_mixed_batch(name, target):
    """h fixes only the origin; the gradient is zero below radius 1e-10."""
    entry = ENTRIES[target]
    tp = TransformedPotential(entry.potential, entry.transform)
    d = tp.dimension
    pts = np.zeros((3, d))
    pts[1, 0] = 5e-11
    pts[2, :] = 0.3
    out = FIELDS[name](entry, tp, pts)
    assert (out[0] == 0.0).all()
    if name == "h_forward":
        assert out[1, 0] > 0.0 and (out[1, 1:] == 0.0).all()
    else:
        assert (out[1] == 0.0).all()
    np.testing.assert_array_equal(out[2], FIELDS[name](entry, tp, pts[2]))
    np.testing.assert_array_equal(out[1], FIELDS[name](entry, tp, pts[1]))


@pytest.mark.parametrize("target", ENTRIES)
def test_nan_points(target):
    """h and its inverse map a NaN coordinate to a NaN row; the gradient of
    the transformed potential rejects it."""
    entry = ENTRIES[target]
    tp = TransformedPotential(entry.potential, entry.transform)
    d = tp.dimension
    pts = np.full((2, d), 0.3)
    pts[0, 0] = math.nan
    for name in ("h_forward", "h_inverse"):
        out = FIELDS[name](entry, tp, pts)
        assert np.isnan(out[0]).all() and np.isfinite(out[1]).all()
        assert np.isnan(FIELDS[name](entry, tp, pts[0])).all()
    for bad in (pts, pts[0]):
        with pytest.raises(ValueError):
            dynamics.transformed_gradient(tp, bad)


_T2_3 = TransformedPotential(ENTRIES["t2_3"].potential, ENTRIES["t2_3"].transform)


@pytest.mark.parametrize("call, name", [
    (lambda: SamplerConfig(step_size=True, num_steps=1), "step_size"),
    (lambda: SamplerConfig(step_size=0.1, num_steps=1, init_scale=np.True_), "init_scale"),
    (lambda: tula_step(_T2_3, np.zeros(2), True, np.zeros(2)), "gamma"),
    (lambda: plan_step_size(True, 1.0, 2, 0.1, 1.0), "lipschitz"),
    (lambda: make_multivariate_t(2, True), "kappa"),
    (lambda: make_example("example6", 2, vartheta=True), "vartheta"),
    (lambda: make_example("t", 2, kappa=3.0, b=True), "b"),
    (lambda: transform.ginbeta2_transform(True, 2), "b"),
    (lambda: transform.warmup_profile(2, knot=True), "knot"),
    (lambda: RadialQuadrature(ENTRIES["t2_3"].potential, r_max=True), "r_max"),
    (lambda: estimate_lsi(_T2_3, r_max=True), "r_max"),
    (lambda: classify_regime("strong", vartheta=True, dimension=2, b=0.5, rho=1.0),
     "vartheta"),
    (lambda: check_assumption(_T2_3, "A4", candidate_constants={"L": True}), "L"),
], ids=["SamplerConfig", "SamplerConfig-init_scale", "tula_step", "plan_step_size",
        "make_multivariate_t", "make_example", "make_example-b", "ginbeta2_transform",
        "warmup_profile", "RadialQuadrature", "estimate_lsi", "classify_regime",
        "check_assumption"])
def test_bool_is_not_a_number(call, name):
    """Each of these ran with True as 1.0; SamplerConfig.to_dict echoed it as true."""
    with pytest.raises(ValueError, match=f"^{name} must .*got (np\\.)?True_?$"):
        call()
