"""Transformed-potential geometry tests.

Reference numbers for the d=2, kappa=1, b=1 configuration come from a
40-digit mpmath evaluation of the radial composition and its derivatives
(tools/freeze_oracles.py); they exercise both the bulk branch (r = 0.5,
below the knot at 1) and the log-space tail branch (r = 2).
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tula.transform
from tula.dynamics import (
    HessianEigenvalues,
    TransformedPotential,
    grad_factor,
    hessian_eigenvalues,
    ito_drift_diffusion,
    ito_drift_parts,
    transformed_gradient,
    transformed_log_density,
    transformed_value,
    value_radial,
)
from tula.targets import ExampleKind, make_example, make_multivariate_t, parse_target_name
from tula.transform import (
    GinSpec,
    RadialTransform,
    bulk_jet,
    g_eval,
    ginbeta2_transform,
    log_jacobian_terms,
    warmup_transform,
)

# mpmath, 40 digits, t-dist d=2 kappa=1 with b=1, beta=2
FH_BULK_05 = -0.3959258705723944
DFH_BULK_05 = 3.2344484193814902
D2FH_BULK_05 = -4.869476230470862
FH_TAIL_2 = 3.3073559289993983
DFH_TAIL_2 = 3.9959757984344023
D2FH_TAIL_2 = 2.0301707156098227
# Ito pieces at x = (e, 0): u = 1, g'(1) = 2e, g''(1) = 6e
ITO_RADIAL_AT_E = 12.043171127360448
ITO_SV_RADIAL = 7.6884620563182336  # sqrt(2) * 2e
ITO_SV_TANGENT = 3.8442310281591168  # sqrt(2) * e


@pytest.fixture
def tp_t21():
    entry = make_example(ExampleKind.MULTIVARIATE_T, 2, kappa=1.0, b=1.0)
    return TransformedPotential(entry.potential, entry.transform)


class TestTransformedValue:
    def test_frozen_tail_value(self, tp_t21):
        assert transformed_value(tp_t21, np.array([2.0, 0.0])) == pytest.approx(
            FH_TAIL_2, rel=1e-13
        )

    def test_frozen_bulk_value(self, tp_t21):
        assert transformed_value(tp_t21, np.array([0.3, 0.4])) == pytest.approx(
            FH_BULK_05, rel=1e-12
        )

    def test_rotation_invariance(self, tp_t21):
        a = transformed_value(tp_t21, np.array([2.0, 0.0]))
        b = transformed_value(tp_t21, np.array([0.0, -2.0]))
        c = transformed_value(tp_t21, np.array([2.0, 0.0]) / math.sqrt(2) * math.sqrt(2))
        assert a == pytest.approx(b, rel=1e-14)
        assert a == pytest.approx(c, rel=1e-14)

    def test_batch_matches_single(self, tp_t21):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((40, 2)) * 1.5
        batch = transformed_value(tp_t21, pts)
        single = np.array([transformed_value(tp_t21, p) for p in pts])
        np.testing.assert_allclose(batch, single, rtol=1e-14)

    def test_log_density_is_negated_value(self, tp_t21):
        y = np.array([1.3, -0.2])
        assert transformed_log_density(tp_t21, y) == -transformed_value(tp_t21, y)

    def test_value_radial_scalar_contract(self, tp_t21):
        assert isinstance(value_radial(tp_t21, 0.5), float)
        out = value_radial(tp_t21, np.array([0.5, 2.0]))
        np.testing.assert_allclose(out, [FH_BULK_05, FH_TAIL_2], rtol=1e-12)

    def test_finite_at_origin(self, tp_t21):
        assert np.isfinite(value_radial(tp_t21, 0.0))

    def test_deep_tail_stays_finite(self, tp_t21):
        """Radii far beyond the overflow point of exp(b r^2) still evaluate."""
        v = value_radial(tp_t21, 500.0)
        # f_h(r) ~ (d + kappa - d) b r^2 = b r^2 for the t target
        assert v == pytest.approx(500.0**2, rel=1e-3)

    def test_dimension_mismatch(self, tp_t21):
        with pytest.raises(ValueError, match="dimension"):
            transformed_value(tp_t21, np.zeros(3))

    def test_mismatched_pair_rejected(self):
        pot = make_multivariate_t(3, 1.0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            TransformedPotential(pot, ginbeta2_transform(1.0, 2))


class TestGradient:
    def test_frozen_factor_both_branches(self, tp_t21):
        assert grad_factor(tp_t21, 0.5) == pytest.approx(DFH_BULK_05, rel=1e-12)
        assert grad_factor(tp_t21, 2.0) == pytest.approx(DFH_TAIL_2, rel=1e-13)

    def test_gradient_is_radial(self, tp_t21):
        y = np.array([1.2, -0.9])
        g = transformed_gradient(tp_t21, y)
        r = np.linalg.norm(y)
        np.testing.assert_allclose(g, grad_factor(tp_t21, r) * y / r, rtol=1e-13)

    def test_closed_form_at_unit_radius(self, tp_t21):
        """At r = 1 the tail formula collapses to 6e^2/(1+e^2) - 4."""
        g = transformed_gradient(tp_t21, np.array([1.0, 0.0]))
        want = 6.0 * math.e**2 / (1.0 + math.e**2) - 4.0
        np.testing.assert_allclose(g, [want, 0.0], rtol=1e-13, atol=1e-15)

    def test_vanishes_at_origin(self, tp_t21):
        np.testing.assert_array_equal(
            transformed_gradient(tp_t21, np.zeros(2)), np.zeros(2)
        )
        near = transformed_gradient(tp_t21, np.array([1e-12, 0.0]))
        np.testing.assert_array_equal(near, np.zeros(2))

    def test_matches_finite_differences(self, tp_t21):
        rng = np.random.default_rng(11)
        pts = rng.standard_normal((30, 2))
        pts *= (0.3 + 2.0 * rng.random((30, 1)))  # radii roughly in [0.3, 2.3]
        pts = pts[np.abs(np.linalg.norm(pts, axis=1) - 1.0) > 0.1]
        grad = transformed_gradient(tp_t21, pts)
        h = 1e-6
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (transformed_value(tp_t21, pts + e) - transformed_value(tp_t21, pts - e)) / (2 * h)
            np.testing.assert_allclose(grad[:, j], fd, rtol=2e-5, atol=2e-6)

    def test_batch_matches_single(self, tp_t21):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((25, 2)) * 2.0
        batch = transformed_gradient(tp_t21, pts)
        single = np.array([transformed_gradient(tp_t21, p) for p in pts])
        np.testing.assert_allclose(batch, single, rtol=1e-14)

    def test_rejects_nonfinite_points(self, tp_t21):
        with pytest.raises(ValueError, match="non-finite"):
            transformed_gradient(tp_t21, np.array([np.inf, 0.0]))


class TestHessianEigenvalues:
    def test_frozen_values(self, tp_t21):
        eig = hessian_eigenvalues(tp_t21, np.array([0.5, 2.0]))
        assert isinstance(eig, HessianEigenvalues)
        np.testing.assert_allclose(eig.lambda_radial, [D2FH_BULK_05, D2FH_TAIL_2], rtol=1e-12)
        np.testing.assert_allclose(
            eig.lambda_tangential, [DFH_BULK_05 / 0.5, DFH_TAIL_2 / 2.0], rtol=1e-12
        )

    def test_tangential_identity(self, tp_t21):
        """lambda_tangential * r = f_h'(r) exactly, on both branches."""
        r = np.geomspace(0.05, 6.0, 40)
        eig = hessian_eigenvalues(tp_t21, r)
        np.testing.assert_allclose(eig.lambda_tangential * r, grad_factor(tp_t21, r), rtol=1e-13)

    def test_radial_matches_gradient_differences(self, tp_t21):
        r = np.concatenate([np.linspace(0.1, 0.9, 20), np.linspace(1.1, 5.0, 20)])
        h = 1e-6
        fd = (np.asarray(grad_factor(tp_t21, r + h))
              - np.asarray(grad_factor(tp_t21, r - h))) / (2 * h)
        eig = hessian_eigenvalues(tp_t21, r)
        np.testing.assert_allclose(eig.lambda_radial, fd, rtol=1e-5, atol=1e-6)

    def test_full_hessian_reconstruction(self, tp_t21):
        """lambda1 P_r + lambda2 (I - P_r) reproduces coordinate second
        differences of f_h at an off-axis point."""
        y = np.array([0.8, 1.1])
        r = float(np.linalg.norm(y))
        eig = hessian_eigenvalues(tp_t21, r)
        unit = y / r
        hess = (eig.lambda_radial - eig.lambda_tangential) * np.outer(unit, unit) \
            + eig.lambda_tangential * np.eye(2)
        h = 1e-4
        for i in range(2):
            for j in range(2):
                ei = np.zeros(2); ei[i] = h
                ej = np.zeros(2); ej[j] = h
                fd = (transformed_value(tp_t21, y + ei + ej)
                      - transformed_value(tp_t21, y + ei - ej)
                      - transformed_value(tp_t21, y - ei + ej)
                      + transformed_value(tp_t21, y - ei - ej)) / (4 * h * h)
                assert hess[i, j] == pytest.approx(fd, rel=5e-5, abs=5e-5)

    def test_rejects_zero_radius(self, tp_t21):
        with pytest.raises(ValueError, match="r > 0"):
            hessian_eigenvalues(tp_t21, 0.0)

    @given(st.floats(0.1, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_eigenvalue_identity_property(self, r):
        entry = make_example(ExampleKind.EXAMPLE6, 3, vartheta=1.5)
        tp = TransformedPotential(entry.potential, entry.transform)
        eig = hessian_eigenvalues(tp, r)
        assert eig.lambda_tangential * r == pytest.approx(grad_factor(tp, r), rel=1e-12)


def _composed(tp, r, order):
    """f_h^(order)(r) for f_h = f(g) - log g' - (d-1) log(g/r), composed from
    the target and the profile, without the target's closed form."""
    t, f = tp.transform, tp.potential
    lgp, lgr = log_jacobian_terms(t, r, order)
    g = g_eval(t, r, 0)
    if order == 0:
        outer = f.value(g)
    elif order == 1:
        outer = f.dvalue(g) * g_eval(t, r, 1)
    else:
        outer = f.d2value(g) * g_eval(t, r, 1) ** 2 + f.dvalue(g) * g_eval(t, r, 2)
    return outer - lgp[order] - (t.dimension - 1.0) * lgr[order]


# f_h, f_h' and f_h'' as the public views compute them
_VIEWS = (value_radial, grad_factor, lambda tp, r: hessian_eigenvalues(tp, r).lambda_radial)


class TestClosedFormBulkSlope:
    """Zoo targets built from a closed transformed potential phi take f_h,
    f_h' and f_h'' on the bulk branch from phi, phi' and phi''; they must
    equal the general composition, which inverts the profile by Newton's
    method to 1e-12."""

    @pytest.mark.parametrize("kind, kwargs", [
        (ExampleKind.EXAMPLE2, {"upsilon": 1.0}),
        (ExampleKind.EXAMPLE2, {"upsilon": -1.0}),
        (ExampleKind.EXAMPLE3, {}),
        (ExampleKind.EXAMPLE4, {}),
        (ExampleKind.EXAMPLE5, {}),
        (ExampleKind.EXAMPLE6, {}),
        (ExampleKind.WARMUP, {}),
    ])
    @pytest.mark.parametrize("dimension", [1, 2, 5])
    def test_matches_composition_across_knot(self, kind, kwargs, dimension):
        entry = make_example(kind, dimension, **kwargs)
        tp = TransformedPotential(entry.potential, entry.transform)
        assert tp.closed_form is not None
        knot = entry.transform.knot
        r = np.concatenate([np.geomspace(1e-4, 0.1, 200, endpoint=False),
                            np.linspace(0.1, 2.0, 1901)]) * knot
        # the Newton stopping rule |g(u) - s| <= 1e-12 s is relative, so the
        # composition stays accurate near the origin, where the slope is
        # small; atol covers slopes near zero.  Near the origin the composed
        # f_h and f_h'' carry about 4e-12 absolute error of their own.
        for order, atol in ((0, 1e-11), (1, 1e-12), (2, 1e-11)):
            np.testing.assert_allclose(_VIEWS[order](tp, r), _composed(tp, r, order),
                                       rtol=1e-10, atol=atol, err_msg=f"order {order}")

    def test_equal_transform_takes_closed_form(self):
        entry = make_example(ExampleKind.EXAMPLE6, 2)
        tp = TransformedPotential(entry.potential, ginbeta2_transform(entry.transform.b, 2))
        assert tp.closed_form is entry.potential.transformed_form

    def test_other_transform_keeps_composition(self):
        """Paired with a transform it was not built for, a zoo potential's
        transformed potential is not phi, and f_h, f_h' and f_h'' are
        composed."""
        entry = make_example(ExampleKind.EXAMPLE6, 2)  # built for b = 1
        form = entry.potential.transformed_form
        tp = TransformedPotential(entry.potential, ginbeta2_transform(0.5, 2))
        assert tp.closed_form is None
        r = np.linspace(0.05, 2.0 * tp.transform.knot, 400)
        bulk = r < tp.transform.knot
        for order, phi in enumerate((form.value, form.dvalue, form.d2value)):
            got = _VIEWS[order](tp, r)
            np.testing.assert_allclose(got, _composed(tp, r, order), rtol=1e-10,
                                       err_msg=f"order {order}")
            want = phi(r[bulk])
            assert np.all(np.abs(got[bulk] - want) > 1e-6 * np.abs(want)), order

    def test_closed_pairing_never_inverts_g(self, monkeypatch):
        """Values, gradients and Hessians of a closed pairing are phi, phi'
        and phi'' bit for bit on both branches: they never run the Newton
        inversion of the profile nor call the target's f or F hooks."""
        calls = []
        invert = tula.transform._invert_bulk

        def counted(*args):
            calls.append(args)
            return invert(*args)

        monkeypatch.setattr(tula.transform, "_invert_bulk", counted)
        hooks = ("value", "dvalue", "d2value", "log_value", "dlog_value", "d2log_value")
        hook_calls = []

        def counting(name, fn):
            def wrapped(x):
                hook_calls.append(name)
                return fn(x)
            return wrapped

        for kind, kwargs in ((ExampleKind.EXAMPLE2, {"upsilon": 1.0}), (ExampleKind.EXAMPLE3, {}),
                             (ExampleKind.EXAMPLE4, {}), (ExampleKind.EXAMPLE5, {}),
                             (ExampleKind.EXAMPLE6, {}), (ExampleKind.WARMUP, {})):
            for dimension in (1, 2, 5):
                entry = make_example(kind, dimension, **kwargs)
                pot = entry.potential
                target = dataclasses.replace(
                    pot, **{h: counting(h, getattr(pot, h)) for h in hooks})
                tp = TransformedPotential(target, entry.transform)
                form = pot.transformed_form
                r = np.linspace(0.05, 50.0, 300) * entry.transform.knot
                assert _bits(value_radial(tp, r)) == _bits(form.value(r))
                assert _bits(grad_factor(tp, r)) == _bits(form.dvalue(r))
                eig = hessian_eigenvalues(tp, r)
                assert _bits(eig.lambda_radial) == _bits(form.d2value(r))
                assert _bits(eig.lambda_tangential) == _bits(form.dvalue(r) / r)
                y = np.zeros((r.size, dimension))
                y[:, 0] = r
                transformed_value(tp, y)
                transformed_gradient(tp, y)
                assert hook_calls == [], (kind, dimension)
        assert calls == []


def _warned(call):
    """``call()`` and the messages of the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = call()
    return out, [str(w.message) for w in caught]


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _factor_declines(tp, x):
    """Whether a pairing's one-radius factor leaves ``x`` to the array pass,
    by the rule its float path has kept since it was written: never on a
    closed pairing (phi' takes every radius); on a composed one at a tail
    radius outside (1e-100, 1e100), at a bulk radius whose exponent p is
    not finite or above 709, whose 1 + r p' lies outside (0, 1e150) or
    where g, g' or (log g')' is not finite, and wherever f_h' is not finite."""
    if tp.closed_form is not None:
        return False
    t = tp.transform
    with np.errstate(all="ignore"):
        slope = grad_factor(tp, np.array([x]))[0]
        if x >= t.knot:
            in_range = 1e-100 < x < 1e100
        else:
            p, q = (t.gin.log_profile(x, k) for k in (0, 1))
            (g, dg), lgp, _ = bulk_jet(t.gin, np.array([x]), (1,))
            in_range = (-math.inf < p <= 709.0 and 0.0 < 1.0 + x * q < 1e150
                        and np.isfinite([g, dg, lgp[1]]).all())
    return not (in_range and math.isfinite(slope))


class TestJetPointwise:
    """A batch mixing bulk and tail radii equals the scalar calls bit for
    bit: every radius takes its own branch's jet whatever its neighbours."""

    TARGETS = [
        *((kind, kwargs, d) for d in (1, 2, 5) for kind, kwargs in (
            (ExampleKind.EXAMPLE2, {"upsilon": 1.0}),
            (ExampleKind.EXAMPLE2, {"upsilon": -1.0}),
            (ExampleKind.EXAMPLE3, {}),
            (ExampleKind.EXAMPLE4, {}),
            (ExampleKind.EXAMPLE5, {}),
            (ExampleKind.EXAMPLE6, {}),
            (ExampleKind.WARMUP, {}),
            (ExampleKind.MULTIVARIATE_T, {"kappa": 3.0}),
            (ExampleKind.MULTIVARIATE_T, {"kappa": 2.0}),
        )),
        ("t2_3", {}, None),
        ("t3_2", {}, None),
    ]

    @staticmethod
    def _radii(t):
        knot = t.knot
        # deep tail: b r**beta > 709, where exp(b r**beta) overflows
        deep = (800.0 / t.b) ** (1.0 / t.beta) if t.tail == "exp" else 1e200
        return np.array([
            knot * 1e-6, 0.3 * knot, np.nextafter(knot, -np.inf), knot,
            np.nextafter(knot, np.inf), 1.7 * knot, deep, 3.0 * deep,
        ])

    @pytest.mark.parametrize("kind, kwargs, dimension", TARGETS)
    def test_batch_equals_scalar_calls(self, kind, kwargs, dimension):
        if dimension is None:
            entry = parse_target_name(kind)
        else:
            entry = make_example(kind, dimension, **kwargs)
        tp = TransformedPotential(entry.potential, entry.transform)
        t = entry.transform
        r = self._radii(t)
        r0 = np.concatenate([[0.0], r])  # the origin: value and gradient only
        with np.errstate(all="ignore"):
            for fn in (value_radial, grad_factor):
                assert _bits(fn(tp, r0)) == _bits([fn(tp, float(x)) for x in r0]), fn.__name__
            eig = hessian_eigenvalues(tp, r)
            singles = [hessian_eigenvalues(tp, float(x)) for x in r]
            assert _bits(eig.lambda_radial) == _bits([e.lambda_radial for e in singles])
            assert _bits(eig.lambda_tangential) == _bits([e.lambda_tangential for e in singles])
            batch = log_jacobian_terms(t, r, 2)
            singles = [log_jacobian_terms(t, float(x), 2) for x in r]
            for term in (0, 1):  # log g', log(g/r)
                for j in range(3):
                    assert _bits(batch[term][j]) == _bits([s[term][j] for s in singles]), (term, j)

    # radii of the one-radius tests past 50 knots, to the edge of the tail's float range
    FAR = np.geomspace(1e3, 1e100, 12)

    @pytest.mark.parametrize("name", ["t2_3", "t3_2", "example3-on-b0.37", "t1_1", "t5_4",
                                      "example3-d1-on-b0.37", "example3-d2-on-b0.37",
                                      "example3-d5-on-b0.37", "t10_3"])
    def test_one_radius_equals_its_place_in_a_long_batch(self, name):
        """On a composed pairing one radius, as a sampler step evaluates it,
        gets bit for bit what it gets inside a batch of about 1,050 radii that
        straddles the knot, as the checks and diagnostics evaluate them;
        the batch reaches 50 knots, deep into the tail, then 1e100, and
        holds radii within 1e-10 of the origin.  The pairing's factor
        declines exactly where its float path always has.  The gradient at
        one point equals its row of a batch too, zero within 1e-10."""
        if name.startswith("t"):
            entry = parse_target_name(name)
            tp = TransformedPotential(entry.potential, entry.transform)
        else:  # a zoo potential paired with a transform it was not built for
            d = int(name.split("-")[1][1:]) if name.count("-") == 3 else 4
            entry = make_example(ExampleKind.EXAMPLE3, d)
            tp = TransformedPotential(entry.potential, ginbeta2_transform(0.37, d))
        assert tp.closed_form is None
        knot = tp.transform.knot
        r = np.sort(np.concatenate([np.geomspace(1e-3 * knot, 50.0 * knot, 1021),
                                    np.geomspace(1e-13, 1e-10, 13), self.FAR * knot,
                                    [np.nextafter(knot, 0.0), knot, np.nextafter(knot, np.inf)]]))
        r = r[r <= 1e100]
        # past 1e77 the zoo's phi'' and the f'' pulled back from it square 1 + u^2/2 to inf
        with np.errstate(over="ignore"):
            batch = np.stack([value_radial(tp, r), grad_factor(tp, r), *hessian_eigenvalues(tp, r)])
            picked = sorted({*range(0, r.size, 4), *np.flatnonzero(r <= 1e-10),
                             *np.flatnonzero(r > 50.0 * knot),
                             *np.flatnonzero(np.abs(r - knot) <= 1e-15 * knot)})
            for i in picked:
                alone = np.array([value_radial(tp, r[i]), grad_factor(tp, r[i]),
                                  *hessian_eigenvalues(tp, r[i])])
                assert alone.tobytes() == batch[:, i].tobytes(), (i, r[i])
                assert (tp._factor(r[i]) is None) == _factor_declines(tp, r[i]), (i, r[i])
        rng = np.random.default_rng(23)
        pts = rng.standard_normal((r.size, tp.dimension))
        pts *= (r / np.linalg.norm(pts, axis=1))[:, None]
        grads = transformed_gradient(tp, pts)
        for i in picked:
            assert transformed_gradient(tp, pts[i]).tobytes() == grads[i].tobytes(), (i, r[i])

    CLOSED = [(kind, kwargs, d) for kind, kwargs, d in TARGETS
              if d is not None and kind is not ExampleKind.MULTIVARIATE_T]

    @pytest.mark.parametrize("kind, kwargs, dimension", CLOSED, ids=[
        f"{kind.value}{''.join(f'-{n}{v:g}' for n, v in kwargs.items())}-d{d}"
        for kind, kwargs, d in CLOSED])
    def test_closed_one_radius_equals_its_place_in_a_long_batch(self, kind, kwargs, dimension):
        """The twin of the test above on the closed pairings, whose f_h^(k)
        is phi^(k): one radius takes it in Python floats and a batch on
        arrays, with the same bits, in a batch that straddles the knot,
        reaches 1e100 and holds radii within 1e-10 of the origin.  The gradient
        at one point equals its row of a batch too, zero within 1e-10."""
        entry = make_example(kind, dimension, **kwargs)
        tp = TransformedPotential(entry.potential, entry.transform)
        assert tp.closed_form is not None
        knot = tp.transform.knot
        r = np.sort(np.concatenate([np.geomspace(1e-3 * knot, 50.0 * knot, 1008),
                                    np.geomspace(1e-13, 1e-10, 13), self.FAR * knot,
                                    [np.nextafter(knot, 0.0), knot, np.nextafter(knot, np.inf)]]))
        r = r[r <= 1e100]
        # past 1e77 the zoo's phi'' and the f'' pulled back from it square 1 + u^2/2 to inf
        with np.errstate(over="ignore"):
            batch = np.stack([value_radial(tp, r), grad_factor(tp, r), *hessian_eigenvalues(tp, r)])
            picked = sorted({*range(0, r.size, 4), *np.flatnonzero(r <= 1e-10),
                             *np.flatnonzero(r > 50.0 * knot),
                             *np.flatnonzero(np.abs(r - knot) <= 1e-15 * knot)})
            for i in picked:
                alone = np.array([value_radial(tp, r[i]), grad_factor(tp, r[i]),
                                  *hessian_eigenvalues(tp, r[i])])
                assert alone.tobytes() == batch[:, i].tobytes(), (i, r[i])
                assert tp._factor(r[i]) is not None, (i, r[i])  # phi' takes every radius
        rng = np.random.default_rng(23)
        pts = rng.standard_normal((r.size, dimension))
        pts *= (r / np.linalg.norm(pts, axis=1))[:, None]
        grads = transformed_gradient(tp, pts)
        for i in picked:
            assert transformed_gradient(tp, pts[i]).tobytes() == grads[i].tobytes(), (i, r[i])

    @pytest.mark.parametrize("name", [
        "t1_1", "t2_3", "t5_4", "t10_3", "t2_3-on-warmup", "example3-on-b0.37",
        "t2_3-on-exp800", "t2_1e300-on-b1e16", "t2_3-on-g-overflow",
        *(f"{kind.value}-d2" for kind in ExampleKind if kind is not ExampleKind.MULTIVARIATE_T)])
    def test_one_radius_warns_as_a_batch_of_it(self, name):
        """The radial functions at one radius warn, and raise under
        np.errstate(over="raise"), as a batch of that radius does, on every
        zoo kind with its own transform and on composed pairings, from
        within 1e-10 of the origin through the knot and one ulp either side
        of it to radii where the tail's exponent leaves float range; also
        on a bulk whose exponent p = 800 leaves exp's range, on a t with
        kappa = 1e300, whose f' g' and F' u' overflow where g, g', u and u'
        do not, and on a bulk whose g = c r e^p overflows at half the knot,
        where 1 + r p' = 0.002 keeps g' finite and the t's f'(inf) = 0 would
        leave f_h' finite.  The pairing's factor declines exactly where its
        float path always has."""
        target, _, on = name.partition("-on-")
        entry = (make_example(ExampleKind.EXAMPLE3, 2) if target == "example3" else
                 make_example(ExampleKind.MULTIVARIATE_T, 2, kappa=1e300) if target == "t2_1e300"
                 else parse_target_name(target) if not target.endswith("-d2")
                 else make_example(target[:-3], 2, upsilon=1.0) if target == "example2-d2"
                 else make_example(target[:-3], 2))
        t = {"warmup": warmup_transform(2), "b0.37": ginbeta2_transform(0.37, 2),
             "b1e16": ginbeta2_transform(1e16, 2), "": entry.transform,
             "exp800": RadialTransform(1.0, 2.0, GinSpec(1.0, (800.0,)), 2),
             "g-overflow": RadialTransform(0.25, 2.0, GinSpec(10.0, (709.4, 0.0, -0.499)), 2)}[on]
        tp = TransformedPotential(entry.potential, t)
        assert (tp.closed_form is None) == (not target.endswith("-d2"))
        knot = t.knot
        radii = (np.array([1e-13, 1e-11, 1e-10]),
                 knot * np.array([0.5, 1.0, 2.0]),
                 [np.nextafter(knot, 0.0), np.nextafter(knot, np.inf)],
                 np.array([1e100, 1e160, 1e200, 1e300, np.inf]))
        for r in np.concatenate(radii).tolist():
            with np.errstate(all="ignore"):
                assert (tp._factor(r) is None) == _factor_declines(tp, r), r
            for fn in (value_radial, grad_factor, hessian_eigenvalues):
                alone, caught = _warned(lambda: fn(tp, r))
                batch, caught_batch = _warned(lambda: fn(tp, np.array([r, r])))
                assert caught == caught_batch, (fn.__name__, r)
                assert _bits(alone) == _bits(np.asarray(batch)[..., 0]), (fn.__name__, r)
                overflows = any("overflow" in message for message in caught_batch)
                with np.errstate(over="raise", invalid="ignore", divide="ignore"):
                    if overflows:
                        with pytest.raises(FloatingPointError):
                            fn(tp, r)
                    else:
                        fn(tp, r)

    @pytest.mark.parametrize("warmup", [False, True])
    def test_gradient_at_one_point_equals_its_row_of_a_batch(self, warmup):
        """transformed_gradient at one point, as a sampler step calls it,
        equals bit for bit its row of one call on a batch of points, on
        t2_3 with its own transform and with the warm-up's, at points either
        side of the knot and on it."""
        entry = parse_target_name("t2_3")
        t = warmup_transform(2) if warmup else entry.transform
        tp = TransformedPotential(entry.potential, t)
        assert tp.closed_form is None
        rng = np.random.default_rng(18)
        knot = t.knot
        radii = np.concatenate([knot * rng.uniform(0.01, 0.99, 40),
                                knot * rng.uniform(1.0, 3.0, 40), [np.nextafter(knot, 0.0), knot]])
        angle = rng.uniform(0.0, 2.0 * np.pi, radii.size)
        pts = radii[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
        pts[-2:] = [[np.nextafter(knot, 0.0), 0.0], [knot, 0.0]]  # exact radii at the knot
        norms = np.linalg.norm(pts, axis=1)
        assert (norms < knot).sum() > 30 and (norms >= knot).sum() > 30
        batch = transformed_gradient(tp, pts)
        for i, y in enumerate(pts):
            assert transformed_gradient(tp, y).tobytes() == batch[i].tobytes(), (i, norms[i])


    def test_factor_leaves_equality_hash_repr_and_replace_alone(self):
        """The pairing's one-radius factor is built with it and kept out of
        its equality, hash and repr; dataclasses.replace builds the new
        pairing's own factor and refuses one passed in."""
        entry = parse_target_name("t2_3")
        target = entry.potential
        tp = TransformedPotential(target, entry.transform)
        twin = TransformedPotential(target, entry.transform)
        assert tp._factor is not twin._factor
        assert tp == twin and hash(tp) == hash(twin) == hash((target, entry.transform))
        assert repr(tp) == (f"TransformedPotential(potential={target!r}, "
                            f"transform={entry.transform!r})")
        assert [f.name for f in dataclasses.fields(tp) if f.init or f.compare or f.repr] == [
            "potential", "transform"]
        assert dataclasses.replace(tp) == tp
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(tp, _factor=None)
        moved = dataclasses.replace(tp, transform=warmup_transform(2))
        zoo = make_example(ExampleKind.EXAMPLE6, 2)
        closed = dataclasses.replace(tp, potential=zoo.potential, transform=zoo.transform)
        assert moved != tp and moved.closed_form is None and closed.closed_form is not None
        for pair in (moved, closed):
            for x in (0.5, 2.0):
                assert _bits(pair._factor(x)) == _bits(grad_factor(pair, np.array([x]))), x


# each zoo kind at d = 2 with the parameters it needs, and t2_3 by its name
_ZOO = [("t2_3", {}), ("t", {"dimension": 2, "kappa": 1.5}), ("warmup", {"dimension": 2}),
        ("example2", {"dimension": 2, "upsilon": 1.0}),
        *((f"example{n}", {"dimension": 2}) for n in range(3, 7))]


class TestHashable:
    """A zoo pairing hashes, equals its re-pairing (also of a copied
    potential) and keys a dict; another potential makes another pairing."""

    @pytest.mark.parametrize("name, params", _ZOO, ids=[name for name, _ in _ZOO])
    def test_pairings_and_entries_key_a_dict(self, name, params):
        entry = parse_target_name(name, **params)
        assert isinstance(entry, TransformedPotential)
        copied = dataclasses.replace(entry.potential)
        assert copied is not entry.potential
        for twin in (TransformedPotential(entry.potential, entry.transform),
                     TransformedPotential(copied, entry.transform)):
            assert entry == twin and hash(entry) == hash(twin)
            assert {entry: name}[twin] == name and len({entry, twin}) == 1
        other = dataclasses.replace(entry.potential, name="other")
        assert TransformedPotential(other, entry.transform) != entry


class TestQuadraticTailBranch:
    """The warm-up transform exercises the non-exponential code paths."""

    def test_gradient_matches_differences(self):
        entry = make_example(ExampleKind.WARMUP, 2)
        tp = TransformedPotential(entry.potential, entry.transform)
        r = np.concatenate([np.linspace(0.2, 0.9, 15), np.linspace(1.1, 4.0, 15)])
        h = 1e-6
        fd = (np.asarray(value_radial(tp, r + h)) - np.asarray(value_radial(tp, r - h))) / (2 * h)
        np.testing.assert_allclose(grad_factor(tp, r), fd, rtol=1e-5, atol=1e-7)

    def test_closed_transformed_form_derivatives(self):
        """f_h = sqrt(1 + d^2 r^4) + const gives analytic derivatives."""
        entry = make_example(ExampleKind.WARMUP, 3)
        tp = TransformedPotential(entry.potential, entry.transform)
        d = 3.0
        r = np.linspace(0.3, 3.0, 25)
        root = np.sqrt(1.0 + d * d * r**4)
        np.testing.assert_allclose(grad_factor(tp, r), 2.0 * d * d * r**3 / root,
                                   rtol=1e-8, atol=1e-9)


class TestItoDecomposition:
    def test_frozen_drift_and_diffusion(self, tp_t21):
        x = np.array([math.e, 0.0])
        drift, (sv_r, sv_t) = ito_drift_diffusion(tp_t21, x)
        np.testing.assert_allclose(drift, [ITO_RADIAL_AT_E, 0.0], rtol=1e-12, atol=1e-12)
        assert sv_r == pytest.approx(ITO_SV_RADIAL, rel=1e-12)
        assert sv_t == pytest.approx(ITO_SV_TANGENT, rel=1e-12)

    def test_parts_sum_to_drift(self, tp_t21):
        x = np.array([1.1, -2.3])
        grad_term, logdet_term, laplace_term = ito_drift_parts(tp_t21, x)
        drift, _ = ito_drift_diffusion(tp_t21, x)
        np.testing.assert_allclose(grad_term + logdet_term + laplace_term, drift, rtol=1e-12)

    def test_origin_is_singular(self, tp_t21):
        with pytest.raises(ValueError, match="origin"):
            ito_drift_diffusion(tp_t21, np.zeros(2))
        with pytest.raises(ValueError, match="origin"):
            ito_drift_parts(tp_t21, np.zeros(2))

    def test_rejects_batches(self, tp_t21):
        with pytest.raises(ValueError, match="single point"):
            ito_drift_diffusion(tp_t21, np.zeros((3, 2)))

    def test_diffusion_in_one_dimension(self):
        """d = 1 has no tangential directions; the radial value remains."""
        entry = make_example(ExampleKind.MULTIVARIATE_T, 1, kappa=1.0, b=1.0)
        tp = TransformedPotential(entry.potential, entry.transform)
        _, (sv_r, _) = ito_drift_diffusion(tp, np.array([math.e]))
        assert sv_r == pytest.approx(ITO_SV_RADIAL, rel=1e-12)

    def test_warmup_transform_branch(self):
        entry = make_example(ExampleKind.WARMUP, 2)
        tp = TransformedPotential(entry.potential, entry.transform)
        drift, (sv_r, sv_t) = ito_drift_diffusion(tp, np.array([3.0, 4.0]))
        # u = g^{-1}(5) = sqrt(5 / 2), g'(u) = 4u on the quadratic branch
        u = math.sqrt(2.5)
        assert sv_r == pytest.approx(math.sqrt(2.0) * 4.0 * u, rel=1e-12)
        assert sv_t == pytest.approx(math.sqrt(2.0) * 5.0 / u, rel=1e-12)
        assert np.all(np.isfinite(drift))
