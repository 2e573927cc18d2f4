"""Geometry of the transformed potential.

For a radial target ``pi ∝ exp(-f(|x|))`` and a radial transform ``h`` the
pullback density on the ``y`` side is ``pi_h ∝ exp(-f_h(|y|))`` with

    f_h(r) = f(g(r)) - log g'(r) - (d - 1) log(g(r)/r).

Everything the Langevin iteration and the assumption checks need reduces to
radial functions of ``r = |y|``:

* the gradient is ``grad f_h(y) = rho(r) y / r`` with
  ``rho = f'(g) g' - (log g')' - (d-1)(log(g/r))'``;
* the Hessian has the radial eigenvalue ``f_h''(r)`` (multiplicity 1) and
  the tangential eigenvalue ``rho(r)/r`` (multiplicity ``d - 1``).

On every tail branch these are evaluated through the target's
log-argument hooks, ``F(t) = f(e^t)``, at the tail exponent ``u = log g``
(``b r**beta``, or ``log a + 2 log r`` on the quadratic kind):

    f(g) = F(u),   f'(g) g' = F'(u) u',   f''(g) g'^2 + f'(g) g'' =
    F''(u) u'^2 + F'(u) u'',

so the profile value ``g = e^u``, which may leave double range, never
appears.

:func:`value_radial`, :func:`grad_factor` and :func:`hessian_eigenvalues`
are views of one radial jet.  For a target built from a closed transformed
potential ``phi`` for this very transform, ``f_h``, ``f_h'`` and ``f_h''``
are ``phi``, ``phi'`` and ``phi''`` at every radius.  Any other pairing
splits the radii at the knot once, takes the branch jets of
:mod:`tula.transform` (profile pieces and log-Jacobian terms together) and
composes the requested derivatives of ``f_h`` from them.  Radii and points
enter through the calling convention of :mod:`tula.transform`; the
gradient is zero within ``ORIGIN_RADIUS`` of the origin and rejects a
non-finite point.

The module also exposes the Ito form of the transformed dynamics mapped
back to the original space: an SDE with drift ``b(x)`` and a radially
decomposed diffusion ``sigma(x) = sqrt(2) (grad h)(h^{-1}(x))`` whose
singular values are ``sqrt(2) g'(u)`` (radial, multiplicity 1) and
``sqrt(2) |x| / u`` (tangential, multiplicity ``d - 1``) at ``u =
g^{-1}(|x|)``.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, NamedTuple

import numpy as np

from . import transform as tr
from .targets import IsotropicPotential, TransformedForm

__all__ = [
    "TransformedPotential",
    "HessianEigenvalues",
    "ItoDecomposition",
    "transformed_value",
    "transformed_gradient",
    "transformed_log_density",
    "value_radial",
    "hessian_eigenvalues",
    "grad_factor",
    "ito_drift_diffusion",
    "ito_drift_parts",
]


class HessianEigenvalues(NamedTuple):
    """The two distinct eigenvalues of the isotropic Hessian.

    ``lambda_radial`` acts along ``y/|y|`` with multiplicity one;
    ``lambda_tangential`` acts on the orthogonal complement with
    multiplicity ``d - 1``.
    """

    lambda_radial: float | np.ndarray
    lambda_tangential: float | np.ndarray


class ItoDecomposition(NamedTuple):
    """Drift vector and the diffusion's two singular values at a point."""

    drift: np.ndarray
    diffusion: tuple[float, float]

ORIGIN_RADIUS = 1e-10


@dataclasses.dataclass(frozen=True)
class TransformedPotential:
    """A target potential paired with a radial transform of equal dimension.

    ``closed_form`` is the target's closed transformed potential ``phi``
    (with ``phi'`` and ``phi''``) when it was derived for this very
    transform, else None.  ``_factor``, built once, is ``f_h'`` at one
    float radius: ``phi'``'s hook, else ``transform._order_one_factor``'s
    closure.  Neither enters equality, hashing or the repr.
    """

    target: IsotropicPotential
    transform: tr.RadialTransform
    closed_form: TransformedForm | None = dataclasses.field(init=False, repr=False, compare=False)
    _factor: Callable = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.target.dimension != self.transform.dimension:
            raise ValueError(
                f"dimension mismatch: target {self.target.dimension}, "
                f"transform {self.transform.dimension}"
            )
        form = self.target.transformed_form
        closed = form if form is not None and form.transform == self.transform else None
        object.__setattr__(self, "closed_form", closed)
        t, f = self.transform, self.target
        object.__setattr__(self, "_factor", closed.dvalue if closed is not None else
                           tr._order_one_factor(t, f.dvalue, f.dlog_value, t._d1))

    @property
    def dimension(self) -> int:
        return self.transform.dimension


def _radial_jet(tp: TransformedPotential, arr: np.ndarray, orders: tuple[int, ...]) -> list:
    """``f_h^(k)`` at the radii ``arr`` for each ``k`` in ``orders`` (0 to 2).

    For a target built from a closed transformed potential for this
    transform (``tp.closed_form``), ``f_h^(k)`` is ``phi^(k)`` at every
    radius.  Otherwise it splits the radii at the knot once and composes
    ``f`` with the bulk jet and ``F`` with the tail jet at the asked orders,
    calling each hook at most once: ``f_h`` reads ``f``, ``f_h'`` reads
    ``f'`` and ``f_h''`` reads ``f'`` and ``f''``.  One radius (shape
    ``(1,)``, as a sampler step passes) runs in Python floats, bit for bit:
    ``f_h'`` by the pairing's ``tp._factor``, other orders by ``phi^(k)``
    on a closed pairing; the rest, and a radius the factor declines, take
    the array pass.
    """
    form = tp.closed_form
    if arr.shape == (1,):
        x = arr.item()
        if orders == (1,):
            slope = tp._factor(x)
            if slope is not None:
                return [np.array((slope,))]
        if form is not None:
            return [np.array(((form.value, form.dvalue, form.d2value)[k](x),)) for k in orders]
    if form is not None:
        return [(form.value, form.dvalue, form.d2value)[k](arr) for k in orders]
    t = tp.transform
    return tr._piecewise(arr, t._knot,
                         lambda rb: _compose(t._d1, *_branch(tp, rb, False, orders), orders),
                         lambda rt: _compose(t._d1, *_branch(tp, rt, True, orders), orders))


def _branch(tp: TransformedPotential, r, tail: bool, orders) -> tuple:
    """The jet of one branch at the radii ``r`` and, by order, the values
    of its hooks at the jet's profile that the orders need: ``f'`` (or
    ``F'``) for any order above 0 first, then ``f`` and ``f''`` as asked."""
    t, f = tp.transform, tp.target
    if tail:
        jet, hooks = tr.tail_jet(t, r, orders), (f.log_value, f.dlog_value, f.d2log_value)
    else:
        jet, hooks = tr.bulk_jet(t.gin, r, orders), (f.value, f.dvalue, f.d2value)
    p0 = jet.profile[0]
    values = {1: hooks[1](p0)} if max(orders) >= 1 else {}
    for k in orders:
        if k != 1:
            values[k] = hooks[k](p0)
    return jet, values


def _compose(d1, jet: tr.RadialJet, f: dict, orders) -> list:
    """``f_h^(k)`` for each asked ``k`` from a branch jet and the hook
    values ``f`` at its profile: the chain rule through the profile minus
    ``log g' + (d - 1) log(g/r)``; ``transform._order_one_factor`` writes out
    its order 1 at one radius."""
    p, lgp, lgr = jet
    out = []
    for k in orders:
        if k == 0:
            chain = f[0]
        elif k == 1:
            chain = f[1] * p[1]
        else:
            chain = f[2] * p[1] * p[1] + f[1] * p[2]
        out.append(chain - lgp[k] - d1 * lgr[k])
    return out


def value_radial(tp: TransformedPotential, r):
    """``f_h`` as a function of the radius; vectorized, finite at 0.  On a
    pairing without a closed ``phi`` a scalar call runs the array pass on
    one radius, so many radii cost least as one batch."""
    return tr._radial(lambda x: _radial_jet(tp, x, (0,))[0], r)


def grad_factor(tp: TransformedPotential, r):
    """Radial derivative ``f_h'(r)``; the gradient is this times ``y / r``."""
    return tr._radial(lambda x: _radial_jet(tp, x, (1,))[0], r)


def hessian_eigenvalues(tp: TransformedPotential, r):
    """Eigenvalues of ``grad^2 f_h`` at radius ``r > 0``.

    Returns ``(radial, tangential)``: ``f_h''(r)`` with multiplicity one
    along ``y/|y|`` and ``f_h'(r)/r`` with multiplicity ``d - 1`` on the
    orthogonal complement.  Raises for nonpositive radii, where the
    spectral split is undefined.  On a pairing without a closed ``phi`` a
    scalar call runs the array pass on one radius, so many radii cost least
    as one batch.
    """

    def eigenvalues(x):
        if (x <= 0.0).any():
            raise ValueError("hessian eigenvalues need r > 0")
        slope, curv = _radial_jet(tp, x, (1, 2))
        return curv, slope / x

    return HessianEigenvalues(*tr._radial(eigenvalues, r))


def transformed_value(tp: TransformedPotential, y):
    """``f_h(y)`` for a point or a batch of points."""
    return value_radial(tp, np.linalg.norm(tr._points(y, tp.dimension), axis=-1))


def transformed_log_density(tp: TransformedPotential, y):
    """Unnormalized transformed log-density, ``-f_h(y)``."""
    return -transformed_value(tp, y)


def transformed_gradient(tp: TransformedPotential, y):
    """``grad f_h(y)``; returns the zero vector within 1e-10 of the origin.

    The gradient of a smooth radial function vanishes at the origin, and
    the cutoff avoids dividing by a vanishing radius.  Raises on a
    non-finite point.
    """
    if not np.isfinite(y).all():
        raise ValueError("gradient of a non-finite point")
    return tr._radial_field(y, tp.dimension, lambda r: _radial_jet(tp, r, (1,))[0],
                            lambda r: r < ORIGIN_RADIUS)


def _ito_pieces(tp: TransformedPotential, x):
    """Checked ``x``, ``s = |x| > 0``, ``u = g^{-1}(s)``, ``g'(u)``, ``g''(u)``, ``f'(s)``."""
    x = tr._points(x, tp.dimension)
    if x.ndim != 1:
        raise ValueError(f"expected a single point of dimension {tp.dimension}")
    s = float(np.linalg.norm(x))
    if s == 0.0:
        raise ValueError("the Ito decomposition is singular at the origin")
    t = tp.transform
    u = tr.g_inverse(t, s)
    return x, s, u, tr.g_eval(t, u, 1), tr.g_eval(t, u, 2), tp.target.dvalue(s)


def ito_drift_parts(tp: TransformedPotential, x):
    """The three pieces of the Ito drift at ``x != 0``, each a vector.

    ``(gradient_term, logdet_term, laplacian_term)`` where the full drift
    is their sum: the pulled-back force ``-(grad h)(grad h)^T grad f``, the
    Jacobian correction ``(grad h)^T grad log det grad h``, and the
    componentwise Laplacian of ``h``, all evaluated at ``u = g^{-1}(|x|)``.
    """
    x, s, u, gp, gpp, fp = _ito_pieces(tp, x)
    d = tp.dimension
    unit = x / s
    grad_term = -(gp * gp) * fp * unit
    logdet_term = (gpp + (d - 1.0) * gp * gp / s - (d - 1.0) * gp / u) * unit
    laplace_term = (gpp + (d - 1.0) * gp / u - (d - 1.0) * s / (u * u)) * unit
    return grad_term, logdet_term, laplace_term


def ito_drift_diffusion(tp: TransformedPotential, x) -> ItoDecomposition:
    """Drift and diffusion singular values of the mapped dynamics at ``x``.

    The drift vector is

        [-g'(u)^2 f'(|x|) + 2 g''(u) + (d-1) g'(u)^2 / |x|
         - (d-1) |x| / u^2] x / |x|,

    and the diffusion ``sqrt(2) (grad h)(h^{-1}(x))`` is summarized by its
    singular values ``sqrt(2) g'(u)`` (radial direction) and
    ``sqrt(2) |x| / u`` (each tangential direction), with
    ``u = g^{-1}(|x|)``.  Raises at the origin.
    """
    x, s, u, gp, gpp, fp = _ito_pieces(tp, x)
    d = tp.dimension
    radial = -gp * gp * fp + 2.0 * gpp + (d - 1.0) * gp * gp / s - (d - 1.0) * s / (u * u)
    drift = radial * x / s
    return ItoDecomposition(drift, (np.sqrt(2.0) * gp, np.sqrt(2.0) * s / u))
