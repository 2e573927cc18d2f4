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

On the exponential tail branch these are evaluated through the target's
log-argument hooks, ``F(t) = f(e^t)``: with ``u = b r**beta``,

    f(g) = F(u),   f'(g) g' = F'(u) u',   f''(g) g'^2 + f'(g) g'' =
    F''(u) u'^2 + F'(u) u'',

so the exploding profile value ``exp(b r**beta)`` never appears.

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
from .targets import IsotropicPotential

__all__ = [
    "TransformedPotential",
    "HessianEigenvalues",
    "ItoDecomposition",
    "transformed_value",
    "transformed_gradient",
    "transformed_log_density",
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

    ``bulk_slope`` is ``phi'`` when the target was built from a closed
    transformed potential ``phi`` for this very transform, else None.
    """

    target: IsotropicPotential
    transform: tr.RadialTransform
    bulk_slope: Callable | None = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.target.dimension != self.transform.dimension:
            raise ValueError(
                f"dimension mismatch: target {self.target.dimension}, "
                f"transform {self.transform.dimension}"
            )
        form = self.target.transformed_form
        slope = form.dvalue if form is not None and form.transform == self.transform else None
        object.__setattr__(self, "bulk_slope", slope)

    @property
    def dimension(self) -> int:
        return self.transform.dimension


def _split_masks(t: tr.RadialTransform, r: np.ndarray):
    bulk = r < t.knot
    return bulk, ~bulk


def value_radial(tp: TransformedPotential, r):
    """``f_h`` as a function of the radius; vectorized, finite at 0."""
    arr, scalar = tr._check_radii(r)
    t, f = tp.transform, tp.target
    d = t.dimension
    out = np.empty_like(arr)
    bulk, tail = _split_masks(t, arr)
    if bulk.any():
        rb = arr[bulk]
        out[bulk] = (
            np.asarray(f.value(t.gin.value(rb)), dtype=float)
            - tr.log_gprime(t, rb)
            - (d - 1.0) * tr.log_g_over_r(t, rb)
        )
    if tail.any():
        rt = arr[tail]
        if t.tail == "exp":
            u, _, _ = tr.tail_exponent(t, rt)
            fval = np.asarray(f.log_value(u), dtype=float)
        else:
            fval = np.asarray(f.value(tr.g_eval(t, rt, 0)), dtype=float)
        out[tail] = fval - tr.log_gprime(t, rt) - (d - 1.0) * tr.log_g_over_r(t, rt)
    return tr._ret(out, scalar)


def grad_factor(tp: TransformedPotential, r):
    """Radial derivative ``f_h'(r)``; the gradient is this times ``y / r``.

    On the bulk branch of a target built from a closed transformed
    potential for this transform, ``f_h'`` is that form's derivative
    (``tp.bulk_slope``).  Composing ``f'`` with the profile there would
    first invert the profile by Newton's method, only to recover the
    radius the call started from.
    """
    arr, scalar = tr._check_radii(r)
    t, f = tp.transform, tp.target
    d = t.dimension
    out = np.empty_like(arr)
    bulk, tail = _split_masks(t, arr)
    if bulk.any():
        rb = arr[bulk]
        if tp.bulk_slope is not None:
            out[bulk] = tp.bulk_slope(rb)
        else:
            force = np.asarray(f.dvalue(t.gin.value(rb)), dtype=float) * t.gin.deriv(rb, 1)
            out[bulk] = force - tr.dlog_gprime(t, rb) - (d - 1.0) * tr.dlog_g_over_r(t, rb)
    if tail.any():
        rt = arr[tail]
        if t.tail == "exp":
            u, du, _ = tr.tail_exponent(t, rt)
            force = np.asarray(f.dlog_value(u), dtype=float) * du
        else:
            force = np.asarray(f.dvalue(tr.g_eval(t, rt, 0)), dtype=float) * tr.g_eval(t, rt, 1)
        out[tail] = force - tr.dlog_gprime(t, rt) - (d - 1.0) * tr.dlog_g_over_r(t, rt)
    return tr._ret(out, scalar)


def _second_radial(tp: TransformedPotential, arr: np.ndarray) -> np.ndarray:
    """``f_h''(r)``, the radial Hessian eigenvalue."""
    t, f = tp.transform, tp.target
    d = t.dimension
    out = np.empty_like(arr)
    bulk, tail = _split_masks(t, arr)
    if bulk.any():
        rb = arr[bulk]
        g = t.gin.value(rb)
        gp = t.gin.deriv(rb, 1)
        gpp = t.gin.deriv(rb, 2)
        curv = (
            np.asarray(f.d2value(g), dtype=float) * gp * gp
            + np.asarray(f.dvalue(g), dtype=float) * gpp
        )
        out[bulk] = curv - tr.d2log_gprime(t, rb) - (d - 1.0) * tr.d2log_g_over_r(t, rb)
    if tail.any():
        rt = arr[tail]
        if t.tail == "exp":
            u, du, d2u = tr.tail_exponent(t, rt)
            curv = (
                np.asarray(f.d2log_value(u), dtype=float) * du * du
                + np.asarray(f.dlog_value(u), dtype=float) * d2u
            )
        else:
            s = tr.g_eval(t, rt, 0)
            gp = tr.g_eval(t, rt, 1)
            curv = (
                np.asarray(f.d2value(s), dtype=float) * gp * gp
                + np.asarray(f.dvalue(s), dtype=float) * tr.g_eval(t, rt, 2)
            )
        out[tail] = curv - tr.d2log_gprime(t, rt) - (d - 1.0) * tr.d2log_g_over_r(t, rt)
    return out


def hessian_eigenvalues(tp: TransformedPotential, r):
    """Eigenvalues of ``grad^2 f_h`` at radius ``r > 0``.

    Returns ``(radial, tangential)``: ``f_h''(r)`` with multiplicity one
    along ``y/|y|`` and ``f_h'(r)/r`` with multiplicity ``d - 1`` on the
    orthogonal complement.  Raises for nonpositive radii, where the
    spectral split is undefined.
    """
    arr, scalar = tr._check_radii(r)
    if (arr <= 0.0).any():
        raise ValueError("hessian eigenvalues need r > 0")
    lam_rad = _second_radial(tp, arr)
    lam_tan = np.atleast_1d(np.asarray(grad_factor(tp, arr), dtype=float)) / arr
    return HessianEigenvalues(tr._ret(lam_rad, scalar), tr._ret(lam_tan, scalar))


def _batched(y, dimension: int):
    y = np.asarray(y, dtype=float)
    single = y.ndim == 1
    pts = np.atleast_2d(y)
    if pts.shape[-1] != dimension:
        raise ValueError(f"expected dimension {dimension}, got shape {y.shape}")
    return pts, single


def transformed_value(tp: TransformedPotential, y):
    """``f_h(y)`` for a point or a batch of points."""
    pts, single = _batched(y, tp.dimension)
    vals = np.atleast_1d(np.asarray(value_radial(tp, np.linalg.norm(pts, axis=-1)), dtype=float))
    return float(vals[0]) if single else vals


def transformed_log_density(tp: TransformedPotential, y):
    """Unnormalized transformed log-density, ``-f_h(y)``."""
    val = transformed_value(tp, y)
    return -val if np.isscalar(val) else -np.asarray(val)


def transformed_gradient(tp: TransformedPotential, y):
    """``grad f_h(y)``; returns the zero vector within 1e-10 of the origin.

    The gradient of a smooth radial function vanishes at the origin, and
    the cutoff avoids dividing by a vanishing radius.
    """
    pts, single = _batched(y, tp.dimension)
    if not np.all(np.isfinite(pts)):
        raise ValueError("gradient of a non-finite point")
    r = np.linalg.norm(pts, axis=-1)
    out = np.zeros_like(pts)
    live = r >= ORIGIN_RADIUS
    if live.any():
        rho = np.atleast_1d(np.asarray(grad_factor(tp, r[live]), dtype=float))
        out[live] = pts[live] * (rho / r[live])[:, None]
    return out[0] if single else out


def ito_drift_parts(tp: TransformedPotential, x):
    """The three pieces of the Ito drift at ``x != 0``, each a vector.

    ``(gradient_term, logdet_term, laplacian_term)`` where the full drift
    is their sum: the pulled-back force ``-(grad h)(grad h)^T grad f``, the
    Jacobian correction ``(grad h)^T grad log det grad h``, and the
    componentwise Laplacian of ``h``, all evaluated at ``u = g^{-1}(|x|)``.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != tp.dimension:
        raise ValueError(f"expected a single point of dimension {tp.dimension}")
    s = float(np.linalg.norm(x))
    if s == 0.0:
        raise ValueError("the Ito decomposition is singular at the origin")
    t, f = tp.transform, tp.target
    d = t.dimension
    u = float(tr.g_inverse(t, s))
    gp = float(tr.g_eval(t, u, 1))
    gpp = float(tr.g_eval(t, u, 2))
    fp = float(f.dvalue(s))
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
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != tp.dimension:
        raise ValueError(f"expected a single point of dimension {tp.dimension}")
    s = float(np.linalg.norm(x))
    if s == 0.0:
        raise ValueError("the Ito decomposition is singular at the origin")
    t, f = tp.transform, tp.target
    d = t.dimension
    u = float(tr.g_inverse(t, s))
    gp = float(tr.g_eval(t, u, 1))
    gpp = float(tr.g_eval(t, u, 2))
    fp = float(f.dvalue(s))
    radial = -gp * gp * fp + 2.0 * gpp + (d - 1.0) * gp * gp / s - (d - 1.0) * s / (u * u)
    drift = radial * x / s
    return ItoDecomposition(drift, (np.sqrt(2.0) * gp, np.sqrt(2.0) * s / u))
