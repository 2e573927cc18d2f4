"""Radial diffeomorphisms that compress heavy tails.

The map ``h(x) = g(|x|) x / |x|`` stretches radii through an increasing
profile ``g : [0, inf) -> [0, inf)``.  Pulling a heavy-tailed density back
through ``h`` turns polynomial tails into (sub)Gaussian ones, at the price
of a more complicated potential.  This module owns the profile ``g``: its
piecewise definition, derivatives, inverse, the induced map ``h`` and its
Jacobian determinant, and a numerical verifier for the smoothness and
origin-limit conditions the downstream theory needs.

Profiles are piecewise in the radius with a single knot:

* bulk, ``r < knot``: ``g_in(r) = c * r * exp(p(r))`` for a polynomial ``p``
  with zero linear coefficient (:class:`GinSpec`);
* tail, ``r >= knot``: either ``exp(b r**beta)`` with ``beta in (1, 2]``
  (knot at ``b**(-1/beta)``), or ``a r**2`` beyond an explicit knot radius
  (the quadratic kind used by the warm-up construction).

Many quantities downstream (gradients, Hessian eigenvalues, log-densities)
only need logarithmic derivatives of ``g``.  Those are exposed directly
(:func:`log_gprime`, :func:`dlog_g_over_r`, ...) because the naive
compositions overflow: ``exp(b r**beta)`` leaves double range near
``r ~ 26`` for ``b = 1, beta = 2`` while the log-space forms stay exact.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npoly

__all__ = [
    "GinSpec",
    "RadialTransform",
    "G1Check",
    "G1Report",
    "ginbeta2_profile",
    "ginbeta2_transform",
    "warmup_profile",
    "warmup_transform",
    "g_eval",
    "g_inverse",
    "h_forward",
    "h_inverse",
    "log_det_jacobian",
    "verify_g1_assumption",
    "transform_to_dict",
    "transform_from_dict",
    "transform_to_json",
    "transform_from_json",
]

_EXP = "exp"
_QUADRATIC = "quadratic"


def _polyder(coeffs: tuple[float, ...]) -> tuple[float, ...]:
    if len(coeffs) <= 1:
        return (0.0,)
    return tuple(k * c for k, c in enumerate(coeffs) if k > 0)


@dataclasses.dataclass(frozen=True)
class GinSpec:
    """Bulk profile ``g_in(r) = scale * r * exp(p(r))``.

    Parameters
    ----------
    scale:
        Positive multiplier ``c``.
    log_poly:
        Coefficients of ``p``, lowest order first.  The linear coefficient
        must vanish; otherwise the origin limits of the transformed
        geometry diverge like ``1/r``.
    """

    scale: float
    log_poly: tuple[float, ...]
    _coeff_arrays: tuple[np.ndarray, ...] = dataclasses.field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        if len(self.log_poly) == 0:
            raise ValueError("log_poly needs at least a constant coefficient")
        object.__setattr__(self, "log_poly", tuple(float(c) for c in self.log_poly))
        if len(self.log_poly) > 1 and self.log_poly[1] != 0.0:
            raise ValueError(
                f"linear coefficient of log_poly must be zero, got {self.log_poly[1]}"
            )
        p1 = _polyder(self.log_poly)
        p2 = _polyder(p1)
        arrays = tuple(
            np.asarray(c, dtype=float) for c in (self.log_poly, p1, p2, _polyder(p2))
        )
        object.__setattr__(self, "_coeff_arrays", arrays)

    # Derivative coefficient tuples, lowest order first.
    @property
    def _p1(self) -> tuple[float, ...]:
        return tuple(self._coeff_arrays[1])

    @property
    def _p2(self) -> tuple[float, ...]:
        return tuple(self._coeff_arrays[2])

    @property
    def _p3(self) -> tuple[float, ...]:
        return tuple(self._coeff_arrays[3])

    def log_profile(self, r, order: int = 0):
        """Evaluate ``p`` or one of its first three derivatives."""
        return npoly.polyval(r, self._coeff_arrays[order])

    def value(self, r):
        return self.scale * r * np.exp(self.log_profile(r))

    def deriv(self, r, order: int):
        """``g_in`` derivative of the given order, vectorized in ``r``.

        Closed forms from differentiating ``c r exp(p)``; with ``q = p'``:

        * order 1: ``c (1 + r q) e^p``
        * order 2: ``c (2 q + r p'' + r q^2) e^p``
        * order 3: ``c (3 q^2 + 3 p'' + 3 r q p'' + r q^3 + r p''') e^p``
        """
        r = np.asarray(r, dtype=float)
        ep = np.exp(self.log_profile(r))
        c = self.scale
        if order == 0:
            return c * r * ep
        q = self.log_profile(r, 1)
        if order == 1:
            return c * (1.0 + r * q) * ep
        p2 = self.log_profile(r, 2)
        if order == 2:
            return c * (2.0 * q + r * p2 + r * q * q) * ep
        p3 = self.log_profile(r, 3)
        if order == 3:
            return c * (3.0 * q * q + 3.0 * p2 + 3.0 * r * q * p2 + r * q**3 + r * p3) * ep
        raise ValueError(f"order must be in {{0, 1, 2, 3}}, got {order}")


@dataclasses.dataclass(frozen=True)
class RadialTransform:
    """Piecewise radial profile plus the dimension it acts in.

    ``tail`` selects the tail branch: ``"exp"`` uses ``exp(b r**beta)``
    beyond the knot ``b**(-1/beta)``; ``"quadratic"`` uses
    ``tail_scale * r**2`` beyond ``tail_knot``.  For the exponential kind
    the profile value at the knot is ``e`` by construction, and a valid
    bulk profile matches it there to third order.
    """

    b: float
    beta: float
    gin: GinSpec
    dimension: int
    tail: str = _EXP
    tail_scale: float = 0.0
    tail_knot: float = 0.0

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if self.tail == _EXP:
            if not (self.b > 0.0 and math.isfinite(self.b)):
                raise ValueError(f"b must be positive and finite, got {self.b}")
            if not (1.0 < self.beta <= 2.0):
                raise ValueError(f"beta must lie in (1, 2], got {self.beta}")
        elif self.tail == _QUADRATIC:
            if not (self.tail_scale > 0.0 and self.tail_knot > 0.0):
                raise ValueError("quadratic tail needs positive tail_scale and tail_knot")
        else:
            raise ValueError(f"unknown tail kind {self.tail!r}")

    @property
    def knot(self) -> float:
        """Radius where the bulk profile hands over to the tail."""
        if self.tail == _EXP:
            return self.b ** (-1.0 / self.beta)
        return self.tail_knot

    @property
    def seam(self) -> float:
        """Image of the knot, i.e. where the *inverse* switches branch."""
        if self.tail == _EXP:
            return math.e
        return self.tail_scale * self.tail_knot**2


def ginbeta2_profile(b: float) -> GinSpec:
    """Quintic-exponent bulk profile matching ``exp(b r**2)`` to third order.

    ``c = sqrt(b)`` and ``p`` has coefficients ``47/60``, ``0``, ``b``,
    ``-(10/3) b**1.5``, ``(15/4) b**2``, ``-(6/5) b**2.5``; the powers of
    ``b`` make the match hold at the knot ``b**(-1/2)`` for every ``b``.
    """
    if not b > 0.0:
        raise ValueError(f"b must be positive, got {b}")
    return GinSpec(
        scale=math.sqrt(b),
        log_poly=(
            47.0 / 60.0,
            0.0,
            b,
            -(10.0 / 3.0) * b**1.5,
            (15.0 / 4.0) * b**2,
            -(6.0 / 5.0) * b**2.5,
        ),
    )


def ginbeta2_transform(b: float, dimension: int) -> RadialTransform:
    """Standard transform: quintic bulk glued to ``exp(b r**2)``."""
    return RadialTransform(b=b, beta=2.0, gin=ginbeta2_profile(b), dimension=dimension)


def warmup_profile(dimension: int, knot: float = 1.0) -> GinSpec:
    """Cubic-exponent bulk profile matching ``d r**2`` to second order.

    ``g_in(r) = d R r exp(-5/6 + (3/2) r^2/R^2 - (2/3) r^3/R^3)`` with
    ``R`` the knot.  The glue is C2 but deliberately not C3: the third
    derivative jumps by ``6 d / R`` at the knot.
    """
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    if not knot > 0.0:
        raise ValueError(f"knot must be positive, got {knot}")
    r_knot = float(knot)
    return GinSpec(
        scale=dimension * r_knot,
        log_poly=(-5.0 / 6.0, 0.0, 1.5 / r_knot**2, -(2.0 / 3.0) / r_knot**3),
    )


def warmup_transform(dimension: int, knot: float = 1.0) -> RadialTransform:
    """Transform with quadratic tail ``d r**2``, used by the warm-up target."""
    return RadialTransform(
        b=0.0,
        beta=2.0,
        gin=warmup_profile(dimension, knot),
        dimension=dimension,
        tail=_QUADRATIC,
        tail_scale=float(dimension),
        tail_knot=float(knot),
    )


def _split(t: RadialTransform, r: np.ndarray):
    """Masks for the two branches; tail owns the knot itself."""
    bulk = r < t.knot
    return bulk, ~bulk


def _check_radii(r) -> tuple[np.ndarray, bool]:
    arr = np.asarray(r, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if (arr < 0.0).any():
        raise ValueError("radii must be nonnegative")
    return arr, scalar


def _ret(value: np.ndarray, scalar: bool):
    return float(value[0]) if scalar else value


def _tail_deriv(t: RadialTransform, r: np.ndarray, order: int) -> np.ndarray:
    if t.tail == _QUADRATIC:
        a = t.tail_scale
        if order == 0:
            return a * r * r
        if order == 1:
            return 2.0 * a * r
        if order == 2:
            return np.full_like(r, 2.0 * a)
        return np.zeros_like(r)
    b, beta = t.b, t.beta
    with np.errstate(over="ignore"):
        ex = np.exp(b * np.power(r, beta))
    if order == 0:
        return ex
    bb = b * beta
    if order == 1:
        return bb * np.power(r, beta - 1.0) * ex
    if order == 2:
        return (bb * (beta - 1.0) * np.power(r, beta - 2.0) + bb * bb * np.power(r, 2.0 * beta - 2.0)) * ex
    return (
        bb * (beta - 1.0) * (beta - 2.0) * np.power(r, beta - 3.0)
        + 3.0 * bb * bb * (beta - 1.0) * np.power(r, 2.0 * beta - 3.0)
        + bb**3 * np.power(r, 3.0 * beta - 3.0)
    ) * ex


def g_eval(t: RadialTransform, r, order: int = 0):
    """Profile value or derivative, piecewise across the knot.

    ``order`` 0 through 3.  Vectorized; scalar in, scalar out.  The tail
    branch owns the knot radius itself.  Note the raw tail value overflows
    for ``b r**beta`` beyond ~709; use the log-space helpers when only
    logarithmic information is needed.
    """
    if order not in (0, 1, 2, 3):
        raise ValueError(f"order must be in {{0, 1, 2, 3}}, got {order}")
    arr, scalar = _check_radii(r)
    bulk, tail = _split(t, arr)
    out = np.empty_like(arr)
    if bulk.any():
        out[bulk] = t.gin.deriv(arr[bulk], order) if order else t.gin.value(arr[bulk])
    if tail.any():
        out[tail] = _tail_deriv(t, arr[tail], order)
    return _ret(out, scalar)


# --- logarithmic helpers -------------------------------------------------
#
# Bulk identities, writing q = p', all exact in the profile polynomial:
#   log g            = log c + log r + p
#   log g'           = log c + log1p(r q) + p
#   (log g')'        = q + (q + r p'') / (1 + r q)
#   (log g')''       = p'' + [(2 p'' + r p''')(1 + r q) - (q + r p'')^2] / (1 + r q)^2
#   log (g / r)      = log c + p
#   (log (g/r))'     = q
#   (log (g/r))''    = p''
# The last three are what make the origin regular: they stay finite as
# r -> 0 precisely because p has no linear term.


def _bulk_log_parts(t: RadialTransform, r: np.ndarray, what: str) -> np.ndarray:
    g = t.gin
    c = g.scale
    if what == "log_g_over_r":
        return math.log(c) + g.log_profile(r)
    q = g.log_profile(r, 1)
    if what == "log_gprime":
        return math.log(c) + np.log1p(r * q) + g.log_profile(r)
    if what == "dlog_g_over_r":
        return q
    p2 = g.log_profile(r, 2)
    if what == "dlog_gprime":
        return q + (q + r * p2) / (1.0 + r * q)
    if what == "d2log_g_over_r":
        return p2
    # d2log_gprime
    p3 = g.log_profile(r, 3)
    denom = 1.0 + r * q
    return p2 + ((2.0 * p2 + r * p3) * denom - (q + r * p2) ** 2) / (denom * denom)


def _tail_log_parts(t: RadialTransform, r: np.ndarray, what: str) -> np.ndarray:
    if t.tail == _QUADRATIC:
        a = t.tail_scale
        with np.errstate(divide="ignore"):
            logr = np.log(r)
        table: dict[str, Callable[[], np.ndarray]] = {
            "log_g_over_r": lambda: math.log(a) + logr,
            "log_gprime": lambda: math.log(2.0 * a) + logr,
            "dlog_g_over_r": lambda: 1.0 / r,
            "dlog_gprime": lambda: 1.0 / r,
            "d2log_g_over_r": lambda: -1.0 / (r * r),
            "d2log_gprime": lambda: -1.0 / (r * r),
        }
        return table[what]()
    b, beta = t.b, t.beta
    u = b * np.power(r, beta)
    du = b * beta * np.power(r, beta - 1.0)
    d2u = b * beta * (beta - 1.0) * np.power(r, beta - 2.0)
    logr = np.log(r)
    table = {
        "log_g_over_r": lambda: u - logr,
        "log_gprime": lambda: math.log(b * beta) + (beta - 1.0) * logr + u,
        "dlog_g_over_r": lambda: du - 1.0 / r,
        "dlog_gprime": lambda: (beta - 1.0) / r + du,
        "d2log_g_over_r": lambda: d2u + 1.0 / (r * r),
        "d2log_gprime": lambda: -(beta - 1.0) / (r * r) + d2u,
    }
    return table[what]()


def _log_part(t: RadialTransform, r, what: str):
    arr, scalar = _check_radii(r)
    bulk, tail = _split(t, arr)
    out = np.empty_like(arr)
    if bulk.any():
        out[bulk] = _bulk_log_parts(t, arr[bulk], what)
    if tail.any():
        out[tail] = _tail_log_parts(t, arr[tail], what)
    return _ret(out, scalar)


def log_gprime(t: RadialTransform, r):
    """``log g'(r)``, overflow-free on both branches."""
    return _log_part(t, r, "log_gprime")


def dlog_gprime(t: RadialTransform, r):
    """``(log g')'(r) = g''/g'``."""
    return _log_part(t, r, "dlog_gprime")


def d2log_gprime(t: RadialTransform, r):
    """``(log g')''(r)``."""
    return _log_part(t, r, "d2log_gprime")


def log_g_over_r(t: RadialTransform, r):
    """``log(g(r)/r)``; finite at ``r = 0`` where it equals ``log c + p(0)``."""
    return _log_part(t, r, "log_g_over_r")


def dlog_g_over_r(t: RadialTransform, r):
    """``(log(g/r))'(r) = g'/g - 1/r``; finite at the origin."""
    return _log_part(t, r, "dlog_g_over_r")


def d2log_g_over_r(t: RadialTransform, r):
    """``(log(g/r))''(r)``; finite at the origin."""
    return _log_part(t, r, "d2log_g_over_r")


def tail_exponent(t: RadialTransform, r):
    """``(u, u', u'')`` with ``u = b r**beta``, for log-space tail work.

    Only defined for the exponential tail kind.
    """
    if t.tail != _EXP:
        raise ValueError("tail_exponent is only defined for the exponential tail")
    arr, scalar = _check_radii(r)
    b, beta = t.b, t.beta
    u = b * np.power(arr, beta)
    du = b * beta * np.power(arr, beta - 1.0)
    d2u = b * beta * (beta - 1.0) * np.power(arr, beta - 2.0)
    return _ret(u, scalar), _ret(du, scalar), _ret(d2u, scalar)


def g_inverse(t: RadialTransform, s, tol: float = 1e-12):
    """Invert the profile: the radius ``r >= 0`` with ``g(r) = s``.

    Tail values invert in closed form (``(log s / b)**(1/beta)`` for the
    exponential kind, ``sqrt(s / a)`` for the quadratic one).  Bulk values
    use a bracketed Newton iteration seeded from a log-log table of the
    profile, falling back to bisection whenever the Newton step leaves the
    current bracket, until ``|g(r) - s| <= tol * s`` (bulk values are
    positive; the bound is floored at the smallest normal float, so
    subnormal values still return).
    """
    arr, scalar = _check_radii(np.asarray(s, dtype=float))
    out = np.zeros_like(arr)
    seam = t.seam
    tail = arr >= seam
    if tail.any():
        if t.tail == _EXP:
            out[tail] = np.power(np.log(arr[tail]) / t.b, 1.0 / t.beta)
        else:
            out[tail] = np.sqrt(arr[tail] / t.tail_scale)
    bulk = ~tail & (arr > 0.0)  # zero maps to zero exactly
    if bulk.any():
        out[bulk] = _invert_bulk(t, arr[bulk], tol)
    return _ret(out, scalar)


def _warm_start_table(t: RadialTransform) -> tuple[np.ndarray, np.ndarray]:
    """Cached log-log samples of the bulk profile for Newton warm starts.

    Built lazily on first bulk inversion and stored on the instance; the
    construction is idempotent, so a benign race between threads at worst
    builds it twice.
    """
    table = getattr(t, "_bulk_table", None)
    if table is None:
        radii = np.geomspace(t.knot * 1e-8, t.knot, 64)
        table = (np.log(t.gin.value(radii)), np.log(radii))
        object.__setattr__(t, "_bulk_table", table)
    return table


def _invert_bulk(t: RadialTransform, s: np.ndarray, tol: float) -> np.ndarray:
    lo = np.zeros_like(s)
    hi = np.full_like(s, t.knot)
    log_values, log_radii = _warm_start_table(t)
    log_s = np.log(s)
    # g is linear near the origin, so below the table the guess extrapolates
    # through the origin; clamped at the first entry instead, Newton steps
    # from a radius far above the root lose its digits to cancellation
    guess = np.exp(np.interp(log_s, log_values, log_radii) + np.minimum(log_s - log_values[0], 0.0))
    r = np.clip(guess, 0.0, t.knot)
    # relative, floored where tol * s underflows
    target_tol = np.maximum(tol * s, np.finfo(float).tiny)
    for _ in range(200):
        val = t.gin.value(r) - s
        done = np.abs(val) <= target_tol
        if np.all(done):
            break
        high = val > 0.0
        hi = np.where(high, r, hi)
        lo = np.where(high, lo, r)
        step = val / t.gin.deriv(r, 1)
        cand = r - step
        inside = (cand > lo) & (cand < hi)
        r = np.where(done, r, np.where(inside, cand, 0.5 * (lo + hi)))
    else:
        raise RuntimeError("bulk profile inversion did not converge")
    return r


def _radial_map(t: RadialTransform, x, radius_fn):
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.shape[-1] != t.dimension:
        raise ValueError(f"expected points of dimension {t.dimension}, got shape {x.shape}")
    r = np.linalg.norm(pts, axis=-1)
    out = np.zeros_like(pts)
    pos = r > 0.0
    if pos.any():
        # radii whose image exceeds the float range saturate to inf; the
        # warnings carry no more information than the non-finite output
        with np.errstate(over="ignore", invalid="ignore"):
            scale = radius_fn(r[pos]) / r[pos]
            out[pos] = pts[pos] * scale[:, None]
    return out[0] if single else out


def h_forward(t: RadialTransform, x):
    """Apply ``h(x) = g(|x|) x / |x|``; the origin is a fixed point."""
    return _radial_map(t, x, lambda r: g_eval(t, r, 0))


def h_inverse(t: RadialTransform, x):
    """Apply ``h^{-1}(x) = g^{-1}(|x|) x / |x|``."""
    return _radial_map(t, x, lambda r: g_inverse(t, r))


def log_det_jacobian(t: RadialTransform, r):
    """``log det(grad h)`` at radius ``r``.

    Equals ``log g'(r) + (d - 1) log(g(r)/r)``; both pieces extend
    continuously to ``r = 0`` with value ``log c + p(0)`` each, so the
    origin needs no special casing beyond evaluating the log-space forms.
    """
    d = t.dimension
    if d == 1:
        return log_gprime(t, r)
    return log_gprime(t, r) + (d - 1) * log_g_over_r(t, r)


# --- verification ---------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class G1Check:
    """One verification entry: a named measurement against a tolerance."""

    name: str
    measure: float
    tolerance: float
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class G1Report:
    """Outcome of :func:`verify_g1_assumption`; failures are data, not errors."""

    checks: tuple[G1Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> G1Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checks": [c.to_dict() for c in self.checks]}


def _bounded_towards_zero(radii: np.ndarray, values: np.ndarray) -> tuple[bool, float]:
    """Heuristic boundedness test on a geometric grid shrinking to zero.

    A finite limit keeps the magnitudes at the smallest radii on the same
    scale as the rest; a ``1/r``-type divergence inflates them by the grid
    ratio.  Flags divergence when the smallest-decade maximum exceeds ten
    times the magnitude scale away from zero (with an absolute floor so
    identically-small sequences pass).
    """
    if not np.all(np.isfinite(values)):
        return False, float(np.nanmax(np.abs(values), initial=0.0))
    mag = np.abs(values)
    near = mag[radii <= radii[0] * 100.0]
    away = mag[radii >= 1e-4]
    scale = max(float(np.max(away, initial=0.0)), 1.0)
    worst = float(np.max(near, initial=0.0))
    return worst <= 10.0 * scale, worst


def verify_g1_assumption(
    t: RadialTransform,
    target=None,
    knot_rel_tol: float = 1e-8,
) -> G1Report:
    """Numerically verify the profile gluing and origin-limit conditions.

    Checks, each reported as a :class:`G1Check`:

    * ``origin_value``: ``g_in(0) = 0``.
    * ``knot_order{k}``: relative mismatch of the bulk and tail branches at
      the knot for derivative orders ``k``; orders 0..3 for the exponential
      tail, 0..2 for the quadratic kind (whose construction is only C2).
    * ``knot_value``: bulk profile value ``e`` at the knot (exponential
      kind only).
    * ``bulk_monotone``: ``g_in' > 0`` on a dense grid up to the knot.
    * ``limit_*``: boundedness, on a geometric grid down to ``1e-8``, of the
      four profile limits ``(log g_in')'/r``, ``(log(g_in/r))'/r``,
      ``(log(g_in/r))''``, ``(log g_in')''`` and, when a target potential is
      supplied, of the radial force term ``f'(g_in(r)) g_in'(r) / r``.

    Returns the report; it never raises on a failed check.
    """
    checks: list[G1Check] = []
    knot = t.knot

    v0 = float(t.gin.value(np.asarray(0.0)))
    checks.append(G1Check("origin_value", abs(v0), 0.0, v0 == 0.0))

    max_order = 3 if t.tail == _EXP else 2
    for k in range(max_order + 1):
        left = float(t.gin.deriv(np.asarray(knot), k)) if k else float(t.gin.value(np.asarray(knot)))
        right = float(_tail_deriv(t, np.asarray([knot]), k)[0])
        rel = abs(left - right) / max(1.0, abs(right))
        checks.append(
            G1Check(
                f"knot_order{k}",
                rel,
                knot_rel_tol,
                rel <= knot_rel_tol,
                f"bulk {left:.12g} vs tail {right:.12g}",
            )
        )
    if t.tail == _EXP:
        val = float(t.gin.value(np.asarray(knot)))
        rel = abs(val - math.e) / math.e
        checks.append(G1Check("knot_value", rel, 1e-10, rel <= 1e-10, f"g_in(knot) = {val:.15g}"))

    grid = np.linspace(knot / 2048.0, knot, 2048)
    min_slope = float(np.min(t.gin.deriv(grid, 1)))
    checks.append(G1Check("bulk_monotone", min_slope, 0.0, min_slope > 0.0, "min g_in' on (0, knot]"))

    radii = np.geomspace(1e-8, knot, 161)
    limits = {
        "limit_dlog_gprime_over_r": _bulk_log_parts(t, radii, "dlog_gprime") / radii,
        "limit_dlog_g_over_r_over_r": _bulk_log_parts(t, radii, "dlog_g_over_r") / radii,
        "limit_d2log_g_over_r": _bulk_log_parts(t, radii, "d2log_g_over_r"),
        "limit_d2log_gprime": _bulk_log_parts(t, radii, "d2log_gprime"),
    }
    if target is not None:
        limits["limit_radial_force"] = (
            target.dvalue(t.gin.value(radii)) * t.gin.deriv(radii, 1) / radii
        )
    for name, vals in limits.items():
        ok, worst = _bounded_towards_zero(radii, np.asarray(vals))
        checks.append(G1Check(name, worst, math.inf, ok, "max |value| near 0"))

    return G1Report(tuple(checks))


# --- serialization --------------------------------------------------------


def transform_to_dict(t: RadialTransform) -> dict:
    """Plain-dict form; floats survive a JSON round trip bit-for-bit."""
    gin = {"scale": t.gin.scale, "log_poly": list(t.gin.log_poly)}
    if t.tail == _EXP:
        return {"b": t.b, "beta": t.beta, "dimension": t.dimension, "gin": gin}
    return {
        "kind": _QUADRATIC,
        "a": t.tail_scale,
        "knot": t.tail_knot,
        "dimension": t.dimension,
        "gin": gin,
    }


def transform_from_dict(data: dict) -> RadialTransform:
    gin = GinSpec(scale=data["gin"]["scale"], log_poly=tuple(data["gin"]["log_poly"]))
    if data.get("kind") == _QUADRATIC:
        return RadialTransform(
            b=0.0,
            beta=2.0,
            gin=gin,
            dimension=int(data["dimension"]),
            tail=_QUADRATIC,
            tail_scale=float(data["a"]),
            tail_knot=float(data["knot"]),
        )
    return RadialTransform(
        b=float(data["b"]),
        beta=float(data["beta"]),
        gin=gin,
        dimension=int(data["dimension"]),
    )


def transform_to_json(t: RadialTransform) -> str:
    return json.dumps(transform_to_dict(t))


def transform_from_json(text: str) -> RadialTransform:
    return transform_from_dict(json.loads(text))
