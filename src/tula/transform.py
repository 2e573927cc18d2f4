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
* tail, ``r >= knot``: ``g = e^u`` with ``u = b r**beta``, ``beta in (1,
  2]`` (knot at ``b**(-1/beta)``), or ``u = log a + 2 log r`` (``g = a
  r**2``, ``beta = 2``) beyond an explicit knot radius (the quadratic kind
  used by the warm-up construction).

Many quantities downstream (gradients, Hessian eigenvalues, log-densities)
need the profile only through the log-Jacobian terms ``log g'`` and
``log(g/r)`` and their derivatives, because the naive compositions
overflow: ``exp(b r**beta)`` leaves double range near ``r ~ 26`` for
``b = 1, beta = 2`` while the log-space forms stay exact.  Each branch has
one jet (:class:`RadialJet`) that computes the profile pieces and these
terms together, at the derivative orders a caller asks for: :func:`bulk_jet`
shares the Horner passes over the derivatives of ``p`` and one ``exp(p)``,
and :func:`tail_jet` shares the exponent ``u = log g`` of either tail kind.
A jet's profile is ``g`` on the bulk and ``u`` on every tail, so callers
compose every tail through ``F(u) = f(e^u)``, and :func:`_tail_root`
inverts ``u`` for both kinds; only this module tells the kinds apart.
:func:`g_eval` composes ``g = e^u`` on the exponential tail and keeps the
exact ``a r**2``, whose knot maps onto the seam, on the quadratic one.
:meth:`GinSpec.deriv` and the Newton steps of :func:`g_inverse` read the
bulk jet's profile.  :func:`log_jacobian_terms` assembles the log terms
across the knot, and :func:`log_det_jacobian` is a view of it.  Every
function here that is piecewise in the radius splits its input by one
rule: the upper piece owns the boundary, so the tail owns the knot.

The module also owns the package's calling convention.  A radial function
takes a scalar, giving a float, or an array, giving an array of its shape;
NaN passes through, and a negative radius raises "radii must be
nonnegative", as every potential's radius hooks do; a log-argument hook
takes any real.  A radial field ``s(|x|) x/|x|`` (``h``, ``h^{-1}``,
the gradients) takes a point or a batch of points, with its caller's rule
at the origin.

One radius, as a sampler step asks for, travels as a Python float through
the gradient of :mod:`tula.dynamics` on every pairing, since on a
one-element array each numpy call costs far more than its arithmetic.
Each pairing builds its factor ``f_h'`` at one radius once: a closed
``phi`` paired with its own transform gives its ``phi'`` hook, any other
pairing the closure of :func:`_order_one_factor`.  The shared step path
around it stays as it is: the benchmark's ``peak_rss_mb`` counts the
passes a faster step runs.  Each branch jet has one body, run on arrays or
on one float (a float ``r`` gives a jet of floats) in the same operation
order with numpy's ufuncs (:class:`_Ufuncs`), so both give the same bits.
Past the bulk's Horner pass and constants, the float paths add only range
predicates and finiteness tests: Python float arithmetic overflows and
makes NaN without numpy's warnings, so a radius where a ufunc would warn,
or whose result is not finite, goes through the array path, which warns,
and raises under ``np.errstate``, as a batch of it does.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import math
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "GinSpec",
    "RadialTransform",
    "RadialJet",
    "bulk_jet",
    "tail_jet",
    "log_jacobian_terms",
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
_NEWTON_TOL = 1e-12  # relative stopping rule of the bulk inversion in g_inverse
_KNOT_REL_TOL = 1e-8  # of the knot_order checks in verify_g1_assumption
_FLOAT = np.dtype(float)  # a native float64 array's, for the hooks' path through _radial


def _is_count(value, least: float = -math.inf) -> bool:
    """Whether `value` is an integer >= `least` (by default any); a bool is not one."""
    return not isinstance(value, bool) and isinstance(value, (int, np.integer)) and value >= least


def _count(name: str, value, least: int) -> int:
    """`value` as an int (JSON takes no numpy integer), raising unless `_is_count`."""
    if not _is_count(value, least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _positive(name: str, value):
    """`value` unchanged, raising unless it is a positive finite number; a bool is not one."""
    if isinstance(value, (bool, np.bool_)) or not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


# 0-d operands of the jets: numpy combines an array with a 0-d array in
# about half the time it takes with a Python float
_ZERO = np.array(0.0)


class _Ufuncs(NamedTuple):
    """The ufuncs a branch jet's body calls: numpy's, returning arrays or, on
    one radius, Python floats (``math``'s differ in the last bit)."""

    exp: Callable
    log: Callable
    log1p: Callable
    power: Callable


_ARRAY_UFUNCS = _Ufuncs(np.exp, np.log, np.log1p, np.power)
_FLOAT_UFUNCS = _Ufuncs(lambda x: float(np.exp(x)), lambda x: float(np.log(x)),
                        lambda x: float(np.log1p(x)), lambda x, y: float(np.power(x, y)))


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

    It holds the coefficients of ``p`` and its first three derivatives,
    ``_rows[j]`` those of ``p^(j)`` highest power first, twice for Horner's
    rule in ``polyval``'s operation order, so each row equals ``polyval``
    bit for bit: as Python floats for a jet at one radius, and as 0-d
    float64 arrays, like the jet's constants ``(c, log c, 1, 2)`` in
    ``_array_constants``, so that each step of a jet on a batch is one
    array ufunc.
    """

    scale: float
    log_poly: tuple[float, ...]
    _rows: tuple = dataclasses.field(init=False, repr=False, compare=False)
    _row_arrays: tuple = dataclasses.field(init=False, repr=False, compare=False)
    _constants: tuple = dataclasses.field(init=False, repr=False, compare=False)
    _array_constants: tuple = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _positive("scale", self.scale)
        if len(self.log_poly) == 0:
            raise ValueError("log_poly needs at least a constant coefficient")
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "log_poly", tuple(float(c) for c in self.log_poly))
        if len(self.log_poly) > 1 and self.log_poly[1] != 0.0:
            raise ValueError(
                f"linear coefficient of log_poly must be zero, got {self.log_poly[1]}"
            )
        table = np.zeros((4, len(self.log_poly)))
        table[0] = self.log_poly
        with np.errstate(over="ignore"):
            for j in range(1, 4):  # the derivative of the row above
                table[j, :-1] = table[j - 1, 1:] * np.arange(1, table.shape[1])
        if not np.isfinite(table).all():
            raise ValueError("log_poly and its first three derivatives need finite coefficients")
        rows = tuple(tuple(row[: max(row.size - j, 1)][::-1].tolist())
                     for j, row in enumerate(table))
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_row_arrays", tuple(tuple(map(np.array, row)) for row in rows))
        object.__setattr__(self, "_constants", (self.scale, math.log(self.scale), 1.0, 2.0))
        object.__setattr__(self, "_array_constants", tuple(map(np.array, self._constants)))

    def _log_profiles(self, r: np.ndarray, rows: int) -> list:
        """``p, ..., p^(rows - 1)`` at the radii ``r``, each by Horner's rule
        in the operation order of ``polyval``, updated in place."""
        zero = r * _ZERO
        out = []
        for top, *rest in self._row_arrays[:rows]:
            acc = top + zero
            into = acc if acc.ndim else None  # a 0-d r gives numpy scalars
            for c in rest:
                acc = np.add(c, np.multiply(acc, r, into), into)
            out.append(acc)
        return out

    def log_profile(self, r, order: int = 0):
        """``p`` or one of its first three derivatives, a row of
        :meth:`_log_profiles`; it equals ``polyval`` bit for bit."""
        return self._log_profiles(np.asarray(r, dtype=float), order + 1)[order]

    def value(self, r):
        return self.deriv(r, 0)

    def deriv(self, r, order: int):
        """``g_in`` derivative of the given order, 0 to 3, vectorized in ``r``.

        The profile piece of :func:`bulk_jet`, at any radius: at and beyond
        the knot it is the one-sided bulk reference the gluing checks use.
        """
        if order not in (0, 1, 2, 3):
            raise ValueError(f"order must be in {{0, 1, 2, 3}}, got {order}")
        return _radial(lambda x: bulk_jet(self, x, (order,), logs=False).profile[order], r)


@dataclasses.dataclass(frozen=True)
class RadialTransform:
    """Piecewise radial profile plus the dimension it acts in.

    ``tail`` selects the tail branch: ``"exp"`` uses ``exp(b r**beta)``
    beyond the knot ``b**(-1/beta)``; ``"quadratic"``, with ``beta = 2``,
    uses ``tail_scale * r**2`` beyond ``tail_knot``.  For the exponential kind
    the profile value at the knot is ``e`` by construction, and a valid
    bulk profile matches it there to third order.  ``knot`` (where the bulk
    hands over to the tail) and its image ``seam`` (where the inverse
    switches branch) are Python floats, set once: one comparison splits a radius.
    """

    b: float
    beta: float
    gin: GinSpec
    dimension: int
    tail: str = _EXP
    tail_scale: float = 0.0
    tail_knot: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "dimension", _count("dimension", self.dimension, 1))
        if self.tail == _EXP:
            _positive("b", self.b)
            if not (1.0 < self.beta <= 2.0):
                raise ValueError(f"beta must lie in (1, 2], got {self.beta}")
            knot, seam, unused = self.b ** (-1.0 / self.beta), math.e, ("tail_scale", "tail_knot")
        elif self.tail == _QUADRATIC:
            if not (self.tail_scale > 0.0 and self.tail_knot > 0.0):
                raise ValueError("quadratic tail needs positive tail_scale and tail_knot")
            if self.beta != 2.0:
                raise ValueError(f"a quadratic tail has beta = 2, got {self.beta}")
            knot, seam, unused = self.tail_knot, self.tail_scale * self.tail_knot**2, ("b",)
        else:
            raise ValueError(f"unknown tail kind {self.tail!r}")
        for name in unused:  # the other kind's constants would only enter == and hash
            if (value := getattr(self, name)) != 0.0:
                raise ValueError(f"the {self.tail} tail takes no {name}, got {value}")
        object.__setattr__(self, "knot", float(knot))
        object.__setattr__(self, "seam", float(seam))
        object.__setattr__(self, "_d1", self.dimension - 1.0)

    @functools.cached_property
    def _bulk_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Log-log samples of the bulk profile for g_inverse's Newton warm starts."""
        radii = np.geomspace(self.knot * 1e-8, self.knot, 64)
        return np.log(self.gin.value(radii)), np.log(radii)


def ginbeta2_profile(b: float) -> GinSpec:
    """Quintic-exponent bulk profile matching ``exp(b r**2)`` to third order.

    ``c = sqrt(b)`` and ``p`` has coefficients ``47/60``, ``0``, ``b``,
    ``-(10/3) b**1.5``, ``(15/4) b**2``, ``-(6/5) b**2.5``; the powers of
    ``b`` make the match hold at the knot ``b**(-1/2)`` for every ``b``.
    """
    _positive("b", b)
    try:  # Python's float power raises OverflowError, and GinSpec rejects inf
        return GinSpec(scale=math.sqrt(b), log_poly=(
            47.0 / 60.0, 0.0, b, -(10.0 / 3.0) * b**1.5, (15.0 / 4.0) * b**2, -(6.0 / 5.0) * b**2.5))
    except (OverflowError, ValueError):
        raise ValueError(f"b = {b} is too large: the coefficients of the bulk exponent "
                         "and its derivatives, up to 72 b**2.5, overflow") from None


def ginbeta2_transform(b: float, dimension: int) -> RadialTransform:
    """Standard transform: quintic bulk glued to ``exp(b r**2)``."""
    return RadialTransform(b=b, beta=2.0, gin=ginbeta2_profile(b), dimension=dimension)


def warmup_profile(dimension: int, knot: float = 1.0) -> GinSpec:
    """Cubic-exponent bulk profile matching ``d r**2`` to second order.

    ``g_in(r) = d R r exp(-5/6 + (3/2) r^2/R^2 - (2/3) r^3/R^3)`` with
    ``R`` the knot.  The glue is C2 but deliberately not C3: the third
    derivative jumps by ``6 d / R`` at the knot.
    """
    dimension = _count("dimension", dimension, 1)
    r_knot = float(_positive("knot", knot))
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


def _piecewise(x: np.ndarray, boundary: float, lower, upper) -> list:
    """``lower`` on ``x < boundary`` and ``upper`` on the rest of ``x``.

    ``x`` is a 1-d array; each piece maps its share of it to a sequence of
    arrays, and the pieces' outputs are scattered back into arrays shaped
    like ``x``.  The upper piece owns the boundary itself; NaN goes to the
    lower piece.  A piece that covers all of ``x`` gets ``x`` itself, at
    the cost of one comparison and one count: a batch wholly on one side
    (A1-A4's default grid starts at the knot) or a scalar public call.
    """
    up = x >= boundary
    n_up = np.count_nonzero(up)
    if n_up == x.size:
        return list(upper(x))
    if n_up == 0:
        return list(lower(x))
    down = ~up
    outs = []
    for lo_val, hi_val in zip(lower(x[down]), upper(x[up])):
        out = np.empty_like(x)
        out[down] = lo_val
        out[up] = hi_val
        outs.append(out)
    return outs


# --- calling convention ---------------------------------------------------


def _radial(fn, r, check: bool = True):
    """``fn`` of ``r``, taken as a float array of at least one dimension.

    A scalar ``r`` gives a float back (a tuple of floats when ``fn`` returns
    a sequence of arrays); an array gives what ``fn`` returns, shaped like
    ``r``.  NaN passes through.  ``check`` rejects negative radii; the
    log-argument hooks of :mod:`tula.targets` turn it off.
    """
    if not check and type(r) is np.ndarray and r.ndim == 1 and r.dtype is _FLOAT:
        return fn(r)  # a hook's call on a batch of radii the package computed
    arr = np.asarray(r, dtype=float)
    scalar = arr.ndim == 0
    if scalar:
        arr = arr.reshape(1)
    if check and (arr < 0.0).any():
        raise ValueError("radii must be nonnegative")
    out = fn(arr)
    if not scalar:
        return out
    if isinstance(out, np.ndarray):
        return float(out[0])
    return tuple(float(v[0]) for v in out)


def _points(x, dimension: int) -> np.ndarray:
    """``x`` as a float array of one point (shape ``(d,)``) or of a batch of
    points (shape ``(..., d)``)."""
    pts = np.asarray(x, dtype=float)
    if pts.shape[-1:] != (dimension,):
        raise ValueError(f"expected points of dimension {dimension}, got shape {pts.shape}")
    return pts


def _radial_field(x, dimension: int, s, at_origin):
    """The field ``s(r) x / r``, ``r = |x|``, at a point or each point of a batch.

    ``s`` maps a 1-d array of radii to the radial component.  Rows where the
    caller's rule ``at_origin(r)`` holds are zero and never reach ``s``.
    """
    pts = _points(x, dimension)
    single = pts.ndim == 1
    if single:
        pts = pts[None]
    r = np.linalg.norm(pts, axis=-1)
    out = np.zeros_like(pts)
    live = ~at_origin(r)
    if live.any():
        rl = r[live]
        out[live] = pts[live] * (s(rl) / rl)[:, None]
    return out[0] if single else out


# --- branch jets ----------------------------------------------------------
#
# Bulk identities, writing q = p', all exact in the profile polynomial; one
# Horner pass per derivative of p gives p, q, p'' and p''', and one exp(p)
# serves every profile piece:
#   g                = c r e^p
#   g'               = c (1 + r q) e^p
#   g''              = c (2 q + r p'' + r q^2) e^p
#   g'''             = c (3 q^2 + 3 p'' + 3 r q p'' + r q^3 + r p''') e^p
#   log g            = log c + log r + p
#   log g'           = log c + log1p(r q) + p
#   (log g')'        = q + (q + r p'') / (1 + r q)
#   (log g')''       = p'' + [(2 p'' + r p''')(1 + r q) - (q + r p'')^2] / (1 + r q)^2
#   log (g / r)      = log c + p
#   (log (g/r))'     = q
#   (log (g/r))''    = p''
# The last three are what make the origin regular: they stay finite as
# r -> 0 precisely because p has no linear term.


class RadialJet(NamedTuple):
    """One branch's radial pieces at a batch of radii for the derivative
    orders a caller asks for, the largest ``k <= 3``.

    ``profile[j]`` is the ``j``-th derivative of ``g`` on the bulk, and of
    the exponent ``u = log g`` on every tail (where ``g = e^u`` may leave
    double range); it holds ``k + 1`` arrays.  ``log_gprime`` and
    ``log_g_over_r`` map each asked order ``j <= 2``, and no other, to the
    ``j``-th derivative of ``log g'`` and ``log(g/r)``, the two terms of
    the log-Jacobian ``log g' + (d - 1) log(g/r)``.
    """

    profile: tuple
    log_gprime: dict
    log_g_over_r: dict


def bulk_jet(gin: GinSpec, r, orders, *, logs: bool = True) -> RadialJet:
    """Jet of the bulk profile ``c r e^p`` at radii ``r`` for the derivative
    orders ``orders``, a collection of integers from 0 to 3: the profile
    pieces and, unless ``logs`` is false, the log terms of the identities
    above at the asked orders.  No knot test: the caller passes bulk radii.
    A float ``r`` gives a jet of floats and an array a jet of arrays.

    Their one body, :func:`_bulk_identities`, runs on the array ``r`` or,
    for one radius (a Python float or an ``r`` of shape ``(1,)``), on
    Python floats by :func:`_bulk_jet_at` (see :func:`_at_one_radius`).
    """
    return _at_one_radius(r, _bulk_jet_at, _bulk_jet_of, gin, orders, logs)


def _bulk_jet_of(gin: GinSpec, r: np.ndarray, orders, logs: bool) -> RadialJet:
    """The array pass of :func:`bulk_jet`."""
    p = gin._log_profiles(r, min(max(orders) + 2, 4) if logs else max(orders) + 1)
    return _bulk_identities(p, r, gin._array_constants, _ARRAY_UFUNCS, orders, logs)


def _bulk_identities(p: list, r, consts: tuple, uf: _Ufuncs, orders, logs: bool) -> RadialJet:
    """The one body of :func:`bulk_jet`: the identities above at the radii ``r`` from the
    rows ``p`` of ``p, q, p'', ...``, ``consts = (c, log c, 1, 2)`` (0-d or floats) and ``uf``."""
    top = max(orders)
    c, log_c, one, two = consts
    ep = uf.exp(p[0])
    g = [c * r * ep]
    if len(p) > 1:
        q = p[1]
        rq = r * q
        den = one + rq
    if top >= 1:
        g.append(c * den * ep)
    if top >= 2:
        g.append(c * (two * q + r * p[2] + rq * q) * ep)
    if top >= 3:
        g.append(c * (3.0 * q * q + 3.0 * p[2] + 3.0 * r * q * p[2] + r * uf.power(q, 3)
                      + r * p[3]) * ep)
    lgp, lgr = {}, {}
    if logs and 0 in orders:
        lgp[0] = log_c + uf.log1p(rq) + p[0]
        lgr[0] = log_c + p[0]
    if logs and 1 in orders:
        lgp[1] = q + (q + r * p[2]) / den
        lgr[1] = q
    if logs and 2 in orders:
        e = q + r * p[2]
        lgp[2] = p[2] + ((two * p[2] + r * p[3]) * den - e * e) / (den * den)
        lgr[2] = p[2]
    return RadialJet(tuple(g), lgp, lgr)


def _at_one_radius(r, jet_at, jet_of, owner, *args) -> RadialJet:
    """A branch jet at the radii ``r``: ``jet_of(owner, r, *args)`` on an
    array, and ``jet_at(owner, x, *args)`` on the Python float ``x`` of one
    radius; both run the branch's one body, ``jet_at`` with float ufuncs.

    A float ``r`` gets a jet of floats and a shape-``(1,)`` ``r`` a jet of
    one-element arrays, with the array pass's bits either way.  Python
    float arithmetic overflows and makes NaN silently where numpy warns, so
    ``jet_at`` declines (returns None) a radius outside its range predicate,
    where a ufunc the body calls would warn, or whose result is not finite
    (:func:`_finite`); the array pass then works that radius, with its
    warnings and its ``np.errstate`` errors.
    """
    if type(r) is float:
        jet = jet_at(owner, r, *args)
        return jet if jet is not None else _jet_map(np.ndarray.item,
                                                     jet_of(owner, np.array((r,)), *args))
    if r.shape == (1,):
        jet = jet_at(owner, r.item(), *args)
        if jet is not None:
            return _jet_map(_one, jet)
    return jet_of(owner, r, *args)


def _one(v: float) -> np.ndarray:
    """``v`` as a one-element array."""
    return np.array((v,))


def _jet_map(fn, jet: RadialJet) -> RadialJet:
    """``jet`` with ``fn`` applied to each of its values."""
    p, lgp, lgr = jet
    return RadialJet(tuple(map(fn, p)), {k: fn(v) for k, v in lgp.items()},
                     {k: fn(v) for k, v in lgr.items()})


def _finite(jet: RadialJet) -> bool:
    """Whether every value of a jet of floats is finite (a sum that
    overflows reads as not finite, which only sends a radius to the array pass)."""
    return math.isfinite(sum(jet.profile) + sum(jet.log_gprime.values())
                         + sum(jet.log_g_over_r.values()))


def _bulk_jet_at(gin: GinSpec, x: float, orders, logs: bool) -> RadialJet | None:
    """:func:`bulk_jet` at the one radius ``x`` in Python floats, bit for bit: the rows
    ``p, q, p'', ...`` it reads by Horner's rule in the array pass's order, then
    :func:`_bulk_identities` with the float constants ``GinSpec._constants``.  None, for
    the array pass, where a result is not finite or a ufunc argument of the identities
    leaves the range where nothing warns: ``p`` must be finite and at most 709 (so
    ``e^p`` is finite), ``1 + r q`` in (0, 1e150) (the domain of ``log1p``, a nonzero
    divisor and a finite square) and ``|q|`` below 1e100 (a finite cube)."""
    top, p = max(orders), []
    for row in gin._rows[: min(top + 2, 4) if logs else top + 1]:
        acc = row[0] + x * 0.0
        for c in row[1:]:
            acc = c + acc * x
        p.append(acc)
    if not (-math.inf < p[0] <= 709.0 and (len(p) == 1 or 0.0 < 1.0 + x * p[1] < 1e150)
            and (top < 3 or abs(p[1]) < 1e100)):
        return None
    jet = _bulk_identities(p, x, gin._constants, _FLOAT_UFUNCS, orders, logs)
    return jet if _finite(jet) else None


def _order_one_factor(t: RadialTransform, dvalue: Callable, dlog_value: Callable) -> Callable:
    """The factor ``x -> f_h'(x)`` of :mod:`tula.dynamics` at one float radius, bit for
    bit the batch pass, over the knot, ``d - 1``, the bulk's Horner rows and ``c`` and
    the target's ``f'`` and ``F'`` hooks.  It writes out :func:`_bulk_jet_at` at
    order 1 with its range tests, takes the tail's pieces from :func:`_tail_jet_at`, and
    composes them as ``dynamics._branch``; None, for the array pass with its warnings,
    where those decline ``x`` or the factor is not finite."""
    knot, d1, isfinite, exp = t.knot, t._d1, math.isfinite, np.exp
    (p_top, *p_rest), (q_top, *q_rest), (p2_top, *p2_rest) = t.gin._rows[:3]
    c = t.gin._constants[0]

    def factor(x: float) -> float | None:
        if x >= knot:
            jet = _tail_jet_at(t, x, (1,))
            if jet is None:
                return None
            (u, du), lgp, lgr = jet
            out = dlog_value(u) * du - lgp[1] - d1 * lgr[1]
        else:
            zero = x * 0.0
            p = p_top + zero
            for a in p_rest:
                p = a + p * x
            q = q_top + zero
            for a in q_rest:
                q = a + q * x
            p2 = p2_top + zero
            for a in p2_rest:
                p2 = a + p2 * x
            den = 1.0 + x * q
            if not (-math.inf < p <= 709.0 and 0.0 < den < 1e150):
                return None
            ep = float(exp(p))
            lead, slope, log_gp = c * x * ep, c * den * ep, q + (q + x * p2) / den
            if not isfinite(lead + slope + log_gp + q):
                return None
            out = dvalue(lead) * slope - log_gp - d1 * q
        return out if isfinite(out) else None

    return factor


def _tail_profile(t: RadialTransform, r, order: int, uf: _Ufuncs = _ARRAY_UFUNCS) -> tuple:
    """The profile half of :func:`tail_jet`, orders 0 to ``order``: the
    exponent ``u = log g`` and its derivatives, ``b r**beta`` on the
    exponential kind and ``log a + 2 log r`` on the quadratic kind."""
    if t.tail == _QUADRATIC:
        u = [math.log(t.tail_scale) + 2.0 * uf.log(r), 2.0 / r, -2.0 / (r * r)]
        if order >= 3:
            u.append(4.0 / uf.power(r, 3))
        return tuple(u[: order + 1])
    coef, u = t.b, []
    for k in range(order + 1):  # u^(k) = b beta (beta - 1) ... (beta - k + 1) r**(beta - k)
        u.append(coef * uf.power(r, t.beta - k))
        coef = coef * (t.beta - k)
    return tuple(u)


def _tail_root(t: RadialTransform, log_s):
    """The tail radius whose exponent ``u`` is ``log_s``: ``(log_s / b)**(1/beta)``
    on the exponential kind and ``exp((log_s - log a) / 2)`` on the quadratic kind."""
    if t.tail == _QUADRATIC:
        return np.exp(0.5 * (log_s - math.log(t.tail_scale)))
    return np.power(log_s / t.b, 1.0 / t.beta)


def _tail_bend(t: RadialTransform) -> tuple[bool, Callable]:
    """On a ``beta = 2`` tail: whether the quotient ``(phi'' - phi'/r + LJ''
    - LJ'/r)/u'^2`` of a potential built from ``phi`` is ``F'' - F'`` (True)
    or ``F''``, and the closed ``LJ'' - LJ'/r`` of the log-Jacobian ``LJ =
    log g' + (d-1) log(g/r)`` as a function of the radius.

    The exponential kind has ``u''/u' = 1/r`` and ``LJ'' - LJ'/r = (2d -
    4)/r**2``; the quadratic kind ``u''/u' + u' = 1/r`` and ``-2d/r**2``,
    summed from ``1/r**2`` and ``1/r`` as :func:`tail_jet`'s terms are, so
    that it has their bits.
    """
    d1 = t._d1
    if t.tail == _QUADRATIC:
        def term(r):
            a, b = 1.0 / (r * r), 1.0 / r
            return -(a + d1 * a) - (b + d1 * b) / r

        return True, term
    return False, lambda r: (2.0 * d1 - 2.0) / (r * r)


def tail_jet(t: RadialTransform, r, orders) -> RadialJet:
    """Jet of the tail profile at radii ``r >= knot`` for the derivative
    orders ``orders``, a collection of integers from 0 to 3.

    The exponent ``u = log g`` of :func:`_tail_profile` with the log terms
    ``log g' = log c + k log r + u`` and ``log(g/r) = u - log r`` at the
    asked orders, where ``u' = c r**k``: ``(c, k)`` is ``(b beta, beta -
    1)`` on the exponential kind and ``(2, -1)`` on the quadratic kind.  A
    float ``r`` gives a jet of floats and an array a jet of arrays.
    Its one body, :func:`_tail_jet_of`, runs on the array ``r`` or, for one
    radius (a Python float or an ``r`` of shape ``(1,)``), on Python floats
    by :func:`_tail_jet_at` (see :func:`_at_one_radius`).
    """
    return _at_one_radius(r, _tail_jet_at, _tail_jet_of, t, orders)


def _tail_jet_of(t: RadialTransform, r, orders, uf: _Ufuncs = _ARRAY_UFUNCS) -> RadialJet:
    """The one body of :func:`tail_jet`, on arrays or, with the float ufuncs, on a float."""
    u = _tail_profile(t, r, max(orders), uf)
    c, k = (2.0, -1.0) if t.tail == _QUADRATIC else (t.b * t.beta, t.beta - 1.0)
    lgp, lgr = {}, {}
    if 0 in orders:
        logr = uf.log(r)
        lgp[0] = math.log(c) + k * logr + u[0]
        lgr[0] = u[0] - logr
    if 1 in orders:
        lgp[1] = k / r + u[1]
        lgr[1] = u[1] - 1.0 / r
    if 2 in orders:
        lgp[2] = -k / (r * r) + u[2]
        lgr[2] = u[2] + 1.0 / (r * r)
    return RadialJet(u, lgp, lgr)


def _tail_jet_at(t: RadialTransform, x: float, orders) -> RadialJet | None:
    """:func:`tail_jet` at the one radius ``x`` in Python floats, bit for
    bit: :func:`_tail_jet_of` with the float ufuncs.  None, for the array
    pass, outside ``1e-100 < x < 1e100`` (where every power of ``x`` in the
    jet stays finite) or where a result is not finite."""
    if not 1e-100 < x < 1e100:
        return None
    jet = _tail_jet_of(t, x, orders, _FLOAT_UFUNCS)
    return jet if _finite(jet) else None


def g_eval(t: RadialTransform, r, order: int = 0):
    """Profile value or derivative, piecewise across the knot.

    ``order`` 0 through 3.  Vectorized; scalar in, scalar out.  The tail
    branch owns the knot radius itself.  The quadratic tail is the exact
    ``a r**2``, so that ``g(knot)`` is the seam; the exponential tail
    composes ``g = e^u`` and ``g' = u' g``, ``g'' = (u'' + u'^2) g``,
    ``g''' = (u''' + 3 u' u'' + u'^3) g``, which overflow once ``u`` passes
    ~709; :func:`log_jacobian_terms` and :func:`tail_jet` stay in log space.
    """
    if order not in (0, 1, 2, 3):
        raise ValueError(f"order must be in {{0, 1, 2, 3}}, got {order}")

    def tail(x):
        if t.tail == _QUADRATIC:
            a = t.tail_scale
            return ((a * x * x, 2.0 * a * x, np.full_like(x, 2.0 * a), np.zeros_like(x))[order],)
        u = _tail_profile(t, x, order)
        with np.errstate(over="ignore"):
            g = np.exp(u[0])
        if order == 0:
            return (g,)
        if order == 1:
            return (u[1] * g,)
        if order == 2:
            return ((u[2] + u[1] * u[1]) * g,)
        return ((u[3] + 3.0 * u[1] * u[2] + u[1] ** 3) * g,)

    bulk = lambda x: (bulk_jet(t.gin, x, (order,), logs=False).profile[order],)
    return _radial(lambda x: _piecewise(x, t.knot, bulk, tail)[0], r)


def log_jacobian_terms(t: RadialTransform, r, order: int):
    """``(log g')^(j)`` and ``(log(g/r))^(j)`` for ``j = 0..order``.

    The two log-Jacobian tuples of the branch jets, assembled over radii on
    either side of the knot (the tail owns the knot itself).  Scalar in,
    scalar entries out.  ``order`` 0 through 2.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"order must be in {{0, 1, 2}}, got {order}")

    def log_terms(jet: RadialJet) -> tuple:
        return (*jet.log_gprime.values(), *jet.log_g_over_r.values())

    terms = _radial(lambda x: _piecewise(
        x, t.knot, lambda xb: log_terms(bulk_jet(t.gin, xb, range(order + 1))),
        lambda xt: log_terms(tail_jet(t, xt, range(order + 1)))), r)
    return tuple(terms[: order + 1]), tuple(terms[order + 1:])


def g_inverse(t: RadialTransform, s):
    """Invert the profile: the radius ``r >= 0`` with ``g(r) = s``.

    Tail values invert in closed form: the exponential kind through its
    exponent ``u = log s`` (:func:`_tail_root`), the quadratic kind ``s = a
    r**2`` as ``sqrt(s) / sqrt(a)``, which keeps the digits ``log s`` would
    lose.  Bulk values use a bracketed Newton iteration seeded from a
    log-log table of the profile, falling back to bisection whenever the
    Newton step leaves the current bracket, until ``|g(r) - s| <= 1e-12 s``
    (bulk values are positive; the bound is floored at the smallest normal
    float, so subnormal values still return).
    """
    def bulk(x):
        out = np.where(np.isnan(x), x, 0.0)  # zero maps to zero exactly, NaN to NaN
        pos = x > 0.0
        if pos.any():
            out[pos] = _invert_bulk(t, x[pos])
        return (out,)

    if t.tail == _QUADRATIC:
        tail = lambda x: (np.sqrt(x) / math.sqrt(t.tail_scale),)
    else:
        tail = lambda x: (_tail_root(t, np.log(x)),)
    return _radial(lambda x: _piecewise(x, t.seam, bulk, tail)[0], s)


def _invert_bulk(t: RadialTransform, s: np.ndarray) -> np.ndarray:
    lo = np.zeros_like(s)
    hi = np.full_like(s, t.knot)
    log_values, log_radii = t._bulk_table
    log_s = np.log(s)
    # g is linear near the origin, so below the table the guess extrapolates
    # through the origin; clamped at the first entry instead, Newton steps
    # from a radius far above the root lose its digits to cancellation
    guess = np.exp(np.interp(log_s, log_values, log_radii) + np.minimum(log_s - log_values[0], 0.0))
    r = np.clip(guess, 0.0, t.knot)
    # relative, floored where tol * s underflows
    target_tol = np.maximum(_NEWTON_TOL * s, np.finfo(float).tiny)
    for _ in range(200):
        g, slope = bulk_jet(t.gin, r, (1,), logs=False).profile
        val = g - s
        done = np.abs(val) <= target_tol
        if np.all(done):
            break
        high = val > 0.0
        hi = np.where(high, r, hi)
        lo = np.where(high, lo, r)
        step = val / slope
        cand = r - step
        inside = (cand > lo) & (cand < hi)
        r = np.where(done, r, np.where(inside, cand, 0.5 * (lo + hi)))
    else:
        raise RuntimeError("bulk profile inversion did not converge")
    return r


def h_forward(t: RadialTransform, x):
    """Apply ``h(x) = g(|x|) x / |x|`` to a point or a batch of points.

    The origin is a fixed point and a NaN coordinate maps to NaN.  An image
    past the float range saturates to inf, without numpy warnings.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _radial_field(x, t.dimension, lambda r: g_eval(t, r, 0), lambda r: r == 0.0)


def h_inverse(t: RadialTransform, x):
    """Apply ``h^{-1}(x) = g^{-1}(|x|) x / |x|``, with the rules of :func:`h_forward`."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _radial_field(x, t.dimension, lambda r: g_inverse(t, r), lambda r: r == 0.0)


def log_det_jacobian(t: RadialTransform, r):
    """``log det(grad h)`` at radius ``r``.

    Equals ``log g'(r) + (d - 1) log(g(r)/r)``; both pieces extend
    continuously to ``r = 0`` with value ``log c + p(0)`` each, so the
    origin needs no special casing beyond evaluating the log-space forms.
    """
    d = t.dimension
    (lgp,), (lgr,) = log_jacobian_terms(t, r, 0)
    return lgp if d == 1 else lgp + (d - 1) * lgr


# --- verification ---------------------------------------------------------


def _record_dict(record) -> dict:
    """A dataclass record's fields, nested records included, as JSON-ready
    values: enums as their values, arrays and tuples as lists."""

    def fields(pairs: list) -> dict:
        return {key: value.value if isinstance(value, enum.Enum)
                else value.tolist() if isinstance(value, np.ndarray)
                else list(value) if isinstance(value, tuple) else value
                for key, value in pairs}

    return dataclasses.asdict(record, dict_factory=fields)


@dataclasses.dataclass(frozen=True)
class G1Check:
    """One verification entry: a named measurement against a tolerance."""

    name: str
    measure: float
    tolerance: float
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return _record_dict(self)


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
        return {"passed": self.passed, **_record_dict(self)}


def _bounded_towards_zero(radii: np.ndarray, values: np.ndarray) -> tuple[bool, float]:
    """Heuristic boundedness test on a geometric grid shrinking to zero.

    A finite limit keeps the magnitudes at the smallest radii on the same
    scale as the rest; a ``1/r``-type divergence inflates them by the grid
    ratio.  Flags divergence when the smallest-decade maximum exceeds ten
    times the magnitude scale away from zero (with an absolute floor so
    identically-small sequences pass).  A non-finite value fails, measured
    by the largest magnitude that is not NaN, or NaN if every value is.
    """
    if not np.all(np.isfinite(values)):
        return False, float(np.fmax.reduce(np.abs(values)))
    mag = np.abs(values)
    near = mag[radii <= radii[0] * 100.0]
    away = mag[radii >= 1e-4]
    scale = max(float(np.max(away, initial=0.0)), 1.0)
    worst = float(np.max(near, initial=0.0))
    return worst <= 10.0 * scale, worst


def verify_g1_assumption(t: RadialTransform, target=None) -> G1Report:
    """Numerically verify the profile gluing and origin-limit conditions.

    Checks, each reported as a :class:`G1Check`:

    * ``origin_value``: ``g_in(0) = 0``.
    * ``knot_order{k}``: relative mismatch, at most ``1e-8``, of the bulk
      and tail branches at the knot for derivative orders ``k``; orders
      0..3 for the exponential tail, 0..2 for the quadratic kind (whose
      construction is only C2).
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

    v0 = t.gin.value(0.0)
    checks.append(G1Check("origin_value", abs(v0), 0.0, v0 == 0.0))

    max_order = 3 if t.tail == _EXP else 2
    for k in range(max_order + 1):
        left = t.gin.deriv(knot, k)
        right = g_eval(t, knot, k)
        rel = abs(left - right) / max(1.0, abs(right))
        checks.append(
            G1Check(
                f"knot_order{k}",
                rel,
                _KNOT_REL_TOL,
                rel <= _KNOT_REL_TOL,
                f"bulk {left:.12g} vs tail {right:.12g}",
            )
        )
    if t.tail == _EXP:
        val = t.gin.value(knot)
        rel = abs(val - math.e) / math.e
        checks.append(G1Check("knot_value", rel, 1e-10, rel <= 1e-10, f"g_in(knot) = {val:.15g}"))

    grid = np.linspace(knot / 2048.0, knot, 2048)
    min_slope = float(np.min(t.gin.deriv(grid, 1)))
    checks.append(G1Check("bulk_monotone", min_slope, 0.0, min_slope > 0.0, "min g_in' on (0, knot]"))

    radii = np.geomspace(1e-8, knot, 161)
    jet = bulk_jet(t.gin, radii, (1, 2))
    limits = {
        "limit_dlog_gprime_over_r": jet.log_gprime[1] / radii,
        "limit_dlog_g_over_r_over_r": jet.log_g_over_r[1] / radii,
        "limit_d2log_g_over_r": jet.log_g_over_r[2],
        "limit_d2log_gprime": jet.log_gprime[2],
    }
    if target is not None:
        limits["limit_radial_force"] = target.dvalue(jet.profile[0]) * jet.profile[1] / radii
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
