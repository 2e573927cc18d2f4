"""Isotropic heavy-tailed target densities and a small named zoo.

Every target here is rotation invariant: ``pi(x) ∝ exp(-f(|x|))`` for a
radial potential ``f``.  The :class:`IsotropicPotential` record carries
``f`` with two derivatives plus optional log-argument forms ``F(t) =
f(e^t)`` used to evaluate compositions ``f(exp(b r**beta))`` without ever
materializing the inner exponential (which overflows near ``b r**beta ~
709``).

The zoo pairs each potential with its canonical radial transform
(:mod:`tula.transform`) and, where available, a closed expression for the
transformed potential that the pairing is designed to produce
(:class:`TransformedForm`).  Tests use that expression as a zero-variance
identity, and the gradient uses its derivative on the bulk branch, where
the general composition would first invert the profile by Newton's method.

Zoo construction
----------------
Apart from the multivariate t family and the warm-up target, the entries
share one template.  Pick a tail weight ``vartheta > 0``, set
``b = d / (2 vartheta)``, and choose the transformed potential

    phi(r) = (d/2) r**2 + c_log * d * log(1 + r**2/2) + C

with a per-entry coefficient ``c_log``.  Working the change of variables
backwards fixes the original potential uniquely: in the tail
``|x| >= e``, with ``t = log |x|``,

    f(|x|) = d (1 + 1/(2b)) t + (c_log d + 1 - d/2) log t
             + c_log d log(1 + 2b/t) + C + (1 - c_log d) log 2
             + (d/2 - c_log d) log b

and in the bulk ``f`` is ``phi`` plus the log-Jacobian, evaluated at
``u = g^{-1}(|x|)``.  The entries differ only in ``c_log`` (1, 1/2, 1/4, 0
for the four log-Sobolev benchmark targets; ``1/2 + upsilon`` for the
tunable family) and in ``C``.  Densities have moments of order ``p``
exactly for ``p < vartheta``.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import re
from typing import Callable

import numpy as np

from . import transform as tr

__all__ = [
    "IsotropicPotential",
    "TransformedForm",
    "ExampleKind",
    "TargetZooEntry",
    "make_multivariate_t",
    "make_example",
    "radial_log_density",
    "parse_target_name",
    "available_targets",
]

Array = np.ndarray


def _vectorized(fn: Callable[[Array], Array]):
    def wrapped(r):
        arr = np.asarray(r, dtype=float)
        scalar = arr.ndim == 0
        out = fn(np.atleast_1d(arr))
        return float(out[0]) if scalar else out

    return wrapped


@dataclasses.dataclass(frozen=True)
class TransformedForm:
    """Closed transformed potential ``phi = f_h`` a potential was built from.

    ``value`` and ``dvalue`` are ``phi`` and ``phi'`` as vectorized
    callables of the radius.  They equal the composition ``f_h`` only when
    the potential is paired with ``transform``, the transform ``phi`` was
    derived for.
    """

    transform: tr.RadialTransform
    value: Callable
    dvalue: Callable


@dataclasses.dataclass(frozen=True)
class IsotropicPotential:
    """Radial potential ``f`` of an isotropic density ``exp(-f(|x|))``.

    Attributes
    ----------
    dimension:
        Ambient dimension the density lives in.
    name:
        Human-readable identifier (also used by the command line).
    value, dvalue, d2value:
        ``f``, ``f'``, ``f''`` as vectorized callables of the radius.
    log_value, dlog_value, d2log_value:
        ``F(t) = f(e^t)`` and its first two ``t``-derivatives, in forms
        stable for large ``t``.  Used wherever ``f`` is composed with an
        exponentially growing profile.
    moment_max:
        Radial moments ``E |x|**p`` are finite exactly for
        ``p < moment_max``.
    seams:
        Radii where ``f`` switches branch; derivative checks should avoid
        straddling them.
    parameters:
        The defining constants, for reports and serialization.
    transformed_form:
        The closed transformed potential the density was constructed
        from, or None when it was not built that way.
    """

    dimension: int
    name: str
    value: Callable
    dvalue: Callable
    d2value: Callable
    log_value: Callable
    dlog_value: Callable
    d2log_value: Callable
    moment_max: float = math.inf
    seams: tuple[float, ...] = ()
    parameters: dict = dataclasses.field(default_factory=dict)
    transformed_form: TransformedForm | None = None


class ExampleKind(str, enum.Enum):
    """Named entries of the target zoo."""

    WARMUP = "warmup"
    MULTIVARIATE_T = "t"
    EXAMPLE2 = "example2"
    EXAMPLE3 = "example3"
    EXAMPLE4 = "example4"
    EXAMPLE5 = "example5"
    EXAMPLE6 = "example6"


@dataclasses.dataclass(frozen=True)
class TargetZooEntry:
    """A potential bundled with its canonical transform."""

    potential: IsotropicPotential
    transform: tr.RadialTransform
    kind: ExampleKind
    parameters: dict

    @property
    def expected_transformed_form(self) -> Callable | None:
        """The closed radial expression the transformed potential is
        designed to equal (None when no closed form exists, as for the
        multivariate t family)."""
        form = self.potential.transformed_form
        return None if form is None else form.value


# --- multivariate t -------------------------------------------------------


def make_multivariate_t(dimension: int, kappa: float) -> IsotropicPotential:
    """Potential of the d-dimensional Student t with ``kappa`` degrees.

    ``f(r) = ((d + kappa)/2) log(1 + r**2)``; moments of order ``p`` exist
    iff ``p < kappa``.  All three radius-space derivatives use forms that
    stay exact for radii up to double range, and the log-argument forms use
    the softplus shape ``F(t) = ((d + kappa)/2) log(1 + e^{2t})``.
    """
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    if not kappa > 0.0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    dk = float(dimension + kappa)

    @_vectorized
    def value(r: Array) -> Array:
        small = r <= 1.0
        out = np.empty_like(r)
        out[small] = 0.5 * dk * np.log1p(r[small] ** 2)
        big = ~small
        out[big] = 0.5 * dk * (2.0 * np.log(r[big]) + np.log1p(r[big] ** -2))
        return out

    @_vectorized
    def dvalue(r: Array) -> Array:
        small = r <= 1.0
        out = np.empty_like(r)
        out[small] = dk * r[small] / (1.0 + r[small] ** 2)
        big = ~small
        out[big] = dk / (r[big] + 1.0 / r[big])
        return out

    @_vectorized
    def d2value(r: Array) -> Array:
        small = r <= 1.0
        out = np.empty_like(r)
        rs = r[small]
        out[small] = dk * (1.0 - rs * rs) / (1.0 + rs * rs) ** 2
        q = r[~small] ** -2
        out[~small] = dk * (q * q - q) / (1.0 + q) ** 2
        return out

    @_vectorized
    def log_value(t: Array) -> Array:
        pos = t >= 0.0
        out = np.empty_like(t)
        out[pos] = dk * (t[pos] + 0.5 * np.log1p(np.exp(-2.0 * t[pos])))
        out[~pos] = 0.5 * dk * np.log1p(np.exp(2.0 * t[~pos]))
        return out

    @_vectorized
    def dlog_value(t: Array) -> Array:
        pos = t >= 0.0
        out = np.empty_like(t)
        out[pos] = dk / (1.0 + np.exp(-2.0 * t[pos]))
        e = np.exp(2.0 * t[~pos])
        out[~pos] = dk * e / (1.0 + e)
        return out

    @_vectorized
    def d2log_value(t: Array) -> Array:
        w = np.exp(-2.0 * np.abs(t))
        return dk * 2.0 * w / (1.0 + w) ** 2

    return IsotropicPotential(
        dimension=dimension,
        name=f"t{dimension}_{_fmt(kappa)}",
        value=value,
        dvalue=dvalue,
        d2value=d2value,
        log_value=log_value,
        dlog_value=dlog_value,
        d2log_value=d2log_value,
        moment_max=float(kappa),
        parameters={"dimension": dimension, "kappa": float(kappa)},
    )


def _fmt(x: float) -> str:
    return str(int(x)) if float(x) == int(x) else str(float(x))


# --- the shared zoo template ----------------------------------------------


def _bulk_parts(
    t: tr.RadialTransform,
    phi: Callable[[Array], Array],
    dphi: Callable[[Array], Array],
    d2phi: Callable[[Array], Array],
) -> Callable[[Array, int], Array]:
    """Bulk ``f``, ``f'`` or ``f''`` of a potential built from ``phi``.

    The change of variables run backwards: at ``u = g^{-1}(s)``,
    ``f(s) = phi(u) + log g'(u) + (d-1) log(g(u)/u)``, and the derivatives
    follow by the chain rule through ``ds = g'(u) du``.
    """
    d = t.dimension

    def bulk_parts(s: Array, order: int) -> Array:
        u = np.atleast_1d(np.asarray(tr.g_inverse(t, s), dtype=float))
        if order == 0:
            return phi(u) + tr.log_gprime(t, u) + (d - 1.0) * tr.log_g_over_r(t, u)
        gp = t.gin.deriv(u, 1)
        slope = dphi(u) + tr.dlog_gprime(t, u) + (d - 1.0) * tr.dlog_g_over_r(t, u)
        if order == 1:
            return slope / gp
        curv = d2phi(u) + tr.d2log_gprime(t, u) + (d - 1.0) * tr.d2log_g_over_r(t, u)
        return (curv - slope * tr.dlog_gprime(t, u)) / (gp * gp)

    return bulk_parts


def _zoo_potential(
    name: str,
    t: tr.RadialTransform,
    c_log: float,
    const_bulk: float,
    vartheta: float,
) -> IsotropicPotential:
    # Tail coefficients from the template in the module docstring.
    d = t.dimension
    b = t.b
    k1 = d * (1.0 + 1.0 / (2.0 * b))
    c_ll = c_log * d + 1.0 - 0.5 * d
    c_lb = c_log * d
    const_tail = const_bulk + (1.0 - c_log * d) * math.log(2.0) + (0.5 * d - c_log * d) * math.log(b)
    seam = t.seam  # = e

    def tail_log(tt: Array) -> Array:
        return k1 * tt + c_ll * np.log(tt) + c_lb * np.log1p(2.0 * b / tt) + const_tail

    def tail_dlog(tt: Array) -> Array:
        return k1 + c_ll / tt - 2.0 * b * c_lb / (tt * (tt + 2.0 * b))

    def tail_d2log(tt: Array) -> Array:
        return -c_ll / (tt * tt) + 2.0 * b * c_lb * (2.0 * tt + 2.0 * b) / (tt * (tt + 2.0 * b)) ** 2

    # phi and its first two derivatives, from the template
    def phi(u: Array) -> Array:
        return 0.5 * d * u * u + c_log * d * np.log1p(0.5 * u * u) + const_bulk

    def dphi(u: Array) -> Array:
        return d * u + c_log * d * u / (1.0 + 0.5 * u * u)

    def d2phi(u: Array) -> Array:
        return d + c_log * d * (1.0 - 0.5 * u * u) / (1.0 + 0.5 * u * u) ** 2

    bulk_parts = _bulk_parts(t, phi, dphi, d2phi)

    @_vectorized
    def value(r: Array) -> Array:
        out = np.empty_like(r)
        tail = r >= seam
        if tail.any():
            out[tail] = tail_log(np.log(r[tail]))
        if (~tail).any():
            out[~tail] = bulk_parts(r[~tail], 0)
        return out

    @_vectorized
    def dvalue(r: Array) -> Array:
        out = np.empty_like(r)
        tail = r >= seam
        if tail.any():
            out[tail] = tail_dlog(np.log(r[tail])) / r[tail]
        if (~tail).any():
            out[~tail] = bulk_parts(r[~tail], 1)
        return out

    @_vectorized
    def d2value(r: Array) -> Array:
        out = np.empty_like(r)
        tail = r >= seam
        if tail.any():
            tt = np.log(r[tail])
            out[tail] = (tail_d2log(tt) - tail_dlog(tt)) / (r[tail] * r[tail])
        if (~tail).any():
            out[~tail] = bulk_parts(r[~tail], 2)
        return out

    # F(t) = f(e^t): closed tail form for t >= 1, bulk composition below.
    @_vectorized
    def log_value(tt: Array) -> Array:
        out = np.empty_like(tt)
        tail = tt >= 1.0
        out[tail] = tail_log(tt[tail])
        if (~tail).any():
            out[~tail] = bulk_parts(np.exp(tt[~tail]), 0)
        return out

    @_vectorized
    def dlog_value(tt: Array) -> Array:
        out = np.empty_like(tt)
        tail = tt >= 1.0
        out[tail] = tail_dlog(tt[tail])
        if (~tail).any():
            s = np.exp(tt[~tail])
            out[~tail] = bulk_parts(s, 1) * s
        return out

    @_vectorized
    def d2log_value(tt: Array) -> Array:
        out = np.empty_like(tt)
        tail = tt >= 1.0
        out[tail] = tail_d2log(tt[tail])
        if (~tail).any():
            s = np.exp(tt[~tail])
            out[~tail] = bulk_parts(s, 2) * s * s + bulk_parts(s, 1) * s
        return out

    return IsotropicPotential(
        dimension=d,
        name=name,
        value=value,
        dvalue=dvalue,
        d2value=d2value,
        log_value=log_value,
        dlog_value=dlog_value,
        d2log_value=d2log_value,
        moment_max=float(vartheta),
        seams=(seam,),
        parameters={"dimension": d, "b": b, "c_log": c_log, "vartheta": vartheta},
        transformed_form=TransformedForm(t, _vectorized(phi), _vectorized(dphi)),
    )


def _zoo_entry(
    kind: ExampleKind,
    dimension: int,
    c_log: float,
    const_bulk: float,
    vartheta: float,
    extra: dict,
) -> TargetZooEntry:
    b = dimension / (2.0 * vartheta)
    t = tr.ginbeta2_transform(b, dimension)
    pot = _zoo_potential(kind.value, t, c_log, const_bulk, vartheta)
    params = {"dimension": dimension, "vartheta": vartheta, "b": b, **extra}
    return TargetZooEntry(pot, t, kind, params)


# --- warm-up ---------------------------------------------------------------


def _warmup_entry(dimension: int, knot: float) -> TargetZooEntry:
    t = tr.warmup_transform(dimension, knot)
    d = float(dimension)
    seam = t.seam  # = d * knot**2, the image of the knot
    const = -0.5 * d * math.log(d) - math.log(2.0)

    def sq(s: Array) -> Array:
        # sqrt(1 + s^2) without overflow for s beyond 1e154
        big = s > 1.0
        out = np.empty_like(s)
        out[big] = s[big] * np.sqrt(1.0 + s[big] ** -2)
        out[~big] = np.sqrt(1.0 + s[~big] ** 2)
        return out

    # phi(r) = sqrt(1 + (d r^2)^2) + const and its first two derivatives
    def phi(u: Array) -> Array:
        return np.sqrt(1.0 + (d * u * u) ** 2) + const

    def dphi(u: Array) -> Array:
        return 2.0 * d * d * u**3 / np.sqrt(1.0 + (d * u * u) ** 2)

    def d2phi(u: Array) -> Array:
        root = np.sqrt(1.0 + (d * u * u) ** 2)
        return 6.0 * d * d * u * u / root - 4.0 * d**4 * u**6 / root**3

    bulk_parts = _bulk_parts(t, phi, dphi, d2phi)

    @_vectorized
    def value(r: Array) -> Array:
        out = np.empty_like(r)
        tail = r >= seam
        rt = r[tail]
        out[tail] = sq(rt) + 0.5 * d * np.log(rt)
        if (~tail).any():
            out[~tail] = bulk_parts(r[~tail], 0)
        return out

    @_vectorized
    def dvalue(r: Array) -> Array:
        out = np.empty_like(r)
        tail = r >= seam
        rt = r[tail]
        out[tail] = rt / sq(rt) + 0.5 * d / rt
        if (~tail).any():
            out[~tail] = bulk_parts(r[~tail], 1)
        return out

    @_vectorized
    def d2value(r: Array) -> Array:
        out = np.empty_like(r)
        tail = r >= seam
        rt = r[tail]
        out[tail] = 1.0 / sq(rt) ** 3 - 0.5 * d / (rt * rt)
        if (~tail).any():
            out[~tail] = bulk_parts(r[~tail], 2)
        return out

    value_fn, dvalue_fn, d2value_fn = value, dvalue, d2value

    @_vectorized
    def log_value(tt: Array) -> Array:
        return np.atleast_1d(np.asarray(value_fn(np.exp(tt)), dtype=float))

    @_vectorized
    def dlog_value(tt: Array) -> Array:
        s = np.exp(tt)
        return np.atleast_1d(np.asarray(dvalue_fn(s), dtype=float)) * s

    @_vectorized
    def d2log_value(tt: Array) -> Array:
        s = np.exp(tt)
        d2 = np.atleast_1d(np.asarray(d2value_fn(s), dtype=float))
        d1 = np.atleast_1d(np.asarray(dvalue_fn(s), dtype=float))
        return d2 * s * s + d1 * s

    pot = IsotropicPotential(
        dimension=dimension,
        name="warmup",
        value=value,
        dvalue=dvalue,
        d2value=d2value,
        log_value=log_value,
        dlog_value=dlog_value,
        d2log_value=d2log_value,
        moment_max=math.inf,
        seams=(seam,),
        parameters={"dimension": dimension, "knot": knot},
        transformed_form=TransformedForm(t, _vectorized(phi), _vectorized(dphi)),
    )
    return TargetZooEntry(pot, t, ExampleKind.WARMUP, {"dimension": dimension, "knot": knot})


# --- public factory --------------------------------------------------------


def make_example(
    kind: ExampleKind | str,
    dimension: int,
    *,
    kappa: float | None = None,
    upsilon: float | None = None,
    vartheta: float = 1.0,
    b: float | None = None,
    knot: float = 1.0,
) -> TargetZooEntry:
    """Build a zoo entry: potential, canonical transform, expected form.

    Parameters depend on the kind: the t family needs ``kappa`` (and pairs
    with ``b = d/(2 kappa)`` unless overridden); the tunable family
    (``example2``) needs ``upsilon`` in ``(-3/2, 15/2)``; the remaining
    benchmark entries take a tail weight ``vartheta > 0``; the warm-up
    takes its knot radius.
    """
    kind = ExampleKind(kind)
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    if kind is ExampleKind.MULTIVARIATE_T:
        if kappa is None:
            raise ValueError("the multivariate t family needs kappa")
        pot = make_multivariate_t(dimension, kappa)
        b_val = dimension / (2.0 * kappa) if b is None else float(b)
        t = tr.ginbeta2_transform(b_val, dimension)
        return TargetZooEntry(
            pot, t, kind, {"dimension": dimension, "kappa": float(kappa), "b": b_val}
        )
    if kind is ExampleKind.WARMUP:
        return _warmup_entry(dimension, knot)
    if not vartheta > 0.0:
        raise ValueError(f"vartheta must be positive, got {vartheta}")
    if kind is ExampleKind.EXAMPLE2:
        if upsilon is None:
            raise ValueError("example2 needs upsilon")
        if not -1.5 < upsilon < 7.5:
            raise ValueError(f"upsilon must lie in (-3/2, 15/2), got {upsilon}")
        b_val = dimension / (2.0 * vartheta)
        const_bulk = upsilon * dimension * math.log(b_val) + (
            (0.5 + upsilon) * dimension - 1.0
        ) * math.log(2.0)
        return _zoo_entry(
            kind, dimension, 0.5 + upsilon, const_bulk, vartheta, {"upsilon": upsilon}
        )
    c_log = {
        ExampleKind.EXAMPLE3: 1.0,
        ExampleKind.EXAMPLE4: 0.5,
        ExampleKind.EXAMPLE5: 0.25,
        ExampleKind.EXAMPLE6: 0.0,
    }[kind]
    return _zoo_entry(kind, dimension, c_log, 0.0, vartheta, {})


def radial_log_density(p: IsotropicPotential, r):
    """Unnormalized log-density of the radius: ``(d-1) log r - f(r)``.

    At ``r = 0`` this is ``-f(0)`` in one dimension and ``-inf`` otherwise.
    """
    arr = np.asarray(r, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if (arr < 0.0).any():
        raise ValueError("radii must be nonnegative")
    fval = np.atleast_1d(np.asarray(p.value(arr), dtype=float))
    if p.dimension == 1:
        out = -fval
    else:
        with np.errstate(divide="ignore"):
            out = (p.dimension - 1.0) * np.log(arr) - fval
    return float(out[0]) if scalar else out


_T_NAME = re.compile(r"^t(\d+)_([0-9.]+)$")


def parse_target_name(
    name: str,
    *,
    dimension: int | None = None,
    kappa: float | None = None,
    upsilon: float | None = None,
    vartheta: float = 1.0,
    b: float | None = None,
    knot: float = 1.0,
) -> TargetZooEntry:
    """Resolve a command-line target name into a zoo entry.

    Accepts ``t{d}_{kappa}`` (for example ``t2_3``), plain ``t`` with
    explicit ``dimension``/``kappa``, ``example2`` .. ``example6``, and
    ``warmup``.  Raises ``ValueError`` for names outside the zoo.
    """
    m = _T_NAME.match(name)
    if m:
        return make_example(
            ExampleKind.MULTIVARIATE_T, int(m.group(1)), kappa=float(m.group(2)), b=b
        )
    try:
        kind = ExampleKind(name)
    except ValueError:
        raise ValueError(f"unknown target {name!r}; known: {', '.join(available_targets())}")
    if dimension is None:
        raise ValueError(f"target {name!r} needs an explicit dimension")
    return make_example(
        kind,
        dimension,
        kappa=kappa,
        upsilon=upsilon,
        vartheta=vartheta,
        b=b,
        knot=knot,
    )


def available_targets() -> list[str]:
    return ["t{d}_{kappa}"] + [k.value for k in ExampleKind if k is not ExampleKind.MULTIVARIATE_T]
