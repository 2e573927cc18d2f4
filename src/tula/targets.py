"""Isotropic heavy-tailed target densities and a small named zoo.

Every target here is rotation invariant: ``pi(x) ∝ exp(-f(|x|))`` for a
radial potential ``f``.  The :class:`IsotropicPotential` record carries
``f`` with two derivatives plus log-argument forms ``F(t) = f(e^t)``,
through which :mod:`tula.dynamics` composes ``f`` with every tail profile
``g = e^u``, without ever materializing ``e^u`` (which overflows near
``u ~ 709``).

Every zoo entry but the multivariate t is defined once, by the closed
transformed potential ``phi`` it is built from, with ``phi'`` and ``phi''``
(:class:`TransformedForm`), for its canonical radial transform
(:mod:`tula.transform`).  The change of variables run backwards gives ``f``
on the bulk and ``F`` on every tail, at the radius ``transform._tail_root``
returns for the exponent ``u = log g``; paired with that transform
:mod:`tula.dynamics` takes ``f_h``, ``f_h'`` and ``f_h''`` from ``phi`` at
every radius.

Zoo construction
----------------
Apart from the multivariate t family and the warm-up target, the entries
share one template.  Pick a tail weight ``vartheta > 0``, set
``b = d / (2 vartheta)``, and choose the transformed potential

    phi(r) = (d/2) r**2 + c_log * d * log(1 + r**2/2) + C

with a per-entry coefficient ``c_log``: 1, 1/2, 1/4, 0 for the four
log-Sobolev benchmark targets and ``1/2 + upsilon`` for the tunable family.
At ``u = g^{-1}(|x|)``, ``f(|x|) = phi(u) + log g'(u) + (d-1) log(g(u)/u)``;
in the tail ``|x| >= e`` this is a closed function of ``log |x|`` (worked
out in ``tools/freeze_oracles.py``).  Densities have moments of order ``p``
exactly for ``p < vartheta``.  The warm-up target takes ``phi(r) = sqrt(1 +
(d r^2)^2) + C`` for a transform with quadratic tail ``d r^2``.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
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


def _hook(at: Callable, on_arrays: Callable[[Array], Array]):
    """A potential hook: ``at`` on a Python float below 1e50 in magnitude,
    and ``on_arrays`` on a float array, through the calling convention, for
    any other argument.

    ``at`` runs the array path's operations on the float, so both give the
    same bits.  Python float arithmetic overflows and makes NaN silently
    where numpy warns: the bound keeps products of up to six factors of the
    argument in range, and a float whose value is not finite goes through
    the array path again, with its warnings and ``np.errstate`` errors.  No
    hook checks its argument: the package calls them at radii it checked or
    computed.  At a negative radius the t's radius hooks and ``phi``'s
    return a value (``make_multivariate_t(2, 3.0).value(-1.0)`` is 1.7329),
    the zoo's f hooks raise "radii must be nonnegative" through
    ``transform.g_inverse``, and the log-argument hooks take any real
    (ROADMAP.md, item 6).
    """

    def hook(x):
        if type(x) is float and -1e50 < x < 1e50:
            y = float(at(x))
            if math.isfinite(y):
                return y
        return tr._radial(on_arrays, x, check=False)

    return hook


def _glued(seam: float, tail: Callable, bulk: Callable, *, floats: bool):
    """Hook of ``tail`` at arguments ``>= seam`` and ``bulk`` below.  With
    ``floats`` a Python float takes one comparison with the seam and its
    branch's formula (:func:`_hook`); without, every argument goes through
    the calling convention as an array."""
    glued = lambda x: tr._piecewise(x, seam, lambda v: (bulk(v),), lambda v: (tail(v),))[0]
    if floats:
        return _hook(lambda x: tail(x) if x >= seam else bulk(x), glued)
    return functools.partial(tr._radial, glued, check=False)


def _of_log_argument(value: Callable, dvalue: Callable, d2value: Callable):
    """``F(t) = f(e^t)`` and its first two ``t``-derivatives from ``f``, ``f'``, ``f''``.

    With ``s = e^t``: ``F' = s f'(s)`` and ``F'' = s^2 f''(s) + s f'(s)``.
    For arguments where ``f`` has no form stable in ``t``.
    """

    def log_value(tt: Array) -> Array:
        return value(np.exp(tt))

    def dlog_value(tt: Array) -> Array:
        s = np.exp(tt)
        return dvalue(s) * s

    def d2log_value(tt: Array) -> Array:
        s = np.exp(tt)
        return d2value(s) * s * s + dvalue(s) * s

    return log_value, dlog_value, d2log_value


@dataclasses.dataclass(frozen=True)
class TransformedForm:
    """Closed transformed potential ``phi = f_h`` a potential was built from.

    ``value``, ``dvalue`` and ``d2value`` are ``phi``, ``phi'`` and
    ``phi''`` as vectorized callables of the radius.  On the bulk branch
    they equal ``f_h`` and its derivatives only when the potential is
    paired with ``transform``, the transform ``phi`` was derived for.  On a
    Python float they give a float with a one-element array's bits.
    """

    transform: tr.RadialTransform
    value: Callable
    dvalue: Callable
    d2value: Callable


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
        ``f``, ``f'``, ``f''`` as vectorized callables of the radius.  The
        composed gradient at one radius calls the hooks with a Python float
        and takes a float (or numpy scalar) back.
    log_value, dlog_value, d2log_value:
        ``F(t) = f(e^t)`` and its first two ``t``-derivatives, in forms
        stable for large ``t``.  Used wherever ``f`` is composed with a
        tail profile ``g = e^u``.
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
        from, or None when it was not built that way.  Its hooks, too,
        take a Python float at one radius.
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


# --- multivariate t -------------------------------------------------------


def make_multivariate_t(dimension: int, kappa: float) -> IsotropicPotential:
    """Potential of the d-dimensional Student t with ``kappa`` degrees.

    ``f(r) = ((d + kappa)/2) log(1 + r**2)``; moments of order ``p`` exist
    iff ``p < kappa``.  All three radius-space derivatives use forms that
    stay exact for radii up to double range, and the log-argument forms use
    the softplus shape ``F(t) = ((d + kappa)/2) log(1 + e^{2t})``.
    """
    dimension = tr._count("dimension", dimension, 1)
    tr._positive("kappa", kappa)
    dk = float(dimension + kappa)

    # radius forms split at 1 and softplus forms at 0, to stay exact at both
    # ends; squares are products and other powers np.power, so that a Python
    # float gets an array's bits (numpy squares by multiplying, while
    # Python's ** calls the C library's pow)
    value = _glued(1.0, lambda r: 0.5 * dk * (2.0 * np.log(r) + np.log1p(np.power(r, -2))),
                   lambda r: 0.5 * dk * np.log1p(r * r), floats=True)
    dvalue = _glued(1.0, lambda r: dk / (r + 1.0 / r), lambda r: dk * r / (1.0 + r * r),
                    floats=True)

    def d2value_big(r: Array) -> Array:
        q = np.power(r, -2)
        w = 1.0 + q
        return dk * (q * q - q) / (w * w)

    def d2value_small(r: Array) -> Array:
        w = 1.0 + r * r
        return dk * (1.0 - r * r) / (w * w)

    d2value = _glued(1.0, d2value_big, d2value_small, floats=True)
    log_value = _glued(0.0, lambda t: dk * (t + 0.5 * np.log1p(np.exp(-2.0 * t))),
                       lambda t: 0.5 * dk * np.log1p(np.exp(2.0 * t)), floats=True)

    def dlog_value_neg(t: Array) -> Array:
        e = np.exp(2.0 * t)
        return dk * e / (1.0 + e)

    dlog_value = _glued(0.0, lambda t: dk / (1.0 + np.exp(-2.0 * t)), dlog_value_neg,
                        floats=True)

    def d2log_value(t: Array) -> Array:
        w = np.exp(-2.0 * np.abs(t))
        v = 1.0 + w
        return dk * 2.0 * w / (v * v)

    return IsotropicPotential(
        dimension=dimension,
        name=f"t{dimension}_{_fmt(kappa)}",
        value=value,
        dvalue=dvalue,
        d2value=d2value,
        log_value=log_value,
        dlog_value=dlog_value,
        d2log_value=_hook(d2log_value, d2log_value),
        moment_max=float(kappa),
        parameters={"dimension": dimension, "kappa": float(kappa)},
    )


def _fmt(x: float) -> str:
    return str(int(x)) if float(x) == int(x) else str(float(x))


# --- potentials built from their transformed potential --------------------


def _pullback(
    t: tr.RadialTransform,
    phi: Callable[[Array], Array],
    dphi: Callable[[Array], Array],
    d2phi: Callable[[Array], Array],
    bend: Callable[[Array], Array] | None = None,
) -> dict:
    """The fields of the potential built from ``phi`` for ``t``.

    The change of variables run backwards, on each branch at the root ``r``
    of its jet's profile ``p`` (``g`` on the bulk, the exponent ``u = log
    g`` on the tail): the outer function is ``phi + LJ`` with the
    log-Jacobian ``LJ = log g' + (d-1) log(g/r)``, and its ``p``-derivatives
    are ``(phi' + LJ')/p'`` and ``((phi'' + LJ'') - (phi' + LJ') p''/p')/p'^2``.
    The bulk root is ``g^{-1}(s)``.  The tail works in the log argument
    ``t = log s`` at the root ``r`` of ``u(r) = t`` (``transform._tail_root``),
    which gives ``F`` outright and ``f' = F'/s``, ``f'' = (F'' - F')/s^2``;
    ``F`` is the tail's above ``log(seam)`` and ``f(e^t)`` below it.
    On the quadratic tail ``u''/u' + u' = 1/r``, so ``F'' - F' = (phi'' -
    phi'/r + LJ'' - LJ'/r)/u'^2``, whose ``phi'' - phi'/r`` is ``bend``, free
    of the cancellation by which ``F'' - F'`` loses ``log10 |x|`` digits.
    Returns the hooks, the seam and the transformed form as keyword
    arguments of :class:`IsotropicPotential`.  The hooks take a Python
    float as a one-element array: on a float their operations would run on
    numpy scalars, which warn unlike arrays.  ``phi``'s hooks run on the
    float (:func:`_hook`), so squares are products and other powers
    ``np.power``.
    """
    def outer(jet: tr.RadialJet, r: Array, order: int) -> list:
        p, lgp, lgr = jet
        out = [phi(r) + lgp[0] + t._d1 * lgr[0]]
        if order >= 1:
            slope = dphi(r) + lgp[1] + t._d1 * lgr[1]
            out.append(slope / p[1])
        if order >= 2:
            curv = d2phi(r) + lgp[2] + t._d1 * lgr[2]
            out.append((curv - slope * p[2] / p[1]) / (p[1] * p[1]))
        return out

    def bulk(s: Array, k: int) -> Array:
        r = tr.g_inverse(t, s)
        return outer(tr.bulk_jet(t.gin, r, range(k + 1)), r, k)[k]

    def log_tail(tt: Array, k: int) -> list:
        r = tr._tail_root(t, tt)
        return outer(tr.tail_jet(t, r, range(k + 1)), r, k)

    def tail(s: Array, k: int) -> Array:
        if k == 2 and bend is not None:
            r = tr._tail_root(t, np.log(s))
            u, lgp, lgr = tr.tail_jet(t, r, (1, 2))
            lj = lgp[2] + t._d1 * lgr[2] - (lgp[1] + t._d1 * lgr[1]) / r
            return (bend(r) + lj) / (u[1] * u[1]) / (s * s)
        F = log_tail(np.log(s), k)
        if k == 0:
            return F[0]
        return F[1] / s if k == 1 else (F[2] - F[1]) / (s * s)

    bulk_hooks = [functools.partial(bulk, k=k) for k in range(3)]
    hooks = [_glued(t.seam, functools.partial(tail, k=k), bulk_hooks[k], floats=False)
             for k in range(3)]
    log_hooks = [_glued(math.log(t.seam), lambda tt, k=k: log_tail(tt, k)[k], bulk_log,
                        floats=False) for k, bulk_log in enumerate(_of_log_argument(*bulk_hooks))]
    names = ("value", "dvalue", "d2value", "log_value", "dlog_value", "d2log_value")
    form = [_hook(fn, fn) for fn in (phi, dphi, d2phi)]
    return {
        **dict(zip(names, hooks + log_hooks)),
        "seams": (t.seam,),
        "transformed_form": TransformedForm(t, *form),
    }


def _zoo_entry(
    kind: ExampleKind,
    dimension: int,
    c_log: float,
    const_bulk: float,
    vartheta: float,
    extra: dict,
) -> TargetZooEntry:
    d = dimension
    b, t = _weight_transform(d, "vartheta", vartheta)

    # phi and its first two derivatives, from the template
    def phi(u: Array) -> Array:
        return 0.5 * d * u * u + c_log * d * np.log1p(0.5 * u * u) + const_bulk

    def dphi(u: Array) -> Array:
        return d * u + c_log * d * u / (1.0 + 0.5 * u * u)

    def d2phi(u: Array) -> Array:
        w = 1.0 + 0.5 * u * u
        return d + c_log * d * (1.0 - 0.5 * u * u) / (w * w)

    pot = IsotropicPotential(
        dimension=d,
        name=kind.value,
        moment_max=float(vartheta),
        parameters={"dimension": d, "b": b, "c_log": c_log, "vartheta": vartheta},
        **_pullback(t, phi, dphi, d2phi),
    )
    return TargetZooEntry(pot, t, kind, {"dimension": d, "vartheta": vartheta, "b": b, **extra})


# --- warm-up ---------------------------------------------------------------


def _warmup_entry(dimension: int, knot: float) -> TargetZooEntry:
    t = tr.warmup_transform(dimension, knot)
    d = float(dimension)
    const = -0.5 * d * math.log(d) - math.log(2.0)

    # phi(r) = sqrt(1 + (d r^2)^2) + const and its first two derivatives,
    # through w = d r^2 / sqrt(1 + (d r^2)^2) so that nothing overflows
    # before d r^2 itself does
    def w(u: Array) -> Array:
        return d * u * u / np.hypot(1.0, d * u * u)

    def phi(u: Array) -> Array:
        return np.hypot(1.0, d * u * u) + const

    def dphi(u: Array) -> Array:
        return 2.0 * d * u * w(u)

    def d2phi(u: Array) -> Array:
        wu = w(u)
        return 6.0 * d * wu - 4.0 * d * np.power(wu, 3)

    def bend(u: Array) -> Array:  # phi'' - phi'/u = 4 d w / (1 + (d u^2)^2)
        h = np.hypot(1.0, d * u * u)
        return 4.0 * d * w(u) / h / h

    pot = IsotropicPotential(
        dimension=dimension,
        name="warmup",
        moment_max=math.inf,
        parameters={"dimension": dimension, "knot": knot},
        **_pullback(t, phi, dphi, d2phi, bend),
    )
    return TargetZooEntry(pot, t, ExampleKind.WARMUP, {"dimension": dimension, "knot": knot})


# --- public factory --------------------------------------------------------


def _weight_transform(dimension: int, name: str, weight: float) -> tuple:
    """``b = d / (2 weight)`` and its ``ginbeta2_transform``; a weight whose
    ``b`` the transform rejects (inf, or coefficients that overflow) is
    named in the error, not the derived ``b``."""
    b = dimension / (2.0 * weight)
    try:
        return b, tr.ginbeta2_transform(b, dimension)
    except ValueError as exc:
        raise ValueError(f"{name} = {weight} gives b = d / (2 {name}) = {b}, "
                         f"out of range: {exc}") from None


# the parameters each kind takes besides its dimension; make_example and
# parse_target_name reject any other
_PARAMETERS = {
    ExampleKind.WARMUP: ("knot",),
    ExampleKind.MULTIVARIATE_T: ("kappa", "b"),
    ExampleKind.EXAMPLE2: ("upsilon", "vartheta"),
    ExampleKind.EXAMPLE3: ("vartheta",),
    ExampleKind.EXAMPLE4: ("vartheta",),
    ExampleKind.EXAMPLE5: ("vartheta",),
    ExampleKind.EXAMPLE6: ("vartheta",),
}


def make_example(
    kind: ExampleKind | str,
    dimension: int,
    *,
    kappa: float | None = None,
    upsilon: float | None = None,
    vartheta: float | None = None,
    b: float | None = None,
    knot: float | None = None,
) -> TargetZooEntry:
    """Build a zoo entry: potential (with its closed form) and canonical transform.

    Each kind takes only its own parameters; any other one given raises
    ``ValueError`` naming it.  The t family needs ``kappa`` (and
    pairs with ``b = d/(2 kappa)`` unless overridden); the tunable family
    (``example2``) needs ``upsilon`` in ``(-3/2, 15/2)``; it and the
    remaining benchmark entries take a tail weight ``vartheta > 0``
    (default 1); the warm-up takes its knot radius (default 1).
    """
    kind = ExampleKind(kind)
    given = {"kappa": kappa, "upsilon": upsilon, "vartheta": vartheta, "b": b, "knot": knot}
    foreign = [name for name, value in given.items()
               if value is not None and name not in _PARAMETERS[kind]]
    if foreign:
        raise ValueError(f"target {kind.value!r} takes no {', '.join(foreign)}; "
                         f"it takes {' and '.join(_PARAMETERS[kind])}")
    dimension = tr._count("dimension", dimension, 1)
    if kind is ExampleKind.MULTIVARIATE_T:
        if kappa is None:
            raise ValueError("the multivariate t family needs kappa")
        pot = make_multivariate_t(dimension, kappa)
        if b is None:
            b_val, t = _weight_transform(dimension, "kappa", kappa)
        else:
            b_val = float(tr._positive("b", b))
            t = tr.ginbeta2_transform(b_val, dimension)
        return TargetZooEntry(
            pot, t, kind, {"dimension": dimension, "kappa": float(kappa), "b": b_val}
        )
    if kind is ExampleKind.WARMUP:
        return _warmup_entry(dimension, 1.0 if knot is None else knot)
    vartheta = tr._positive("vartheta", 1.0 if vartheta is None else vartheta)
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

    def log_density(x: Array) -> Array:
        if p.dimension == 1:
            return -p.value(x)
        with np.errstate(divide="ignore"):
            return (p.dimension - 1.0) * np.log(x) - p.value(x)

    return tr._radial(log_density, r)


_T_NAME = re.compile(r"^t(\d+)_([0-9.]+)$")


def parse_target_name(
    name: str,
    *,
    dimension: int | None = None,
    kappa: float | None = None,
    upsilon: float | None = None,
    vartheta: float | None = None,
    b: float | None = None,
    knot: float | None = None,
) -> TargetZooEntry:
    """Resolve a command-line target name into a zoo entry.

    Accepts ``t{d}_{kappa}`` (for example ``t2_3``), plain ``t`` with
    explicit ``dimension``/``kappa``, ``example2`` .. ``example6``, and
    ``warmup``.  Raises ``ValueError`` for names outside the zoo, for a
    ``dimension`` or ``kappa`` that contradicts a ``t{d}_{kappa}`` name,
    and, as :func:`make_example` does, for a parameter the kind does not take.
    """
    m = _T_NAME.match(name)
    if m:
        named = {"dimension": int(m.group(1)), "kappa": float(m.group(2))}
        for option, given in (("dimension", dimension), ("kappa", kappa)):
            if given is not None and given != named[option]:
                raise ValueError(f"{option} {given} contradicts target {name!r} "
                                 f"({option} {named[option]})")
        kind, dimension, kappa = ExampleKind.MULTIVARIATE_T, named["dimension"], named["kappa"]
    else:
        try:
            kind = ExampleKind(name)
        except ValueError:
            raise ValueError(f"unknown target {name!r}; known: {', '.join(available_targets())}")
        if dimension is None:
            raise ValueError(f"target {name!r} needs an explicit dimension")
    return make_example(kind, dimension, kappa=kappa, upsilon=upsilon, vartheta=vartheta,
                        b=b, knot=knot)


def available_targets() -> list[str]:
    return ["t{d}_{kappa}"] + [k.value for k in ExampleKind if k is not ExampleKind.MULTIVARIATE_T]
