"""Numerical verification tools for transformed-potential sampling.

Four groups of utilities live here:

* grid-based checks of the curvature and tail conditions that make the
  transformed Langevin chain geometrically ergodic (`check_assumption`),
* a log-Sobolev constant estimate from the radial eigenvalue profile
  (`estimate_lsi`),
* a case-table classifier for the functional-inequality regime of the
  original heavy-tailed density (`classify_regime`),
* quadrature oracles and chain diagnostics (`RadialQuadrature`,
  `radial_diagnostics`, `kl_quadrature_1d`).

Everything is plain numerics on grids: the checks report what holds on the
grid with the supplied or fitted constants, they are not certificates.
Every integral of the oracles runs through `_integrate`, a globally
adaptive 7-15 Gauss-Kronrod rule (QUADPACK's qk15 pair) that owns every
interval end, finite or infinite, evaluates each refinement level in one
vectorised call and gives up past one panel limit, `_PANEL_LIMIT` = 500;
the radial oracle asks it for epsabs 1e-13 and epsrel 1e-11, and for
epsrel 1e-11 alone on a tail (R, inf), and the KL integral for 1e-10 in
both.  Every integrand is array in, array out: the log-densities given to
`kl_quadrature_1d` are called only with 1-d arrays of points, as every
radial function of the package is.  The module needs numpy only.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import Callable, Mapping, Sequence

import numpy as np

from .dynamics import TransformedPotential, grad_factor, hessian_eigenvalues
from .sampler import ChainRun, _check_burn_in
from .targets import IsotropicPotential, radial_log_density
from .transform import _is_count, _positive, _record_dict, _tail_root

__all__ = [
    "AssumptionKind",
    "AssumptionReport",
    "DiagnosticsReport",
    "KsCheck",
    "LsiEstimate",
    "MomentCheck",
    "NotApplicableError",
    "RadialQuadrature",
    "Regime",
    "RegimeVerdict",
    "TailCheck",
    "UndefinedMomentError",
    "check_assumption",
    "classify_regime",
    "default_assumption_grid",
    "effective_sample_size",
    "estimate_lsi",
    "kl_quadrature_1d",
    "radial_diagnostics",
]

# Asymptotic 1% two-sided Kolmogorov-Smirnov quantile: K^{-1}(0.99).
KS_CRITICAL_1PCT = 1.6276236307187293


class NotApplicableError(ValueError):
    """The estimator's hypotheses fail for this input (for instance a
    non-convex radial profile fed to the log-Sobolev bound)."""


class UndefinedMomentError(ValueError):
    """Requested a moment E|x|^p that the target does not possess."""


# ---------------------------------------------------------------------------
# quadrature


# The 7-point Gauss / 15-point Kronrod pair on [-1, 1] with QUADPACK's qk15
# constants (Piessens et al. 1983; Kronrod 1965): the positive Kronrod nodes
# from the outermost inwards, the Kronrod weights of those nodes and of the
# centre, and the Gauss weights of every second node and of the centre.
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
# The 15 nodes in increasing order with the Kronrod and the Gauss weight of
# each; the Gauss weight is zero on the 8 nodes the Kronrod extension adds.
_GK_NODES = np.array([*(-x for x in _XGK), 0.0, *_XGK[::-1]])
_GK_KRONROD = np.array([*_WGK, *_WGK[-2::-1]])
_GK_GAUSS = np.array([0.0, _WG[0], 0.0, _WG[1], 0.0, _WG[2], 0.0, _WG[3],
                      0.0, _WG[2], 0.0, _WG[1], 0.0, _WG[0], 0.0])
# The most panels one `_integrate` call may hold before it gives up.
_PANEL_LIMIT = 500


def _integrate(
    fn: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    points: Sequence[float] = (),
    epsabs: float = 1e-13,
    epsrel: float = 1e-11,
) -> float:
    """Integral of the vectorised `fn` over (a, b), where either end may be
    infinite, by globally adaptive 7-15 Gauss-Kronrod quadrature.

    The panels start at the increasing breakpoints `points` inside a finite
    (a, b).  An interval with an infinite end is split at `points` (at 0 for
    (-inf, inf) without them) into pieces, each to the full tolerance;
    (a, inf) maps onto (0, 1] through r = a + (1 - s)/s as one panel, whose
    nodes skip (a + 38, a + 233), so a point should mark where its mass
    lies; (-inf, b) is (-b, inf) of fn(-x).  Each refinement level
    evaluates the 15 nodes of every new panel in one call of `fn`, and
    |K - G| is a panel's error estimate.  The integration stops when the
    summed estimate is at most max(epsabs, epsrel |I|); until then every
    panel whose estimate exceeds an equal share of that tolerance is bisected.

    Raises:
      ValueError: the panels outgrow `_PANEL_LIMIT`, or the estimate is not finite.
    """
    if math.isinf(a) or math.isinf(b):
        if not points and a == -b:
            points = (0.0,)
        if points:
            cuts = [a, *points, b]
            return sum(_integrate(fn, lo, hi, epsabs=epsabs, epsrel=epsrel)
                       for lo, hi in zip(cuts[:-1], cuts[1:]))
        if a == -math.inf:
            return _integrate(lambda x: fn(-x), -b, math.inf, epsabs=epsabs, epsrel=epsrel)
        edges = [0.0, 1.0]
        integrand = lambda s: fn(a + (1.0 - s) / s) / (s * s)
    else:
        edges = [a, *points, b]
        integrand = fn
    new_lo, new_hi = np.array(edges[:-1]), np.array(edges[1:])
    lo, hi, values, errors = np.empty(0), np.empty(0), np.empty(0), np.empty(0)
    with np.errstate(all="ignore"):  # a non-finite estimate raises below
        while True:
            half = 0.5 * (new_hi - new_lo)
            nodes = (new_lo + half)[:, None] + half[:, None] * _GK_NODES
            f = integrand(nodes.ravel()).reshape(nodes.shape)
            kronrod = half * (f @ _GK_KRONROD)
            lo, hi = np.concatenate((lo, new_lo)), np.concatenate((hi, new_hi))
            values = np.concatenate((values, kronrod))
            errors = np.concatenate((errors, np.abs(kronrod - half * (f @ _GK_GAUSS))))
            total, total_error = float(values.sum()), float(errors.sum())
            if not (math.isfinite(total) and math.isfinite(total_error)):
                raise ValueError(f"quadrature failed to converge on ({a:g}, {b:g}): "
                                 "the estimate is not finite")
            tol = max(epsabs, epsrel * abs(total))
            if total_error <= tol:
                return total
            split = errors > tol / errors.size
            if errors.size + np.count_nonzero(split) > _PANEL_LIMIT:
                raise ValueError(f"quadrature failed to converge on ({a:g}, {b:g}) within "
                                 f"{_PANEL_LIMIT} panels: error estimate {total_error:.3g} against "
                                 f"tolerance {tol:.3g}")
            mid = 0.5 * (lo[split] + hi[split])
            new_lo = np.concatenate((lo[split], mid))
            new_hi = np.concatenate((mid, hi[split]))
            keep = ~split
            lo, hi, values, errors = lo[keep], hi[keep], values[keep], errors[keep]


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Trapezoid integrals of y(x) from x[0] to every x[i], starting at 0."""
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


def _cumulative_simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """Composite Simpson integrals of y on a grid of spacing dx from the first
    node to every node, starting at 0 (at least 3 nodes).

    Each interval takes the quadratic through its own and one neighbouring
    node (Cartwright 2017, equal intervals): interval (i, i+1) through node
    i+2 for even i, and through node i-1 for odd i and for the last one.
    """
    f1, f2, f3 = y[:-2], y[1:-1], y[2:]
    forward = dx / 3 * (5 * f1 / 4 + 2 * f2 - f3 / 4)  # over [x_i, x_i+1]
    backward = dx / 3 * (5 * f3 / 4 + 2 * f2 - f1 / 4)  # over [x_i+1, x_i+2]
    pieces = np.empty(y.size - 1)
    pieces[:-1:2] = forward[::2]
    pieces[1::2] = backward[::2]
    pieces[-1] = backward[-1]
    return np.concatenate(([0.0], np.cumsum(pieces)))


class RadialQuadrature:
    """Quadrature oracle for the radial law of an isotropic density.

    If x ~ pi with pi proportional to exp(-f(|x|)) on R^d, the radius |x| has
    density proportional to r^(d-1) exp(-f(r)).  This class normalizes that
    density once and then answers CDF, survival, and moment queries.  Every
    integral runs through one vectorised adaptive 7-15 Gauss-Kronrod
    integrator (`_integrate`) on the density scaled to peak 1 on a scan
    grid: integrals over part of (0, r_max) to epsabs 1e-13 and epsrel
    1e-11, integrals over a tail (R, inf) to epsrel 1e-11 alone, so a
    survival probability keeps its relative accuracy however small it is.
    The dense CDF table used for batch queries truncates at `r_max`; the
    normalizing constant and all scalar queries include the remainder
    integral on (r_max, inf), and `truncated_mass` reports how much
    probability the table cannot see.  That remainder is integrated once per
    oracle: survival queries below `r_max` add the stored value, and only
    queries at or past `r_max` integrate their own tail.
    """

    def __init__(self, potential: IsotropicPotential, r_max: float = 1.0e3) -> None:
        self.potential = potential
        self.r_max = float(_positive("r_max", r_max))

        scan = np.concatenate(([0.0], np.geomspace(1e-6, self.r_max, 2048)))
        scan_vals = radial_log_density(potential, scan)
        self._shift = float(np.max(scan_vals))
        if not math.isfinite(self._shift):
            raise ValueError("radial density is nowhere finite on the scan grid")

        self._breaks = tuple(
            float(s) for s in sorted({*potential.seams, 1.0, 10.0, 100.0}) if 0.0 < s < self.r_max
        )
        body = _integrate(self._density, 0.0, self.r_max, self._breaks)
        tail = _integrate(self._density, self.r_max, math.inf, epsabs=0.0)
        self._tail = tail
        mass = body + tail
        if not (math.isfinite(mass) and mass > 0.0):
            raise ValueError("radial density is not normalizable")
        self._mass = mass
        self.truncated_mass = tail / mass

        grid = np.sort(np.concatenate([
            np.linspace(0.0, min(30.0, self.r_max), 6001),
            np.geomspace(min(30.0, self.r_max), self.r_max, 2048),
        ]))
        # np.unique's grid: each entry that differs from its predecessor.  (np.unique
        # itself imports numpy.ma on its first call, which costs a fresh process
        # 13-15 ms and about 1 MB.)
        grid = grid[np.concatenate(([True], grid[1:] != grid[:-1]))]
        dens = np.exp(np.clip(radial_log_density(potential, grid) - self._shift, -745.0, None))
        self._table_r = grid
        self._table_cdf = _cumulative_trapezoid(dens, grid) / mass

    def _density(self, r: np.ndarray) -> np.ndarray:
        """The radial density scaled by exp(-shift), zero where its log is
        below -745."""
        v = radial_log_density(self.potential, r) - self._shift
        return np.where(v > -745.0, np.exp(v), 0.0)

    def cdf(self, radius: float) -> float:
        """P(|x| <= radius), as 1 - sf(radius); NaN for a NaN radius."""
        return 1.0 - self.sf(radius)

    def sf(self, radius: float) -> float:
        """P(|x| >= radius) by adaptive Gauss-Kronrod quadrature: (radius,
        r_max) to epsabs 1e-13 and epsrel 1e-11 plus the stored remainder
        below r_max, and (radius, inf) to epsrel 1e-11 alone at or past it.
        A NaN radius gives NaN, as in `batch_cdf`."""
        radius = float(radius)
        if math.isnan(radius):
            return radius
        if radius <= 0.0:
            return 1.0
        if radius >= self.r_max:
            return _integrate(self._density, radius, math.inf, epsabs=0.0) / self._mass
        points = tuple(s for s in self._breaks if s > radius)
        return (_integrate(self._density, radius, self.r_max, points) + self._tail) / self._mass

    def batch_cdf(self, radii: np.ndarray) -> np.ndarray:
        """Tabulated CDF at many radii (linear interpolation on a dense grid)."""
        radii = np.asarray(radii, dtype=float)
        return np.interp(radii, self._table_r, self._table_cdf, left=0.0, right=self._table_cdf[-1])

    def moment(self, order: float) -> float:
        """E|x|^order, raising `UndefinedMomentError` when it does not exist.

        Existence is decided by the potential's `moment_max` tag: the moment
        exists iff order < moment_max.  The integral takes the same
        Gauss-Kronrod tolerances as the normalizing constant: (0, r_max) to
        epsabs 1e-13 and epsrel 1e-11, (r_max, inf) to epsrel 1e-11 alone.
        """
        order = float(order)
        if not order >= 0:
            raise ValueError(f"moment order must be nonnegative, got {order!r}")
        if order >= self.potential.moment_max:
            raise UndefinedMomentError(
                f"E|x|^{order:g} does not exist for target {self.potential.name!r}: "
                f"moments are finite only for p < {self.potential.moment_max:g}"
            )
        weighted = lambda r: self._density(r) * r ** order
        body = _integrate(weighted, 0.0, self.r_max, self._breaks)
        tail = _integrate(weighted, self.r_max, math.inf, epsabs=0.0)
        return (body + tail) / self._mass


# ---------------------------------------------------------------------------
# assumption checks


class AssumptionKind(str, enum.Enum):
    """The five verifiable conditions on a transformed potential.

    A1 dissipativity, A2 degenerate convexity, A3 strong convexity at
    infinity, and A4 gradient Lipschitz all constrain the radial profile of
    f_h; A5 bounds the tail probability of the original density through the
    inverse tail profile.
    """

    A1_DISSIPATIVITY = "A1_dissipativity"
    A2_DEGENERATE_CONVEXITY = "A2_degenerate_convexity"
    A3_STRONG_CONVEXITY = "A3_strong_convexity"
    A4_GRADIENT_LIPSCHITZ = "A4_gradient_lipschitz"
    A5_TAIL = "A5_tail"

    @classmethod
    def parse(cls, which: "AssumptionKind | str") -> "AssumptionKind":
        if isinstance(which, cls):
            return which
        token = str(which).strip().lower()
        for kind in cls:
            if token in (kind.value.lower(), kind.value.split("_", 1)[0].lower(),
                         kind.value.split("_", 1)[1].lower()):
                return kind
        raise ValueError(f"unknown assumption {which!r}; expected one of "
                         + ", ".join(k.value for k in cls))


# The interval of every constant the A1-A5 checks and the case tables take.
# No end is closed at inf, so NaN and +-inf lie in none of them.
_RANGES = {
    "alpha": "[1, 2]", "A": "(0, inf)", "B": "[0, inf)",  # A1 dissipativity
    "mu": "(0, inf)", "theta": "[0, inf)",  # A2 degenerate convexity
    "rho": "(0, inf)",  # A3 strong convexity
    "L": "(0, inf)",  # A4 gradient Lipschitz
    "m": "[0, inf)", "alpha1": "[0, 1]", "C_tail": "(0, inf)",  # A5 tail
    "vartheta": "(0, inf)", "b": "(0, inf)", "beta": "(1, 2]",  # case tables only
}
# the candidate constants of `check_assumption`: all but the case tables' own
_CHECK_NAMES = tuple(name for name in _RANGES if name not in ("vartheta", "b", "beta"))


def _inside(name: str, value: float) -> bool:
    """Whether `value` lies in the interval `_RANGES[name]`."""
    interval = _RANGES[name]
    lo, hi = (float(end) for end in interval[1:-1].split(", "))
    return (lo < value < hi or (interval[0] == "[" and value == lo)
            or (interval[-1] == "]" and value == hi))


def _in_range(name: str, value: float) -> float:
    """`value` as a float, raising unless it lies in `_RANGES[name]`; a bool never does."""
    if isinstance(value, (bool, np.bool_)) or not _inside(name, value := float(value)):
        raise ValueError(f"{name} must lie in {_RANGES[name]}, got {value!r}")
    return value


@dataclasses.dataclass(frozen=True)
class AssumptionReport:
    """Outcome of one grid check.

    `fitted_constants` holds the merged constants the inequality was
    evaluated with (candidates passed in plus any fitted from the grid),
    `fitted_names` says which of them were fitted.  `margins` is the
    pointwise slack, positive where the inequality holds, and
    `satisfied_from_radius` is the smallest grid radius from which the slack
    stays positive through the end of the grid (None when even the last
    point fails).
    """

    assumption: AssumptionKind
    grid: np.ndarray
    fitted_constants: dict[str, float]
    fitted_names: tuple[str, ...]
    satisfied_from_radius: float | None
    passed: bool
    margins: np.ndarray

    def to_dict(self) -> dict:
        return {("pass" if key == "passed" else key): value
                for key, value in _record_dict(self).items()}


def default_assumption_grid(tp: TransformedPotential, num: int = 512) -> np.ndarray:
    """Log-spaced radii on [max(knot, 0.1), 100], the tail-branch region."""
    lo = max(tp.transform.knot, 0.1)
    hi = max(100.0, 2.0 * lo)
    return np.geomspace(lo, hi, num)


def _suffix_start(grid: np.ndarray, ok: np.ndarray) -> float | None:
    """Smallest grid radius from which `ok` holds through the grid's end."""
    if not ok[-1]:
        return None
    idx = len(ok) - 1
    while idx > 0 and ok[idx - 1]:
        idx -= 1
    return float(grid[idx])


def _upper_half(values: np.ndarray) -> np.ndarray:
    return values[len(values) // 2:]


def check_assumption(
    tp: TransformedPotential,
    which: AssumptionKind | str,
    grid: Sequence[float] | np.ndarray | None = None,
    candidate_constants: Mapping[str, float] | None = None,
) -> AssumptionReport:
    """Test one of the A1-A5 conditions on a radius grid.

    The left-hand sides come from the closed radial forms: the dissipativity
    inner product <grad f_h(y), y> for A1, the two Hessian eigenvalues for
    A2-A4, and the quadrature tail probability of the original density for
    A5.  When `candidate_constants` supplies the assumption's constants the
    report says where the inequality holds with them; missing constants are
    fitted from the grid (infimum or supremum over the upper half of the
    grid, with a small safety factor), except B and m, which default to 0.
    Fitted constants describe this grid only, they are a heuristic rather
    than a certificate.  The check passes when its margins are positive
    through the grid's end and every constant, fitted or not, lies in its
    range, so a fitted A, mu, rho or L at or below 0 fails it.

    Args:
      tp: transformed potential under test.
      which: assumption tag; accepts the enum, full names, or "A1".."A5".
      grid: strictly increasing finite radii inside the tail branch (r >= knot).
        Defaults to 512 log-spaced points on [max(knot, 0.1), 100].
      candidate_constants: any of alpha/A/B (A1), mu/theta (A2), rho (A3),
        L (A4), m/alpha1/C_tail (A5), each inside its range in `_RANGES`
        (the README's table): alpha in [1, 2], alpha1 in [0, 1], B, theta
        and m >= 0, the others > 0, all finite.  Every supplied constant is
        checked, whichever assumption it belongs to.

    Returns:
      AssumptionReport with the merged constants and the pointwise margins.

    Raises:
      ValueError: unknown tag or constant name, a malformed grid, or a
        constant outside its range (NaN and +-inf included).
    """
    kind = AssumptionKind.parse(which)
    cand = {}
    for name, value in (candidate_constants or {}).items():
        if name not in _CHECK_NAMES:
            raise ValueError(f"unknown candidate constant {name!r}; expected one of "
                             + ", ".join(_CHECK_NAMES))
        if value is not None:
            cand[name] = _in_range(name, value)
    t = tp.transform

    if grid is None:
        radii = default_assumption_grid(tp)
    else:
        radii = np.asarray(grid, dtype=float)
        if radii.ndim != 1 or radii.size < 2:
            raise ValueError("grid must be a 1-d array with at least two radii")
        if not np.isfinite(radii).all():
            raise ValueError("grid radii must be finite")
        if np.any(np.diff(radii) <= 0):
            raise ValueError("grid must be strictly increasing")
        if radii[0] < t.knot * (1.0 - 1e-12):
            raise ValueError(
                f"grid starts at {radii[0]:g}, inside the bulk region; "
                f"assumption checks live on the tail branch r >= {t.knot:g}"
            )

    fitted: list[str] = []

    def resolve(name: str, fit: Callable[[], float]) -> float:
        """The candidate `name`, else `fit()`, which the report lists as fitted."""
        if name in cand:
            return cand[name]
        fitted.append(name)
        return fit()

    if kind is AssumptionKind.A1_DISSIPATIVITY:
        lhs = grad_factor(tp, radii) * radii ** 2
        alpha = resolve("alpha", lambda: t.beta)
        bconst = cand.get("B", 0.0)
        aconst = resolve(
            "A", lambda: 0.99 * float(np.min(_upper_half((lhs + bconst) / radii ** alpha))))
        margins = lhs - (aconst * radii ** alpha - bconst)
        constants = {"alpha": alpha, "A": aconst, "B": bconst}
    elif kind is AssumptionKind.A5_TAIL:
        # A5: pi{|x| >= m + lam} <= 2 exp(-(psi_inv(lam)/C)^alpha1) on the
        # thresholds lam of the grid at or above e, the tail image's left
        # edge; psi_inv inverts the tail profile e^{b r^beta} in closed form.
        if t.tail != "exp":
            raise ValueError("the tail assumption is defined for exponential-tail transforms only")
        m = cand.get("m", 0.0)
        alpha1 = resolve("alpha1", lambda: 1.0)
        radii = radii[radii >= math.e * (1.0 - 1e-12)]
        if radii.size < 2:
            raise ValueError("grid must contain at least two thresholds >= e for the tail check")
        if alpha1 == 0.0 and "C_tail" not in cand:
            raise ValueError("fitting C_tail requires alpha1 > 0")
        psi_inv = _tail_root(t, np.log(radii))
        oracle = RadialQuadrature(tp.potential)
        # one query per threshold: a batched table would make the audit
        # pass faster than its memory headroom allows (ROADMAP items 1 and 4)
        sf = np.array([oracle.sf(m + x) for x in radii])

        def fit_tail_scale() -> float:
            with np.errstate(divide="ignore"):
                required = psi_inv / np.log(2.0 / np.maximum(sf, 5e-324)) ** (1.0 / alpha1)
            return float(np.max(_upper_half(required))) * (1.0 + 1e-9)

        cconst = resolve("C_tail", fit_tail_scale)
        margins = 2.0 * np.exp(-((psi_inv / cconst) ** alpha1)) - sf
        constants = {"m": m, "alpha1": alpha1, "C_tail": cconst}
    else:
        eig = hessian_eigenvalues(tp, radii)
        if kind is AssumptionKind.A4_GRADIENT_LIPSCHITZ:
            lhs = np.maximum(eig.lambda_radial, eig.lambda_tangential)
            lconst = resolve("L", lambda: 1.01 * float(np.max(lhs)))
            margins = lconst - lhs
            constants = {"L": lconst}
        else:
            lhs = np.minimum(eig.lambda_radial, eig.lambda_tangential)
            if kind is AssumptionKind.A2_DEGENERATE_CONVEXITY:
                theta = resolve("theta", lambda: max(0.0, 2.0 - t.beta))
                envelope = (1.0 + 0.25 * radii ** 2) ** (theta / 2.0)
                mu = resolve("mu", lambda: 0.99 * float(np.min(_upper_half(lhs * envelope))))
                margins = lhs - mu / envelope
                constants = {"mu": mu, "theta": theta}
            else:
                rho = resolve("rho", lambda: 0.99 * float(np.min(_upper_half(lhs))))
                margins = lhs - rho
                constants = {"rho": rho}

    start = _suffix_start(radii, margins > 0.0)
    passed = start is not None and all(_inside(name, v) for name, v in constants.items())
    if start is not None:
        constants["N" + kind.value[1]] = start
        if kind is AssumptionKind.A5_TAIL and alpha1 > 0.0:
            # Enlarged constant covering every threshold below N5 as well:
            # P(|x| >= m + lam) <= P(|x| >= m) must stay below the bound at
            # the worst threshold lam = N5.
            head = oracle.sf(m)
            extended = _tail_root(t, np.log(start))
            extended /= math.log(2.0 / head) ** (1.0 / alpha1)
            constants["C_tail_extended"] = float(max(cconst, extended))

    return AssumptionReport(
        assumption=kind,
        grid=radii,
        fitted_constants=constants,
        fitted_names=tuple(fitted),
        satisfied_from_radius=start,
        passed=passed,
        margins=margins,
    )


# ---------------------------------------------------------------------------
# log-Sobolev estimate


@dataclasses.dataclass(frozen=True)
class LsiEstimate:
    """Log-Sobolev constant bound from the radial curvature profile.

    beta_bar[i] is the infimum of the smaller Hessian eigenvalue over radii
    >= radii[i]; a0 solves the balance equation integral_0^a beta_bar = 2/a;
    the density then satisfies LSI with constant at most `bound` =
    a0^2 exp(integral_0^{a0} r beta_bar(r) dr - 1).
    """

    radii: np.ndarray
    lambda_radial: np.ndarray
    lambda_tangential: np.ndarray
    beta_bar: np.ndarray
    a0: float
    bound: float
    residual: float

    def to_dict(self) -> dict:
        return {
            "a0": self.a0,
            "bound": self.bound,
            "residual": self.residual,
            "r_max": float(self.radii[-1]),
            "grid_size": int(self.radii.size),
        }

    def table_rows(self):
        """Yield (r, lambda1, lambda2, beta_bar) tuples for CSV export."""
        for row in zip(self.radii, self.lambda_radial, self.lambda_tangential, self.beta_bar):
            yield tuple(float(v) for v in row)


def estimate_lsi(
    tp: TransformedPotential,
    r_max: float = 12.0,
    grid_size: int = 1024,
) -> LsiEstimate:
    """Bound the log-Sobolev constant of exp(-f_h) via its curvature profile.

    Tabulates beta_bar(r) = inf over s in [r, r_max] of the smaller Hessian
    eigenvalue of f_h, solves integral_0^a beta_bar = 2/a for the unique
    root a0, and returns bound = a0^2 exp(integral_0^{a0} r beta_bar dr - 1).
    Both integrals use cumulative composite Simpson on the uniform grid
    (`_cumulative_simpson`), with beta_bar extended flat on [0, radii[0]];
    between grid radii they are interpolated linearly, and a0 is bisected
    on the grid's bracket to a width of 1e-14 + 8.9e-16 a0.

    Raises:
      NotApplicableError: the smaller eigenvalue is nonpositive somewhere on
        (0, r_max], so the curvature bound does not apply.
      ValueError: r_max is not positive and finite, grid_size lies outside
        [16, 2**20] (each radius takes a few dozen float64 temporaries), or
        the balance equation has no root inside (0, r_max); raise r_max.
    """
    _positive("r_max", r_max)
    if not _is_count(grid_size):
        raise ValueError(f"grid_size must be an integer, got {grid_size!r}")
    if not 16 <= grid_size <= 2**20:
        raise ValueError(f"grid_size must lie in [16, {2**20}], got {grid_size}")

    step = r_max / grid_size
    radii = np.linspace(step, r_max, grid_size)
    eig = hessian_eigenvalues(tp, radii)
    smallest = np.minimum(eig.lambda_radial, eig.lambda_tangential)
    if np.min(smallest) <= 0.0:
        bad = float(radii[int(np.argmin(smallest))])
        raise NotApplicableError(
            f"smallest Hessian eigenvalue is nonpositive near r = {bad:g}; "
            "the curvature-profile bound requires a positive profile"
        )

    beta_bar = np.minimum.accumulate(smallest[::-1])[::-1]

    # integral_0^{radii[i]} beta_bar, with the flat extension on [0, step]
    integral = beta_bar[0] * step + _cumulative_simpson(beta_bar, step)
    weighted = beta_bar[0] * step ** 2 / 2.0 + _cumulative_simpson(radii * beta_bar, step)

    def balance(a: float) -> float:
        return float(np.interp(a, radii, integral)) - 2.0 / a

    lo, hi = radii[0], radii[-1]
    if balance(hi) < 0.0:
        raise ValueError(
            f"integral_0^a beta_bar stays below 2/a up to r_max = {r_max:g}; "
            "increase r_max to bracket the balance point"
        )
    if balance(lo) >= 0.0:
        raise ValueError("balance point lies below the first grid radius; refine the grid")
    # balance(lo) < 0 <= balance(hi): bisect to width 1e-14 + 8.9e-16 a
    while hi - lo > 1e-14 + 8.9e-16 * lo:
        mid = 0.5 * (lo + hi)
        if balance(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    a0 = float(0.5 * (lo + hi))
    bound = a0 ** 2 * math.exp(float(np.interp(a0, radii, weighted)) - 1.0)

    return LsiEstimate(
        radii=radii,
        lambda_radial=eig.lambda_radial,
        lambda_tangential=eig.lambda_tangential,
        beta_bar=beta_bar,
        a0=a0,
        bound=bound,
        residual=abs(balance(a0)),
    )


# ---------------------------------------------------------------------------
# regime classification


class Regime(str, enum.Enum):
    SUPER_POINCARE = "super_poincare"
    POINCARE = "poincare"
    WEAK_POINCARE = "weak_poincare"


@dataclasses.dataclass(frozen=True)
class RegimeVerdict:
    """Functional-inequality class of the original density, with the rule
    that fired and, on the super-Poincare branch, the exponents of the rate
    witness omega(x) = C 2^{-(d+vartheta)} |x|^{p(|x|)} log(|x|)^q where
    p(|x|) = power_coefficient * log(|x|)^power_log_exponent + power_offset."""

    regime: Regime
    rule_fired: str
    witness: dict[str, float] | None
    basis: str
    parameters: dict[str, float]

    def to_dict(self) -> dict:
        return _record_dict(self)


_BASIS_ALIASES = {
    "a3": "dissipativity",
    "dissipativity": "dissipativity",
    "a5": "degenerate_convexity",
    "degenerate_convexity": "degenerate_convexity",
    "degenerate": "degenerate_convexity",
    "a1": "strong_convexity",
    "strong_convexity": "strong_convexity",
    "strong": "strong_convexity",
}


_WITNESS_KEYS = ("power_coefficient", "power_log_exponent", "power_offset", "log_exponent")


def _isclose(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


def _at_least(value: float, threshold: float) -> bool:
    """Whether value >= threshold, a tie within 1e-12 relative counting."""
    return _isclose(value, threshold) or value > threshold


def classify_regime(
    basis: str,
    *,
    vartheta: float,
    dimension: int,
    b: float,
    beta: float = 2.0,
    alpha: float | None = None,
    A: float | None = None,
    B: float | None = None,
    mu: float | None = None,
    theta: float | None = None,
    rho: float | None = None,
) -> RegimeVerdict:
    """Place the original density in the super/plain/weak Poincare hierarchy.

    The verdict follows the proposition case tables for the three bases.
    Note the numeric tags here come from the classification propositions and
    differ from the `check_assumption` numbering: "A3" means dissipativity
    (alpha, A, B), "A5" degenerate convexity (mu, theta), and "A1" strong
    convexity (rho).  The unambiguous semantic names are accepted and
    preferred.

    Args:
      basis: "dissipativity" | "degenerate_convexity" | "strong_convexity"
        (or the legacy tags "A3" | "A5" | "A1").
      vartheta: tail exponent of the comparison weight.
      dimension: ambient dimension, a positive integer (a bool is not one).
      b, beta: tail profile parameters.
      alpha, A, B: dissipativity growth data (B defaults to 0).
      mu, theta: degenerate-convexity data.
      rho: strong-convexity constant.

    Every constant supplied, whatever the basis, must lie in its range in
    `_RANGES` (the README's table): vartheta, b, A, mu and rho > 0, B and
    theta >= 0, alpha in [1, 2] and beta in (1, 2], all finite.

    Returns:
      RegimeVerdict; exactly one rule fires per input.

    Raises:
      ValueError: unknown basis, a constant outside its range (NaN and +-inf
        included), a dimension that is not a positive integer, missing
        constants for the chosen basis, alpha < beta on the dissipativity
        basis, which its case table does not cover, or a super-Poincare
        witness that leaves float range (the message names the inputs).
    """
    key = _BASIS_ALIASES.get(str(basis).strip().lower())
    if key is None:
        raise ValueError(f"unknown classification basis {basis!r}")
    supplied = dict(vartheta=vartheta, b=b, beta=beta, alpha=alpha, A=A, B=B, mu=mu,
                    theta=theta, rho=rho)
    for name, value in supplied.items():
        if value is not None:
            _in_range(name, value)
    if not _is_count(dimension, 1):
        raise ValueError("dimension must be a positive integer")

    d = int(dimension)
    params: dict[str, float] = {"vartheta": float(vartheta), "dimension": d, "b": float(b),
                                "beta": float(beta)}
    log_factor = -(d - beta) / beta

    # each basis decides (regime, rule) and the witness exponents in _WITNESS_KEYS order
    if key == "dissipativity":
        if A is None or alpha is None:
            raise ValueError("dissipativity classification needs alpha and A")
        bconst = 0.0 if B is None else float(B)
        params.update(alpha=float(alpha), A=float(A), B=bconst)
        if not _at_least(alpha, beta):
            raise ValueError("the dissipativity case table covers alpha >= beta only")
        exponents = lambda: (A / (alpha * b ** (alpha / beta)), alpha / beta - 1.0, -vartheta,
                             -bconst / beta)
        if not _isclose(alpha, beta):
            regime, rule = Regime.SUPER_POINCARE, "alpha>beta"
        elif _at_least(vartheta, A / (beta * b)):
            regime, rule = Regime.WEAK_POINCARE, "alpha=beta,vartheta>=A/(beta*b)"
        else:
            regime, rule = Regime.SUPER_POINCARE, "alpha=beta,vartheta<A/(beta*b)"

    elif key == "degenerate_convexity":
        if mu is None or theta is None:
            raise ValueError("degenerate-convexity classification needs mu and theta")
        params.update(mu=float(mu), theta=float(theta))
        crit = 2.0 - beta
        on_crit = _isclose(theta, crit)
        if theta > crit and not on_crit:
            regime, rule = Regime.WEAK_POINCARE, "theta>2-beta"
        elif on_crit and _at_least(vartheta, mu / (beta * b)):
            regime, rule = Regime.WEAK_POINCARE, "theta=2-beta,vartheta>=mu/(beta*b)"
        else:
            regime = Regime.SUPER_POINCARE
            rule = "theta=2-beta,vartheta<mu/(beta*b)" if on_crit else "theta<2-beta"

            def exponents() -> tuple:
                power = b ** (-(2.0 - theta) / beta)
                return (power if on_crit else mu * power / ((1.0 - theta) * (2.0 - theta)),
                        (2.0 - theta) / beta - 1.0,
                        -vartheta if on_crit else 1.0 - (d + vartheta), log_factor)

    else:  # strong convexity
        if rho is None:
            raise ValueError("strong-convexity classification needs rho")
        params.update(rho=float(rho))
        exponents = lambda: (rho / (2.0 * b ** (2.0 / beta)), 2.0 / beta - 1.0, -vartheta,
                             log_factor)
        threshold = rho / (2.0 * b)
        if not _isclose(beta, 2.0):
            regime, rule = Regime.SUPER_POINCARE, "beta<2"
        elif _isclose(vartheta, threshold):
            regime, rule = ((Regime.POINCARE, "beta=2,vartheta=rho/(2b),d<=2") if d <= 2
                            else (Regime.WEAK_POINCARE, "beta=2,vartheta=rho/(2b),d>=3"))
        elif vartheta < threshold:
            regime, rule = Regime.SUPER_POINCARE, "beta=2,vartheta<rho/(2b)"
        else:
            regime, rule = Regime.WEAK_POINCARE, "beta=2,vartheta>rho/(2b)"

    witness = _witness(exponents, params) if regime is Regime.SUPER_POINCARE else None
    return RegimeVerdict(regime, f"{key}:{rule}", witness, key, params)


def _witness(exponents, params: dict) -> dict:
    """The super-Poincare witness, ``exponents()`` under `_WITNESS_KEYS`.

    Raises ValueError naming the inputs where an exponent leaves float
    range (Python's float power raises OverflowError there, a division by
    an underflowed power ZeroDivisionError, and a product gives inf).
    """
    try:
        values = exponents()
    except (OverflowError, ZeroDivisionError):
        values = (math.inf,)
    if not all(map(math.isfinite, values)):
        inputs = ", ".join(f"{name}={value!r}" for name, value in params.items())
        raise ValueError(f"the super-Poincare witness leaves float range at {inputs}")
    return dict(zip(_WITNESS_KEYS, values))


# ---------------------------------------------------------------------------
# chain diagnostics


def effective_sample_size(series: np.ndarray) -> float:
    """Effective sample size from the initial monotone positive autocovariance
    sequence, computed with an FFT autocorrelation.  Returns at most len(series)."""
    x = np.asarray(series, dtype=float)
    n = x.size
    if n < 8:
        return float(n)
    x = x - x.mean()
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(x, size)
    acov = np.fft.irfft(spectrum * np.conj(spectrum), size)[:n].real / n
    if acov[0] <= 0.0:
        return float(n)
    rho = acov / acov[0]

    tau = -1.0
    prev = math.inf
    k = 0
    while 2 * k + 1 < n:
        pair = rho[2 * k] + rho[2 * k + 1]
        if pair <= 0.0:
            break
        pair = min(pair, prev)
        tau += 2.0 * pair
        prev = pair
        k += 1
    return float(min(n, n / max(tau, 1.0 / n)))


@dataclasses.dataclass(frozen=True)
class KsCheck:
    statistic: float
    critical_1pct: float
    ess: float
    passed: bool


@dataclasses.dataclass(frozen=True)
class MomentCheck:
    order: float
    empirical: float
    reference: float
    std_error: float
    within_3se: bool


@dataclasses.dataclass(frozen=True)
class TailCheck:
    threshold: float
    empirical: float
    reference: float
    std_error: float
    within_3se: bool


@dataclasses.dataclass(frozen=True)
class DiagnosticsReport:
    """Quadrature-based check of a chain against its target's radial law."""

    n_samples: int
    burn_in: int
    ks: KsCheck
    moments: tuple[MomentCheck, ...]
    tails: tuple[TailCheck, ...]
    truncated_mass: float

    @property
    def all_passed(self) -> bool:
        return (self.ks.passed
                and all(m.within_3se for m in self.moments)
                and all(t.within_3se for t in self.tails))

    def to_dict(self) -> dict:
        return {**_record_dict(self), "pass": self.all_passed}


def _pooled_mean(per_chain: list[np.ndarray]) -> tuple[float, float]:
    """The mean of the pooled series and its Monte-Carlo standard error,
    discounted by the autocorrelation-adjusted sample size."""
    pooled = np.concatenate(per_chain)
    ess = sum(effective_sample_size(s) for s in per_chain)
    se = float(pooled.std(ddof=1) / math.sqrt(max(ess, 1.0))) if pooled.size > 1 else 0.0
    return float(pooled.mean()), se


def _tail_thresholds(thresholds: Sequence[float]) -> list[float]:
    """The radii of the exceedance checks as floats; raises unless each is
    finite and >= 0 (below 0 the check cannot fail)."""
    values = [float(v) for v in thresholds]
    if not all(math.isfinite(v) and v >= 0.0 for v in values):
        raise ValueError(f"thresholds must be finite radii >= 0, got {values}")
    return values


def radial_diagnostics(
    run: ChainRun,
    potential: IsotropicPotential,
    burn_in: int,
    *,
    moment_orders: Sequence[float] | None = None,
    thresholds: Sequence[float] = (5.0,),
    oracle: RadialQuadrature | None = None,
) -> DiagnosticsReport:
    """Compare a chain's x-space radii against the target's radial law.

    Three families of checks: a Kolmogorov-Smirnov statistic of the pooled
    empirical radial CDF against the quadrature CDF, judged at the 1% level
    with the autocorrelation-effective sample size; empirical moments E|x|^p
    against quadrature values, judged at three Monte-Carlo standard errors;
    and exceedance frequencies P(|x| > T) judged the same way, with the
    standard error floored at sqrt(p (1 - p) / ESS) for the reference p and
    the radius ESS of the KS check.

    Args:
      run: sampler output (all chains pooled after burn-in).
      potential: the original target the chain was meant to sample.
      burn_in: recorded rows dropped from the start of each chain.
      moment_orders: which E|x|^p to check.  Defaults to p = 1 when the
        target has a finite mean, else no moment checks.  Explicitly
        requesting p >= moment_max raises UndefinedMomentError.
      thresholds: radii for the exceedance checks.
      oracle: reuse a prebuilt RadialQuadrature (must match `potential`).

    Raises:
      ValueError: burn_in is not a nonnegative integer or leaves no
        samples, or a threshold is negative or not finite.
      UndefinedMomentError: an explicitly requested moment does not exist.
    """
    _check_burn_in(burn_in, max(ys.shape[0] for ys in run.ys))
    thresholds = _tail_thresholds(thresholds)
    per_chain = [np.linalg.norm(xs[burn_in:], axis=1) for xs in run.xs
                 if xs.shape[0] > burn_in]
    radii = np.concatenate(per_chain)
    n = int(radii.size)

    quadrature = oracle if oracle is not None else RadialQuadrature(potential)
    if quadrature.potential is not potential:
        raise ValueError("oracle was built for a different potential")

    ordered = np.sort(radii)
    cdf_vals = quadrature.batch_cdf(ordered)
    upper = np.arange(1, n + 1) / n - cdf_vals
    lower = cdf_vals - np.arange(0, n) / n
    ks_stat = float(max(upper.max(), lower.max()))
    ess = sum(effective_sample_size(s) for s in per_chain)
    ks_crit = KS_CRITICAL_1PCT / math.sqrt(max(ess, 1.0))
    ks = KsCheck(statistic=ks_stat, critical_1pct=ks_crit, ess=float(ess),
                 passed=ks_stat < ks_crit)

    if moment_orders is None:
        orders: tuple[float, ...] = (1.0,) if potential.moment_max > 1.0 else ()
    else:
        orders = tuple(float(p) for p in moment_orders)
    moments = []
    for p in orders:
        reference = quadrature.moment(p)  # raises UndefinedMomentError when p too large
        empirical, se = _pooled_mean([s ** p for s in per_chain])
        moments.append(MomentCheck(order=p, empirical=empirical, reference=reference,
                                   std_error=se, within_3se=abs(empirical - reference) <= 3.0 * se))

    tails = []
    for threshold in thresholds:
        reference = quadrature.sf(threshold)
        empirical, se = _pooled_mean([(s > threshold).astype(float) for s in per_chain])
        # a run with no exceedance has a zero series error however likely
        # that outcome is
        se = max(se, math.sqrt(reference * (1.0 - reference) / max(ess, 1.0)))
        tails.append(TailCheck(threshold=threshold, empirical=empirical, reference=reference,
                               std_error=se, within_3se=abs(empirical - reference) <= 3.0 * se))

    return DiagnosticsReport(
        n_samples=n,
        burn_in=burn_in,
        ks=ks,
        moments=tuple(moments),
        tails=tuple(tails),
        truncated_mass=quadrature.truncated_mass,
    )


# ---------------------------------------------------------------------------
# one-dimensional KL quadrature


def _log_normalizer(
    log_density: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
) -> tuple[float, tuple[float, ...]]:
    """log integral of exp(log_density) over (lo, hi), and the scan's mode
    as a breakpoint tuple (empty when the mode is an end of the domain)."""
    scan_lo = lo if math.isfinite(lo) else min(hi, 100.0) - 200.0
    scan_hi = hi if math.isfinite(hi) else max(lo, -100.0) + 200.0
    scan = np.linspace(scan_lo, scan_hi, 4001)
    with np.errstate(all="ignore"):
        vals = np.asarray(log_density(scan), dtype=float)
    if vals.shape != scan.shape:
        raise ValueError("a log-density must map an array of points to an array of their shape")
    finite = np.isfinite(vals)
    if not finite.any():
        raise ValueError("log-density is nowhere finite on the scan window")
    for end, edge, inner in ((lo, 0, 1), (hi, -1, -2)):
        if math.isinf(end) and vals[edge] > vals[inner]:
            raise ValueError(f"log-density is still rising at {scan[edge]:g}, the infinite "
                             f"side's edge of its scan window [{scan_lo:g}, {scan_hi:g}]")
    peak = int(np.argmax(np.where(finite, vals, -np.inf)))
    shift, mode = float(vals[peak]), float(scan[peak])
    split = (mode,) if lo < mode < hi else ()

    def shifted(x: np.ndarray) -> np.ndarray:
        v = log_density(x) - shift
        return np.where(v > -745.0, np.exp(v), 0.0)

    mass = _integrate(shifted, lo, hi, split, epsabs=1e-13, epsrel=1e-11)
    if not (math.isfinite(mass) and mass > 0.0):
        raise ValueError("density is not normalizable on the domain")
    return math.log(mass) + shift, split


def kl_quadrature_1d(
    log_density_a: Callable[[np.ndarray], np.ndarray],
    log_density_b: Callable[[np.ndarray], np.ndarray],
    domain: tuple[float, float] = (-np.inf, np.inf),
) -> float:
    """KL(a || b) for one-dimensional densities given by unnormalized
    log-density callables.

    Each callable maps a 1-d array of points to the array of their
    log-densities, like every radial function of the package, and is called
    only with arrays: once for a 4001-point scan, then once per refinement
    level of an integral.  The scan covers the domain cut to [min(hi, 100)
    - 200, max(lo, -100) + 200], and a log-density still rising at its edge
    on an infinite side is refused by name.  Both densities are normalized
    numerically on the domain first (epsabs 1e-13, epsrel 1e-11 on the
    density scaled to peak 1 on the scan), then the divergence integral
    runs to epsabs and epsrel 1e-10.  Every integral is the adaptive 7-15
    Gauss-Kronrod rule of `_integrate` with at most `_PANEL_LIMIT` (500)
    panels, split at the scanned mode of its density (of a for the
    divergence) unless that is a domain end.  Non-integrable inputs surface
    as ValueError ("quadrature failed to converge").
    """
    lo, hi = float(domain[0]), float(domain[1])
    if not lo < hi:
        raise ValueError("domain must satisfy lo < hi")

    log_za, split_a = _log_normalizer(log_density_a, lo, hi)
    log_zb, _ = _log_normalizer(log_density_b, lo, hi)

    def integrand(x: np.ndarray) -> np.ndarray:
        la = log_density_a(x) - log_za
        return np.where(la < -745.0, 0.0, np.exp(la) * (la - (log_density_b(x) - log_zb)))

    return _integrate(integrand, lo, hi, split_a, epsabs=1e-10, epsrel=1e-10)
