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
"""

from __future__ import annotations

import dataclasses
import enum
import math
import warnings
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.integrate import IntegrationWarning, cumulative_simpson, cumulative_trapezoid, quad
from scipy.optimize import brentq

from .dynamics import TransformedPotential, grad_factor, hessian_eigenvalues
from .sampler import ChainRun
from .targets import IsotropicPotential, radial_log_density

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
# radial quadrature oracle


def _shifted_exp(log_fn: Callable[[float], float], shift: float) -> Callable[[float], float]:
    """Integrand exp(log_fn(r) - shift), safe against -inf log values."""

    def integrand(r: float) -> float:
        v = log_fn(r) - shift
        return math.exp(v) if v > -745.0 else 0.0

    return integrand


class RadialQuadrature:
    """Adaptive-quadrature oracle for the radial law of an isotropic density.

    If x ~ pi with pi proportional to exp(-f(|x|)) on R^d, the radius |x| has
    density proportional to r^(d-1) exp(-f(r)).  This class normalizes that
    density once and then answers CDF, survival, and moment queries.  The
    dense CDF table used for batch queries truncates at `r_max`; the
    normalizing constant and all scalar queries include the analytic
    remainder integral on (r_max, inf), and `truncated_mass` reports how much
    probability the table cannot see.  That remainder is integrated once per
    oracle: survival queries below `r_max` add the stored value, and only
    queries at or past `r_max` integrate their own tail.
    """

    def __init__(self, potential: IsotropicPotential, r_max: float = 1.0e3) -> None:
        if r_max <= 0:
            raise ValueError("r_max must be positive")
        self.potential = potential
        self.r_max = float(r_max)

        log_pdf = lambda r: float(radial_log_density(potential, r))
        scan = np.concatenate(([0.0], np.geomspace(1e-6, self.r_max, 2048)))
        with np.errstate(divide="ignore"):
            scan_vals = radial_log_density(potential, scan)
        self._shift = float(np.max(scan_vals))
        if not math.isfinite(self._shift):
            raise ValueError("radial density is nowhere finite on the scan grid")
        self._integrand = _shifted_exp(log_pdf, self._shift)

        self._breaks = tuple(
            float(s) for s in sorted({*potential.seams, 1.0, 10.0, 100.0}) if 0.0 < s < self.r_max
        )
        body, _ = quad(
            self._integrand, 0.0, self.r_max, points=self._breaks or None, limit=500,
            epsabs=1e-13, epsrel=1e-11,
        )
        tail, _ = quad(self._integrand, self.r_max, np.inf, limit=200, epsabs=1e-13, epsrel=1e-11)
        self._tail = tail
        mass = body + tail
        if not (math.isfinite(mass) and mass > 0.0):
            raise ValueError("radial density is not normalizable")
        self._mass = mass
        self.truncated_mass = tail / mass

        grid = np.unique(np.concatenate([
            np.linspace(0.0, min(30.0, self.r_max), 6001),
            np.geomspace(min(30.0, self.r_max), self.r_max, 2048),
        ]))
        with np.errstate(divide="ignore"):
            dens = np.exp(np.clip(radial_log_density(potential, grid) - self._shift, -745.0, None))
        self._table_r = grid
        self._table_cdf = cumulative_trapezoid(dens, grid, initial=0.0) / mass

    def cdf(self, radius: float) -> float:
        """P(|x| <= radius) by adaptive quadrature."""
        radius = float(radius)
        if radius <= 0.0:
            return 0.0
        return 1.0 - self.sf(radius)

    def sf(self, radius: float) -> float:
        """P(|x| >= radius) by adaptive quadrature."""
        radius = float(radius)
        if radius <= 0.0:
            return 1.0
        if radius >= self.r_max:
            val, _ = quad(self._integrand, radius, np.inf, limit=200, epsabs=1e-13, epsrel=1e-11)
            return val / self._mass
        points = tuple(s for s in self._breaks if s > radius)
        body, _ = quad(
            self._integrand, radius, self.r_max, points=points or None, limit=500,
            epsabs=1e-13, epsrel=1e-11,
        )
        return (body + self._tail) / self._mass

    def batch_cdf(self, radii: np.ndarray) -> np.ndarray:
        """Tabulated CDF at many radii (linear interpolation on a dense grid)."""
        radii = np.asarray(radii, dtype=float)
        return np.interp(radii, self._table_r, self._table_cdf, left=0.0, right=self._table_cdf[-1])

    def moment(self, order: float) -> float:
        """E|x|^order, raising `UndefinedMomentError` when it does not exist.

        Existence is decided by the potential's `moment_max` tag: the moment
        exists iff order < moment_max.
        """
        order = float(order)
        if order < 0:
            raise ValueError("moment order must be nonnegative")
        if order >= self.potential.moment_max:
            raise UndefinedMomentError(
                f"E|x|^{order:g} does not exist for target {self.potential.name!r}: "
                f"moments are finite only for p < {self.potential.moment_max:g}"
            )
        weighted = lambda r: self._integrand(r) * r ** order
        body, _ = quad(
            weighted, 0.0, self.r_max, points=self._breaks or None, limit=500,
            epsabs=1e-13, epsrel=1e-11,
        )
        tail, _ = quad(weighted, self.r_max, np.inf, limit=200, epsabs=1e-13, epsrel=1e-11)
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
        return {
            "assumption": self.assumption.value,
            "grid": [float(r) for r in self.grid],
            "fitted_constants": {k: float(v) for k, v in self.fitted_constants.items()},
            "fitted_names": list(self.fitted_names),
            "satisfied_from_radius": self.satisfied_from_radius,
            "pass": self.passed,
            "margins": [float(m) for m in self.margins],
        }


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


def _as_float(constants: Mapping[str, float], key: str) -> float | None:
    if key not in constants or constants[key] is None:
        return None
    return float(constants[key])


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
    grid, with a small safety factor).  Fitted constants describe this grid
    only, they are a heuristic rather than a certificate.

    Args:
      tp: transformed potential under test.
      which: assumption tag; accepts the enum, full names, or "A1".."A5".
      grid: strictly increasing radii inside the tail branch (r >= knot).
        Defaults to 512 log-spaced points on [max(knot, 0.1), 100].
      candidate_constants: any of alpha/A/B (A1), mu/theta (A2), rho (A3),
        L (A4), m/alpha1/C_tail (A5).

    Returns:
      AssumptionReport with the merged constants and the pointwise margins.

    Raises:
      ValueError: unknown tag, a malformed grid, or constants outside their
        stated ranges.
    """
    kind = AssumptionKind.parse(which)
    cand = dict(candidate_constants or {})
    t = tp.transform

    if grid is None:
        radii = default_assumption_grid(tp)
    else:
        radii = np.asarray(grid, dtype=float)
        if radii.ndim != 1 or radii.size < 2:
            raise ValueError("grid must be a 1-d array with at least two radii")
        if np.any(np.diff(radii) <= 0):
            raise ValueError("grid must be strictly increasing")
        if radii[0] < t.knot * (1.0 - 1e-12):
            raise ValueError(
                f"grid starts at {radii[0]:g}, inside the bulk region; "
                f"assumption checks live on the tail branch r >= {t.knot:g}"
            )

    if kind is AssumptionKind.A5_TAIL:
        return _check_tail(tp, radii, cand)

    fitted: list[str] = []
    constants: dict[str, float] = {}

    if kind is AssumptionKind.A1_DISSIPATIVITY:
        lhs = grad_factor(tp, radii) * radii ** 2
        alpha = _as_float(cand, "alpha")
        if alpha is None:
            alpha = t.beta if t.tail == "exp" else 2.0
            fitted.append("alpha")
        if not 1.0 <= alpha <= 2.0:
            raise ValueError(f"alpha must lie in [1, 2], got {alpha:g}")
        bconst = _as_float(cand, "B")
        if bconst is None:
            bconst = 0.0
        elif bconst < 0:
            raise ValueError("B must be nonnegative")
        aconst = _as_float(cand, "A")
        if aconst is None:
            aconst = 0.99 * float(np.min(_upper_half((lhs + bconst) / radii ** alpha)))
            fitted.append("A")
        rhs = aconst * radii ** alpha - bconst
        margins = lhs - rhs
        start = _suffix_start(radii, margins > 0.0)
        constants = {"alpha": alpha, "A": aconst, "B": bconst}
        ok = start is not None and aconst > 0.0
        if start is not None:
            constants["N1"] = start

    elif kind is AssumptionKind.A2_DEGENERATE_CONVEXITY:
        eig = hessian_eigenvalues(tp, radii)
        lhs = np.minimum(eig.lambda_radial, eig.lambda_tangential)
        theta = _as_float(cand, "theta")
        if theta is None:
            theta = max(0.0, 2.0 - t.beta) if t.tail == "exp" else 0.0
            fitted.append("theta")
        if theta < 0:
            raise ValueError("theta must be nonnegative")
        envelope = (1.0 + 0.25 * radii ** 2) ** (theta / 2.0)
        mu = _as_float(cand, "mu")
        if mu is None:
            mu = 0.99 * float(np.min(_upper_half(lhs * envelope)))
            fitted.append("mu")
        elif mu <= 0:
            raise ValueError("mu must be positive")
        margins = lhs - mu / envelope
        start = _suffix_start(radii, margins > 0.0)
        constants = {"mu": mu, "theta": theta}
        ok = start is not None and mu > 0.0
        if start is not None:
            constants["N2"] = start

    elif kind is AssumptionKind.A3_STRONG_CONVEXITY:
        eig = hessian_eigenvalues(tp, radii)
        lhs = np.minimum(eig.lambda_radial, eig.lambda_tangential)
        rho = _as_float(cand, "rho")
        if rho is None:
            rho = 0.99 * float(np.min(_upper_half(lhs)))
            fitted.append("rho")
        margins = lhs - rho
        start = _suffix_start(radii, margins > 0.0)
        constants = {"rho": rho}
        ok = start is not None and rho > 0.0
        if start is not None:
            constants["N3"] = start

    elif kind is AssumptionKind.A4_GRADIENT_LIPSCHITZ:
        eig = hessian_eigenvalues(tp, radii)
        lhs = np.maximum(eig.lambda_radial, eig.lambda_tangential)
        lconst = _as_float(cand, "L")
        if lconst is None:
            lconst = 1.01 * float(np.max(lhs))
            fitted.append("L")
        elif lconst <= 0:
            raise ValueError("L must be positive")
        margins = lconst - lhs
        start = _suffix_start(radii, margins > 0.0)
        constants = {"L": lconst}
        ok = start is not None
        if start is not None:
            constants["N4"] = start

    else:  # pragma: no cover - parse() exhausts the enum
        raise ValueError(f"unhandled assumption {kind}")

    return AssumptionReport(
        assumption=kind,
        grid=radii,
        fitted_constants=constants,
        fitted_names=tuple(fitted),
        satisfied_from_radius=start,
        passed=bool(ok),
        margins=margins,
    )


def _check_tail(
    tp: TransformedPotential,
    radii: np.ndarray,
    cand: dict[str, float],
) -> AssumptionReport:
    """A5: pi{|x| >= m + lam} <= 2 exp(-(psi_inv(lam)/C)^alpha1) on a grid of
    thresholds lam.  psi_inv is the analytic inverse of the tail profile
    e^{b r^beta}, so thresholds below e (the tail image's left edge) are
    dropped from the grid."""
    t = tp.transform
    if t.tail != "exp":
        raise ValueError("the tail assumption is defined for exponential-tail transforms only")

    fitted: list[str] = []
    m = _as_float(cand, "m")
    if m is None:
        m = 0.0
    elif m < 0:
        raise ValueError("m must be nonnegative")
    alpha1 = _as_float(cand, "alpha1")
    if alpha1 is None:
        alpha1 = 1.0
        fitted.append("alpha1")
    if not 0.0 <= alpha1 <= 1.0:
        raise ValueError(f"alpha1 must lie in [0, 1], got {alpha1:g}")

    lam = radii[radii >= math.e * (1.0 - 1e-12)]
    if lam.size < 2:
        raise ValueError("grid must contain at least two thresholds >= e for the tail check")
    psi_inv = (np.log(lam) / t.b) ** (1.0 / t.beta)

    oracle = RadialQuadrature(tp.target)
    sf = np.array([oracle.sf(m + x) for x in lam])

    cconst = _as_float(cand, "C_tail")
    if cconst is None:
        if alpha1 == 0.0:
            raise ValueError("fitting C_tail requires alpha1 > 0")
        with np.errstate(divide="ignore"):
            required = psi_inv / np.log(2.0 / np.maximum(sf, 5e-324)) ** (1.0 / alpha1)
        cconst = float(np.max(_upper_half(required))) * (1.0 + 1e-9)
        fitted.append("C_tail")
    elif cconst <= 0:
        raise ValueError("C_tail must be positive")

    rhs = 2.0 * np.exp(-((psi_inv / cconst) ** alpha1))
    margins = rhs - sf
    start = _suffix_start(lam, margins > 0.0)
    constants = {"m": m, "alpha1": alpha1, "C_tail": cconst}
    if start is not None:
        constants["N5"] = start
        if alpha1 > 0.0:
            # Enlarged constant covering every threshold below N5 as well:
            # P(|x| >= m + lam) <= P(|x| >= m) must stay below the bound at
            # the worst threshold lam = N5.
            head = oracle.sf(m)
            extended = (np.log(start) / t.b) ** (1.0 / t.beta)
            extended /= math.log(2.0 / head) ** (1.0 / alpha1)
            constants["C_tail_extended"] = max(cconst, extended)

    return AssumptionReport(
        assumption=AssumptionKind.A5_TAIL,
        grid=lam,
        fitted_constants=constants,
        fitted_names=tuple(fitted),
        satisfied_from_radius=start,
        passed=start is not None,
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
    Both integrals use composite Simpson on a uniform grid; on [0, radii[0]]
    beta_bar is extended flat.

    Raises:
      NotApplicableError: the smaller eigenvalue is nonpositive somewhere on
        (0, r_max], so the curvature bound does not apply.
      ValueError: the balance equation has no root inside (0, r_max); raise
        r_max.
    """
    if r_max <= 0:
        raise ValueError("r_max must be positive")
    if grid_size < 16:
        raise ValueError("grid_size must be at least 16")

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
    integral = beta_bar[0] * step + cumulative_simpson(beta_bar, dx=step, initial=0.0)
    weighted = beta_bar[0] * step ** 2 / 2.0 + cumulative_simpson(
        radii * beta_bar, dx=step, initial=0.0
    )

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
    a0 = float(brentq(balance, lo, hi, xtol=1e-14, rtol=8.9e-16))
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
        return {
            "regime": self.regime.value,
            "rule_fired": self.rule_fired,
            "witness": None if self.witness is None else dict(self.witness),
            "basis": self.basis,
            "parameters": dict(self.parameters),
        }


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


def _isclose(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


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
      vartheta: tail exponent of the comparison weight, positive.
      dimension: ambient dimension, a positive integer.
      b, beta: tail profile parameters, b > 0 and beta in (1, 2].
      alpha, A, B: dissipativity growth data (B defaults to 0).
      mu, theta: degenerate-convexity data.
      rho: strong-convexity constant.

    Returns:
      RegimeVerdict; exactly one rule fires per input.

    Raises:
      ValueError: unknown basis, missing constants for the chosen basis, or
        parameters outside the case table's domain.
    """
    key = _BASIS_ALIASES.get(str(basis).strip().lower())
    if key is None:
        raise ValueError(f"unknown classification basis {basis!r}")
    if not vartheta > 0:
        raise ValueError("vartheta must be positive")
    if not (isinstance(dimension, (int, np.integer)) and dimension >= 1):
        raise ValueError("dimension must be a positive integer")
    if not b > 0:
        raise ValueError("b must be positive")
    if not 1.0 < beta <= 2.0:
        raise ValueError("beta must lie in (1, 2]")

    d = int(dimension)
    params: dict[str, float] = {
        "vartheta": float(vartheta), "dimension": d, "b": float(b), "beta": float(beta),
    }
    log_factor = -(d - beta) / beta

    if key == "dissipativity":
        if A is None or alpha is None:
            raise ValueError("dissipativity classification needs alpha and A")
        if A <= 0:
            raise ValueError("A must be positive")
        if not 1.0 <= alpha <= 2.0:
            raise ValueError("alpha must lie in [1, 2]")
        bconst = 0.0 if B is None else float(B)
        if bconst < 0:
            raise ValueError("B must be nonnegative")
        params.update(alpha=float(alpha), A=float(A), B=bconst)
        if alpha < beta and not _isclose(alpha, beta):
            raise ValueError("the dissipativity case table covers alpha >= beta only")

        witness = {
            "power_coefficient": A / (alpha * b ** (alpha / beta)),
            "power_log_exponent": alpha / beta - 1.0,
            "power_offset": -vartheta,
            "log_exponent": -bconst / beta,
        }
        if alpha > beta and not _isclose(alpha, beta):
            return RegimeVerdict(Regime.SUPER_POINCARE, "dissipativity:alpha>beta",
                                 witness, key, params)
        threshold = A / (beta * b)
        if _isclose(vartheta, threshold) or vartheta > threshold:
            return RegimeVerdict(Regime.WEAK_POINCARE,
                                 "dissipativity:alpha=beta,vartheta>=A/(beta*b)",
                                 None, key, params)
        return RegimeVerdict(Regime.SUPER_POINCARE,
                             "dissipativity:alpha=beta,vartheta<A/(beta*b)",
                             witness, key, params)

    if key == "degenerate_convexity":
        if mu is None or theta is None:
            raise ValueError("degenerate-convexity classification needs mu and theta")
        if mu <= 0:
            raise ValueError("mu must be positive")
        if theta < 0:
            raise ValueError("theta must be nonnegative")
        params.update(mu=float(mu), theta=float(theta))
        crit = 2.0 - beta

        if theta > crit and not _isclose(theta, crit):
            return RegimeVerdict(Regime.WEAK_POINCARE, "degenerate_convexity:theta>2-beta",
                                 None, key, params)
        if _isclose(theta, crit):
            threshold = mu / (beta * b)
            if _isclose(vartheta, threshold) or vartheta > threshold:
                return RegimeVerdict(Regime.WEAK_POINCARE,
                                     "degenerate_convexity:theta=2-beta,vartheta>=mu/(beta*b)",
                                     None, key, params)
            witness = {
                "power_coefficient": b ** (-(2.0 - theta) / beta),
                "power_log_exponent": (2.0 - theta) / beta - 1.0,
                "power_offset": -vartheta,
                "log_exponent": log_factor,
            }
            return RegimeVerdict(Regime.SUPER_POINCARE,
                                 "degenerate_convexity:theta=2-beta,vartheta<mu/(beta*b)",
                                 witness, key, params)
        witness = {
            "power_coefficient": mu * b ** (-(2.0 - theta) / beta)
            / ((1.0 - theta) * (2.0 - theta)),
            "power_log_exponent": (2.0 - theta) / beta - 1.0,
            "power_offset": 1.0 - (d + vartheta),
            "log_exponent": log_factor,
        }
        return RegimeVerdict(Regime.SUPER_POINCARE, "degenerate_convexity:theta<2-beta",
                             witness, key, params)

    # strong convexity
    if rho is None:
        raise ValueError("strong-convexity classification needs rho")
    if rho <= 0:
        raise ValueError("rho must be positive")
    params.update(rho=float(rho))
    witness = {
        "power_coefficient": rho / (2.0 * b ** (2.0 / beta)),
        "power_log_exponent": 2.0 / beta - 1.0,
        "power_offset": -vartheta,
        "log_exponent": log_factor,
    }
    if not _isclose(beta, 2.0):
        return RegimeVerdict(Regime.SUPER_POINCARE, "strong_convexity:beta<2",
                             witness, key, params)
    threshold = rho / (2.0 * b)
    if _isclose(vartheta, threshold):
        if d <= 2:
            return RegimeVerdict(Regime.POINCARE,
                                 "strong_convexity:beta=2,vartheta=rho/(2b),d<=2",
                                 None, key, params)
        return RegimeVerdict(Regime.WEAK_POINCARE,
                             "strong_convexity:beta=2,vartheta=rho/(2b),d>=3",
                             None, key, params)
    if vartheta < threshold:
        return RegimeVerdict(Regime.SUPER_POINCARE,
                             "strong_convexity:beta=2,vartheta<rho/(2b)",
                             witness, key, params)
    return RegimeVerdict(Regime.WEAK_POINCARE,
                         "strong_convexity:beta=2,vartheta>rho/(2b)",
                         None, key, params)


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


def _pooled_series(run: ChainRun, burn_in: int) -> list[np.ndarray]:
    """Post-burn-in radius series |x| per chain."""
    out = []
    for xs in run.xs:  # one access: each maps every chain through h
        if xs.shape[0] > burn_in:
            out.append(np.linalg.norm(xs[burn_in:], axis=1))
    if not out:
        raise ValueError("no recorded samples remain after burn-in")
    return out


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
        return {
            "n_samples": self.n_samples,
            "burn_in": self.burn_in,
            "ks": dataclasses.asdict(self.ks),
            "moments": [dataclasses.asdict(m) for m in self.moments],
            "tails": [dataclasses.asdict(t) for t in self.tails],
            "truncated_mass": self.truncated_mass,
            "pass": self.all_passed,
        }


def _series_std_error(per_chain: list[np.ndarray]) -> float:
    """Monte-Carlo standard error of the pooled mean, discounted by the
    autocorrelation-adjusted sample size."""
    pooled = np.concatenate(per_chain)
    ess = sum(effective_sample_size(s) for s in per_chain)
    return float(pooled.std(ddof=1) / math.sqrt(max(ess, 1.0))) if pooled.size > 1 else 0.0


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
    and exceedance frequencies P(|x| > T) judged the same way.

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
      ValueError: burn-in leaves no samples.
      UndefinedMomentError: an explicitly requested moment does not exist.
    """
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    per_chain = _pooled_series(run, burn_in)
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
        powered = [s ** p for s in per_chain]
        empirical = float(np.concatenate(powered).mean())
        se = _series_std_error(powered)
        moments.append(MomentCheck(order=p, empirical=empirical, reference=reference,
                                   std_error=se, within_3se=abs(empirical - reference) <= 3.0 * se))

    tails = []
    for threshold in thresholds:
        threshold = float(threshold)
        reference = quadrature.sf(threshold)
        indicators = [(s > threshold).astype(float) for s in per_chain]
        empirical = float(np.concatenate(indicators).mean())
        se = _series_std_error(indicators)
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
    log_density: Callable[[float], float],
    lo: float,
    hi: float,
) -> float:
    """log integral of exp(log_density) over (lo, hi)."""
    scan_lo = lo if math.isfinite(lo) else -100.0
    scan_hi = hi if math.isfinite(hi) else 100.0
    scan = np.linspace(scan_lo, scan_hi, 4001)
    vals = np.array([log_density(float(x)) for x in scan])
    finite = vals[np.isfinite(vals)]
    if finite.size == 0:
        raise ValueError("log-density is nowhere finite on the scan window")
    shift = float(finite.max())
    mass, _ = quad(_shifted_exp(log_density, shift), lo, hi, limit=400,
                   epsabs=1e-13, epsrel=1e-11)
    if not (math.isfinite(mass) and mass > 0.0):
        raise ValueError("density is not normalizable on the domain")
    return math.log(mass) + shift


def kl_quadrature_1d(
    log_density_a: Callable[[float], float],
    log_density_b: Callable[[float], float],
    domain: tuple[float, float] = (-np.inf, np.inf),
) -> float:
    """KL(a || b) for one-dimensional densities given by unnormalized
    log-density callables.

    Both densities are normalized numerically on the domain first, then the
    divergence integral runs through adaptive quadrature with absolute
    accuracy around 1e-8.  Non-integrable inputs surface as ValueError.
    """
    lo, hi = float(domain[0]), float(domain[1])
    if not lo < hi:
        raise ValueError("domain must satisfy lo < hi")

    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            log_za = _log_normalizer(log_density_a, lo, hi)
            log_zb = _log_normalizer(log_density_b, lo, hi)

            def integrand(x: float) -> float:
                la = log_density_a(x) - log_za
                if la < -745.0:
                    return 0.0
                return math.exp(la) * (la - (log_density_b(x) - log_zb))

            value, _ = quad(integrand, lo, hi, limit=400, epsabs=1e-10, epsrel=1e-10)
        except IntegrationWarning as exc:
            raise ValueError(f"quadrature failed to converge: {exc}") from exc
    return float(value)
