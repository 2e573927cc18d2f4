"""Unadjusted Langevin iteration on the transformed potential.

The chain lives on the transformed side:

    y_{n+1} = y_n - gamma grad f_h(y_n) + sqrt(2 gamma) u_{n+1},

with iid standard Gaussian ``u``; samples of the heavy-tailed target are
read off as ``x_n = h(y_n)``.  The same loop on the raw potential (no
transform) is exposed for comparison runs.

Randomness is reproducible and splittable: chain ``k`` of a run with seed
``s`` draws from ``Philox`` keyed by ``SeedSequence(s, spawn_key=(k,))``,
so results do not depend on how many sibling chains run alongside.
Chains run one after another.  A chain draws its random start first, if it
has one, then its noise in blocks of up to 256 steps, one
``standard_normal((b, d))`` call per block scaled by ``sqrt(2 gamma)``
once.  A block of ``b`` rows holds the bits of ``b`` successive
``standard_normal(d)`` draws, so every iterate is what one draw per step
gives, whatever the block size; a chain that diverges leaves the rest of
its block unused.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, Sequence

import numpy as np

from . import transform as tr
from .dynamics import ORIGIN_RADIUS, TransformedPotential, transformed_gradient
from .targets import IsotropicPotential

__all__ = [
    "SamplerConfig",
    "ChainRun",
    "DivergenceError",
    "tula_step",
    "run_tula",
    "run_ula",
    "plan_step_size",
    "write_chain_csv",
    "run_summary",
]


class DivergenceError(RuntimeError):
    """A chain iterate stopped being finite."""


@dataclasses.dataclass(frozen=True)
class SamplerConfig:
    """Run parameters for the Langevin loops.

    ``initial_point`` may be a single point (shared by all chains), an
    array of one point per chain, or None, in which case each chain draws
    its start from a centered Gaussian with scale ``init_scale`` (itself
    defaulting to ``1/sqrt(L)`` for a grid estimate ``L`` of the largest
    Hessian eigenvalue magnitude).  ``thin`` keeps every ``thin``-th
    iterate; iterate 0 is always recorded.
    """

    step_size: float
    num_steps: int
    seed: int = 0
    initial_point: np.ndarray | None = None
    thin: int = 1
    num_chains: int = 1
    init_scale: float | None = None

    def __post_init__(self) -> None:
        if not (self.step_size > 0.0 and math.isfinite(self.step_size)):
            raise ValueError(f"step_size must be positive and finite, got {self.step_size}")
        for name, least in (("seed", 0), ("num_steps", 1), ("thin", 1), ("num_chains", 1)):
            value = getattr(self, name)
            if not tr._is_count(value, least):
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
            object.__setattr__(self, name, int(value))  # a numpy integer is not JSON
        if self.init_scale is not None and not (
            self.init_scale > 0.0 and math.isfinite(self.init_scale)
        ):
            raise ValueError(f"init_scale must be positive and finite, got {self.init_scale}")
        if self.initial_point is not None:
            point = np.asarray(self.initial_point, dtype=float)
            if not np.all(np.isfinite(point)):
                raise ValueError(f"initial_point must be finite, got {point.tolist()}")
            object.__setattr__(self, "initial_point", point)

    def to_dict(self) -> dict:
        return tr._record_dict(self)


@dataclasses.dataclass(frozen=True)
class ChainRun:
    """Recorded trajectories of one run; x-samples are derived from them.

    ``ys[i]`` is the (n_i, d) array of recorded iterates of chain ``i`` and
    ``steps[i]`` the matching iteration indices.  A diverged chain keeps
    the finite prefix and sets its flag.  ``xs`` maps the trajectories
    through the transform on first access and keeps the result, so every
    consumer of a run shares one mapping; the arrays of ``ys`` must not be
    mutated after that.
    """

    config: SamplerConfig
    ys: tuple[np.ndarray, ...]
    steps: tuple[np.ndarray, ...]
    diverged: tuple[bool, ...]
    transform: tr.RadialTransform | None = None

    @functools.cached_property
    def xs(self) -> tuple[np.ndarray, ...]:
        if self.transform is None:
            return self.ys
        return tuple(tr.h_forward(self.transform, y) for y in self.ys)

    @property
    def any_diverged(self) -> bool:
        return any(self.diverged)

    def pooled(self, space: str = "x", burn_in: int = 0) -> np.ndarray:
        """Stack the ``"x"`` or ``"y"`` samples of all chains, dropping
        ``burn_in`` recorded entries per chain.  Raises on another space, on
        a ``burn_in`` that is not a nonnegative integer or when nothing survives."""
        if space not in ("x", "y"):
            raise ValueError(f"space must be 'x' or 'y', got {space!r}")
        if not tr._is_count(burn_in, 0):
            raise ValueError(f"burn_in must be a nonnegative integer, got {burn_in!r}")
        series = self.xs if space == "x" else self.ys
        kept = [s[burn_in:] for s in series if s.shape[0] > burn_in]
        if not kept:
            raise ValueError(f"burn_in={burn_in} leaves no recorded samples")
        return np.concatenate(kept, axis=0)


def tula_step(tp: TransformedPotential, y: np.ndarray, gamma: float, noise: np.ndarray) -> np.ndarray:
    """One explicit Euler step on the transformed potential.

    ``y - gamma grad f_h(y) + sqrt(2 gamma) noise``.  Raises
    :class:`DivergenceError` when fed a non-finite state.
    """
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise DivergenceError("non-finite chain state")
    if not (gamma > 0.0 and math.isfinite(gamma)):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    noise = np.asarray(noise, dtype=float)
    if noise.shape != y.shape:
        raise ValueError(f"noise shape {noise.shape} does not match state {y.shape}")
    return y - gamma * transformed_gradient(tp, y) + math.sqrt(2.0 * gamma) * noise


# steps of noise a chain draws at once; any block size gives the same bits
_NOISE_BLOCK = 256


def _chain_rng(seed: int, chain: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(chain,))))


def _estimate_sharpness(grad_fn: Callable[[np.ndarray], np.ndarray], dim: int) -> float:
    # crude largest-curvature estimate from radial finite differences of the
    # gradient along the first axis; only used for the default initial scale
    radii = np.geomspace(1e-2, 10.0, 64)
    eps = 1e-5
    plus, minus = np.zeros((radii.size, dim)), np.zeros((radii.size, dim))
    plus[:, 0], minus[:, 0] = radii + eps, radii - eps
    worst = 1.0
    for diff in grad_fn(plus) - grad_fn(minus):
        d = np.linalg.norm(diff) / (2.0 * eps)
        if np.isfinite(d):
            worst = max(worst, float(d))
    return worst


def _initial_points(
    cfg: SamplerConfig, dim: int, rngs: Sequence[np.random.Generator],
    grad_fn: Callable[[np.ndarray], np.ndarray],
) -> list[np.ndarray]:
    if cfg.initial_point is not None:
        pt = cfg.initial_point
        if pt.ndim == 1:
            if pt.shape[0] != dim:
                raise ValueError(f"initial_point has dimension {pt.shape[0]}, expected {dim}")
            return [pt.copy() for _ in range(cfg.num_chains)]
        if pt.shape != (cfg.num_chains, dim):
            raise ValueError(
                f"per-chain initial points must have shape {(cfg.num_chains, dim)}, got {pt.shape}"
            )
        return [pt[i].copy() for i in range(cfg.num_chains)]
    scale = cfg.init_scale
    if scale is None:
        scale = 1.0 / math.sqrt(_estimate_sharpness(grad_fn, dim))
    return [rng.standard_normal(dim) * scale for rng in rngs]


def _run_chain(
    grad_fn: Callable[[np.ndarray], np.ndarray],
    y0: np.ndarray,
    cfg: SamplerConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, bool]:
    gamma, steps, thin = cfg.step_size, cfg.num_steps, cfg.thin
    root = math.sqrt(2.0 * gamma)
    y = np.asarray(y0, dtype=float)
    dim = y.shape[0]
    recorded = np.empty((steps // thin + 1, dim))
    recorded[0] = y
    count = 1
    # a diverging chain overflows on its way out; the isfinite check below
    # already turns that into a flag, so the numpy warnings add only noise
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(1, steps + 1, _NOISE_BLOCK):
            noise = root * rng.standard_normal((min(_NOISE_BLOCK, steps + 1 - first), dim))
            for k, z in enumerate(noise, first):
                y = y - gamma * grad_fn(y) + z
                # a NaN or infinite coordinate makes the sum of squares non-finite, and
                # it overflows first, so this keeps every recorded radius representable
                if not math.isfinite(y @ y):
                    return recorded[:count], np.arange(count) * thin, True
                if k % thin == 0:
                    recorded[count] = y
                    count += 1
    return recorded[:count], np.arange(count) * thin, False


def _run(
    grad_fn: Callable[[np.ndarray], np.ndarray],
    dim: int,
    cfg: SamplerConfig,
    transform: tr.RadialTransform | None,
) -> ChainRun:
    rngs = [_chain_rng(cfg.seed, i) for i in range(cfg.num_chains)]
    starts = _initial_points(cfg, dim, rngs, grad_fn)
    results = [_run_chain(grad_fn, y0, cfg, rng) for y0, rng in zip(starts, rngs)]
    ys, steps, flags = zip(*results)
    return ChainRun(
        config=cfg,
        ys=tuple(ys),
        steps=tuple(steps),
        diverged=tuple(flags),
        transform=transform,
    )


def run_tula(tp: TransformedPotential, cfg: SamplerConfig) -> ChainRun:
    """Run the transformed-side chains; ``x`` trajectories come out via
    the transform.  A chain that leaves double range is truncated to its
    finite prefix and flagged, without affecting sibling chains."""
    return _run(lambda y: transformed_gradient(tp, y), tp.dimension, cfg, tp.transform)


def run_ula(p: IsotropicPotential, cfg: SamplerConfig) -> ChainRun:
    """Same loop directly on the target potential (no transform)."""

    def grad(x: np.ndarray) -> np.ndarray:
        return tr._radial_field(x, p.dimension, p.dvalue, lambda r: r < ORIGIN_RADIUS)

    return _run(grad, p.dimension, cfg, None)


def plan_step_size(
    lipschitz: float, lsi_constant: float, dimension: int, accuracy: float, initial_kl: float
) -> tuple[float, int]:
    """Step size and iteration count hitting a KL accuracy target.

    ``gamma = min(1, accuracy / (4 d)) / (2 L^2 C)`` for gradient-Lipschitz
    constant ``L`` and log-Sobolev constant ``C``, and ``n`` is
    ``ceil((C / (2 gamma)) log(2 H0 / accuracy))`` for the initial KL
    divergence ``H0``.  Returns ``(gamma, n)``.  Raises ``ValueError``
    naming an input that is not positive and finite, a dimension that is
    not an integer >= 1, or a plan outside the float range.
    """
    given = {"lipschitz": lipschitz, "lsi_constant": lsi_constant, "accuracy": accuracy,
             "initial_kl": initial_kl}
    for name, value in given.items():
        if not (value > 0.0 and math.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if not tr._is_count(dimension, 1):
        raise ValueError(f"dimension must be an integer >= 1, got {dimension!r}")
    try:
        gamma = min(1.0, accuracy / (4.0 * dimension)) / (2.0 * lipschitz**2 * lsi_constant)
        steps = max(0, math.ceil(lsi_constant / (2.0 * gamma)
                                 * math.log(2.0 * initial_kl / accuracy)))
    except (OverflowError, ZeroDivisionError):
        raise ValueError("the planned step size or step count leaves the float range") from None
    return gamma, steps


def write_chain_csv(run: ChainRun, path) -> None:
    """Write recorded iterates as CSV.

    Header ``chain,step,space,coord0..coordK``; per chain and recorded
    step, one row for the transformed state (``space=y``) and one for the
    mapped sample (``space=x``).
    """
    dim = run.ys[0].shape[1]
    header = ["chain", "step", "space"] + [f"coord{i}" for i in range(dim)]
    xs = run.xs
    # rows are built as text, one write per chain; the fields never need
    # quoting, so this is the csv module's default dialect byte for byte
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for chain, (y_arr, x_arr, step_arr) in enumerate(zip(run.ys, xs, run.steps)):
            rows = zip(step_arr.tolist(), _csv_rows(y_arr), _csv_rows(x_arr))
            fh.write("".join(f"{chain},{step},y,{y_row}\r\n{chain},{step},x,{x_row}\r\n"
                             for step, y_row, x_row in rows))


def _csv_rows(arr: np.ndarray):
    """The rows of a 2-d float array as comma-joined ``repr`` fields, formatted
    one column at a time."""
    return map(",".join, zip(*[map(repr, column) for column in arr.T.tolist()]))


def run_summary(run: ChainRun) -> dict:
    """JSON-ready digest: config echo, per-chain record counts and
    divergence flags, and pooled radial moments in both spaces."""
    out: dict = {
        "config": run.config.to_dict(),
        "chains": [
            {"recorded": int(y.shape[0]), "diverged": bool(flag), "last_step": int(s[-1])}
            for y, s, flag in zip(run.ys, run.steps, run.diverged)
        ],
        "any_diverged": run.any_diverged,
    }
    for space in ("y", "x"):
        samples = run.pooled(space=space)
        with np.errstate(over="ignore", invalid="ignore"):
            radii = np.linalg.norm(samples, axis=1)
            mean = float(np.mean(radii))
            second = float(np.mean(radii**2))
        # a diverged chain's tail states can push the moments past the float
        # range; null is clearer in the JSON digest than Infinity
        out[f"{space}_radius_mean"] = mean if math.isfinite(mean) else None
        out[f"{space}_radius_second_moment"] = second if math.isfinite(second) else None
    return out
