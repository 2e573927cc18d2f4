"""Unadjusted Langevin iteration on the transformed potential.

The chain lives on the transformed side:

    y_{n+1} = y_n - gamma grad f_h(y_n) + sqrt(2 gamma) u_{n+1},

with iid standard Gaussian ``u``; samples of the heavy-tailed target are
read off as ``x_n = h(y_n)``.  The same loop on the raw potential (no
transform) is exposed for comparison runs.

Randomness is reproducible and splittable: chain ``k`` of a run with seed
``s`` draws from ``Philox`` keyed by ``SeedSequence(s, spawn_key=(k,))``,
so results do not depend on scheduling, on the number of worker threads,
or on how many sibling chains run alongside.  Parallelism across chains is
capped by the ``TULA_THREADS`` environment variable (default: one worker
per chain up to the CPU count).
"""

from __future__ import annotations

import dataclasses
import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

from . import transform as tr
from .dynamics import TransformedPotential, transformed_gradient
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
    """A chain iterate stopped being finite.

    ``step`` is the iteration index at which the divergence was detected,
    when known.
    """

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


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
        if self.num_steps < 1:
            raise ValueError(f"num_steps must be >= 1, got {self.num_steps}")
        if self.thin < 1:
            raise ValueError(f"thin must be >= 1, got {self.thin}")
        if self.num_chains < 1:
            raise ValueError(f"num_chains must be >= 1, got {self.num_chains}")
        if self.initial_point is not None:
            object.__setattr__(
                self, "initial_point", np.asarray(self.initial_point, dtype=float)
            )

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        if self.initial_point is not None:
            d["initial_point"] = self.initial_point.tolist()
        return d


@dataclasses.dataclass(frozen=True)
class ChainRun:
    """Recorded trajectories of one run; x-samples are derived, not stored.

    ``ys[i]`` is the (n_i, d) array of recorded iterates of chain ``i`` and
    ``steps[i]`` the matching iteration indices.  A diverged chain keeps
    the finite prefix and sets its flag.  ``xs`` maps the trajectories
    through the transform on access, which keeps the two spaces consistent
    by construction.
    """

    config: SamplerConfig
    ys: tuple[np.ndarray, ...]
    steps: tuple[np.ndarray, ...]
    diverged: tuple[bool, ...]
    transform: tr.RadialTransform | None = None

    @property
    def xs(self) -> tuple[np.ndarray, ...]:
        if self.transform is None:
            return self.ys
        return tuple(tr.h_forward(self.transform, y) for y in self.ys)

    @property
    def any_diverged(self) -> bool:
        return any(self.diverged)

    def pooled(self, space: str = "x", burn_in: int = 0) -> np.ndarray:
        """Stack recorded samples from all chains, dropping ``burn_in``
        recorded entries per chain.  Raises when nothing survives."""
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
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    noise = np.asarray(noise, dtype=float)
    if noise.shape != y.shape:
        raise ValueError(f"noise shape {noise.shape} does not match state {y.shape}")
    return y - gamma * transformed_gradient(tp, y) + math.sqrt(2.0 * gamma) * noise


def _chain_rng(seed: int, chain: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(chain,))))


def _estimate_sharpness(grad_fn: Callable[[np.ndarray], np.ndarray], dim: int) -> float:
    # crude largest-curvature estimate from radial finite differences of the
    # gradient along the first axis; only used for the default initial scale
    radii = np.geomspace(1e-2, 10.0, 64)
    eps = 1e-5
    worst = 1.0
    for r in radii:
        e = np.zeros(dim)
        e[0] = r
        ep = e.copy()
        ep[0] = r + eps
        em = e.copy()
        em[0] = r - eps
        d = np.linalg.norm(grad_fn(ep) - grad_fn(em)) / (2.0 * eps)
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
    schedule: Callable[[int], float] | None,
) -> tuple[np.ndarray, np.ndarray, bool]:
    gamma = cfg.step_size
    root = math.sqrt(2.0 * gamma)
    y = np.asarray(y0, dtype=float).copy()
    recorded = [y.copy()]
    steps = [0]
    diverged = False
    # a diverging chain overflows on its way out; the isfinite check below
    # already turns that into a flag, so the numpy warnings add only noise
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, cfg.num_steps + 1):
            if schedule is not None:
                gamma = schedule(k)
                root = math.sqrt(2.0 * gamma)
            y = y - gamma * grad_fn(y) + root * rng.standard_normal(y.shape[0])
            # the norm check keeps every recorded radius representable, not
            # just every coordinate; the squared norm overflows first
            if not (np.all(np.isfinite(y)) and np.isfinite(y @ y)):
                diverged = True
                break
            if k % cfg.thin == 0:
                recorded.append(y.copy())
                steps.append(k)
    return np.asarray(recorded), np.asarray(steps, dtype=int), diverged


def _num_workers(num_chains: int) -> int:
    env = os.environ.get("TULA_THREADS", "").strip()
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise ValueError(f"TULA_THREADS must be an integer, got {env!r}")
        if cap < 1:
            raise ValueError(f"TULA_THREADS must be >= 1, got {cap}")
        return min(cap, num_chains)
    return min(num_chains, os.cpu_count() or 1)


def _run(
    grad_fn: Callable[[np.ndarray], np.ndarray],
    dim: int,
    cfg: SamplerConfig,
    transform: tr.RadialTransform | None,
    schedule: Callable[[int], float] | None = None,
) -> ChainRun:
    rngs = [_chain_rng(cfg.seed, i) for i in range(cfg.num_chains)]
    starts = _initial_points(cfg, dim, rngs, grad_fn)
    workers = _num_workers(cfg.num_chains)
    if workers == 1 or cfg.num_chains == 1:
        results = [_run_chain(grad_fn, y0, cfg, rng, schedule) for y0, rng in zip(starts, rngs)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_chain, grad_fn, y0, cfg, rng, schedule)
                for y0, rng in zip(starts, rngs)
            ]
            results = [f.result() for f in futures]
    ys, steps, flags = zip(*results)
    return ChainRun(
        config=cfg,
        ys=tuple(ys),
        steps=tuple(steps),
        diverged=tuple(flags),
        transform=transform,
    )


def run_tula(
    tp: TransformedPotential,
    cfg: SamplerConfig,
    step_schedule: Callable[[int], float] | None = None,
) -> ChainRun:
    """Run the transformed-side chains; ``x`` trajectories come out via
    the transform.  A chain that leaves double range is truncated to its
    finite prefix and flagged, without affecting sibling chains.

    ``step_schedule`` optionally maps the 1-based iteration index to a
    step size, overriding the constant ``cfg.step_size``; the constant
    schedule is the supported and tested path.
    """
    return _run(
        lambda y: transformed_gradient(tp, y), tp.dimension, cfg, tp.transform, step_schedule
    )


def run_ula(p: IsotropicPotential, cfg: SamplerConfig) -> ChainRun:
    """Same loop directly on the target potential (no transform)."""

    def grad(x: np.ndarray) -> np.ndarray:
        r = float(np.linalg.norm(x))
        if r < 1e-10:
            return np.zeros_like(x)
        return float(p.dvalue(r)) / r * x

    return _run(grad, p.dimension, cfg, None)


def plan_step_size(
    lipschitz: float, lsi_constant: float, dimension: int, accuracy: float, initial_kl: float
) -> tuple[float, int]:
    """Step size and iteration count hitting a KL accuracy target.

    ``gamma = min(1, accuracy / (4 d)) / (2 L^2 C)`` for gradient-Lipschitz
    constant ``L`` and log-Sobolev constant ``C``, and ``n`` is
    ``ceil((C / (2 gamma)) log(2 H0 / accuracy))`` for the initial KL
    divergence ``H0``.  Returns ``(gamma, n)``.
    """
    if not (lipschitz > 0.0 and lsi_constant > 0.0):
        raise ValueError("lipschitz and lsi_constant must be positive")
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    if not (accuracy > 0.0 and initial_kl > 0.0):
        raise ValueError("accuracy and initial_kl must be positive")
    gamma = min(1.0, accuracy / (4.0 * dimension)) / (2.0 * lipschitz**2 * lsi_constant)
    steps = max(0, math.ceil(lsi_constant / (2.0 * gamma) * math.log(2.0 * initial_kl / accuracy)))
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
            lines = []
            for step, y_row, x_row in zip(step_arr.tolist(), y_arr.tolist(), x_arr.tolist()):
                lines.append(f"{chain},{step},y,{','.join(map(repr, y_row))}\r\n")
                lines.append(f"{chain},{step},x,{','.join(map(repr, x_row))}\r\n")
            fh.write("".join(lines))


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
