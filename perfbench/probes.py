"""Kernel probes: per-item cost of the radial kernels on a workload's target.

Each probe calls one public function on a fixed batch (fixed seed, fixed
size) and reports the median over repeats of time per item.  Bulk radii lie
strictly inside the knot and tail radii strictly outside it, so each
branch of the piecewise profile is timed on its own.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from tula import dynamics, transform

BATCH = 1024
SINGLE_POINTS = 64
REPEATS = 7
MIN_SECONDS = 0.02


def _per_item(fn, items: int) -> float:
    """Median seconds per item; each repeat loops until MIN_SECONDS."""
    samples = []
    for _ in range(REPEATS):
        loops = 0
        start = time.perf_counter()
        while True:
            fn()
            loops += 1
            elapsed = time.perf_counter() - start
            if elapsed >= MIN_SECONDS:
                break
        samples.append(elapsed / (loops * items))
    return statistics.median(samples)


def run_probes(tp: dynamics.TransformedPotential) -> dict[str, float]:
    t = tp.transform
    rng = np.random.default_rng(20220120)
    bulk = t.knot * rng.uniform(0.05, 0.95, BATCH)
    tail = t.knot * rng.uniform(1.05, 2.5, BATCH)
    mixed = np.concatenate([bulk[: BATCH // 2], tail[: BATCH - BATCH // 2]])
    dirs = rng.standard_normal((BATCH, tp.dimension))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    points = mixed[:, None] * dirs
    bulk_images = transform.g_eval(t, bulk, 0)
    singles = [points[i] for i in range(0, BATCH, BATCH // SINGLE_POINTS)]

    def single_gradients():
        for y in singles:
            dynamics.transformed_gradient(tp, y)

    return {
        "dynamics.grad_factor_ns_per_radius.bulk":
            1e9 * _per_item(lambda: dynamics.grad_factor(tp, bulk), BATCH),
        "dynamics.grad_factor_ns_per_radius.tail":
            1e9 * _per_item(lambda: dynamics.grad_factor(tp, tail), BATCH),
        "dynamics.transformed_gradient_us_per_call":
            1e6 * _per_item(single_gradients, len(singles)),
        "transform.h_forward_ns_per_point":
            1e9 * _per_item(lambda: transform.h_forward(t, points), BATCH),
        "transform.g_inverse_ns_per_point":
            1e9 * _per_item(lambda: transform.g_inverse(t, bulk_images), BATCH),
        "dynamics.hessian_eigenvalues_ns_per_radius":
            1e9 * _per_item(lambda: dynamics.hessian_eigenvalues(tp, mixed), BATCH),
    }
