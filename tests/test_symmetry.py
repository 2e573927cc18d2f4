"""Exact symmetries of the sampler, checked bitwise without an oracle.

The exponential-tail transforms are one family in ``b``: the bulk profile's
scale is ``sqrt(b)`` and its exponent's coefficients are ``b**(k/2)`` times
constants, so ``g_{4b}(r) = g_b(2r)`` and the knot goes as ``b**(-1/2)``.
Then ``f_h`` at ``4b`` is ``f_h(2r)`` at ``b`` plus a constant, its gradient
doubles, and one TULA step from ``y / 2`` with step ``gamma / 4`` and noise
``sqrt(2 gamma / 4) z = sqrt(2 gamma) z / 2`` lands on half the step from
``y``: the same chain in ``x``.  Every factor is a power of two, so the
floating-point chains agree bit for bit, across the knot and on both
branches, as long as the code keeps that homogeneity.
"""

import numpy as np
import pytest

from tula.sampler import SamplerConfig, plan_step_size, run_tula
from tula.targets import make_example

STEPS = 2000
GAMMA = 0.05

# the t at d = 1, 2, 5 with its default b = d / (2 kappa)
CASES = [(1, 1.0), (2, 3.0), (5, 4.0)]


def _run(dimension, kappa, b, gamma, start, seed):
    tp = make_example("t", dimension, kappa=kappa, b=b)
    cfg = SamplerConfig(step_size=gamma, num_steps=STEPS, seed=seed, num_chains=2,
                        initial_point=start)
    return tp, run_tula(tp, cfg)


@pytest.mark.parametrize("k", [-1, 1])
@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("dimension, kappa", CASES, ids=[f"t{d}_{k:g}" for d, k in CASES])
def test_run_tula_is_invariant_under_the_scale_of_b(dimension, kappa, seed, k):
    """``run_tula`` at ``(4**k b, gamma / 4**k, y0 / 2**k)`` gives the x
    samples of ``(b, gamma, y0)`` bitwise, and y samples scaled by ``2**-k``."""
    b = dimension / (2.0 * kappa)
    start = np.linspace(0.3, 1.5, 2 * dimension).reshape(2, dimension)
    tp, base = _run(dimension, kappa, b, GAMMA, start, seed)
    scaled_tp, scaled = _run(dimension, kappa, 4.0**k * b, GAMMA / 4.0**k, start / 2.0**k, seed)
    assert scaled_tp.transform.knot == tp.transform.knot / 2.0**k
    assert not base.any_diverged and not scaled.any_diverged
    for y in base.ys:  # each chain crosses the knot
        radii = np.linalg.norm(y, axis=1)
        assert (radii < tp.transform.knot).any() and (radii >= tp.transform.knot).any()
    for x, x_scaled, y, y_scaled in zip(base.xs, scaled.xs, base.ys, scaled.ys):
        assert x_scaled.tobytes() == x.tobytes()
        assert (y_scaled * 2.0**k).tobytes() == y.tobytes()


# (L, C, d, eps, H0): the frozen planner example and two others
PLANS = [(8.0, 4.0 / 7.0, 4, 0.1, 4.0), (3.0, 0.37, 2, 0.01, 1.5), (0.7, 11.3, 10, 0.5, 20.0)]


@pytest.mark.parametrize("k", [-2, -1, 1, 2])
@pytest.mark.parametrize("plan", PLANS)
def test_plan_step_size_follows_the_scale_of_b(plan, k):
    """Under b -> 4**k b, L goes as 4**k and C as 4**-k: the planner gives
    ``gamma / 4**k`` and the same step count, bitwise."""
    lipschitz, lsi_constant, dimension, accuracy, initial_kl = plan
    gamma, steps = plan_step_size(*plan)
    scaled = plan_step_size(4.0**k * lipschitz, lsi_constant / 4.0**k, dimension, accuracy,
                            initial_kl)
    assert scaled == (gamma / 4.0**k, steps)
