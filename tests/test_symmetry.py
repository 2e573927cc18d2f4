"""Exact symmetries of the sampler, checked bitwise without an oracle.

The exponential-tail transforms are one family in ``b``: the bulk profile's
scale is ``sqrt(b)`` and its exponent's coefficients are ``b**(k/2)`` times
constants, so ``g_{4b}(r) = g_b(2r)`` and the knot goes as ``b**(-1/2)``.
Then ``f_h`` at ``4b`` is ``f_h(2r)`` at ``b`` plus a constant, its gradient
doubles, and one TULA step from ``y / 2`` with step ``gamma / 4`` and noise
``sqrt(2 gamma / 4) z = sqrt(2 gamma) z / 2`` lands on half the step from
``y``: the same chain in ``x``.  Every factor is a power of two, so the
floating-point chains agree bit for bit, across the knot and on both
branches, as long as the code keeps that homogeneity.  The same holds for
``tula sample``'s x-side files and for the constants the A2-A5 checks fit.
"""

import json
import math

import numpy as np
import pytest

from tula.analysis import check_assumption
from tula.cli import main
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


def _sample(out, b, gamma, init_scale):
    argv = ["sample", "--target", "t2_3", "--b", repr(b), "--gamma", repr(gamma),
            "--init-scale", repr(init_scale), "--steps", "4000", "--chains", "2", "--seed", "5",
            "--out", str(out)]
    assert main(argv) == 0
    rows = (out / "chain.csv").read_text().splitlines()
    return (rows[0], [row for row in rows[1:] if ",x," in row],
            [row for row in rows[1:] if ",y," in row])


@pytest.mark.parametrize("k", [-1, 1])
def test_tula_sample_files_are_invariant_under_the_scale_of_b(tmp_path, capsys, k):
    """``tula sample`` on the t at ``(4**k b, gamma / 4**k, --init-scale
    s / 2**k)`` writes the x rows of ``chain.csv``, all of ``trace.csv``
    (x radii) and ``diagnostics.json`` (x side) byte for byte as at ``(b,
    gamma, s)``; its y rows are the base's scaled by ``2**-k``, bitwise."""
    b, gamma = 1.0 / 3.0, 0.05
    base = _sample(tmp_path / "base", b, gamma, 1.0)
    scaled = _sample(tmp_path / "scaled", 4.0**k * b, gamma / 4.0**k, 1.0 / 2.0**k)
    assert scaled[:2] == base[:2]
    y_base = np.array([row.split(",")[3:] for row in base[2]], dtype=float)
    y_scaled = np.array([row.split(",")[3:] for row in scaled[2]], dtype=float)
    assert (y_scaled * 2.0**k).tobytes() == y_base.tobytes()
    radii = np.linalg.norm(y_base, axis=1)  # the chains cross the knot, sqrt(3)
    assert (radii < math.sqrt(3.0)).any() and (radii >= math.sqrt(3.0)).any()
    for name in ("trace.csv", "diagnostics.json"):
        assert (tmp_path / "scaled" / name).read_bytes() == (tmp_path / "base" / name).read_bytes()
    summaries = [json.loads((tmp_path / side / "summary.json").read_text())
                 for side in ("base", "scaled")]
    for key in ("x_radius_mean", "x_radius_second_moment"):
        assert summaries[1][key] == summaries[0][key]


# how A2-A5's constants go under b -> 4**k b on a y grid scaled by 2**-k
# (A5's thresholds are x radii, and stay): curvatures and L as 4**k, the
# radii N2-N4 as 2**-k, A5's C_tail as 2**-k
_CHECK_SCALE = {"mu": 4.0, "rho": 4.0, "L": 4.0, "N2": 0.5, "N3": 0.5, "N4": 0.5,
                "C_tail": 0.5, "C_tail_extended": 0.5}


@pytest.mark.parametrize("k", [-1, 1])
@pytest.mark.parametrize("assumption", ["A2", "A3", "A4", "A5"])
def test_check_constants_follow_the_scale_of_b(assumption, k):
    """On t3_2 (b = 3/4), ``check_assumption`` at ``4**k b`` fits every
    constant of A2-A5 at its exact power of two of the constant at ``b``,
    and its margins too, bitwise (every relation here held to the bit, so
    none needs a tolerance).  A1 is left out: its left-hand side does not
    follow the symmetry (ROADMAP item 16)."""
    base = make_example("t", 3, kappa=2.0)
    scaled = make_example("t", 3, kappa=2.0, b=4.0**k * base.transform.b)
    if assumption == "A5":
        grid = np.geomspace(math.e, 100.0, 256)
        scaled_grid, margin_factor = grid, 1.0
    else:
        grid = np.geomspace(base.transform.knot, 100.0, 512)
        scaled_grid, margin_factor = grid / 2.0**k, 4.0**k
    want = check_assumption(base, assumption, grid=grid)
    got = check_assumption(scaled, assumption, grid=scaled_grid)
    assert want.passed and got.passed
    assert got.fitted_constants.keys() == want.fitted_constants.keys()
    for name, value in want.fitted_constants.items():
        assert got.fitted_constants[name] == value * _CHECK_SCALE.get(name, 1.0)**k, name
    assert got.margins.tobytes() == (want.margins * margin_factor).tobytes()
