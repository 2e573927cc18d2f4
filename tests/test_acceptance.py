"""Acceptance gate: the eight headline guarantees, one printed line each.

Every test prints `criterion N: PASS/FAIL (numbers)` before asserting, so a
plain `pytest -s tests/test_acceptance.py` reads as a checklist.  Tolerances
and runtime budgets are stated inline; nothing is loosened to fit.
"""

import math
import time

import numpy as np
import pytest

from tula.analysis import (
    Regime,
    check_assumption,
    classify_regime,
    estimate_lsi,
    kl_quadrature_1d,
    radial_diagnostics,
)
from tula.dynamics import (
    TransformedPotential,
    hessian_eigenvalues,
    transformed_gradient,
    transformed_value,
)
from tula.sampler import SamplerConfig, plan_step_size, run_tula
from tula.targets import ExampleKind, make_example
from tula.transform import (
    ginbeta2_transform,
    h_forward,
    h_inverse,
    verify_g1_assumption,
    warmup_transform,
)

# KL between the 1-d heavy-tailed densities with decay exponents 2 and 4
# (both with unit tail scale), computed independently with mpmath at 40
# significant digits (tools/freeze_oracles.py)
KL_T1_2_VS_4 = 0.2082405307719450


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"criterion {number}: {detail}"


def _tp(kind, dimension, **kwargs) -> TransformedPotential:
    entry = make_example(kind, dimension, **kwargs)
    return TransformedPotential(entry.potential, entry.transform)


def test_criterion_1_lsi_closed_forms():
    """The curvature-profile bound reproduces the four closed-form
    log-Sobolev constants 16/(7d), 32/(15d), 64/(31d), 2/d within 1% for
    d in {2, 4, 8}, in under 5 seconds."""
    closed = {
        ExampleKind.EXAMPLE3: lambda d: 16.0 / (7.0 * d),
        ExampleKind.EXAMPLE4: lambda d: 32.0 / (15.0 * d),
        ExampleKind.EXAMPLE5: lambda d: 64.0 / (31.0 * d),
        ExampleKind.EXAMPLE6: lambda d: 2.0 / d,
    }
    start = time.perf_counter()
    worst = 0.0
    for kind, reference in closed.items():
        for d in (2, 4, 8):
            estimate = estimate_lsi(_tp(kind, d, vartheta=1.0))
            rel = abs(estimate.bound - reference(d)) / reference(d)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    _report(1, worst < 0.01 and elapsed < 5.0,
            f"worst rel err {worst:.2e} over 12 cases, tol 1e-2; {elapsed:.1f}s < 5s")


def _fd_errors(tp: TransformedPotential, seed: int, num_points: int = 1000):
    """Largest relative gradient / Hessian-eigenvalue error against central
    finite differences of the potential value, on random points with the
    knot shell |r - knot| <= 0.1 knot excluded."""
    rng = np.random.default_rng(seed)
    d = tp.dimension
    knot = tp.transform.knot

    radii = np.exp(rng.uniform(math.log(0.05), math.log(30.0), size=4 * num_points))
    radii = radii[np.abs(radii - knot) > 0.1 * knot][:num_points]
    n = radii.size
    dirs = rng.standard_normal((n, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    y = radii[:, None] * dirs

    grad = transformed_gradient(tp, y)
    grad_err = 0.0
    for i in range(d):
        h = 1e-5 * np.maximum(1.0, np.abs(y[:, i]))
        yp = y.copy()
        yp[:, i] += h
        ym = y.copy()
        ym[:, i] -= h
        fd = (transformed_value(tp, yp) - transformed_value(tp, ym)) / (2.0 * h)
        err = np.abs(fd - grad[:, i]) / np.maximum(1.0, np.abs(grad[:, i]))
        grad_err = max(grad_err, float(err.max()))

    eig = hessian_eigenvalues(tp, radii)
    v0 = transformed_value(tp, y)
    h2 = 2e-4 * np.maximum(1.0, radii)

    def second_diff(direction):
        vp = transformed_value(tp, y + h2[:, None] * direction)
        vm = transformed_value(tp, y - h2[:, None] * direction)
        return (vp - 2.0 * v0 + vm) / h2**2

    rad = np.abs(second_diff(dirs) - eig.lambda_radial)
    hess_err = float((rad / np.maximum(1.0, np.abs(eig.lambda_radial))).max())
    if d >= 2:
        tan = rng.standard_normal((n, d))
        tan -= np.sum(tan * dirs, axis=1, keepdims=True) * dirs
        tan /= np.linalg.norm(tan, axis=1, keepdims=True)
        t_err = np.abs(second_diff(tan) - eig.lambda_tangential)
        hess_err = max(hess_err,
                       float((t_err / np.maximum(1.0, np.abs(eig.lambda_tangential))).max()))
    return grad_err, hess_err


def test_criterion_2_derivative_oracles():
    """Closed-form gradients and Hessian eigenvalues match finite
    differences within 1e-5 / 1e-4 relative on 1000 points for every
    benchmark entry at d in {1, 2, 5}, in under 30 seconds."""
    entries = [
        (ExampleKind.WARMUP, {}),
        (ExampleKind.MULTIVARIATE_T, {"kappa": 2.5}),
        (ExampleKind.EXAMPLE2, {"upsilon": 1.0}),
        (ExampleKind.EXAMPLE3, {}),
        (ExampleKind.EXAMPLE4, {}),
        (ExampleKind.EXAMPLE5, {}),
        (ExampleKind.EXAMPLE6, {}),
    ]
    start = time.perf_counter()
    worst_grad = worst_hess = 0.0
    for seed, (kind, kwargs) in enumerate(entries):
        for d in (1, 2, 5):
            g, h = _fd_errors(_tp(kind, d, **kwargs), seed=100 * seed + d)
            worst_grad = max(worst_grad, g)
            worst_hess = max(worst_hess, h)
    elapsed = time.perf_counter() - start
    _report(2, worst_grad < 1e-5 and worst_hess < 1e-4 and elapsed < 30.0,
            f"grad {worst_grad:.2e} < 1e-5, hess {worst_hess:.2e} < 1e-4 "
            f"over 21 entry/dimension pairs; {elapsed:.1f}s < 30s")


def test_criterion_3_diffeomorphism():
    """h(h^{-1}(x)) returns within 1e-9 on 1000 points, the two branch
    expansions agree at the knot through third order within 1e-8, and the
    smoothness report passes for both stock profiles."""
    rng = np.random.default_rng(5)

    worst_round = 0.0
    for t, r_hi in ((ginbeta2_transform(1.0, 3), 1e6),
                    (warmup_transform(2), 1e4)):
        radii = np.exp(rng.uniform(math.log(1e-3), math.log(r_hi), size=1000))
        dirs = rng.standard_normal((1000, t.dimension))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        x = radii[:, None] * dirs
        back = h_forward(t, h_inverse(t, x))
        err = np.abs(back - x) / np.maximum(1.0, np.abs(x))
        worst_round = max(worst_round, float(err.max()))

    # one-sided closed forms at the knot R = 1/sqrt(b): the bulk profile
    # from its polynomial-exponent form, the tail from e^{b r^2}
    t = ginbeta2_transform(1.0, 3)
    b, R = t.b, t.knot
    eb = math.exp(b * R * R)
    tail = (eb, 2 * b * R * eb, (2 * b + 4 * b**2 * R**2) * eb,
            (12 * b**2 * R + 8 * b**3 * R**3) * eb)
    bulk = tuple(t.gin.deriv(R, k) if k else t.gin.value(R) for k in range(4))
    worst_knot = max(abs(u - v) / abs(v) for u, v in zip(bulk, tail))

    reports_ok = (verify_g1_assumption(ginbeta2_transform(1.0, 3)).passed
                  and verify_g1_assumption(ginbeta2_transform(0.25, 2)).passed
                  and verify_g1_assumption(warmup_transform(2)).passed)

    _report(3, worst_round < 1e-9 and worst_knot < 1e-8 and reports_ok,
            f"round-trip {worst_round:.2e} < 1e-9, knot C3 {worst_knot:.2e} < 1e-8, "
            f"smoothness reports pass: {reports_ok}")


def test_criterion_4_kl_preservation():
    """The map preserves KL divergence: for two pairs of 1-d densities
    pushed through a shared transform, quadrature KL agrees before and
    after within 1e-6, in under 5 seconds."""
    start = time.perf_counter()

    # pair A: heavy tails with decay 2 vs 4, unit tail scale; the original
    # KL has an independent 40-digit value
    a2 = make_example(ExampleKind.MULTIVARIATE_T, 1, kappa=2.0, b=0.25)
    a4 = make_example(ExampleKind.MULTIVARIATE_T, 1, kappa=4.0, b=0.25)
    tp2 = TransformedPotential(a2.potential, a2.transform)
    tp4 = TransformedPotential(a4.potential, a4.transform)
    kl_a_x = kl_quadrature_1d(lambda x: -a2.potential.value(np.abs(x)),
                              lambda x: -a4.potential.value(np.abs(x)))
    kl_a_y = kl_quadrature_1d(lambda y: -transformed_value(tp2, y[:, None]),
                              lambda y: -transformed_value(tp4, y[:, None]))
    diff_a = abs(kl_a_x - kl_a_y)
    anchored = abs(kl_a_x - KL_T1_2_VS_4) < 1e-9

    # pair B: two benchmark densities sharing their default transform
    b6 = make_example(ExampleKind.EXAMPLE6, 1, vartheta=2.0)
    b5 = make_example(ExampleKind.EXAMPLE5, 1, vartheta=2.0)
    tp6 = TransformedPotential(b6.potential, b6.transform)
    tp5 = TransformedPotential(b5.potential, b5.transform)
    kl_b_x = kl_quadrature_1d(lambda x: -b6.potential.value(np.abs(x)),
                              lambda x: -b5.potential.value(np.abs(x)))
    kl_b_y = kl_quadrature_1d(lambda y: -transformed_value(tp6, y[:, None]),
                              lambda y: -transformed_value(tp5, y[:, None]))
    diff_b = abs(kl_b_x - kl_b_y)

    elapsed = time.perf_counter() - start
    _report(4, diff_a < 1e-6 and diff_b < 1e-6 and anchored and elapsed < 5.0,
            f"pair A |ΔKL| {diff_a:.1e}, pair B |ΔKL| {diff_b:.1e}, tol 1e-6; "
            f"pair A anchored to oracle {KL_T1_2_VS_4:.12f}: {anchored}; {elapsed:.1f}s < 5s")


def test_criterion_5_sampling_at_desk_scale():
    """Chains at desk scale reproduce their targets' radial laws.

    Part one runs the Gaussian-image benchmark (d=2) at gamma = 0.05 for
    2e5 steps.  Its transformed potential is exactly (d/2)|y|^2, so the
    Euler chain's stationary law is exactly N(0, s2 I) with per-coordinate
    variance s2 = (1/d)(1 - gamma*d/2)^{-1} = 0.5263, not the target's 1/d
    = 0.5: a fixed-step chain is biased by O(gamma) (Durmus & Moulines
    2017).  Two checks, both judged at the 1% KS critical value of the
    chain's effective sample size (0.0074 at ESS about 47 900):

    (a) the KS statistic of the post-burn-in |y|^2/s2 against chi-square
        with d = 2 degrees of freedom, i.e. of the radii against the exact
        Euler law, beats the critical value (measured 0.0024).  A wrong
        noise scale, gradient or step would move s2 and fail this.
    (b) the KS statistic of the x-space radii against the target's law
        agrees with the predicted bias D_gamma = e^{-c s*} - e^{-s*}, with
        c = 1/(2 s2) and s* = ln(1/c)/(1 - c), the exact KS distance
        between the two radial laws at d = 2 (0.01887; measured 0.01800).
        A chain that matched the target law exactly would fail this too.

    Part two runs the heavy-tailed target (d=2, decay 3, default tail
    scale 1/3) at gamma = 0.005 and checks E|x| and P(|x| > 5) against
    quadrature within three Monte-Carlo standard errors.  Budget: two
    minutes for both runs.
    """
    start = time.perf_counter()

    gamma, d, burn_in = 0.05, 2, 2_000
    run6 = run_tula(_tp(ExampleKind.EXAMPLE6, d, vartheta=1.0),
                    SamplerConfig(step_size=gamma, num_steps=200_000, seed=0))
    target6 = make_example(ExampleKind.EXAMPLE6, d, vartheta=1.0).potential
    rep6 = radial_diagnostics(run6, target6, burn_in=burn_in)
    crit = rep6.ks.critical_1pct

    s2 = 1.0 / (d * (1.0 - gamma * d / 2.0))
    z = np.sort(np.sum(run6.ys[0][burn_in:] ** 2, axis=1) / s2)
    cdf = -np.expm1(-0.5 * z)  # chi-square, two degrees of freedom
    n = z.size
    ks_euler = float(max((np.arange(1, n + 1) / n - cdf).max(),
                         (cdf - np.arange(0, n) / n).max()))
    c = 1.0 / (2.0 * s2)
    s_star = math.log(1.0 / c) / (1.0 - c)
    bias = math.exp(-c * s_star) - math.exp(-s_star)
    euler_ok = ks_euler < crit
    bias_ok = abs(rep6.ks.statistic - bias) < crit

    target_t = make_example(ExampleKind.MULTIVARIATE_T, 2, kappa=3.0)
    run_t = run_tula(TransformedPotential(target_t.potential, target_t.transform),
                     SamplerConfig(step_size=0.005, num_steps=200_000, seed=0))
    rep_t = radial_diagnostics(run_t, target_t.potential, burn_in=10_000)
    mean_check = rep_t.moments[0]
    tail_check = rep_t.tails[0]
    moments_ok = mean_check.within_3se and tail_check.within_3se

    elapsed = time.perf_counter() - start
    _report(5, euler_ok and bias_ok and moments_ok and elapsed < 120.0,
            f"quadratic-image KS vs exact Euler law {ks_euler:.4f} < 1% crit "
            f"{crit:.4f} (ESS {rep6.ks.ess:.0f}) -> {euler_ok}; KS vs target "
            f"{rep6.ks.statistic:.5f} vs predicted bias {bias:.5f} within crit "
            f"-> {bias_ok}; heavy-tail "
            f"E|x| {mean_check.empirical:.4f} vs {mean_check.reference:.4f} "
            f"(3se {3 * mean_check.std_error:.4f}), "
            f"P(>5) {tail_check.empirical:.5f} vs {tail_check.reference:.5f} "
            f"(3se {3 * tail_check.std_error:.5f}) -> {moments_ok}; "
            f"{elapsed:.0f}s < 120s")


def test_criterion_6_analytic_assumption_constants():
    """On the heavy-tailed target (d=3, decay 2, b=0.75, beta=2) the
    analytic constants verify: L = 2*kappa*beta*b^(2/beta) = 6 bounds the
    eigenvalues, A = kappa*b*beta = 3 with alpha = beta fits dissipativity,
    and theta = 2 - beta with any mu < kappa*b*beta*(beta-1) = 3 fits
    degenerate convexity, each from a reported finite radius."""
    tp = _tp(ExampleKind.MULTIVARIATE_T, 3, kappa=2.0, b=0.75)

    a4 = check_assumption(tp, "A4", candidate_constants={"L": 6.0})
    a1 = check_assumption(tp, "A1", candidate_constants={"A": 3.0, "alpha": 2.0})
    a2_loose = check_assumption(tp, "A2", candidate_constants={"mu": 2.7, "theta": 0.0})
    a2_tight = check_assumption(tp, "A2", candidate_constants={"mu": 2.97, "theta": 0.0})

    reports = {"A4[L=6]": a4, "A1[A=3,alpha=2]": a1,
               "A2[mu=2.7]": a2_loose, "A2[mu=2.97]": a2_tight}
    ok = all(r.passed and r.satisfied_from_radius is not None
             and math.isfinite(r.satisfied_from_radius) for r in reports.values())
    onsets = ", ".join(f"{name} from r={r.satisfied_from_radius:.3g}"
                       for name, r in reports.items())
    _report(6, ok, onsets)


def test_criterion_7_regime_tables():
    """Classifier case tables: with alpha = beta and A = kappa*b*beta the
    weak/super threshold is the decay exponent itself (super iff
    kappa > vartheta); the plain-Poincare verdict fires exactly at beta=2,
    vartheta = rho/(2b), d in {1, 2}."""
    cases_ok = True
    for kappa, vartheta, expected in (
        (3.0, 1.0, Regime.SUPER_POINCARE),
        (2.5, 0.5, Regime.SUPER_POINCARE),
        (2.0, 2.0, Regime.WEAK_POINCARE),
        (1.0, 2.5, Regime.WEAK_POINCARE),
        (0.5, 0.5, Regime.WEAK_POINCARE),
    ):
        b = 1.0 / kappa  # the d=2 default tail scale
        verdict = classify_regime("dissipativity", vartheta=vartheta, dimension=2,
                                  b=b, alpha=2.0, A=kappa * b * 2.0)
        cases_ok = cases_ok and verdict.regime is expected

    poincare_ok = True
    for d, expected in ((1, Regime.POINCARE), (2, Regime.POINCARE),
                        (3, Regime.WEAK_POINCARE)):
        verdict = classify_regime("strong_convexity", vartheta=1.0, dimension=d,
                                  b=0.5, beta=2.0, rho=1.0)
        poincare_ok = poincare_ok and verdict.regime is expected
    off_boundary = classify_regime("strong_convexity", vartheta=0.9, dimension=1,
                                   b=0.5, beta=2.0, rho=1.0)
    poincare_ok = poincare_ok and off_boundary.regime is not Regime.POINCARE

    _report(7, cases_ok and poincare_ok,
            f"five threshold cases: {cases_ok}; plain-Poincare branch exact "
            f"at d<=2 on the boundary only: {poincare_ok}")


def test_criterion_8_planner_arithmetic():
    """plan_step_size reproduces the step/iteration formulas: the worked
    example (L=8, C=4/7, d=4, eps=0.1, H0=4) gives gamma = 7/81920 and
    n = 14653, and the min(1, eps/4d) factor saturates exactly at
    eps = 4d."""
    gamma, steps = plan_step_size(8.0, 4.0 / 7.0, 4, 0.1, 4.0)
    formula = min(1.0, 0.1 / 16.0) / (2.0 * 64.0 * (4.0 / 7.0))
    exact_ok = gamma == formula and abs(gamma - 7.0 / 81920.0) < 1e-16 and steps == 14653

    at_cap, _ = plan_step_size(2.0, 1.0, 4, 16.0, 4.0)
    above, _ = plan_step_size(2.0, 1.0, 4, 32.0, 4.0)
    below, _ = plan_step_size(2.0, 1.0, 4, 8.0, 4.0)
    branch_ok = at_cap == above == 0.125 and below == pytest.approx(0.0625)

    _report(8, exact_ok and branch_ok,
            f"gamma {gamma:.10e} = 7/81920, n {steps} = 14653: {exact_ok}; "
            f"eps-cap branch at eps=4d: {branch_ok}")
