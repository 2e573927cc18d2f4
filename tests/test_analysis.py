"""Quadrature oracle, assumption checks, LSI bound, classifier, diagnostics."""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.signal import lfilter

from tula.analysis import (
    KS_CRITICAL_1PCT,
    AssumptionKind,
    NotApplicableError,
    RadialQuadrature,
    Regime,
    UndefinedMomentError,
    check_assumption,
    classify_regime,
    effective_sample_size,
    estimate_lsi,
    kl_quadrature_1d,
    radial_diagnostics,
)
from tula.dynamics import TransformedPotential
from tula.sampler import SamplerConfig, run_tula
from tula.targets import ExampleKind, make_example

# for the 2-d heavy-tailed target with decay exponent 3 (quadrature, checked
# against the scaled-F law of the radius):
#   E|x|   = 1 and E|x|^2 = 2, both exact
#   P(|x| > 5) computed independently with mpmath at 40 significant digits
#   (tools/freeze_oracles.py)
T23_TAIL_5 = 0.007542928274545539689

# KL between the 1-d heavy-tailed densities with decay exponents 2 and 4,
# same mpmath oracle
KL_T1_2_VS_4 = 0.2082405307719450


@pytest.fixture(scope="module")
def t23():
    return make_example(ExampleKind.MULTIVARIATE_T, 2, kappa=3.0)


@pytest.fixture(scope="module")
def quad23(t23):
    return RadialQuadrature(t23.potential)


@pytest.fixture(scope="module")
def tp_t32():
    """3-d heavy-tailed target, decay 2, default tail scale b = 0.75."""
    entry = make_example(ExampleKind.MULTIVARIATE_T, 3, kappa=2.0, b=0.75)
    return TransformedPotential(entry.potential, entry.transform)


class TestRadialQuadrature:
    def test_cdf_matches_scaled_f_law(self, quad23):
        """kappa |x|^2 / d follows an F(d, kappa) distribution, so scipy's
        F CDF is an independent oracle for the adaptive quadrature."""
        for r in (0.3, 1.0, 2.5, 7.0, 40.0):
            ref = stats.f.cdf(3.0 * r * r / 2.0, 2, 3)
            assert quad23.cdf(r) == pytest.approx(ref, abs=5e-14)

    def test_sf_complements_cdf(self, quad23):
        assert quad23.sf(2.0) == pytest.approx(1.0 - quad23.cdf(2.0), abs=1e-13)
        assert quad23.cdf(0.0) == 0.0
        assert quad23.sf(0.0) == 1.0

    def test_frozen_moments(self, quad23):
        assert quad23.moment(1.0) == pytest.approx(1.0, rel=1e-12)
        assert quad23.moment(2.0) == pytest.approx(2.0, rel=1e-12)
        assert quad23.moment(0.0) == pytest.approx(1.0, rel=1e-12)

    def test_frozen_tail_probability(self, quad23):
        assert quad23.sf(5.0) == pytest.approx(T23_TAIL_5, rel=1e-12)

    def test_sf_at_and_past_r_max(self, quad23):
        """Below r_max, sf adds the remainder integrated once by the
        constructor; at and past r_max it integrates its own tail.  Both
        match the closed form P(|x| >= r) = (1 + r^2)^(-3/2)."""
        for r in (0.999 * quad23.r_max, quad23.r_max, 2.0 * quad23.r_max):
            assert quad23.sf(r) == pytest.approx((1.0 + r * r) ** -1.5, rel=1e-11)

    def test_moment_existence_boundary(self, quad23):
        with pytest.raises(UndefinedMomentError, match="does not exist"):
            quad23.moment(3.0)
        with pytest.raises(UndefinedMomentError):
            quad23.moment(4.5)
        with pytest.raises(ValueError, match="nonnegative"):
            quad23.moment(-1.0)

    def test_batch_cdf_tracks_scalar(self, quad23):
        radii = np.geomspace(0.05, 50.0, 200)
        ref = stats.f.cdf(3.0 * radii**2 / 2.0, 2, 3)
        np.testing.assert_allclose(quad23.batch_cdf(radii), ref, atol=2e-5)

    def test_truncated_mass_negligible(self, quad23):
        assert 0.0 < quad23.truncated_mass < 1e-8

    def test_r_max_validation(self, t23):
        with pytest.raises(ValueError, match="r_max"):
            RadialQuadrature(t23.potential, r_max=0.0)


class TestAssumptionChecks:
    """Candidate constants below are the analytic ones for the 3-d target
    with decay 2 and b = 0.75: L = 2*kappa*beta*b^(2/beta) = 6 bounds the
    largest eigenvalue, A = kappa*b*beta = 3 with alpha = beta fits the
    dissipativity growth, and mu just below A works at theta = 2 - beta."""

    def test_gradient_lipschitz_with_analytic_constant(self, tp_t32):
        rep = check_assumption(tp_t32, "A4", candidate_constants={"L": 6.0})
        assert rep.passed
        assert rep.fitted_names == ()
        # holds from the first grid radius, the bulk/tail knot 1/sqrt(b)
        assert rep.satisfied_from_radius == pytest.approx(0.75**-0.5, rel=1e-12)
        assert rep.fitted_constants["N4"] == rep.satisfied_from_radius

    def test_dissipativity_with_analytic_constants(self, tp_t32):
        rep = check_assumption(tp_t32, "A1",
                               candidate_constants={"A": 3.0, "alpha": 2.0})
        assert rep.passed
        assert rep.fitted_constants["B"] == 0.0
        assert rep.satisfied_from_radius == pytest.approx(0.75**-0.5, rel=1e-12)
        assert np.all(rep.margins > 0.0)

    def test_degenerate_convexity_with_analytic_constants(self, tp_t32):
        rep = check_assumption(tp_t32, "A2",
                               candidate_constants={"mu": 2.7, "theta": 0.0})
        assert rep.passed
        assert rep.satisfied_from_radius == pytest.approx(0.75**-0.5, rel=1e-12)

    def test_strong_convexity_fitted(self, tp_t32):
        rep = check_assumption(tp_t32, "A3")
        assert rep.passed
        assert rep.fitted_names == ("rho",)
        assert rep.fitted_constants["rho"] > 0.0
        assert rep.satisfied_from_radius is not None

    def test_tail_fitted_constant_and_extension(self, tp_t32):
        rep = check_assumption(tp_t32, "A5")
        assert rep.passed
        c = rep.fitted_constants
        assert c["m"] == 0.0 and c["alpha1"] == 1.0
        assert set(rep.fitted_names) == {"alpha1", "C_tail"}
        # the extended constant absorbs thresholds below the crossover N5
        assert c["C_tail_extended"] >= c["C_tail"]
        assert np.all(rep.grid >= math.e * (1.0 - 1e-12))

    def test_tail_with_undersized_constant_fails(self, tp_t32):
        rep = check_assumption(tp_t32, "A5", candidate_constants={"C_tail": 1e-3})
        assert not rep.passed
        assert rep.satisfied_from_radius is None
        assert "C_tail_extended" not in rep.fitted_constants

    def test_failing_candidate_reports_no_suffix(self, tp_t32):
        # the largest eigenvalue exceeds 1 everywhere past the knot
        rep = check_assumption(tp_t32, "A4", candidate_constants={"L": 1.0})
        assert not rep.passed
        assert rep.satisfied_from_radius is None

    def test_report_serialization(self, tp_t32):
        rep = check_assumption(tp_t32, "A4", candidate_constants={"L": 6.0})
        d = rep.to_dict()
        assert d["pass"] is True
        assert d["assumption"] == "A4_gradient_lipschitz"
        assert len(d["grid"]) == len(d["margins"])

    def test_parse_accepts_tags_names_and_enum(self):
        kind = AssumptionKind.A2_DEGENERATE_CONVEXITY
        assert AssumptionKind.parse(kind) is kind
        assert AssumptionKind.parse("a2") is kind
        assert AssumptionKind.parse("A2") is kind
        assert AssumptionKind.parse("degenerate_convexity") is kind
        assert AssumptionKind.parse("A2_degenerate_convexity") is kind
        with pytest.raises(ValueError, match="unknown assumption"):
            AssumptionKind.parse("A9")

    def test_grid_validation(self, tp_t32):
        with pytest.raises(ValueError, match="strictly increasing"):
            check_assumption(tp_t32, "A4", grid=[3.0, 2.0, 4.0])
        with pytest.raises(ValueError, match="bulk region"):
            check_assumption(tp_t32, "A4", grid=[0.5, 2.0, 4.0])
        with pytest.raises(ValueError, match="at least two"):
            check_assumption(tp_t32, "A4", grid=[2.0])

    def test_constant_range_validation(self, tp_t32):
        with pytest.raises(ValueError, match="alpha"):
            check_assumption(tp_t32, "A1", candidate_constants={"alpha": 0.5, "A": 1.0})
        with pytest.raises(ValueError, match="B"):
            check_assumption(tp_t32, "A1",
                             candidate_constants={"alpha": 2.0, "A": 1.0, "B": -1.0})
        with pytest.raises(ValueError, match="mu"):
            check_assumption(tp_t32, "A2", candidate_constants={"mu": -2.0})
        with pytest.raises(ValueError, match="L"):
            check_assumption(tp_t32, "A4", candidate_constants={"L": 0.0})

    def test_tail_validation(self, tp_t32):
        warm = make_example(ExampleKind.WARMUP, 3)
        tp_warm = TransformedPotential(warm.potential, warm.transform)
        with pytest.raises(ValueError, match="exponential-tail"):
            check_assumption(tp_warm, "A5")
        with pytest.raises(ValueError, match="m must"):
            check_assumption(tp_t32, "A5", candidate_constants={"m": -1.0})
        with pytest.raises(ValueError, match="alpha1"):
            check_assumption(tp_t32, "A5", candidate_constants={"alpha1": 1.5})
        with pytest.raises(ValueError, match="alpha1 > 0"):
            check_assumption(tp_t32, "A5", candidate_constants={"alpha1": 0.0})
        with pytest.raises(ValueError, match="thresholds >= e"):
            # knot 1.155 < e, so this grid is legal but below every threshold
            check_assumption(tp_t32, "A5", grid=[1.2, 1.5, 2.0])


class TestLsiEstimate:
    def test_quadratic_log_form_reproduces_closed_bound(self):
        """The transformed potential (d/2)r^2 + d log(1 + r^2/2) has the
        closed-form curvature bound 16/(7d); the profile estimate lands on
        it to a few parts in 1e5 (grid and Simpson error)."""
        entry = make_example(ExampleKind.EXAMPLE3, 4, vartheta=1.0)
        est = estimate_lsi(TransformedPotential(entry.potential, entry.transform))
        assert est.bound == pytest.approx(16.0 / 28.0, rel=2e-4)
        assert est.a0 == pytest.approx(4.0 / math.sqrt(28.0), rel=1e-6)
        assert est.residual < 1e-10

    def test_pure_gaussian_form(self):
        entry = make_example(ExampleKind.EXAMPLE6, 4, vartheta=1.0)
        est = estimate_lsi(TransformedPotential(entry.potential, entry.transform))
        assert est.bound == pytest.approx(2.0 / 4.0, rel=2e-4)

    def test_table_rows_structure(self):
        entry = make_example(ExampleKind.EXAMPLE3, 4, vartheta=1.0)
        est = estimate_lsi(TransformedPotential(entry.potential, entry.transform))
        rows = list(est.table_rows())
        assert len(rows) == est.radii.size
        r, lam1, lam2, bbar = rows[0]
        assert r == pytest.approx(est.radii[0])
        assert bbar <= min(lam1, lam2) + 1e-12
        # beta_bar(r) is the infimum over [r, r_max], a shrinking window,
        # hence nondecreasing in r
        bvals = [row[3] for row in rows]
        assert all(a <= b + 1e-12 for a, b in zip(bvals, bvals[1:]))

    def test_negative_curvature_is_not_applicable(self):
        entry = make_example(ExampleKind.MULTIVARIATE_T, 2, kappa=1.0, b=1.0)
        tp = TransformedPotential(entry.potential, entry.transform)
        with pytest.raises(NotApplicableError, match="nonpositive"):
            estimate_lsi(tp)

    def test_parameter_validation(self):
        entry = make_example(ExampleKind.EXAMPLE6, 2, vartheta=1.0)
        tp = TransformedPotential(entry.potential, entry.transform)
        with pytest.raises(ValueError, match="r_max"):
            estimate_lsi(tp, r_max=0.0)
        with pytest.raises(ValueError, match="grid_size"):
            estimate_lsi(tp, grid_size=8)


class TestClassifyRegime:
    def test_dissipativity_threshold_is_decay_exponent(self):
        """With alpha = beta and A = kappa*b*beta, the weak/super threshold
        A/(beta*b) collapses to the decay exponent kappa."""
        common = dict(dimension=3, b=0.75, alpha=2.0, A=3.0)
        sup = classify_regime("dissipativity", vartheta=1.0, **common)
        assert sup.regime is Regime.SUPER_POINCARE
        assert sup.rule_fired == "dissipativity:alpha=beta,vartheta<A/(beta*b)"
        weak = classify_regime("dissipativity", vartheta=2.5, **common)
        assert weak.regime is Regime.WEAK_POINCARE
        assert weak.witness is None
        boundary = classify_regime("dissipativity", vartheta=2.0, **common)
        assert boundary.regime is Regime.WEAK_POINCARE

    def test_dissipativity_witness_values(self):
        v = classify_regime("dissipativity", vartheta=1.0, dimension=3,
                            b=0.75, alpha=2.0, A=3.0)
        w = v.witness
        assert w["power_coefficient"] == pytest.approx(3.0 / (2.0 * 0.75), rel=1e-12)
        assert w["power_log_exponent"] == 0.0
        assert w["power_offset"] == -1.0
        assert w["log_exponent"] == 0.0

    def test_fast_growth_is_always_super(self):
        v = classify_regime("dissipativity", vartheta=9.0, dimension=2,
                            b=1.0, beta=1.5, alpha=2.0, A=1.0)
        assert v.regime is Regime.SUPER_POINCARE
        assert v.rule_fired == "dissipativity:alpha>beta"
        assert v.witness["power_coefficient"] == pytest.approx(0.5, rel=1e-12)
        assert v.witness["power_log_exponent"] == pytest.approx(2.0 / 1.5 - 1.0, rel=1e-9)

    def test_legacy_tags_alias_the_semantic_names(self):
        a = classify_regime("a3", vartheta=1.0, dimension=3, b=0.75, alpha=2.0, A=3.0)
        b = classify_regime("dissipativity", vartheta=1.0, dimension=3, b=0.75,
                            alpha=2.0, A=3.0)
        assert a.regime is b.regime and a.rule_fired == b.rule_fired
        c = classify_regime("a5", vartheta=0.5, dimension=2, b=1.0, beta=1.5,
                            mu=1.0, theta=0.5)
        d = classify_regime("degenerate_convexity", vartheta=0.5, dimension=2,
                            b=1.0, beta=1.5, mu=1.0, theta=0.5)
        assert c.regime is d.regime and c.rule_fired == d.rule_fired
        e = classify_regime("a1", vartheta=0.5, dimension=3, b=0.5, rho=1.0)
        f = classify_regime("strong_convexity", vartheta=0.5, dimension=3, b=0.5, rho=1.0)
        assert e.regime is f.regime and e.rule_fired == f.rule_fired

    def test_strong_convexity_case_table(self):
        # vartheta exactly rho/(2b): plain Poincare up to dimension two
        for d, expect in ((1, Regime.POINCARE), (2, Regime.POINCARE),
                          (3, Regime.WEAK_POINCARE)):
            v = classify_regime("strong", vartheta=1.0, dimension=d, b=0.5, rho=1.0)
            assert v.regime is expect, d
        below = classify_regime("strong", vartheta=0.5, dimension=3, b=0.5, rho=1.0)
        assert below.regime is Regime.SUPER_POINCARE
        assert below.witness["power_coefficient"] == pytest.approx(1.0, rel=1e-12)
        assert below.witness["log_exponent"] == pytest.approx(-0.5, rel=1e-12)
        above = classify_regime("strong", vartheta=2.0, dimension=3, b=0.5, rho=1.0)
        assert above.regime is Regime.WEAK_POINCARE
        sub2 = classify_regime("strong", vartheta=9.0, dimension=3, b=0.5,
                               beta=1.5, rho=1.0)
        assert sub2.regime is Regime.SUPER_POINCARE
        assert sub2.rule_fired == "strong_convexity:beta<2"

    def test_degenerate_convexity_case_table(self):
        small = classify_regime("degenerate", vartheta=1.0, dimension=2, b=1.0,
                                beta=1.5, mu=1.0, theta=0.25)
        assert small.regime is Regime.SUPER_POINCARE
        w = small.witness
        assert w["power_coefficient"] == pytest.approx(1.0 / (0.75 * 1.75), rel=1e-12)
        assert w["power_log_exponent"] == pytest.approx(1.75 / 1.5 - 1.0, rel=1e-9)
        assert w["power_offset"] == -2.0
        assert w["log_exponent"] == pytest.approx(-1.0 / 3.0, rel=1e-12)

        crit_weak = classify_regime("degenerate", vartheta=1.0, dimension=2, b=1.0,
                                    beta=1.5, mu=1.0, theta=0.5)
        assert crit_weak.regime is Regime.WEAK_POINCARE
        crit_super = classify_regime("degenerate", vartheta=0.5, dimension=2, b=1.0,
                                     beta=1.5, mu=1.0, theta=0.5)
        assert crit_super.regime is Regime.SUPER_POINCARE
        big = classify_regime("degenerate", vartheta=1.0, dimension=2, b=1.0,
                              beta=1.5, mu=1.0, theta=0.75)
        assert big.regime is Regime.WEAK_POINCARE

    def test_boundary_snapping_tolerance(self):
        """Thresholds are compared with a 1e-12 relative tolerance, so a
        parameter a dozen ulps off the boundary still takes the boundary
        rule, while 1e-9 away does not."""
        common = dict(dimension=3, b=0.75, alpha=2.0, A=3.0)
        at = classify_regime("dissipativity", vartheta=2.0, **common).regime
        snapped = classify_regime("dissipativity",
                                  vartheta=2.0 * (1.0 - 1e-13), **common).regime
        assert snapped is at is Regime.WEAK_POINCARE
        free = classify_regime("dissipativity",
                               vartheta=2.0 * (1.0 - 1e-9), **common).regime
        assert free is Regime.SUPER_POINCARE

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown classification basis"):
            classify_regime("a2", vartheta=1.0, dimension=2, b=1.0)
        with pytest.raises(ValueError, match="vartheta"):
            classify_regime("a3", vartheta=0.0, dimension=2, b=1.0, alpha=2.0, A=1.0)
        with pytest.raises(ValueError, match="dimension"):
            classify_regime("a3", vartheta=1.0, dimension=2.0, b=1.0, alpha=2.0, A=1.0)
        with pytest.raises(ValueError, match="b must"):
            classify_regime("a3", vartheta=1.0, dimension=2, b=0.0, alpha=2.0, A=1.0)
        with pytest.raises(ValueError, match="beta"):
            classify_regime("a3", vartheta=1.0, dimension=2, b=1.0, beta=1.0,
                            alpha=2.0, A=1.0)
        with pytest.raises(ValueError, match="needs alpha and A"):
            classify_regime("dissipativity", vartheta=1.0, dimension=2, b=1.0)
        with pytest.raises(ValueError, match="alpha >= beta"):
            classify_regime("dissipativity", vartheta=1.0, dimension=2, b=1.0,
                            beta=2.0, alpha=1.5, A=1.0)
        with pytest.raises(ValueError, match="needs mu and theta"):
            classify_regime("degenerate", vartheta=1.0, dimension=2, b=1.0)
        with pytest.raises(ValueError, match="needs rho"):
            classify_regime("strong", vartheta=1.0, dimension=2, b=1.0)

    def test_verdict_serialization(self):
        v = classify_regime("strong", vartheta=0.5, dimension=3, b=0.5, rho=1.0)
        d = v.to_dict()
        assert d["regime"] == "super_poincare"
        assert d["basis"] == "strong_convexity"
        assert d["parameters"]["rho"] == 1.0
        assert set(d["witness"]) == {"power_coefficient", "power_log_exponent",
                                     "power_offset", "log_exponent"}

    def test_regime_enum_values(self):
        assert Regime.SUPER_POINCARE.value == "super_poincare"
        assert Regime.POINCARE.value == "poincare"
        assert Regime.WEAK_POINCARE.value == "weak_poincare"


class TestEffectiveSampleSize:
    def test_independent_series_keeps_most_samples(self):
        rng = np.random.default_rng(0)
        n = 4096
        ess = effective_sample_size(rng.standard_normal(n))
        assert 0.85 * n < ess <= n

    def test_ar1_series_discounts_by_correlation_time(self):
        """An AR(1) chain with coefficient 0.9 has asymptotic ESS ratio
        (1-phi)/(1+phi) = 1/19; the estimate should land in that vicinity."""
        rng = np.random.default_rng(7)
        n = 65536
        series = lfilter([1.0], [1.0, -0.9], rng.standard_normal(n))
        ratio = effective_sample_size(series) / n
        assert 0.035 < ratio < 0.065

    def test_short_and_degenerate_series(self):
        assert effective_sample_size(np.arange(5.0)) == 5.0
        assert effective_sample_size(np.ones(100)) == 100.0
        assert effective_sample_size(np.zeros(64)) == 64.0


@pytest.fixture(scope="module")
def diag_setup():
    """A healthy two-chain run on the Gaussian-image target (decay 3)."""
    entry = make_example(ExampleKind.EXAMPLE6, 2, vartheta=3.0)
    tp = TransformedPotential(entry.potential, entry.transform)
    run = run_tula(tp, SamplerConfig(step_size=0.05, num_steps=4000,
                                     seed=11, num_chains=2))
    return entry.potential, run


class TestRadialDiagnostics:
    def test_healthy_chain_passes_everything(self, diag_setup):
        potential, run = diag_setup
        rep = radial_diagnostics(run, potential, burn_in=500)
        assert rep.all_passed
        assert rep.ks.passed and rep.ks.statistic < rep.ks.critical_1pct
        assert rep.ks.critical_1pct == pytest.approx(
            KS_CRITICAL_1PCT / math.sqrt(rep.ks.ess), rel=1e-12)
        assert rep.n_samples == 2 * (4001 - 500)
        assert rep.ks.ess < rep.n_samples  # positive correlation discounts

    def test_exact_tail_reference(self, diag_setup):
        """This target's transformed law is exactly N(0, I/2), so
        P(|x| > 5) = P(|y|^2 > 3 log 5) = exp(-3 log 5) = 1/125."""
        potential, run = diag_setup
        rep = radial_diagnostics(run, potential, burn_in=500)
        assert rep.tails[0].threshold == 5.0
        assert rep.tails[0].reference == pytest.approx(0.008, rel=1e-10)

    def test_default_moment_orders_respect_existence(self, diag_setup):
        potential, run = diag_setup
        rep = radial_diagnostics(run, potential, burn_in=500)
        assert [m.order for m in rep.moments] == [1.0]  # mean exists, checked

        entry = make_example(ExampleKind.EXAMPLE6, 2, vartheta=0.4)
        tp = TransformedPotential(entry.potential, entry.transform)
        run_heavy = run_tula(tp, SamplerConfig(step_size=0.05, num_steps=400, seed=3))
        rep_heavy = radial_diagnostics(run_heavy, entry.potential, burn_in=50)
        assert rep_heavy.moments == ()  # no finite mean, nothing to check
        with pytest.raises(UndefinedMomentError):
            radial_diagnostics(run_heavy, entry.potential, burn_in=50,
                               moment_orders=(1.5,))

    def test_burn_in_validation(self, diag_setup):
        potential, run = diag_setup
        with pytest.raises(ValueError, match="nonnegative"):
            radial_diagnostics(run, potential, burn_in=-1)
        with pytest.raises(ValueError, match="no recorded samples"):
            radial_diagnostics(run, potential, burn_in=10_000)

    def test_oracle_reuse_and_identity_check(self, diag_setup):
        potential, run = diag_setup
        oracle = RadialQuadrature(potential)
        a = radial_diagnostics(run, potential, burn_in=500, oracle=oracle)
        b = radial_diagnostics(run, potential, burn_in=500)
        assert a.ks.statistic == b.ks.statistic
        other = make_example(ExampleKind.EXAMPLE6, 2, vartheta=1.0).potential
        with pytest.raises(ValueError, match="different potential"):
            radial_diagnostics(run, other, burn_in=500, oracle=oracle)

    def test_report_serialization(self, diag_setup):
        potential, run = diag_setup
        d = radial_diagnostics(run, potential, burn_in=500).to_dict()
        assert d["pass"] is True
        assert set(d["ks"]) == {"statistic", "critical_1pct", "ess", "passed"}
        assert d["moments"][0]["within_3se"] is True
        assert d["truncated_mass"] < 1e-6


class TestKlQuadrature:
    def test_frozen_heavy_tail_pair(self):
        a = make_example(ExampleKind.MULTIVARIATE_T, 1, kappa=2.0).potential
        b = make_example(ExampleKind.MULTIVARIATE_T, 1, kappa=4.0).potential
        kl = kl_quadrature_1d(lambda x: -float(a.value(abs(x))),
                              lambda x: -float(b.value(abs(x))))
        assert kl == pytest.approx(KL_T1_2_VS_4, rel=1e-10)

    def test_shifted_gaussians(self):
        kl = kl_quadrature_1d(lambda x: -0.5 * x * x,
                              lambda x: -0.5 * (x - 1.0) ** 2)
        assert kl == pytest.approx(0.5, rel=1e-9)

    def test_identical_densities_give_zero(self):
        f = lambda x: -0.5 * x * x
        assert kl_quadrature_1d(f, f) == pytest.approx(0.0, abs=1e-12)

    def test_normalization_is_respected(self):
        """Unnormalized inputs shifted by constants give the same KL."""
        base = kl_quadrature_1d(lambda x: -0.5 * x * x,
                                lambda x: -0.25 * x * x)
        shifted = kl_quadrature_1d(lambda x: 3.0 - 0.5 * x * x,
                                   lambda x: -7.0 - 0.25 * x * x)
        assert shifted == pytest.approx(base, rel=1e-9)

    def test_divergent_inputs_raise(self):
        gauss = lambda x: -0.5 * x * x
        flat = lambda x: 0.0
        with pytest.raises(ValueError, match="quadrature failed"):
            kl_quadrature_1d(flat, gauss)
        with pytest.raises(ValueError, match="quadrature failed"):
            kl_quadrature_1d(gauss, flat)

    def test_domain_validation(self):
        f = lambda x: -0.5 * x * x
        with pytest.raises(ValueError, match="domain"):
            kl_quadrature_1d(f, f, domain=(2.0, 1.0))
