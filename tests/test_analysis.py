"""Quadrature oracle, assumption checks, LSI bound, classifier, diagnostics."""

import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import cumulative_simpson, cumulative_trapezoid
from scipy.optimize import brentq
from scipy.signal import lfilter

import tula.transform
from tula.analysis import (
    _GK_GAUSS,
    _GK_KRONROD,
    _GK_NODES,
    KS_CRITICAL_1PCT,
    AssumptionKind,
    NotApplicableError,
    RadialQuadrature,
    Regime,
    UndefinedMomentError,
    _cumulative_simpson,
    _cumulative_trapezoid,
    _integrate,
    check_assumption,
    classify_regime,
    effective_sample_size,
    estimate_lsi,
    kl_quadrature_1d,
    radial_diagnostics,
)
from tula.dynamics import TransformedPotential, transformed_value
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

# KL(example6 || example5) at d = 1, criterion 4's pair B, from their closed
# y-side densities exp(-y^2/2) and exp(-y^2/2 - log(1 + y^2/2)/4), same
# mpmath oracle
KL_EX6_VS_EX5_D1 = 0.0037814784568213561767523928783


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
        for bad in (-1.0, math.nan):
            with pytest.raises(ValueError, match="moment order must be nonnegative"):
                quad23.moment(bad)

    def test_nan_radius_gives_nan(self, quad23):
        """As in batch_cdf and every radial function, a NaN radius is NaN;
        it used to fail inside the integrator."""
        assert math.isnan(quad23.sf(math.nan))
        assert math.isnan(quad23.cdf(math.nan))
        assert math.isnan(quad23.batch_cdf(np.array([math.nan]))[0])

    def test_batch_cdf_tracks_scalar(self, quad23):
        radii = np.geomspace(0.05, 50.0, 200)
        ref = stats.f.cdf(3.0 * radii**2 / 2.0, 2, 3)
        np.testing.assert_allclose(quad23.batch_cdf(radii), ref, atol=2e-5)

    def test_truncated_mass_negligible(self, quad23):
        assert 0.0 < quad23.truncated_mass < 1e-8

    @pytest.mark.parametrize("r_max", [5e-3, 10.0, 30.0, 30.0 * (1.0 - 1e-10),
                                       30.0 * (1.0 + 1e-10), 1e3, 1e6])
    def test_table_grid_is_np_unique_of_its_pieces(self, t23, r_max):
        """The CDF table's grid is bitwise the sorted, de-duplicated union
        that np.unique makes; at r_max <= 30 the geometric piece repeats
        r_max 2048 times, so a plain concatenation would not do."""
        oracle = RadialQuadrature(t23.potential, r_max=r_max)
        expected = np.unique(np.concatenate([
            np.linspace(0.0, min(30.0, r_max), 6001),
            np.geomspace(min(30.0, r_max), r_max, 2048),
        ]))
        assert oracle._table_r.tobytes() == expected.tobytes()

    def test_r_max_validation(self, t23):
        with pytest.raises(ValueError, match="r_max"):
            RadialQuadrature(t23.potential, r_max=0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="r_max must be positive and finite"):
                RadialQuadrature(t23.potential, r_max=bad)


# The range of every constant the checks and the case tables take, from the
# paper's assumptions: name, values just outside it, and its included ends.
CONSTANT_RANGES = [
    ("alpha", (math.nextafter(1.0, 0.0), math.nextafter(2.0, 3.0)), (1.0, 2.0)),
    ("A", (0.0,), ()),
    ("B", (-5e-324,), (0.0,)),
    ("mu", (0.0,), ()),
    ("theta", (-5e-324,), (0.0,)),
    ("rho", (0.0,), ()),
    ("L", (0.0,), ()),
    ("m", (-5e-324,), (0.0,)),
    ("alpha1", (-5e-324, math.nextafter(1.0, 2.0)), (0.0, 1.0)),
    ("C_tail", (0.0,), ()),
    ("vartheta", (0.0,), ()),
    ("b", (0.0,), ()),
    ("beta", (1.0, math.nextafter(2.0, 3.0)), (2.0,)),
]
CASE_TABLE_ONLY = ("vartheta", "b", "beta")
CHECK_RANGES = [r for r in CONSTANT_RANGES if r[0] not in CASE_TABLE_ONLY]


def _out_of_range(ranges):
    return [(name, bad) for name, outside, _ in ranges
            for bad in (math.nan, math.inf, -math.inf, *outside)]


class TestConstantRanges:
    """Every constant is checked against its range on entry, so NaN, +-inf
    and values just outside it raise by name instead of giving a report:
    before, L, B or C_tail = inf passed its check vacuously, A3 took
    rho = -1, and classify_regime took rho = NaN."""

    @pytest.mark.parametrize("name, bad", _out_of_range(CHECK_RANGES))
    @pytest.mark.parametrize("kind", ["A1", "A2", "A3", "A4", "A5"])
    def test_check_rejects_out_of_range(self, tp_t32, kind, name, bad):
        with pytest.raises(ValueError, match=rf"^{name} must lie in "):
            check_assumption(tp_t32, kind, candidate_constants={name: bad})

    @pytest.mark.parametrize("name, end", [(name, end) for name, _, ends in CHECK_RANGES
                                           for end in ends])
    def test_check_accepts_included_ends(self, tp_t32, name, end):
        kind = {"alpha": "A1", "B": "A1", "theta": "A2"}.get(name, "A5")
        cand = {name: end, **({"C_tail": 1.0} if name == "alpha1" else {})}
        rep = check_assumption(tp_t32, kind, grid=np.geomspace(3.0, 50.0, 16),
                               candidate_constants=cand)
        assert rep.fitted_constants[name] == end

    @pytest.mark.parametrize("name", ["Lip", "c_tail", "beta", "vartheta"])
    def test_check_rejects_unknown_names(self, tp_t32, name):
        with pytest.raises(ValueError, match=f"unknown candidate constant '{name}'"):
            check_assumption(tp_t32, "A4", candidate_constants={"L": 6.0, name: 1.0})

    # a valid call of each basis, and the basis whose case table takes a constant
    BASES = {
        "dissipativity": dict(vartheta=1.0, dimension=3, b=0.75, alpha=2.0, A=3.0, B=0.0),
        "degenerate": dict(vartheta=1.0, dimension=2, b=1.0, beta=1.5, mu=1.0, theta=0.5),
        "strong": dict(vartheta=0.5, dimension=3, b=0.5, rho=1.0),
    }
    BASIS_OF = {"alpha": "dissipativity", "A": "dissipativity", "B": "dissipativity",
                "mu": "degenerate", "theta": "degenerate", "rho": "strong"}

    @pytest.mark.parametrize("name, bad", _out_of_range(
        [r for r in CONSTANT_RANGES if r[0] not in ("m", "alpha1", "C_tail", "L")]))
    def test_classify_rejects_out_of_range(self, name, bad):
        basis = self.BASIS_OF.get(name, "strong")
        with pytest.raises(ValueError, match=rf"^{name} must lie in "):
            classify_regime(basis, **{**self.BASES[basis], name: bad})
        other = "strong" if basis != "strong" else "dissipativity"
        with pytest.raises(ValueError, match=rf"^{name} must lie in "):
            classify_regime(other, **{**self.BASES[other], name: bad})

    @pytest.mark.parametrize("name, end", [("alpha", 2.0), ("B", 0.0), ("theta", 0.0),
                                           ("beta", 2.0)])
    def test_classify_accepts_included_ends(self, name, end):
        basis = self.BASIS_OF.get(name, "strong")
        verdict = classify_regime(basis, **{**self.BASES[basis], name: end})
        assert verdict.parameters[name] == end


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
        for bad in (math.nan, math.inf):  # NaN also defeats the increasing test
            with pytest.raises(ValueError, match="grid radii must be finite"):
                check_assumption(tp_t32, "A1", grid=[bad, 5.0, 10.0])
            with pytest.raises(ValueError, match="grid radii must be finite"):
                check_assumption(tp_t32, "A1", grid=[2.0, 5.0, bad])

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
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="r_max must be positive and finite"):
                estimate_lsi(tp, r_max=bad)
        with pytest.raises(ValueError, match="grid_size"):
            estimate_lsi(tp, grid_size=8)

    @pytest.mark.parametrize("grid_size", [100.5, 1024.0, np.float64(64.0), True, "64"])
    def test_grid_size_that_is_not_an_integer_names_it(self, grid_size):
        """estimate_lsi(tp, grid_size=100.5) failed inside numpy with a TypeError."""
        entry = make_example(ExampleKind.EXAMPLE6, 2)
        tp = TransformedPotential(entry.potential, entry.transform)
        with pytest.raises(ValueError, match="grid_size must be an integer"):
            estimate_lsi(tp, grid_size=grid_size)


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
        with pytest.raises(ValueError, match="dimension"):  # was a verdict for d = 1
            classify_regime("strong", vartheta=0.5, dimension=True, b=0.5, rho=1.0)
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

    @pytest.mark.parametrize("basis, kwargs", [
        ("strong", {"b": 1e300, "beta": 1.25, "rho": 1.0}),  # b ** (2 / beta) overflowed
        ("strong", {"b": 1e-300, "beta": 1.25, "rho": 1.0}),  # and underflowed to 0
        ("dissipativity", {"b": 1e-300, "beta": 1.25, "alpha": 2.0, "A": 0.5}),
        ("degenerate", {"b": 1e-300, "beta": 1.25, "mu": 1.0, "theta": 0.25}),
    ])
    def test_witness_out_of_float_range_names_the_inputs(self, basis, kwargs):
        """A super-Poincare witness beyond float range raised a bare
        OverflowError or ZeroDivisionError naming nothing."""
        with pytest.raises(ValueError, match="witness leaves float range at vartheta=1.0, "
                                             "dimension=2, b=1e[-+]300, beta=1.25"):
            classify_regime(basis, vartheta=1.0, dimension=2, **kwargs)

    def test_witness_exactly_on_super_poincare_and_rule_under_its_basis(self):
        """Every verdict is built at one exit that attaches the witness when,
        and only when, the regime is super-Poincare, and prefixes the rule
        with the basis.  Checked on every basis spelling with vartheta on
        each threshold and 1e-13 relative either side of it, on the case
        boundaries theta = 2 - beta, alpha = beta and beta = 2."""
        spellings = {"dissipativity": ("a3", "dissipativity"),
                     "degenerate_convexity": ("a5", "degenerate_convexity", "degenerate"),
                     "strong_convexity": ("a1", "strong_convexity", "strong")}
        grid = []
        for d, b, beta in itertools.product((1, 2, 3), (0.5, 2.0), (1.5, 2.0)):
            common = {"dimension": d, "b": b, "beta": beta}
            grid += [("dissipativity", {**common, "alpha": alpha, "A": A, "B": 1.0},
                      A / (beta * b)) for alpha in (beta, 2.0) for A in (0.5, 3.0)]
            grid += [("degenerate_convexity", {**common, "mu": mu, "theta": theta},
                      mu / (beta * b)) for mu in (0.5, 3.0) for theta in (2.0 - beta, 0.25)]
            grid += [("strong_convexity", {**common, "rho": rho}, rho / (2.0 * b))
                     for rho in (0.5, 3.0)]
        regimes, rules = set(), set()
        for key, kwargs, threshold in grid:
            for basis in spellings[key]:
                for rel in (0.0, 1e-13, -1e-13, -0.5, 1.0):
                    v = classify_regime(basis, vartheta=threshold * (1.0 + rel), **kwargs)
                    assert v.basis == key and v.rule_fired.startswith(key + ":")
                    assert (v.witness is not None) == (v.regime is Regime.SUPER_POINCARE)
                    if v.witness is not None:
                        assert list(v.witness) == ["power_coefficient", "power_log_exponent",
                                                   "power_offset", "log_exponent"]
                    regimes.add(v.regime)
                    rules.add(v.rule_fired)
        assert regimes == set(Regime)
        assert len(rules) == 12  # the grid reaches every rule of the three tables

    def test_verdict_serialization(self):
        v = classify_regime("strong", vartheta=0.5, dimension=3, b=0.5, rho=1.0)
        d = v.to_dict()
        assert d["regime"] == "super_poincare"
        assert d["basis"] == "strong_convexity"
        assert d["parameters"]["rho"] == 1.0
        assert set(d["witness"]) == {"power_coefficient", "power_log_exponent",
                                     "power_offset", "log_exponent"}

    def test_verdict_json_keeps_its_key_order(self):
        """`tula classify` prints this unsorted, so the key order is output."""
        v = classify_regime("dissipativity", vartheta=1.0, dimension=2, b=0.5, alpha=2.0, A=3.0)
        assert json.dumps(v.to_dict()) == (
            '{"regime": "super_poincare", '
            '"rule_fired": "dissipativity:alpha=beta,vartheta<A/(beta*b)", '
            '"witness": {"power_coefficient": 3.0, "power_log_exponent": 0.0, '
            '"power_offset": -1.0, "log_exponent": -0.0}, "basis": "dissipativity", '
            '"parameters": {"vartheta": 1.0, "dimension": 2, "b": 0.5, "beta": 2.0, '
            '"alpha": 2.0, "A": 3.0, "B": 0.0}}')

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

    @pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan, math.inf])
    def test_threshold_must_be_a_radius(self, diag_setup, bad):
        potential, run = diag_setup
        with pytest.raises(ValueError, match="thresholds"):
            radial_diagnostics(run, potential, burn_in=500, thresholds=(5.0, bad))

    def test_burn_in_validation(self, diag_setup):
        potential, run = diag_setup
        with pytest.raises(ValueError, match="nonnegative"):
            radial_diagnostics(run, potential, burn_in=-1)
        with pytest.raises(ValueError, match="no recorded samples"):
            radial_diagnostics(run, potential, burn_in=10_000)

    @pytest.mark.parametrize("bad", [1.5, True, np.float64(2.0)])
    def test_burn_in_that_is_not_an_integer_names_it(self, diag_setup, bad):
        """1.5 died in a slice TypeError, and True ran as a burn-in of 1."""
        potential, run = diag_setup
        with pytest.raises(ValueError, match="burn_in must be a nonnegative integer"):
            radial_diagnostics(run, potential, burn_in=bad)
        assert radial_diagnostics(run, potential, burn_in=np.int64(500)).n_samples == 7002

    def test_oracle_reuse_and_identity_check(self, diag_setup):
        potential, run = diag_setup
        oracle = RadialQuadrature(potential)
        a = radial_diagnostics(run, potential, burn_in=500, oracle=oracle)
        b = radial_diagnostics(run, potential, burn_in=500)
        assert a.ks.statistic == b.ks.statistic
        other = make_example(ExampleKind.EXAMPLE6, 2, vartheta=1.0).potential
        with pytest.raises(ValueError, match="different potential"):
            radial_diagnostics(run, other, burn_in=500, oracle=oracle)

    def test_leaves_numpy_ma_unloaded(self):
        """np.unique imports numpy.ma on its first call, 13-15 ms and about
        1 MB in a fresh process; nothing in a sample's diagnostics needs it."""
        src = Path(tula.transform.__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
        code = (
            "import sys\n"
            "from tula import *\n"
            "entry = parse_target_name('t2_3')\n"
            "tp = TransformedPotential(entry.potential, entry.transform)\n"
            "run = run_tula(tp, SamplerConfig(step_size=0.005, num_steps=100, num_chains=2))\n"
            "radial_diagnostics(run, entry.potential, burn_in=50)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, check=True, timeout=60)
        assert proc.stdout.strip() == "False"

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
        kl = kl_quadrature_1d(lambda x: -a.value(np.abs(x)),
                              lambda x: -b.value(np.abs(x)))
        assert kl == pytest.approx(KL_T1_2_VS_4, rel=1e-10)

    def test_frozen_benchmark_pair_on_both_sides(self):
        """Pair B of criterion 4 against its oracle: the y side to 1e-12
        relative, the x side to the divergence integral's epsabs."""
        b6 = make_example(ExampleKind.EXAMPLE6, 1, vartheta=2.0)
        b5 = make_example(ExampleKind.EXAMPLE5, 1, vartheta=2.0)
        tp6 = TransformedPotential(b6.potential, b6.transform)
        tp5 = TransformedPotential(b5.potential, b5.transform)
        kl_y = kl_quadrature_1d(lambda y: -transformed_value(tp6, y[:, None]),
                                lambda y: -transformed_value(tp5, y[:, None]))
        assert kl_y == pytest.approx(KL_EX6_VS_EX5_D1, rel=1e-12, abs=0.0)
        kl_x = kl_quadrature_1d(lambda x: -b6.potential.value(np.abs(x)),
                                lambda x: -b5.potential.value(np.abs(x)))
        assert kl_x == pytest.approx(KL_EX6_VS_EX5_D1, rel=0.0, abs=1e-10)

    def test_callables_see_only_arrays(self):
        """Each log-density is called with whole arrays of points, a few
        dozen times, never once per node."""
        calls = []

        def counted(log_density):
            def wrapped(x):
                calls.append(x)
                return log_density(x)
            return wrapped

        kl = kl_quadrature_1d(counted(lambda x: -0.5 * x * x),
                              counted(lambda x: -0.5 * (x - 1.0) ** 2))
        assert kl == pytest.approx(0.5, rel=1e-9)
        assert all(isinstance(x, np.ndarray) and x.ndim == 1 for x in calls)
        assert len(calls) < 100

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
        flat = lambda x: np.zeros_like(x)
        with pytest.raises(ValueError, match="quadrature failed"):
            kl_quadrature_1d(flat, gauss)
        with pytest.raises(ValueError, match="quadrature failed"):
            kl_quadrature_1d(gauss, flat)

    @pytest.mark.parametrize("m", [30.0, 90.0, -90.0])
    def test_mass_away_from_zero(self, m):
        """Unit Gaussians at m and m + 1 are 0.5 apart wherever m lies in the
        scan window; the first panel of a half-line has no node between 38
        and 233, so each integral is split at the scanned mode."""
        kl = kl_quadrature_1d(lambda x: -0.5 * (x - m) ** 2,
                              lambda x: -0.5 * (x - m - 1.0) ** 2)
        assert kl == pytest.approx(0.5, rel=1e-12, abs=0.0)

    def test_mass_beyond_the_scan_window_is_refused_by_name(self):
        with pytest.raises(ValueError, match="still rising.*scan window"):
            kl_quadrature_1d(lambda x: -0.5 * (x - 300.0) ** 2,
                             lambda x: -0.5 * (x - 301.0) ** 2)
        with pytest.raises(ValueError, match="still rising.*scan window"):
            kl_quadrature_1d(lambda x: -0.5 * x * x, lambda x: -0.5 * (x + 300.0) ** 2)
        kl = kl_quadrature_1d(lambda x: -0.5 * (x - 300.0) ** 2,
                              lambda x: -0.5 * (x - 301.0) ** 2, domain=(200.0, math.inf))
        assert kl == pytest.approx(0.5, rel=1e-12, abs=0.0)

    def test_domain_validation(self):
        f = lambda x: -0.5 * x * x
        with pytest.raises(ValueError, match="domain"):
            kl_quadrature_1d(f, f, domain=(2.0, 1.0))

    def test_a_scalar_log_density_is_rejected_by_name(self):
        gauss = lambda x: -0.5 * x * x
        with pytest.raises(ValueError, match="array of points to an array"):
            kl_quadrature_1d(lambda x: 0.0, gauss)
        with pytest.raises(ValueError, match="array of points to an array"):
            kl_quadrature_1d(gauss, lambda x: float(-0.5 * x[0] ** 2))


class TestQuadratureNumerics:
    """The hand-written numerics behind the oracles, pinned against exact
    values and against scipy as an independent reference."""

    def test_sf_past_r_max_is_relatively_accurate(self, quad23):
        """Tail-only integrals are purely relative, so sf keeps 11 digits of
        P(|x| >= r) = (1 + r^2)^(-3/2) however small it gets."""
        for r in (2e3, 1e4, 1e5, 1e7):
            assert quad23.sf(r) == pytest.approx((1.0 + r * r) ** -1.5, rel=1e-11, abs=0.0)

    def test_zoo_oracle_inverts_g_once_per_level(self, monkeypatch):
        """The integrand is vectorised, so a zoo oracle runs the Newton
        inversion of g once per refinement level, not once per node."""
        calls = []
        invert = tula.transform._invert_bulk

        def counted(*args):
            calls.append(args)
            return invert(*args)

        monkeypatch.setattr(tula.transform, "_invert_bulk", counted)
        entry = make_example(ExampleKind.EXAMPLE3, 4, vartheta=1.0)
        oracle = RadialQuadrature(entry.potential)
        assert len(calls) <= 16
        calls.clear()
        oracle.sf(1.0)
        assert len(calls) <= 8

    def test_gauss_kronrod_weights_are_exact_to_their_degree(self):
        """The 15-point Kronrod rule integrates x^k exactly on [-1, 1] for
        k <= 22 and the 7-point Gauss rule for k <= 13, to a few ulp; each
        fails one even degree further on."""
        eps = np.finfo(float).eps
        for weights, degree in ((_GK_KRONROD, 22), (_GK_GAUSS, 13)):
            for k in range(degree + 1):
                exact = 0.0 if k % 2 else 2.0 / (k + 1)
                assert abs(_GK_NODES ** k @ weights - exact) <= 4 * eps, (degree, k)
            k = degree + 2 - degree % 2
            assert abs(_GK_NODES ** k @ weights - 2.0 / (k + 1)) > 1e-9, (degree, k)
        nodes, weights = np.polynomial.legendre.leggauss(7)
        np.testing.assert_allclose(_GK_NODES[1::2], nodes, rtol=0, atol=2 * eps)
        np.testing.assert_allclose(_GK_GAUSS[1::2], weights, rtol=0, atol=2 * eps)

    def test_integrator_on_the_half_line_and_past_its_limit(self):
        integral = _integrate(lambda x: np.exp(-x), 0.0, math.inf, epsabs=0.0)
        assert integral == pytest.approx(1.0, rel=1e-13, abs=0.0)
        integral = _integrate(np.exp, -math.inf, 0.0, epsabs=0.0)
        assert integral == pytest.approx(1.0, rel=1e-13, abs=0.0)
        integral = _integrate(lambda x: np.exp(-x * x), -math.inf, math.inf, epsabs=0.0)
        assert integral == pytest.approx(math.sqrt(math.pi), rel=1e-13, abs=0.0)
        with pytest.raises(ValueError, match="quadrature failed to converge"):
            _integrate(lambda x: 1.0 / x, 0.0, 1.0)

    def test_integrator_splits_an_infinite_interval_at_its_points(self):
        """A peak between 38 and 233 past the split reads as zero; a point
        at the peak splits every interval with an infinite end there."""
        peak = lambda x: np.exp(-0.5 * (x - 100.0) ** 2)
        root = math.sqrt(2.0 * math.pi)
        assert _integrate(peak, -math.inf, math.inf, epsabs=0.0) < 1e-100
        for a, b in ((-math.inf, math.inf), (0.0, math.inf), (-math.inf, 200.0)):
            integral = _integrate(peak, a, b, points=(100.0,), epsabs=0.0)
            assert integral == pytest.approx(root, rel=1e-13, abs=0.0), (a, b)
        integral = _integrate(peak, -math.inf, math.inf, points=(50.0, 100.0, 150.0), epsabs=0.0)
        assert integral == pytest.approx(root, rel=1e-13, abs=0.0)

    def test_cumulative_rules_match_scipy_bitwise(self):
        rng = np.random.default_rng(7)
        for n in (3, 4, 17, 1024, 1025):
            y = rng.standard_normal(n)
            x = np.cumsum(rng.uniform(0.1, 1.0, n))
            dx = float(rng.uniform(0.01, 1.0))
            assert np.array_equal(_cumulative_trapezoid(y, x),
                                  cumulative_trapezoid(y, x, initial=0.0)), n
            assert np.array_equal(_cumulative_simpson(y, dx),
                                  cumulative_simpson(y, dx=dx, initial=0.0)), n

    def test_lsi_bisection_matches_brentq(self):
        """a0 is the balance point of the example3 d = 4 profile to 1e-14,
        against brentq on the same balance function."""
        entry = make_example(ExampleKind.EXAMPLE3, 4, vartheta=1.0)
        est = estimate_lsi(TransformedPotential(entry.potential, entry.transform))
        step = est.radii[0]
        integral = est.beta_bar[0] * step + cumulative_simpson(est.beta_bar, dx=step, initial=0.0)
        balance = lambda a: float(np.interp(a, est.radii, integral)) - 2.0 / a
        root = brentq(balance, est.radii[0], est.radii[-1], xtol=1e-14, rtol=8.9e-16)
        assert abs(est.a0 - root) <= 1e-14

    def test_failures_raise_without_warnings(self):
        """A divergent integral, or an integrand that is infinite at a node,
        ends in the ValueError alone."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="quadrature failed"):
                kl_quadrature_1d(lambda x: np.zeros_like(x), lambda x: -0.5 * x * x)
            with pytest.raises(ValueError, match="quadrature failed.*not finite"):
                _integrate(lambda x: 1.0 / (x - 0.5), 0.0, 1.0)
