"""The benchmark's workloads: set-up, one timed pass, and the oracles.

A workload object is built once per process (that build is part of
set-up), then `run_pass(seed, tracer)` is called repeatedly.  Each pass
returns its wall time (library calls only) and whatever the oracles need;
`check_pass` and `check_run` turn those into `Check` rows outside the timed
region.

Statistical gates are set at a per-check false-alarm level of 1e-5 rather
than the usual 1% or three standard errors: an evaluation of the benchmark
makes on the order of a thousand such checks on correct code, and a run
with any failed check is rejected, so the family-wise false-alarm rate
must stay near 1%.  The conventional verdicts are still reported.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

import tula.analysis
import tula.cli
import tula.sampler
from tula.dynamics import TransformedPotential
from tula.targets import ExampleKind, make_example, parse_target_name

# two-sided standard normal quantile at 1e-5, and the asymptotic
# Kolmogorov coefficient sqrt(log(2 / alpha) / 2) at the same alpha
Z_GATE = 4.4172
KS_GATE = math.sqrt(math.log(2.0 / 1e-5) / 2.0)
KS_1PCT = 1.6276236307187293

REFERENCE = Path(__file__).with_name("reference.json")
# radii in the audit's assumption grid; reference.json was frozen with it
GRID_POINTS = 64


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


def effective_sample_size(series: np.ndarray) -> float:
    """Geyer's initial-positive-sequence ESS, written independently of the
    library's estimator so the oracles do not lean on code under test."""
    x = np.asarray(series, dtype=float) - np.mean(series)
    n = x.size
    if n < 8 or not np.any(x):
        return float(n)
    size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(x, size)
    acov = np.fft.irfft(spec * np.conj(spec), size)[:n] / n
    rho = acov / acov[0]
    tau = -1.0
    for k in range(0, n - 1, 2):
        pair = rho[k] + rho[k + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
    return float(min(n, n / max(tau, 1.0 / n)))


def _z(empirical: float, reference: float, se: float) -> float:
    return (empirical - reference) / se if se > 0.0 else math.inf


# Closed forms for the radius of the t law with d=2, kappa=3, whose radial
# density is 3 r (1 + r^2)^(-5/2): E|x| = 1, E|x|^2 = 2, so Var|x| = 1, and
# P(|x| > T) = (1 + T^2)^(-3/2).
MEAN_REF, VAR_REF = 1.0, 1.0


class SampleCli:
    """`tula sample` in-process on the multivariate t, d=2, kappa=3."""

    name = "t2_3-sample-cli"
    # worker.LAYERS labels a traced pass must record time in
    layers = ("cli.sample_self", "sampler.run_tula", "dynamics.transformed_gradient",
              "transform.h_forward", "analysis.radial_diagnostics", "sampler.write_chain_csv",
              "sampler.run_summary", "analysis.quadrature_build", "analysis.sf")
    chains = 2
    threshold = 5.0

    def __init__(self, scratch: Path, tiny: bool) -> None:
        self.entry = parse_target_name("t2_3")
        self.tp = TransformedPotential(self.entry.potential, self.entry.transform)
        self.steps, self.burn_in = (400, 100) if tiny else (4000, 500)
        self.tail_ref = (1.0 + self.threshold ** 2) ** -1.5
        self.scratch = scratch

    def run_pass(self, seed: int, tracer) -> dict:
        out = Path(tempfile.mkdtemp(prefix="sample-", dir=self.scratch))
        argv = [
            "sample", "--target", "t2_3", "--gamma", "0.005", "--steps", str(self.steps),
            "--chains", str(self.chains), "--thin", "1", "--burn-in", str(self.burn_in),
            "--threshold", str(self.threshold), "--seed", str(seed), "--out", str(out),
        ]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            start = time.perf_counter()
            with tracer.span("cli.main"):
                rc = tula.cli.main(argv)
            wall = time.perf_counter() - start
        return {"wall_s": wall, "rc": rc, "out": out, "chain_steps": self.chains * self.steps}

    def check_pass(self, res: dict) -> tuple[list[Check], dict]:
        out = res["out"]
        try:
            checks = [Check("exit_code", res["rc"] == 0, f"rc={res['rc']}")]
            summary = json.loads((out / "summary.json").read_text())
            for i, chain in enumerate(summary["chains"]):
                checks.append(Check(f"chain{i}_finite", not chain["diverged"], ""))
            lines = (out / "chain.csv").read_text(encoding="utf-8").splitlines()
            want = 2 * self.chains * (self.steps + 1) + 1
            checks.append(Check("csv_rows", len(lines) == want, f"{len(lines)} rows, want {want}"))
            facts = {"csv_bytes": (out / "chain.csv").stat().st_size}
            diag = json.loads((out / "diagnostics.json").read_text())
            # kept on the pass result for the pooled gates of check_run
            res["x_radii"] = self._x_radii(lines)
            checks += self._diagnostics_checks(res["x_radii"], diag)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return checks, facts

    def _x_radii(self, lines: list[str]) -> list[np.ndarray]:
        """Post-burn-in |x| per chain, from the rows of chain.csv."""
        per_chain: list[list[list[float]]] = [[] for _ in range(self.chains)]
        for line in lines[1:]:
            chain, _, space, *coords = line.split(",")
            if space == "x":
                per_chain[int(chain)].append([float(c) for c in coords])
        return [np.linalg.norm(np.array(rows[self.burn_in:]), axis=1) for rows in per_chain]

    def _diagnostics_checks(self, radii: list[np.ndarray], diag: dict) -> list[Check]:
        """diagnostics.json against chain.csv and the closed forms."""
        pooled = np.concatenate(radii)
        mean, tail = diag["moments"][0], diag["tails"][0]
        csv_mean, csv_tail = float(pooled.mean()), float(np.mean(pooled > self.threshold))
        agree = (math.isclose(mean["empirical"], csv_mean, rel_tol=1e-9)
                 and math.isclose(tail["empirical"], csv_tail, rel_tol=1e-9))
        ref_ok = (abs(mean["reference"] - MEAN_REF) <= 1e-6 * MEAN_REF
                  and abs(tail["reference"] - self.tail_ref) <= 1e-6 * self.tail_ref)
        return [
            Check("diagnostics_match_csv", agree,
                  f"E|x| {mean['empirical']!r} vs {csv_mean!r}, P(|x|>{self.threshold:g}) "
                  f"{tail['empirical']!r} vs {csv_tail!r}; library 3se flags "
                  f"{mean['within_3se']}, {tail['within_3se']}"),
            Check("quadrature_references", ref_ok,
                  f"E|x| {mean['reference']!r}, P(|x|>{self.threshold:g}) {tail['reference']!r}"),
        ]

    def check_run(self, results: list[dict]) -> list[Check]:
        # E|x| and P(|x| > T), pooled over the run's passes (each pass's
        # values are the ones its diagnostics.json reports, see above),
        # against the closed forms.  The standard error is computed here,
        # with this module's ESS, never read from the library: the larger
        # of the run's own (sample deviation over root ESS) and the one from
        # the reference variances.  The run's own collapses when the chains
        # see few excursions, the reference one is too small after a far
        # excursion.  Gated per pass (ESS about 100) the z-gate misfired on
        # 1 of 81 correct passes, since the estimates are far from normal at
        # that size; pooled over the 10-16 passes of a run it held in every
        # run tried.
        radii = [r for res in results for r in res["x_radii"]]
        indicators = [(r > self.threshold).astype(float) for r in radii]
        ess = max(sum(effective_sample_size(r) for r in radii), 1.0)
        ess_tail = max(sum(effective_sample_size(i) for i in indicators), 1.0)
        pooled, pooled_ind = np.concatenate(radii), np.concatenate(indicators)
        se_mean = max(pooled.std(ddof=1) / math.sqrt(ess), math.sqrt(VAR_REF / ess))
        se_tail = max(pooled_ind.std(ddof=1) / math.sqrt(ess_tail),
                      math.sqrt(self.tail_ref * (1 - self.tail_ref) / ess))
        z_mean = _z(float(pooled.mean()), MEAN_REF, se_mean)
        z_tail = _z(float(pooled_ind.mean()), self.tail_ref, se_tail)
        return [
            Check("mean_radius", abs(z_mean) <= Z_GATE,
                  f"z={z_mean:.3f}, se {se_mean:.4g}, ESS {ess:.0f}, {len(results)} passes"),
            Check("tail_probability", abs(z_tail) <= Z_GATE,
                  f"z={z_tail:.3f}, se {se_tail:.4g}, ESS {ess_tail:.0f}, {len(results)} passes"),
        ]


class GaussChains:
    """`run_tula` with 16 chains on example6, d=2, then `radial_diagnostics`."""

    name = "gauss6-d2-chains16"
    layers = ("sampler.run_tula", "dynamics.transformed_gradient", "transform.h_forward",
              "analysis.radial_diagnostics", "analysis.quadrature_build", "analysis.sf")
    chains = 16
    gamma = 0.05

    def __init__(self, scratch: Path, tiny: bool) -> None:
        self.entry = make_example(ExampleKind.EXAMPLE6, 2, vartheta=1.0)
        self.tp = TransformedPotential(self.entry.potential, self.entry.transform)
        self.steps, self.burn_in = (60, 20) if tiny else (300, 100)

    def run_pass(self, seed: int, tracer) -> dict:
        cfg = tula.sampler.SamplerConfig(
            step_size=self.gamma, num_steps=self.steps, seed=seed, num_chains=self.chains
        )
        start = time.perf_counter()
        with tracer.span("sampler.run_tula"):
            run = tula.sampler.run_tula(self.tp, cfg)
        run_end = time.perf_counter()
        with tracer.span("analysis.radial_diagnostics"):
            report = tula.analysis.radial_diagnostics(run, self.entry.potential, self.burn_in)
        wall = time.perf_counter() - start
        tracer.record_run(run)
        return {
            "wall_s": wall,
            "run_tula_s": run_end - start,
            "run_tula_window": [start, run_end],
            "chain_steps": self.chains * self.steps,
            "sq_radii": [np.sum(y[self.burn_in:] ** 2, axis=1) for y in run.ys],
            "diverged": run.diverged,
            "x_ks": report.ks,
        }

    def check_pass(self, res: dict) -> tuple[list[Check], dict]:
        checks = [Check(f"chain{i}_finite", not flag, "") for i, flag in enumerate(res["diverged"])]
        ks = res["x_ks"]
        facts = {"x_ks_statistic": ks.statistic, "x_ks_critical_1pct": ks.critical_1pct}
        return checks, facts

    def check_run(self, results: list[dict]) -> list[Check]:
        # On the quadratic potential (d/2)|y|^2 the Euler chain's stationary
        # law is exactly N(0, s2 I) with s2 = (1/d)(1 - gamma d/2)^-1, so
        # |y|^2 / s2 is chi-square with d degrees of freedom.
        d = self.tp.dimension
        s2 = 1.0 / (d * (1.0 - self.gamma * d / 2.0))
        series = [r / s2 for res in results for r in res["sq_radii"]]
        values = np.sort(np.concatenate(series))
        n = values.size
        # chi-square CDF with d = 2 is 1 - exp(-x / 2)
        cdf = -np.expm1(-values / 2.0)
        stat = float(max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n)))
        ess = sum(effective_sample_size(s) for s in series)
        crit = KS_GATE / math.sqrt(ess)
        return [Check("euler_law_ks", stat < crit,
                      f"KS {stat:.4f} < {crit:.4f} (alpha 1e-5, ESS {ess:.0f}); "
                      f"1% critical {KS_1PCT / math.sqrt(ess):.4f}")]


class Audit:
    """A1-A5 on t3_2 (b=0.75) and example3 d=4, the LSI estimate on
    example3 d=4, and the finite-difference suite on example5 d=3."""

    name = "audit-a1a5-lsi"
    assumptions = ("A1", "A2", "A3", "A4", "A5")
    layers = (*(f"analysis.check.{a}" for a in assumptions), "analysis.estimate_lsi",
              "cli.run_gradient_suite", "analysis.quadrature_build", "analysis.sf")

    def __init__(self, scratch: Path, tiny: bool) -> None:
        self.reference = json.loads(REFERENCE.read_text())
        if self.reference["grid_points"] != GRID_POINTS:
            raise ValueError(f"{REFERENCE.name} was frozen on another grid size")
        self.targets = _audit_targets()
        self.lsi_tp = self.tp = self.targets["example3_d4"]
        ex5 = make_example(ExampleKind.EXAMPLE5, 3, vartheta=1.0)
        self.grad_tp = TransformedPotential(ex5.potential, ex5.transform)

    def run_pass(self, seed: int, tracer) -> dict:
        grids = {
            name: tula.analysis.default_assumption_grid(tp, GRID_POINTS)
            for name, tp in self.targets.items()
        }
        reports = {}
        start = time.perf_counter()
        for name, tp in self.targets.items():
            for which in self.assumptions:
                with tracer.span(f"analysis.check.{which}"):
                    reports[name, which] = tula.analysis.check_assumption(tp, which, grid=grids[name])
        with tracer.span("analysis.estimate_lsi"):
            lsi = tula.analysis.estimate_lsi(self.lsi_tp)
        with tracer.span("cli.run_gradient_suite"):
            grad = tula.cli.run_gradient_suite(self.grad_tp, 1000, seed)
        wall = time.perf_counter() - start
        return {"wall_s": wall, "reports": reports, "lsi": lsi, "grad": grad, "chain_steps": 0}

    def check_pass(self, res: dict) -> tuple[list[Check], dict]:
        checks = []
        for (name, which), report in res["reports"].items():
            want = self.reference["targets"][name][which]
            checks.append(Check(f"{name}.{which}.flag", report.passed == want["pass"],
                                f"passed={report.passed}, reference {want['pass']}"))
            got = report.fitted_constants
            bad = [
                key for key, value in want["constants"].items()
                if key not in got
                or abs(float(got[key]) - value) > self.reference["rel_tol"] * abs(value)
            ]
            checks.append(Check(f"{name}.{which}.constants", not bad, f"off: {bad}"))
        bound = res["lsi"].bound
        checks.append(Check("example3_d4.lsi_closed_form", abs(bound - 4 / 7) <= 1e-3 * 4 / 7,
                            f"bound {bound!r} vs 4/7, rel tol 1e-3"))
        grad = res["grad"]
        checks.append(Check("example5_d3.gradient_suite", bool(grad["pass"]),
                            f"grad {grad['grad_max_rel']:.2e}, hess {grad['hess_max_rel']:.2e}"))
        return checks, {}

    def check_run(self, results: list[dict]) -> list[Check]:
        return []


def _audit_targets() -> dict[str, TransformedPotential]:
    t32 = parse_target_name("t3_2", b=0.75)
    ex3 = make_example(ExampleKind.EXAMPLE3, 4, vartheta=1.0)
    return {
        "t3_2": TransformedPotential(t32.potential, t32.transform),
        "example3_d4": TransformedPotential(ex3.potential, ex3.transform),
    }


WORKLOADS = {w.name: w for w in (SampleCli, GaussChains, Audit)}


def freeze_reference() -> None:
    """Record the pass flags and fitted constants of the audit checks.

    Run once against the commit that introduced the benchmark:
    ``PYTHONPATH=src python3 -c "import sys; sys.path.insert(0, 'perfbench');
    import workloads; workloads.freeze_reference()"``.
    """
    out = {"grid_points": GRID_POINTS, "rel_tol": 1e-6, "targets": {}}
    for name, tp in _audit_targets().items():
        grid = tula.analysis.default_assumption_grid(tp, GRID_POINTS)
        out["targets"][name] = {}
        for which in Audit.assumptions:
            report = tula.analysis.check_assumption(tp, which, grid=grid)
            out["targets"][name][which] = {
                "pass": report.passed,
                "constants": {k: float(v) for k, v in report.fitted_constants.items()},
            }
    REFERENCE.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
