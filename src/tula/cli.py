"""Command-line front end for the transformed Langevin toolkit.

Five subcommands tie the library together: `sample` runs chains and writes
CSV/JSON artifacts, `check` evaluates one of the A1-A5 conditions, `lsi`
estimates the log-Sobolev bound, `classify` applies the Poincare case
tables, and `gradcheck` runs the finite-difference oracle suites.

Every option can also come from a JSON config file (`--config`); explicit
command-line flags win over the file, which wins over built-in defaults.
Exit codes: 0 success, 1 failed check or diverged chain, 2 usage or config
errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .analysis import (
    NotApplicableError,
    _tail_thresholds,
    check_assumption,
    classify_regime,
    default_assumption_grid,
    estimate_lsi,
    radial_diagnostics,
)
from .dynamics import TransformedPotential, hessian_eigenvalues, transformed_gradient, transformed_value
from .sampler import SamplerConfig, run_summary, run_tula, write_chain_csv
from .targets import TargetZooEntry, parse_target_name
from .transform import transform_to_dict

__all__ = [
    "GRADCHECK_GRAD_TOL",
    "GRADCHECK_HESS_TOL",
    "load_config",
    "dump_config",
    "main",
    "run_gradient_suite",
]

GRADCHECK_GRAD_TOL = 1e-5
GRADCHECK_HESS_TOL = 1e-4

# the target options every target-taking subcommand shares
_TARGET_DEFAULTS: dict[str, Any] = {
    "target": None, "d": None, "kappa": None, "upsilon": None, "vartheta": 1.0,
    "b": None, "knot": 1.0,
}

# the candidate constants of `check`: flag, config key, constant name, help
_CHECK_CONSTANTS = (
    ("--A", "A", "A", "dissipativity growth constant"),
    ("--B", "B", "B", "dissipativity offset"),
    ("--alpha", "alpha", "alpha", "dissipativity exponent"),
    ("--mu", "mu", "mu", "degenerate convexity level"),
    ("--theta", "theta", "theta", "degenerate convexity decay"),
    ("--rho", "rho", "rho", "strong convexity level"),
    ("--L", "L", "L", "gradient Lipschitz bound"),
    ("--m", "m", "m", "tail shift"),
    ("--alpha1", "alpha1", "alpha1", "tail stretch exponent"),
    ("--C-tail", "c_tail", "C_tail", "tail scale"),
)

_DEFAULTS: dict[str, dict[str, Any]] = {
    "sample": {
        **_TARGET_DEFAULTS, "gamma": None, "steps": None, "seed": 0, "chains": 1,
        "thin": 1, "burn_in": None, "init_scale": None, "threshold": None,
        "skip_diagnostics": False, "out": ".",
    },
    "check": {
        **_TARGET_DEFAULTS, "assumption": None, "grid_min": None, "grid_max": None,
        "grid_points": None, **{key: None for _, key, _, _ in _CHECK_CONSTANTS}, "out": ".",
    },
    "lsi": {**_TARGET_DEFAULTS, "r_max": 12.0, "grid_size": 1024, "out": "."},
    "classify": {
        "assumption": None, "vartheta": None, "d": 1, "b": None, "beta": 2.0,
        "alpha": None, "A": None, "B": None, "mu": None, "theta": None, "rho": None,
        "out": ".",
    },
    "gradcheck": {**_TARGET_DEFAULTS, "points": 1000, "seed": 0, "out": "."},
}


def load_config(path: str | Path) -> dict[str, Any]:
    """Read a JSON config file into a flat option mapping."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def dump_config(options: dict[str, Any], path: str | Path) -> None:
    """Write an option mapping back to disk; load_config inverts this."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(options, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _merge_options(command: str, ns: argparse.Namespace) -> dict[str, Any]:
    """defaults <- config file <- explicit flags, rejecting unknown keys."""
    merged = dict(_DEFAULTS[command])
    config_path = getattr(ns, "config", None)
    if config_path is not None:
        file_opts = load_config(config_path)
        unknown = set(file_opts) - set(merged)
        if unknown:
            raise ValueError(
                f"unknown config keys for {command!r}: {', '.join(sorted(unknown))}"
            )
        merged.update(file_opts)
    for key in merged:
        value = getattr(ns, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _build_entry(opts: dict[str, Any]) -> TargetZooEntry:
    if not opts.get("target"):
        raise ValueError("a target name is required (--target)")
    return parse_target_name(
        str(opts["target"]),
        dimension=None if opts.get("d") is None else int(opts["d"]),
        kappa=opts.get("kappa"),
        upsilon=opts.get("upsilon"),
        vartheta=1.0 if opts.get("vartheta") is None else float(opts["vartheta"]),
        b=opts.get("b"),
        knot=1.0 if opts.get("knot") is None else float(opts["knot"]),
    )


def _write_json(payload: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _target_echo(opts: dict[str, Any]) -> dict[str, Any]:
    return {k: opts.get(k) for k in _TARGET_DEFAULTS if opts.get(k) is not None}


# ---------------------------------------------------------------------------
# finite-difference suite (shared by `gradcheck`)


def run_gradient_suite(tp: TransformedPotential, num_points: int = 1000, seed: int = 0) -> dict:
    """Check the closed-form gradient and Hessian eigenvalues against
    central finite differences of the potential value.

    Points are drawn log-uniformly in radius on [0.05, 30] with random
    directions; radii within 10% of the transform's knot are excluded (the
    profile is only finitely smooth there, which ruins difference
    quotients).  Gradients are compared coordinate-wise against first
    differences of the value; the radial and tangential eigenvalues against
    directional second differences along and across the position vector.
    """
    if num_points < 1:
        raise ValueError("num_points must be positive")
    rng = np.random.default_rng(seed)
    d, t = tp.dimension, tp.transform

    radii = np.exp(rng.uniform(math.log(0.05), math.log(30.0), size=3 * num_points))
    radii = radii[np.abs(radii - t.knot) > 0.1 * t.knot][:num_points]
    n = radii.size
    dirs = rng.standard_normal((n, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    y = radii[:, None] * dirs

    # gradient: fourth-order-free central differences, one coordinate at a time
    h = 1e-5 * np.maximum(1.0, np.abs(y))
    shift = h[:, :, None] * np.eye(d)[None, :, :]
    v_plus = transformed_value(tp, (y[:, None, :] + shift).reshape(-1, d)).reshape(n, d)
    v_minus = transformed_value(tp, (y[:, None, :] - shift).reshape(-1, d)).reshape(n, d)
    fd_grad = (v_plus - v_minus) / (2.0 * h)
    grad = transformed_gradient(tp, y)
    grad_rel = np.linalg.norm(fd_grad - grad, axis=1) / np.maximum(
        1.0, np.linalg.norm(grad, axis=1)
    )

    # eigenvalues: second differences along the radius and along a tangent
    eig = hessian_eigenvalues(tp, radii)
    h2 = 2e-4 * np.maximum(1.0, radii)
    v0 = transformed_value(tp, y)

    def second_difference(direction: np.ndarray) -> np.ndarray:
        vp = transformed_value(tp, y + h2[:, None] * direction)
        vm = transformed_value(tp, y - h2[:, None] * direction)
        return (vp - 2.0 * v0 + vm) / h2 ** 2

    hess_rels = [
        np.abs(second_difference(dirs) - eig.lambda_radial)
        / np.maximum(1.0, np.abs(eig.lambda_radial))
    ]
    if d >= 2:
        tangent = rng.standard_normal((n, d))
        tangent -= np.sum(tangent * dirs, axis=1, keepdims=True) * dirs
        norms = np.linalg.norm(tangent, axis=1, keepdims=True)
        degenerate = norms[:, 0] < 1e-8
        if np.any(degenerate):
            tangent[degenerate] = np.roll(dirs[degenerate], 1, axis=1)
            tangent[degenerate] -= (
                np.sum(tangent[degenerate] * dirs[degenerate], axis=1, keepdims=True)
                * dirs[degenerate]
            )
            norms = np.linalg.norm(tangent, axis=1, keepdims=True)
        tangent /= norms
        hess_rels.append(
            np.abs(second_difference(tangent) - eig.lambda_tangential)
            / np.maximum(1.0, np.abs(eig.lambda_tangential))
        )

    grad_max = float(grad_rel.max())
    hess_max = float(max(r.max() for r in hess_rels))
    return {
        "points": int(n),
        "dimension": d,
        "grad_max_rel": grad_max,
        "hess_max_rel": hess_max,
        "grad_tol": GRADCHECK_GRAD_TOL,
        "hess_tol": GRADCHECK_HESS_TOL,
        "pass": grad_max < GRADCHECK_GRAD_TOL and hess_max < GRADCHECK_HESS_TOL,
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_sample(opts: dict[str, Any]) -> int:
    entry = _build_entry(opts)
    if opts.get("gamma") is None or opts.get("steps") is None:
        raise ValueError("sample needs --gamma and --steps")
    # checked before any step runs, so a bad threshold leaves no artifacts
    thresholds = _tail_thresholds(
        [5.0] if opts.get("threshold") is None else np.atleast_1d(opts["threshold"]))
    if not thresholds:
        raise ValueError("threshold must name at least one radius")
    tp = TransformedPotential(entry.potential, entry.transform)
    cfg = SamplerConfig(
        step_size=float(opts["gamma"]),
        num_steps=int(opts["steps"]),
        seed=int(opts["seed"]),
        thin=int(opts["thin"]),
        num_chains=int(opts["chains"]),
        init_scale=None if opts.get("init_scale") is None else float(opts["init_scale"]),
    )
    run = run_tula(tp, cfg)

    out = Path(opts["out"])
    out.mkdir(parents=True, exist_ok=True)
    write_chain_csv(run, out / "chain.csv")
    with open(out / "trace.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("chain,step,radius_x\n")
        for chain, (x_arr, step_arr) in enumerate(zip(run.xs, run.steps)):
            for step, radius in zip(step_arr, np.linalg.norm(x_arr, axis=1)):
                fh.write(f"{chain},{int(step)},{float(radius)!r}\n")

    summary = run_summary(run)
    summary["target"] = _target_echo(opts)
    summary["transform"] = transform_to_dict(entry.transform)
    _write_json(summary, out / "summary.json")

    if run.any_diverged:
        print(f"divergence detected; summary written to {out / 'summary.json'}", file=sys.stderr)
        return 1

    if not opts.get("skip_diagnostics"):
        recorded = min(arr.shape[0] for arr in run.ys)
        burn_in = opts.get("burn_in")
        burn_in = recorded // 2 if burn_in is None else int(burn_in)
        report = radial_diagnostics(run, entry.potential, burn_in, thresholds=thresholds)
        _write_json(report.to_dict(), out / "diagnostics.json")
        print(json.dumps({
            "ks_statistic": report.ks.statistic,
            "ks_critical_1pct": report.ks.critical_1pct,
            "ess": report.ks.ess,
            "pass": report.all_passed,
        }, indent=2))
    print(f"wrote {out / 'chain.csv'}")
    return 0


def cmd_check(opts: dict[str, Any]) -> int:
    entry = _build_entry(opts)
    if not opts.get("assumption"):
        raise ValueError("check needs --assumption (A1..A5 or a full name)")
    tp = TransformedPotential(entry.potential, entry.transform)

    grid = None
    if any(opts.get(k) is not None for k in ("grid_min", "grid_max", "grid_points")):
        default = default_assumption_grid(tp)  # supplies what the flags leave out
        lo = float(opts["grid_min"]) if opts.get("grid_min") is not None else default[0]
        hi = float(opts["grid_max"]) if opts.get("grid_max") is not None else default[-1]
        num = int(opts["grid_points"]) if opts.get("grid_points") is not None else default.size
        if num < 2:
            raise ValueError(f"grid_points must be at least 2, got {num}")
        grid = np.geomspace(lo, hi, num)

    candidates = {name: float(opts[key]) for _, key, name, _ in _CHECK_CONSTANTS
                  if opts.get(key) is not None}

    report = check_assumption(tp, str(opts["assumption"]), grid=grid,
                              candidate_constants=candidates or None)
    payload = report.to_dict()
    payload["target"] = _target_echo(opts)
    _write_json(payload, Path(opts["out"]) / "assumption.json")
    print(json.dumps({
        "assumption": payload["assumption"],
        "fitted_constants": payload["fitted_constants"],
        "satisfied_from_radius": payload["satisfied_from_radius"],
        "pass": payload["pass"],
    }, indent=2))
    return 0 if report.passed else 1


def cmd_lsi(opts: dict[str, Any]) -> int:
    entry = _build_entry(opts)
    tp = TransformedPotential(entry.potential, entry.transform)
    estimate = estimate_lsi(tp, r_max=float(opts["r_max"]), grid_size=int(opts["grid_size"]))

    out = Path(opts["out"])
    payload = estimate.to_dict()
    payload["target"] = _target_echo(opts)
    _write_json(payload, out / "lsi.json")
    with open(out / "lsi_table.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("r,lambda1,lambda2,beta_bar\n")
        for r, lam1, lam2, bb in estimate.table_rows():
            fh.write(f"{r!r},{lam1!r},{lam2!r},{bb!r}\n")
    print(json.dumps(payload, indent=2))
    return 0


def cmd_classify(opts: dict[str, Any]) -> int:
    if not opts.get("assumption"):
        raise ValueError("classify needs --assumption")
    if opts.get("vartheta") is None or opts.get("b") is None:
        raise ValueError("classify needs --vartheta and --b")
    verdict = classify_regime(
        str(opts["assumption"]),
        vartheta=float(opts["vartheta"]),
        dimension=int(opts["d"]),
        b=float(opts["b"]),
        beta=float(opts["beta"]),
        alpha=opts.get("alpha"),
        A=opts.get("A"),
        B=opts.get("B"),
        mu=opts.get("mu"),
        theta=opts.get("theta"),
        rho=opts.get("rho"),
    )
    payload = verdict.to_dict()
    _write_json(payload, Path(opts["out"]) / "verdict.json")
    print(json.dumps(payload, indent=2))
    return 0


def cmd_gradcheck(opts: dict[str, Any]) -> int:
    entry = _build_entry(opts)
    tp = TransformedPotential(entry.potential, entry.transform)
    result = run_gradient_suite(tp, num_points=int(opts["points"]), seed=int(opts["seed"]))
    result["target"] = _target_echo(opts)
    _write_json(result, Path(opts["out"]) / "gradcheck.json")
    print(json.dumps(result, indent=2))
    return 0 if result["pass"] else 1


# ---------------------------------------------------------------------------
# argument parsing


def _add_target_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--target", help="t{d}_{kappa}, t, example2..example6, or warmup")
    sub.add_argument("--d", type=int, help="ambient dimension")
    sub.add_argument("--kappa", type=float, help="degrees of freedom for the t family")
    sub.add_argument("--upsilon", type=float, help="tunable log-weight for example2")
    sub.add_argument("--vartheta", type=float, help="tail weight of the benchmark entries")
    sub.add_argument("--b", type=float, help="tail growth coefficient (default d/(2 kappa))")
    sub.add_argument("--knot", type=float, help="warm-up profile knot radius")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file with option defaults; flags win")
    sub.add_argument("--out", help="output directory (default: current directory)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tula",
        description="Sample heavy-tailed densities through a radial diffeomorphism "
        "and verify the conditions that make the chain mix.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sample = commands.add_parser("sample", help="run chains, write CSV/JSON artifacts")
    _add_target_flags(sample)
    _add_common(sample)
    sample.add_argument("--gamma", type=float, help="step size")
    sample.add_argument("--steps", type=int, help="number of iterations")
    sample.add_argument("--seed", type=int, help="base seed (default 0)")
    sample.add_argument("--chains", type=int, help="number of chains (default 1)")
    sample.add_argument("--thin", type=int, help="record every k-th iterate (default 1)")
    sample.add_argument("--burn-in", dest="burn_in", type=int,
                        help="recorded rows dropped before diagnostics (default: half)")
    sample.add_argument("--init-scale", dest="init_scale", type=float,
                        help="Gaussian scale for random starts")
    sample.add_argument("--threshold", type=float, action="append",
                        help="tail threshold for diagnostics (repeatable; default 5)")
    sample.add_argument("--skip-diagnostics", dest="skip_diagnostics", action="store_const",
                        const=True, help="skip the quadrature diagnostics")

    check = commands.add_parser("check", help="evaluate one of the A1..A5 conditions")
    _add_target_flags(check)
    _add_common(check)
    check.add_argument("--assumption", help="A1..A5 or dissipativity/degenerate_convexity/"
                       "strong_convexity/gradient_lipschitz/tail")
    check.add_argument("--grid-min", dest="grid_min", type=float)
    check.add_argument("--grid-max", dest="grid_max", type=float)
    check.add_argument("--grid-points", dest="grid_points", type=int)
    for flag, key, _, doc in _CHECK_CONSTANTS:
        check.add_argument(flag, dest=key, type=float, help=doc)

    lsi = commands.add_parser("lsi", help="log-Sobolev constant estimate")
    _add_target_flags(lsi)
    _add_common(lsi)
    lsi.add_argument("--r-max", dest="r_max", type=float, help="profile radius cutoff (default 12)")
    lsi.add_argument("--grid-size", dest="grid_size", type=int, help="profile grid (default 1024)")

    classify = commands.add_parser("classify", help="Poincare-regime case tables")
    _add_common(classify)
    classify.add_argument("--assumption", help="A3/dissipativity, A5/degenerate_convexity, "
                          "or A1/strong_convexity (classification-table tags)")
    classify.add_argument("--vartheta", type=float)
    classify.add_argument("--d", type=int, help="dimension (default 1)")
    classify.add_argument("--b", type=float)
    classify.add_argument("--beta", type=float, help="tail exponent in (1, 2] (default 2)")
    classify.add_argument("--alpha", type=float)
    classify.add_argument("--A", type=float)
    classify.add_argument("--B", type=float)
    classify.add_argument("--mu", type=float)
    classify.add_argument("--theta", type=float)
    classify.add_argument("--rho", type=float)

    gradcheck = commands.add_parser("gradcheck", help="finite-difference oracle suites")
    _add_target_flags(gradcheck)
    _add_common(gradcheck)
    gradcheck.add_argument("--points", type=int, help="sample size (default 1000)")
    gradcheck.add_argument("--seed", type=int, help="RNG seed (default 0)")

    return parser


_HANDLERS = {
    "sample": cmd_sample,
    "check": cmd_check,
    "lsi": cmd_lsi,
    "classify": cmd_classify,
    "gradcheck": cmd_gradcheck,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        opts = _merge_options(ns.command, ns)
        return _HANDLERS[ns.command](opts)
    except NotApplicableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
