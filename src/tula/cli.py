"""Command-line front end for the transformed Langevin toolkit.

Five subcommands tie the library together: `sample` runs chains and writes
CSV/JSON artifacts, `check` evaluates one of the A1-A5 conditions, `lsi`
estimates the log-Sobolev bound, `classify` applies the Poincare case
tables, and `gradcheck` runs the finite-difference oracle suites.

Each subcommand declares its options once, in `_COMMANDS`: the parser, the
defaults and the config-file checks all come from that table.  Every option
can also come from a JSON config file (`--config`); explicit command-line
flags win over the file, which wins over built-in defaults.
Exit codes: 0 success, 1 failed check or diverged chain, 2 usage or config
errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence

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
from .sampler import SamplerConfig, _check_burn_in, run_summary, run_tula, write_chain_csv
from .targets import parse_target_name
from .transform import _count, _is_count, transform_to_dict

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


def load_config(path: str | Path) -> dict[str, Any]:
    """Read a JSON config file into a flat option mapping."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def dump_config(options: dict[str, Any], path: str | Path) -> None:
    """Write a mapping as sorted, indented JSON, making its directory;
    load_config inverts this."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(options, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    if not _is_count(num_points):
        raise ValueError(f"num_points must be an integer, got {num_points!r}")
    if not 1 <= num_points <= 2**20:
        raise ValueError(f"num_points must lie in [1, {2**20}], got {num_points}")
    rng = np.random.default_rng(_count("seed", seed, 0))
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
        tangent /= np.linalg.norm(tangent, axis=1, keepdims=True)
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


def _pairing(opts: dict[str, Any]) -> TransformedPotential:
    """The named zoo target paired with its transform."""
    return parse_target_name(opts["target"], dimension=opts["d"],  # _TARGET's first two
                             **{opt.dest: opts[opt.dest] for opt in _TARGET[2:]})


def _target_echo(opts: dict[str, Any]) -> dict[str, Any]:
    return {opt.dest: opts[opt.dest] for opt in _TARGET if opts[opt.dest] is not None}


def _report(opts: dict[str, Any], name: str, payload: dict, shown: Sequence[str] = ()) -> None:
    """Write ``payload``, with the target echo when the command has a target,
    to ``name`` in the output directory, and print it, or only its keys in
    ``shown``."""
    if "target" in opts:
        payload["target"] = _target_echo(opts)
    dump_config(payload, Path(opts["out"]) / name)
    print(json.dumps({key: payload[key] for key in shown} if shown else payload, indent=2))


def cmd_sample(opts: dict[str, Any]) -> int:
    tp = _pairing(opts)
    # checked before any step runs, so a bad threshold or burn-in leaves no artifacts
    thresholds = _tail_thresholds(opts["threshold"])
    if not thresholds:
        raise ValueError("threshold must name at least one radius")
    cfg = SamplerConfig(step_size=opts["gamma"], num_steps=opts["steps"], seed=opts["seed"],
                        thin=opts["thin"], num_chains=opts["chains"],
                        init_scale=opts["init_scale"])
    if opts["burn_in"] is not None:  # against a whole chain's rows, unless none are dropped
        _check_burn_in(opts["burn_in"], math.inf if opts["skip_diagnostics"]
                       else cfg.num_steps // cfg.thin + 1)
    run = run_tula(tp, cfg)

    out = Path(opts["out"])
    out.mkdir(parents=True, exist_ok=True)
    write_chain_csv(run, out / "chain.csv")
    with open(out / "trace.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("chain,step,radius_x\n")
        for chain, (x_arr, step_arr) in enumerate(zip(run.xs, run.steps)):
            radii = map(repr, np.linalg.norm(x_arr, axis=1).tolist())
            fh.write("".join(f"{chain},{s},{r}\n" for s, r in zip(step_arr.tolist(), radii)))

    summary = run_summary(run)
    summary["target"] = _target_echo(opts)
    summary["transform"] = transform_to_dict(tp.transform)
    dump_config(summary, out / "summary.json")

    if run.any_diverged:
        print(f"divergence detected; summary written to {out / 'summary.json'}", file=sys.stderr)
        return 1

    if not opts["skip_diagnostics"]:
        burn_in = opts["burn_in"]
        if burn_in is None:
            burn_in = min(arr.shape[0] for arr in run.ys) // 2
        report = radial_diagnostics(run, tp.potential, burn_in, thresholds=thresholds)
        dump_config(report.to_dict(), out / "diagnostics.json")
        print(json.dumps({
            "ks_statistic": report.ks.statistic,
            "ks_critical_1pct": report.ks.critical_1pct,
            "ess": report.ks.ess,
            "pass": report.all_passed,
        }, indent=2))
    print(f"wrote {out / 'chain.csv'}")
    return 0


def cmd_check(opts: dict[str, Any]) -> int:
    tp = _pairing(opts)

    grid = None
    lo, hi, num = opts["grid_min"], opts["grid_max"], opts["grid_points"]
    if (lo, hi, num) != (None, None, None):
        default = default_assumption_grid(tp)  # supplies what the flags leave out
        lo = default[0] if lo is None else lo
        hi = default[-1] if hi is None else hi
        num = default.size if num is None else num
        if not 2 <= num <= 2**20:  # before the grid is allocated
            raise ValueError(f"grid_points must be at least 2, got {num}" if num < 2
                             else f"grid_points must be at most {2**20}, got {num}")
        grid = np.geomspace(lo, hi, num)

    candidates = {opt.flag[2:].replace("-", "_"): opts[opt.dest] for opt in _CONSTANTS
                  if opts[opt.dest] is not None}

    report = check_assumption(tp, opts["assumption"], grid=grid,
                              candidate_constants=candidates or None)
    _report(opts, "assumption.json", report.to_dict(),
            ("assumption", "fitted_constants", "satisfied_from_radius", "pass"))
    return 0 if report.passed else 1


def cmd_lsi(opts: dict[str, Any]) -> int:
    tp = _pairing(opts)
    estimate = estimate_lsi(tp, r_max=opts["r_max"], grid_size=opts["grid_size"])

    out = Path(opts["out"])
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "lsi_table.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("r,lambda1,lambda2,beta_bar\n")
        for r, lam1, lam2, bb in estimate.table_rows():
            fh.write(f"{r!r},{lam1!r},{lam2!r},{bb!r}\n")
    _report(opts, "lsi.json", estimate.to_dict())
    return 0


def cmd_classify(opts: dict[str, Any]) -> int:
    verdict = classify_regime(
        opts["assumption"], vartheta=opts["vartheta"], dimension=opts["d"], b=opts["b"],
        beta=opts["beta"], **{opt.dest: opts[opt.dest] for opt in _CONSTANTS[:6]},
    )
    _report(opts, "verdict.json", verdict.to_dict())
    return 0


def cmd_gradcheck(opts: dict[str, Any]) -> int:
    tp = _pairing(opts)
    result = run_gradient_suite(tp, num_points=opts["points"], seed=opts["seed"])
    _report(opts, "gradcheck.json", result)
    return 0 if result["pass"] else 1


# ---------------------------------------------------------------------------
# options and argument parsing

_REQUIRED: Any = object()  # the default of an option that a flag or the config file must set


class Option(NamedTuple):
    """One option: flag, type, default and help.  Its config key is the
    flag's name with underscores unless `key` names another.  Type `list`
    is a repeatable float flag; its config value is a number or a list."""

    flag: str
    type: type
    default: Any
    help: str
    key: str = ""

    @property
    def dest(self) -> str:
        return self.key or self.flag[2:].replace("-", "_")


_TARGET = (
    Option("--target", str, _REQUIRED, "t{d}_{kappa}, t, example2..example6, or warmup"),
    Option("--d", int, None, "ambient dimension"),
    Option("--kappa", float, None, "degrees of freedom for the t family"),
    Option("--upsilon", float, None, "tunable log-weight for example2"),
    Option("--vartheta", float, None, "tail weight for example2..example6 (default 1.0)"),
    Option("--b", float, None, "tail growth coefficient for the t family (default d/(2 kappa))"),
    Option("--knot", float, None, "warm-up profile knot radius (default 1.0)"),
)
_OUT = Option("--out", str, ".", "output directory")

# the candidate constants of `check`, named as their flags (--C-tail sets
# C_tail); `classify` takes the first six
_CONSTANTS = (
    Option("--alpha", float, None, "dissipativity exponent"),
    Option("--A", float, None, "dissipativity growth constant"),
    Option("--B", float, None, "dissipativity offset"),
    Option("--mu", float, None, "degenerate convexity level"),
    Option("--theta", float, None, "degenerate convexity decay"),
    Option("--rho", float, None, "strong convexity level"),
    Option("--L", float, None, "gradient Lipschitz bound"),
    Option("--m", float, None, "tail shift"),
    Option("--alpha1", float, None, "tail stretch exponent"),
    Option("--C-tail", float, None, "tail scale", key="c_tail"),
)

# subcommand -> (handler, help, options)
_COMMANDS: dict[str, tuple[Callable[[dict[str, Any]], int], str, tuple[Option, ...]]] = {
    "sample": (cmd_sample, "run chains, write CSV/JSON artifacts", (
        *_TARGET,
        Option("--gamma", float, _REQUIRED, "step size"),
        Option("--steps", int, _REQUIRED, "number of iterations"),
        Option("--seed", int, 0, "base seed"),
        Option("--chains", int, 1, "number of chains"),
        Option("--thin", int, 1, "record every k-th iterate"),
        Option("--burn-in", int, None, "recorded rows dropped before diagnostics (default: half)"),
        Option("--init-scale", float, None, "Gaussian scale for random starts"),
        Option("--threshold", list, (5.0,), "tail threshold for diagnostics (repeatable)"),
        Option("--skip-diagnostics", bool, False, "skip the quadrature diagnostics"),
        _OUT,
    )),
    "check": (cmd_check, "evaluate one of the A1..A5 conditions", (
        *_TARGET,
        Option("--assumption", str, _REQUIRED, "A1..A5 or dissipativity/degenerate_convexity/"
               "strong_convexity/gradient_lipschitz/tail"),
        Option("--grid-min", float, None, "first grid radius (default: the default grid's)"),
        Option("--grid-max", float, None, "last grid radius (default: the default grid's)"),
        Option("--grid-points", int, None,
               "grid size in [2, 2**20] (default: the default grid's)"),
        *_CONSTANTS,
        _OUT,
    )),
    "lsi": (cmd_lsi, "log-Sobolev constant estimate", (
        *_TARGET,
        Option("--r-max", float, 12.0, "profile radius cutoff"),
        Option("--grid-size", int, 1024, "profile grid size in [16, 2**20]"),
        _OUT,
    )),
    "classify": (cmd_classify, "Poincare-regime case tables", (
        Option("--assumption", str, _REQUIRED, "A3/dissipativity, A5/degenerate_convexity, "
               "or A1/strong_convexity (classification-table tags)"),
        Option("--vartheta", float, _REQUIRED, "tail weight"),
        Option("--d", int, 1, "dimension"),
        Option("--b", float, _REQUIRED, "tail growth coefficient"),
        Option("--beta", float, 2.0, "tail exponent in (1, 2]"),
        *_CONSTANTS[:6],
        _OUT,
    )),
    "gradcheck": (cmd_gradcheck, "finite-difference oracle suites", (
        *_TARGET,
        Option("--points", int, 1000, "sample size in [1, 2**20]"),
        Option("--seed", int, 0, "RNG seed"),
        _OUT,
    )),
}


def _typed(key: str, kind: type, value: Any) -> Any:
    """A config value as its option's type: an integer serves as a float,
    true and false serve only a bool."""
    if kind is float and type(value) is int:
        return float(value)
    if kind is list:
        return [_typed(key, float, v) for v in (value if type(value) is list else [value])]
    if type(value) is not kind:
        raise ValueError(f"config key {key!r} must be of type {kind.__name__}, got {value!r}")
    return value


def _merge_options(command: str, ns: argparse.Namespace) -> dict[str, Any]:
    """defaults <- config file <- explicit flags.  A config key must be an
    option of the command and its value of the option's type; null leaves
    the key unset."""
    table = {opt.dest: opt for opt in _COMMANDS[command][2]}
    merged = {key: opt.default for key, opt in table.items()}
    if ns.config is not None:
        file_opts = load_config(ns.config)
        unknown = sorted(set(file_opts) - set(table))
        if unknown:
            raise ValueError(f"unknown config keys for {command!r}: {', '.join(unknown)}")
        merged.update({key: _typed(key, table[key].type, value)
                       for key, value in file_opts.items() if value is not None})
    merged.update({key: getattr(ns, key) for key in table if getattr(ns, key) is not None})
    missing = [table[key].flag for key, value in merged.items() if value is _REQUIRED]
    if missing:
        raise ValueError(f"{command} needs {' and '.join(missing)}")
    return merged


def _help(opt: Option) -> str:
    if opt.default is None:
        return opt.help
    if opt.default is _REQUIRED:
        return f"{opt.help} (required)"
    shown = ", ".join(map(str, opt.default)) if opt.type is list else opt.default
    return f"{opt.help} (default {shown})"


def build_parser() -> argparse.ArgumentParser:
    """One subparser per `_COMMANDS` entry.  Every flag defaults to None,
    so `_merge_options` can tell a flag given from one left out."""
    parser = argparse.ArgumentParser(
        prog="tula",
        description="Sample heavy-tailed densities through a radial diffeomorphism "
        "and verify the conditions that make the chain mix.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (_, doc, options) in _COMMANDS.items():
        sub = commands.add_parser(command, help=doc)
        sub.add_argument("--config", help="JSON file with option defaults; flags win")
        for opt in options:
            kind = ({"action": "store_const", "const": True} if opt.type is bool
                    else {"action": "append", "type": float} if opt.type is list
                    else {"type": opt.type})
            sub.add_argument(opt.flag, dest=opt.dest, help=_help(opt), **kind)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        opts = _merge_options(ns.command, ns)
        return _COMMANDS[ns.command][0](opts)
    except (ValueError, OSError) as exc:  # JSONDecodeError and NotApplicableError included
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, NotApplicableError) else 2


if __name__ == "__main__":
    sys.exit(main())
