"""Verdicts of ``classify_regime`` and ``tula classify`` from two tula source
trees, input by input.

    python3 tools/classify_ab.py --parent PARENT_TREE --change CHANGE_TREE

Loads each tree's ``src/tula`` in one process as ``tools/step_ab.py`` does
and calls each tree's ``classify_regime`` on every input of ``inputs()``:

* on each basis, a grid of dimensions, b and beta (1e-300 and 1e300
  included) with vartheta, alpha and theta at their case thresholds,
  1e-13 and 1e-9 relative either side of them and far from them, the
  spellings of the basis taken in turn;
* on a smaller grid, each constant in turn set to None, NaN, +-inf or a
  value outside its range, dimensions that are not positive integers,
  integer and numpy constants, and unknown basis names.

An input's outcome is ``json.dumps(verdict.to_dict())``, or the
exception's type name and message.  Then it runs each tree's ``tula
classify`` on README's example and on one input per rule of the case
tables and compares stdout and ``verdict.json`` byte for byte.  It prints
the number of inputs and of command lines, each one whose outcome
differs (at most LIMIT of them) and the number that differ, and exits 1
when any differs.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import itertools
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from step_ab import load

LIMIT = 20
SPELLINGS = {
    "dissipativity": ("a3", "dissipativity", "A3", " Dissipativity "),
    "degenerate_convexity": ("a5", "degenerate_convexity", "degenerate", "DEGENERATE"),
    "strong_convexity": ("a1", "strong_convexity", "strong", "Strong\t"),
}
UNKNOWN = ("a2", "", "weak", "dissipative", None)
# x * (1 + rel): on a threshold, 1e-13 either side (inside the 1e-12 tie),
# 1e-9 either side (outside it) and far off
REL = (0.0, 1e-13, -1e-13, 1e-9, -1e-9, 1.0, -0.5)
DIMENSIONS = (1, 2, 3, 5)
BS = (0.5, 1.0, 3.0, 1e-300, 1e300)
BETAS = (1.25, 1.5, 2.0 * (1.0 - 1e-13), 2.0 * (1.0 - 1e-9), 2.0)
BAD = (None, math.nan, math.inf, -math.inf, -1.0, 0.0, 2.5)
BAD_DIMENSIONS = (0, -1, 2.0, 2.5, True, False, "2", None, np.int64(3))
# integer and numpy spellings of valid constants
TYPED = {"vartheta": (1, np.float64(1.0)), "b": (1, np.float64(0.5)),
         "beta": (2, np.float64(1.5)), "alpha": (2, np.float64(1.5)), "A": (3, np.float64(2.0)),
         "B": (0, np.float64(1.0)), "mu": (1, np.float64(0.5)), "theta": (0, np.float64(0.5)),
         "rho": (1, np.float64(2.0))}
CONSTANTS = tuple(TYPED)


def _near(x: float) -> list[float]:
    return [x * (1.0 + rel) for rel in REL]


def _basis_grid(key: str, dimensions, bs, betas):
    """Keyword arguments of the case-table grid of one basis."""
    for d, b, beta in itertools.product(dimensions, bs, betas):
        common = {"dimension": d, "b": b, "beta": beta}
        if key == "dissipativity":
            for alpha, A, B in itertools.product(_near(beta)[:5] + [1.0, 2.0], (0.5, 3.0),
                                                 (None, 0.0, 1.5)):
                for vartheta in _near(A / (beta * b)):
                    yield {**common, "vartheta": vartheta, "alpha": alpha, "A": A, "B": B}
        elif key == "degenerate_convexity":
            for theta, mu in itertools.product(_near(2.0 - beta)[:5] + [0.0, 0.9], (0.5, 2.0)):
                for vartheta in _near(mu / (beta * b)):
                    yield {**common, "vartheta": vartheta, "mu": mu, "theta": theta}
        else:
            for rho in (0.5, 2.0):
                for vartheta in _near(rho / (2.0 * b)):
                    yield {**common, "vartheta": vartheta, "rho": rho}


def inputs() -> list[tuple[object, dict]]:
    """(basis, keyword arguments) of every call the sweep makes."""
    out = []
    for key, spellings in SPELLINGS.items():
        grid = _basis_grid(key, DIMENSIONS, BS, BETAS)
        out += [(spellings[i % len(spellings)], kw) for i, kw in enumerate(grid)]
        small = list(_basis_grid(key, (2,), (1.0,), (1.5, 2.0)))
        for i, kw in enumerate(small):
            basis = spellings[i % len(spellings)]
            out += [(basis, {**kw, name: bad}) for name in CONSTANTS for bad in BAD]
            out += [(basis, {**kw, name: v}) for name in CONSTANTS for v in TYPED[name]]
            out += [(basis, {**kw, "dimension": d}) for d in BAD_DIMENSIONS]
        out += [(basis, small[0]) for basis in UNKNOWN]
    return out


# README's example, then one command line per rule of the case tables
COMMANDS = [
    "--assumption dissipativity --vartheta 1 --d 2 --b 0.5 --alpha 2 --A 3",
    "--assumption a3 --vartheta 1 --d 2 --b 0.5 --beta 1.5 --alpha 2 --A 3",
    "--assumption dissipativity --vartheta 3 --d 2 --b 0.5 --alpha 2 --A 3 --B 1",
    "--assumption degenerate --vartheta 1 --d 2 --b 1 --beta 1.5 --mu 1 --theta 0.75",
    "--assumption a5 --vartheta 1 --d 2 --b 1 --beta 1.5 --mu 1 --theta 0.5",
    "--assumption degenerate_convexity --vartheta 0.5 --d 2 --b 1 --beta 1.5 --mu 1 --theta 0.5",
    "--assumption degenerate --vartheta 1 --d 3 --b 1 --beta 1.5 --mu 1 --theta 0.25",
    "--assumption strong --vartheta 1 --d 2 --b 0.5 --beta 1.5 --rho 1",
    "--assumption a1 --vartheta 1 --d 2 --b 0.5 --rho 1",
    "--assumption strong_convexity --vartheta 1 --d 3 --b 0.5 --rho 1",
    "--assumption strong --vartheta 0.5 --d 3 --b 0.5 --rho 1",
    "--assumption strong --vartheta 2 --d 1 --b 0.5 --rho 1",
]


def outcome(tula, basis, kwargs: dict) -> str:
    """The verdict's JSON, or the exception's type name and message."""
    try:
        return json.dumps(tula.classify_regime(basis, **kwargs).to_dict())
    except Exception as exc:  # any exception is an outcome the two trees must share
        return f"{type(exc).__name__}: {exc}"


def command_outcome(tula, argv: list[str]) -> tuple:
    """Exit status, stdout and verdict.json bytes of one `tula classify` run."""
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()) as so:
        cli = importlib.import_module(f"{tula.__name__}.cli")
        status = cli.main(["classify", *argv, "--out", out])
        verdict = Path(out, "verdict.json")
        return status, so.getvalue(), verdict.read_bytes() if verdict.exists() else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    args = parser.parse_args(argv)
    sides = [load(tree.resolve(), f"tula_{side}")
             for side, tree in (("parent", args.parent), ("change", args.change))]
    differ = 0
    cases = inputs()
    for basis, kwargs in cases:
        parent, change = (outcome(tula, basis, kwargs) for tula in sides)
        if parent != change:
            differ += 1
            if differ <= LIMIT:
                print(f"differs: classify_regime({basis!r}, **{kwargs!r})\n"
                      f"  parent: {parent}\n  change: {change}")
    for line in COMMANDS:
        parent, change = (command_outcome(tula, line.split()) for tula in sides)
        if parent != change:
            differ += 1
            print(f"differs: tula classify {line}\n  parent: {parent}\n  change: {change}")
    print(f"{len(cases)} inputs and {len(COMMANDS)} command lines, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
