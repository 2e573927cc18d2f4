"""Mutation checks of the package's fast paths: every catalogued mutant must fail a test.

    python3 tools/mutants.py          # each mutant against its named tests
    python3 tools/mutants.py --full   # each mutant against the whole suite

Each entry of MUTANTS names a file of the tree, an exact source snippet that
occurs once in it, the snippet's replacement, and the ids of the tests
expected to kill the mutant.  The fast paths (one radius in Python floats,
block-drawn noise, one random stream per chain) must give the bits of the
reference path, and a mutant that keeps most bits shows whether the tests
would notice.  For each mutant the tool copies the tree's ``src``,
``tests``, ``tools``, ``perfbench`` and ``pyproject.toml`` into a temporary
directory, applies the replacement and runs pytest there on the named tests,
or on the whole suite with ``--full``.  The mutant is killed when a test
fails or the suite does not import, and survives when every test passes.
It prints one line per mutant with its outcome, the failing tests and the
seconds it took, and exits 1 when a mutant survives or a snippet is not
found exactly once.  ``tests/test_mutants.py`` checks the catalogue itself
(every snippet occurs once, every named test exists) without running a
mutant.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "tools", "perfbench", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the tree's root
    snippet: str
    replacement: str
    tests: tuple[str, ...]


_DYN = "src/tula/dynamics.py"
_TR = "src/tula/transform.py"
_TG = "src/tula/targets.py"
_SA = "src/tula/sampler.py"
_ONE_RADIUS = "tests/test_dynamics.py::TestJetPointwise::test_one_radius_equals_its_place_in_a_long_batch"
_WARNS = "tests/test_dynamics.py::TestJetPointwise::test_one_radius_warns_as_a_batch_of_it"
_SWEEP = "tests/test_targets.py::TestHookSweep"
_SCALE = "tests/test_symmetry.py::test_run_tula_is_invariant_under_the_scale_of_b"
_JET_WARNS = "tests/test_transform.py::TestJetAtOneRadius::test_warns_and_raises_as_the_array_pass"

MUTANTS = (
    Mutant("chain-stream", _SA, "spawn_key=(chain,)", "spawn_key=(0,)", (
        "tests/test_sampler.py::TestDeterminism::test_each_chain_draws_the_stream_of_its_own_index",)),
    Mutant("noise-block-transposed", _SA,
           "rng.standard_normal((min(_NOISE_BLOCK, steps + 1 - first), dim))",
           "rng.standard_normal((dim, min(_NOISE_BLOCK, steps + 1 - first))).T", (
               "tests/test_sampler.py::TestBlockNoise::test_step_counts_around_the_block_edge"
               "[1-257-t-tula]",)),
    Mutant("factor-math-exp", _TR, "ep = float(exp(p))", "ep = math.exp(p)", (
        f"{_ONE_RADIUS}[t2_3]", f"{_ONE_RADIUS}[t10_3]")),
    Mutant("factor-no-d1-q", _TR, "out = dvalue(lead) * slope - log_gp - d1 * q",
           "out = dvalue(lead) * slope - log_gp", (f"{_ONE_RADIUS}[t2_3]",)),
    Mutant("factor-no-709-guard", _TR, "-math.inf < p <= 709.0", "-math.inf < p", (
        f"{_WARNS}[t2_3-on-exp800]",)),
    Mutant("factor-no-finite-pieces", _TR,
           "            if not isfinite(lead + slope + log_gp + q):\n                return None\n",
           "", (f"{_WARNS}[t2_3-on-g-overflow]",)),
    Mutant("factor-no-finite-result", _TR, "return out if isfinite(out) else None",
           "return out", (f"{_WARNS}[t2_1e300-on-b1e16]",)),
    Mutant("factor-knot-to-bulk", _TR, "if x >= knot:", "if x > knot:", (
        f"{_ONE_RADIUS}[t1_1]", f"{_ONE_RADIUS}[t10_3]")),
    Mutant("factor-f-prime-on-tail", _DYN, "f.dvalue, f.dlog_value", "f.dvalue, f.dvalue", (
        f"{_ONE_RADIUS}[t2_3]",)),
    Mutant("branch-no-d1-log-term", _DYN, "out.append(chain - lgp[k] - t._d1 * lgr[k])",
           "out.append(chain - lgp[k])", (
               "tests/test_dynamics.py::TestTransformedValue::test_frozen_tail_value",)),
    Mutant("branch-order2-chain-rule", _DYN, "hooks[2](p[0]) * p[1] * p[1]",
           "hooks[2](p[0]) * p[1]", (
               "tests/test_dynamics.py::TestHessianEigenvalues::test_frozen_values",)),
    Mutant("bulk-jet-no-finite-check", _TR,
           "    jet = _bulk_identities(p, x, gin._constants, _FLOAT_UFUNCS, orders, logs)\n"
           "    return jet if _finite(jet) else None",
           "    return _bulk_identities(p, x, gin._constants, _FLOAT_UFUNCS, orders, logs)",
           (_JET_WARNS,)),
    Mutant("tail-jet-no-range-check", _TR, "    if not 1e-100 < x < 1e100:\n        return None\n",
           "", (_JET_WARNS,)),
    Mutant("hook-no-finite-fallback", _TG,
           "            if math.isfinite(y):\n                return y",
           "            return y", ("tests/test_targets.py::TestHookAtOneRadius"
                                   "::test_a_float_value_that_is_not_finite_takes_the_array_path",)),
    Mutant("t-value-r-pow", _TG, "np.log1p(np.power(r, -2))", "np.log1p(r**-2)", (
        f"{_SWEEP}::test_float_equals_its_batch_element_bitwise[value]",)),
    Mutant("t-value-float-math-log", _TG, "2.0 * np.log(r)",
           "2.0 * (math.log(r) if type(r) is float else np.log(r))", (
               f"{_SWEEP}::test_float_equals_its_batch_element_bitwise[value]",)),
    Mutant("t-log-value-float-math-exp", _TG, "np.log1p(np.exp(-2.0 * t))",
           "np.log1p((math.exp if type(t) is float else np.exp)(-2.0 * t))", (
               f"{_SWEEP}::test_float_equals_its_batch_element_bitwise[log_value]",)),
    Mutant("zoo-d2phi-float-square", _TG, "(1.0 - 0.5 * u * u) / (w * w)",
           "(1.0 - 0.5 * u * u) / (w ** 2 if type(w) is float else w * w)", (
               f"{_SWEEP}::test_closed_form_float_equals_its_batch_element_bitwise"
               "[d2value-example3]",)),
    Mutant("warmup-d2phi-cube", _TG, "np.power(wu, 3)", "wu**3", (
        f"{_SWEEP}::test_closed_form_float_equals_its_batch_element_bitwise[d2value-warmup]",)),
    # as accurate as b**1.5, but its rounding is not homogeneous in b: only
    # the scale symmetry of the chains sees it
    Mutant("ginbeta2-b-power-exp-log", _TR, "-(10.0 / 3.0) * b**1.5",
           "-(10.0 / 3.0) * math.exp(1.5 * math.log(b))", (
               f"{_SCALE}[t2_3-0-1]", f"{_SCALE}[t2_3-0--1]")),
)


def apply(source: str, mutant: Mutant) -> str:
    """``source`` with the mutant's snippet replaced, raising unless it occurs once."""
    count = source.count(mutant.snippet)
    if count != 1:
        raise ValueError(f"{mutant.name}: snippet occurs {count} times in {mutant.path}")
    return source.replace(mutant.snippet, mutant.replacement)


def _pytest(tree: Path, args: list[str]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-rf", *args], cwd=tree, env=env, capture_output=True, text=True)


def collected(tree: Path, ids) -> set[str]:
    """The test ids pytest collects from ``ids`` in ``tree``."""
    out = _pytest(tree, ["--collect-only", *ids]).stdout
    return {line for line in out.splitlines() if "::" in line and " " not in line}


def run(mutant: Mutant, tree: Path, full: bool) -> tuple[str, list[str], float]:
    """``(outcome, failing test ids, seconds)`` of one mutant on a copy of ``tree``."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="tula-mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            src = tree / name
            if src.is_dir():
                shutil.copytree(src, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(src, copy / name)
        target = copy / mutant.path
        target.write_text(apply(target.read_text(), mutant))
        # the catalogue's own test fails on any mutant, so the whole suite leaves it out
        result = _pytest(copy, ["--ignore=tests/test_mutants.py"] if full else list(mutant.tests))
    failed = re.findall(r"^FAILED (\S+)", result.stdout, re.M)
    outcome = {0: "survived", 1: "killed", 2: "killed"}.get(result.returncode, "error")
    return outcome, failed, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true", help="run the whole suite per mutant")
    args = parser.parse_args(argv)
    bad, start = 0, time.perf_counter()
    for m in MUTANTS:
        try:
            outcome, failed, seconds = run(m, ROOT, args.full)
        except ValueError as exc:  # the snippet is gone or ambiguous
            outcome, failed, seconds = f"error ({exc})", [], 0.0
        bad += outcome != "killed"
        shown = ", ".join(failed[:3]) + (f" and {len(failed) - 3} more" if len(failed) > 3 else "")
        print(f"{m.name}: {outcome} in {seconds:.1f} s" + (f" by {shown}" if failed else ""))
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} killed in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
