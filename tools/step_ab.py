"""Alternating in-process timings of two tula source trees, layer by layer.

    python3 tools/step_ab.py --parent PARENT_TREE --change CHANGE_TREE --rounds 30

Loads each tree's ``src/tula`` in one process under its own module name,
``tula_parent`` and ``tula_change`` (the package imports its modules
relatively, so the two trees' modules stay apart), then runs ``--rounds``
rounds.  In each round every measurement is taken once on each tree,
alternating which tree goes first.  The measurements, on ``t2_3`` and on
``example6`` at d = 2 (``run_tula_us_per_step`` and
``transformed_gradient_us_per_call`` also on ``example3`` at d = 5, whose
closed φ runs the ``log1p`` and the division that ``example6``'s
``c_log = 0`` leaves out):

* ``run_tula_us_per_step``: ``run_tula`` with one chain of ``--steps``
  steps (γ 0.005 on ``t2_3`` and 0.05 on the zoo targets, as in the
  benchmark's workloads), in microseconds per chain-step, and
  ``run_tula_us_per_step.chainsK`` the same with the K chains of the case's
  benchmark workload (2 on ``t2_3``, 16 on ``example6``); also, alone, on
  the foreign pairing ``example3_d2_ginbeta2`` (``example3`` at d = 2 with
  ``ginbeta2_transform(0.37, 2)``), whose f hooks invert g by Newton's
  method on one-element arrays, so every step runs the shape-(1,) path of
  ``transform._at_one_radius``;
* ``write_chain_csv_ms`` (``t2_3`` only): ``write_chain_csv`` to the null
  device of a run of the workload's 2 chains × CSV_STEPS steps whose x
  samples are already mapped, in milliseconds per file;
* ``grad_factor_ns_per_radius.bulk`` and ``.tail``: ``grad_factor`` on
  BATCH radii drawn inside the knot (0.05 to 0.95 knots) and outside it
  (1.05 to 2.5 knots), as ``perfbench/probes.py`` draws them, in
  nanoseconds per radius;
* ``transformed_gradient_us_per_call``: ``transformed_gradient`` at one
  point, as a sampler step calls it, in microseconds per call, over POINTS
  points at the first bulk radii in random directions, and
  ``transformed_gradient_us_per_call.tail`` the same at the first tail radii;
* ``grad_factor_us_per_radius.float.bulk`` and ``.tail`` (every case, and
  ``example3_d2_ginbeta2``): ``grad_factor(tp, x)`` at the first POINTS bulk
  radii and at the first POINTS tail radii, each ``x`` a Python float, in
  microseconds per radius; each reaches the pairing's one-radius factor
  ``TransformedPotential._factor``, built once per pairing: on a composed
  pairing (``t2_3``, ``example3_d2_ginbeta2``) the closure of
  ``transform._order_one_factor``, on a closed one (the zoo cases) its
  ``phi'`` hook;
* ``factor_us_per_radius.bulk`` and ``.tail`` (every case, and
  ``example3_d2_ginbeta2``): that factor alone, ``tp._factor(x)`` on the
  same Python floats, in microseconds per radius; the float measurement
  above adds ``transform._radial``'s calling convention, which no sampler
  step pays;
* ``bulk_jet_ns_per_radius.float`` and ``tail_jet_ns_per_radius.float``:
  ``bulk_jet(t.gin, x, (1,))`` at the first POINTS bulk radii and
  ``tail_jet(t, x, (1,))`` at the first POINTS tail radii, each radius ``x``
  a Python float, as a public scalar call passes it, in nanoseconds per
  radius (a zoo-case step reaches neither float body and a ``t2_3`` step
  only the tail's, since the factor closure writes out the bulk's order 1;
  the foreign pairing's f and F hooks reach both on one-element arrays);
* ``g_inverse_ns_per_value``: ``g_inverse`` on the BATCH bulk images
  ``g(r)`` of those bulk radii, in nanoseconds per value;
* ``hessian_eigenvalues_ns_per_radius``: ``hessian_eigenvalues`` on the
  first POINTS bulk radii, in nanoseconds per radius.

Each kernel sample repeats its calls for at least MIN_SECONDS.

For each measurement it prints each tree's median and quartiles, the number
of rounds the change won and the change's median over the parent's; with
``--out`` it also writes every sample as JSON.  One traced benchmark run per
side cannot resolve a per-layer change of a few per cent; many alternating
samples in one process can.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

BATCH = 1024
POINTS = 64
MIN_SECONDS = 0.02
CSV_STEPS = 4000
# name: target, dimension, step size, chains of the benchmark workload (None
# for a case that no workload runs, timed by its run_tula and gradient only)
CASES = {"t2_3": ("t2_3", None, 0.005, 2), "example6_d2": ("example6", 2, 0.05, 16),
         "example3_d5": ("example3", 5, 0.05, None)}


def load(tree: Path, alias: str):
    """The ``tula`` package of ``tree`` imported as the top-level module ``alias``."""
    pkg = tree / "src" / "tula"
    spec = importlib.util.spec_from_file_location(
        alias, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


def repeat(call, count: int) -> float:
    """Seconds per call of ``call`` (which makes ``count`` calls), over at
    least MIN_SECONDS of calls."""
    loops, start = 0, time.perf_counter()
    while (elapsed := time.perf_counter() - start) < MIN_SECONDS or not loops:
        call()
        loops += 1
    return elapsed / (loops * count)


def per_step(tula, tp, cfg) -> float:
    """``run_tula(tp, cfg)`` in microseconds per chain-step."""
    start = time.perf_counter()
    tula.run_tula(tp, cfg)
    return 1e6 * (time.perf_counter() - start) / (cfg.num_steps * cfg.num_chains)


def measurements(tula, steps: int) -> dict:
    """Name to a zero-argument callable returning one sample of that measurement."""
    rng = np.random.default_rng(20220120)
    unit = rng.uniform(0.05, 0.95, BATCH), rng.uniform(1.05, 2.5, BATCH)
    angle = rng.uniform(0.0, 2.0 * np.pi, POINTS)
    gauss = rng.standard_normal((POINTS, 5))
    directions = {2: np.stack([np.cos(angle), np.sin(angle)], axis=1),
                  5: gauss / np.linalg.norm(gauss, axis=1)[:, None]}
    out = {}
    for case, (name, dimension, gamma, chains) in CASES.items():
        entry = tula.parse_target_name(name, dimension=dimension)
        tp = tula.TransformedPotential(entry.potential, entry.transform)
        config = functools.partial(tula.SamplerConfig, step_size=gamma, num_steps=steps, seed=0)
        out[f"{case} run_tula_us_per_step"] = functools.partial(per_step, tula, tp, config())
        t = entry.transform
        for suffix, frac in (("", unit[0]), (".tail", unit[1])):
            points = (t.knot * frac[:POINTS])[:, None] * directions[t.dimension]
            out[f"{case} transformed_gradient_us_per_call{suffix}"] = (
                lambda tp=tp, points=points: 1e6 * repeat(
                    lambda: [tula.transformed_gradient(tp, y) for y in points], POINTS))
        bulk_x, tail_x = ((t.knot * frac[:POINTS]).tolist() for frac in unit)
        for branch, xs in (("bulk", bulk_x), ("tail", tail_x)):
            out[f"{case} grad_factor_us_per_radius.float.{branch}"] = (
                lambda tp=tp, xs=xs: 1e6 * repeat(lambda: [tula.grad_factor(tp, x) for x in xs],
                                                  POINTS))
            out[f"{case} factor_us_per_radius.{branch}"] = (
                lambda factor=tp._factor, xs=xs: 1e6 * repeat(lambda: [factor(x) for x in xs],
                                                              POINTS))
        if chains is None:
            continue
        out[f"{case} run_tula_us_per_step.chains{chains}"] = functools.partial(
            per_step, tula, tp, config(num_chains=chains))
        if case == "t2_3":
            written = tula.run_tula(tp, tula.SamplerConfig(step_size=gamma, num_steps=CSV_STEPS,
                                                           seed=0, num_chains=chains))
            written.xs  # map once, so that only the formatting is timed

            def write(run=written) -> float:
                start = time.perf_counter()
                tula.write_chain_csv(run, os.devnull)
                return 1e3 * (time.perf_counter() - start)

            out[f"{case} write_chain_csv_ms"] = write
        for branch, frac in zip(("bulk", "tail"), unit):
            radii = t.knot * frac
            out[f"{case} grad_factor_ns_per_radius.{branch}"] = (
                lambda tp=tp, radii=radii: 1e9 * repeat(lambda: tula.grad_factor(tp, radii), BATCH))
        out[f"{case} bulk_jet_ns_per_radius.float"] = lambda t=t, xs=bulk_x: 1e9 * repeat(
            lambda: [tula.bulk_jet(t.gin, x, (1,)) for x in xs], POINTS)
        out[f"{case} tail_jet_ns_per_radius.float"] = lambda t=t, xs=tail_x: 1e9 * repeat(
            lambda: [tula.tail_jet(t, x, (1,)) for x in xs], POINTS)
        images = tula.g_eval(t, t.knot * unit[0], 0)
        out[f"{case} g_inverse_ns_per_value"] = lambda t=t, images=images: 1e9 * repeat(
            lambda: tula.g_inverse(t, images), BATCH)
        out[f"{case} hessian_eigenvalues_ns_per_radius"] = (
            lambda tp=tp, radii=t.knot * unit[0][:POINTS]: 1e9 * repeat(
                lambda: tula.hessian_eigenvalues(tp, radii), POINTS))
    # a foreign pairing: example3's f hooks invert g by Newton's method on
    # one-element arrays, so every step runs transform._at_one_radius's shape-(1,) branch
    zoo = tula.make_example("example3", 2)
    foreign = tula.TransformedPotential(zoo.potential, tula.ginbeta2_transform(0.37, 2))
    out["example3_d2_ginbeta2 run_tula_us_per_step"] = functools.partial(
        per_step, tula, foreign, tula.SamplerConfig(step_size=0.05, num_steps=steps, seed=0))
    knot = foreign.transform.knot
    for branch, frac in zip(("bulk", "tail"), unit):
        xs = (knot * frac[:POINTS]).tolist()
        out[f"example3_d2_ginbeta2 grad_factor_us_per_radius.float.{branch}"] = (
            lambda xs=xs: 1e6 * repeat(lambda: [tula.grad_factor(foreign, x) for x in xs], POINTS))
        out[f"example3_d2_ginbeta2 factor_us_per_radius.{branch}"] = (
            lambda xs=xs: 1e6 * repeat(lambda: [foreign._factor(x) for x in xs], POINTS))
    return out


def compare(parent: list[float], change: list[float]) -> dict:
    """Medians, quartiles (statistics.quantiles' exclusive method), the
    rounds where the change took less time, and change median over parent median."""
    pm, cm = statistics.median(parent), statistics.median(change)
    return {"parent_median": pm, "change_median": cm,
            "parent_quartiles": statistics.quantiles(parent, n=4),
            "change_quartiles": statistics.quantiles(change, n=4),
            "change_wins": sum(c < p for p, c in zip(parent, change)),
            "rounds": len(parent), "ratio": cm / pm}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--steps", type=int, default=2000)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.rounds < 2 or args.steps < 1:
        parser.error("--rounds must be at least 2 and --steps at least 1")
    sides = {side: measurements(load(tree.resolve(), f"tula_{side}"), args.steps)
             for side, tree in (("parent", args.parent), ("change", args.change))}
    samples = {side: {name: [] for name in fns} for side, fns in sides.items()}
    for i in range(args.rounds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for name in sides["parent"]:
            for side in order:
                samples[side][name].append(sides[side][name]())
    table = {name: compare(samples["parent"][name], samples["change"][name])
             for name in sides["parent"]}
    for name, row in table.items():
        quart = lambda q: f"[{q[0]:.4g}, {q[2]:.4g}]"
        print(f"{name}: parent {row['parent_median']:.4g} {quart(row['parent_quartiles'])} "
              f"change {row['change_median']:.4g} {quart(row['change_quartiles'])}, "
              f"change wins {row['change_wins']}/{row['rounds']}, ratio {row['ratio']:.3f}")
    if args.out:
        args.out.write_text(json.dumps({"rounds": args.rounds, "steps": args.steps,
                                        "table": table, "samples": samples}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
