"""Before/after benchmark pairs of two tula source trees.

    python3 tools/bench_pairs.py --parent PARENT_TREE --change CHANGE_TREE \
        --workload t2_3-sample-cli --pairs 10 --first-seed 501 --out BENCH_4.json

Runs ``perfbench/run.py --trace 0`` on both trees for ``--pairs`` seeds
(``first-seed``, ``first-seed + 1``, ...), alternating which tree runs
first, then, unless ``--trace-seed`` is negative, TRACE_RUNS ``--trace 1``
runs of each tree on the seeds ``trace-seed``, ``trace-seed + 1``, ...,
again alternating which tree runs first.  Each tree runs its own ``perfbench/`` from its own root.  For
every end-to-end metric the output records the per-pair values, both
medians, both quartiles, the parent's interquartile range and the number
of pairs the change won (ties count for neither side), whether the
change's median is worse than the parent's by more than the metric's
relative bound in ``BENCHMARK.json`` (``beyond_bound``), and whether the
comparison is ``unresolved``: the parent's interquartile range exceeds
that bound times the parent's median and not every change run is better
than every parent run, so the runs spread too widely to call the metric
unchanged.  For each side it records the summed ``attempted`` and
``failed`` operations, the number of runs
that reported ``correct: false`` and the pass count of every run (with
its median).  ``peak_rss_mb`` grows with the pass count, since the worker
keeps every pass's outputs and the pooled check of a sampling workload
copies every pass's samples at the end of a run: a least-squares line of ``peak_rss_mb`` against the pass
count over all runs gives the harness's memory per pass (slope) and what
is left at zero passes (intercept), and each side's median RSS moved along
that line to the parent's median pass count compares the two programs at
equal harness memory.  The same line gives the RSS headroom: the pass
count at which it reaches the parent's median ``peak_rss_mb`` times one
plus the metric's bound, and that count over the parent's median pass
count, the pass speed-up that fits before the harness alone fails the
memory bound.  Next to it stand the change's median pass count over the
parent's (``pass_ratio``) and ``over_headroom``, true when that ratio
exceeds the speed-up that fits, so a faster change shows when its extra
passes alone reach the memory bound.  For the traced runs it records each
side's median of every per-layer metric named in TRACED, beside the run
count and seeds, since a single traced run per side spreads too widely
to compare.  Results of several workloads
accumulate in one ``--out`` file, one entry per workload.  The exit status is 1 when any run, traced or not,
reported ``correct: false``.  Each invocation leads its own session, and
when the tool is stopped (SIGTERM or Ctrl-C) or an invocation fails, the
invocation's whole process group is killed, so no ``worker.py`` or
``speedometer.py`` outlives it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

TRACED = (
    "dynamics.grad_factor_ns_per_radius.bulk",
    "dynamics.grad_factor_ns_per_radius.tail",
    "dynamics.transformed_gradient_us_per_call",
    "dynamics.hessian_eigenvalues_ns_per_radius",
    "transform.h_forward.calls",
    "transform.h_forward_ns_per_point",
    "transform.g_inverse_ns_per_point",
)
TRACE_RUNS = 3


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark invocation: its result line (the last stdout line) and the
    number of passes its report line (the one before) counts.  Its output goes
    to temporary files, so the wait ends when ``run.py`` exits, even while a
    child that inherited its output lives on."""
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=tree, stdout=out, stderr=err, start_new_session=True,
        )
        try:
            proc.wait()
        finally:
            if proc.returncode != 0:  # stopped or failed: end the children it started too
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    if proc.returncode != 0:
        raise RuntimeError(f"{tree} seed {seed} trace {trace}: exit {proc.returncode}\n{stderr}")
    lines = stdout.strip().splitlines()
    line = json.loads(lines[-1])
    passes = json.loads(lines[-2])["report"]["wall_s"]["n"]
    values = {name: m["value"] for name, m in line["metrics"].items()}
    print(f"{tree.name} seed {seed} trace {trace}: correct={line['correct']} "
          + " ".join(f"{k}={v:.4g}" + (f" passes={passes}" if k == "peak_rss_mb" else "")
                     for k, v in values.items() if trace == 0 or k in TRACED),
          flush=True)
    return {"correct": line["correct"], "attempted": line["attempted"],
            "failed": line["failed"], "passes": passes, "metrics": values}


def rss_fit(pairs: list[dict], at_passes: float) -> dict | None:
    """The least-squares line of ``peak_rss_mb`` against the pass count over
    every run of both sides, and each side's median of ``peak_rss_mb`` moved
    along it to ``at_passes``; None without two distinct pass counts."""
    runs = {side: [(p[side]["passes"], p[side]["metrics"]["peak_rss_mb"]) for p in pairs
                   if "passes" in p[side] and "peak_rss_mb" in p[side]["metrics"]]
            for side in ("parent", "change")}
    points = runs["parent"] + runs["change"]
    if len({n for n, _ in points}) < 2:
        return None
    slope, intercept = statistics.linear_regression(*zip(*points))
    return {"slope_mb_per_pass": slope, "intercept_mb": intercept, "at_passes": at_passes,
            "rss_at_passes": {side: statistics.median(rss - slope * (n - at_passes)
                                                      for n, rss in side_runs)
                              for side, side_runs in runs.items() if side_runs}}


def rss_headroom(fit: dict, parent_median_mb: float, bound: float) -> dict | None:
    """Where the line of :func:`rss_fit` reaches ``parent_median_mb * (1 +
    bound)``: that limit, the pass count there and its ratio to the parent's
    median pass count (the speed-up that fits); None when the line does not
    grow."""
    if fit["slope_mb_per_pass"] <= 0.0:
        return None
    limit = parent_median_mb * (1.0 + bound)
    passes = (limit - fit["intercept_mb"]) / fit["slope_mb_per_pass"]
    return {"limit_mb": limit, "passes": passes, "speedup": passes / fit["at_passes"]}


def summarize(spec: dict, pairs: list[dict]) -> dict:
    """Per-side operation and pass counts, per-metric comparisons of the
    pairs and the RSS-against-passes line (:func:`rss_fit`, at the parent's
    median pass count).
    """
    out = {"operations": {}, "passes": {}, "end_to_end": {}}
    for side in ("parent", "change"):
        runs = [p[side] for p in pairs]
        out["operations"][side] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "incorrect_runs": sum(not r["correct"] for r in runs),
        }
        counts = [r["passes"] for r in runs if "passes" in r]
        out["passes"][side] = {"runs": counts,
                               "median": statistics.median(counts) if counts else None}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        pm, cm = statistics.median(parent), statistics.median(change)
        worse = (cm - pm) if lower else (pm - cm)
        entry = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                 "parent": parent, "change": change, "change_wins": wins,
                 "parent_median": pm, "change_median": cm,
                 "beyond_bound": worse > metric["bound"] * abs(pm)}
        if len(pairs) >= 2:  # quartiles by statistics.quantiles' exclusive method
            pq, cq = statistics.quantiles(parent, n=4), statistics.quantiles(change, n=4)
            iqr = pq[2] - pq[0]
            beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
            entry.update(parent_quartiles=pq, change_quartiles=cq, parent_iqr=iqr,
                         unresolved=iqr > metric["bound"] * abs(pm) and not beats_all)
        out["end_to_end"][name] = entry
    if out["passes"]["parent"]["median"] is not None:
        fit = out["rss_fit"] = rss_fit(pairs, out["passes"]["parent"]["median"])
        rss = out["end_to_end"].get("peak_rss_mb")
        if fit and rss:
            room = fit["headroom"] = rss_headroom(fit, rss["parent_median"], rss["bound"])
            if room:
                ratio = out["passes"]["change"]["median"] / out["passes"]["parent"]["median"]
                room.update(pass_ratio=ratio, over_headroom=ratio > room["speedup"])
    return out


def _stop(signum, frame):
    """SIGTERM as an exception, so that :func:`run` kills the running invocation's group."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace-seed", type=int, default=-1,
                        help="first seed of the traced runs per tree; negative skips them")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())

    pairs = []
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run(trees[side], args.workload, seed, args.seconds, 0)
        pairs.append(pair)
    entry = {"seconds": args.seconds, "pairs": pairs, **summarize(spec, pairs)}
    all_correct = not any(o["incorrect_runs"] for o in entry["operations"].values())
    if args.trace_seed >= 0:
        seeds = [args.trace_seed + i for i in range(TRACE_RUNS)]
        traced = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                traced[side].append(run(trees[side], args.workload, seed, args.seconds, 1))
        entry["traced"] = {"seeds": seeds, "runs": TRACE_RUNS}
        for side, runs in traced.items():
            entry["traced"][side] = {
                "correct": all(r["correct"] for r in runs),
                **{k: statistics.median(r["metrics"][k] for r in runs) for k in TRACED}}
            all_correct = all_correct and entry["traced"][side]["correct"]

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("machine", {"python": platform.python_version(),
                               "platform": platform.platform(),
                               "cpus": len(os.sched_getaffinity(0))})
    doc.setdefault("workloads", {})[args.workload] = entry
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    passes = entry["passes"]
    for name, m in entry["end_to_end"].items():
        print(f"{args.workload} {name}: parent {m['parent_median']:.4g} change "
              f"{m['change_median']:.4g} {m['unit']}, change wins {m['change_wins']}/{len(pairs)}"
              + (f", parent IQR {m['parent_iqr']:.3g}" if "parent_iqr" in m else "")
              + f", beyond the {m['bound']:.0%} bound: {m['beyond_bound']}"
              + (f", unresolved: {m['unresolved']}" if "unresolved" in m else "")
              + (f", median passes parent {passes['parent']['median']} change "
                 f"{passes['change']['median']}" if name == "peak_rss_mb" else ""))
    fit = entry.get("rss_fit")
    if fit:
        print(f"{args.workload} peak_rss_mb = {fit['intercept_mb']:.4g} MB + "
              f"{1024 * fit['slope_mb_per_pass']:.4g} KB per pass; at {fit['at_passes']} passes "
              + ", ".join(f"{side} {v:.4g} MB" for side, v in fit["rss_at_passes"].items()))
        room = fit.get("headroom")
        print(f"{args.workload} peak_rss_mb headroom: " + (
            f"the line reaches {room['limit_mb']:.4g} MB (the parent's median times 1 + bound) "
            f"at {room['passes']:.1f} passes, so a pass up to {room['speedup']:.2f}x faster "
            f"than the parent's fits; the change ran {room['pass_ratio']:.2f}x the parent's "
            f"median passes, over the headroom: {room['over_headroom']}"
            if room else "the line does not grow"))
    ops = entry["operations"]
    print(f"{args.workload} operations: " + ", ".join(
        f"{side} failed {o['failed']}/{o['attempted']} ({o['incorrect_runs']} incorrect runs)"
        for side, o in ops.items()))
    if not all_correct:
        print(f"{args.workload}: a run reported correct: false", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _stop)
    sys.exit(main())
