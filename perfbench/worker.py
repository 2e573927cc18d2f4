"""One benchmark process: timed import and set-up, then timed passes.

`run.py` starts this script in a fresh interpreter for every measurement:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode {setup,run,trace} --result FILE --cpu C [--tiny]

`setup` only imports and builds; `run` repeats passes for S seconds with
no wrappers installed; `trace` does the same under a `tracing.Tracer` and
then runs the kernel probes.  The process pins itself to CPU C first.  The
result is one JSON object in FILE, with the `time.perf_counter` window of
set-up and of every pass, and a traced run also writes its spans next to
it.  Nothing but the standard library is imported before the timed import
of the package.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

# Layer time per pass: (kind, span or counter name), where kind is the total
# or self time of a span or the time of a counted call.  Each label gives
# the per-layer metric LABEL_pct (share of traced pass time) and the detail
# value LABEL_s_per_pass (median over passes).
LAYERS = {
    "sampler.run_tula": ("total", "sampler.run_tula"),
    "sampler.run_tula_self": ("self", "sampler.run_tula"),
    "dynamics.transformed_gradient": ("counted", "dynamics.transformed_gradient"),
    "transform.h_forward": ("counted", "transform.h_forward"),
    "analysis.radial_diagnostics": ("total", "analysis.radial_diagnostics"),
    "analysis.radial_diagnostics_self": ("self", "analysis.radial_diagnostics"),
    "sampler.write_chain_csv": ("total", "sampler.write_chain_csv"),
    "sampler.run_summary": ("total", "sampler.run_summary"),
    "cli.sample_self": ("self", "cli.main"),
    **{f"analysis.check.{a}": ("total", f"analysis.check.{a}")
       for a in ("A1", "A2", "A3", "A4", "A5")},
    "analysis.estimate_lsi": ("total", "analysis.estimate_lsi"),
    "cli.run_gradient_suite": ("total", "cli.run_gradient_suite"),
    "analysis.quadrature_build": ("total", "analysis.quadrature_build"),
    "analysis.sf": ("total", "analysis.sf"),
}


def _pick(entry: dict, kind: str, name: str) -> float:
    return {"total": entry["total_s"], "self": entry["self_s"],
            "counted": entry["counted_s"]}[kind].get(name, 0.0)


def _layers(tracer, facts: list[dict], expected: tuple[str, ...]) -> tuple[dict, dict]:
    """(per-layer metrics for the result line, absolute detail).  Raises if
    a layer of `expected` (LAYERS labels) recorded no time: the call site a
    wrapper sits on has moved, and the layer would read as zero."""
    per_pass = tracer.per_pass()
    n = len(per_pass)
    wall = sum(p["wall_s"] for p in per_pass)

    def mean(values) -> float:
        return sum(values) / n

    runs = [p["run"] for p in per_pass]
    iterates = sum(r.get("iterates", 0) for r in runs)
    builds = tracer.durations("analysis.quadrature_build")
    sf = tracer.durations("analysis.sf")
    layers = {
        "analysis.quadrature_build_s": statistics.median(builds) if builds else 0.0,
        "analysis.quadrature.builds": len(builds) / n,
        "analysis.sf.calls": len(sf) / n,
        "analysis.sf_ms_per_query": 1e3 * sum(sf) / len(sf) if sf else 0.0,
        "dynamics.transformed_gradient.calls":
            mean(p["calls"].get("dynamics.transformed_gradient", 0) for p in per_pass),
        "transform.h_forward.calls":
            mean(p["calls"].get("transform.h_forward", 0) for p in per_pass),
        "sampler.chain_steps": mean(r.get("chain_steps", 0) for r in runs),
        "sampler.bulk_fraction":
            sum(r.get("bulk_iterates", 0) for r in runs) / iterates if iterates else 0.0,
        "sampler.diverged_chains": sum(r.get("diverged", 0) for r in runs),
        "sampler.csv_bytes": mean(f.get("csv_bytes", 0) for f in facts),
    }
    seen = {name for p in per_pass for name in (*p["total_s"], *p["counted_s"])}
    missing = [label for label in expected if LAYERS[label][1] not in seen]
    if missing:
        raise RuntimeError(f"traced passes recorded nothing in layers {missing}")
    detail = {}
    for label, (kind, name) in LAYERS.items():
        layers[f"{label}_pct"] = 100.0 * sum(_pick(p, kind, name) for p in per_pass) / wall
        detail[f"{label}_s_per_pass"] = (
            statistics.median(_pick(p, kind, name) for p in per_pass) if name in seen else None
        )
    self_per_step = [
        1e6 * _pick(p, "self", "sampler.run_tula") / p["run"]["chain_steps"]
        for p in per_pass if p["run"].get("chain_steps")
    ]
    detail["sampler.run_tula_self_us_per_chain_step"] = (
        statistics.median(self_per_step) if self_per_step else None
    )
    return layers, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--cpu", type=int, required=True, help="CPU to pin the process to")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    os.sched_setaffinity(0, {args.cpu})
    setup_start = time.perf_counter()
    import tula.cli  # noqa: F401  (numpy, scipy and every tula module)
    import_s = time.perf_counter() - setup_start

    import numpy
    import scipy

    import tracing
    import workloads

    scratch = args.result.parent
    start = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](scratch, args.tiny)
    build_s = time.perf_counter() - start
    result = {
        "mode": args.mode,
        "setup_s": import_s + build_s,
        "setup_window": [setup_start, setup_start + import_s + build_s],
        "cli.import_s": import_s,
        "targets.make_example_s": build_s,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if args.mode == "setup":
        args.result.write_text(json.dumps(result))
        return 0

    tracer = tracing.Tracer() if args.mode == "trace" else tracing.NullTracer()
    if args.mode == "trace":
        tracer.install()
    result["wrappers_installed"] = tracing.installed_wrappers()

    passes, facts, checks, outputs = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    index = 0
    while True:
        start = time.perf_counter()
        with tracer.span("pass"):
            out = workload.run_pass(args.seed * 1000 + index, tracer)
        window = [start, time.perf_counter()]
        pass_checks, pass_facts = workload.check_pass(out)
        checks += pass_checks
        facts.append(pass_facts)
        passes.append({"wall_s": out["wall_s"], "window": window,
                       "chain_steps": out["chain_steps"],
                       "failed": [c.name for c in pass_checks if not c.ok]})
        if "run_tula_s" in out:
            passes[-1]["run_tula_s"] = out["run_tula_s"]
            passes[-1]["run_tula_window"] = out["run_tula_window"]
        outputs.append(out)
        index += 1
        if time.perf_counter() >= deadline:
            break
    checks += workload.check_run(outputs)

    if args.mode == "trace":
        tracer.uninstall()
        import probes

        result["layers"], result["detail"] = _layers(tracer, facts, workload.layers)
        result["layers"].update(probes.run_probes(workload.tp))
        spans = args.result.with_name(args.result.stem + "-spans.json")
        spans.write_text(json.dumps(tracer.span_rows()))
        result["spans_file"] = spans.name

    result.update(
        passes=passes,
        facts=facts,
        checks=[{"name": c.name, "ok": bool(c.ok), "detail": c.detail} for c in checks],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
