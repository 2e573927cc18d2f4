"""Benchmark of the tula package: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a source tree (the directory holding `src/tula` and
`BENCHMARK.json`).  Every measurement runs in a fresh interpreter
(`worker.py`) with `src` on the path and `TULA_THREADS` removed from the
environment, so the package's default scheduling (one thread-pool worker
per CPU the OS reports) is what gets measured.  The worker pins itself to
one CPU: unpinned, the two chain threads of a pass took 1.05 s or 1.6 s or
2.0 s on the same inputs depending on where the OS placed them.

* `--trace 0` runs the workload untraced for S seconds and reports the
  end-to-end metrics of `BENCHMARK.json`; set-up is measured in that process
  and in SETUP_PROBES more fresh ones, and the median is reported.
* `--trace 1` runs it untraced for S/2 seconds and then traced for S/2
  seconds, and reports the per-layer metrics, including the tracing
  overhead (traced minus untraced median pass time).

`wall_s`, `setup_s`, the traced pass times and the `chain_steps_per_s` of
the report line are in reference-speed seconds: every worker and
`speedometer.py` share one CPU, and each measured time is scaled by
REFERENCE_SAMPLE_S over the median speedometer sample taken during it.  On
a shared host each vCPU changes speed by up to a factor of two from second
to second; unscaled, the median pass time of a run moved by 10-40 % between
runs.  The raw seconds are in the report line.

The second-to-last line of standard output is a detailed report (machine
facts, every pass, every check, the absolute per-layer seconds); the last
line is the result object.  Both are also written to `.perfbench-out/`.
Output of the program under test and temporary files stay in that
directory.  `--tiny` shrinks every workload for the smoke test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SETUP_PROBES = 4
DEADLINE_S = 170.0
# speedometer sample time at the reference speed (the median on the
# machine the benchmark was written on); it only sets the scale
REFERENCE_SAMPLE_S = 300e-6


class WorkerError(RuntimeError):
    pass


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = root / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def machine_facts(root: Path, tula_threads: str | None) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "tula_threads": tula_threads,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
    }


def _start_speedometer(path: Path, cpu: int) -> subprocess.Popen:
    path.unlink(missing_ok=True)
    proc = subprocess.Popen([sys.executable, str(BENCH / "speedometer.py"), str(cpu),
                             str(path), str(DEADLINE_S + 10.0)])
    limit = time.monotonic() + 10.0
    while not (path.is_file() and path.stat().st_size) and time.monotonic() < limit:
        time.sleep(0.01)
    return proc


def _stop(proc: subprocess.Popen) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def _ref_seconds(samples: list[tuple[float, float]], seconds: float, window) -> float:
    """`seconds` measured inside `window`, scaled to the reference speed by
    the median speedometer sample in the window (widened to three samples
    for windows shorter than the sampling period)."""
    start, end = window
    pad = 0.0
    while True:
        inside = [d for t, d in samples if start - pad <= t <= end + pad]
        if len(inside) >= 3 or pad > 10.0:
            break
        pad += 0.05
    if not inside:
        raise WorkerError("the speedometer recorded no samples")
    return seconds * REFERENCE_SAMPLE_S / statistics.median(inside)


def run_worker(root: Path, env: dict, out_dir: Path, tag: str, args, mode: str,
               seconds: float, deadline: float) -> dict:
    result = out_dir / f"{args.workload}-seed{args.seed}-{tag}.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--mode", mode,
           "--result", str(result), "--cpu", str(args.cpu)]
    if args.tiny:
        cmd.append("--tiny")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("time budget exhausted before the worker started")
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker exceeded the {DEADLINE_S:.0f} s budget")
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(result.read_text())


def _median_wall(worker: dict) -> float:
    return statistics.median(p["wall_ref_s"] for p in worker["passes"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    spec_file = root / "BENCHMARK.json"
    if not (root / "src" / "tula" / "__init__.py").is_file() or not spec_file.is_file():
        print("error: run from the root of a tula source tree (src/tula and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0 or not args.seconds > 0:
        print("error: --seed must be >= 0 and --seconds positive", file=sys.stderr)
        return 2

    out_dir = root / ".perfbench-out"
    (out_dir / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    tula_threads = env.pop("TULA_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = str(out_dir / "tmp")

    def worker(tag: str, mode: str, seconds: float) -> dict:
        return run_worker(root, env, out_dir, tag, args, mode, seconds, deadline)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    args.cpu = min(os.sched_getaffinity(0))
    speed_log = out_dir / f"{stem}-speed.log"
    speedometer = _start_speedometer(speed_log, args.cpu)
    try:
        if args.trace == 0:
            setups = [worker(f"setup{i}", "setup", 0)
                      for i in range(1 if args.tiny else SETUP_PROBES)]
            plain = worker("run", "run", args.seconds)
            workers = [plain]
            setups.append(plain)
        else:
            plain = worker("run", "run", args.seconds / 2)
            traced = worker("trace", "trace", args.seconds / 2)
            workers = setups = [plain, traced]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        _stop(speedometer)

    samples = [tuple(map(float, line.split())) for line in speed_log.read_text().splitlines()]
    for w in {id(w): w for w in setups + workers}.values():
        w["setup_ref_s"] = _ref_seconds(samples, w["setup_s"], w["setup_window"])
        for p in w.get("passes", ()):
            p["wall_ref_s"] = _ref_seconds(samples, p["wall_s"], p["window"])
            if "run_tula_s" in p:
                p["run_tula_ref_s"] = _ref_seconds(samples, p["run_tula_s"],
                                                   p["run_tula_window"])
    if args.trace == 0:
        metrics = {
            "wall_s": _median_wall(plain),
            "setup_s": statistics.median(w["setup_ref_s"] for w in setups),
            "peak_rss_mb": plain["peak_rss_mb"],
        }
    else:
        metrics = dict(traced["layers"])
        metrics["trace.wall_s"] = _median_wall(traced)
        metrics["trace.overhead_s"] = _median_wall(traced) - _median_wall(plain)
        metrics["cli.import_s"] = traced["cli.import_s"]
        metrics["targets.make_example_s"] = traced["targets.make_example_s"]

    checks = [c for w in workers for c in w["checks"]]
    failed = sum(not c["ok"] for c in checks)
    leaked = plain["wrappers_installed"]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    walls = [p["wall_s"] for p in plain["passes"]]
    timed = [p for p in plain["passes"] if "run_tula_s" in p]
    chain_steps = sum(p["chain_steps"] for p in timed)
    run_tula_ref_s = sum(p["run_tula_ref_s"] for p in timed)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(root, tula_threads),
        "versions": plain["versions"],
        "wall_s": {"median": statistics.median(walls), "max": max(walls), "n": len(walls)},
        "wall_ref_s": {"median": _median_wall(plain),
                       "max": max(p["wall_ref_s"] for p in plain["passes"])},
        "cpu": args.cpu,
        "speed_samples": len(samples),
        "setup_s": {"median": statistics.median(w["setup_s"] for w in setups),
                    "max": max(w["setup_s"] for w in setups), "n": len(setups)},
        "setup_ref_s": {"median": statistics.median(w["setup_ref_s"] for w in setups),
                        "max": max(w["setup_ref_s"] for w in setups)},
        # chains x steps over the time around the run_tula call, where the
        # workload calls it directly
        "chain_steps_per_s": chain_steps / run_tula_ref_s if timed else None,
        "failed_ratio": failed / len(checks),
        "untraced_wrappers": leaked,
        "workers": workers,
    }
    line = {
        "correct": failed == 0 and not leaked,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    (out_dir / f"{stem}.report.json").write_text(json.dumps(report, indent=1))
    (out_dir / f"{stem}.result.json").write_text(json.dumps(line))
    print(json.dumps({"report": report}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
