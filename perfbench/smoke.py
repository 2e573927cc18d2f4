"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py        (from the root of the source tree)

Runs every workload at tiny size, untraced and traced, and checks that the
result line names every metric of BENCHMARK.json with its unit, that the
correctness oracles ran and passed, that the untraced run installed no
wrappers and the traced run every one, and that the benchmark refuses to
run without the package source.  Takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from tracing import PATCHES

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# oracle checks each workload must report, by name prefix
ORACLES = {
    "t2_3-sample-cli": ("exit_code", "csv_rows", "mean_radius", "tail_probability",
                        "diagnostics_match_csv", "quadrature_references", "chain0_finite"),
    "gauss6-d2-chains16": ("euler_law_ks", "chain15_finite"),
    "audit-a1a5-lsi": ("t3_2.A5.flag", "example3_d4.A1.constants",
                       "example3_d4.lsi_closed_form", "example5_d3.gradient_suite"),
}


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_workload(workload: str, trace: int) -> None:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    names = [c["name"] for w in report["workers"] for c in w["checks"]]
    for oracle in ORACLES[workload]:
        assert any(n.startswith(oracle) for n in names), (workload, oracle)
    assert report["untraced_wrappers"] == []
    if trace:
        want = sorted(f"{owner}.{attr}" for owner, attr, _, _ in PATCHES)
        assert sorted(report["workers"][1]["wrappers_installed"]) == want, "wrappers missing"
        assert report["workers"][1]["detail"], "traced run reported no layer detail"
    print(f"ok  {workload} trace={trace}: {result['attempted']} checks, "
          f"{len(result['metrics'])} metrics")


def check_refuses_without_source() -> None:
    bare = ROOT / ".perfbench-out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = _run(SPEC["workloads"][0]["name"], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok  refuses to run without src/tula")


def main() -> int:
    for workload in ORACLES:
        for trace in (0, 1):
            check_workload(workload, trace)
    check_refuses_without_source()
    return 0


if __name__ == "__main__":
    sys.exit(main())
