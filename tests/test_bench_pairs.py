"""The before/after summary of tools/bench_pairs.py on synthetic pairs."""

import importlib.util
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _run(wall, rss, attempted, failed, correct=True):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"wall_s": wall, "peak_rss_mb": rss}}


def test_summarize_counts_operations_and_compares_metrics():
    spec = {"end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    ]}
    pairs = [
        {"seed": 1, "first": "parent", "parent": _run(2.0, 90.0, 10, 0),
         "change": _run(1.0, 91.0, 12, 1)},
        {"seed": 2, "first": "change", "parent": _run(3.0, 90.0, 10, 0),
         "change": _run(3.0, 89.0, 12, 0, correct=False)},
        {"seed": 3, "first": "parent", "parent": _run(4.0, 92.0, 11, 2),
         "change": _run(5.0, 92.0, 12, 0)},
    ]
    out = bench_pairs.summarize(spec, pairs)
    assert out["operations"] == {
        "parent": {"attempted": 31, "failed": 2, "incorrect_runs": 0},
        "change": {"attempted": 36, "failed": 1, "incorrect_runs": 1},
    }
    wall = out["end_to_end"]["wall_s"]
    assert wall["parent"] == [2.0, 3.0, 4.0] and wall["change"] == [1.0, 3.0, 5.0]
    assert wall["change_wins"] == 1  # the tie at seed 2 counts for neither side
    assert (wall["parent_median"], wall["change_median"]) == (3.0, 3.0)
    assert wall["parent_iqr"] == pytest.approx(2.0)  # exclusive quartiles 2 and 4
    rss = out["end_to_end"]["peak_rss_mb"]
    assert rss["change_wins"] == 1 and rss["change_median"] == 91.0
    assert rss["bound"] == 0.1 and rss["unit"] == "MB"


# a fake perfbench/run.py that starts one sleeping child, writes the child's
# pid to child.pid and then sleeps too, or exits 1 when given "--seed 0"; the
# child's output goes to /dev/null or, with `inherit`, to run.py's own
_SLEEPER = (
    "import pathlib, subprocess, sys, time\n"
    "child = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)']{streams})\n"
    "pathlib.Path('child.pid').write_text(str(child.pid))\n"
    "sys.exit(1) if sys.argv[sys.argv.index('--seed') + 1] == '0' else time.sleep(60)\n"
)


def _sleeper_tree(root: Path, inherit: bool = False) -> Path:
    run_py = root / "perfbench" / "run.py"
    run_py.parent.mkdir(parents=True)
    run_py.write_text(_SLEEPER.format(
        streams="" if inherit else ", stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL"))
    (root / "BENCHMARK.json").write_text('{"end_to_end": []}')
    return root


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs (a zombie left for its reaper does not)."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, IndexError):
        return False


def _ended(pid: int) -> bool:
    deadline = time.monotonic() + 10.0
    while _alive(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    if _alive(pid):
        os.kill(pid, signal.SIGKILL)
        return False
    return True


def test_a_failed_invocation_leaves_no_child(tmp_path):
    """An invocation that exits nonzero raises, and the child it started is
    killed with its process group."""
    tree = _sleeper_tree(tmp_path)
    with pytest.raises(RuntimeError, match="seed 0 trace 0: exit 1"):
        bench_pairs.run(tree, "w", seed=0, seconds=1.0, trace=0)
    assert _ended(int((tree / "child.pid").read_text()))


def test_a_failed_invocation_raises_while_its_child_holds_the_output(tmp_path):
    """The wait is for run.py, not for end-of-file on its output: a child
    that inherited that output and sleeps on neither delays the raise nor
    outlives it."""
    tree = _sleeper_tree(tmp_path, inherit=True)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="seed 0 trace 0: exit 1"):
        bench_pairs.run(tree, "w", seed=0, seconds=1.0, trace=0)
    assert time.monotonic() - start < 10.0
    assert _ended(int((tree / "child.pid").read_text()))


def test_sigterm_stops_the_running_invocation_and_its_children(tmp_path):
    """SIGTERM to the tool kills the running invocation's process group:
    the fake run.py and the child it started end with it."""
    tree = _sleeper_tree(tmp_path)
    tool = subprocess.Popen([sys.executable, str(_PATH), "--parent", str(tree), "--change",
                             str(tree), "--workload", "w", "--pairs", "1", "--first-seed", "1",
                             "--out", str(tmp_path / "pairs.json")],
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        pid_file, deadline = tree / "child.pid", time.monotonic() + 20.0
        while not pid_file.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        child = int(pid_file.read_text())
        tool.send_signal(signal.SIGTERM)
        assert tool.wait(timeout=10.0) == 128 + signal.SIGTERM
    finally:
        if tool.poll() is None:
            tool.kill()
        tool.wait()
    assert _ended(child)


def test_run_records_the_pass_count(tmp_path, capsys):
    """`run` reads the pass count from the report line before the result
    line, and `summarize` lists and medians it per side."""
    fake = tmp_path / "perfbench" / "run.py"
    fake.parent.mkdir()
    fake.write_text(
        "import json\n"
        "print(json.dumps({'report': {'wall_s': {'median': 0.5, 'max': 0.7, 'n': 42}}}))\n"
        "print(json.dumps({'correct': True, 'attempted': 3, 'failed': 0, 'metrics': {\n"
        "    'wall_s': {'value': 0.5}, 'peak_rss_mb': {'value': 60.0}}}))\n"
    )
    res = bench_pairs.run(tmp_path, "any", seed=1, seconds=1.0, trace=0)
    assert res["passes"] == 42 and res["metrics"] == {"wall_s": 0.5, "peak_rss_mb": 60.0}
    assert "peak_rss_mb=60 passes=42" in capsys.readouterr().out

    spec = {"end_to_end": [{"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]}
    pairs = [{"seed": s, "first": "parent", "parent": {**res, "passes": n},
              "change": {**res, "passes": 2 * n}} for s, n in ((1, 10), (2, 30), (3, 20))]
    out = bench_pairs.summarize(spec, pairs)
    assert out["passes"] == {"parent": {"runs": [10, 30, 20], "median": 20},
                             "change": {"runs": [20, 60, 40], "median": 40}}


def test_main_prints_the_pass_ratio_against_the_headroom(tmp_path, capsys):
    """Two fake trees on one line of 0.5 MB per pass over 39 MB: the change
    runs twice the parent's passes, past the 1.1x RSS bound's headroom, and
    the printed headroom line says so."""
    for name, scale in (("parent", 1), ("change", 2)):
        run_py = tmp_path / name / "perfbench" / "run.py"
        run_py.parent.mkdir(parents=True)
        run_py.write_text(
            "import json, sys\n"
            f"n = {scale} * (10 + int(sys.argv[sys.argv.index('--seed') + 1]))\n"
            "print(json.dumps({'report': {'wall_s': {'n': n}}}))\n"
            "print(json.dumps({'correct': True, 'attempted': n, 'failed': 0, 'metrics': {\n"
            "    'peak_rss_mb': {'value': 39.0 + 0.5 * n}}}))\n"
        )
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]}')
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--workload", "w", "--pairs", "3",
                             "--first-seed", "1", "--out", str(out)]) == 0
    room = json.loads(out.read_text())["workloads"]["w"]["rss_fit"]["headroom"]
    assert room["pass_ratio"] == 2.0 and room["over_headroom"] is True
    assert (f"a pass up to {room['speedup']:.2f}x faster than the parent's fits; the change "
            "ran 2.00x the parent's median passes, over the headroom: True"
            in capsys.readouterr().out)


def test_traced_block_is_the_median_of_three_runs_per_side(tmp_path):
    """The per-layer block rests on three traced runs per side, on the seeds
    from --trace-seed on, alternating which side runs first, so that one
    outlying run (here at seed 8) moves neither median."""
    log = tmp_path / "order.log"
    for name, scale in (("parent", 1.0), ("change", 2.0)):
        run_py = tmp_path / name / "perfbench" / "run.py"
        run_py.parent.mkdir(parents=True)
        run_py.write_text(
            "import json, sys\n"
            "seed, trace = (int(sys.argv[sys.argv.index(o) + 1]) for o in ('--seed', '--trace'))\n"
            f"open({str(log)!r}, 'a').write(f'{name} {{seed}} {{trace}}\\n')\n"
            "metrics = {'wall_s': {'value': 0.5}}\n"
            f"if trace:\n    metrics.update({{k: {{'value': {scale} * (1e3 if seed == 8 else seed)}}\n"
            f"                    for k in {bench_pairs.TRACED!r}}})\n"
            "print(json.dumps({'report': {'wall_s': {'n': 5}}}))\n"
            "print(json.dumps({'correct': True, 'attempted': 1, 'failed': 0, 'metrics': metrics}))\n"
        )
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]}')
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--workload", "w", "--pairs", "1",
                             "--first-seed", "1", "--trace-seed", "7", "--out", str(out)]) == 0
    traced = json.loads(out.read_text())["workloads"]["w"]["traced"]
    assert traced["seeds"] == [7, 8, 9] and traced["runs"] == bench_pairs.TRACE_RUNS == 3
    for side, scale in (("parent", 1.0), ("change", 2.0)):
        assert traced[side] == {"correct": True, **{k: 9.0 * scale for k in bench_pairs.TRACED}}
    assert [line for line in log.read_text().splitlines() if line.endswith(" 1")] == [
        "parent 7 1", "change 7 1", "change 8 1", "parent 8 1", "parent 9 1", "change 9 1"]


def test_rss_fit_separates_harness_from_program_memory():
    """The line runs through every run of both sides.  When both sides grow
    0.5 MB per pass and the change sits 2 MB below, moved along that line to
    the parent's median pass count each side reads its program's memory."""
    spec = {"end_to_end": [{"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]}

    def run(passes, rss):
        return {"correct": True, "attempted": 1, "failed": 0, "passes": passes,
                "metrics": {"peak_rss_mb": rss}}

    pairs = [{"seed": s, "first": "parent", "parent": run(n, 40.0 + 0.5 * n),
              "change": run(n + 6, 38.0 + 0.5 * (n + 6))}
             for s, n in ((1, 10), (2, 30), (3, 20), (4, 16))]
    fit = bench_pairs.summarize(spec, pairs)["rss_fit"]
    assert fit["at_passes"] == 18  # the parent's median pass count
    want = statistics.linear_regression([10, 30, 20, 16, 16, 36, 26, 22],
                                        [45, 55, 50, 48, 46, 56, 51, 49])
    assert (fit["slope_mb_per_pass"], fit["intercept_mb"]) == pytest.approx(tuple(want))

    same = [{**p, "change": run(p["parent"]["passes"], p["parent"]["metrics"]["peak_rss_mb"] - 2.0)}
            for p in pairs]
    fit = bench_pairs.summarize(spec, same)["rss_fit"]
    assert fit["slope_mb_per_pass"] == pytest.approx(0.5)
    assert fit["intercept_mb"] == pytest.approx(39.0)
    assert fit["rss_at_passes"] == pytest.approx({"parent": 49.0, "change": 47.0})

    flat = [{**p, "parent": run(20, 50.0), "change": run(20, 49.0)} for p in pairs]
    assert bench_pairs.summarize(spec, flat)["rss_fit"] is None  # one pass count: no line


def test_rss_headroom_from_a_synthetic_fit():
    """A line of 0.5 MB per pass over 39 MB reaches 1.1 times the parent's
    median of 48 MB (52.8 MB) at 27.6 passes; against the parent's median of
    18 passes that leaves a pass speed-up of 27.6 / 18."""
    spec = {"end_to_end": [{"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]}

    def run(passes, rss):
        return {"correct": True, "attempted": 1, "failed": 0, "passes": passes,
                "metrics": {"peak_rss_mb": rss}}

    pairs = [{"seed": s, "first": "parent", "parent": run(n, 39.0 + 0.5 * n),
              "change": run(n, 39.0 + 0.5 * n)} for s, n in ((1, 12), (2, 30), (3, 22), (4, 14))]
    room = bench_pairs.summarize(spec, pairs)["rss_fit"]["headroom"]
    assert room["limit_mb"] == pytest.approx(52.8)
    assert room["passes"] == pytest.approx(27.6)
    assert room["speedup"] == pytest.approx(27.6 / 18)
    assert room["pass_ratio"] == 1.0 and room["over_headroom"] is False

    # on the same line, a change that ran a median of 29 passes (29/18 = 1.61
    # times the parent's) is past the 1.53 speed-up that fits; 27 passes is not
    for change_passes, ratio, over in (((24, 36, 30, 28), 29 / 18, True),
                                       ((24, 34, 28, 26), 27 / 18, False)):
        moved = [{**p, "change": run(n, 39.0 + 0.5 * n)} for p, n in zip(pairs, change_passes)]
        room = bench_pairs.summarize(spec, moved)["rss_fit"]["headroom"]
        assert room["speedup"] == pytest.approx(27.6 / 18)
        assert room["pass_ratio"] == pytest.approx(ratio)
        assert room["over_headroom"] is over

    fit = {"slope_mb_per_pass": 0.0, "intercept_mb": 50.0, "at_passes": 18}
    assert bench_pairs.rss_headroom(fit, 50.0, 0.1) is None  # flat: no pass count reaches it


def test_beyond_bound_compares_medians_against_the_relative_bound():
    """A metric is beyond its bound when the change's median is worse than
    the parent's by more than bound times the parent's median, in the
    direction the metric calls worse; being better never counts."""
    spec = {"end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
        {"name": "steps_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    ]}

    def summary(wall, rss, speed):
        run = lambda w, r, v: {"correct": True, "attempted": 1, "failed": 0,
                               "metrics": {"wall_s": w, "peak_rss_mb": r, "steps_per_s": v}}
        pairs = [{"seed": s, "first": "parent", "parent": run(2.0, 50.0, 100.0),
                  "change": run(wall, rss, speed)} for s in (1, 2, 3)]
        return {name: m["beyond_bound"]
                for name, m in bench_pairs.summarize(spec, pairs)["end_to_end"].items()}

    assert summary(2.4, 54.0, 95.0) == {"wall_s": False, "peak_rss_mb": False,
                                        "steps_per_s": False}
    assert summary(2.6, 55.5, 89.0) == {"wall_s": True, "peak_rss_mb": True,
                                        "steps_per_s": True}
    assert summary(0.5, 20.0, 500.0) == {"wall_s": False, "peak_rss_mb": False,
                                         "steps_per_s": False}


def test_unresolved_when_the_parent_spreads_wider_than_the_bound():
    """A metric is unresolved when the parent's interquartile range exceeds
    bound times its median, unless every change run is better than every
    parent run.  BENCH_9's audit peak_rss_mb (IQR 7.53 MB against a 7.62 MB
    bound) and BENCH_12's gauss6 setup_s (IQR 0.033 s against 0.0425 s)
    sat just inside it."""
    spec = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
                           {"name": "speed", "unit": "1/s", "better": "higher", "bound": 0.1}]}

    def unresolved(parent, change):
        run = lambda v: {"correct": True, "attempted": 1, "failed": 0,
                         "metrics": {"wall_s": v, "speed": v}}
        pairs = [{"seed": s, "first": "parent", "parent": run(p), "change": run(c)}
                 for s, (p, c) in enumerate(zip(parent, change))]
        return {name: m["unresolved"]
                for name, m in bench_pairs.summarize(spec, pairs)["end_to_end"].items()}

    wide = [1.0, 1.2, 1.5, 1.8, 2.0]  # exclusive quartiles 1.1 and 1.9: IQR 0.8 > 0.25 * 1.5
    assert unresolved(wide, [1.4, 1.5, 1.5, 1.6, 1.6]) == {"wall_s": True, "speed": True}
    # every change run better than every parent run, in each metric's direction
    assert unresolved(wide, [0.5, 0.6, 0.7, 0.8, 0.9])["wall_s"] is False
    assert unresolved(wide, [2.1, 2.2, 2.3, 2.4, 2.5])["speed"] is False
    narrow = [1.45, 1.48, 1.5, 1.52, 1.55]  # IQR 0.07 <= 0.1 * 1.5
    assert unresolved(narrow, [1.0, 1.6, 1.9, 2.0, 2.0]) == {"wall_s": False, "speed": False}
