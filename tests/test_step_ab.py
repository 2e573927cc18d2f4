"""tools/step_ab.py on this tree loaded under both module names."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("step_ab", _ROOT / "tools" / "step_ab.py")
step_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(step_ab)


def test_compare_counts_wins_and_takes_the_median_ratio():
    row = step_ab.compare([2.0, 4.0, 6.0], [1.0, 5.0, 3.0])
    assert (row["parent_median"], row["change_median"]) == (4.0, 3.0)
    assert row["change_wins"] == 2 and row["rounds"] == 3
    assert row["ratio"] == pytest.approx(0.75)


def test_two_aliases_report_every_measurement(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(step_ab, "MIN_SECONDS", 0.0)  # one kernel call per sample
    out = tmp_path / "ab.json"
    try:
        assert step_ab.main(["--parent", str(_ROOT), "--change", str(_ROOT), "--rounds", "2",
                             "--steps", "2", "--out", str(out)]) == 0
        # the two trees' modules are separate objects, not one cached import
        assert sys.modules["tula_parent.transform"] is not sys.modules["tula_change.transform"]
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] in ("tula_parent", "tula_change")]:
            del sys.modules[name]
    doc = json.loads(out.read_text())
    names = {f"{case} {what}" for case in ("t2_3", "example6_d2")
             for what in ("grad_factor_ns_per_radius.bulk", "grad_factor_ns_per_radius.tail",
                          "bulk_jet_ns_per_radius.float", "tail_jet_ns_per_radius.float",
                          "g_inverse_ns_per_value", "hessian_eigenvalues_ns_per_radius")}
    # example3 at d = 5, the closed pairing whose phi runs log1p, only steps and
    # takes gradients
    names |= {f"{case} {what}" for case in ("t2_3", "example6_d2", "example3_d5")
              for what in ("run_tula_us_per_step", "transformed_gradient_us_per_call",
                           "transformed_gradient_us_per_call.tail",
                           "grad_factor_us_per_radius.float.bulk",
                           "grad_factor_us_per_radius.float.tail",
                           "factor_us_per_radius.bulk", "factor_us_per_radius.tail")}
    names |= {"t2_3 run_tula_us_per_step.chains2", "example6_d2 run_tula_us_per_step.chains16",
              "t2_3 write_chain_csv_ms", "example3_d2_ginbeta2 run_tula_us_per_step",
              "example3_d2_ginbeta2 grad_factor_us_per_radius.float.bulk",
              "example3_d2_ginbeta2 grad_factor_us_per_radius.float.tail",
              "example3_d2_ginbeta2 factor_us_per_radius.bulk",
              "example3_d2_ginbeta2 factor_us_per_radius.tail"}
    assert set(doc["table"]) == names
    for name, row in doc["table"].items():
        assert row["rounds"] == 2 and 0 <= row["change_wins"] <= 2 and row["ratio"] > 0
        assert len(doc["samples"]["parent"][name]) == len(doc["samples"]["change"][name]) == 2
    assert len(capsys.readouterr().out.splitlines()) == len(names)
