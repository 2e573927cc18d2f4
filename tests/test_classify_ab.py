"""tools/classify_ab.py on this tree loaded under both module names."""

import importlib.util
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_ROOT / "tools"))  # the tool imports step_ab's loader
_SPEC = importlib.util.spec_from_file_location("classify_ab", _ROOT / "tools" / "classify_ab.py")
classify_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(classify_ab)


def test_inputs_cover_every_spelling_and_the_boundaries():
    cases = classify_ab.inputs()
    assert len(cases) >= 30_000
    spellings = {basis for basis, _ in cases}
    assert spellings == {s for group in classify_ab.SPELLINGS.values() for s in group} | set(
        classify_ab.UNKNOWN)
    assert any(kw.get("dimension") is True for _, kw in cases)
    assert any(kw.get("vartheta") != kw.get("vartheta") for _, kw in cases)  # NaN


def test_one_tree_against_itself_differs_nowhere(monkeypatch, capsys):
    sample = classify_ab.inputs()[::40]  # every 40th input and every command line
    monkeypatch.setattr(classify_ab, "inputs", lambda: sample)
    try:
        assert classify_ab.main(["--parent", str(_ROOT), "--change", str(_ROOT)]) == 0
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] in ("tula_parent", "tula_change")]:
            del sys.modules[name]
    out = capsys.readouterr().out.splitlines()
    assert out == [f"{len(sample)} inputs and {len(classify_ab.COMMANDS)} command lines, 0 differ"]
