"""The tools under tools/ regenerate tests/fixtures/mini byte for byte."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "mini"


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_tools_regenerate_the_mini_fixture(tmp_path, monkeypatch, capsys):
    for name in ("make_mini_fixture", "bruteforce_expected"):  # the second reads the first's truth
        tool = _load_tool(name)
        monkeypatch.setattr(tool, "FIXTURE_DIR", tmp_path)
        tool.main()
    expected = _files(FIXTURE)
    assert len(expected) == 16
    assert _files(tmp_path) == expected
