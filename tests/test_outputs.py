"""The committed corpus of CLI outputs (tests/data/outputs.json), replayed in process.

tools/outputs.py lists the cases and writes the corpus; this test runs each
case again, in order, in a fresh directory holding the same input files, and
compares exit codes and digests.
"""

import importlib.util
import json
from pathlib import Path

from helix import cli

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("outputs_tool", ROOT / "tools" / "outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_cli_output_matches_the_committed_corpus(tmp_path, monkeypatch):
    tool = _tool()
    want = json.loads((ROOT / "tests" / "data" / "outputs.json").read_text(encoding="utf-8"))
    assert [entry["argv"] for entry in want] == tool.CASES
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.BUDGET_ENV, raising=False)
    tool.write_inputs(tmp_path)
    assert [tool.record(entry["argv"]) for entry in want] == want
