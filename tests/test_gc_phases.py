"""tools/gc_phases.py runs one bench batch in process and counts its collections per phase."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_gc_phases_reports_each_phase_of_a_compare_batch():
    argv = [sys.executable, str(ROOT / "tools" / "gc_phases.py"), "--workload", "compare", "--seed", "1"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("compare, seed 1: 1 instances, helix from ")
    assert [line.split()[0] for line in lines[1:5]] == ["phase", "setup", "solve", "check"]
    doc = json.loads(lines[-1])
    assert (doc["workload"], doc["seed"], doc["instances"]) == ("compare", 1, 1)
    assert list(doc["phases"]) == ["setup", "solve", "check"]
    for phase in doc["phases"].values():
        assert len(phase["collections"]) == len(phase["gc_s"]) == 3
        assert all(n >= 0 for n in phase["collections"]) and all(s >= 0 for s in phase["gc_s"])
    # Importing helix and drawing the codebook allocate enough to collect at least once.
    assert doc["phases"]["setup"]["seconds"] > 0 and sum(doc["phases"]["setup"]["collections"]) > 0
    assert doc["phases"]["solve"]["seconds"] > 0


def test_gc_phases_refuses_an_unknown_workload():
    argv = [sys.executable, str(ROOT / "tools" / "gc_phases.py"), "--workload", "nope", "--seed", "1"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 2 and "no workload 'nope'" in proc.stderr
