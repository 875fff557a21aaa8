"""tools/bench_pairs.py runs bench/run.py from two trees per seed and appends the pairs as one entry."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ["setup_s", "solve_s", "wall_s", "peak_rss_mb", "peak_tube_size_sum"]


def bench_pairs(tmp_path, change_tree, *seeds):
    out = tmp_path / "BENCH_compare.json"
    argv = [sys.executable, str(ROOT / "tools" / "bench_pairs.py"), "--workload", "compare", "--seeds", *map(str, seeds),
            "--seconds", "1", "--parent-tree", str(ROOT), "--change-tree", str(change_tree),
            "--parent-rev", "HEAD", "--note", "test", "--out", str(out)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    return proc, json.loads(out.read_text(encoding="utf-8"))["entries"][-1]


def test_a_tree_against_itself_appends_one_entry_of_alternating_pairs(tmp_path):
    proc, entry = bench_pairs(tmp_path, ROOT, 1, 2)
    assert proc.returncode == 0, proc.stderr
    assert [(r["seed"], r["side"]) for r in entry["runs"]] == [(1, "parent"), (1, "change"), (2, "change"), (2, "parent")]
    assert entry["command"] == "python3 bench/run.py --workload compare --seed N --seconds 1 --trace 0"
    assert entry["seeds"] == [1, 2] and entry["all_correct"] is True
    assert list(entry["summary"]) == METRICS
    assert entry["summary"]["peak_tube_size_sum"]["change_lower_in"] == "0 of 2 (2 equal)"
    assert [line.split()[0] for line in proc.stdout.splitlines()[1:6]] == METRICS


def test_a_run_that_is_not_correct_fails_the_pairs(tmp_path):
    """A change tree with bench/ but no src/ prints no result, so its runs are not correct."""
    shutil.copytree(ROOT / "bench", tmp_path / "tree" / "bench")
    proc, entry = bench_pairs(tmp_path, tmp_path / "tree", 1)
    assert proc.returncode == 1
    assert "seed 1: the change run is not correct" in proc.stderr
    assert entry["all_correct"] is False
