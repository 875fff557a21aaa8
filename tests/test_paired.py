"""tools/paired.py runs a bench workload or CLI commands from two trees, one pair per seed, and appends one entry."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ["setup_s", "solve_s", "wall_s", "peak_rss_mb", "peak_tube_size_sum"]
BENCH = "python3 bench/run.py --workload compare --seed {seed} --seconds 1 --trace 0"


def paired(tmp_path, change_tree, job, *seeds):
    out = tmp_path / "BENCH_pairs.json"
    argv = [sys.executable, str(ROOT / "tools" / "paired.py"), *job, "--seeds", *map(str, seeds),
            "--parent-tree", str(ROOT), "--change-tree", str(change_tree), "--parent-rev", "HEAD", "--note", "test",
            "--out", str(out)]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False)
    return proc, json.loads(out.read_text(encoding="utf-8"))["entries"][-1]


def test_a_tree_against_itself_appends_one_entry_of_alternating_pairs(tmp_path):
    proc, entry = paired(tmp_path, ROOT, ["--workload", "compare", "--seconds", "1"], 1, 2)
    assert proc.returncode == 0, proc.stderr
    assert [(r["seed"], r["side"]) for r in entry["runs"]] == [(1, "parent"), (1, "change"), (2, "change"), (2, "parent")]
    assert entry["commands"] == [BENCH]
    assert entry["seeds"] == [1, 2] and entry["faults"] == []
    assert all(r["output"]["correct"] is True for r in entry["runs"])
    assert list(entry["summary"][BENCH]) == METRICS
    assert entry["summary"][BENCH]["peak_tube_size_sum"]["change_lower_in"] == "0 of 2 (2 equal)"
    assert proc.stdout.splitlines()[1] == BENCH
    assert [line.split()[0] for line in proc.stdout.splitlines()[2:7]] == METRICS


def test_a_run_that_is_not_correct_fails_the_pairs(tmp_path):
    """A change tree with bench/ but no src/ prints no result, so its runs are not correct."""
    shutil.copytree(ROOT / "bench", tmp_path / "tree" / "bench")
    proc, entry = paired(tmp_path, tmp_path / "tree", ["--workload", "compare", "--seconds", "1"], 1)
    assert proc.returncode == 1
    assert "seed 1: the change run is not correct" in proc.stderr
    assert entry["faults"] and all(fault in proc.stderr for fault in entry["faults"])
    assert [r["output"]["correct"] for r in entry["runs"]] == [True, False]


def test_a_command_against_itself_pairs_each_seed_with_wait4_metrics(tmp_path):
    command = "helix solve --graph random:7,0.3,{seed} --colors 3 --json"
    proc, entry = paired(tmp_path, ROOT, ["--command", command], 1, 2)
    assert proc.returncode == 0, proc.stderr
    assert [(r["seed"], r["side"]) for r in entry["runs"]] == [(1, "parent"), (1, "change"), (2, "change"), (2, "parent")]
    assert entry["commands"] == [command] and entry["seeds"] == [1, 2] and entry["faults"] == []
    stdout = {r["seed"]: r["output"]["stdout_sha256_prefix"] for r in entry["runs"]}
    assert stdout[1] != stdout[2]  # {seed} reached the graph spec
    assert all(r["output"]["exit"] == 0 for r in entry["runs"])
    summary = entry["summary"][command]
    assert list(summary) == ["wall_s", "peak_rss_mb"]
    for s in summary.values():
        assert len(s["parent_quartiles"]) == len(s["change_quartiles"]) == 2
        assert s["change_lower_in"].startswith(("0 of 2", "1 of 2", "2 of 2"))


def test_a_command_whose_output_differs_between_the_trees_fails_the_pairs(tmp_path):
    """Each tree's PYTHONPATH names its own src/, so helix.__file__ differs within the pair."""
    shutil.copytree(ROOT / "src", tmp_path / "tree" / "src", ignore=shutil.ignore_patterns("__pycache__"))
    command = 'python3 -c "import helix; print(helix.__file__)"'
    proc, entry = paired(tmp_path, tmp_path / "tree", ["--command", command], 3)
    assert proc.returncode == 1
    assert entry["faults"] == [line for line in proc.stderr.splitlines() if line.startswith("seed")]
    (fault,) = entry["faults"]
    assert fault.startswith("seed 3: the output differs") and fault.endswith(command)
    assert [r["output"]["exit"] for r in entry["runs"]] == [0, 0]
