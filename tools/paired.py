"""Paired runs of two source trees, one pair per seed, appended as one entry to a BENCH_*.json file.

Usage, from the repository root:

    python3 tools/paired.py --workload nucleotide --seeds $(seq 7001 7010) \
        --parent-tree OLD --change-tree NEW --parent-rev cee203d --note "what the change does"
    python3 tools/paired.py --command "helix solve --graph random:12,0.2,{seed} --colors 3" \
        --seeds $(seq 1 10) --parent-tree OLD --change-tree NEW --parent-rev cee203d \
        --note "what the change does" --out BENCH_long.json

Each tree is a source checkout with bench/ and src/.  The runner takes one
of two jobs:
- --workload W runs `python3 bench/run.py --workload W --seed S --seconds N
  --trace 0` (N is --seconds, default 30) from each tree, and reads the
  metrics from the last line of its output.  A run that is not correct (an
  instance failed, a gate tripped or no result was printed) is a fault.  The
  output compared within a pair is the run's correctness and its
  peak_tube_size_sum;
- --command C, repeatable, runs C in the current directory.  A command
  starting with `helix` runs as `python -m helix ...` with
  PYTHONPATH=<tree>/src.  wall_s is spawn to exit and peak_rss_mb the child's
  ru_maxrss from os.wait4.  The output compared within a pair is the exit
  code and the standard output, byte for byte.

`{seed}` in a command is replaced by the pair's seed.  Both jobs share one
path: one unrecorded warm-up run of each command from each tree, on the
first seed, then one pair per --seeds entry, each command run from both
trees one after the other, alternating which goes first.  An output that
differs within a pair is a fault.  For each command and metric the entry
holds the parent and change medians over the pairs, their quartiles and in
how many pairs the change was lower.  The entry is appended to --out
(default, for a workload: BENCH_<W>.json at the repository root) in the
shape of the entries already there, and the file is made if missing.  Any
fault exits 1, with the entry written.  Standard library only.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
BENCH = "python3 bench/run.py --workload {workload} --seed {{seed}} --seconds {seconds} --trace 0"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    job = p.add_mutually_exclusive_group(required=True)
    job.add_argument("--workload", help="a bench/run.py workload")
    job.add_argument("--command", action="append", help="a command, {seed} replaced by the seed; repeat for more")
    p.add_argument("--seeds", required=True, type=int, nargs="+", help="one pair per seed, held out from earlier runs")
    p.add_argument("--parent-tree", required=True, type=Path)
    p.add_argument("--change-tree", required=True, type=Path)
    p.add_argument("--parent-rev", required=True, help="the parent commit, as recorded")
    p.add_argument("--note", required=True, help="the entry's `change` text")
    p.add_argument("--seconds", type=int, default=30, help="bench/run.py --seconds (default 30)")
    p.add_argument("--out", type=Path, help="the file to append to (needed with --command)")
    args = p.parse_args(argv)
    if args.out is None and args.command:
        p.error("--command needs --out")
    return args


def spawn(argv: list[str], cwd: Path, env: dict | None = None) -> dict:
    """One run to completion: wall time, peak RSS, exit code, standard output and error."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall_s = perf_counter() - t0
        out.seek(0)
        err.seek(0)
        return {"wall_s": wall_s, "peak_rss_mb": usage.ru_maxrss / 1024, "exit": os.waitstatus_to_exitcode(status),
                "stdout": out.read(), "stderr": err.read()}


def run_once(workload: bool, command: str, tree: Path, seed: int) -> dict:
    """One run of `command` from `tree` for `seed`: its metrics, and the output that must match within a pair."""
    words = shlex.split(command.replace("{seed}", str(seed)))
    if workload:
        got = spawn([sys.executable, *words[1:]], tree)
        try:
            result = json.loads(got["stdout"].splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            stderr = got["stderr"][-2000:].decode(errors="replace")
            print(f"{tree}: seed {seed} exited {got['exit']} with no result:\n{stderr}", file=sys.stderr)
            result = {"correct": False, "metrics": {}}
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        return {"metrics": metrics, "output": {"correct": result["correct"] is True,
                                               "peak_tube_size_sum": metrics.get("peak_tube_size_sum")}}
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    got = spawn([sys.executable, "-m", "helix", *words[1:]] if words[0] == "helix" else words, Path.cwd(), env)
    stdout = got["stdout"]
    return {
        "metrics": {"wall_s": round(got["wall_s"], 4), "peak_rss_mb": got["peak_rss_mb"]},
        "output": {"exit": got["exit"], "stdout_bytes": len(stdout), "stdout_sha256_prefix": hashlib.sha256(stdout).hexdigest()[:16]},
    }


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"vcpus": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}


def quartiles(values: list[float]) -> list[float]:
    """The first and third quartiles, as the entries already there take them; one value is both."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return [round(q1, 4), round(q3, 4)]


def metric_summary(pairs: list[tuple[float, float]]) -> dict:
    """Parent and change medians and quartiles over (parent, change) pairs, and in how many the change was lower."""
    parent, change = [p for p, _ in pairs], [c for _, c in pairs]
    lower, equal = sum(c < p for p, c in pairs), sum(c == p for p, c in pairs)
    return {
        "parent_median": round(statistics.median(parent), 4),
        "parent_quartiles": quartiles(parent),
        "change_median": round(statistics.median(change), 4),
        "change_quartiles": quartiles(change),
        "change_lower_in": f"{lower} of {len(pairs)}" + (f" ({equal} equal)" if equal else ""),
    }


def append_entry(path: Path, entry: dict) -> None:
    """Append the entry to the file's entries at the file's own indent, making the file if missing."""
    indent = 1
    if path.exists():
        text = path.read_text(encoding="utf-8")
        doc = json.loads(text)
        second = text.splitlines()[1]
        indent = len(second) - len(second.lstrip())  # kept, so the old entries do not move
    else:
        doc = {"workload": path.stem.removeprefix("BENCH_"), "about": "Paired runs written by tools/paired.py.", "entries": []}
    doc["entries"].append(entry)
    path.write_text(json.dumps(doc, indent=indent) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    args = parse_args(argv)
    trees = {"parent": args.parent_tree.resolve(), "change": args.change_tree.resolve()}
    workload = args.workload is not None
    commands = [BENCH.format(workload=args.workload, seconds=args.seconds)] if workload else args.command
    for command in commands:
        for side in SIDES:
            run_once(workload, command, trees[side], args.seeds[0])  # warm-up, not recorded
    runs, faults, pairs = [], [], {command: [] for command in commands}
    for n, seed in enumerate(args.seeds):
        order = SIDES if n % 2 == 0 else SIDES[::-1]
        for command in commands:
            got = {side: run_once(workload, command, trees[side], seed) for side in order}
            runs += [{"side": side, "seed": seed, "command": command, **got[side]} for side in order]
            pairs[command].append((got["parent"]["metrics"], got["change"]["metrics"]))
            outputs = {side: got[side]["output"] for side in SIDES}
            faults += [f"seed {seed}: the {side} run is not correct: {command}" for side in SIDES if outputs[side].get("correct") is False]
            if differ := [key for key in outputs["parent"] if outputs["parent"][key] != outputs["change"][key]]:
                values = ", ".join(f"{key} {outputs['parent'][key]!r} and {outputs['change'][key]!r}" for key in differ)
                faults.append(f"seed {seed}: the output differs, parent and change {values}: {command}")
    summary = {}
    for command, got in pairs.items():
        names = [name for name in got[0][0] if all(name in m for pair in got for m in pair)]
        summary[command] = {name: metric_summary([(p[name], c[name]) for p, c in got]) for name in names}
    entry = {
        "change": args.note,
        "parent": args.parent_rev,
        "date": datetime.date.today().isoformat(),
        "machine": machine(),
        "commands": commands,
        "seeds": args.seeds,
        "faults": faults,
        "summary": summary,
        "runs": runs,
    }
    path = args.out or ROOT / f"BENCH_{args.workload}.json"
    append_entry(path, entry)
    print(f"{'metric':<20} {'parent median [quartiles]':>34} {'change median [quartiles]':>34}  change lower in")
    for command, metrics in summary.items():
        print(command)
        for name, s in metrics.items():
            parent = f"{s['parent_median']:.4f} [{s['parent_quartiles'][0]:.4f}, {s['parent_quartiles'][1]:.4f}]"
            change = f"{s['change_median']:.4f} [{s['change_quartiles'][0]:.4f}, {s['change_quartiles'][1]:.4f}]"
            print(f"{name:<20} {parent:>34} {change:>34}  {s['change_lower_in']}")
    print(f"appended to {path}")
    for fault in faults:
        print(fault, file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
