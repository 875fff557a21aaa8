"""Paired CLI runs of two source trees, appended to a BENCH_<name>.json file.

Usage, from the repository root:

    python3 tools/paired.py --name nucleotide --parent-tree OLD --change-tree NEW \
        --parent-rev 4cacf65 --note "what the change does" \
        --command "helix codebook generate --n 250 --colors 4 --length 20"

Each tree is a source checkout with helix under src/.  A command starting
with `helix` runs as `python -m helix ...` with PYTHONPATH=<tree>/src, in
--workdir (default: the current directory), so relative paths in it are
read from there.  After one unrecorded run of each side, each of PAIRS = 10
pairs runs each command on both trees one after the other, alternating which
goes first.  Wall time is spawn to exit; peak RSS is the child's ru_maxrss from
os.wait4.  Standard output is compared byte for byte and exit codes must be
equal; the entry records both, and the script exits 1 when either differs.
The entry is appended to BENCH_<name>.json at the repository root (the file
is made if missing), in the shape of the entries already there.  Standard
library only; nothing here runs under the test suite.
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
PAIRS = 10


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--name", required=True, help="the entry goes to BENCH_<name>.json")
    p.add_argument("--parent-tree", required=True, type=Path)
    p.add_argument("--change-tree", required=True, type=Path)
    p.add_argument("--parent-rev", required=True, help="the parent commit, as recorded")
    p.add_argument("--note", required=True, help="the entry's `change` text")
    p.add_argument("--command", action="append", required=True, help="a CLI command; repeat for more")
    p.add_argument("--workdir", type=Path, default=Path.cwd())
    return p.parse_args(argv)


def argv_of(command: str) -> list[str]:
    words = shlex.split(command)
    return [sys.executable, "-m", "helix", *words[1:]] if words[0] == "helix" else words


def run_once(command: str, tree: Path, workdir: Path) -> dict:
    """One run to completion: wall time, peak RSS, exit code and standard output."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str((tree / "src").resolve())
    with tempfile.TemporaryFile() as out:
        t0 = perf_counter()
        proc = subprocess.Popen(argv_of(command), stdout=out, stderr=subprocess.DEVNULL, env=env, cwd=workdir)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall_s = perf_counter() - t0
        out.seek(0)
        stdout = out.read()
    return {
        "wall_s": wall_s,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "exit": os.waitstatus_to_exitcode(status),
        "stdout": stdout,
    }


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"vcpus": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}


def side_summary(runs: list[dict]) -> dict:
    walls = [r["wall_s"] for r in runs]
    return {
        "wall_s_median": round(statistics.median(walls), 3),
        "wall_s_range": [round(min(walls), 3), round(max(walls), 3)],
        "peak_rss_mb_median": round(statistics.median(r["peak_rss_mb"] for r in runs), 1),
    }


def append_entry(path: Path, workload: str, entry: dict, about: str) -> None:
    """Append the entry to the file's entries at the file's own indent, making the file if missing."""
    indent = 1
    if path.exists():
        text = path.read_text(encoding="utf-8")
        doc = json.loads(text)
        second = text.splitlines()[1]
        indent = len(second) - len(second.lstrip())  # kept, so the old entries do not move
    else:
        doc = {"workload": workload, "about": about, "entries": []}
    doc["entries"].append(entry)
    path.write_text(json.dumps(doc, indent=indent) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    args = parse_args(argv)
    trees = {"parent": args.parent_tree, "change": args.change_tree}
    for command in args.command:
        for side in SIDES:
            run_once(command, trees[side], args.workdir)  # warm-up, not recorded
    runs = []
    outputs = {(command, side): set() for command in args.command for side in SIDES}
    exits = {(command, side): set() for command in args.command for side in SIDES}
    for pair in range(1, PAIRS + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for command in args.command:
            for side in order:
                got = run_once(command, trees[side], args.workdir)
                outputs[command, side].add(got["stdout"])
                exits[command, side].add(got["exit"])
                runs.append(
                    {
                        "side": side,
                        "pair": pair,
                        "command": command,
                        "wall_s": round(got["wall_s"], 3),
                        "peak_rss_mb": round(got["peak_rss_mb"], 1),
                        "exit": got["exit"],
                        "stdout_bytes": len(got["stdout"]),
                        "stdout_sha256_prefix": hashlib.sha256(got["stdout"]).hexdigest()[:16],
                    }
                )
    summary = {}
    differ = []
    for command in args.command:
        same_out = len(outputs[command, "parent"] | outputs[command, "change"]) == 1
        same_exit = len(exits[command, "parent"] | exits[command, "change"]) == 1
        if not (same_out and same_exit):
            differ.append(command)
        summary[command] = {
            **{side: side_summary([r for r in runs if r["command"] == command and r["side"] == side]) for side in SIDES},
            "stdout_identical": same_out,
            "exit_identical": same_exit,
        }
    entry = {
        "change": args.note,
        "parent": args.parent_rev,
        "date": datetime.date.today().isoformat(),
        "machine": machine(),
        "commands": args.command,
        "summary": summary,
        "runs": runs,
    }
    append_entry(ROOT / f"BENCH_{args.name}.json", args.name, entry, "Paired CLI runs written by tools/paired.py.")
    print(json.dumps(summary, indent=1))
    for command in differ:
        print(f"stdout or exit code differs between the trees: {command}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
