"""Paired benchmark runs of two source trees, appended to a BENCH_<workload>.json file.

Usage, from the repository root:

    python3 tools/bench_pairs.py --workload nucleotide --seeds $(seq 7001 7010) \
        --parent-tree OLD --change-tree NEW --parent-rev cee203d --note "what the change does"

Each tree is a checkout with bench/ and src/.  For each seed, one pair runs
`python3 bench/run.py --workload W --seed S --seconds N --trace 0` (N is
--seconds, default 30) from the parent tree and from the change tree, one
after the other, alternating which goes first.  Each run reads only its own
tree's bench/ and src/.  The script prints, for each end-to-end metric, the
parent and change medians over the seeds, their quartiles and in how many
pairs the change was lower, and appends the entry to BENCH_<workload>.json
at the repository root, or to --out, in the shape of the entries already
there (the file is made if missing).  It exits 1 when a run is not correct
(an instance failed, a gate tripped or no result was printed) or when
peak_tube_size_sum differs within a pair; the entry is written either way.
Standard library only.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

from paired import ROOT, SIDES, append_entry, machine


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=int, nargs="+", help="one pair per seed, held out from earlier runs")
    p.add_argument("--parent-tree", required=True, type=Path)
    p.add_argument("--change-tree", required=True, type=Path)
    p.add_argument("--parent-rev", required=True, help="the parent commit, as recorded")
    p.add_argument("--note", required=True, help="the entry's `change` text")
    p.add_argument("--seconds", type=int, default=30, help="bench/run.py --seconds (default 30)")
    p.add_argument("--out", type=Path, help="the file to append to (default: BENCH_<workload>.json at the root)")
    return p.parse_args(argv)


def run_bench(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """The JSON result on the last line of one bench/run.py run from `tree`, or a not-correct stand-in."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"{tree}: seed {seed} exited {proc.returncode} with no result:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


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


def main(argv=None) -> int:
    args = parse_args(argv)
    trees = {"parent": args.parent_tree.resolve(), "change": args.change_tree.resolve()}
    runs, faults = [], []
    for n, seed in enumerate(args.seeds):
        order = SIDES if n % 2 == 0 else SIDES[::-1]
        got = {side: run_bench(trees[side], args.workload, seed, args.seconds) for side in order}
        runs += [{"side": side, "seed": seed, "result": got[side]} for side in order]
        faults += [f"seed {seed}: the {side} run is not correct" for side in SIDES if got[side]["correct"] is not True]
        peaks = {side: got[side]["metrics"].get("peak_tube_size_sum", {}).get("value") for side in SIDES}
        if peaks["parent"] != peaks["change"]:
            faults.append(f"seed {seed}: peak_tube_size_sum differs, parent {peaks['parent']} and change {peaks['change']}")
    results = {(r["seed"], r["side"]): r["result"]["metrics"] for r in runs}
    names = [name for name in results[args.seeds[0], "parent"] if all(name in m for m in results.values())]
    summary = {
        name: metric_summary([(results[seed, "parent"][name]["value"], results[seed, "change"][name]["value"]) for seed in args.seeds])
        for name in names
    }
    entry = {
        "change": args.note,
        "parent": args.parent_rev,
        "date": datetime.date.today().isoformat(),
        "machine": machine(),
        "command": f"python3 bench/run.py --workload {args.workload} --seed N --seconds {args.seconds} --trace 0",
        "seeds": args.seeds,
        "all_correct": all(r["result"]["correct"] is True for r in runs),
        "summary": summary,
        "runs": runs,
    }
    path = args.out or ROOT / f"BENCH_{args.workload}.json"
    append_entry(path, args.workload, entry, "Paired bench/run.py runs written by tools/bench_pairs.py.")
    print(f"{'metric':<20} {'parent median [quartiles]':>34} {'change median [quartiles]':>34}  change lower in")
    for name, s in summary.items():
        parent = f"{s['parent_median']:.4f} [{s['parent_quartiles'][0]:.4f}, {s['parent_quartiles'][1]:.4f}]"
        change = f"{s['change_median']:.4f} [{s['change_quartiles'][0]:.4f}, {s['change_quartiles'][1]:.4f}]"
        print(f"{name:<20} {parent:>34} {change:>34}  {s['change_lower_in']}")
    print(f"appended to {path}")
    for fault in faults:
        print(fault, file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
