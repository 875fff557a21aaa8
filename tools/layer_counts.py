"""Write or check tests/data/layer_counts.json: the count-valued per-layer metrics of a traced benchmark run.

Usage, from the repository root:

    python3 tools/layer_counts.py           # run the benchmark and write the file
    python3 tools/layer_counts.py --check   # run it again and compare; exit 1 on any difference

For each workload in WORKLOADS this runs

    python3 bench/run.py --workload W --seed 1 --seconds 3 --trace 1

and keeps every metric of the JSON result whose unit is `count`: operation
calls, strands handled, strands created, codebook and decode calls.  Those
repeat exactly for one seed and length, so equal files show that no
operation's calls or strands moved.  Time metrics are never kept.  A run that
is not `correct`, or has a failed instance, exits 1 in both modes.  An output
changed on purpose means writing the file again and naming each changed
entry in CHANGES.md.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "tests" / "data" / "layer_counts.json"
WORKLOADS = ("incremental", "compare", "nucleotide")
RUN = ["--seed", "1", "--seconds", "3", "--trace", "1"]


def counts(workload: str) -> dict[str, int]:
    """The count-valued metrics of one traced run; SystemExit when the run is not correct."""
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, *RUN]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    doc = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    if doc.get("correct") is not True or doc.get("failed") != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench/run.py --workload {workload} was not correct (exit {proc.returncode})")
    return {name: m["value"] for name, m in sorted(doc["metrics"].items()) if m["unit"] == "count"}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--check", action="store_true", help="compare with the committed file instead of writing it")
    args = p.parse_args(argv)
    got = {w: counts(w) for w in WORKLOADS}
    if not args.check:
        OUT.write_text(json.dumps(got, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {sum(map(len, got.values()))} counts to {OUT}")
        return 0
    want = json.loads(OUT.read_text(encoding="utf-8"))
    differ = [
        f"{w} {name}: committed {want.get(w, {}).get(name)}, now {got[w].get(name)}"
        for w in sorted(set(want) | set(got))
        for name in sorted(set(want.get(w, {})) | set(got.get(w, {})))
        if want.get(w, {}).get(name) != got.get(w, {}).get(name)
    ]
    for line in differ:
        print(line, file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
