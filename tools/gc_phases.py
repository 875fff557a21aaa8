"""Cyclic-GC collections in each phase of one benchmark batch, run in process.

Usage, from the repository root:

    python3 tools/gc_phases.py --workload incremental --seed 1 [--src src]

This draws the workload's first batch for the seed from bench/workloads.py,
which it reads and does not change, writes the batch's graphs as DIMACS files
in a temporary directory, and runs them in bench/child.py's order in this
process, with helix imported from --src:
- set-up: import helix, then per graph cli.parse_graph_spec,
  cli.parse_codebook_spec("gen:20,<i>") and, for a nucleotide workload, the
  codebook's validation;
- solve: per graph, child.run_instance (the engines and trace_document);
- check: after each solve and outside its time, the solution set and the
  oracle's colorings, as the child builds them.

gc.callbacks reports the generation of each collection as it starts and
stops.  The script prints each phase's seconds and, per generation, its
collections and the seconds they took, then the same as one JSON line.  The
collector is left on, as in a bench child.  This process imports more before
helix than a child does, so its collectors' counts start elsewhere and a
collection near a phase's edge can fall on the other side: compare two trees
with this script, not with a child's figures.  Standard library only.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
PHASES = ("setup", "solve", "check")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--src", type=Path, default=ROOT / "src", help="the directory helix is imported from")
    return p.parse_args(argv)


class Collections:
    """Collections per phase and generation, read from gc.callbacks while installed."""

    def __init__(self):
        self.phase = "setup"
        self.seconds = dict.fromkeys(PHASES, 0.0)
        self.counts = {phase: [0, 0, 0] for phase in PHASES}
        self.gc_s = {phase: [0.0, 0.0, 0.0] for phase in PHASES}
        self._start = 0.0

    def __call__(self, event, info):
        if event == "start":
            self._start = perf_counter()
        else:
            self.counts[self.phase][info["generation"]] += 1
            self.gc_s[self.phase][info["generation"]] += perf_counter() - self._start

    def timed(self, phase, call, *args):
        """call(*args), its time added to phase, and the collections meanwhile counted there."""
        self.phase = phase
        t0 = perf_counter()
        try:
            return call(*args)
        finally:
            self.seconds[phase] += perf_counter() - t0

    def report(self) -> dict:
        return {
            phase: {"seconds": self.seconds[phase], "collections": self.counts[phase], "gc_s": self.gc_s[phase]}
            for phase in PHASES
        }


def run_batch(paths: list[str], w, src: Path, child) -> dict:
    """The batch's phases in child.py's order, with their collections."""
    rec = Collections()
    loaded = []

    def setup():
        sys.path.insert(0, str(src))
        import helix

        if os.path.commonpath([str(src), os.path.realpath(helix.__file__)]) != str(src):
            raise SystemExit(f"helix imported from {helix.__file__}, not from {src}")
        from helix import cli

        for i, path in enumerate(paths):
            g, _warnings = cli.parse_graph_spec(path)
            cb = cli.parse_codebook_spec(f"gen:20,{i}", g, w.k)
            if w.match == "nucleotide":
                cb.validation()
            loaded.append((g, cb))

    def check(g, doc, agree):
        solutions = {tuple(c) for c in doc["solutions"]}
        if agree is None:
            agree = frozenset(oracle.enumerate_colorings(g, w.k)) == solutions
        return agree

    gc.callbacks.append(rec)
    try:
        rec.timed("setup", setup)
        from helix import cli, oracle, solver

        for g, cb in loaded:
            doc, agree, _traces = rec.timed("solve", child.run_instance, solver, oracle, cli, g, w.k, cb, w.match, w.compare)
            if not rec.timed("check", check, g, doc, agree):
                raise SystemExit(f"{w.name}: an instance's solutions disagree with the oracle")
    finally:
        gc.callbacks.remove(rec)
    return rec.report()


def main(argv=None) -> int:
    args = parse_args(argv)
    if "helix" in sys.modules:
        print("error: helix is already imported, so its import would not be measured", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    import child
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: no workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    batch = workloads.batches(w, args.seed, 1)[0]
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, inst in enumerate(batch):
            path = Path(tmp) / f"g{i}.col"
            path.write_text(inst.dimacs(f"gc_phases {w.name} seed {args.seed} instance {i}"))
            paths.append(str(path))
        phases = run_batch(paths, w, args.src.resolve(), child)
    print(f"{w.name}, seed {args.seed}: {len(batch)} instances, helix from {args.src}")
    print(f"{'phase':<6} {'seconds':>9}" + "".join(f" {f'gen{g}':>5} {f'gen{g}_s':>9}" for g in range(3)))
    for phase, got in phases.items():
        cells = "".join(f" {n:>5} {s:>9.6f}" for n, s in zip(got["collections"], got["gc_s"]))
        print(f"{phase:<6} {got['seconds']:>9.6f}{cells}")
    print(json.dumps({"workload": w.name, "seed": args.seed, "instances": len(batch), "phases": phases}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
