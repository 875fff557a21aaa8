"""One measured batch, run in a fresh interpreter by run.py.

Usage: python child.py SPEC.json

SPEC names the DIMACS files of the batch, the color count, the match mode,
whether to run the `helix compare` sequence, whether to trace, and the source
directory helix must be imported from.  The child calls the public API in the
order the CLI does: cli.parse_graph_spec, cli.parse_codebook_spec("gen:20,<i>"),
then the engine, then solver.trace_document.  It prints one JSON line: the
set-up and solve times, the calibration samples taken between them, what
each instance produced, the summed operation counts of every engine run,
and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from time import perf_counter

CALIBRATION_ITERATIONS = 150_000
CALIBRATION_SHARE = 0.1


def calibrate(samples: list, work_s: float) -> None:
    """Time a fixed pure-Python loop, once and then until CALIBRATION_SHARE of work_s.

    Called between pieces of measured work (work_s is the last piece), the
    loop samples how fast the host runs Python right then; run.py scales
    every time of this child by the loop's reference time over its median.
    """
    spent = 0.0
    while not samples or spent < CALIBRATION_SHARE * work_s:
        t0 = perf_counter()
        acc = 0
        for i in range(CALIBRATION_ITERATIONS):
            acc += i * i % 7
        samples.append(perf_counter() - t0)
        spent += samples[-1]


def run_instance(solver, oracle, cli, g, k, cb, match, compare):
    """Engine calls plus trace_document; for compare also the oracle and agreement check."""
    if compare:
        budget = cli.strand_budget()
        oracle_set = frozenset(oracle.enumerate_colorings(g, k))
        inc, inc_trace = solver.solve_incremental(g, k, cb, match, None)
        mono, mono_trace = solver.solve_monolithic(g, k, cb, match, budget)
        agree = oracle_set == inc.colorings == mono.colorings
        doc = solver.trace_document(g, k, None, "incremental", inc, inc_trace)
        solver.trace_document(g, k, None, "monolithic", mono, mono_trace)
        return doc, agree, [inc_trace, mono_trace]
    sol, trace = solver.solve_incremental(g, k, cb, match, None)
    doc = solver.trace_document(g, k, None, "incremental", sol, trace)
    return doc, None, [trace]


def main(spec_path: str) -> int:
    with open(spec_path) as f:
        spec = json.load(f)
    signal.alarm(spec["timeout_s"])  # default action ends the process
    calibration: list[float] = []
    calibrate(calibration, 0.0)
    t0 = perf_counter()
    import helix

    src = os.path.realpath(spec["src"])
    if os.path.commonpath([src, os.path.realpath(helix.__file__)]) != src:
        print(f"helix imported from {helix.__file__}, not from {src}", file=sys.stderr)
        return 2
    from helix import cli, oracle, solver

    rec = None
    if spec["trace"]:
        import tracer

        rec = tracer.install()
    k, match, compare = spec["k"], spec["match"], spec["compare"]

    last = setup_s = perf_counter() - t0

    loaded = []
    for i, path in enumerate(spec["graphs"]):
        calibrate(calibration, last)
        t0 = perf_counter()
        g, _warnings = cli.parse_graph_spec(path)
        cb = cli.parse_codebook_spec(f"gen:20,{i}", g, k)
        if match == "nucleotide":
            cb.validation()
        loaded.append((g, cb))
        last = perf_counter() - t0
        setup_s += last

    solve_s = 0.0
    results = []
    op_totals: dict[str, int] = {}
    for g, cb in loaded:
        calibrate(calibration, last)
        t0 = perf_counter()
        try:
            doc, agree, traces = run_instance(solver, oracle, cli, g, k, cb, match, compare)
        except Exception as exc:  # one failed instance must not hide the rest
            solve_s += perf_counter() - t0
            results.append({"error": f"{type(exc).__name__}: {exc}"})
            continue
        last = perf_counter() - t0
        solve_s += last
        solutions = {tuple(c) for c in doc["solutions"]}
        if agree is None:
            agree = frozenset(oracle.enumerate_colorings(g, k)) == solutions
        for trace in traces:
            for op, count in trace.op_totals.as_dict().items():
                op_totals[op] = op_totals.get(op, 0) + count
        results.append(
            {
                "error": None,
                "peak": doc["peak_tube_size"],
                "t0_after": [s["t0_after"] for s in doc["steps"]],
                "solutions": len(solutions),
                "colorable": doc["colorable"],
                "agree": agree,
            }
        )
    calibrate(calibration, last)
    out = {
        "setup_s": setup_s, "solve_s": solve_s, "calibration": calibration,
        "instances": results, "op_totals": op_totals,
    }
    if rec is not None:
        out["layers"] = tracer.per_layer(rec)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
