"""The command layer: the argument parser, and one function per command that reads its run, runs it and prints the result.

Each cmd_* takes the parsed arguments, writes the text or --json output and
returns its exit code; cli.main runs it and maps the errors it raises.
"""

from __future__ import annotations

import json
import sys

from . import oracle, solver
from .cli import EXIT_BAD_CODEBOOK, EXIT_DISAGREE, EXIT_OK, InputError, load_codebook_arg, strand_budget
from .cli import parse_codebook_spec, parse_graph_spec, parse_order_spec
from .codec import Codebook, color_name, dump_codebook, generate_codebook, validate_codebook
from .graphs import Graph, builtin_names


def _coloring_text(coloring) -> str:
    return " ".join(color_name(c) for c in coloring)


def _print_solutions(solutions: solver.SolutionSet, limit: int = 20) -> None:
    listed = solutions.ordered
    for coloring in listed[:limit]:
        print(f"  {_coloring_text(coloring)}")
    if len(listed) > limit:
        print(f"  ... and {len(listed) - limit} more")


def _quotient(num: int, den: int) -> str:
    """num / den formatted as "{:.3g}" formats a float, also past the float range.

    k^n overflows a float from about 646 vertices at k = 3, so a quotient far
    from 1 is scaled by a power of ten in exact integers first.
    """
    shift = int((num.bit_length() - den.bit_length()) * 0.30103)  # about log10(num / den)
    if abs(shift) < 300:
        return f"{num / den:.3g}"
    m = num / (den * 10**shift) if shift > 0 else num * 10**-shift / den
    mantissa, exponent = f"{m:.2e}".split("e")
    return f"{mantissa.rstrip('0').rstrip('.')}e{int(exponent) + shift:+03d}"


def _print_run(g: Graph, k: int, mode: str, solutions, trace) -> None:
    print(f"== {mode} ==")
    if trace.steps:
        header = f"{'step':>4} {'vertex':>6} {'before':>7} {'after_append':>16} {'after_filter':>16} {'discard':>8} {'after':>7}"
        print(header)
        for i, s in enumerate(trace.steps, start=1):
            appended = "/".join(str(x) for x in s.per_color_after_append)
            filtered = "/".join(str(x) for x in s.per_color_after_filter)
            print(
                f"{i:>4} {s.vertex:>6} {s.t0_before:>7} {appended:>16} "
                f"{filtered:>16} {s.discarded:>8} {s.t0_after:>7}"
            )
    full, peak = k**g.n, trace.peak_tube_size
    print(
        f"peak tube size {peak} of k^n = {solver.power_text(k, g.n)} "
        f"({_quotient(peak, full)} of the full space, reduction {_quotient(full, peak)}x)"
    )
    ops = ", ".join(f"{name}={v}" for name, v in trace.op_totals.as_dict().items())
    print(f"ops: {ops}")
    print(f"colorable: {str(solutions.colorable).lower()}; {len(solutions.ordered)} solutions")
    _print_solutions(solutions)


def _read_run(args) -> tuple[Graph, int, Codebook, list[int] | None, int]:
    """The graph (its warnings printed), k, codebook, order and strand budget a run asks for.

    A run the budget must refuse on any engine (solver.check_budget) is
    refused before the codebook is read or generated.
    """
    g, warnings = parse_graph_spec(args.graph)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    k, budget = args.colors, strand_budget()
    solver.check_budget(g.n, k, budget)
    return g, k, parse_codebook_spec(args.codebook, g, k), parse_order_spec(args.order, g), budget


def _write_file(path: str, text: str, failure: str) -> None:
    """Write text to path; a file that cannot be written is an InputError that starts with failure."""
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as exc:
        raise InputError(f"{failure} {path!r}: {exc}") from None


def cmd_solve(args) -> int:
    g, k, cb, order, budget = _read_run(args)
    runs = {}
    if args.mode in ("incremental", "both"):
        runs["incremental"] = solver.solve_incremental(g, k, cb, args.match, order, budget)
    if args.mode in ("monolithic", "both"):
        runs["monolithic"] = solver.solve_monolithic(g, k, cb, args.match, budget)
    if args.trace or args.json:  # the text listing needs no document
        docs = {
            mode: solver.trace_document(g, k, order, mode, solutions, trace)
            for mode, (solutions, trace) in runs.items()
        }
        text = json.dumps(docs[args.mode] if args.mode != "both" else docs, indent=2)
        if args.trace:
            _write_file(args.trace, text + "\n", "cannot write trace")
    if args.json:
        print(text)  # the newline stays buffered, so main's flush sees a reader that closed early
    else:
        print(f"graph {args.graph} (n={g.n}, m={g.m}), colors={k}, match={args.match}")
        for mode, (solutions, trace) in runs.items():
            _print_run(g, k, mode, solutions, trace)
    return EXIT_OK


def cmd_compare(args) -> int:
    g, k, cb, order, budget = _read_run(args)
    # Monolithic first: its strand budget refuses an oversized run before any other work.
    mono, mono_trace = solver.solve_monolithic(g, k, cb, args.match, budget)
    oracle_rows = tuple(oracle.enumerate_colorings(g, k))
    inc, inc_trace = solver.solve_incremental(g, k, cb, args.match, order, budget)
    # All three are strictly increasing rows, so equal rows are equal sets.
    rows = {"oracle": oracle_rows, "incremental": inc.ordered, "monolithic": mono.ordered}
    agree = oracle_rows == inc.ordered == mono.ordered
    full = k**g.n
    reduction = full / inc_trace.peak_tube_size
    report = {
        "graph": {"n": g.n, "m": g.m},
        "k": k,
        "agree": agree,
        "counts": {name: len(r) for name, r in rows.items()},
        "peak_tube_size": {
            "incremental": inc_trace.peak_tube_size,
            "monolithic": mono_trace.peak_tube_size,
        },
        "reduction_factor": reduction,
    }
    if not agree:  # the smallest coloring that some of the three hold and some lack
        sets = {name: frozenset(r) for name, r in rows.items()}
        counterexample = min(frozenset.union(*sets.values()) - frozenset.intersection(*sets.values()))
        report["counterexample"] = list(counterexample)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(f"graph {args.graph} (n={g.n}, m={g.m}), colors={k}")
        for name, r in rows.items():
            print(f"{name}: {len(r)} solutions")
        print(
            f"peak tube size: incremental {inc_trace.peak_tube_size}, "
            f"monolithic {mono_trace.peak_tube_size} (= k^n {full})"
        )
        print(f"reduction factor: {reduction:.3g}x")
        print(f"agree: {str(agree).lower()}")
        if not agree:
            sides = [name for name, s in sets.items() if counterexample in s]
            print(
                f"counterexample: {_coloring_text(counterexample)} "
                f"(present in {', '.join(sides)} only)"
            )
    return EXIT_OK if agree else EXIT_DISAGREE


def cmd_codebook(args) -> int:
    if args.action == "generate":
        cb = generate_codebook(args.n, args.colors, args.length, args.seed)
        text = dump_codebook(cb)
        if args.out:
            _write_file(args.out, text, "cannot write")
            print(f"wrote {cb.n * cb.k} codewords to {args.out}")
        else:
            print(text, end="")
        return EXIT_OK
    # validate
    cb = load_codebook_arg(args.codebook)
    report = validate_codebook(cb)
    if args.json:
        print(
            json.dumps(
                {
                    "ok": report.ok,
                    "duplicates": [
                        [[a.vertex, a.color], [b.vertex, b.color]] for a, b in report.duplicates
                    ],
                    "junction_violations": [
                        {
                            "word": [v.word.vertex, v.word.color],
                            "left": [v.left.vertex, v.left.color],
                            "right": [v.right.vertex, v.right.color],
                            "offset": v.offset,
                        }
                        for v in report.junction_violations
                    ],
                    "min_pairwise_hamming": report.min_pairwise_hamming,
                },
                indent=2,
            )
        )
    else:
        print(f"codebook {args.codebook}: {cb.n} vertices x {cb.k} colors")
        print(f"duplicates: {len(report.duplicates)}")
        print(f"junction violations: {len(report.junction_violations)}")
        for v in report.junction_violations[:10]:
            print(
                f"  ({v.word.vertex},{color_name(v.word.color)}) occurs in "
                f"({v.left.vertex},{color_name(v.left.color)})+"
                f"({v.right.vertex},{color_name(v.right.color)}) at offset {v.offset}"
            )
        print(f"min pairwise hamming (equal-length pairs): {report.min_pairwise_hamming}")
        print(f"ok: {str(report.ok).lower()}")
    return EXIT_OK if report.ok else EXIT_BAD_CODEBOOK


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="helix",
        description="Tube-level simulator for incremental graph k-coloring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_mode=True):
        p.add_argument(
            "--graph",
            required=True,
            help=f"DIMACS .col path, builtin:NAME ({', '.join(builtin_names())}), or random:n,p,seed",
        )
        p.add_argument("--colors", type=int, required=True, help="number of colors k")
        if with_mode:
            p.add_argument(
                "--mode",
                choices=("incremental", "monolithic", "both"),
                default="incremental",
            )
        p.add_argument(
            "--codebook",
            default="gen:20,0",
            help="table1, gen:length,seed, or a codebook JSON path (default gen:20,0)",
        )
        p.add_argument("--match", choices=solver.MATCH_MODES, default="symbolic")
        p.add_argument(
            "--order",
            default="natural",
            help="vertex introduction order: 'natural' or a comma-separated permutation",
        )
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p_solve = sub.add_parser("solve", help="run one instance and report solutions")
    add_common(p_solve)
    p_solve.add_argument("--trace", help="write the run trace as JSON to this path")
    p_solve.set_defaults(func=cmd_solve)

    p_compare = sub.add_parser(
        "compare", help="run oracle, incremental, and monolithic engines and compare"
    )
    add_common(p_compare, with_mode=False)
    p_compare.set_defaults(func=cmd_compare)

    p_cb = sub.add_parser("codebook", help="generate or validate codebooks")
    cb_sub = p_cb.add_subparsers(dest="action", required=True)
    p_gen = cb_sub.add_parser("generate")
    p_gen.add_argument("--n", type=int, required=True, help="vertex count")
    p_gen.add_argument("--colors", type=int, required=True, help="color count")
    p_gen.add_argument("--length", type=int, default=20)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", help="output path (default: print to stdout)")
    p_gen.set_defaults(func=cmd_codebook, action="generate")
    p_val = cb_sub.add_parser("validate")
    p_val.add_argument("--codebook", required=True, help="table1 or a codebook JSON path")
    p_val.add_argument("--json", action="store_true")
    p_val.set_defaults(func=cmd_codebook, action="validate")

    return parser
