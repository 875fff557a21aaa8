"""Command-line front end: solve one instance, compare engines, manage codebooks.

The README lists the exit codes (EXIT_*) and what ends in each.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import sys

from . import oracle, solver
from .codec import (
    Codebook,
    CodecError,
    _show,
    builtin_table1,
    color_name,
    dump_codebook,
    generate_codebook,
    load_codebook,
    validate_codebook,
)
from .graphs import DimacsError, Graph, builtin_names, builtin_graph, parse_dimacs
from .solver import DEFAULT_STRAND_BUDGET

BUDGET_ENV = "HELIX_BUDGET"

# random:n,p,seed draws one number per vertex pair; past this many pairs the
# draws alone would take seconds and the edge list could fill memory.
MAX_RANDOM_PAIRS = 1_000_000

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONFIG = 2
EXIT_DISAGREE = 3
EXIT_BAD_CODEBOOK = 4
EXIT_PIPE = 141  # 128 + SIGPIPE: the reader closed standard output first


class InputError(Exception):
    """File or text that could not be read or parsed (exit 1)."""


class ConfigError(Exception):
    """A coherent request the tool refuses to run (exit 2)."""


def _int(text: str, name: str) -> int:
    """int(text), with ConfigError naming `name` too long when text is a number that int() refuses for its length.

    Any other text int() refuses raises its ValueError, for the caller's own message.
    """
    try:
        return int(text)
    except ValueError:
        digits = text.strip()
        digits = digits[1:] if digits[:1] in ("+", "-") else digits
        if digits.isdecimal():
            raise ConfigError(f"{name} is too long: {len(digits)} digits") from None
        raise


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Seeded Erdos-Renyi G(n, p); identical output for identical arguments."""
    if n < 1:
        raise ConfigError(f"random graph needs at least 1 vertex, got {_show(n)}")
    if not (0.0 <= p <= 1.0):
        raise ConfigError(f"edge probability must be in [0, 1], got {p}")
    pairs = n * (n - 1) // 2
    if pairs > MAX_RANDOM_PAIRS:
        raise ConfigError(f"random graph on {_show(n)} vertices needs {_show(pairs)} pair draws, over {MAX_RANDOM_PAIRS}")
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u, v in itertools.combinations(range(1, n + 1), 2)
        if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def parse_graph_spec(spec: str) -> tuple[Graph, list[str]]:
    if spec.startswith("builtin:"):
        try:
            return builtin_graph(spec[len("builtin:") :]), []
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if spec.startswith("random:"):
        parts = spec[len("random:") :].split(",")
        if len(parts) != 3:
            raise ConfigError(f"random graph spec must be random:n,p,seed, got {spec!r}")
        try:
            n, p, seed = _int(parts[0], "random graph n"), float(parts[1]), _int(parts[2], "random graph seed")
        except ValueError:
            raise ConfigError(f"bad numbers in random graph spec {spec!r}") from None
        return random_graph(n, p, seed), []
    try:
        with open(spec, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read graph file {spec!r}: {exc}") from None
    try:
        return parse_dimacs(text)
    except DimacsError as exc:
        raise InputError(f"{spec}: {exc}") from None


def load_codebook_arg(spec: str) -> Codebook:
    """The built-in table1, or a codebook JSON file."""
    if spec == "table1":
        return builtin_table1()
    try:
        return load_codebook(spec)
    # ValueError covers bad UTF-8, bad JSON and CodecError; RecursionError deeply nested JSON
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read codebook file {spec!r}: {exc}") from None


def parse_codebook_spec(spec: str, g: Graph, k: int) -> Codebook:
    """A codebook for g and k; whether it covers them is the solver's check."""
    if spec.startswith("gen:"):
        parts = spec[len("gen:") :].split(",")
        if len(parts) != 2:
            raise ConfigError(f"generator spec must be gen:length,seed, got {spec!r}")
        try:
            length, seed = _int(parts[0], "generator length"), _int(parts[1], "generator seed")
        except ValueError:
            raise ConfigError(f"bad numbers in generator spec {spec!r}") from None
        return generate_codebook(g.n, k, length, seed)
    return load_codebook_arg(spec)


def parse_order_spec(spec: str, g: Graph) -> list[int] | None:
    """The run order, checked before any engine starts; None for natural.

    The engines resolve None after their own checks, so a run they refuse
    never lists the vertices.
    """
    if spec == "natural":
        return None
    order = []
    for pos, tok in enumerate(spec.split(","), 1):
        try:
            order.append(_int(tok, f"order entry {pos}"))
        except ValueError:
            raise ConfigError(f"order must be 'natural' or a comma list, got {spec!r}") from None
    return solver.resolve_order(g, order)


def strand_budget() -> int:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_STRAND_BUDGET
    try:
        budget = _int(raw, BUDGET_ENV)
    except ValueError:
        raise ConfigError(f"{BUDGET_ENV} must be an integer, got {raw!r}") from None
    if budget < 0:
        raise ConfigError(f"{BUDGET_ENV} must not be negative, got {budget}")
    return budget


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
        runs["incremental"] = solver.solve_incremental(g, k, cb, args.match, order)
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
    inc, inc_trace = solver.solve_incremental(g, k, cb, args.match, order)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the flush at exit cannot raise
        return EXIT_PIPE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ConfigError, solver.SolverError, CodecError, oracle.OracleBudgetError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
