"""Command-line front end: the spec parsers, the errors and exit codes, and main.

The parsers read what a run asks for (the --graph, --codebook and --order
specs and HELIX_BUDGET) into engine inputs, and the bench calls them as the
commands do.  main parses the command line, runs one command and maps its
errors to the exit codes (EXIT_*); the README lists what ends in each.  The
commands themselves and their parser live in helix.commands, which main
imports when it runs, so a process that only imports the package, as the
bench's does, never compiles them.
"""

from __future__ import annotations

import itertools
import os
import random
import sys

from . import oracle, solver
from .codec import Codebook, CodecError, _show, builtin_table1, generate_codebook, load_codebook
from .graphs import DimacsError, Graph, builtin_graph, parse_dimacs
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


def main(argv=None) -> int:
    from .commands import build_parser

    args = build_parser().parse_args(argv)
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
