"""Graph k-coloring runs on the tube machine.

Two modes.  The incremental mode introduces vertices one at a time: copy the
survivor tube into one tube per color, append that color's codeword for the
new vertex, extract away every strand that gives an already-placed neighbor
the same color, and merge what is left back together.  Live strand counts
therefore track the number of proper colorings of the vertex prefix instead of
k**n.  The monolithic mode materializes all k**n total assignments up front
and filters per edge and color, which is exactly the blow-up the incremental
mode exists to avoid.  Both modes are held to a configurable strand budget:
check_budget refuses up front what must pass it, and the machine refuses
the operation that would.

Bad-tube policy (fixed, and what the operation counts are stated against):
each Extract emits a fresh matching tube; per vertex and color those are
gathered with one Merge into a single bad tube, which is then Discarded.  A
step handles one color at a time: append color c, extract its earlier
neighbors, and merge and discard its bad tube before color c+1 is appended,
so the bad strands of only one color are alive at a time; the k filtered
tubes then go back into the survivor tube with one Merge.  Per run that
costs, beyond the n survivor merges, k merges and k discards for every
vertex with at least one earlier neighbor in the run order, and one final
Detect on the survivor tube.
"""

from __future__ import annotations

from itertools import repeat

from . import oracle
from .codec import BLANK_STRAND, STR_BITS, Codebook, _show, color_name, coloring_from_strand
from .graphs import Graph
from .machine import OverBudget, TubeMachine
# trace_document is not used here: the bench calls solver.trace_document and wraps it by name.
from .trace import SolutionSet, SolverError, StepRecord, Trace, resolve_order, trace_document

DEFAULT_STRAND_BUDGET = 2_000_000
MATCH_MODES = ("symbolic", "nucleotide")


class BudgetError(SolverError):
    pass


def power_text(k: int, n: int) -> str:
    """k**n in digits, or as "k^n" past codec.STR_BITS."""
    full = k**n
    return str(full) if full.bit_length() <= STR_BITS else f"{k}^{n}"


def check_budget(n: int, k: int, budget: int | None = None, monolithic: bool = False) -> None:
    """Refuse a k that is not an int of at least 1, a budget that is neither None nor an int, and a run whose peak must be over it.

    A monolithic run is refused when its peak, exactly k**n, is over the
    budget.  Otherwise a run is refused when the least peak of any engine on
    n vertices is: k * (k)_j with j = min(n - 1, k) and (k)_j = k!/(k-j)!.
    That is the complete graph's peak, and no graph peaks lower: the first j
    vertices of any run order have at least (k)_j proper colorings (the i-th
    has at most i - 1 colored neighbors), and a step copies them into k
    tubes.  The product is multiplied up only while it is within the budget,
    so a huge n or k never builds a huge int; it can still pass what str
    writes (a budget and a k of 2,200 digits each), so the message names it
    through codec._show.
    """
    if k.__class__ is not int:  # a bool is not a count
        raise SolverError(f"color count must be an int, got {_show(k)}")
    if k < 1:
        raise SolverError(f"color count must be positive, got {k}")
    if budget is not None and budget.__class__ is not int:  # nor is a bool a budget
        raise SolverError(f"strand budget must be an int or None, got {_show(budget)}")
    if budget is not None and monolithic and k**n > budget:
        raise BudgetError(f"the monolithic engine needs k^n = {power_text(k, n)} strands, over the budget of {budget}")
    if budget is not None and not monolithic:
        least = k
        for i in range(min(n - 1, k)):
            least *= k - i
            if least > budget:
                break
        if least > budget:
            raise BudgetError(f"{k} colors need at least {_show(least)} strands on any engine, over the budget of {budget}")


def _check_inputs(
    g: Graph, k: int, cb: Codebook, match_mode: str, budget: int | None = None, monolithic: bool = False
) -> TubeMachine:
    """What a run needs, cheapest check first, then the run's machine, which holds the run to the budget.

    k**n is built only once the codebook covers n vertices.  The machine
    checks last: a nucleotide machine validates its codebook, which indexes
    every prefix and suffix of every codeword.
    """
    check_budget(g.n, k)
    if cb.n < g.n or cb.k < k:
        raise SolverError(
            f"codebook {cb.provenance} covers {cb.n} vertices x {cb.k} colors, "
            f"run needs {g.n} x {k}"
        )
    if match_mode not in MATCH_MODES:
        raise SolverError(f"unknown match mode {match_mode!r}")
    if budget is not None:
        check_budget(g.n, k, budget, monolithic)
    return TubeMachine(cb if match_mode == "nucleotide" else None, budget)


def _decode_final(tube, n: int) -> list[tuple[int, ...]]:
    """The colorings the tube spells, in lexicographic order, read through byte tables (Tube.colors).

    Every strand of a run names exactly the vertices of the run's order, so
    no strand is decoded to check them: coloring_from_strand checks that each
    run order covers exactly 1..n.
    """
    for run in tube.runs:
        coloring_from_strand(tuple(zip(run.order, repeat(0))), n)
    return tube.colors(range(1, n + 1))


def solve_incremental(
    g: Graph,
    k: int,
    cb: Codebook,
    match_mode: str = "symbolic",
    order=None,
    budget: int | None = None,
) -> tuple[SolutionSet, Trace]:
    """Build the solution space vertex by vertex, pruning as edges close.

    Returns the decoded solution set (colorings re-indexed to natural vertex
    order) and a trace with one StepRecord per vertex.  Under a strand
    budget, a run whose peak_tube_size would pass it raises BudgetError at
    the copy that would pass it.
    """
    machine = _check_inputs(g, k, cb, match_mode, budget)
    order = resolve_order(g, order)
    adj = g.adjacency()
    position = {v: idx for idx, v in enumerate(order)}
    words = {v: [cb.codeword(v, c) for c in range(k)] for v in order}  # each vertex's codewords by color
    names = [color_name(c) for c in range(k)]
    # A lone blank strand seeds the survivor tube: Append extends what exists,
    # so an empty tube would stay empty forever.
    t0 = machine.new_tube("T0", [BLANK_STRAND])
    steps = []
    for idx, v in enumerate(order):
        t0_before = len(t0)
        try:
            color_tubes = machine.copy(t0, k)
        except OverBudget as exc:
            raise BudgetError(f"the incremental engine at vertex {v}: {exc}") from None
        # The earlier neighbors' codewords, in run order, which fixes how many strands each extract below reads.
        earlier = [words[u] for u in sorted((u for u in adj[v] if position[u] < idx), key=position.__getitem__)]
        after_append, discarded = [], 0
        for c in range(k):  # one color at a time: its bad strands go before the next grows
            tube = color_tubes[c]
            tube.label = f"{names[c]}@{v}"
            machine.append(tube, words[v][c])
            after_append.append(len(tube))
            bad_outputs = []
            for word in earlier:
                bad, tube = machine.extract(tube, word[c])
                bad_outputs.append(bad)
            color_tubes[c] = tube
            if bad_outputs:
                bad_tube = machine.new_tube(f"{names[c]}_bad@{v}")
                machine.merge(bad_tube, bad_outputs)
                discarded += len(bad_tube)
                machine.discard(bad_tube)
        after_filter = tuple(len(t) for t in color_tubes)
        machine.merge(t0, color_tubes)
        if t0.distinct() != len(t0):
            raise SolverError(f"survivor tube holds a repeated strand after vertex {v}")
        steps.append(
            StepRecord(v, t0_before, tuple(after_append), after_filter, discarded, len(t0))
        )
    colorable = machine.detect(t0)
    solutions = SolutionSet(tuple(_decode_final(t0, g.n)), colorable)
    trace = Trace(tuple(steps), machine.counter.snapshot(), machine.peak_tube_size)
    return solutions, trace


def solve_monolithic(
    g: Graph,
    k: int,
    cb: Codebook,
    match_mode: str = "symbolic",
    budget: int = DEFAULT_STRAND_BUDGET,
) -> tuple[SolutionSet, Trace]:
    """Materialize all k**n assignments, then filter per edge and color.

    The start tube is built combinatorially rather than through k**n Append
    calls, so the trace carries no step records and its document is marked
    synthetic; the filtering phase runs on the machine and is counted
    normally.
    """
    machine = _check_inputs(g, k, cb, match_mode, budget, monolithic=True)
    token_rows = [tuple((v, c) for c in range(k)) for v in range(1, g.n + 1)]
    try:
        tube = machine.new_tube("full", rows=token_rows)
    except (OverflowError, MemoryError):  # a budget past what one process can hold: the mask has k**n bits
        raise BudgetError(f"the monolithic engine cannot build its start tube of k^n = {power_text(k, g.n)} strands") from None
    for u, v in g.sorted_edges():
        for c in range(k):
            with_u, rest = machine.extract(tube, cb.codeword(u, c))
            bad, u_only = machine.extract(with_u, cb.codeword(v, c))
            tube = machine.merge(rest, [u_only])
            machine.discard(bad)
    colorable = machine.detect(tube)
    solutions = SolutionSet(tuple(_decode_final(tube, g.n)), colorable)
    return solutions, Trace((), machine.counter.snapshot(), machine.peak_tube_size)


def step_census(g: Graph, k: int, order, i: int) -> int:
    """Proper k-colorings of the subgraph induced by the first i vertices of order.

    This is what the survivor tube's size must equal after step i of an
    incremental run with the same order.
    """
    order = resolve_order(g, order)
    if not (1 <= i <= g.n):
        raise SolverError(f"step index must be in 1..{g.n}, got {i}")
    position = {v: j + 1 for j, v in enumerate(order[:i])}
    edges = [
        (min(position[u], position[v]), max(position[u], position[v]))
        for u, v in g.edges
        if u in position and v in position
    ]
    return oracle.count_colorings(Graph.from_edges(i, edges), k)
