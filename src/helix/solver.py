"""Graph k-coloring runs on the tube machine.

Two modes.  The incremental mode introduces vertices one at a time: copy the
survivor tube into one tube per color, append that color's codeword for the
new vertex, extract away every strand that gives an already-placed neighbor
the same color, and merge what is left back together.  Live strand counts
therefore track the number of proper colorings of the vertex prefix instead of
k**n.  The monolithic mode materializes all k**n total assignments up front
and filters per edge and color, which is exactly the blow-up the incremental
mode exists to avoid; it refuses to run past a configurable strand budget.

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

from collections import namedtuple

from . import oracle
from .codec import BLANK_STRAND, Codebook, color_name, coloring_from_strand
from .graphs import Graph
from .machine import OpCounter, TubeMachine

DEFAULT_STRAND_BUDGET = 2_000_000
MATCH_MODES = ("symbolic", "nucleotide")
ENGINES = ("incremental", "monolithic")  # the modes a trace document names


class SolverError(ValueError):
    pass


class BudgetError(SolverError):
    pass


StepRecord = namedtuple(
    "StepRecord", "vertex t0_before per_color_after_append per_color_after_filter discarded t0_after"
)
Trace = namedtuple("Trace", "steps op_totals peak_tube_size")


class SolutionSet(namedtuple("SolutionSet", "ordered colorable")):
    """The colorings a run found, as strictly increasing rows, and whether there are any.

    The rows are the final decode's, in lexicographic order and without
    repeats, so two solution sets are equal, and hash alike, exactly when
    their sets of colorings are.
    """

    __slots__ = ()

    @property
    def colorings(self) -> frozenset[tuple[int, ...]]:
        """The rows as a set, built on each call."""
        return frozenset(self.ordered)

    def sorted_colorings(self) -> list[tuple[int, ...]]:
        return list(self.ordered)


def _check_inputs(
    g: Graph, k: int, cb: Codebook, match_mode: str, budget: int | None = None
) -> TubeMachine:
    """What a run needs, cheapest check first, then the run's machine.

    The machine checks last: a nucleotide machine validates its codebook,
    which indexes every prefix and suffix of every codeword.
    """
    if k < 1:
        raise SolverError(f"color count must be positive, got {k}")
    if cb.n < g.n or cb.k < k:
        raise SolverError(
            f"codebook {cb.provenance} covers {cb.n} vertices x {cb.k} colors, "
            f"run needs {g.n} x {k}"
        )
    if match_mode not in MATCH_MODES:
        raise SolverError(f"unknown match mode {match_mode!r}")
    if budget is not None and k**g.n > budget:
        raise BudgetError(
            f"the monolithic engine needs k^n = {k**g.n} strands, over the budget of {budget}"
        )
    return TubeMachine(cb if match_mode == "nucleotide" else None)


def _is_permutation(order: list[int], n: int) -> bool:
    """Whether order lists 1..n once each; the lengths are compared before 1..n is listed."""
    return len(order) == n and sorted(order) == list(range(1, n + 1))


def resolve_order(g: Graph, order) -> list[int]:
    """The run order: 1..n for None, else `order` if it is a permutation of 1..n."""
    if order is None:
        return list(range(1, g.n + 1))
    order = list(order)
    if not _is_permutation(order, g.n):
        raise SolverError(f"order must be a permutation of 1..{g.n}, got {order}")
    return order


def _decode_final(tube, n: int) -> list[tuple[int, ...]]:
    """The colorings the tube spells, in lexicographic order, read through byte tables (Tube.colors).

    Strands of one vertex order name the same vertices, so coloring_from_strand
    checks one strand per order that they cover exactly 1..n.
    """
    for strand in tube.order_samples():
        coloring_from_strand(strand, n)
    return tube.colors(range(1, n + 1))


def solve_incremental(
    g: Graph,
    k: int,
    cb: Codebook,
    match_mode: str = "symbolic",
    order=None,
) -> tuple[SolutionSet, Trace]:
    """Build the solution space vertex by vertex, pruning as edges close.

    Returns the decoded solution set (colorings re-indexed to natural vertex
    order) and a trace with one StepRecord per vertex.
    """
    machine = _check_inputs(g, k, cb, match_mode)
    order = resolve_order(g, order)
    adj = g.adjacency()
    position = {v: idx for idx, v in enumerate(order)}
    # A lone blank strand seeds the survivor tube: Append extends what exists,
    # so an empty tube would stay empty forever.
    t0 = machine.new_tube("T0", [BLANK_STRAND])
    steps = []
    for idx, v in enumerate(order):
        t0_before = len(t0)
        color_tubes = machine.copy(t0, k)
        earlier = sorted((u for u in adj[v] if position[u] < idx), key=position.__getitem__)
        after_append, discarded = [], 0
        for c in range(k):  # one color at a time: its bad strands go before the next grows
            tube = color_tubes[c]
            tube.label = f"{color_name(c)}@{v}"
            machine.append(tube, cb.codeword(v, c))
            after_append.append(len(tube))
            bad_outputs = []
            for u in earlier:
                bad, tube = machine.extract(tube, cb.codeword(u, c))
                bad_outputs.append(bad)
            color_tubes[c] = tube
            if bad_outputs:
                bad_tube = machine.new_tube(f"{color_name(c)}_bad@{v}")
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
    machine = _check_inputs(g, k, cb, match_mode, budget)
    token_rows = [tuple((v, c) for c in range(k)) for v in range(1, g.n + 1)]
    tube = machine.new_tube("full", rows=token_rows)
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


TRACE_FIELDS = frozenset(
    {"graph", "k", "order", "mode", "steps", "op_totals", "peak_tube_size", "colorable", "solutions"}
)
STEP_FIELDS = frozenset(StepRecord._fields)
OP_FIELDS = frozenset(OpCounter.__slots__)


def trace_document(
    g: Graph, k: int, order, mode: str, solutions: SolutionSet, trace: Trace
) -> dict:
    """The JSON form of one run; field names here are a stable contract.

    A monolithic document is marked "construction": "synthetic" (see solve_monolithic).
    """
    doc = {
        "graph": {"n": g.n, "m": g.m},
        "k": k,
        "order": resolve_order(g, order),
        "mode": mode,
        "steps": [
            {
                "vertex": s.vertex,
                "t0_before": s.t0_before,
                "per_color_after_append": list(s.per_color_after_append),
                "per_color_after_filter": list(s.per_color_after_filter),
                "discarded": s.discarded,
                "t0_after": s.t0_after,
            }
            for s in trace.steps
        ],
        "op_totals": trace.op_totals.as_dict(),
        "peak_tube_size": trace.peak_tube_size,
        "colorable": solutions.colorable,
        "solutions": list(solutions.ordered),  # tuples: json writes them as arrays
    }
    if mode == "monolithic":
        doc["construction"] = "synthetic"
    return doc


def _count(value, field: str) -> int:
    """A count read from a trace document: an int, not a bool, and not negative."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise SolverError(f"trace field {field} must be an integer >= 0, got {value!r}")
    return value


def _counts(value, field: str, kinds=list) -> list[int]:
    """A list of counts read from a trace document; `kinds` are the sequence types it may be."""
    if not isinstance(value, kinds):
        raise SolverError(f"trace field {field} must be a list of integers, got {value!r}")
    return [_count(x, field) for x in value]


def read_trace_document(doc: dict) -> tuple[dict, SolutionSet, Trace]:
    """Parse and check a trace document; inverse of trace_document.

    Returns (meta, solutions, trace) where meta carries graph/k/order/mode.
    A solution row may be a tuple, as trace_document leaves it, or a list,
    as JSON reads it back.  A document that trace_document could not have
    written raises SolverError; the README's "Trace document" lists the
    checks.
    """
    if not isinstance(doc, dict):
        raise SolverError("trace document must be a JSON object")
    missing = TRACE_FIELDS - doc.keys()
    if missing:
        raise SolverError(f"trace document missing fields: {sorted(missing)}")
    graph = doc["graph"]
    if not isinstance(graph, dict) or {"n", "m"} - graph.keys():
        raise SolverError("trace graph must carry n and m")
    if not isinstance(doc["steps"], list):
        raise SolverError("trace steps must be a list")
    steps = []
    for entry in doc["steps"]:
        if not isinstance(entry, dict):
            raise SolverError(f"step record must be a JSON object, got {entry!r}")
        entry_missing = STEP_FIELDS - entry.keys()
        if entry_missing:
            raise SolverError(f"step record missing fields: {sorted(entry_missing)}")
        try:
            steps.append(
                StepRecord(
                    _count(entry["vertex"], "vertex"),
                    _count(entry["t0_before"], "t0_before"),
                    tuple(_count(c, "per_color_after_append") for c in entry["per_color_after_append"]),
                    tuple(_count(c, "per_color_after_filter") for c in entry["per_color_after_filter"]),
                    _count(entry["discarded"], "discarded"),
                    _count(entry["t0_after"], "t0_after"),
                )
            )
        except TypeError as exc:
            raise SolverError(f"malformed step record: {exc}") from None
    op_doc = doc["op_totals"]
    if not isinstance(op_doc, dict):
        raise SolverError("trace op_totals must be a JSON object")
    unknown = op_doc.keys() - OP_FIELDS
    if unknown:
        raise SolverError(f"trace op_totals names unknown operations: {sorted(map(str, unknown))}")
    missing = OP_FIELDS - op_doc.keys()
    if missing:
        raise SolverError(f"trace op_totals misses operations: {sorted(missing)}")
    op_totals = OpCounter(**{op: _count(n, f"op_totals.{op}") for op, n in op_doc.items()})
    if not isinstance(doc["colorable"], bool):
        raise SolverError(f"trace field colorable must be true or false, got {doc['colorable']!r}")
    if doc["mode"] not in ENGINES:
        raise SolverError(f"trace field mode must be a string naming an engine {ENGINES}, got {doc['mode']!r}")
    meta = {
        "graph": {"n": _count(graph["n"], "graph.n"), "m": _count(graph["m"], "graph.m")},
        "k": _count(doc["k"], "k"),
        "order": _counts(doc["order"], "order"),
        "mode": doc["mode"],
    }
    n, m, k, rows = meta["graph"]["n"], meta["graph"]["m"], meta["k"], []
    if n < 1 or k < 1:
        raise SolverError(f"trace fields graph.n and k must be at least 1, got n={n} and k={k}")
    if m > n * (n - 1) // 2:
        raise SolverError(f"trace field graph.m {m} is more than the {n * (n - 1) // 2} pairs of {n} vertices")
    if not _is_permutation(meta["order"], n):
        raise SolverError(f"trace field order must be a permutation of 1..{n}, got {meta['order']}")
    for step in steps:
        if not 1 <= step.vertex <= n:
            raise SolverError(f"trace step vertex {step.vertex} is not in 1..{n}")
        for field in ("per_color_after_append", "per_color_after_filter"):
            counts = getattr(step, field)
            if len(counts) != k:
                raise SolverError(f"trace step field {field} must list {k} colors, got {list(counts)}")
    if not isinstance(doc["solutions"], list):
        raise SolverError(f"trace field solutions must be a list, got {doc['solutions']!r}")
    for entry in doc["solutions"]:
        row = tuple(_counts(entry, "solutions", (list, tuple)))
        if len(row) != n or any(c >= k for c in row):
            raise SolverError(f"trace solution {list(row)} is not a coloring of {n} vertices in {k} colors")
        if rows and row <= rows[-1]:
            raise SolverError(f"trace solutions must be strictly increasing, got {list(rows[-1])} then {list(row)}")
        rows.append(row)
    if doc["colorable"] != bool(rows):
        raise SolverError(f"trace field colorable is {str(doc['colorable']).lower()} beside {len(rows)} solutions")
    solutions = SolutionSet(tuple(rows), doc["colorable"])
    construction = doc.get("construction")
    if "construction" in doc and not isinstance(construction, str):
        raise SolverError(f"trace field construction must be a string, got {construction!r}")
    vertices = [step.vertex for step in steps]
    if meta["mode"] == "incremental" and vertices != meta["order"]:
        raise SolverError(f"incremental trace steps must visit the order {meta['order']}, got vertices {vertices}")
    if meta["mode"] == "incremental" and "construction" in doc:
        raise SolverError(f"incremental trace carries no construction, got {construction!r}")
    if meta["mode"] == "monolithic" and steps:
        raise SolverError(f"monolithic trace carries no steps, got {len(steps)}")
    if meta["mode"] == "monolithic" and construction != "synthetic":
        raise SolverError(f"monolithic trace must carry construction 'synthetic', got {construction!r}")
    # Only an incremental trace has steps, and its run starts from one blank strand.
    for step, before in zip(steps, [1] + [s.t0_after for s in steps]):
        after = sum(step.per_color_after_filter)
        census = dict(t0_before=before, per_color_after_append=(before,) * k, t0_after=after, discarded=k * before - after)
        for field, want in census.items():
            if (got := getattr(step, field)) != want:
                raise SolverError(f"trace step at vertex {step.vertex} has {field} {got} where its counts give {want}")
    if meta["mode"] == "incremental" and steps[-1].t0_after != len(rows):
        raise SolverError(f"incremental trace ends at t0_after {steps[-1].t0_after} beside {len(rows)} solutions")
    return meta, solutions, Trace(tuple(steps), op_totals, _count(doc["peak_tube_size"], "peak_tube_size"))
