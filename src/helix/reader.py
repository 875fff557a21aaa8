"""The trace reader: read_trace_document reads a trace document back and refuses one that no run could have written.

It checks each fact once, in one pass: the field set of every JSON object
(_object), then the counts, the instance, the solution rows, and last one
block of laws per engine.  The README's "Trace document" lists the checks
in that order.
"""

from __future__ import annotations

from .codec import _show
from .machine import OpCounter
from .trace import ENGINES, OP_FIELDS, STEP_FIELDS, TRACE_FIELDS, SolutionSet, SolverError, StepRecord, Trace, _is_permutation


def _count(value, field: str) -> int:
    """A count read from a trace document: an int, not a bool, and not negative."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise SolverError(f"trace field {field} must be an integer >= 0, got {_show(value)}")
    return value


def _counts(value, field: str, kinds=list) -> list[int]:
    """A list of counts read from a trace document; `kinds` are the sequence types it may be."""
    if not isinstance(value, kinds):
        raise SolverError(f"trace field {field} must be a list of integers, got {_show(value)}")
    return [_count(x, field) for x in value]


def _object(value, what: str, fields, optional=frozenset(), noun: str = "fields") -> dict:
    """A JSON object read from a trace document: every one of `fields`, any of `optional`, nothing else."""
    if not isinstance(value, dict):
        raise SolverError(f"{what} must be a JSON object, got {_show(value)}")
    unknown = value.keys() - fields - optional
    if unknown:
        raise SolverError(f"{what} names unknown {noun}: {_show(sorted(unknown, key=_show))}")
    missing = fields - value.keys()
    if missing:
        raise SolverError(f"{what} misses {noun}: {sorted(missing)}")
    return value


def read_trace_document(doc: dict) -> tuple[dict, SolutionSet, Trace]:
    """Parse and check a trace document; inverse of trace_document.

    Returns (meta, solutions, trace) where meta carries graph/k/order/mode.
    A solution row or per-color list may be a tuple, as trace_document leaves
    it, or a list, as JSON reads it back.  A document that trace_document
    could not have written raises SolverError; the README's "Trace document"
    lists the checks.
    """
    doc = _object(doc, "trace document", TRACE_FIELDS, optional={"construction"})
    graph = _object(doc["graph"], "trace graph", {"n", "m"})
    if not isinstance(doc["steps"], list):
        raise SolverError("trace steps must be a list")
    entries = [_object(entry, "step record", STEP_FIELDS) for entry in doc["steps"]]
    op_doc = _object(doc["op_totals"], "trace op_totals", OP_FIELDS, noun="operations")
    steps = [
        StepRecord(
            _count(entry["vertex"], "vertex"),
            _count(entry["t0_before"], "t0_before"),
            tuple(_counts(entry["per_color_after_append"], "per_color_after_append", (list, tuple))),
            tuple(_counts(entry["per_color_after_filter"], "per_color_after_filter", (list, tuple))),
            _count(entry["discarded"], "discarded"),
            _count(entry["t0_after"], "t0_after"),
        )
        for entry in entries
    ]
    op_totals = OpCounter(**{op: _count(n, f"op_totals.{op}") for op, n in op_doc.items()})
    peak = _count(doc["peak_tube_size"], "peak_tube_size")
    if not isinstance(doc["colorable"], bool):
        raise SolverError(f"trace field colorable must be true or false, got {_show(doc['colorable'])}")
    if doc["mode"] not in ENGINES:
        raise SolverError(f"trace field mode must be a string naming an engine {ENGINES}, got {_show(doc['mode'])}")
    meta = {
        "graph": {"n": _count(graph["n"], "graph.n"), "m": _count(graph["m"], "graph.m")},
        "k": _count(doc["k"], "k"),
        "order": _counts(doc["order"], "order"),
        "mode": doc["mode"],
    }
    n, m, k, rows = meta["graph"]["n"], meta["graph"]["m"], meta["k"], []
    if n < 1 or k < 1:
        raise SolverError(f"trace fields graph.n and k must be at least 1, got n={_show(n)} and k={_show(k)}")
    if m > (pairs := n * (n - 1) // 2):
        raise SolverError(f"trace field graph.m {_show(m)} is more than the {_show(pairs)} pairs of {_show(n)} vertices")
    if not _is_permutation(meta["order"], n):
        raise SolverError(f"trace field order must be a permutation of 1..{_show(n)}, got {_show(meta['order'])}")
    if not isinstance(doc["solutions"], list):
        raise SolverError(f"trace field solutions must be a list, got {_show(doc['solutions'])}")
    for entry in doc["solutions"]:
        row = tuple(_counts(entry, "solutions", (list, tuple)))
        if len(row) != n or any(c >= k for c in row):
            raise SolverError(f"trace solution {_show(list(row))} is not a coloring of {_show(n)} vertices in {_show(k)} colors")
        if rows and row <= rows[-1]:
            raise SolverError(f"trace solutions must be strictly increasing, got {_show(list(rows[-1]))} then {_show(list(row))}")
        rows.append(row)
    if doc["colorable"] != bool(rows):
        raise SolverError(f"trace field colorable is {str(doc['colorable']).lower()} beside {len(rows)} solutions")
    solutions, trace = SolutionSet(tuple(rows), doc["colorable"]), Trace(tuple(steps), op_totals, peak)
    construction = doc.get("construction")
    if meta["mode"] == "monolithic":
        if steps:
            raise SolverError(f"monolithic trace carries no steps, got {len(steps)}")
        if construction != "synthetic":
            raise SolverError(f"monolithic trace must carry construction 'synthetic', got {_show(construction)}")
        # The start tube holds all k**n strands, and later operations only keep or drop them.  The
        # bit lengths are compared first, so a forged n or k never has k**n built.
        if not n * (k.bit_length() - 1) < peak.bit_length() <= n * k.bit_length() or peak != k**n:
            raise SolverError(f"monolithic trace has peak_tube_size {_show(peak)} where its start tube holds {_show(k)}**{_show(n)}")
        return meta, solutions, trace
    vertices = [step.vertex for step in steps]
    if vertices != meta["order"]:
        raise SolverError(f"incremental trace steps must visit the order {_show(meta['order'])}, got vertices {_show(vertices)}")
    if "construction" in doc:
        raise SolverError(f"incremental trace carries no construction, got {_show(construction)}")
    # An incremental run starts from one blank strand.  Swapping two colors maps one color's
    # survivors one to one onto the other's, so each color keeps t0_after / k of them.  The
    # list lengths are compared first, so a forged k never has a k-entry census built.
    for step, before in zip(steps, [1] + [s.t0_after for s in steps]):
        for field in ("per_color_after_append", "per_color_after_filter"):
            if len(counts := getattr(step, field)) != k:
                raise SolverError(f"trace step field {field} must list {_show(k)} colors, got {_show(list(counts))}")
        after = sum(step.per_color_after_filter)
        census = dict(t0_before=before, per_color_after_append=(before,) * k, t0_after=after,
                      discarded=k * before - after, per_color_after_filter=(after // k,) * k)
        for field, want in census.items():
            if (got := getattr(step, field)) != want:
                raise SolverError(f"trace step at vertex {_show(step.vertex)} has {field} {_show(got)} where its counts give {_show(want)}")
    if steps[-1].t0_after != len(rows):
        raise SolverError(f"incremental trace ends at t0_after {_show(steps[-1].t0_after)} beside {len(rows)} solutions")
    # Each step copies the survivor tube into k tubes, and nothing else holds as many strands.
    if peak != (want := k * max(s.t0_before for s in steps)):
        raise SolverError(f"incremental trace has peak_tube_size {_show(peak)} where its steps give {_show(want)}")
    return meta, solutions, trace
