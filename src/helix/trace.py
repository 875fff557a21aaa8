"""The trace document: a run's records, and the JSON form they are written in.

An engine returns a SolutionSet and a Trace, whose steps are one StepRecord
per vertex of an incremental run.  trace_document writes them as one JSON
object, whose field names (TRACE_FIELDS, STEP_FIELDS, OP_FIELDS) and modes
(ENGINES) are a stable contract; helix.reader reads one back against them.
The module imports no engine, so the engines import their records from here.
"""

from __future__ import annotations

from collections import namedtuple

from .machine import OpCounter

ENGINES = ("incremental", "monolithic")  # the modes a trace document names


class SolverError(ValueError):
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


def _is_permutation(order: list[int], n: int) -> bool:
    """Whether order lists each of the ints 1..n once; a bool, or a float such as 3.0, is not an int here.

    The lengths are compared before 1..n is listed.
    """
    return len(order) == n and all(v.__class__ is int for v in order) and sorted(order) == list(range(1, n + 1))


def resolve_order(g, order) -> list[int]:
    """The run order: 1..n for None, else `order` if it is a permutation of 1..n."""
    if order is None:
        return list(range(1, g.n + 1))
    order = list(order)
    if not _is_permutation(order, g.n):
        raise SolverError(f"order must be a permutation of 1..{g.n}, got {order}")
    return order


TRACE_FIELDS = frozenset(
    {"graph", "k", "order", "mode", "steps", "op_totals", "peak_tube_size", "colorable", "solutions"}
)
STEP_FIELDS = frozenset(StepRecord._fields)
OP_FIELDS = frozenset(OpCounter.__slots__)


def trace_document(g, k: int, order, mode: str, solutions: SolutionSet, trace: Trace) -> dict:
    """The JSON form of one run; field names here are a stable contract.

    The per-color counts and the solution rows stay tuples, which json writes
    as arrays.  A monolithic document is marked "construction": "synthetic"
    (see solver.solve_monolithic).
    """
    doc = {
        "graph": {"n": g.n, "m": g.m},
        "k": k,
        "order": resolve_order(g, order),
        "mode": mode,
        "steps": [s._asdict() for s in trace.steps],
        "op_totals": trace.op_totals.as_dict(),
        "peak_tube_size": trace.peak_tube_size,
        "colorable": solutions.colorable,
        "solutions": list(solutions.ordered),
    }
    if mode == "monolithic":
        doc["construction"] = "synthetic"
    return doc
