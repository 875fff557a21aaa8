"""Ground-truth proper-coloring enumeration, independent of the tube machinery.

A search over vertices in natural order that extends a block of prefixes per
step.  The colors vertex i may take depend only on the colors of its earlier
neighbors, so each prefix reads those with one precomputed itemgetter (its
key) and looks its free colors up by them in a table shared by every vertex.
walk(i, block) takes at most BLOCK proper colorings of vertices 0..i-1 in
lexicographic order and extends each by every free color of vertex i, in
increasing color order, with one comprehension; it then walks the extended
list BLOCK prefixes at a time.  So colorings come out in lexicographic order,
and one Python call serves a block, not a prefix.  The last vertex's
extensions go straight to the output, or, when only counting, are summed as
free-list lengths and never built.  A walk holds at most BLOCK * k prefixes
per vertex, so memory is O(n * BLOCK * k) prefixes plus the table (at most
MAX_FREE_LISTS lists) plus the output.  The module imports nothing from helix
but the graph, so that it can arbitrate what the simulator produces.
"""

from __future__ import annotations

from operator import itemgetter

from .graphs import Graph

MAX_VERTICES = 24
# Free-color lists one search keeps.  A vertex can meet as many distinct
# colorings of its earlier neighbors as there are prefixes, so a miss on a
# full table empties it first: memory stays bounded by this constant, not by
# the size of the search tree, and the table keeps the keys met last, which
# a lexicographic walk meets again soonest.
MAX_FREE_LISTS = 4096
# Prefixes one step of the walk extends at once.  32 to 64 run within 3% of
# each other; each depth holds BLOCK * k prefixes, so the smaller keeps the
# walk's memory low (counting 2^20 colorings at k=2 holds about 150 KB).
BLOCK = 32


class OracleBudgetError(ValueError):
    pass


def _check(g: Graph, k: int) -> None:
    if k < 1:
        raise ValueError(f"color count must be positive, got {k}")
    if g.n > MAX_VERTICES:
        raise OracleBudgetError(f"refusing n={g.n} > {MAX_VERTICES} vertices")


def _earlier_neighbors(g: Graph) -> list[list[int]]:
    """For each vertex, 0-based, the 0-based indices of its neighbors before it."""
    earlier: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:  # u < v by Graph invariant
        earlier[v - 1].append(u - 1)
    return earlier


def is_proper(g: Graph, coloring) -> bool:
    if len(coloring) != g.n:
        raise ValueError(f"coloring has {len(coloring)} entries, graph has {g.n} vertices")
    return all(coloring[u - 1] != coloring[v - 1] for u, v in g.edges)


class _FreeColors(dict):
    """Key -> the free colors as shared 1-tuples (c,), so extending a prefix allocates one tuple.

    A key is the earlier neighbors' colors: a tuple of them, () when there
    are none, or the color itself for one neighbor (itemgetter of one index
    gives a scalar).  Equal keys mean equal free colors whichever vertex reads
    them.  A miss builds the list from the key alone and stores it, emptying
    a table that already holds MAX_FREE_LISTS lists.
    """

    def __init__(self, k: int):
        super().__init__()
        self.ones = [(c,) for c in range(k)]

    def __missing__(self, key):
        used = key if key.__class__ is tuple else (key,)
        free = [one for one in self.ones if one[0] not in used]
        if len(self) == MAX_FREE_LISTS:
            self.clear()
        self[key] = free
        return free


def _search(g: Graph, k: int, out: list | None) -> int:
    """Count the proper k-colorings; unless out is None, append each to it as a tuple."""
    free = _FreeColors(k)
    keys = [itemgetter(*js) if js else itemgetter(slice(0, 0)) for js in _earlier_neighbors(g)]
    last = g.n - 1

    def walk(i: int, block: list) -> int:
        key = keys[i]
        if i == last and out is None:
            return sum(map(len, map(free.__getitem__, map(key, block))))
        level = [p + c for p in block for c in free[key(p)]]
        if i == last:
            out.extend(level)
            return len(level)
        return sum(walk(i + 1, level[start : start + BLOCK]) for start in range(0, len(level), BLOCK))

    return walk(0, [()])


def enumerate_colorings(g: Graph, k: int) -> list[tuple[int, ...]]:
    """All proper k-colorings as color tuples in vertex order, lexicographic."""
    _check(g, k)
    out: list[tuple[int, ...]] = []
    _search(g, k, out)
    return out


def count_colorings(g: Graph, k: int) -> int:
    """Same search as enumerate_colorings, counting without materializing."""
    _check(g, k)
    return _search(g, k, None)
