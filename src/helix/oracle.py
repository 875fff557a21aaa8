"""Ground-truth proper-coloring enumeration, independent of the tube machinery.

A depth-first search over vertices in natural order.  The colors vertex i may
take depend only on the colors of its earlier neighbors, so each vertex reads
those from the colored prefix with one precomputed itemgetter and looks its
free-color list up by them, building the list on the first miss.  The last
vertex emits its whole free list at once, so the leaves, most of the search
tree, cost no Python-level step each.  Colorings come out in lexicographic
order.  The module imports nothing from helix but the graph, so that it can
arbitrate what the simulator produces.
"""

from __future__ import annotations

from operator import itemgetter

from .graphs import Graph

MAX_VERTICES = 24
# Free-color lists one search keeps.  A vertex can meet as many distinct
# colorings of its earlier neighbors as there are prefixes, so past this many
# a miss is answered without being stored: memory stays O(n k + output) plus
# this constant, not the size of the search tree.
MAX_FREE_LISTS = 4096


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


def _search(g: Graph, k: int, out: list | None) -> int:
    """Count the proper k-colorings; unless out is None, append each to it as a tuple.

    walk(i, prefix) extends a proper coloring of vertices 0..i-1 (0-based) by
    every free color of vertex i, in increasing color order.
    """
    colors = range(k)
    earlier = _earlier_neighbors(g)
    # A key is the earlier neighbors' colors: a tuple of them, () when there
    # are none, or the color itself for one neighbor (itemgetter of one index
    # gives a scalar).  Equal keys mean equal free colors whichever vertex
    # reads them, so every vertex shares one table.
    keys = [itemgetter(*js) if js else itemgetter(slice(0, 0)) for js in earlier]
    table: dict = {}
    last = g.n - 1

    def walk(i: int, prefix: tuple) -> int:
        key = keys[i](prefix)
        free = table.get(key)
        if free is None:
            used = {prefix[j] for j in earlier[i]}
            free = [c for c in colors if c not in used]
            if len(table) < MAX_FREE_LISTS:
                table[key] = free
        if i == last:
            if out is not None:
                out.extend([prefix + (c,) for c in free])
            return len(free)
        total = 0
        for c in free:
            total += walk(i + 1, prefix + (c,))
        return total

    return walk(0, ())


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
