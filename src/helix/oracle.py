"""Ground-truth proper-coloring enumeration, independent of the tube machinery.

Plain backtracking over vertices in natural order, pruning a color as soon as
it clashes with an already-colored neighbor.  Kept deliberately free of any
strand or tube concept so it can arbitrate what the simulator produces.
"""

from __future__ import annotations

from .graphs import Graph

MAX_VERTICES = 24


class OracleBudgetError(ValueError):
    pass


def _check(g: Graph, k: int) -> None:
    if k < 1:
        raise ValueError(f"color count must be positive, got {k}")
    if g.n > MAX_VERTICES:
        raise OracleBudgetError(f"refusing n={g.n} > {MAX_VERTICES} vertices")


def _earlier_neighbors(g: Graph) -> list[list[int]]:
    earlier: list[list[int]] = [[] for _ in range(g.n + 1)]
    for u, v in g.edges:  # u < v by Graph invariant
        earlier[v].append(u)
    return earlier


def is_proper(g: Graph, coloring) -> bool:
    if len(coloring) != g.n:
        raise ValueError(f"coloring has {len(coloring)} entries, graph has {g.n} vertices")
    return all(coloring[u - 1] != coloring[v - 1] for u, v in g.edges)


def _search(g: Graph, k: int, leaf) -> int:
    """Walk every proper k-coloring in lexicographic order; sum leaf(assignment) over them."""
    earlier = _earlier_neighbors(g)
    assignment = [0] * g.n

    def walk(i: int) -> int:
        if i > g.n:
            return leaf(assignment)
        total = 0
        for c in range(k):
            if all(assignment[j - 1] != c for j in earlier[i]):
                assignment[i - 1] = c
                total += walk(i + 1)
        return total

    return walk(1)


def enumerate_colorings(g: Graph, k: int) -> list[tuple[int, ...]]:
    """All proper k-colorings as color tuples in vertex order, lexicographic."""
    _check(g, k)
    out: list[tuple[int, ...]] = []
    _search(g, k, lambda assignment: out.append(tuple(assignment)) or 1)
    return out


def count_colorings(g: Graph, k: int) -> int:
    """Same search as enumerate_colorings, counting without materializing."""
    _check(g, k)
    return _search(g, k, lambda assignment: 1)
