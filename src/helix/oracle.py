"""Ground-truth proper-coloring enumeration, independent of the tube machinery.

The search walks color-canonical prefixes only.  Colors are numbered by first
use, so a prefix of vertices 0..i-1 that uses u colors extends at vertex i by
each of its free colors below u and, when u < k, by the new color u.  Every
proper coloring x is pi o c for exactly one canonical coloring c, of u colors
say, and one injection pi of range(u) into range(k), and an injective
relabelling keeps a coloring proper: so the proper colorings are exactly the
relabellings of the canonical ones.  count_colorings weights each canonical
leaf by the falling factorial (k)_u = k!/(k-u)! and builds no leaf.

Prefixes are bytes, since canonical colors are below min(n, k) <= 24.  The
colors vertex i may take depend only on the colors of its earlier neighbors,
so each prefix reads those with one precomputed itemgetter (its key) and
looks its free colors up by the key in its u's table.
walk(i, u, block) takes at most BLOCK prefixes that all use u colors,
extends them with one comprehension for each kind of child (still u colors,
or u + 1), and walks each extended list BLOCK prefixes at a time, so one
Python call serves a block, not a prefix.  At the last vertex, counting sums free-list lengths;
enumerating keeps the leaves, grouped by u.

enumerate_colorings then relabels each group by every injection, one
bytes.translate table at a time; past 256 colors, which a byte cannot hold,
it reads each leaf's colors out of the injection tuples with an itemgetter.
It sorts the colorings, since byte order is lexicographic order, and turns
the bytes into tuples CHUNK at a time, so each bytes object is freed as its
tuple is made.

A walk holds at most BLOCK * k prefixes per vertex, so memory is
O(n * BLOCK * k) prefixes plus the free-color tables (at most MAX_FREE_LISTS
lists between them) plus the output: the canonical leaves
are no more than the colorings they stand for, and the relabelling holds one
table at a time.  The module imports nothing from helix but the graph, so
that it can arbitrate what the simulator produces.
"""

from __future__ import annotations

from itertools import permutations, repeat
from math import perm
from operator import itemgetter

from .graphs import Graph

MAX_VERTICES = 24
# Free-color lists one search keeps, over all its tables.  A vertex can meet
# as many distinct colorings of its earlier neighbors as there are prefixes,
# so a miss when the tables are full empties them first: memory stays bounded
# by this constant, not by the size of the search tree, and the tables keep
# the keys met last, which a lexicographic walk meets again soonest.
MAX_FREE_LISTS = 2048
# Prefixes one step of the walk extends at once.  32 to 64 run within 3% of
# each other; each depth holds BLOCK * k prefixes, so the smaller keeps the
# walk's memory low (counting 2^20 colorings at k=2 holds about 150 KB).
BLOCK = 32
# Colorings turned from bytes into tuples by one slice assignment.  256 to
# 4096 run within 2% of each other; the whole list at once is 10% slower on
# 2^20 colorings and holds both forms of every one.
CHUNK = 4096


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
    """Key -> the free colors below u as shared 1-byte bytes, so extending a prefix allocates once.

    A key is the earlier neighbors' colors: a tuple of them, b"" when there
    are none, or the color itself for one neighbor (itemgetter of one index
    gives a scalar).  Equal keys mean equal free colors whichever vertex reads
    them.  A hit is one dict lookup of the key alone.  A miss builds the list
    and stores it, emptying every table of the search first when they hold
    MAX_FREE_LISTS lists between them.
    """

    def __init__(self, colors: list[bytes], tables: list[_FreeColors]):
        super().__init__()
        self.colors = colors
        self.tables = tables

    def __missing__(self, key):
        used = (key,) if key.__class__ is int else key
        free = [color for color in self.colors if color[0] not in used]
        if sum(map(len, self.tables)) >= MAX_FREE_LISTS:
            for table in self.tables:
                table.clear()
        self[key] = free
        return free


def _search(g: Graph, k: int, out: list | None) -> int:
    """Count the proper k-colorings, or, unless out is None, put each in it as a tuple, sorted."""
    top = min(g.n, k)
    colors = [bytes((c,)) for c in range(top)]
    tables: list[_FreeColors] = []
    tables += [_FreeColors(colors[:u], tables) for u in range(top + 1)]
    keys = [itemgetter(*js) if js else itemgetter(slice(0, 0)) for js in _earlier_neighbors(g)]
    # weight[u] = (k)_u colorings per canonical leaf of u colors; perm(k, k + 1) = 0.
    weight = [perm(k, u) for u in range(top + 2)]
    leaves: list[list[bytes]] = [[] for _ in range(top + 2)]
    last = g.n - 1

    def walk(i: int, u: int, block: list) -> int:
        key, free = keys[i], tables[u]
        if i == last and out is None:
            return sum(map(len, map(free.__getitem__, map(key, block)))) * weight[u] + len(block) * weight[u + 1]
        same = [p + c for p in block for c in free[key(p)]]
        grown = [p + colors[u] for p in block] if u < k else []
        if i == last:
            leaves[u] += same
            leaves[u + 1] += grown
            return 0  # the count is the length of out, once expanded
        total = sum(walk(i + 1, u, same[start : start + BLOCK]) for start in range(0, len(same), BLOCK))
        if grown:
            total += walk(i + 1, u + 1, grown)
        return total

    total = walk(0, 0, [b""])
    if out is not None:
        _expand(leaves, k, out)
    return total


def _expand(leaves: list[list[bytes]], k: int, out: list) -> None:
    """Put pi o c in out for each leaf c in leaves[u] and injection pi of range(u) into range(k).

    out ends sorted and holding tuples; each group of leaves is emptied once
    it is relabelled.
    """
    for u, group in enumerate(leaves):
        if k <= 256:
            pad = bytes(256 - u)
            for pi in permutations(range(k), u) if group else ():
                out += map(bytes.translate, group, repeat(bytes(pi) + pad))
        else:
            for leaf in group:
                # itemgetter of one index gives a scalar; a 1-vertex leaf is b"\0", so pi is the coloring.
                pick = itemgetter(*leaf) if len(leaf) > 1 else itemgetter(slice(1))
                out += map(pick, permutations(range(k), u))
        group.clear()
    out.sort()
    if k <= 256:
        for start in range(0, len(out), CHUNK):
            out[start : start + CHUNK] = map(tuple, out[start : start + CHUNK])


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
