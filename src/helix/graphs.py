"""Problem instances: undirected simple graphs, DIMACS .col I/O, built-in fixtures."""

from __future__ import annotations

import itertools


class DimacsError(ValueError):
    """Malformed or invalid DIMACS .col input."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class Graph:
    """Vertices are 1..n; edges is a frozenset of (u, v) pairs with u < v.  Immutable."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: frozenset[tuple[int, int]]):
        if n < 1:
            raise ValueError(f"vertex count must be positive, got {n}")
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop ({u},{v}) not allowed")
            if not (1 <= u < v <= n):
                raise ValueError(f"edge ({u},{v}) not normalized within 1..{n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of a Graph")

    def __reduce__(self):
        return Graph, (self.n, self.edges)

    def __eq__(self, other):
        return (self.n, self.edges) == (other.n, other.edges) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n!r}, edges={self.edges!r})"

    @classmethod
    def from_edges(cls, n: int, pairs) -> "Graph":
        """Build from arbitrary (u, v) pairs: orient u < v, drop duplicates."""
        norm = set()
        for u, v in pairs:
            norm.add((u, v) if u < v else (v, u))
        return cls(n, frozenset(norm))

    @property
    def m(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in range(1, self.n + 1)}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


def parse_dimacs(text: str) -> tuple[Graph, list[str]]:
    """Parse a DIMACS .col document into (graph, warnings).

    Recognized lines: 'c ...' comments, one 'p edge <n> <m>' header, and
    'e <u> <v>' edges.  Blank lines and CRLF endings are tolerated.  Duplicate
    edges (including symmetric repeats) and a header edge count that disagrees
    with the number of distinct edges produce warnings, not errors.  Self-loops,
    out-of-range endpoints, and malformed lines raise DimacsError with the
    offending line number.
    """
    n: int | None = None
    declared_m = 0
    edges: set[tuple[int, int]] = set()
    warnings: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise DimacsError("duplicate p-line", lineno)
            if len(fields) != 4 or fields[1] != "edge":
                raise DimacsError(f"expected 'p edge <n> <m>', got {line!r}", lineno)
            try:
                n = int(fields[2])
                declared_m = int(fields[3])
            except ValueError:
                raise DimacsError(f"non-integer counts in {line!r}", lineno) from None
            if n < 1:
                raise DimacsError(f"vertex count must be positive, got {n}", lineno)
            if declared_m < 0:
                raise DimacsError(f"edge count must be non-negative, got {declared_m}", lineno)
        elif fields[0] == "e":
            if n is None:
                raise DimacsError("edge line before p-line", lineno)
            if len(fields) != 3:
                raise DimacsError(f"expected 'e <u> <v>', got {line!r}", lineno)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise DimacsError(f"non-integer endpoint in {line!r}", lineno) from None
            if u == v:
                raise DimacsError(f"self-loop e {u} {v} rejected", lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise DimacsError(f"endpoint outside 1..{n} in {line!r}", lineno)
            edge = (u, v) if u < v else (v, u)
            if edge in edges:
                warnings.append(f"line {lineno}: duplicate edge {edge}")
            else:
                edges.add(edge)
        else:
            raise DimacsError(f"unrecognized line {line!r}", lineno)
    if n is None:
        raise DimacsError("missing 'p edge' line")
    if declared_m != len(edges):
        warnings.append(f"header declares {declared_m} edges, found {len(edges)} distinct")
    return Graph(n, frozenset(edges)), warnings


def render_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.m}"]
    lines += [f"e {u} {v}" for u, v in g.sorted_edges()]
    return "\n".join(lines) + "\n"


def _complete(n: int) -> Graph:
    return Graph.from_edges(n, itertools.combinations(range(1, n + 1), 2))


def _cycle(n: int) -> Graph:
    pairs = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return Graph.from_edges(n, pairs)


def _path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)])


def _complete_bipartite(a: int, b: int) -> Graph:
    pairs = [(u, v) for u in range(1, a + 1) for v in range(a + 1, a + b + 1)]
    return Graph.from_edges(a + b, pairs)


def _petersen() -> Graph:
    outer = [(i, i + 1) for i in range(1, 5)] + [(1, 5)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    # inner 5-cycle taken every second vertex: 6-8-10-7-9-6
    inner = [(6, 8), (8, 10), (7, 10), (7, 9), (6, 9)]
    return Graph.from_edges(10, outer + spokes + inner)


_BUILTINS = {
    "k3": lambda: _complete(3),
    "k4": lambda: _complete(4),
    "c5": lambda: _cycle(5),
    "p4": lambda: _path(4),
    "k33": lambda: _complete_bipartite(3, 3),
    "petersen": _petersen,
}


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


def builtin_graph(name: str) -> Graph:
    try:
        factory = _BUILTINS[name]
    except KeyError:
        known = ", ".join(builtin_names())
        raise ValueError(f"unknown builtin graph {name!r}; valid names: {known}") from None
    return factory()
