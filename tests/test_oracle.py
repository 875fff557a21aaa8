import ast
import itertools
import json
import math
import subprocess
import sys
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import helix.oracle
from helix import (
    Graph,
    OracleBudgetError,
    builtin_graph,
    count_colorings,
    enumerate_colorings,
    is_proper,
)
from helix.cli import random_graph


def naive_colorings(g, k):
    """Filter the full assignment space; the slow reference the search must match."""
    return [
        colors
        for colors in itertools.product(range(k), repeat=g.n)
        if is_proper(g, colors)
    ]


@st.composite
def small_graphs(draw, max_n=8):
    """n = 1..max_n at any edge density; the last vertex sometimes has no earlier neighbor."""
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    density = draw(st.floats(0.0, 1.0))
    edges = [pair for pair in pairs if draw(st.floats(0.0, 1.0)) < density]
    if draw(st.booleans()):
        edges = [(u, v) for u, v in edges if v != n]
    return Graph.from_edges(n, edges)


def complete(n):
    return Graph.from_edges(n, itertools.combinations(range(1, n + 1), 2))


@given(g=small_graphs(), k=st.integers(1, 4))
@example(g=Graph(8, frozenset()), k=2)
@example(g=complete(8), k=4)
@example(g=complete(4), k=4)
@example(g=Graph.from_edges(5, [(1, 2), (2, 3), (3, 4)]), k=3)  # vertex 5 has no neighbor
@settings(max_examples=150, deadline=None)
def test_search_matches_the_full_product_filter(g, k):
    expected = naive_colorings(g, k)
    assert enumerate_colorings(g, k) == expected
    assert count_colorings(g, k) == len(expected)


@pytest.mark.parametrize("block", [1, 2, 3, helix.oracle.BLOCK])
@given(g=small_graphs(), k=st.integers(1, 4))
@example(g=Graph(8, frozenset()), k=3)
@example(g=Graph.from_edges(8, [(1, 8), (2, 7), (3, 6)]), k=4)
@example(g=Graph.from_edges(4, [(1, 2), (3, 4)]), k=6)  # k > n: a new color is free at every vertex
@settings(max_examples=60, deadline=None)
def test_every_block_size_walks_the_same_colorings(block, g, k):
    """A walk that drops, repeats or reorders prefixes where one block ends and the next begins fails here."""
    expected = naive_colorings(g, k)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(helix.oracle, "BLOCK", block)
        assert enumerate_colorings(g, k) == expected
        assert count_colorings(g, k) == len(expected)


@pytest.mark.parametrize("size", [1, 2, 3])
@given(g=small_graphs(max_n=7), k=st.integers(1, 4))
@example(g=complete(7), k=4)
@example(g=Graph.from_edges(7, [(u, 7) for u in range(1, 7)]), k=3)  # the center meets 122 keys
@settings(max_examples=60, deadline=None)
def test_a_free_color_cache_of_a_few_lists_walks_the_same_colorings(size, g, k):
    """A cache that evicts at almost every miss must still give each key its own free colors."""
    expected = naive_colorings(g, k)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(helix.oracle, "MAX_FREE_LISTS", size)
        assert enumerate_colorings(g, k) == expected
        assert count_colorings(g, k) == len(expected)


@given(g=small_graphs(max_n=6), k=st.integers(1, 6))
@example(g=Graph(5, frozenset()), k=6)
@example(g=complete(6), k=6)
@settings(max_examples=80, deadline=None)
def test_up_to_six_colors_match_the_full_product_filter(g, k):
    """k up to 6 and above n, where every canonical leaf uses fewer than k colors."""
    expected = naive_colorings(g, k)
    assert enumerate_colorings(g, k) == expected
    assert count_colorings(g, k) == len(expected)


@pytest.mark.parametrize("k", [255, 256, 257, 300])
@pytest.mark.parametrize(
    "g", [Graph(1, frozenset()), Graph(2, frozenset()), complete(2)], ids=["one vertex", "two apart", "one edge"]
)
def test_colors_past_a_byte_match_the_full_product_filter(g, k):
    """Colors up to 255 are relabelled as bytes and higher ones as tuples; both sides of the boundary."""
    expected = naive_colorings(g, k)
    assert len(expected) == (k ** g.n if g.m == 0 else k * (k - 1))
    assert enumerate_colorings(g, k) == expected
    assert count_colorings(g, k) == len(expected)


def test_the_walk_reads_one_key_per_canonical_prefix(monkeypatch):
    """K_8 at k = 8 has one color-canonical prefix per depth (each vertex takes the next new color).

    A walk of every proper prefix reads a key for each of its sum(P_i) = 69,281.
    """
    reads = []

    def counting_itemgetter(*items):
        get = itemgetter(*items)

        def key(prefix):
            reads.append(1)
            return get(prefix)

        return key

    monkeypatch.setattr(helix.oracle, "BLOCK", 1)
    monkeypatch.setattr(helix.oracle, "itemgetter", counting_itemgetter)
    assert count_colorings(complete(8), 8) == math.factorial(8)
    assert len(reads) <= 8, len(reads)


PEAK_CHILD = """
import json, sys, tracemalloc
import helix
name, n, edges, k = json.loads(sys.argv[1])
search, g = getattr(helix, name), helix.Graph.from_edges(n, edges)
tracemalloc.start()
result = search(g, k)
print(json.dumps([result, tracemalloc.get_traced_memory()[1]]))
"""


def traced_peak(search, g, k):
    """search(g, k) and the peak bytes traced while it ran, read in a fresh interpreter.

    CPython keeps freed tuples in per-size free lists, and tuples taken from
    them are not traced, so a peak read in this process would depend on
    which tests ran before it.
    """
    arg = json.dumps([search.__name__, g.n, sorted(g.edges), k])
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_CHILD, arg], capture_output=True, text=True, timeout=120, check=True
    )
    return json.loads(proc.stdout)


def test_search_holds_no_more_than_its_output():
    # 12 isolated vertices, then a triangle on 13..15: P_14 = 8192 prefixes
    # reach the last vertex and none survives it.  A breadth-first level of
    # those prefixes alone would take about 2 MB.
    g = Graph.from_edges(15, [(13, 14), (13, 15), (14, 15)])
    for search, empty in ((enumerate_colorings, []), (count_colorings, 0)):
        result, peak = traced_peak(search, g, 2)
        assert result == empty
        assert peak < 256 * 1024, (search.__name__, peak)


def test_counting_builds_no_level_and_no_leaves():
    # The 2^19 prefixes before the last vertex would take about 100 MB as one
    # level, and the 2^20 leaves more; a walk of blocks holds BLOCK * k a depth.
    result, peak = traced_peak(count_colorings, Graph(20, frozenset()), 2)
    assert result == 2**20
    assert peak <= 256 * 1024, peak


def test_free_color_tables_stay_bounded():
    # Vertex 15 meets one distinct lookup key per canonical coloring of its 14
    # earlier neighbors, 2^13 of them; stored unbounded, the keys and lists
    # take about 2 MB, against about 0.54 MB for tables of MAX_FREE_LISTS.
    hub = [(u, 15) for u in range(1, 15)]
    g = Graph.from_edges(18, hub + [(16, 17), (16, 18), (17, 18)])
    result, peak = traced_peak(count_colorings, g, 2)
    assert result == 0
    assert peak < 2 * 1024 * 1024, peak


def test_one_bound_covers_the_free_color_tables_of_every_color_count():
    # The center of a star with 10 leaves meets keys of 1 to 6 colors: stored
    # unbounded they take about 24 MB, and the search's tables, at most
    # MAX_FREE_LISTS lists between them whatever the color count, about 0.54 MB.
    result, peak = traced_peak(count_colorings, Graph.from_edges(11, [(u, 11) for u in range(1, 11)]), 6)
    assert result == 6 * 5**10  # k (k-1)^10
    assert peak < 2 * 1024 * 1024, peak


def test_oracle_imports_only_the_graph_module_and_the_stdlib():
    tree = ast.parse(Path(helix.oracle.__file__).read_text(encoding="utf-8"))
    package, stdlib = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            package += [node.module] if node.module else [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            stdlib.append(node.module)
        elif isinstance(node, ast.Import):
            stdlib += [alias.name for alias in node.names]
    assert package == ["graphs"]
    assert all(name.split(".")[0] in sys.stdlib_module_names for name in stdlib), stdlib


def test_is_proper():
    k3 = builtin_graph("k3")
    assert is_proper(k3, (0, 1, 2))
    assert not is_proper(k3, (0, 0, 1))
    assert is_proper(Graph(2, frozenset()), (1, 1))
    with pytest.raises(ValueError, match="entries"):
        is_proper(k3, (0, 1))


def test_enumerate_k3_exact():
    got = enumerate_colorings(builtin_graph("k3"), 3)
    assert got == sorted(got)  # lexicographic
    assert set(got) == set(itertools.permutations((0, 1, 2)))


def test_single_vertex():
    g = Graph(1, frozenset())
    assert enumerate_colorings(g, 3) == [(0,), (1,), (2,)]
    assert count_colorings(g, 1) == 1


def test_k4_with_three_colors_is_empty():
    assert enumerate_colorings(builtin_graph("k4"), 3) == []
    assert count_colorings(builtin_graph("k4"), 3) == 0


def test_matches_naive_filter_on_small_graphs():
    graphs = [builtin_graph(name) for name in ("k3", "k4", "p4", "c5", "k33")]
    graphs += [random_graph(n, 0.5, seed) for n, seed in [(4, 1), (5, 2), (6, 3), (6, 4)]]
    for g in graphs:
        for k in (2, 3, 4):
            expected = naive_colorings(g, k)
            got = enumerate_colorings(g, k)
            assert got == expected, (g, k)
            assert count_colorings(g, k) == len(expected)


def test_cycle_closed_form():
    # proper k-colorings of an n-cycle: (k-1)^n + (-1)^n (k-1)
    for n in range(3, 8):
        g = Graph.from_edges(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])
        for k in (2, 3, 4):
            expected = (k - 1) ** n + (-1) ** n * (k - 1)
            assert count_colorings(g, k) == expected, (n, k)


def test_edgeless_graph_counts_every_assignment():
    for n in (1, 3, 5):
        for k in (1, 2, 3):
            assert count_colorings(Graph(n, frozenset()), k) == k**n


def test_petersen_three_colorings():
    g = builtin_graph("petersen")
    assert len(naive_colorings(g, 3)) == 120
    assert count_colorings(g, 3) == 120
    assert len(enumerate_colorings(g, 3)) == 120


def test_count_agrees_with_enumerate():
    for seed in range(5):
        g = random_graph(7, 0.4, 50 + seed)
        for k in (2, 3):
            assert count_colorings(g, k) == len(enumerate_colorings(g, k))


def test_vertex_cap():
    assert enumerate_colorings(Graph(24, frozenset()), 1) == [(0,) * 24]
    assert count_colorings(Graph(24, frozenset()), 1) == 1
    g = Graph(25, frozenset())
    with pytest.raises(OracleBudgetError, match="24"):
        enumerate_colorings(g, 2)
    with pytest.raises(OracleBudgetError):
        count_colorings(g, 2)


def test_k_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        count_colorings(builtin_graph("k3"), 0)
