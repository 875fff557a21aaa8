import pytest
from hypothesis import given, strategies as st

from helix import DimacsError, Graph, builtin_graph, builtin_names, parse_dimacs, render_dimacs

K3_DOC = """c triangle
p edge 3 3
e 1 2
e 1 3
e 2 3
"""


def test_parse_k3():
    g, warnings = parse_dimacs(K3_DOC)
    assert g == Graph(3, frozenset({(1, 2), (1, 3), (2, 3)}))
    assert warnings == []


def test_parse_accepts_crlf_and_blank_lines():
    text = "p edge 2 1\r\n\r\ne 1 2\r\n"
    g, warnings = parse_dimacs(text)
    assert g.edges == frozenset({(1, 2)})
    assert warnings == []


def test_symmetric_duplicate_is_warned_not_doubled():
    g, warnings = parse_dimacs("p edge 2 2\ne 1 2\ne 2 1\n")
    assert g == Graph(2, frozenset({(1, 2)}))
    assert any("duplicate edge (1, 2)" in w for w in warnings)


def test_edge_count_mismatch_is_a_warning():
    g, warnings = parse_dimacs("p edge 3 5\ne 1 2\n")
    assert g.m == 1
    assert any("declares 5" in w for w in warnings)


def test_self_loop_rejected_with_line_number():
    with pytest.raises(DimacsError, match="line 2.*self-loop"):
        parse_dimacs("p edge 3 1\ne 2 2\n")


def test_endpoint_out_of_range():
    with pytest.raises(DimacsError, match="line 2.*outside 1..3"):
        parse_dimacs("p edge 3 1\ne 1 7\n")


def test_missing_p_line():
    with pytest.raises(DimacsError, match="missing 'p edge'"):
        parse_dimacs("c nothing here\n")


def test_edge_before_p_line():
    with pytest.raises(DimacsError, match="line 1.*before p-line"):
        parse_dimacs("e 1 2\np edge 2 1\n")


def test_duplicate_p_line():
    with pytest.raises(DimacsError, match="line 2.*duplicate p-line"):
        parse_dimacs("p edge 2 1\np edge 2 1\ne 1 2\n")


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ("p edge x 3\n", "non-integer"),
        ("p edge 3\n", "expected 'p edge"),
        ("p edge 3 1\ne 1\n", "expected 'e"),
        ("p edge 3 1\ne 1 two\n", "non-integer endpoint"),
        ("p edge 3 1\nq 1 2\n", "unrecognized"),
        ("p edge 0 0\n", "must be positive"),
    ],
)
def test_malformed_lines(doc, fragment):
    with pytest.raises(DimacsError, match=fragment):
        parse_dimacs(doc)


def test_graph_rejects_self_loop_and_range():
    with pytest.raises(ValueError):
        Graph(3, frozenset({(2, 2)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(1, 4)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(2, 1)}))  # unnormalized orientation


def test_from_edges_normalizes():
    g = Graph.from_edges(3, [(2, 1), (1, 2), (3, 1)])
    assert g.edges == frozenset({(1, 2), (1, 3)})


def test_builtin_shapes():
    assert builtin_graph("k3").m == 3
    assert builtin_graph("k4").m == 6
    assert builtin_graph("p4").edges == frozenset({(1, 2), (2, 3), (3, 4)})
    assert builtin_graph("c5").edges == frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)})
    k33 = builtin_graph("k33")
    assert k33.n == 6 and k33.m == 9
    assert all(u <= 3 < v for u, v in k33.edges)


def test_petersen_structure():
    g = builtin_graph("petersen")
    assert g.n == 10 and g.m == 15
    adj = g.adjacency()
    assert all(len(adj[v]) == 3 for v in adj)  # 3-regular
    assert all((i, i + 5) in g.edges for i in range(1, 6))  # spokes


def test_unknown_builtin_lists_names():
    with pytest.raises(ValueError, match="k3.*petersen|petersen.*k3"):
        builtin_graph("nope")
    assert builtin_names() == sorted(builtin_names())


def test_render_k3_round_trip():
    g = builtin_graph("k3")
    text = render_dimacs(g)
    assert text.splitlines()[0] == "p edge 3 3"
    g2, warnings = parse_dimacs(text)
    assert g2 == g and warnings == []


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1])
    edges = draw(st.lists(pairs, max_size=20))
    return Graph.from_edges(n, edges)


@given(graphs())
def test_dimacs_round_trip(g):
    g2, warnings = parse_dimacs(render_dimacs(g))
    assert g2 == g
    assert warnings == []
