"""Fuzzing of the three readers: arbitrary input ends in their documented error, or parses."""

from hypothesis import given, settings, strategies as st

from helix import (
    CodecError,
    DimacsError,
    SolverError,
    codebook_from_json,
    parse_dimacs,
    read_trace_document,
)
from helix.solver import OP_FIELDS, STEP_FIELDS, TRACE_FIELDS

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)

small = st.integers(-1, 3)
dimacs_header = st.builds("p edge {} {}".format, small, small)
dimacs_edge = st.builds("e {} {}".format, st.integers(0, 3), st.integers(0, 3))
dimacs_lines = st.one_of(
    st.text(max_size=20),
    dimacs_header,
    dimacs_edge,
    st.tuples(
        st.sampled_from(["p edge", "p", "e", "c", ""]),
        st.lists(st.text(max_size=3), max_size=3),
    ).map(lambda t: " ".join([t[0], *t[1]])),
)
# Arbitrary lines mostly fail on the first bad one, so near-valid documents
# (a header, then edges, comments and blanks) are drawn as well.
dimacs_texts = st.lists(dimacs_lines, max_size=6) | st.tuples(
    dimacs_header, st.lists(dimacs_edge | st.sampled_from(["c x", "", "e 1"]), max_size=5)
).map(lambda t: [t[0], *t[1]])


codebook_docs = json_values | st.fixed_dictionaries(
    {
        "n": json_values,
        "k": json_values,
        "entries": json_values
        | st.lists(
            json_values
            | st.fixed_dictionaries(
                {"vertex": json_values, "color": json_values, "sequence": json_values}
            ),
            max_size=4,
        ),
    },
    optional={"length": json_values, "provenance": json_values},
)

trace_docs = json_values | st.fixed_dictionaries(
    {
        **{field: json_values for field in TRACE_FIELDS},
        "graph": json_values | st.fixed_dictionaries({"n": json_values, "m": json_values}),
        "steps": json_values
        | st.lists(
            json_values | st.fixed_dictionaries({f: json_values for f in STEP_FIELDS}),
            max_size=3,
        ),
        "op_totals": json_values
        | st.dictionaries(st.sampled_from(sorted(OP_FIELDS)), json_values, max_size=6),
    },
    optional={"construction": json_values},
)


@settings(max_examples=300, deadline=None)
@given(dimacs_texts.map("\n".join))
def test_parse_dimacs_raises_only_dimacs_error(text):
    try:
        parse_dimacs(text)
    except DimacsError:
        pass


@settings(max_examples=300, deadline=None)
@given(codebook_docs)
def test_codebook_from_json_raises_only_codec_error(doc):
    try:
        codebook_from_json(doc)
    except CodecError:
        pass


@settings(max_examples=300, deadline=None)
@given(trace_docs)
def test_read_trace_document_raises_only_solver_error(doc):
    try:
        read_trace_document(doc)
    except SolverError:
        pass
