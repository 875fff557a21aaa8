"""Fuzzing of the three readers: arbitrary input ends in their documented error, or parses."""

import json
import random
import re
import resource
import subprocess
import sys
from collections import Counter

from hypothesis import given, settings, strategies as st

from helix import (
    CodecError,
    DimacsError,
    SolverError,
    builtin_graph,
    builtin_table1,
    codebook_from_json,
    parse_dimacs,
    read_trace_document,
    solve_incremental,
    solve_monolithic,
    trace_document,
)
from helix.trace import OP_FIELDS, STEP_FIELDS, TRACE_FIELDS

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

PETERSEN = builtin_graph("petersen")
PETERSEN_TRACE = json.dumps(
    trace_document(PETERSEN, 3, None, "incremental", *solve_incremental(PETERSEN, 3, builtin_table1()))
)


def mutated(rnd: random.Random, value) -> dict:
    """The Petersen graph's trace document at k = 3 with one field changed, chosen by rnd.

    The field, a list entry included, is set to `value`, or one solution row
    is dropped (which fails, since the last step then counts one strand
    more than there are rows), repeated or swapped with a drawn row.
    """
    doc = json.loads(PETERSEN_TRACE)
    step, rows = rnd.choice(doc["steps"]), doc["solutions"]
    places = [
        (doc, rnd.choice(sorted(TRACE_FIELDS | {"construction"}))),
        (doc["graph"], rnd.choice(["n", "m"])),
        (step, rnd.choice(sorted(STEP_FIELDS))),
        (doc["op_totals"], rnd.choice(sorted(OP_FIELDS))),
        (doc["order"], rnd.randrange(PETERSEN.n)),
        (step[rnd.choice(["per_color_after_append", "per_color_after_filter"])], rnd.randrange(3)),
        (rnd.choice(rows), rnd.randrange(PETERSEN.n)),
        (rows, rnd.randrange(len(rows))),
    ]
    kind, i, j = rnd.randrange(len(places) + 3), rnd.randrange(len(rows)), rnd.randrange(len(rows))
    if kind < len(places):
        holder, key = places[kind]
        holder[key] = value
    elif kind == len(places):
        del rows[i]
    elif kind == len(places) + 1:
        rows.insert(i, rows[i])
    else:
        rows[i], rows[j] = rows[j], rows[i]
    return doc


# Each of the document, its graph and a step record may carry one field that no trace names.
unknown = {"extra": json_values}
arbitrary_trace_docs = json_values | st.fixed_dictionaries(
    {
        **{field: json_values for field in TRACE_FIELDS},
        "graph": json_values | st.fixed_dictionaries({"n": json_values, "m": json_values}, optional=unknown),
        "steps": json_values
        | st.lists(
            json_values | st.fixed_dictionaries({f: json_values for f in STEP_FIELDS}, optional=unknown),
            max_size=3,
        ),
        "op_totals": json_values
        | st.dictionaries(st.sampled_from(sorted(OP_FIELDS)), json_values, max_size=6),
    },
    optional={"construction": json_values, **unknown},
)
# Arbitrary documents fail on an early field, so half the draws are a real
# trace document with one field changed: they reach the order, step and row
# checks, and some parse.
trace_docs = st.booleans().flatmap(
    lambda near: st.builds(mutated, st.randoms(use_true_random=True), json_values) if near else arbitrary_trace_docs
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


def test_near_valid_trace_documents_reach_the_row_checks():
    """Over a fixed draw of mutated documents, some parse and some fail on their solution rows."""
    pool = [None, True, -1, 0, 1, 2, 3, 9, 2.5, "x", [], [0, 1], {}]
    outcomes = Counter()
    for seed in range(300):
        rnd = random.Random(seed)
        try:
            read_trace_document(mutated(rnd, rnd.choice(pool)))
            outcomes["parsed"] += 1
        except SolverError as exc:
            outcomes["rows" if re.match(r"trace (field )?solution", str(exc)) else "other"] += 1
    assert outcomes["parsed"] >= 30 and outcomes["rows"] >= 30 and outcomes["other"] >= 30, outcomes


def refusal_in_child(doc: dict) -> str:
    """The SolverError message read_trace_document gives for doc, read in a child under a 1 GiB address-space limit."""
    child = (
        "import json, sys\n"
        "from helix import SolverError, read_trace_document\n"
        "try:\n"
        "    read_trace_document(json.load(sys.stdin))\n"
        "except SolverError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child],
        input=json.dumps(doc),
        capture_output=True,
        text=True,
        timeout=30,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_a_trace_of_a_huge_graph_is_refused_without_listing_its_vertices():
    """graph.n = 10**12 beside a one-entry order: SolverError, without a list of 10**12 vertices."""
    doc = json.loads(PETERSEN_TRACE)
    doc["graph"]["n"], doc["order"] = 10**12, [1]
    assert "order must be a permutation of 1..1000000000000, got [1]" in refusal_in_child(doc)


def test_an_incremental_trace_of_a_huge_k_is_refused_without_listing_its_colors():
    """k = 10**12 beside three-color step records: SolverError, without a census of 10**12 colors."""
    doc = json.loads(PETERSEN_TRACE)
    doc["k"] = 10**12
    assert "per_color_after_append must list 1000000000000 colors, got [1, 1, 1]" in refusal_in_child(doc)


def test_a_monolithic_trace_whose_start_tube_is_huge_is_refused_without_counting_it():
    """k = 10**4000 and n = 10**5: k**n, over 10**9 bits, is refused on bit lengths and never built."""
    n, k = 10**5, 10**4000
    g = builtin_graph("k3")
    doc = trace_document(g, 3, None, "monolithic", *solve_monolithic(g, 3, builtin_table1()))
    doc.update(graph={"n": n, "m": 0}, k=k, order=list(range(1, n + 1)), colorable=False, solutions=[])
    assert f"monolithic trace has peak_tube_size 27 where its start tube holds {k}**{n}" in refusal_in_child(doc)
