"""Each long path is held to its complexity by a count, not a clock.

sys.settrace reports a "line" event each time Python code starts a line,
each pass of a loop included, so the count of them is exact and the same on
every run and host.  A path that is linear in its input takes about twice
the events on twice the input.  Loops inside C functions (a tuple `in`, a
slice) emit no events, so this cannot see them.
"""

import json
import os
import random
import sys
from functools import partial
from itertools import islice, product

import pytest

import helix
from helix import (
    Codebook,
    Codeword,
    Graph,
    TubeMachine,
    count_colorings,
    generate_codebook,
    parse_dimacs,
    read_trace_document,
    solve_incremental,
    trace_document,
    validate_codebook,
)
from helix.frames import Frame, place
from helix.solver import _decode_final

PACKAGE = os.path.dirname(helix.__file__) + os.sep


def line_events(call) -> int:
    """The line events in frames whose file is in the helix package while call() runs.

    Whatever trace function was set before is put back afterwards.
    """
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        call()
    finally:
        sys.settrace(previous)
    return count


def test_line_events_counts_only_the_package_and_puts_the_trace_back():
    def outside():
        return sum(range(3))

    def sentinel(frame, event, arg):
        return None

    previous = sys.gettrace()
    sys.settrace(sentinel)
    try:
        assert line_events(outside) == 0
        assert line_events(partial(Graph.from_edges, 3, [(1, 2)])) > 0
        assert sys.gettrace() is sentinel
    finally:
        sys.settrace(previous)


def _solve_edgeless(n):
    return partial(solve_incremental, Graph.from_edges(n, []), 1, generate_codebook(n, 1, 20, 0))


def _path(n):
    return Graph.from_edges(n, [(v, v + 1) for v in range(1, n)])


def _solve_path(n):
    return partial(solve_incremental, _path(n), 2, generate_codebook(n, 2, 20, 0))


def _count_path(n):
    return partial(count_colorings, _path(n), 2)


def _decode(rows, n=3, k=16):
    """The final decode of a tube of `rows` colorings of n vertices, the first in product order."""
    strands = [tuple(enumerate(colors, 1)) for colors in islice(product(range(k), repeat=n), rows)]
    return partial(_decode_final, TubeMachine().new_tube("t", strands), n)


def _validate(words):
    return partial(validate_codebook, generate_codebook(words, 1, 20, 0))


def _chain(words):
    """Words a_i + a_(i+1) of 12 nt, the a_i distinct 6-mers: each word's first half ends the word before.

    So every word holds a shared half-affix, and each word but the first
    and last crosses the junction of its two neighbours.
    """
    halves = ["".join("ACGT"[v >> 2 * b & 3] for b in range(6)) for v in random.Random(0).sample(range(4**6), words + 1)]
    entries = [Codeword(v, 0, a + b) for v, (a, b) in enumerate(zip(halves, halves[1:]), start=1)]
    return Codebook(words, 1, entries, provenance="chain")


def _validate_chain(words):
    return partial(validate_codebook, _chain(words))


def _generate(words, length=20):
    return partial(generate_codebook, words, 1, length, 0)


def _parse_path(edges):
    lines = [f"p edge {edges + 1} {edges}"] + [f"e {v} {v + 1}" for v in range(1, edges + 1)]
    return partial(parse_dimacs, "\n".join(lines) + "\n")


def _read_edgeless_trace(n):
    g = Graph.from_edges(n, [])
    doc = trace_document(g, 1, None, "incremental", *solve_incremental(g, 1, generate_codebook(n, 1, 20, 0)))
    return partial(read_trace_document, json.loads(json.dumps(doc)))


def _frames(count, slots, top):
    """`count` frames of `slots` - 1 live strands each, slot 0 dead, whose fields reach token `top`."""
    fields = [1 << place(top) | 1 << place(j % top) for j in range(slots)]
    return [Frame.of_fields((1,), fields).split(1)[1] for _ in range(count)]


def _join_by_planes(strands):
    """Four 7-plane frames (tokens 0..48): more strands than planes, so the join walks the planes."""
    return partial(Frame.joined, _frames(4, strands + 1, 48))


def _join_by_slots(planes):
    """Two frames of 2 strands: more planes than strands, so the join walks the live slots."""
    return partial(Frame.joined, _frames(2, 3, 7 * planes - 1))


def _ascending_narrow(planes):
    """A joined frame of 2 strands: more planes than strands, so ascending compares the fields slot by slot."""
    return Frame.joined(_frames(2, 2, 7 * planes - 1)).ascending


@pytest.mark.parametrize(
    "make, size, most",
    [
        pytest.param(_solve_edgeless, 500, 2.3, id="solve_incremental-edgeless-k1"),
        pytest.param(_solve_path, 500, 2.3, id="solve_incremental-path-k2"),
        # The oracle refuses n > 24, so the path goes 12 -> 24 vertices.
        pytest.param(_count_path, 12, 2.3, id="count_colorings-path-k2"),
        pytest.param(_decode, 1000, 2.3, id="decode_final-rows"),
        # A generated table shares no half-affix, so this holds the search's clean exit ...
        pytest.param(_validate, 200, 2.3, id="validate_codebook-gen20"),
        # ... and a chain table, where every word does, the cut and lookup steps.
        pytest.param(_validate_chain, 200, 2.3, id="validate_codebook-chain12"),
        pytest.param(_generate, 200, 2.3, id="generate_codebook-length20"),
        # 200 and 400 words of 12 nt are over codec.FIRST_DRAW_ODDS's bound, so
        # this holds the word-by-word path linear and the case above the first draw.
        pytest.param(partial(_generate, length=12), 200, 2.3, id="generate_codebook-length12"),
        pytest.param(_parse_path, 2000, 2.3, id="parse_dimacs-edges"),
        pytest.param(_read_edgeless_trace, 300, 2.3, id="read_trace_document-edgeless-k1"),
        pytest.param(_join_by_planes, 500, 2.3, id="frame_joined-planes"),
        pytest.param(_join_by_slots, 200, 2.3, id="frame_joined-slots"),
        pytest.param(_ascending_narrow, 200, 2.3, id="frame_ascending-narrow"),
    ],
)
def test_a_long_path_takes_line_events_linear_in_its_input(make, size, most):
    # The calls are built, and their inputs made, before the count starts.
    small, large = make(size), make(2 * size)
    ratio = line_events(large) / line_events(small)
    assert ratio <= most, ratio


@pytest.mark.parametrize("words", [200, 400])
def test_a_chain_table_holds_about_one_witness_per_word(words):
    report = validate_codebook(_chain(words))
    assert not report.duplicates
    assert words - 2 <= len(report.junction_violations) <= 1.1 * words
