import gc
import itertools
import json
import random
import re
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import corpus
from helix import (
    BudgetError,
    Codebook,
    Codeword,
    DecodeError,
    Graph,
    SolverError,
    SoundnessError,
    StepRecord,
    builtin_graph,
    builtin_table1,
    enumerate_colorings,
    generate_codebook,
    read_trace_document,
    solve_incremental,
    solve_monolithic,
    step_census,
    TubeMachine,
    trace_document,
)
from helix import machine, solver
from helix.codec import coloring_from_strand
from helix.frames import Frame
from helix.cli import random_graph


def test_k3_full_trace():
    sols, trace = solve_incremental(builtin_graph("k3"), 3, builtin_table1())
    assert sols.colorable is True
    assert sols.colorings == frozenset(itertools.permutations((0, 1, 2)))
    assert trace.peak_tube_size == 18
    assert "construction" not in trace_document(builtin_graph("k3"), 3, None, "incremental", sols, trace)
    assert trace.steps == (
        StepRecord(1, 1, (1, 1, 1), (1, 1, 1), 0, 3),
        StepRecord(2, 3, (3, 3, 3), (2, 2, 2), 3, 6),
        StepRecord(3, 6, (6, 6, 6), (2, 2, 2), 12, 6),
    )
    assert trace.op_totals.as_dict() == {
        "append": 9, "copy": 3, "merge": 9, "extract": 9, "detect": 1, "discard": 6,
    }


def test_k4_not_three_colorable():
    sols, trace = solve_incremental(builtin_graph("k4"), 3, builtin_table1())
    assert sols.colorable is False
    assert sols.colorings == frozenset()
    assert trace.steps[-1].t0_after == 0


def test_c5_solution_count():
    sols, _ = solve_incremental(builtin_graph("c5"), 3, builtin_table1())
    assert len(sols.colorings) == 30  # (k-1)^n + (-1)^n (k-1) for the 5-cycle
    assert sols.colorings == frozenset(enumerate_colorings(builtin_graph("c5"), 3))


def test_per_step_bookkeeping_is_consistent():
    """Over the suite: each step's counts add up, and each t0_before is the previous t0_after (1 at step 1)."""
    for name, g in corpus.suite():
        for k in corpus.KS:
            _, trace = corpus.run_incremental(name, k)
            assert len(trace.steps) == g.n
            before = 1  # the blank seed strand
            for s in trace.steps:
                assert s.t0_before == before, (name, k, s.vertex)
                assert s.per_color_after_append == (s.t0_before,) * k
                assert sum(s.per_color_after_filter) == s.t0_after
                assert sum(s.per_color_after_append) - sum(s.per_color_after_filter) == s.discarded
                before = s.t0_after


def test_prefix_census_matches_survivors():
    g = builtin_graph("k33")
    cb = generate_codebook(6, 3, 16, 5)
    _, trace = solve_incremental(g, 3, cb)
    for i, s in enumerate(trace.steps, start=1):
        assert s.t0_after == step_census(g, 3, None, i)


def test_step_census_examples():
    k3 = builtin_graph("k3")
    assert step_census(k3, 3, None, 1) == 3
    assert step_census(k3, 3, None, 2) == 6
    assert step_census(k3, 3, None, 3) == 6
    # the first four vertices of c5 induce a path
    assert step_census(builtin_graph("c5"), 3, None, 4) == 24
    with pytest.raises(SolverError, match="1..3"):
        step_census(k3, 3, None, 4)


def test_step_census_respects_order():
    # petersen vertices 1,2,6: order puts 6 second; only edge (1,6) is inside
    g = builtin_graph("petersen")
    order = [6, 1] + [v for v in range(2, 11) if v != 6]
    assert step_census(g, 3, order, 2) == 6
    count = step_census(g, 3, order, 5)
    sols, _ = solve_incremental(g, 3, generate_codebook(10, 3, 16, 5), order=order)
    assert len(sols.colorings) == 120
    assert count >= 120 // 3


def test_order_permutes_but_solution_set_does_not_change():
    g = builtin_graph("c5")
    cb = generate_codebook(5, 3, 16, 5)
    base, _ = solve_incremental(g, 3, cb)
    rng = random.Random(0)
    for _ in range(5):
        order = list(range(1, 6))
        rng.shuffle(order)
        sols, trace = solve_incremental(g, 3, cb, order=order)
        assert sols.colorings == base.colorings
        assert [s.vertex for s in trace.steps] == order


def test_bad_order_rejected():
    g = builtin_graph("k3")
    cb = builtin_table1()
    with pytest.raises(SolverError, match="permutation"):
        solve_incremental(g, 3, cb, order=[1, 2])
    with pytest.raises(SolverError, match="permutation"):
        solve_incremental(g, 3, cb, order=[1, 2, 2])


@pytest.mark.parametrize("order", [(1, 2, 3.0), (True, 2, 3)], ids=["float", "bool"])
def test_an_order_of_a_vertex_that_only_equals_an_int_is_refused(order):
    """3.0 and True equal 3 and 1, but a run on them would write a trace its own reader refuses."""
    g, cb = builtin_graph("k3"), builtin_table1()
    with pytest.raises(SolverError, match=r"permutation of 1\.\.3"):
        solve_incremental(g, 3, cb, order=order)
    with pytest.raises(SolverError, match=r"permutation of 1\.\.3"):
        step_census(g, 3, order, 2)
    solutions, trace = solve_incremental(g, 3, cb)
    with pytest.raises(SolverError, match=r"permutation of 1\.\.3"):
        trace_document(g, 3, order, "incremental", solutions, trace)


def test_codebook_must_cover_instance():
    g = builtin_graph("k3")
    with pytest.raises(SolverError, match="covers 2"):
        solve_incremental(g, 3, generate_codebook(2, 3, 12, 0))
    with pytest.raises(SolverError, match="covers 3"):
        solve_incremental(g, 4, generate_codebook(3, 3, 12, 0))


def test_nucleotide_mode_refuses_broken_codebook():
    from helix import Codebook, Codeword

    broken = Codebook(
        3, 1,
        [Codeword(1, 0, "AAAA"), Codeword(2, 0, "AAAA"), Codeword(3, 0, "AAAA")],
        provenance="broken",
    )
    with pytest.raises(SoundnessError):
        solve_incremental(Graph(3, frozenset()), 1, broken, match_mode="nucleotide")


@pytest.mark.parametrize("engine", [solve_incremental, solve_monolithic])
def test_zero_colors_are_refused(engine):
    with pytest.raises(SolverError, match="color count must be positive, got 0"):
        engine(builtin_graph("k3"), 0, builtin_table1())


@pytest.mark.parametrize("engine", [solve_incremental, solve_monolithic])
@pytest.mark.parametrize("k, shown", [(True, "True"), (2.0, "2.0"), ("3", "'3'")])
def test_a_color_count_that_is_not_an_int_is_refused_by_name(engine, k, shown):
    """Before the coverage check: this codebook covers too few vertices for any k."""
    with pytest.raises(SolverError, match=f"color count must be an int, got {shown}$"):
        engine(builtin_graph("k3"), k, generate_codebook(2, 3, 12, 0))


def test_unknown_match_mode_is_refused():
    with pytest.raises(SolverError, match="unknown match mode 'fuzzy'"):
        solve_incremental(builtin_graph("k3"), 3, builtin_table1(), match_mode="fuzzy")


def test_nucleotide_mode_agrees_with_symbolic():
    g = builtin_graph("c5")
    cb = builtin_table1()
    sym, sym_trace = solve_incremental(g, 3, cb, match_mode="symbolic")
    nuc, nuc_trace = solve_incremental(g, 3, cb, match_mode="nucleotide")
    assert sym.colorings == nuc.colorings
    assert sym_trace.steps == nuc_trace.steps


def test_match_modes_agree_across_the_suite():
    for name, g in corpus.suite():
        for k in corpus.KS:
            cb = corpus.suite_codebook(g.n, k)
            sym, sym_trace = corpus.run_incremental(name, k)
            nuc, nuc_trace = solve_incremental(g, k, cb, match_mode="nucleotide")
            assert nuc == sym, (name, k)
            assert nuc_trace.steps == sym_trace.steps, (name, k)
            assert nuc_trace.op_totals == sym_trace.op_totals, (name, k)
            assert nuc_trace.peak_tube_size == sym_trace.peak_tube_size, (name, k)
            if k**g.n <= 4**6:
                mono_sym, mono_sym_trace = solve_monolithic(g, k, cb)
                mono_nuc, mono_nuc_trace = solve_monolithic(g, k, cb, "nucleotide")
                assert mono_nuc == mono_sym == sym, (name, k)
                assert mono_nuc_trace == mono_sym_trace, (name, k)


def test_bit_decode_matches_per_strand_decode(monkeypatch):
    decoded = []

    def per_strand_check(tube, n):
        colorings = bit_decode(tube, n)
        assert colorings == sorted(coloring_from_strand(s, n) for s in tube.contents)
        decoded.append(len(tube))
        return colorings

    bit_decode = solver._decode_final
    monkeypatch.setattr(solver, "_decode_final", per_strand_check)
    rng = random.Random(3)
    for _, g in corpus.suite():
        shuffled = list(range(1, g.n + 1))
        rng.shuffle(shuffled)
        for k in corpus.KS:
            for order in (None, shuffled):
                solve_incremental(g, k, corpus.suite_codebook(g.n, k), order=order)
    assert len(decoded) == 2 * len(corpus.KS) * len(corpus.suite_names())
    assert sum(decoded) > 0


def test_decode_refuses_a_strand_missing_a_vertex():
    m = TubeMachine()
    tube = m.new_tube("t", [((1, 0), (3, 1)), ((3, 2), (1, 1)), ((1, 0), (2, 0), (3, 0))])
    with pytest.raises(DecodeError, match=r"strand misses vertices \[2\]"):
        solver._decode_final(tube, 3)
    with pytest.raises(DecodeError, match="strand names vertex 3, graph has 1..2"):
        solver._decode_final(m.new_tube("u", [((1, 0), (2, 1), (3, 0))]), 2)
    assert solver._decode_final(m.new_tube("v", [((1, 2), (2, 2)), ((2, 1), (1, 0))]), 2) == [(0, 1), (2, 2)]
    assert solver._decode_final(m.new_tube("w"), 4) == []


def test_a_solution_set_is_the_oracle_rows_and_equals_its_copy_read_back():
    g = builtin_graph("petersen")
    cb = corpus.suite_codebook(g.n, 3)
    expected = enumerate_colorings(g, 3)
    for engine, mode in ((solve_incremental, "incremental"), (solve_monolithic, "monolithic")):
        decoded, trace = engine(g, 3, cb)
        doc = json.loads(json.dumps(trace_document(g, 3, None, mode, decoded, trace)))
        _, read_back, _ = read_trace_document(doc)
        assert decoded == read_back and hash(decoded) == hash(read_back)
        assert decoded.ordered == tuple(expected) and len(expected) == 120
        assert decoded.colorings == frozenset(expected)


@pytest.mark.parametrize("engine", [solve_incremental, solve_monolithic])
def test_a_solve_leaves_no_cyclic_garbage(engine):
    """Tubes, runs and the machine form no reference cycle, so a solve frees everything by reference count."""
    g, cb = builtin_graph("petersen"), corpus.suite_codebook(10, 3)
    gc.collect()
    gc.disable()
    try:
        engine(g, 3, cb)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_k1_runs():
    edgeless = Graph(3, frozenset())
    cb = generate_codebook(3, 1, 12, 0)
    sols, _ = solve_incremental(edgeless, 1, cb)
    assert sols.colorings == frozenset({(0, 0, 0)})
    sols2, _ = solve_incremental(builtin_graph("k3"), 1, generate_codebook(3, 1, 12, 0))
    assert sols2.colorable is False


def test_monolithic_k3():
    sols, trace = solve_monolithic(builtin_graph("k3"), 3, builtin_table1())
    assert sols.colorings == frozenset(itertools.permutations((0, 1, 2)))
    assert trace.peak_tube_size == 27
    assert trace_document(builtin_graph("k3"), 3, None, "monolithic", sols, trace)["construction"] == "synthetic"
    assert trace.steps == ()
    # filtering: per edge and color, two extracts, one merge, one discard
    ops = trace.op_totals.as_dict()
    assert ops["extract"] == 2 * 3 * 3
    assert ops["merge"] == 3 * 3
    assert ops["discard"] == 3 * 3
    assert ops["append"] == 0 and ops["copy"] == 0
    assert ops["detect"] == 1


def test_monolithic_single_vertex():
    g = Graph(1, frozenset())
    sols, trace = solve_monolithic(g, 3, builtin_table1())
    assert sols.colorings == frozenset({(0,), (1,), (2,)})
    assert trace.peak_tube_size == 3


def test_monolithic_budget_refusal_names_the_bound():
    with pytest.raises(BudgetError, match=r"27 strands.*budget of 10"):
        solve_monolithic(builtin_graph("k3"), 3, builtin_table1(), budget=10)


@pytest.mark.parametrize("budget", ["x", True, 2.5])
def test_a_budget_that_is_not_an_int_is_refused_at_the_budget_step(budget):
    g, cb = builtin_graph("k3"), builtin_table1()
    with pytest.raises(SolverError, match=f"strand budget must be an int or None, got {re.escape(repr(budget))}"):
        solve_monolithic(g, 3, cb, budget=budget)
    with pytest.raises(SolverError, match="unknown match mode"):  # the mode is checked before the budget
        solve_monolithic(g, 3, cb, "bogus", budget=budget)
    with pytest.raises(SolverError, match="color count"):  # and the color count first of all
        solve_monolithic(g, True, cb, budget=budget)


def test_monolithic_budget_refuses_before_codebook_validation(monkeypatch):
    def fail(cb):
        raise AssertionError("validate_codebook ran before the budget check")

    cb = generate_codebook(3, 3, 12, 0)
    monkeypatch.setattr("helix.codec.validate_codebook", fail)
    with pytest.raises(BudgetError):
        solve_monolithic(builtin_graph("k3"), 3, cb, "nucleotide", budget=10)


def test_a_monolithic_refusal_names_k_to_the_n_past_the_int_string_limit():
    g = Graph(14300, frozenset())  # 2^14300 has 4305 decimal digits, more than str() writes
    cb = Codebook(g.n, 2, [Codeword(v, c, "A") for v in range(1, g.n + 1) for c in range(2)], "test")
    with pytest.raises(BudgetError, match=r"needs k\^n = 2\^14300 strands, over the budget of 2000000"):
        solve_monolithic(g, 2, cb)


def test_the_least_peak_is_the_complete_graphs_peak():
    cb = generate_codebook(6, 6, 20, 0)
    for n in range(1, 7):
        g = Graph.from_edges(n, itertools.combinations(range(1, n + 1), 2))
        for k in range(1, 7):
            peak = solve_incremental(g, k, cb)[1].peak_tube_size
            solver.check_budget(n, k, peak)
            with pytest.raises(BudgetError, match=f"{k} colors need at least {peak} strands on any engine"):
                solver.check_budget(n, k, peak - 1)


def test_no_run_peaks_below_the_least_peak():
    for name, g in corpus.suite():
        for k in corpus.KS:
            solver.check_budget(g.n, k, corpus.run_incremental(name, k)[1].peak_tube_size)


def test_incremental_peak_is_k_times_the_largest_survivor_tube():
    # Each step copies the survivor tube into k tubes: that is the run's high-water mark.
    rng = random.Random(7)
    for name, g in corpus.suite():
        shuffled = list(range(1, g.n + 1))
        rng.shuffle(shuffled)
        for k in corpus.KS:
            for order in (None, shuffled):
                _, trace = solve_incremental(g, k, corpus.suite_codebook(g.n, k), order=order)
                assert trace.peak_tube_size == k * max(s.t0_before for s in trace.steps), (
                    name, k, order,
                )


def test_incremental_step_discards_each_color_before_the_next_grows(monkeypatch):
    ops = []
    for name in ("append", "copy", "merge", "extract", "detect", "discard"):
        def record(self, tube, *args, _op=getattr(TubeMachine, name), _name=name):
            ops.append(_name)
            return _op(self, tube, *args)

        monkeypatch.setattr(TubeMachine, name, record)
    g = Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
    solve_incremental(g, 2, generate_codebook(3, 2, 12, 0), "nucleotide")
    # per color: append, one extract per earlier neighbor, then its bad tube merged and discarded
    color_at_2 = ["append", "extract", "merge", "discard"]
    color_at_3 = ["append", "extract", "extract", "merge", "discard"]
    assert ops == [
        "copy", "append", "append", "merge",
        "copy", *color_at_2, *color_at_2, "merge",
        "copy", *color_at_3, *color_at_3, "merge",
        "detect",
    ]


def test_monolithic_peak_is_full_space():
    g = builtin_graph("c5")
    cb = generate_codebook(5, 3, 16, 5)
    mono, trace = solve_monolithic(g, 3, cb)
    inc, inc_trace = solve_incremental(g, 3, cb)
    assert trace.peak_tube_size == 3**5
    assert inc_trace.peak_tube_size < trace.peak_tube_size
    assert mono.colorings == inc.colorings


def test_a_monolithic_run_counts_its_product_runs_at_most_once(monkeypatch):
    """Merge, discard and detect count no product run's bits.

    Every run of the filter comes from the start tube through splits, so
    merge ORs without an AND and discard only empties; the one count a run
    may read is the start tube's, when new_tube takes the live count.
    """
    reads = []

    def counted(run):
        reads.append(run)
        return run.live.bit_count()

    monkeypatch.setattr(machine._ProductRun, "count", property(counted))
    g, k = random_graph(8, 0.3, 1), 3
    sols, trace = solve_monolithic(g, k, generate_codebook(g.n, k, 20, 0))
    assert sols.colorings == frozenset(enumerate_colorings(g, k))
    assert trace.op_totals.discard == k * len(g.edges) > 0
    assert len(reads) <= 1, f"{len(reads)} reads of a product run's count"


def _assert_monolithic_run_is_not_stored_strand_by_strand(match_mode):
    g, k = random_graph(9, 0.3, 1), 4
    cb = generate_codebook(g.n, k, 20, 1)
    # per strand, an int of one bit per token and 32 bits more, and a list slot: 11,534,336 B
    list_store = k**g.n * (sys.getsizeof(1 << (32 + g.n * k)) + 8)
    tracemalloc.start()
    try:
        sols, trace = solve_monolithic(g, k, cb, match_mode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.peak_tube_size == k**g.n
    assert sols.colorings == frozenset(enumerate_colorings(g, k))
    assert peak < list_store / 10, f"traced {peak} bytes, a list store is {list_store}"


def test_monolithic_start_tube_is_not_stored_strand_by_strand():
    """4^9 strands as a list of packed ints would take about 11.5 MB; the run traces under a tenth."""
    _assert_monolithic_run_is_not_stored_strand_by_strand("symbolic")


def test_nucleotide_monolithic_start_tube_is_not_stored_strand_by_strand():
    """The same bound on nucleotides: extract reads the product's token columns, so the tube stays a mask."""
    _assert_monolithic_run_is_not_stored_strand_by_strand("nucleotide")


def test_incremental_survivor_tubes_are_not_stored_strand_by_strand():
    """Six free vertices then K5 at k=4: 393,216 strands at the peak, none at the end.

    Each survivor is one 8-byte field (44 tokens fit one word), and the k
    copies of the survivor tube share one frame.  The largest item is the
    repeat check's set of the 98,304 survivors' fields, an int and set
    slots each: about 26 bytes per peak strand in all.  A list of packed
    ints takes over 32, an int and a list slot per strand in each of the
    k copies.
    """
    free, k = 6, 4
    n = free + k + 1
    g = Graph.from_edges(n, [(u, v) for u in range(free + 1, n + 1) for v in range(u + 1, n + 1)])
    cb = generate_codebook(n, k, 20, 1)
    tracemalloc.start()
    try:
        sols, trace = solve_incremental(g, k, cb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (trace.peak_tube_size, sols.colorable) == (k * k**free * 4 * 3 * 2, False)
    bound = 28 * trace.peak_tube_size + (256 << 10)
    assert peak < bound, f"traced {peak} bytes, bound {bound}"


def test_incremental_memory_grows_linearly_with_the_vertex_count():
    """An edgeless graph at k=1 holds one strand: the traced peak follows n, not the n(n+1)/2 prefix orders.

    Every step makes a new vertex order, the last one plus a vertex; only the
    latest is live, so doubling n about doubles the peak.
    """
    peaks = []
    for n in (1000, 2000):
        g, cb = Graph.from_edges(n, []), generate_codebook(n, 1, 20, 1)
        tracemalloc.start()
        try:
            sols, _ = solve_incremental(g, 1, cb)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sols.ordered == ((0,) * n,)
        peaks.append(peak)
    assert peaks[1] < 3 * peaks[0], f"traced peaks {peaks} bytes at n = 1000, 2000"


def test_trace_document_round_trip():
    g = builtin_graph("c5")
    cb = generate_codebook(5, 3, 16, 5)
    sols, trace = solve_incremental(g, 3, cb)
    doc = trace_document(g, 3, None, "incremental", sols, trace)
    assert set(doc) == {
        "graph", "k", "order", "mode", "steps", "op_totals",
        "peak_tube_size", "colorable", "solutions",
    }
    assert doc["graph"] == {"n": 5, "m": 5}
    assert doc["solutions"] == sorted(doc["solutions"])
    # survives JSON and comes back equal
    meta, sols2, trace2 = read_trace_document(json.loads(json.dumps(doc)))
    assert meta["mode"] == "incremental" and meta["order"] == [1, 2, 3, 4, 5]
    assert sols2.colorings == sols.colorings and sols2.colorable == sols.colorable
    assert trace2 == trace


def test_trace_document_monolithic_marks_synthetic():
    g = builtin_graph("k3")
    sols, trace = solve_monolithic(g, 3, builtin_table1())
    doc = trace_document(g, 3, None, "monolithic", sols, trace)
    assert doc["construction"] == "synthetic"
    assert doc["steps"] == []
    _, sols2, trace2 = read_trace_document(doc)
    assert trace_document(g, 3, None, "monolithic", sols2, trace2)["construction"] == "synthetic"


def test_read_trace_document_validates():
    with pytest.raises(SolverError, match="trace document misses fields"):
        read_trace_document({"graph": {"n": 1, "m": 0}})
    g = builtin_graph("k3")
    sols, trace = solve_incremental(g, 3, builtin_table1())
    doc = trace_document(g, 3, None, "incremental", sols, trace)
    text = json.dumps(doc)
    rows, steps = json.loads(text)["solutions"], json.loads(text)["steps"]
    del doc["steps"][0]["vertex"]
    with pytest.raises(SolverError, match=r"step record misses fields: \['vertex'\]"):
        read_trace_document(doc)
    for place, key, value in [
        ("step", "t0_after", [1]),
        ("step", "discarded", True),
        ("doc", "peak_tube_size", "lots"),
        ("op_totals", "append", "x"),
    ]:
        doc = json.loads(text)
        {"step": doc["steps"][0], "doc": doc, "op_totals": doc["op_totals"]}[place][key] = value
        with pytest.raises(SolverError, match=f"{key} must be an integer"):
            read_trace_document(doc)
    for place, key, value, message in [
        ("doc", "foo", 1, r"trace document names unknown fields: \['foo'\]"),
        ("graph", "foo", 1, r"trace graph names unknown fields: \['foo'\]"),
        ("step", "foo", 1, r"step record names unknown fields: \['foo'\]"),
        ("step", "per_color_after_append", "12", "per_color_after_append must be a list of integers, got '12'"),
        ("doc", "colorable", "no", "colorable must be true or false"),
        ("doc", "k", "3", "k must be an integer"),
        ("doc", "k", True, "k must be an integer"),
        ("graph", "n", "x", "graph.n must be an integer"),
        ("graph", "m", None, "graph.m must be an integer"),
        ("doc", "order", "abc", "order must be a list of integers"),
        ("doc", "order", [1, 2.0, 3], "order must be an integer"),
        ("doc", "mode", 5, "mode must be a string"),
        ("doc", "solutions", [["a"]], "solutions must be an integer"),
        ("doc", "solutions", [[0, 1, 2], "ab"], "solutions must be a list of integers"),
        ("doc", "solutions", {"a": 1}, "solutions must be a list"),
        ("doc", "peak_tube_size", -7, "peak_tube_size must be an integer >= 0"),
        ("doc", "k", -3, "k must be an integer >= 0"),
        ("graph", "n", -1, "graph.n must be an integer >= 0"),
        ("doc", "op_totals", {}, r"op_totals misses operations: \['append', 'copy', "),
        ("doc", "op_totals", {op: 1 for op in ("append", "copy", "merge", "extract", "detect")},
         r"op_totals misses operations: \['discard'\]"),
        ("doc", "solutions", [[-1, 2, 0]], "solutions must be an integer >= 0"),
        ("doc", "solutions", [[0]], r"solution \[0\] is not a coloring of 3 vertices in 3 colors"),
        ("doc", "solutions", [[0, 1, 3]], r"solution \[0, 1, 3\] is not a coloring"),
        ("doc", "solutions", [[5, 5, 5, 5]], "is not a coloring of 3 vertices"),
        ("doc", "solutions", [rows[0], *rows], r"strictly increasing, got \[0, 1, 2\] then \[0, 1, 2\]"),
        ("doc", "solutions", [rows[1], rows[0], *rows[2:]], r"strictly increasing, got \[0, 2, 1\] then \[0, 1, 2\]"),
        # Well-typed fields that trace_document never writes.
        ("doc", "order", [7, 7], r"order must be a permutation of 1..3, got \[7, 7\]"),
        ("doc", "order", [1, 2], r"order must be a permutation of 1..3"),
        ("doc", "mode", "sideways", "mode must be a string naming an engine"),
        ("doc", "colorable", False, "colorable is false beside 6 solutions"),
        ("graph", "n", 0, "graph.n and k must be at least 1, got n=0 and k=3"),
        ("doc", "k", 0, "graph.n and k must be at least 1, got n=3 and k=0"),
        ("graph", "m", 4, "graph.m 4 is more than the 3 pairs of 3 vertices"),
        ("doc", "solutions", [], "colorable is true beside 0 solutions"),
        # Engine shapes that trace_document never writes.
        ("doc", "steps", steps[:1], r"steps must visit the order \[1, 2, 3\], got vertices \[1\]"),
        ("doc", "steps", [steps[1], steps[0], steps[2]], r"steps must visit the order \[1, 2, 3\], got vertices \[2, 1, 3\]"),
        ("step", "vertex", 99, r"steps must visit the order \[1, 2, 3\], got vertices \[99, 2, 3\]"),
        ("step", "vertex", 0, r"steps must visit the order \[1, 2, 3\], got vertices \[0, 2, 3\]"),
        ("doc", "construction", "synthetic", "incremental trace carries no construction, got 'synthetic'"),
        ("doc", "construction", [1, {"a": 2}], r"incremental trace carries no construction, got \[1, \{'a': 2\}\]"),
        ("doc", "construction", 5, "incremental trace carries no construction, got 5"),
        ("doc", "construction", None, "incremental trace carries no construction, got None"),
        # Counts that break the census between steps, each checked after every check above.
        ("step", "per_color_after_append", [1], r"per_color_after_append must list 3 colors, got \[1\]"),
        ("step", "per_color_after_filter", [1, 1, 1, 1], "per_color_after_filter must list 3 colors"),
        ("step", "t0_before", 2, "step at vertex 1 has t0_before 2 where its counts give 1"),
        ("later step", "t0_before", 999, "step at vertex 2 has t0_before 999 where its counts give 3"),
        ("later step", "per_color_after_append", [3, 3, 4],
         r"step at vertex 2 has per_color_after_append \(3, 3, 4\) where its counts give \(3, 3, 3\)"),
        ("later step", "per_color_after_filter", [2, 2, 3], "step at vertex 2 has t0_after 6 where its counts give 7"),
        ("later step", "t0_after", 5, "step at vertex 2 has t0_after 5 where its counts give 6"),
        ("later step", "discarded", 4, "step at vertex 2 has discarded 4 where its counts give 3"),
        ("doc", "solutions", rows[1:], "incremental trace ends at t0_after 6 beside 5 solutions"),
    ]:
        doc = json.loads(text)
        {"doc": doc, "graph": doc["graph"], "step": doc["steps"][0], "later step": doc["steps"][1]}[place][key] = value
        with pytest.raises(SolverError, match=message):
            read_trace_document(doc)
    doc = json.loads(text)  # a last step three strands over the solutions, its own counts consistent
    doc["steps"][-1].update(per_color_after_filter=[3, 3, 3], discarded=9, t0_after=9)
    with pytest.raises(SolverError, match="incremental trace ends at t0_after 9 beside 6 solutions"):
        read_trace_document(doc)
    sols, trace = solve_monolithic(g, 3, builtin_table1())
    text = json.dumps(trace_document(g, 3, None, "monolithic", sols, trace))
    for key, value, message in [
        ("steps", steps, "monolithic trace carries no steps, got 3"),
        ("construction", "stepwise", "monolithic trace must carry construction 'synthetic', got 'stepwise'"),
        ("peak_tube_size", 26, r"monolithic trace has peak_tube_size 26 where its start tube holds 3\*\*3"),
        ("peak_tube_size", 28, r"monolithic trace has peak_tube_size 28 where its start tube holds 3\*\*3"),
        ("k", 4, r"monolithic trace has peak_tube_size 27 where its start tube holds 4\*\*3"),
    ]:
        doc = json.loads(text)
        doc[key] = value
        with pytest.raises(SolverError, match=message):
            read_trace_document(doc)
    del doc["construction"]
    with pytest.raises(SolverError, match="must carry construction 'synthetic', got None"):
        read_trace_document(doc)


@pytest.mark.parametrize("mode", ["incremental", "monolithic"])
@pytest.mark.parametrize("g, k", [(random_graph(1, 0.0, 1), k) for k in (1, 2, 3)] + [(builtin_graph("k3"), 1)])
def test_traces_of_one_vertex_and_of_one_color_read_back(g, k, mode):
    """n = 1 and k = 1 are the reader's least instance; k = 1 on a graph with an edge colors nothing."""
    engine = solve_incremental if mode == "incremental" else solve_monolithic
    sols, trace = engine(g, k, generate_codebook(g.n, k, 16, 0))
    meta, read_sols, read_trace = read_trace_document(json.loads(json.dumps(trace_document(g, k, None, mode, sols, trace))))
    assert meta == {"graph": {"n": g.n, "m": g.m}, "k": k, "order": list(range(1, g.n + 1)), "mode": mode}
    assert (read_sols, read_trace) == (sols, trace)
    assert sols.colorable is (g.m == 0)


def test_every_suite_trace_reads_back():
    """Both engines, k = 1..4, both match modes, natural and shuffled orders: no run breaks a law the reader checks."""
    rng = random.Random(7)
    for name, g in corpus.suite():
        shuffled = list(range(1, g.n + 1))
        rng.shuffle(shuffled)
        for k, match_mode in itertools.product((1, *corpus.KS), solver.MATCH_MODES):
            cb = corpus.suite_codebook(g.n, k)
            runs = [("incremental", order, solve_incremental(g, k, cb, match_mode, order)) for order in (None, shuffled)]
            if k**g.n <= solver.DEFAULT_STRAND_BUDGET:
                mono = solve_monolithic(g, k, cb, match_mode)
                runs += [("monolithic", order, mono) for order in (None, shuffled)]
            for mode, order, run in runs:
                doc = json.loads(json.dumps(trace_document(g, k, order, mode, *run)))
                assert read_trace_document(doc)[1:] == run, (name, k, match_mode, order, mode)


@st.composite
def drawn_runs(draw):
    """G(n, p) with n <= 9, k <= 4, a run order, a codebook seed and a match mode."""
    n = draw(st.integers(1, 9))
    g = random_graph(n, draw(st.sampled_from([0.0, 0.2, 0.4, 0.6, 1.0])), draw(st.integers(0, 2**16)))
    order = draw(st.permutations(range(1, n + 1)))
    return g, draw(st.integers(1, 4)), order, draw(st.integers(0, 2**16)), draw(st.sampled_from(solver.MATCH_MODES))


@settings(max_examples=200, deadline=None)
@given(drawn_runs())
def test_both_engines_agree_with_the_oracle_on_drawn_instances(run):
    """Each engine's rows are the oracle's, every incremental t0_after is the census, and each document reads back.

    4**9 strands are within the default budget, so the monolithic engine runs on every draw.
    """
    g, k, order, seed, match_mode = run
    cb = generate_codebook(g.n, k, 20, seed)
    incremental = solve_incremental(g, k, cb, match_mode, order)
    monolithic = solve_monolithic(g, k, cb, match_mode)
    want = enumerate_colorings(g, k)
    for mode, (sols, trace) in (("incremental", incremental), ("monolithic", monolithic)):
        assert list(sols.ordered) == want and sols.colorable == bool(want), mode
        doc = json.loads(json.dumps(trace_document(g, k, order, mode, sols, trace)))
        assert read_trace_document(doc)[1:] == (sols, trace), mode
    steps = incremental[1].steps
    assert [s.t0_after for s in steps] == [step_census(g, k, order, i) for i in range(1, g.n + 1)]


def test_read_trace_document_refuses_unequal_color_counts_and_a_forged_peak():
    """Counts no run writes, though the census between steps holds: the golden k3 trace with one field changed."""
    golden = (Path(__file__).parent / "data" / "k3_trace.json").read_text(encoding="utf-8")
    read_trace_document(json.loads(golden))
    for place, key, value, message in [
        ("later step", "per_color_after_filter", [1, 2, 3],
         r"step at vertex 2 has per_color_after_filter \(1, 2, 3\) where its counts give \(2, 2, 2\)"),
        ("doc", "peak_tube_size", 1, "incremental trace has peak_tube_size 1 where its steps give 18"),
        ("doc", "peak_tube_size", 19, "incremental trace has peak_tube_size 19 where its steps give 18"),
    ]:
        doc = json.loads(golden)
        {"doc": doc, "later step": doc["steps"][1]}[place][key] = value
        with pytest.raises(SolverError, match=message):
            read_trace_document(doc)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("k", -(10**5000), "trace field k must be an integer >= 0, got -<int of 16610 bits>"),
        ("peak_tube_size", 10**5000, "peak_tube_size <int of 16610 bits> where its steps give 18"),
    ],
    ids=["k", "peak_tube_size"],  # pytest's default ids would print the ints
)
def test_read_trace_document_names_an_int_too_long_to_print_by_its_bit_length(key, value, message):
    """A document built in process can hold an int past str's 4,300-digit limit; it is still a SolverError."""
    doc = json.loads((Path(__file__).parent / "data" / "k3_trace.json").read_text(encoding="utf-8"))
    doc[key] = value
    with pytest.raises(SolverError, match=message):
        read_trace_document(doc)


def _leaf_edits(value, path=()):
    """Each one-leaf edit of a JSON value as (path, new leaf): an integer +1, or -1 where at least 1; a boolean flipped."""
    for key, leaf in value.items() if isinstance(value, dict) else enumerate(value):
        if isinstance(leaf, bool):
            yield (*path, key), not leaf
        elif isinstance(leaf, int):
            yield from (((*path, key), leaf + d) for d in (1, -1) if leaf + d >= 0)
        elif isinstance(leaf, (dict, list)):
            yield from _leaf_edits(leaf, (*path, key))


def test_a_single_edit_is_refused_unless_only_the_graph_or_the_op_counts_can_tell():
    """Every one-leaf edit of the golden k3 trace and of a monolithic k3 trace is refused, but for three kinds.

    A smaller graph.m, an op_totals count, and a solution color that keeps the
    rows strictly increasing and below k: telling these from a run needs the
    graph's edges, or a law over the operation counts that the reader does
    not check.
    """
    g = builtin_graph("k3")
    golden = json.loads((Path(__file__).parent / "data" / "k3_trace.json").read_text(encoding="utf-8"))
    mono = json.loads(json.dumps(trace_document(g, 3, None, "monolithic", *solve_monolithic(g, 3, builtin_table1()))))
    outcomes = Counter()
    for original in (golden, mono):
        for path, leaf in _leaf_edits(original):
            doc = json.loads(json.dumps(original))
            holder = doc
            for key in path[:-1]:
                holder = holder[key]
            holder[path[-1]] = leaf
            rows = doc["solutions"]
            unseen = (
                path == ("graph", "m") and leaf < g.m
                or path[0] == "op_totals"
                or path[0] == "solutions" and leaf < 3 and all(a < b for a, b in zip(rows, rows[1:]))
            )
            try:
                read_trace_document(doc)
                accepted = True
            except SolverError:
                accepted = False
            assert accepted is unseen, (doc["mode"], path, leaf)
            outcomes[accepted] += 1
    assert outcomes[True] and outcomes[False], outcomes


def test_read_trace_document_refuses_an_empty_instance():
    """No vertices and no colors, written consistently everywhere else, is still not a run."""
    g = builtin_graph("k3")
    doc = trace_document(g, 3, None, "incremental", *solve_incremental(g, 3, builtin_table1()))
    doc.update(graph={"n": 0, "m": 0}, k=0, order=[], steps=[], colorable=False, solutions=[])
    with pytest.raises(SolverError, match="graph.n and k must be at least 1, got n=0 and k=0"):
        read_trace_document(doc)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("steps", [1], "must be a JSON object"),
        ("steps", {"vertex": 1}, "steps must be a list"),
        ("op_totals", {"append": 9, "splice": 1}, "unknown operations"),
        ("op_totals", [9, 3], "op_totals must be a JSON object"),
    ],
)
def test_read_trace_document_rejects_malformed_steps_and_op_totals(field, value, message):
    g = builtin_graph("k3")
    sols, trace = solve_incremental(g, 3, builtin_table1())
    doc = trace_document(g, 3, None, "incremental", sols, trace)
    doc[field] = value
    with pytest.raises(SolverError, match=message):
        read_trace_document(doc)


def test_read_trace_document_rejects_malformed_step_values():
    g = builtin_graph("k3")
    sols, trace = solve_incremental(g, 3, builtin_table1())
    doc = trace_document(g, 3, None, "incremental", sols, trace)
    doc["steps"][1]["per_color_after_append"] = 3
    with pytest.raises(SolverError, match="per_color_after_append must be a list of integers, got 3"):
        read_trace_document(doc)


@pytest.mark.parametrize("match_mode", solver.MATCH_MODES)
def test_a_join_that_copies_one_slot_over_another_fails_the_run(monkeypatch, match_mode):
    """A frame bug that repeats a strand fails the repeat check, whatever order the fields are in."""
    joined = Frame.joined.__func__

    def copying(cls, frames):
        fields = list(joined(cls, frames).values())
        fields[-1] = fields[0]
        return Frame.of_fields(frames[0].order, fields)

    monkeypatch.setattr(Frame, "joined", classmethod(copying))
    with pytest.raises(SolverError, match="repeated strand after vertex 1"):
        solve_incremental(builtin_graph("petersen"), 3, builtin_table1(), match_mode)


@pytest.mark.parametrize("match_mode", solver.MATCH_MODES)
def test_survivors_ascend_and_a_join_out_of_order_passes_the_exact_repeat_check(monkeypatch, match_mode):
    """The survivor tube stays one frame of ascending fields, here of two words in a reversed order.

    Joined out of order, the survivors go through the set of field ints
    instead, with no false alarm and the same answer and trace.
    """
    g, cb, order = random_graph(22, 0.2, 3), generate_codebook(22, 3, 20, 0), range(22, 0, -1)
    ascending, seen = Frame.ascending, []
    monkeypatch.setattr(Frame, "ascending", lambda frame: seen.append(ascending(frame)) or seen[-1])
    want = solve_incremental(g, 3, cb, match_mode, order)
    assert want[0].ordered == tuple(enumerate_colorings(g, 3))
    assert seen == [True] * g.n
    joined = Frame.joined.__func__
    monkeypatch.setattr(Frame, "joined", classmethod(lambda cls, frames: joined(cls, frames[::-1])))
    seen.clear()
    assert solve_incremental(g, 3, cb, match_mode, order) == want
    assert False in seen
