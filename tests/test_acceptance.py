"""Acceptance gate: ten end-to-end checks over the fixed graph suite.

One test per numbered check, so `pytest -v` prints one pass/fail line for
each.  Measured artifacts (sweep timing, the embedded table's validation
outcome, cohort reduction factors) are printed into captured output.

The suite is the six built-in graphs plus the pinned 20-seed random cohort
from tests/corpus.py; incremental runs are cached there, so the timing in
check 1 is honest only because this module is the sole consumer of the cache
and check 1 populates it.
"""

import random
import statistics
import time
from collections import Counter

import pytest

import corpus
from helix import (
    Codeword,
    MachineFault,
    TubeMachine,
    builtin_table1,
    decode_strand,
    dump_codebook,
    generate_codebook,
    render,
    solve_incremental,
)
from helix import oracle, solver
from helix.cli import main


def test_criterion_01_oracle_equivalence():
    # every suite graph, every k in {2,3,4}: incremental == brute-force oracle
    start = time.perf_counter()
    combos = 0
    for name, g in corpus.suite():
        for k in corpus.KS:
            sols, _ = corpus.run_incremental(name, k)
            expected = oracle.enumerate_colorings(g, k)
            assert sols.sorted_colorings() == expected, (name, k)
            assert sols.colorable == bool(expected)
            combos += 1
    elapsed = time.perf_counter() - start
    print(f"[acceptance] 1: {combos} (graph, k) combos matched the oracle in {elapsed:.2f}s")
    assert combos == 26 * 3
    assert elapsed < 10.0


def test_criterion_02_mode_equivalence():
    # monolithic == incremental wherever the full tube fits the strand budget
    checked = 0
    for name, g in corpus.suite():
        for k in corpus.KS:
            if k ** g.n > solver.DEFAULT_STRAND_BUDGET:
                continue
            inc, _ = corpus.run_incremental(name, k)
            mono, _ = solver.solve_monolithic(g, k, corpus.suite_codebook(g.n, k))
            assert mono.colorings == inc.colorings, (name, k)
            checked += 1
    # 4^10 is the largest instance and it fits, so nothing may be skipped
    assert checked == 26 * 3


def test_criterion_03_hand_derived_checkpoints():
    k3_sols, k3_trace = corpus.run_incremental("k3", 3)
    assert len(k3_sols.colorings) == 6
    assert k3_trace.peak_tube_size == 18
    k4_sols, _ = corpus.run_incremental("k4", 3)
    assert k4_sols.colorable is False
    c5_sols, _ = corpus.run_incremental("c5", 3)
    assert len(c5_sols.colorings) == 30 == 2**5 - 2


def test_criterion_04_prefix_law():
    # after step i the survivor tube holds exactly the proper colorings of the
    # induced prefix subgraph
    for name, g in corpus.suite():
        for k in corpus.KS:
            _, trace = corpus.run_incremental(name, k)
            for i, step in enumerate(trace.steps, start=1):
                assert step.t0_after == solver.step_census(g, k, None, i), (name, k, i)


def test_criterion_05_pruning(capsys):
    assert all(g.m >= 1 and g.n >= 3 for _, g in corpus.suite())
    for name, g in corpus.suite():
        for k in corpus.KS:
            _, trace = corpus.run_incremental(name, k)
            assert trace.peak_tube_size < k**g.n, (name, k)

    reductions = []
    for name, g in corpus.suite():
        if name.startswith("rnd") and g.n == 10:
            _, trace = corpus.run_incremental(name, 3)
            reductions.append(3**10 / trace.peak_tube_size)
    median = statistics.median(reductions)
    assert median > 10

    assert main(["compare", "--graph", "builtin:c5", "--colors", "3"]) == 0
    out = capsys.readouterr().out
    assert "reduction factor" in out
    print(
        f"[acceptance] 5: n=10 k=3 cohort reductions "
        f"{sorted(round(r, 1) for r in reductions)}, median {median:.1f}"
    )


def test_criterion_06_machine_laws():
    rng = random.Random(20260822)
    cases = 1000

    def rand_strand():
        verts = rng.sample(range(1, 7), rng.randint(0, 5))
        return tuple((v, rng.randrange(3)) for v in verts)

    def rand_contents():
        return [rand_strand() for _ in range(rng.randint(0, 30))]

    for _ in range(cases):  # extract partitions the tube and empties it
        contents = rand_contents()
        machine = TubeMachine()
        tube = machine.new_tube("t", contents)
        cw = Codeword(rng.randint(1, 6), rng.randrange(3), "ACGT")
        plus, minus = machine.extract(tube, cw)
        assert Counter(plus.contents) + Counter(minus.contents) == Counter(contents)
        assert all((cw.vertex, cw.color) in s for s in plus.contents)
        assert all((cw.vertex, cw.color) not in s for s in minus.contents)
        assert len(tube) == 0

    for _ in range(cases):  # copy conserves the multiset into each replica
        contents = rand_contents()
        machine = TubeMachine()
        tube = machine.new_tube("t", contents)
        copies = machine.copy(tube, rng.randint(1, 4))
        for replica in copies:
            assert Counter(replica.contents) == Counter(contents)
        assert len(tube) == 0

    for _ in range(cases):  # merge conserves the union and empties sources
        machine = TubeMachine()
        dest = machine.new_tube("dest", rand_contents())
        sources = [machine.new_tube(f"s{j}", rand_contents()) for j in range(rng.randint(1, 4))]
        expected = Counter(dest.contents)
        for s in sources:
            expected += Counter(s.contents)
        assert machine.merge(dest, sources) is dest
        assert Counter(dest.contents) == expected
        assert all(len(s) == 0 for s in sources)

    for _ in range(cases):  # append keeps cardinality, or faults on a clash
        contents = rand_contents()
        machine = TubeMachine()
        tube = machine.new_tube("t", contents)
        cw = Codeword(rng.randint(1, 6), rng.randrange(3), "ACGT")
        if any(cw.vertex in {v for v, _ in s} for s in contents):
            with pytest.raises(MachineFault):
                machine.append(tube, cw)
        else:
            machine.append(tube, cw)
            assert len(tube) == len(contents)
            assert all(s[-1] == (cw.vertex, cw.color) for s in tube.contents)


def test_criterion_07_match_mode_agreement():
    table = builtin_table1()
    report = table.validation()
    print(
        f"[acceptance] 7: embedded table validation ok={report.ok}, "
        f"duplicates={len(report.duplicates)}, "
        f"junction_violations={len(report.junction_violations)}, "
        f"min_hamming={report.min_pairwise_hamming}"
    )
    books = [generate_codebook(6, 3, 14, seed) for seed in range(5)]
    if report.ok:
        books.append(table)
    assert len(books) == 6  # the embedded table is expected to validate

    rng = random.Random(31)
    tubes_checked = 0
    for cb in books:
        for _ in range(90):
            contents = []
            for _ in range(rng.randint(0, 15)):
                verts = rng.sample(range(1, cb.n + 1), rng.randint(0, min(cb.n, 5)))
                contents.append(tuple((v, rng.randrange(cb.k)) for v in verts))
            cw = cb.codeword(rng.randint(1, cb.n), rng.randrange(cb.k))
            symbolic, nucleotide = TubeMachine(), TubeMachine(cb)
            sym = symbolic.extract(symbolic.new_tube("a", contents), cw)
            nuc = nucleotide.extract(nucleotide.new_tube("b", contents), cw)
            assert sym[0].contents == nuc[0].contents
            assert sym[1].contents == nuc[1].contents
            tubes_checked += 1
    assert tubes_checked >= 500


def test_criterion_08_operation_count_law():
    # closed forms; v_plus counts vertices with at least one earlier neighbor
    for name, g in corpus.suite():
        v_plus = len({v for _, v in g.sorted_edges()})
        for k in corpus.KS:
            _, trace = corpus.run_incremental(name, k)
            assert trace.op_totals.as_dict() == {
                "append": g.n * k,
                "copy": g.n,
                "merge": g.n + k * v_plus,
                "extract": k * g.m,
                "detect": 1,
                "discard": k * v_plus,
            }, (name, k)


def test_criterion_09_order_invariance():
    k = 3
    for name, g in corpus.suite():
        baseline, _ = corpus.run_incremental(name, k)
        rng = random.Random(f"order:{name}")
        for _ in range(10):
            order = list(range(1, g.n + 1))
            rng.shuffle(order)
            sols, _ = solve_incremental(g, k, corpus.suite_codebook(g.n, k), order=order)
            assert sols.colorings == baseline.colorings, (name, order)


def test_criterion_10_codebook_round_trip_and_determinism():
    rng = random.Random(77)
    cases = 0
    for cb in (builtin_table1(), generate_codebook(8, 4, 16, 5)):
        for _ in range(600):
            verts = rng.sample(range(1, cb.n + 1), rng.randint(0, min(cb.n, 8)))
            strand = tuple((v, rng.randrange(cb.k)) for v in verts)
            assert decode_strand(render(strand, cb), cb) == strand
            cases += 1
    assert cases >= 1000

    twice = [dump_codebook(generate_codebook(5, 3, 18, 7)) for _ in range(2)]
    assert twice[0] == twice[1]
