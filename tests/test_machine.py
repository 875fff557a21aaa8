import copy
import itertools
import random
import re
import unittest.mock
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, invariant, multiple, rule

import helix.frames
import helix.machine
from helix import (
    Codebook,
    CodecError,
    Codeword,
    MachineFault,
    OpCounter,
    SoundnessError,
    TubeMachine,
    builtin_table1,
    generate_codebook,
    render,
)

CW = {(v, c): Codeword(v, c, "ACGT") for v in range(1, 9) for c in range(4)}


def cw(v, c):
    return CW[(v, c)]


def product_of(tube):
    """The product under a tube that is one product run, else None."""
    runs = tube._runs
    return runs[0].product if len(runs) == 1 and isinstance(runs[0], helix.machine._ProductRun) else None


def test_append_extends_every_strand():
    m = TubeMachine()
    t = m.new_tube("t", [((1, 0),), ((1, 1),)])
    m.append(t, cw(2, 2))
    assert Counter(t.contents) == Counter({((1, 0), (2, 2)): 1, ((1, 1), (2, 2)): 1})
    assert m.counter.append == 1


def test_append_blank_strand():
    m = TubeMachine()
    t = m.new_tube("t", [()])
    m.append(t, cw(1, 0))
    assert t.contents == [((1, 0),)]


def test_append_on_empty_tube_stays_empty():
    m = TubeMachine()
    t = m.new_tube("t")
    m.append(t, cw(1, 0))
    assert len(t) == 0
    assert m.counter.append == 1


def test_append_faults_on_existing_vertex():
    m = TubeMachine()
    t = m.new_tube("t", [((3, 1),)])
    with pytest.raises(MachineFault, match="vertex 3"):
        m.append(t, cw(3, 0))


def test_copy_empties_source():
    m = TubeMachine()
    t = m.new_tube("t", [((1, 0),), ((1, 1),)])
    copies = m.copy(t, 3)
    assert len(copies) == 3
    for c in copies:
        assert Counter(c.contents) == Counter({((1, 0),): 1, ((1, 1),): 1})
    assert len(t) == 0
    assert m.counter.copy == 1


def test_copy_count_validation():
    m = TubeMachine()
    t = m.new_tube("t")
    with pytest.raises(ValueError, match="at least 1"):
        m.copy(t, 0)
    (only,) = m.copy(t, 1)
    assert len(only) == 0


def test_merge_accumulates_multiplicity():
    m = TubeMachine()
    a = m.new_tube("a", [((1, 0),)])
    b = m.new_tube("b", [((1, 0),)])
    dest = m.new_tube("dest", [((2, 0),)])
    m.merge(dest, [a, b])
    assert Counter(dest.contents) == Counter({((1, 0),): 2, ((2, 0),): 1})
    assert len(a) == 0 and len(b) == 0
    assert m.counter.merge == 1


def test_merge_empty_source_list():
    m = TubeMachine()
    t = m.new_tube("t", [((1, 0),)])
    m.merge(t, [])
    assert len(t) == 1
    assert m.counter.merge == 1


def test_merge_into_itself_faults():
    m = TubeMachine()
    t = m.new_tube("t", [((1, 0),)])
    with pytest.raises(MachineFault, match="itself"):
        m.merge(t, [t])


def test_merge_of_a_source_listed_twice_faults_before_pouring():
    cb = BASES_CBS[0]
    for m in (TubeMachine(), TubeMachine(cb)):
        a = m.new_tube("a", [((1, 0),), ((1, 1),)])
        m.append(a, cb.codeword(2, 0))
        _, a = m.extract(a, cb.codeword(3, 0))
        dest = m.new_tube("dest")
        with pytest.raises(MachineFault, match="twice"):
            m.merge(dest, [a, a])
        assert dest.contents == []
        assert a.contents == [((1, 0), (2, 0)), ((1, 1), (2, 0))]
        m.merge(dest, [a])
        assert dest.contents == [((1, 0), (2, 0)), ((1, 1), (2, 0))]
        if m.codebook is not None:
            assert_extract_follows_render(m, dest)


def test_extract_partitions_and_consumes_source():
    m = TubeMachine()
    strands = [((1, 0), (2, 1)), ((1, 1), (2, 1)), ((1, 0), (3, 2))]
    t = m.new_tube("t", strands)
    plus, minus = m.extract(t, cw(1, 0))
    assert Counter(plus.contents) == Counter({((1, 0), (2, 1)): 1, ((1, 0), (3, 2)): 1})
    assert Counter(minus.contents) == Counter({((1, 1), (2, 1)): 1})
    assert len(t) == 0
    assert m.counter.extract == 1


def test_extract_empty_tube():
    m = TubeMachine()
    plus, minus = m.extract(m.new_tube("t"), cw(1, 0))
    assert len(plus) == 0 and len(minus) == 0


def test_nucleotide_extract_needs_validated_codebook(small_codebook):
    broken = Codebook(
        2, 1,
        [Codeword(1, 0, "ACGT"), Codeword(2, 0, "ACGT")],
        provenance="broken",
    )
    with pytest.raises(SoundnessError, match="failed validation"):
        TubeMachine(broken)  # refused before the session hands out a tube
    m = TubeMachine(small_codebook)
    plus, minus = m.extract(m.new_tube("t", [((1, 0),), ((2, 0),)]), small_codebook.codeword(1, 0))
    assert (plus.contents, minus.contents) == ([((1, 0),)], [((2, 0),)])


def test_match_modes_agree_on_validated_codebook():
    cb = generate_codebook(6, 3, 14, 42)
    assert cb.validation().ok
    rng = random.Random(7)
    for _ in range(200):
        contents = []
        for _ in range(rng.randint(0, 12)):
            vertices = rng.sample(range(1, 7), rng.randint(0, 6))
            contents.append(tuple((v, rng.randrange(3)) for v in vertices))
        codeword = cb.codeword(rng.randint(1, 6), rng.randrange(3))
        sym, nuc = TubeMachine(), TubeMachine(cb)
        sp, sm = sym.extract(sym.new_tube("s", contents), codeword)
        np_, nm = nuc.extract(nuc.new_tube("n", contents), codeword)
        assert Counter(sp.contents) == Counter(np_.contents)
        assert Counter(sm.contents) == Counter(nm.contents)


def test_detect():
    m = TubeMachine()
    assert m.detect(m.new_tube("full", [((1, 0),)])) is True
    assert m.detect(m.new_tube("empty")) is False
    assert m.counter.detect == 2


def test_discard_retires_tube():
    m = TubeMachine()
    t = m.new_tube("t", [((1, 0),)])
    m.discard(t)
    assert t.retired and len(t) == 0
    for op in (
        lambda: m.append(t, cw(1, 0)),
        lambda: m.copy(t, 2),
        lambda: m.merge(t, []),
        lambda: m.merge(m.new_tube("x"), [t]),
        lambda: m.extract(t, cw(1, 0)),
        lambda: m.detect(t),
        lambda: m.discard(t),
    ):
        with pytest.raises(MachineFault, match="discarded"):
            op()
    assert m.counter.discard == 1


def test_peak_tracks_live_total_across_all_tubes():
    m = TubeMachine()
    t = m.new_tube("t", [((1, 0),), ((1, 1),)])
    assert m.peak_tube_size == 2
    copies = m.copy(t, 3)  # 6 live strands in 3 tubes
    assert m.peak_tube_size == 6
    m.merge(t, copies)
    assert m.peak_tube_size == 6
    plus, minus = m.extract(t, cw(1, 0))
    assert m.peak_tube_size == 6  # partition moves, never grows
    m.discard(plus)
    m.discard(minus)
    assert m.peak_tube_size == 6


def test_op_counter_dict_shape():
    c = OpCounter()
    assert list(c.as_dict()) == ["append", "copy", "merge", "extract", "detect", "discard"]
    snap = c.snapshot()
    c.append += 1
    assert snap.append == 0


# --- randomized laws -------------------------------------------------------

strands_st = st.builds(
    lambda d: tuple(d.items()),
    st.dictionaries(st.integers(1, 8), st.integers(0, 3), max_size=6),
)
contents_st = st.lists(strands_st, max_size=25)
token_st = st.tuples(st.integers(1, 8), st.integers(0, 3))


@settings(max_examples=200, deadline=None)
@given(contents_st, token_st)
def test_extract_partition_law(contents, token):
    m = TubeMachine()
    t = m.new_tube("t", contents)
    before = Counter(contents)
    plus, minus = m.extract(t, cw(*token))
    assert Counter(plus.contents) + Counter(minus.contents) == before
    assert all(token in s for s in plus.contents)
    assert all(token not in s for s in minus.contents)


@settings(max_examples=200, deadline=None)
@given(contents_st, st.integers(1, 4))
def test_copy_conservation(contents, count):
    m = TubeMachine()
    t = m.new_tube("t", contents)
    before = Counter(contents)
    for copy in m.copy(t, count):
        assert Counter(copy.contents) == before
    assert len(t) == 0


@settings(max_examples=200, deadline=None)
@given(st.lists(contents_st, min_size=1, max_size=4))
def test_merge_conservation(tube_contents):
    m = TubeMachine()
    dest, *rest = [m.new_tube(f"t{i}", c) for i, c in enumerate(tube_contents)]
    expected = Counter()
    for c in tube_contents:
        expected.update(c)
    m.merge(dest, rest)
    assert Counter(dest.contents) == expected
    assert all(len(t) == 0 for t in rest)


@settings(max_examples=200, deadline=None)
@given(contents_st, token_st)
def test_append_cardinality_or_fault(contents, token):
    m = TubeMachine()
    t = m.new_tube("t", contents)
    v, c = token
    if any(any(tok[0] == v for tok in s) for s in contents):
        with pytest.raises(MachineFault):
            m.append(t, cw(v, c))
    else:
        m.append(t, cw(v, c))
        assert len(t) == len(contents)
        assert all(s[-1] == token for s in t.contents)


# --- packed strands --------------------------------------------------------

# Strands whose tokens come in any vertex order, so one tube mixes orders.
mixed_strand_st = st.lists(
    st.tuples(st.integers(1, 8), st.integers(0, 3)), unique_by=lambda tok: tok[0], max_size=6
).map(tuple)
mixed_contents_st = st.lists(mixed_strand_st, max_size=25)


@settings(max_examples=300, deadline=None)
@given(mixed_contents_st)
def test_listed_strands_read_back_in_order(contents):
    m = TubeMachine()
    t = m.new_tube("t", iter(contents))
    assert len(t) == len(contents)
    assert t.contents == contents  # element by element, in order, tokens in append order


@settings(max_examples=200, deadline=None)
@given(mixed_contents_st, mixed_contents_st, token_st)
def test_operations_follow_the_token_tuple_model(xs, ys, token):
    m = TubeMachine()
    plus, minus = m.extract(m.new_tube("x", xs), cw(*token))
    assert plus.contents == [s for s in xs if token in s]  # a stable partition
    assert minus.contents == [s for s in xs if token not in s]
    dest = m.new_tube("y", ys)
    m.merge(dest, [minus, plus])
    expected = ys + [s for s in xs if token not in s] + [s for s in xs if token in s]
    assert dest.contents == expected
    for replica in m.copy(dest, 2):
        assert replica.contents == expected


def test_append_copy_merge_extract_on_a_mixed_order_tube():
    m = TubeMachine()
    xs = [((2, 1), (1, 0)), ((1, 0), (2, 1)), ((3, 2),), (), ((2, 0), (3, 1), (1, 2))]
    t = m.new_tube("t", xs)
    m.append(t, cw(4, 3))
    appended = [s + ((4, 3),) for s in xs]
    assert t.contents == appended
    a, b = m.copy(t, 2)
    assert a.contents == b.contents == appended
    m.merge(a, [b])
    assert a.contents == appended + appended
    plus, minus = m.extract(a, cw(1, 0))
    assert plus.contents == [appended[0], appended[1]] * 2
    assert minus.contents == [appended[2], appended[3], appended[4]] * 2
    with pytest.raises(MachineFault, match="vertex 3"):
        m.append(minus, cw(3, 0))  # only some strands of the tube hold vertex 3
    assert minus.contents == [appended[2], appended[3], appended[4]] * 2


def test_new_tube_faults_on_a_strand_naming_a_vertex_twice():
    m = TubeMachine()
    with pytest.raises(MachineFault, match="vertex twice"):
        m.new_tube("t", [((1, 0),), ((1, 0), (2, 1), (1, 2))])
    with pytest.raises(MachineFault, match="vertex twice"):
        m.new_tube("t", [((3, 1), (3, 1))])


rows_st = st.lists(st.integers(0, 3), unique=True, max_size=4).map(tuple)


@settings(max_examples=200, deadline=None)
@given(st.permutations(range(1, 6)).flatmap(
    lambda order: st.tuples(*[rows_st.map(lambda cs, v=v: tuple((v, c) for c in cs)) for v in order])
).map(list))
def test_new_tube_rows_match_the_product(rows):
    m = TubeMachine()
    t = m.new_tube("t", rows=rows)
    assert t.contents == list(itertools.product(*rows))  # same strands, same order
    assert m.peak_tube_size == len(t)


def test_new_tube_rows_edge_cases():
    m = TubeMachine()
    assert m.new_tube("blank", rows=[]).contents == [()]
    assert m.new_tube("none", rows=[((1, 0), (1, 1)), ()]).contents == []
    full = m.new_tube("full", rows=[((1, 0), (1, 1)), ((2, 0), (2, 1), (2, 2))])
    assert m.peak_tube_size == 1 + 6  # the live total is credited once per strand
    m.discard(full)
    assert m.peak_tube_size == 7
    with pytest.raises(MachineFault, match="more than one vertex"):
        m.new_tube("t", rows=[((1, 0), (2, 0))])
    with pytest.raises(MachineFault, match="vertex twice"):
        m.new_tube("t", rows=[((1, 0),), ((2, 0),), ((1, 1),)])
    with pytest.raises(ValueError, match="not both"):
        m.new_tube("t", [((1, 0),)], rows=[((1, 0),)])


def test_product_tube_stays_a_mask_through_extract_copy_and_disjoint_merge():
    """A copy of one extract output, read as a frame, leaves its sibling's runs masks."""
    m = TubeMachine()
    rows = [((1, 0), (1, 1), (1, 2)), ((2, 0), (2, 1)), ((3, 0), (3, 1), (3, 2))]
    full = list(itertools.product(*rows))
    t = m.new_tube("t", rows=rows)
    plus, minus = m.extract(t, cw(2, 1))
    a, b = m.copy(plus, 2)
    low, high = m.extract(minus, cw(1, 0))
    m.merge(low, [high])
    assert product_of(low) is not None  # no strand built yet
    assert (len(low), len(b), m.detect(b), m.peak_tube_size) == (9, 9, True, 27)
    assert low.contents == [s for s in full if (2, 1) not in s]  # the union in product order
    assert product_of(low) is None  # materialized once, a frame from here on
    assert a.contents == b.contents == [s for s in full if (2, 1) in s]


def test_merge_of_product_tubes_sharing_strands_keeps_the_repeats():
    m = TubeMachine()
    rows = [((1, 0), (1, 1)), ((2, 0), (2, 1))]
    a, b = m.copy(m.new_tube("t", rows=rows), 2)
    m.merge(a, [b])
    assert Counter(a.contents) == Counter(2 * list(itertools.product(*rows)))
    other = m.new_tube("u", rows=[((1, 0),), ((2, 0),)])  # a second product over the same tokens
    listed = m.new_tube("l", [((1, 1), (2, 1))])
    m.merge(other, [listed])
    assert other.contents == [((1, 0), (2, 0)), ((1, 1), (2, 1))]


def test_merge_never_decodes_a_product_run():
    """A product beside frames, and an extract's two outputs, merge with no decode."""
    m = TubeMachine()
    rows = [((1, 0), (1, 1), (1, 2)), ((2, 0), (2, 1)), ((3, 0), (3, 1), (3, 2))]
    listed = [((1, 1), (2, 0)), ((3, 2),)]
    with unittest.mock.patch.object(helix.machine._Product, "members", side_effect=AssertionError("decoded")):
        beside = m.new_tube("p", rows=rows)
        m.merge(beside, [m.new_tube("l", listed)])
        union, rest = m.extract(m.new_tube("e", rows=rows), cw(2, 1))
        m.merge(union, [rest])
    full = list(itertools.product(*rows))
    for tube, want in ((beside, full + listed), (union, full)):
        assert Counter(copy.copy(tube).contents) == Counter(want)


def test_product_columns_follow_the_rows():
    m = TubeMachine()
    rows = [((1, 2), (1, 0), (1, 2)), (), ((3, 1),)]  # a repeated token, then an empty row
    assert m.new_tube("empty", rows=rows).contents == []
    rows = [((1, 2), (1, 0), (1, 2)), ((2, 1), (2, 0)), ((3, 1),)]
    t = m.new_tube("t", rows=rows)
    plus, minus = m.extract(t, cw(1, 2))
    assert plus.contents == [s for s in itertools.product(*rows) if (1, 2) in s]
    assert len(plus) == 4 and len(minus) == 2
    plus, rest = m.extract(plus, cw(5, 0))  # a token outside the product: no strand holds it
    assert (len(plus), len(rest)) == (0, 4)


def test_token_first_seen_after_its_vertex_was_unpacked():
    m = TubeMachine()
    t = m.new_tube("t", [((1, 0), (2, 0))])
    assert t.contents == [((1, 0), (2, 0))]
    u = m.new_tube("u", [((1, 3), (2, 0))])  # same vertex order, a new token of vertex 1
    m.merge(t, [u])
    assert t.contents == [((1, 0), (2, 0)), ((1, 3), (2, 0))]
    m.append(t, cw(3, 1))
    assert [s[0] for s in t.contents] == [(1, 0), (1, 3)]
    assert m.extract(t, cw(2, 2))[0].contents == []  # a token never seen is in no strand


# --- nucleotide extract ----------------------------------------------------

# Two validated codebooks over the same tokens; each run draws one for its
# nucleotide machine.
BASES_CBS = (generate_codebook(8, 3, 12, 1), generate_codebook(8, 3, 12, 2))


def probes(strands, cb):
    """Every codeword's bases, and pieces of each rendered strand that cross its junctions."""
    out = [w.sequence for w in cb.codewords()]
    for s in strands:
        bases = render(s, cb)
        if len(bases) > 2:
            out += [bases[1:-1], bases[len(bases) // 3 : 2 * len(bases) // 3 + 1]]
    return out


def assert_extract_follows_render(m, tube, seqs=None):
    """Nucleotide extract keeps exactly the strands whose rendered bases hold each probe.

    Each extract runs on a shallow copy, so the tube keeps its strands (and a
    product tube its mask).
    """
    strands = copy.copy(tube).contents
    for seq in probes(strands, m.codebook) if seqs is None else seqs:
        plus, minus = m.extract(copy.copy(tube), Codeword(1, 0, seq))
        assert plus.contents == [s for s in strands if seq in render(s, m.codebook)], seq
        assert minus.contents == [s for s in strands if seq not in render(s, m.codebook)], seq


small_token_st = st.tuples(st.integers(1, 8), st.integers(0, 2))
small_contents_st = st.lists(
    st.lists(small_token_st, unique_by=lambda tok: tok[0], max_size=6).map(tuple), max_size=8
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_match_modes_follow_the_token_model_through_scripts(data):
    """One random script on a symbolic and a nucleotide machine, against a token-tuple model.

    After every step each tube on both machines holds the model's strands, so
    the two match modes agree, and nucleotide extract by a probe keeps the
    strands whose rendered bases hold it.
    """
    cb = data.draw(st.sampled_from(BASES_CBS))
    assert cb.validation().ok
    sym, nuc = TubeMachine(), TubeMachine(cb)
    model = {}  # every symbolic tube handed out -> its strands as token tuples
    twin = {}  # every symbolic tube -> the nucleotide tube the same steps made
    for _ in range(data.draw(st.integers(1, 30))):
        live = [u for u in model if model[u]]  # tubes that hold strands
        ops = ("copy", "append", "merge", "extract")
        if len(live) < 3:  # new tubes only while few hold strands, so that tubes get transformed
            ops = ("new",) + ops if live else ("new",)
        op = data.draw(st.sampled_from(ops))
        if op == "new":
            contents = data.draw(small_contents_st)
            t = sym.new_tube("t", contents)
            model[t], twin[t] = contents, nuc.new_tube("t", contents)
            continue
        t = data.draw(st.sampled_from(live))
        if op == "copy":
            count = data.draw(st.integers(1, 3))
            for replica, replica_twin in zip(sym.copy(t, count), nuc.copy(twin[t], count)):
                model[replica], twin[replica] = model[t], replica_twin
            model[t] = []
        elif op == "append":
            named = {u for s in model[t] for u, _ in s}
            v = data.draw(st.sampled_from([u for u in range(1, 9) if u not in named] or [1]))
            codeword = cb.codeword(v, data.draw(st.integers(0, 2)))
            if v in named:
                for m, u in ((sym, t), (nuc, twin[t])):
                    with pytest.raises(MachineFault):
                        m.append(u, codeword)
            else:
                sym.append(t, codeword)
                nuc.append(twin[t], codeword)
                model[t] = [s + ((v, codeword.color),) for s in model[t]]
        elif op == "merge":
            others = [u for u in live if u is not t]
            sources = data.draw(st.lists(st.sampled_from(others), unique=True, max_size=3) if others else st.just([]))
            sym.merge(t, sources)
            nuc.merge(twin[t], [twin[u] for u in sources])
            model[t] = model[t] + [s for u in sources for s in model[u]]
            for u in sources:
                model[u] = []
        else:
            held = sorted({tok for s in model[t] for tok in s})
            token = data.draw(st.sampled_from(held) | small_token_st if held else small_token_st)
            plus, minus = sym.extract(t, cb.codeword(*token))
            twin[plus], twin[minus] = nuc.extract(twin[t], cb.codeword(*token))
            model[plus] = [s for s in model[t] if token in s]
            model[minus] = [s for s in model[t] if token not in s]
            model[t] = []
        for tube, contents in model.items():
            kept = twin[tube]
            assert tube.contents == kept.contents == contents
            assert_extract_follows_render(nuc, kept, [data.draw(st.sampled_from(probes(contents, cb)))])


def _mixed_length_codebook(n, k, seed):
    """n vertices x k colors of words of 5 to 9 bases, each drawn until the words still validate."""
    rng, words = random.Random(seed), []
    while len(words) < n * k:
        cand = "".join(rng.choice("ACGT") for _ in range(rng.randint(5, 9)))
        trial = words + [cand]
        book = Codebook(len(trial), 1, [Codeword(v, 0, w) for v, w in enumerate(trial, 1)], "trial")
        if book.validation().ok:
            words = trial
    slots = itertools.product(range(1, n + 1), range(k))
    return Codebook(n, k, [Codeword(v, c, w) for (v, c), w in zip(slots, words)], f"mixed({seed})")


WINDOW_CBS = (builtin_table1(), BASES_CBS[0], generate_codebook(8, 3, 20, 3), _mixed_length_codebook(6, 3, 5))


@pytest.mark.parametrize("cb", WINDOW_CBS + BASES_CBS[1:], ids=lambda cb: cb.provenance)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_a_validated_codeword_occurs_only_where_its_token_is(cb, data):
    """Validation's guarantee, on which a codeword probe reading its token's column rests."""
    assert cb.validation().ok
    assert cb._tokens == {cw.sequence: (cw.vertex, cw.color) for cw in cb.codewords()}
    colors = st.integers(0, cb.k - 1)
    strand_st = st.lists(st.tuples(st.integers(1, cb.n), colors), unique_by=lambda t: t[0], max_size=8).map(tuple)
    for s in data.draw(st.lists(strand_st, min_size=1, max_size=5)):
        bases = render(s, cb)
        for cw in cb.codewords():
            assert (cw.sequence in bases) == ((cw.vertex, cw.color) in s), (s, cw)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_nucleotide_extract_is_a_search_of_the_rendered_bases(data):
    """Extract by any probe keeps exactly the strands whose rendered bases hold it.

    The codebooks mix codeword lengths (table1 and a drawn one) or fix them
    (12 and 20 bases).  The tube holds strands of several vertex orders, grown
    by an append or not, or is a product tube from rows=, which stays a mask.
    The probes are codewords, random bases, and pieces of rendered strands
    that span junctions and several rows.
    """
    cb = data.draw(st.sampled_from(WINDOW_CBS))
    m = TubeMachine(cb)
    top = min(cb.n, 8)  # listed strands name vertices below top, and append gives them top
    colors = st.integers(0, cb.k - 1)
    product = data.draw(st.booleans())
    if product:
        order = data.draw(st.permutations(range(1, top + 1)))[: data.draw(st.integers(1, 4))]
        rows = [tuple((v, c) for c in data.draw(st.lists(colors, unique=True, min_size=1))) for v in order]
        tube = m.new_tube("p", rows=rows)
        if data.draw(st.booleans()):  # a sparser mask
            tube, _ = m.extract(tube, cb.codeword(order[0], data.draw(colors)))
    else:
        strand_st = st.lists(st.tuples(st.integers(1, top - 1), colors), unique_by=lambda t: t[0], max_size=5)
        tube = m.new_tube("t", data.draw(st.lists(strand_st.map(tuple), max_size=12)))
        if data.draw(st.booleans()):
            m.append(tube, cb.codeword(top, data.draw(colors)))
    rendered = [b for b in (render(s, cb) for s in copy.copy(tube).contents) if b]

    def pieces_of(bases):  # any stretch of one strand's bases, across junctions and rows
        cuts = st.lists(st.integers(0, len(bases)), min_size=2, max_size=2, unique=True).map(sorted)
        return cuts.map(lambda ij: bases[ij[0] : ij[1]])

    pieces = st.sampled_from(rendered).flatmap(pieces_of) if rendered else st.nothing()
    probe_st = pieces | st.text("ACGT", min_size=1, max_size=30) | st.sampled_from([w.sequence for w in cb.codewords()])
    assert_extract_follows_render(m, tube, data.draw(st.lists(probe_st, min_size=1, max_size=6)))
    assert all(isinstance(run, helix.machine._ProductRun) == product for run in tube._runs)


# --- product tubes ---------------------------------------------------------

# Up to four rows over distinct vertices; a row may be empty or repeat a color.
twin_rows_st = st.permutations(range(1, 6)).flatmap(
    lambda order: st.lists(st.lists(st.integers(0, 2), max_size=3), max_size=4).map(
        lambda rows: [tuple((v, c) for c in cs) for v, cs in zip(order, rows)]
    )
)
TWIN_OPS = ("rows", "list", "copy", "merge", "merge copies", "extract", "append", "discard", "detect")


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_product_tubes_behave_as_their_listed_twins(data):
    """One random script on a machine whose start tubes come from rows= and on
    one handed the same strands as a list, symbolic or nucleotide.

    After every step each pair of twin tubes holds the same multiset of
    strands and has the same size, both machines' peak is the running
    maximum of the strands in the tubes not discarded, and no two product
    runs of one _Product, over all tubes, share a strand.
    """
    cb = data.draw(st.sampled_from((None, BASES_CBS[0])))
    word = cb.codeword if cb else cw
    prod_m, list_m = TubeMachine(cb), TubeMachine(cb)
    twins = []  # (tube on prod_m, its twin on list_m) for every tube handed out
    peak = 0  # the model: the most strands the listed tubes held after any step
    for step in range(data.draw(st.integers(1, 25))):
        live = [pair for pair in twins if not pair[0].retired]
        op = data.draw(st.sampled_from(TWIN_OPS)) if live and step else "rows"
        if op == "rows":
            rows = data.draw(twin_rows_st)
            listed = list(itertools.product(*rows))
            twins.append((prod_m.new_tube("p", rows=rows), list_m.new_tube("p", listed)))
        elif op == "list":
            contents = data.draw(small_contents_st)
            twins.append((prod_m.new_tube("l", contents), list_m.new_tube("l", contents)))
        else:
            t, u = data.draw(st.sampled_from(live))
        if op == "copy":
            count = data.draw(st.integers(1, 3))
            twins.extend(zip(prod_m.copy(t, count), list_m.copy(u, count)))
        elif op == "merge copies":  # the same strands twice: the merge keeps both
            (a, b), (c, d) = pairs = list(zip(prod_m.copy(t, 2), list_m.copy(u, 2)))
            twins.extend(pairs)
            prod_m.merge(a, [c])
            list_m.merge(b, [d])
        elif op == "merge":
            others = [pair for pair in live if pair[0] is not t]
            sources = data.draw(st.lists(st.sampled_from(others), unique=True, max_size=3)) if others else []
            prod_m.merge(t, [a for a, _ in sources])
            list_m.merge(u, [b for _, b in sources])
        elif op == "extract":
            held = sorted({tok for s in u.contents for tok in s})
            codeword = word(*data.draw(st.sampled_from(held) | small_token_st if held else small_token_st))
            twins.extend(zip(prod_m.extract(t, codeword), list_m.extract(u, codeword)))
        elif op == "append":
            codeword = word(*data.draw(small_token_st))
            if any(v == codeword.vertex for s in u.contents for v, _ in s):
                for m, tube in ((prod_m, t), (list_m, u)):
                    with pytest.raises(MachineFault):
                        m.append(tube, codeword)
            else:
                prod_m.append(t, codeword)
                list_m.append(u, codeword)
        elif op == "discard":
            prod_m.discard(t)
            list_m.discard(u)
        elif op == "detect":
            assert prod_m.detect(t) == list_m.detect(u)
        for t, u in twins:
            # A shallow copy decodes its own runs, so t keeps its product runs.
            assert Counter(copy.copy(t).contents) == Counter(u.contents)
            assert (len(t), t.retired) == (len(u), u.retired)
        peak = max(peak, sum(len(t) for t, _ in twins if not t.retired))
        assert prod_m.peak_tube_size == list_m.peak_tube_size == peak
        assert_product_runs_share_no_strand([t for t, _ in twins])  # list_m holds no product run
    assert prod_m.counter == list_m.counter


def assert_product_runs_share_no_strand(tubes):
    """No two product runs of one _Product in the tubes share a strand (a discarded tube holds no run)."""
    held = {}
    for run in (run for t in tubes for run in t._runs if isinstance(run, helix.machine._ProductRun)):
        assert not held.get(run.product, 0) & run.live, "two runs of one product share a strand"
        held[run.product] = held.get(run.product, 0) | run.live


def test_discarded_strands_are_out_of_the_count_when_it_next_rises():
    """Strands discarded from a product tube and from its copies are out of the count when it next rises."""
    m = TubeMachine()
    t = m.new_tube("p", rows=[((1, 0), (1, 1), (1, 2)), ((2, 0), (2, 1))])
    hit, rest = m.extract(t, cw(1, 0))
    m.discard(hit)  # 2 strands gone
    copies = m.copy(rest, 2)  # 4 + 4, not 6 + 4
    assert m.peak_tube_size == 8
    m.discard(copies[0])
    m.discard(copies[1])  # a second copy
    assert sum(map(len, (t, hit, rest, *copies))) == 0
    m.new_tube("l", [((3, 0),)] * 8)  # 8, not 8 + 8
    assert m.peak_tube_size == 8


def test_a_tube_emptied_and_refilled_by_merge_counts_toward_the_peak():
    m = TubeMachine()
    t = m.new_tube("t", [((1, 0),), ((1, 1),)])
    assert m.peak_tube_size == 2
    copies = m.copy(t, 2)
    assert (m.peak_tube_size, len(t)) == (4, 0)
    m.merge(t, copies)  # the emptied source holds the 4 again
    m.new_tube("u", [((2, 0),)])
    assert m.peak_tube_size == 5


@settings(max_examples=200, deadline=None)
@given(twin_rows_st, st.sampled_from(("empty", "sparse", "dense", "full")), st.data())
def test_sparse_product_decode_matches_the_walk(rows, density, data):
    product = TubeMachine()._product_of(rows)
    full = (1 << product.size) - 1
    if density == "sparse" and product.size:
        mask = sum({1 << i for i in data.draw(st.lists(st.integers(0, product.size - 1), max_size=3))})
    else:
        mask = {"dense": data.draw(st.integers(0, full)), "full": full}.get(density, 0)
    walked = product._walked(mask)
    assert product._picked(mask) == walked
    assert product.members(mask) == walked
    assert len(walked) == mask.bit_count()


# --- frames ----------------------------------------------------------------


def test_single_order_tubes_are_frames_that_widen_past_56_tokens():
    m = TubeMachine()
    m.new_tube("pad", [((100 + i, 0),) for i in range(55)])  # tokens 0..54, one vertex order each
    assert [r.planes for r in m.new_tube("u", [((1, 0),)]).runs] == [8]  # token 55, the last of word 0
    t = m.new_tube("t", [((1, 0),), ((1, 1),), ((1, 0),)])  # token 56 starts word 1
    assert [(type(r), r.planes) for r in t.runs] == [(helix.frames.Frame, 9)]
    m.new_tube("pad", [((200 + i, 0),) for i in range(130)])  # tokens 57..186
    m.append(t, cw(2, 3))  # token 187, in the fourth word
    assert [r.planes for r in t.runs] == [27]
    plus, minus = m.extract(t, cw(1, 0))  # both keep an empty slot
    assert [(r.count, r._slots) for r in plus.runs + minus.runs] == [(2, 3), (1, 3)]
    assert (plus.contents, minus.contents) == ([((1, 0), (2, 3))] * 2, [((1, 1), (2, 3))])
    assert (plus.colors([1, 2]), minus.colors([2, 1])) == ([(0, 3)] * 2, [(3, 1)])
    m.merge(plus, [minus])
    assert len(plus.runs) == 1 and plus.contents == [((1, 0), (2, 3))] * 2 + [((1, 1), (2, 3))]
    assert plus.colors([1, 2]) == [(0, 3)] * 2 + [(1, 3)]
    m.append(minus, cw(3, 0))  # an empty tube stays empty
    assert minus.runs == ()
    mixed = m.new_tube("mixed", [((1, 0),), ((1, 1),), ((2, 0),), ((1, 0),)])
    assert [(r.order, r.count) for r in mixed.runs] == [((1,), 2), ((2,), 1), ((1,), 1)]
    m.merge(plus, [m.new_tube("other", [((5, 0),)])])  # another order: both stay frames
    assert [(type(r), r.count) for r in plus.runs] == [(helix.frames.Frame, 3), (helix.frames.Frame, 1)]
    assert plus.contents == [((1, 0), (2, 3))] * 2 + [((1, 1), (2, 3)), ((5, 0),)]
    # A field's presence bits depend on its frame's planes, so equal strands
    # in frames of different planes are different ints.
    m = TubeMachine()
    narrow = m.new_tube("narrow", [((1, 0),)])  # token 0: fields of one plane
    m.discard(m.new_tube("pad", [((100 + i, 0),) for i in range(55)]))  # tokens 1..55
    wide = m.new_tube("wide", [((1, 1),), ((1, 0),)])  # token 56: fields of nine planes
    a, b = m.copy(narrow, 2)
    m.merge(a, [wide])
    assert [(r.order, r.planes) for r in a._runs] == [((1,), 1), ((1,), 9)]
    assert (len(a), a.distinct()) == (3, 2)
    wide = m.new_tube("wide", [((1, 1),), ((1, 0),)])
    m.merge(b, [m.new_tube("between", [((2, 0),)]), wide])  # one order's runs, apart
    assert [r.planes for r in b.runs] == [1, 9, 9]
    assert (len(b), b.distinct()) == (4, 3)


# Token indices at the byte edges (6/7), the word edges (55/56, 111/112) and
# the last token of a 32-plane (four-word) field (223).
EDGE_TOKENS = (0, 6, 7, 13, 14, 48, 55, 56, 62, 63, 111, 112, 167, 168, 223)
edge_token_st = st.sampled_from(EDGE_TOKENS) | st.integers(0, 223)


def fortran(raw, rows, cols):
    """The reference transposition: a rows x cols byte matrix stored row by row, stored column by column."""
    return memoryview(raw).cast("B", (rows, cols)).tobytes(order="F") if raw else b""


def compacted_planes(frame):
    """The reference compaction: each plane's bytes, dead slots zeroed one by one, zero bytes dropped.

    Every byte of a live field carries a presence bit, so filtering out the
    zero bytes leaves exactly the live slots of each plane.
    """
    s, live, raw = frame._slots, frame.live, frame._matrix()
    planes = [
        bytes(filter(None, [raw[b * s + j] if live >> (8 * j) & 1 else 0 for j in range(s)]))
        for b in range(frame.planes)
    ]
    return b"".join(planes)


def compacted_fields(frame):
    """The reference compaction transposed: the compacted planes read slot by slot are the live fields."""
    return fortran(compacted_planes(frame), frame.planes, frame.count)


def model_field(strand, planes):
    """A strand's field in `planes` bytes, from its token indices."""
    return sum(1 << helix.frames.place(i) for i in strand) | int.from_bytes(b"\1" * planes, "little")


def live_in(slots, mask):
    """The strands of `slots` whose live bits (bit 0 of each slot's byte) are set in mask; None for the rest."""
    return [s if s is not None and mask >> (8 * j) & 1 else None for j, s in enumerate(slots)]


def check_frame_against_slots(frame, slots):
    """frame holds the strands `slots` (token index sets, None for a dead slot), slot by slot."""
    live = [s for s in slots if s is not None]
    assert (frame._slots, frame.count) == (len(slots), len(live))
    assert len(frame._matrix()) == frame.planes * frame._slots
    assert frame.live == sum(1 << (8 * j) for j, s in enumerate(slots) if s is not None)
    for extra in (0, 1):  # both sides of the walk, and both padded to one plane more
        planes = frame.planes + extra
        want = b"".join(model_field(s, planes).to_bytes(planes, "little") for s in live)
        assert b"".join(frame._live_planes(planes)) == fortran(want, len(live), planes)
        assert b"".join(frame._live_fields(planes)) == want
    assert list(frame.values()) == [model_field(s, frame.planes) for s in live]
    assert frame.compacted() == compacted_planes(frame)
    assert helix.frames.transposed(frame.compacted(), frame.planes, frame.count) == compacted_fields(frame)
    fields = [model_field(s, frame.planes) for s in live]
    assert frame.ascending() == all(a < b for a, b in zip(fields, fields[1:]))
    for i in EDGE_TOKENS:
        assert frame.column(i) == sum(1 << (8 * j) for j, s in enumerate(slots) if s is not None and i in s)
    tables = helix.frames.key_tables((i, 1 << 4 * j) for j, i in enumerate(EDGE_TOKENS))  # every key byte
    assert list(frame.keys(tables)) == [sum(1 << 4 * j for j, i in enumerate(EDGE_TOKENS) if i in s) for s in live]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_frames_hold_their_live_strands_slot_by_slot(data):
    """A random script of splits, appends and joins on frames of 1-32 planes against per-slot strands.

    A split keeps the source's slots, and the dead slots of both outputs keep
    their bytes in the shared matrix, as do the dead slots of a grown frame,
    so after every step the compacted fields and values, every column and
    the keys must leave the dead slots out.
    """
    strands_st = st.lists(st.frozensets(edge_token_st, max_size=4), min_size=1, max_size=6)

    def made(strands):
        return helix.frames.Frame.of_fields(0, [model_field(s, 1) for s in strands]), list(strands)

    frame, slots = made(data.draw(strands_st))
    check_frame_against_slots(frame, slots)
    for _ in range(data.draw(st.integers(1, 8))):
        op = data.draw(st.sampled_from(["split", "split by two", "grow", "join"]))
        if op.startswith("split"):
            starts = frame.column(data.draw(edge_token_st))
            if op == "split by two":  # two columns ANDed, as a nucleotide chain gives
                starts &= frame.column(data.draw(edge_token_st))
            hit, rest = frame.split(starts)
            assert hit._raw is frame._raw and rest._raw is frame._raw
            assert hit._ints is frame._ints and rest._ints is frame._ints
            hit_slots = live_in(slots, starts)
            rest_slots = live_in(slots, frame.live ^ starts)
            check_frame_against_slots(hit, hit_slots)
            keep_hit = data.draw(st.booleans()) if hit.count and rest.count else bool(hit.count)
            frame, slots = (hit, hit_slots) if keep_hit else (rest, rest_slots)
        elif op == "grow":  # a token past the planes adds planes; dead slots stay dead
            i = data.draw(edge_token_st)
            frame = frame.grown(0, i)
            slots = [None if s is None else s | {i} for s in slots]
        else:
            other, more = made(data.draw(strands_st))
            if data.draw(st.booleans()):  # the other frame with dead slots too
                other, _ = other.split(other.column(data.draw(edge_token_st)) or other.live)
                more = live_in(more, other.live)
            frame = helix.frames.Frame.joined([frame, other])
            slots = [s for s in slots + more if s is not None]
        check_frame_against_slots(frame, slots)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_ascending_is_a_pairwise_strict_increase_of_the_values(data):
    """Frame.ascending against a pairwise comparison of list(values()), the repeat check's exact reading.

    Frames of 1-3 words (up to 24 planes) whose fields are as drawn, sorted,
    sorted with one repeat or sorted with one descending pair, some with dead
    slots.
    """
    width = data.draw(st.integers(1, 3))
    drawn = data.draw(st.lists(st.integers(0, 2 ** (64 * width) - 1), min_size=1, max_size=12))
    values = list(helix.frames.Frame.of_fields(0, drawn).values())  # presence bits set
    arrangement = data.draw(st.sampled_from(["as drawn", "sorted", "repeat", "descending pair"]))
    if arrangement != "as drawn":
        values.sort()
    j = data.draw(st.integers(0, len(values) - 1))
    if arrangement == "repeat":
        values.insert(j, values[j])
    elif arrangement == "descending pair" and j + 1 < len(values):
        values[j], values[j + 1] = values[j + 1], values[j]
    frame = helix.frames.Frame.of_fields(0, values)
    if data.draw(st.booleans()):  # dead slots: keep a drawn subset of the slots
        kept = data.draw(st.lists(st.booleans(), min_size=len(values), max_size=len(values)))
        starts = sum(1 << (8 * j) for j, keep in enumerate(kept) if keep)
        frame, _ = frame.split(starts or frame.live)
    values = list(frame.values())
    assert frame.ascending() == all(a < b for a, b in zip(values, values[1:]))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_ascending_of_split_grown_and_joined_frames_is_a_pairwise_strict_increase(data):
    """Frame.ascending against a pairwise comparison of list(values()) on frames reshaped by the operations.

    Frames of 1-10 planes and 1-300 fields, as drawn, sorted, or sorted with
    repeats, with one descending pair, with neighbours that differ only in
    the top plane or only in plane 0, or with one pair that differs only in
    one low token bit; then split (dead slots, all of them included, or
    every slot whose field does not rise above the last kept one), grown and
    joined, so frames with more planes than strands or fewer, and the
    compaction of dead slots, are read.
    """
    planes = data.draw(st.integers(1, 10))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    count = data.draw(st.integers(1, 300))
    drawn = [rng.getrandbits(8 * planes) for _ in range(count)]
    values = list(helix.frames.Frame.of_fields(0, drawn).values())  # presence bits set
    arrangement = data.draw(
        st.sampled_from(["as drawn", "sorted", "repeats", "descending pair", "top plane", "plane 0", "one low bit"])
    )
    top = 8 * (planes - 1)
    if arrangement == "top plane":  # all planes but the top one equal
        values = [values[0] & ((1 << top) - 1) | v >> top << top for v in values]
    elif arrangement == "plane 0":  # all planes but plane 0 equal
        values = [values[0] >> 8 << 8 | v & 0xFF for v in values]
    if arrangement != "as drawn":
        values.sort()
    j = rng.randrange(count)
    if arrangement == "repeats":
        values[j:j] = [values[j]] * data.draw(st.integers(1, 3))
    elif arrangement == "descending pair" and j + 1 < count:
        values[j], values[j + 1] = values[j + 1], values[j]
    elif arrangement == "one low bit":  # a pair equal but for one token bit of plane 0, either way round
        bit = 2 << data.draw(st.integers(0, 6))
        pair = [values[j] & ~bit, values[j] | bit]
        values[j : j + 1] = pair if data.draw(st.booleans()) else pair[::-1]
    frame = helix.frames.Frame.of_fields(0, values)
    for _ in range(data.draw(st.integers(0, 2))):
        op = data.draw(st.sampled_from(["split", "split ascending", "grow", "join", "join alone"]))
        if op == "split":  # keep a drawn subset of the live slots, none of them included
            kept = [frame.live >> 8 * j & 1 and rng.random() < 0.7 for j in range(frame._slots)]
            frame, _ = frame.split(sum(1 << 8 * j for j, keep in enumerate(kept) if keep))
        elif op == "split ascending":  # keep slots whose fields ascend, so the dead ones between them decide
            starts, last = 0, -1
            slots = [j for j in range(frame._slots) if frame.live >> 8 * j & 1]
            for j, value in zip(slots, frame.values()):
                if value > last:
                    starts, last = starts | 1 << 8 * j, value
            frame, _ = frame.split(starts)
        elif op == "grow":  # a token in a plane the frame has, or past them
            frame = frame.grown(0, data.draw(st.integers(0, 7 * planes + 6)))
        elif op == "join":  # fields above the frame's, or anywhere
            base = max(frame.values(), default=0) + 1 if data.draw(st.booleans()) else 0
            more = sorted(base + rng.getrandbits(8 * planes) for _ in range(data.draw(st.integers(1, 20))))
            frame = helix.frames.Frame.joined([frame, helix.frames.Frame.of_fields(0, more)])
        elif frame.count:
            frame = helix.frames.Frame.joined([frame])
    values = list(frame.values())
    assert frame.ascending() == all(a < b for a, b in zip(values, values[1:]))


def _one_hot_machine(vertices):
    """A symbolic machine on which token (v, c), c < 7, is index 7 (v - 1) + c: vertex v's colors fill plane v - 1."""
    m = TubeMachine()
    for v in range(1, vertices + 1):
        for c in range(7):
            m._index_of((v, c))
    return m


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_distinct_counts_the_different_strands_of_tubes_of_one_order(data):
    """Tube.distinct against len(set(contents)) on 0-300 strands of 1-10 vertices, one plane each.

    Strands sorted by their colors from the last vertex back are ascending
    fields.  They are drawn as they come, sorted, sorted without repeats, or
    sorted with neighbours that differ only at the last vertex (the top
    plane) or only at the first (plane 0), and then extracted, appended to
    and merged with a copy of some of them; each lone frame is also read by
    Frame.ascending.
    """
    vertices = data.draw(st.integers(1, 10))
    m = _one_hot_machine(vertices + 1)  # one vertex more, for the appends
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    rows = [[rng.randrange(7) for _ in range(vertices)] for _ in range(data.draw(st.integers(0, 300)))]
    arrangement = data.draw(st.sampled_from(["as drawn", "sorted", "unique", "last vertex", "first vertex"]))
    if arrangement == "last vertex":
        rows = [rows[0][:-1] + row[-1:] for row in rows]
    elif arrangement == "first vertex":
        rows = [row[:1] + rows[0][1:] for row in rows]
    if arrangement == "unique":
        rows = [list(row) for row in set(map(tuple, rows))]
    if arrangement != "as drawn":
        rows.sort(key=lambda row: row[::-1])
    tube = m.new_tube("t", [tuple(enumerate(row, 1)) for row in rows])
    for step in range(data.draw(st.integers(1, 4))):
        if step:
            op = data.draw(st.sampled_from(["extract", "append", "merge"]))
            if op == "extract":
                token = (data.draw(st.integers(1, vertices)), data.draw(st.integers(0, 6)))
                hit, rest = m.extract(tube, Codeword(*token, "ACGT"))
                tube = hit if data.draw(st.booleans()) else rest
            elif op == "append" and vertices + 1 not in {v for s in tube.contents for v, _ in s}:
                m.append(tube, Codeword(vertices + 1, data.draw(st.integers(0, 6)), "ACGT"))
            elif op == "merge":
                again = tube.contents
                m.merge(tube, [m.new_tube("again", [s for s in again if rng.random() < 0.3])])
        runs = tube._runs
        got = tube.distinct()  # before contents joins the runs
        strands = tube.contents
        assert got == len(set(strands))
        if len(runs) == 1:
            values = list(runs[0].values())
            assert runs[0].ascending() == all(a < b for a, b in zip(values, values[1:]))


def test_split_outputs_grown_apart_read_their_own_planes():
    """Two split outputs share the source's matrix and plane ints; grown past their planes, each keeps its own new planes.

    Token 30 is in plane 4, so each grown frame adds presence-only planes 1-3
    over its own live slots, which differ between the two, and keeps them
    out of the shared matrix until that is read whole; grown again, the
    frame writes them in first.
    """
    slots = [frozenset({i % 3}) for i in range(8)]
    frame = helix.frames.Frame.of_fields(0, [model_field(s, 1) for s in slots])
    hit, rest = frame.split(frame.column(0))
    for part in (hit, rest):
        grown = part.grown(0, 30)
        assert grown._raw is frame._raw and grown._ints is frame._ints and sorted(grown._own) == [1, 2, 3, 4]
        grown_slots = [None if s is None else s | {30} for s in live_in(slots, part.live)]
        check_frame_against_slots(grown, grown_slots)
        again = grown.grown(0, 29)  # token 29 is in plane 4, one of grown's own
        assert len(again._raw) == 5 * len(slots) and list(again._own) == [4] and again._ints is not frame._ints
        check_frame_against_slots(again, [None if s is None else s | {29} for s in grown_slots])
    twice = frame.grown(0, 3).grown(0, 5)  # both in plane 0: the second grow replaces the first's own plane
    assert twice._raw is frame._raw and twice._ints is frame._ints and list(twice._own) == [0]
    check_frame_against_slots(twice, [s | {3, 5} for s in slots])


def test_extract_outputs_share_the_source_field_int():
    m = TubeMachine()
    t = m.new_tube("t", [((1, 0),), ((1, 1),), ((1, 0),)])
    (source,) = t.runs
    plus, minus = m.extract(t, cw(1, 0))
    assert all(r._raw is source._raw and r._ints is source._ints for r in plus._runs + minus._runs)
    assert [(r.count, r._slots) for r in plus._runs + minus._runs] == [(2, 3), (1, 3)]


def test_extract_drops_empty_outputs():
    m = TubeMachine()
    t = m.new_tube("t", [((1, 0),), ((1, 1),), ((2, 0),), ((2, 0),)])  # two runs, one per vertex order
    plus, minus = m.extract(t, cw(2, 0))  # every strand of the second run, none of the first
    assert [(r.order, r.count) for r in plus._runs] == [((2,), 2)]
    assert [(r.order, r.count) for r in minus._runs] == [((1,), 2)]
    none, every = m.extract(minus, cw(3, 0))  # a token never seen
    assert none._runs == () and [r.count for r in every._runs] == [2]
    part, rest = m.extract(every, cw(1, 1))
    assert [(r.count, r._slots) for r in part._runs + rest._runs] == [(1, 2), (1, 2)]


def test_copies_share_their_tube_as_read():
    """The copies of a two-frame tube share one joined frame, and those of a product tube hold frames."""
    m = TubeMachine()
    xs, ys = [((1, 0),), ((1, 1),)], [((1, 2),)]
    t = m.new_tube("t", xs)
    m.merge(t, [m.new_tube("u", ys)])
    assert len(t._runs) == 2  # joined only when read
    copies = m.copy(t, 3)
    (joined,) = copies[0]._runs
    assert isinstance(joined, helix.frames.Frame) and all(c._runs == (joined,) for c in copies)
    assert [c.contents for c in copies] == [xs + ys] * 3 and m.peak_tube_size == 9
    rows = [((1, 0), (1, 1)), ((2, 0), (2, 1), (2, 2))]
    copies = m.copy(m.new_tube("p", rows=rows), 2)
    assert not any(isinstance(run, helix.machine._ProductRun) for c in copies for run in c._runs)
    assert all(c.contents == list(itertools.product(*rows)) for c in copies)


def test_runs_of_a_lone_frame_are_that_frame():
    m = TubeMachine()
    t = m.new_tube("t", [((1, 0),), ((1, 1),)])
    runs = t._runs
    assert t.runs is runs and len(runs) == 1 and isinstance(runs[0], helix.frames.Frame)


def test_an_empty_new_tube_holds_no_run_and_can_be_merged_and_discarded():
    m = TubeMachine()
    empty = m.new_tube("bad")
    assert (empty._runs, empty.runs, empty.contents, len(empty), m.peak_tube_size) == ((), (), [], 0, 0)
    assert m._index == {}
    source = m.new_tube("s", [((1, 0),)])
    m.merge(empty, [source])
    assert (empty.contents, source._runs) == ([((1, 0),)], ())
    m.discard(empty)
    assert empty.retired and m.counter == OpCounter(merge=1, discard=1)


def test_merge_ors_disjoint_product_runs_in_dest_and_keeps_overlapping_ones_apart():
    """Two runs of one product, adjacent and so disjoint, join into one mask wherever they sit, dest included.

    A frame between two runs of one product keeps them apart in a merge;
    extracting the frame's strand leaves the two adjacent in one tube, which
    its next merge ORs, with no source to pour.  Two start tubes of the same
    rows are two products that overlap in every strand, so their merge keeps
    two runs and the repeats.
    """
    m = TubeMachine()
    rows = [((1, 0), (1, 1), (1, 2)), ((2, 0), (2, 1))]
    full = list(itertools.product(*rows))
    a, b = m.extract(m.new_tube("t", rows=rows), cw(2, 1))
    m.merge(a, [m.new_tube("l", [((3, 0),)]), b])
    assert len(a._runs) == 3  # a frame between: apart
    _, dest = m.extract(a, cw(3, 0))
    assert len(dest._runs) == 2  # adjacent now, but no merge has met them
    m.merge(dest, [])
    assert product_of(dest) is not None
    assert Counter(dest.contents) == Counter(full)
    p, q = m.new_tube("p", rows=rows), m.new_tube("q", rows=rows)
    m.merge(p, [q])
    assert len(p._runs) == 2 and product_of(p) is None  # two products: apart
    assert Counter(p.contents) == Counter(2 * full)
    more = m.new_tube("u", rows=rows)
    low, high = m.extract(more, cw(2, 1))
    m.merge(low, [m.new_tube("v"), high])  # across an empty source, the source's run meets dest's
    assert product_of(low) is not None and low.contents == full


@pytest.mark.parametrize("rows, cols", [(3, 7), (7, 3), (1, 9), (9, 1)], ids=["rows<cols", "rows>cols", "1xn", "nx1"])
def test_transposed_is_a_fortran_order_copy(rows, cols):
    raw = random.Random(rows * cols).randbytes(rows * cols)
    assert helix.frames.transposed(raw, rows, cols) == fortran(raw, rows, cols)
    assert helix.frames.transposed(helix.frames.transposed(raw, rows, cols), cols, rows) == raw


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_both_join_sides_give_one_frame(data):
    """The join walked plane by plane and slot by slot, each forced, on the same frames.

    One to three frames of 1-32 planes, some split (dead slots) and some
    grown, so the narrower ones are padded; a frame built from either walk
    must give the plane bytes, count, values and ascending of Frame.joined.
    """
    strands_st = st.lists(st.frozensets(edge_token_st, max_size=4), min_size=1, max_size=6)
    frames = []
    for _ in range(data.draw(st.integers(1, 3))):
        frame = helix.frames.Frame.of_fields(0, [model_field(s, 1) for s in data.draw(strands_st)])
        if data.draw(st.booleans()):
            frame = frame.grown(0, data.draw(edge_token_st))
        if data.draw(st.booleans()):
            frame, _ = frame.split(frame.column(data.draw(edge_token_st)) or frame.live)
        frames.append(frame)
    planes, count = max(f.planes for f in frames), sum(f.count for f in frames)
    by_planes = b"".join(itertools.chain.from_iterable(zip(*[f._live_planes(planes) for f in frames])))
    by_slots = b"".join(itertools.chain.from_iterable(f._live_fields(planes) for f in frames))
    live, transposed = helix.frames._ones(count), helix.frames.transposed
    sides = [
        helix.frames.Frame(0, planes, count, by_planes, count, live, {}, {}),
        helix.frames.Frame(0, planes, count, transposed(by_slots, count, planes), count, live, {}, {}),
        helix.frames.Frame.joined(frames),
    ]
    got = [(f._raw, f.planes, f.count, list(f.values()), f.ascending()) for f in sides]
    assert got[0] == got[1] == got[2]


def test_colors_of_a_vertex_missing_from_one_run_raise_key_error():
    m = TubeMachine()
    mixed = m.new_tube("mixed", [((1, 0), (2, 1)), ((1, 2),), ((2, 0), (1, 1))])
    assert mixed.colors([1]) == sorted((dict(s)[1],) for s in mixed.contents)
    with pytest.raises(KeyError, match="lack vertex 2"):
        mixed.colors([1, 2])


@pytest.mark.parametrize("color", [-1, 2**64, "red"])
def test_a_color_that_does_not_fit_one_word_is_refused(color):
    m = TubeMachine()
    t = m.new_tube("t", [((1, 0),), ((1, 1),)])
    before = (m.counter.snapshot(), m.peak_tube_size, len(t))
    with pytest.raises(MachineFault, match="is not an int in"):
        m.append(t, Codeword(2, color, "ACGT"))
    with pytest.raises(MachineFault, match="is not an int in"):
        m.new_tube("u", [((2, 0), (3, color))])
    with pytest.raises(MachineFault, match="is not an int in"):
        m.new_tube("u", rows=[[(2, 0)], [(3, color)]])
    assert (m.counter, m.peak_tube_size, len(t)) == before
    assert t.contents == [((1, 0),), ((1, 1),)]
    m.append(t, Codeword(2, 2**64 - 1, "ACGT"))  # the largest color that fits
    assert t.colors([2, 1]) == [(2**64 - 1, 0), (2**64 - 1, 1)]


def test_a_color_past_the_int_string_limit_is_refused_by_name():
    """str writes no int of over 4,300 digits, so the refusal names the color by its bit length."""
    with pytest.raises(MachineFault, match=r"color <int of 16610 bits> of vertex 1 is not an int in"):
        TubeMachine().new_tube("t", [((1, 10**5000),)])


@pytest.mark.parametrize("wide", [False, True], ids=["one-word key", "tuple sort"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_colors_are_the_sorted_per_strand_colors(wide, data):
    """Tube.colors is the per-strand colors, sorted, with one key or several.

    Every strand names the vertices `shared`, in any order, and maybe others.
    Colors below 8 pack any request into one key.  With a color 2**64 - 1
    seen for every vertex, each vertex of a request takes a key of its own,
    and the rows are sorted as tuples.
    """
    m = TubeMachine()
    if wide:
        m.discard(m.new_tube("pad", [tuple((v, 2**64 - 1) for v in range(1, 7))]))
    color = st.sampled_from([0, 1, 2**32, 2**63, 2**64 - 2, 2**64 - 1]) if wide else st.integers(0, 7)
    shared = data.draw(st.lists(st.integers(1, 6), unique=True, min_size=1, max_size=4))
    vertices = data.draw(st.permutations(shared))[: data.draw(st.integers(0, len(shared)))]
    kind = data.draw(st.sampled_from(["frames", "extracted", "product"]))
    if kind == "product":
        rows = [[(v, c) for c in data.draw(st.lists(color, unique=True, min_size=1, max_size=3))] for v in shared]
        tube = m.new_tube("t", rows=rows)
        if data.draw(st.booleans()):
            tube, _ = m.extract(tube, Codeword(*data.draw(st.sampled_from(rows[0])), ""))  # a sparse mask
        assert product_of(tube) is not None
    else:
        extra = st.lists(st.integers(7, 9), unique=True, max_size=2)
        orders = st.tuples(st.permutations(shared), extra).flatmap(lambda o: st.permutations(o[0] + o[1]))
        strands = data.draw(st.lists(orders.flatmap(lambda o: st.tuples(*[color.map(lambda c, v=v: (v, c)) for v in o])), max_size=12))
        tube = m.new_tube("t", strands)
        if kind == "extracted" and strands:  # frames with empty slots
            hit, rest = m.extract(tube, Codeword(*data.draw(st.sampled_from(strands))[0], ""))
            tube = m.merge(hit, [rest]) if data.draw(st.booleans()) else data.draw(st.sampled_from([hit, rest]))
    with unittest.mock.patch("helix.machine.bit_fields", wraps=helix.frames.bit_fields) as key_path:
        got = tube.colors(vertices)
    assert got == sorted(tuple(dict(s)[v] for v in vertices) for s in tube.contents)
    assert key_path.called == bool(vertices)


@pytest.mark.parametrize("kind", ["frames", "extracted", "product"])
@pytest.mark.parametrize(
    "choices, key_sizes",
    [
        ([[0, 2**32 - 1], [1, 2**32 - 1]], [2]),
        ([[0, 2**32 - 1], [5, 2**33 - 1]], [1, 1]),
        ([[0, 1]] + [[1]] * 32 + [[0]] * 31 + [[0, 1]], [64, 1]),
        ([[0, 2**32 - 1], [1], [0, 1]], [2, 1]),
    ],
    ids=[
        "32+32 bits, one key",
        "32+33 bits, two keys",
        "65 one-bit vertices, a full first key",
        "one 32-bit vertex widens the one-bit ones",
    ],
)
def test_colors_cut_the_vertices_into_keys_of_one_word(choices, key_sizes, kind):
    """One decode gives every vertex one width, so each key takes the next 64 // width vertices.

    The width is the bits of the largest color.  Every strand is a product
    row.  The first and last vertices take two colors each, so strands tie on
    every key but the last and differ on it.  The frame tube lists the
    product backwards, so the decode has to sort.
    """
    m = TubeMachine()
    vertices = list(range(1, len(choices) + 1))
    rows = [[(v, c) for c in colors] for v, colors in zip(vertices, choices)]
    if kind == "product":
        tube = m.new_tube("t", rows=rows)
    else:
        tube = m.new_tube("t", list(itertools.product(*rows))[::-1])
    if kind == "extracted":  # the strands with vertex 1's second color; the others leave dead slots
        _, tube = m.extract(tube, cw(*rows[0][0]))
        assert [(r.count, r._slots) for r in tube.runs] == [(2, 4)]
    with unittest.mock.patch("helix.machine.bit_fields", wraps=helix.frames.bit_fields) as key_path:
        got = tube.colors(vertices)
    assert got == sorted(tuple(dict(s)[v] for v in vertices) for s in tube.contents)
    assert len(got) == len(tube) and len(set(got)) == len(got)
    assert [len(call.args[1]) for call in key_path.call_args_list] == key_sizes


def test_colors_read_no_column():
    """The decode reads each run's fields through byte tables, never a token column."""
    m = TubeMachine()
    rows = [[(1, 0), (1, 1), (1, 2)], [(2, 0), (2, 3)]]
    frames = m.new_tube("frames", list(itertools.product(*rows))[::-1])
    _, extracted = m.extract(m.new_tube("extracted", list(itertools.product(*rows))), cw(1, 1))
    product, _ = m.extract(m.new_tube("product", rows=rows), cw(2, 3))
    assert product_of(product) is not None
    with unittest.mock.patch.object(helix.frames.Frame, "column", side_effect=AssertionError("column read")), \
            unittest.mock.patch.object(helix.machine._ProductRun, "column", side_effect=AssertionError("column read")):
        got = [t.colors([2, 1]) for t in (frames, extracted, product)]
    assert got == [sorted(tuple(dict(s)[v] for v in (2, 1)) for s in t.contents) for t in (frames, extracted, product)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_colors_of_wide_fields_fill_several_key_bytes(data):
    """The decode against the sorted per-strand colors, on fields of two or more words.

    The machine first sees some tokens of the tube's later vertices, then
    57-120 others, so the rest of the tube's tokens, those of its first
    vertex among them, sit past the first word; colors such as
    255, 256, 65535 and 2**40 fill more than one byte of a key.  Last it sees
    a color 7 of each vertex, which no strand holds, past every field's width.
    """
    m = TubeMachine()
    color = st.sampled_from([0, 1, 255, 256, 65535, 2**40])
    shared = data.draw(st.lists(st.integers(1, 5), unique=True, min_size=1, max_size=4))
    token = st.sampled_from(shared[1:] or [6]).flatmap(lambda v: color.map(lambda c: (v, c)))
    early = data.draw(st.lists(token, unique=True, max_size=4))
    m.discard(m.new_tube("early", [(t,) for t in early] + [((100 + j, 0),) for j in range(data.draw(st.integers(57, 120)))]))
    vertices = data.draw(st.permutations(shared))[: data.draw(st.integers(1, len(shared)))]
    if data.draw(st.booleans()):
        rows = [[(v, c) for c in data.draw(st.lists(color, unique=True, min_size=1, max_size=3))] for v in shared]
        tube = m.new_tube("t", rows=rows)
        if data.draw(st.booleans()):
            tube, _ = m.extract(tube, Codeword(*data.draw(st.sampled_from(rows[0])), ""))
    else:
        orders = st.permutations(shared).flatmap(lambda o: st.tuples(*[color.map(lambda c, v=v: (v, c)) for v in o]))
        strands = data.draw(st.lists(orders, min_size=1, max_size=12))
        tube = m.new_tube("t", strands)
        if data.draw(st.booleans()):  # frames with dead slots
            tube, _ = m.extract(tube, Codeword(*data.draw(st.sampled_from(strands))[0], ""))
    assert all(run.planes > 8 for run in tube.runs)
    m.discard(m.new_tube("late", [((200 + j, 0),) for j in range(56)] + [((v, 7),) for v in shared]))
    assert tube.colors(vertices) == sorted(tuple(dict(s)[v] for v in vertices) for s in tube.contents)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bit_fields_cut_each_field_out_of_every_value(data):
    fields = data.draw(st.lists(
        st.integers(1, 64).flatmap(lambda w: st.tuples(st.integers(0, 64 - w), st.just(w))), max_size=6
    ))
    values = data.draw(st.lists(st.integers(0, 2**64 - 1), max_size=20))
    got = helix.frames.bit_fields(values, fields)
    assert [list(f) for f in got] == [[(x >> o) & ((1 << w) - 1) for x in values] for o, w in fields]


def test_byte_fields_follow_the_per_byte_formula():
    for shift in range(9):
        for width in range(9 - shift):
            want = bytes((b >> shift) & ((1 << width) - 1) for b in range(256))
            assert helix.frames._byte_field(shift, width) == want, (shift, width)


@st.composite
def frame_contents_st(draw):
    """Strands of one vertex order (blank ones included), or of mixed orders; some repeated."""
    if draw(st.booleans()):
        order = draw(st.permutations(range(1, 9)))[: draw(st.integers(0, 6))]
        strand_st = st.tuples(*[st.integers(0, 3).map(lambda c, v=v: (v, c)) for v in order])
        strands = draw(st.lists(strand_st, max_size=10))
    else:
        strands = draw(mixed_contents_st)
    return strands + draw(st.lists(st.sampled_from(strands), max_size=4)) if strands else strands


FRAME_OPS = ("new", "pad", "copy", "merge", "merge copies", "merge remade", "extract", "append", "discard", "detect")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_frame_tubes_behave_as_lists_of_token_tuples(data):
    """One random script on a symbolic machine against a model of lists of token tuples.

    A pad step registers 62 tokens of other vertices, which moves every
    token first seen after it up about a word, so appends widen frames (by
    more than one word after two pads) and merges join frames of different
    widths.  A remade merge puts some of a tube's strands in again from a new
    tube, whose fields may be narrower, so equal strands sit in frames of
    different widths.  After every step each tube holds the model's strands
    in the model's order, with its size, repeat count and colors; the repeat
    count is read first, before anything joins the tube's frames.  The
    machine's peak and counters match the model's.
    """
    m = TubeMachine()
    model = {}  # every tube handed out -> its strands
    retired, counts, peak, pad_vertex = set(), Counter(), 0, 100
    for step in range(data.draw(st.integers(1, 25))):
        live = [t for t in model if t not in retired]
        op = data.draw(st.sampled_from(FRAME_OPS)) if live and step else data.draw(st.sampled_from(("new", "pad")))
        if op == "new":
            contents = data.draw(frame_contents_st())
            model[m.new_tube("t", contents)] = contents
        elif op == "pad":
            m.discard(m.new_tube("pad", [((pad_vertex + i, 0),) for i in range(62)]))
            pad_vertex += 62
            counts["discard"] += 1
            peak = max(peak, sum(map(len, model.values())) + 62)
        else:  # mostly a tube that holds strands
            t = data.draw(st.sampled_from([u for u in live if model[u]] or live))
            counts[op.split()[0]] += 1
        if op == "copy":
            for replica in m.copy(t, data.draw(st.integers(1, 3))):
                model[replica] = model[t]
            model[t] = []
        elif op == "merge copies":  # the same strands twice: the merge keeps both
            a, b = m.copy(t, 2)
            m.merge(a, [b])
            model[a], model[b], model[t] = model[t] * 2, [], []
            counts["copy"] += 1
        elif op == "merge remade":  # some of its strands again, in a new tube whose fields may be narrower
            again = data.draw(st.lists(st.sampled_from(model[t]), min_size=1)) if model[t] else []
            m.merge(t, [m.new_tube("again", again)])
            model[t] = model[t] + again
        elif op == "merge":
            others = [u for u in live if u is not t]
            sources = data.draw(st.lists(st.sampled_from(others), unique=True, max_size=3)) if others else []
            m.merge(t, sources)
            model[t] = model[t] + [s for u in sources for s in model[u]]
            for u in sources:
                model[u] = []
        elif op == "extract":
            held = sorted({tok for s in model[t] for tok in s})
            token = data.draw(st.sampled_from(held) | token_st if held else token_st)
            plus, minus = m.extract(t, Codeword(*token, "ACGT"))
            model[plus] = [s for s in model[t] if token in s]
            model[minus] = [s for s in model[t] if token not in s]
            model[t] = []
        elif op == "append":
            named = {v for s in model[t] for v, _ in s}
            fresh = [v for v in range(1, 9) if v not in named] or [1]
            token = (data.draw(st.sampled_from(fresh) | st.integers(1, 8)), data.draw(st.integers(0, 3)))
            if token[0] in named:
                with pytest.raises(MachineFault):
                    m.append(t, cw(*token))
                counts["append"] -= 1  # a refused append is not counted
            else:
                m.append(t, cw(*token))
                model[t] = [s + (token,) for s in model[t]]
        elif op == "discard":
            m.discard(t)
            model[t] = []
            retired.add(t)
        elif op == "detect":
            assert m.detect(t) == bool(model[t])
        peak = max(peak, sum(map(len, model.values())))
        for u, strands in model.items():
            assert u.distinct() == len(set(strands))  # before contents joins the runs
            assert (u.contents, len(u), u.retired) == (strands, len(strands), u in retired)
            vertices = sorted(set.intersection(*({v for v, _ in s} for s in strands))) if strands else []
            assert u.colors(vertices) == sorted(tuple(dict(s)[v] for v in vertices) for s in strands)
        assert m.peak_tube_size == peak
        assert m.counter == OpCounter(**counts)


def test_merge_joins_differing_tails_onto_their_prefixes():
    cb = BASES_CBS[0]
    m = TubeMachine(cb)
    t = m.new_tube("t", [((1, 0),), ((1, 1),), ((1, 2),)])
    m.append(t, cb.codeword(2, 0))
    plus, minus = m.extract(t, cb.codeword(1, 0))
    m.append(plus, cb.codeword(3, 1))
    m.append(minus, cb.codeword(3, 2))
    m.merge(plus, [minus])
    assert_extract_follows_render(m, plus)


def test_nucleotide_product_tube_stays_a_mask_through_extract():
    cb = BASES_CBS[0]
    m = TubeMachine(cb)
    t = m.new_tube("t", [(), ((1, 0),), ((1, 1), (2, 0))])
    assert_extract_follows_render(m, t)
    assert_extract_follows_render(m, m.new_tube("empty"))
    rows = [((1, 0), (1, 1)), ((2, 0), (2, 1))]
    plus, minus = m.extract(m.new_tube("start", rows=rows), cb.codeword(1, 0))
    assert product_of(plus) is product_of(minus) is not None  # no strand built
    assert_extract_follows_render(m, plus)
    assert_extract_follows_render(m, minus)
    assert product_of(plus) is not None and (len(plus), len(minus)) == (2, 2)
    assert copy.copy(plus).contents == [s for s in itertools.product(*rows) if (1, 0) in s]
    m.append(plus, cb.codeword(3, 2))
    kept, _ = m.extract(plus, cb.codeword(2, 1))
    assert kept.contents == [((1, 0), (2, 1), (3, 2))]


def test_nucleotide_extract_of_the_empty_sequence_matches_every_strand():
    m = TubeMachine(BASES_CBS[0])
    probe = Codeword(1, 0, "")
    plus, minus = m.extract(m.new_tube("t", [(), ((1, 0),)]), probe)
    assert (plus.contents, minus.contents) == ([(), ((1, 0),)], [])
    assert_extract_follows_render(m, m.new_tube("t", [((1, 1),), (), ((1, 1), (2, 0))]), [""])
    for rows in ([], [((1, 0), (1, 1)), ((2, 0),)]):
        plus, minus = m.extract(m.new_tube("start", rows=rows), probe)
        assert product_of(plus) is not None and not minus
        assert plus.contents == list(itertools.product(*rows))


def machine_books(m, tubes):
    """Everything a refused operation must leave as it was: the books, the token index and the tubes' strands.

    Each tube is read through a shallow copy, so reading joins no frame and
    decodes no product run of the tube itself.
    """
    return m.counter.snapshot(), m.peak_tube_size, list(m._index.items()), [copy.copy(t).contents for t in tubes]


def test_a_new_tube_refused_by_a_machine_fault_registers_none_of_its_tokens():
    m = TubeMachine()
    kept = m.new_tube("t", [((1, 0),)])
    before = machine_books(m, [kept])
    for bad, message in [
        ({"contents": [((2, 1),), ((3, 0), (3, 1))]}, "names a vertex twice"),
        ({"contents": [((2, 1),), ((3, -1),)]}, "color -1"),
        ({"contents": [((2, 1),), ((3, [0]),)]}, "color [0] of vertex 3 is not an int in [0, 2**64)"),
        ({"rows": [[(2, 1), ("a", 0)]]}, "token row names more than one vertex: ['a', 2]"),
    ]:
        with pytest.raises(MachineFault, match=re.escape(message)):
            m.new_tube("x", **bad)
        assert machine_books(m, [kept]) == before


# new_tube contents and rows of the wrong kind, each with the TypeError message that names it.  Each
# list begins with the strand ((1, 0),) or the row [(1, 0)], whose token must not stay registered.
MALFORMED_CONTENTS = [
    ({"contents": 5}, "new_tube contents must be an iterable of strands, got 5"),
    ({"contents": [((1, 0),), 5]}, "a strand must be an iterable of (vertex, color) pairs, got 5"),
    ({"contents": [((1, 0),), "ab"]}, "a token must be a (vertex, color) pair, got 'a'"),
    ({"contents": [((1, 0),), ((2, 1), (3,))]}, "a token must be a (vertex, color) pair, got (3,)"),
    ({"contents": [((1, 0),), (([2], 1),)]}, "a vertex must be hashable, got [2]"),
    ({"rows": 5}, "new_tube rows must be an iterable of token rows, got 5"),
    ({"rows": [None]}, "a token row must be an iterable of (vertex, color) pairs, got None"),
    ({"rows": [[(1, 0)], 5]}, "a token row must be an iterable of (vertex, color) pairs, got 5"),
    ({"rows": [[(1, 0)], [(2,)]]}, "a token must be a (vertex, color) pair, got (2,)"),
    ({"rows": [[(1, 0)], ["ab"]]}, "a token must be a (vertex, color) pair, got 'ab'"),
    ({"rows": [[(1, 0)], [[2, 1]]]}, "a token must be a (vertex, color) pair, got [2, 1]"),
    ({"rows": [[(1, 0)], [([2], 1)]]}, "a vertex must be hashable, got [2]"),
]
MALFORMED_IDS = ["contents", "strand", "str-token", "short-token", "list-vertex",
                 "rows", "None-row", "row", "short-row-token", "str-row-token", "list-row-token", "row-list-vertex"]


@pytest.mark.parametrize("coded", [False, True], ids=["symbolic", "codebook"])
@pytest.mark.parametrize("malformed, message", MALFORMED_CONTENTS, ids=MALFORMED_IDS)
def test_a_new_tube_of_malformed_contents_is_a_type_error_and_registers_none_of_its_tokens(coded, malformed, message):
    m = TubeMachine(generate_codebook(3, 2, 12, 0) if coded else None)
    kept = m.new_tube("t", [((3, 0),)])
    before = machine_books(m, [kept])
    with pytest.raises(TypeError, match=re.escape(message)):
        m.new_tube("x", **malformed)
    assert machine_books(m, [kept]) == before
    assert (1, 0) not in m._index


@pytest.mark.parametrize("coded", [False, True], ids=["symbolic", "codebook"])
def test_an_append_refused_for_a_repeated_vertex_registers_no_token(coded):
    """Appending (1, 1) to a tube of ((1, 0),) faults and leaves the token index, counter and tube as they were."""
    cb = generate_codebook(2, 2, 12, 0)
    m = TubeMachine(cb if coded else None)
    t = m.new_tube("t", [((1, 0),)])
    before = machine_books(m, [t])
    with pytest.raises(MachineFault, match="already assigns vertex 1"):
        m.append(t, cb.codeword(1, 1))
    assert machine_books(m, [t]) == before
    assert (1, 1) not in m._index


@pytest.mark.parametrize("token", [(3, 1), (1, 5)])
@pytest.mark.parametrize("entry", ["contents", "rows", "append"])
def test_a_token_without_a_codeword_is_refused_as_it_enters(entry, token):
    """A nucleotide machine refuses a token its codebook lacks when the token enters, and changes nothing.

    Each refused new_tube first meets (2, 1), a coded token the machine has
    not seen, so the refusal must also leave that token unregistered.
    """
    cb = generate_codebook(2, 2, 12, 0)
    m = TubeMachine(cb)
    t = m.new_tube("t", [((1, 0),), ((1, 1),)])
    m.append(t, cb.codeword(2, 0))
    kept, _ = m.extract(m.new_tube("u", [((1, 1),), ((1, 0),)]), cb.codeword(1, 1))
    blank = m.new_tube("blank", [()])
    tubes = [t, kept, blank]
    before = machine_books(m, tubes)
    v, c = token
    refused = {
        "contents": lambda: m.new_tube("x", [((2, 1),), (token,)]),
        "rows": lambda: m.new_tube("x", rows=[((2, 1),), (token,)]),
        "append": lambda: m.append(blank, Codeword(v, c, "ACGT")),
    }[entry]
    with pytest.raises(CodecError, match=rf"^no codeword for vertex {v}, color {c}$"):
        refused()
    assert machine_books(m, tubes) == before
    assert_extract_follows_render(m, t)
    m.append(kept, cb.codeword(2, 1))
    assert_extract_follows_render(m, kept)
    assert_extract_follows_render(m, m.new_tube("y", [((2, 1),), ((1, 0), (2, 0))]))


# --- refusals --------------------------------------------------------------

FOREIGN_CALLS = {
    "append": lambda m, tube, own: m.append(tube, cw(5, 0)),
    "copy": lambda m, tube, own: m.copy(tube, 2),
    "merge-dest": lambda m, tube, own: m.merge(tube, [own]),
    "merge-source": lambda m, tube, own: m.merge(own, [tube]),
    "extract": lambda m, tube, own: m.extract(tube, cw(1, 0)),
    "detect": lambda m, tube, own: m.detect(tube),
    "discard": lambda m, tube, own: m.discard(tube),
}


@pytest.mark.parametrize("op", list(FOREIGN_CALLS))
def test_another_machines_tube_is_refused_by_name(op):
    """Machine b refuses machine a's tube 's' in every operation, and neither machine changes.

    The two machines number (1, 0) and (1, 1) in opposite orders, so b
    reading a's tube through its own token index would swap the colors.
    """
    a, b = TubeMachine(), TubeMachine()
    a_tubes = [a.new_tube("a", [((1, 0),), ((1, 1),)]), a.new_tube("s", [((1, 0),)])]
    b_tubes = [b.new_tube("b", [((1, 1),), ((1, 0),)]), b.new_tube("d", [((1, 1),)])]
    before = machine_books(a, a_tubes), machine_books(b, b_tubes)
    with pytest.raises(MachineFault, match=r"^tube 's' belongs to another machine$"):
        FOREIGN_CALLS[op](b, a_tubes[1], b_tubes[1])
    assert (machine_books(a, a_tubes), machine_books(b, b_tubes)) == before


@pytest.mark.parametrize("count", [True, 2.0], ids=["bool", "float"])
def test_copy_refuses_a_count_that_is_not_an_int(count):
    m = TubeMachine()
    t = m.new_tube("t", [((1, 0),), ((1, 1),)])
    before = machine_books(m, [t])
    with pytest.raises(TypeError, match=rf"^copy count must be an int, got {count!r}$"):
        m.copy(t, count)
    assert machine_books(m, [t]) == before


@pytest.mark.parametrize("coded", [False, True], ids=["symbolic", "codebook"])
def test_extract_refuses_a_probe_that_is_not_a_codeword(coded):
    cb = generate_codebook(2, 2, 12, 0)
    m = TubeMachine(cb if coded else None)
    t = m.new_tube("t", [((1, 0),), ((1, 1), (2, 0))])
    before = machine_books(m, [t])
    with pytest.raises(TypeError, match=r"^probe must be a Codeword, got 'ACGT'$"):
        m.extract(t, "ACGT")
    assert machine_books(m, [t]) == before


NOT_TUBES = ["t", 0, None, Codeword(1, 0, "ACGT")]


@pytest.mark.parametrize("bad", NOT_TUBES, ids=["str", "int", "None", "Codeword"])
@pytest.mark.parametrize("op", list(FOREIGN_CALLS))
def test_an_operand_that_is_not_a_tube_is_refused_by_name(op, bad):
    """Each operation, given `bad` where it takes a tube (merge's dest or a source), refuses it by name."""
    m = TubeMachine()
    tubes = [m.new_tube("t", [((1, 0),), ((1, 1),)]), m.new_tube("d", [((1, 1),)])]
    before = machine_books(m, tubes)
    with pytest.raises(TypeError, match=rf"^operand must be a Tube, got {re.escape(repr(bad))}$"):
        FOREIGN_CALLS[op](m, bad, tubes[1])
    assert machine_books(m, tubes) == before


@pytest.mark.parametrize("coded", [False, True], ids=["symbolic", "codebook"])
@pytest.mark.parametrize("op, probe", [("append", "ACGT"), ("append", (2, 0)), ("append", None), ("extract", None)])
def test_a_probe_that_is_not_a_codeword_is_refused_by_name(op, probe, coded):
    m = TubeMachine(generate_codebook(2, 2, 12, 0) if coded else None)
    t = m.new_tube("t", [((1, 0),), ((1, 1), (2, 0))])
    before = machine_books(m, [t])
    with pytest.raises(TypeError, match=rf"^probe must be a Codeword, got {re.escape(repr(probe))}$"):
        getattr(m, op)(t, probe)
    assert machine_books(m, [t]) == before


# Probes whose sequence is not a str, or whose vertex or color cannot be hashed, each with the
# machines that refuse it, its error and its message.  Vertex 3 is in no strand of the tube, so append
# meets no repeated vertex first.  Only a symbolic extract hashes the probe's token; a nucleotide one
# looks up its sequence.
WRONG_PARTS = [
    ("append", Codeword(3, 0, 5), "both", TypeError, "probe sequence must be a str, got 5"),
    ("extract", Codeword(1, 0, ["A"]), "both", TypeError, "probe sequence must be a str, got ['A']"),
    ("extract", Codeword(1, 0, 5), "both", TypeError, "probe sequence must be a str, got 5"),
    ("append", Codeword([3], 0, "A"), "both", TypeError, "a vertex must be hashable, got [3]"),
    ("append", Codeword(3, [0], "A"), "both", MachineFault, "color [0] of vertex 3 is not an int in [0, 2**64)"),
    ("extract", Codeword([1], 0, "A"), "symbolic", TypeError, "a vertex must be hashable, got [1]"),
    ("extract", Codeword(1, [0], "A"), "symbolic", MachineFault, "color [0] of vertex 1 is not an int in [0, 2**64)"),
]


@pytest.mark.parametrize("op, probe, coded, error, message", [
    pytest.param(op, probe, coded, error, message, id=f"{op}-{i}-{'codebook' if coded else 'symbolic'}")
    for i, (op, probe, machines, error, message) in enumerate(WRONG_PARTS)
    for coded in ((False, True) if machines == "both" else (False,))
])
def test_a_probe_part_of_the_wrong_kind_is_refused_by_name(op, probe, coded, error, message):
    m = TubeMachine(generate_codebook(3, 2, 12, 0) if coded else None)
    t = m.new_tube("t", [((1, 0),), ((1, 1), (2, 0))])
    before = machine_books(m, [t])
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        getattr(m, op)(t, probe)
    assert machine_books(m, [t]) == before


def test_merge_refuses_one_tube_given_as_its_sources():
    m = TubeMachine()
    tubes = [m.new_tube("d", [((1, 0),)]), m.new_tube("t", [((1, 1),)])]
    before = machine_books(m, tubes)
    with pytest.raises(TypeError, match=r"^merge sources must be an iterable of tubes, got Tube\('t', 1 strands\)$"):
        m.merge(*tubes)
    assert machine_books(m, tubes) == before


def test_the_kind_of_an_operand_is_refused_before_the_state_of_a_tube():
    """A probe's kind comes before the tube's state, and an operand's kind before merge's repeat test."""
    m = TubeMachine()
    gone, t = m.new_tube("gone", [((1, 0),)]), m.new_tube("t", [((1, 1),)])
    m.discard(gone)
    before = machine_books(m, [gone, t])
    for call, message in [
        (lambda: m.append(gone, None), "probe must be a Codeword, got None"),
        (lambda: m.extract(gone, "ACGT"), "probe must be a Codeword, got 'ACGT'"),
        (lambda: m.merge(t, [t, "x"]), "operand must be a Tube, got 'x'"),
    ]:
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            call()
        assert machine_books(m, [gone, t]) == before


# Tokens (1..3, 0..1), each with a codeword of a validated table.
TWO_CB = generate_codebook(3, 2, 12, 0)
TWO_TOKENS = [(v, c) for v in range(1, 4) for c in range(2)]
_junction = TWO_CB.codeword(1, 0).sequence[-5:] + TWO_CB.codeword(2, 1).sequence[:5]
TWO_CODEWORDS = [TWO_CB.codeword(v, c) for v, c in TWO_TOKENS]
TWO_PROBES = TWO_CODEWORDS + [Codeword(1, 0, ""), Codeword(1, 0, _junction)]
foreign_st = st.sampled_from([False, False, False, True])  # whether to ask the machine that does not own the tube
junk_st = st.sampled_from([()] * 20 + [(x,) for x in NOT_TUBES])  # mostly none, else one operand that is no tube
WRONG_PROBES = [probe for _, probe, *_ in WRONG_PARTS]


class TwoMachines(RuleBasedStateMachine):
    """Two machines, one symbolic and one coded, against one model: each tube's strands as token tuples.

    Machine 0 is symbolic, machine 1 coded.  A rule asks the machine that
    owns its tube, or with `foreign` the other one; merge's foreign tube is
    dest or a source.  With `junk` a value that is no tube takes the tube's
    place (merge's dest or one of its sources), append and extract draw
    probes that are no Codeword or whose parts are of the wrong kind, and
    merge may be given one tube as its sources; new_tube may draw contents
    or rows of the wrong kind.  Each step either does what the model says, or raises
    the documented error with its message and leaves both machines' books
    and every tube as they were.  No other error passes.
    """

    tubes = Bundle("tubes")

    def __init__(self):
        super().__init__()
        self.machines = (TubeMachine(), TubeMachine(TWO_CB))
        self.strands, self.owner, self.gone = {}, {}, set()  # tube -> its strands, its machine; discarded tubes
        self.peaks = [0, 0]

    def _made(self, m, *pairs):
        for tube, strands in pairs:
            self.strands[tube], self.owner[tube] = strands, m
        return multiple(*(tube for tube, _ in pairs))

    def _refusal(self, m, tubes, probes=()):
        """(the error, its message) that machine m owes for these operands and probes, or None.

        The probe comes first, then each operand's kind before its state.
        """
        for probe in probes:
            if not isinstance(probe, Codeword):
                return TypeError, f"probe must be a Codeword, got {probe!r}"
            if not isinstance(probe.sequence, str):
                return TypeError, f"probe sequence must be a str, got {probe.sequence!r}"
        for tube in tubes:
            if tube not in self.strands:
                return TypeError, f"operand must be a Tube, got {tube!r}"
            if tube in self.gone or self.owner[tube] != m:
                why = "was discarded" if tube in self.gone else "belongs to another machine"
                return MachineFault, f"tube {tube.label!r} {why}"
        if len(set(map(id, tubes))) < len(tubes):
            return MachineFault, "merged into itself" if tubes[0] in tubes[1:] else "listed twice"
        return None

    @staticmethod
    def _token_refusal(probe):
        """(the error, its message) for a probe whose token cannot be hashed, or None; the color is checked first."""
        if isinstance(probe.color, list):
            return MachineFault, f"color {probe.color!r} of vertex {probe.vertex!r} is not an int"
        if isinstance(probe.vertex, list):
            return TypeError, f"a vertex must be hashable, got {probe.vertex!r}"
        return None

    def _books(self):
        tubes = list(self.strands)
        mine = [[t for t in tubes if self.owner[t] == i] for i in range(2)]
        return [machine_books(m, ts) for m, ts in zip(self.machines, mine)], [t.retired for t in tubes]

    def _refused(self, call, error, message):
        before = self._books()
        with pytest.raises(error, match=re.escape(message)):
            call()
        assert self._books() == before

    @rule(target=tubes, m=st.sampled_from([0, 1]), strands=st.lists(
        st.lists(st.sampled_from(TWO_TOKENS), unique_by=lambda tok: tok[0], max_size=3).map(tuple), max_size=4
    ), malformed=st.sampled_from([None] * 12 + MALFORMED_CONTENTS))
    def new_tube(self, m, strands, malformed):
        if malformed:  # contents or rows of the wrong kind, in place of the drawn strands
            kwargs, message = malformed
            self._refused(lambda: self.machines[m].new_tube("x", **kwargs), TypeError, message)
            return multiple()
        return self._made(m, (self.machines[m].new_tube(f"t{len(self.strands)}", strands), strands))

    @rule(target=tubes, m=st.sampled_from([0, 1]), order=st.permutations([1, 2, 3]), colors=st.lists(
        st.lists(st.integers(0, 1), unique=True, max_size=2), max_size=3
    ))
    def new_product_tube(self, m, order, colors):
        rows = [[(v, c) for c in row] for v, row in zip(order, colors)]
        tube = self.machines[m].new_tube(f"t{len(self.strands)}", rows=rows)
        return self._made(m, (tube, list(itertools.product(*rows))))

    @rule(tube=tubes, foreign=foreign_st, junk=junk_st,
          probe=st.sampled_from(TWO_CODEWORDS * 2 + ["ACGT", (2, 0), None] + WRONG_PROBES))
    def append(self, tube, foreign, junk, probe):
        m, (operand,) = self.owner[tube] ^ foreign, junk or (tube,)
        call = lambda: self.machines[m].append(operand, probe)
        refusal = self._refusal(m, [operand], [probe])
        if not refusal and any(v == probe.vertex for s in self.strands[tube] for v, _ in s):
            refusal = MachineFault, f"already assigns vertex {probe.vertex}"
        refusal = refusal or self._token_refusal(probe)
        if refusal:
            return self._refused(call, *refusal)
        assert call() is tube
        self.strands[tube] = [s + ((probe.vertex, probe.color),) for s in self.strands[tube]]

    @rule(target=tubes, tube=tubes, foreign=foreign_st, junk=junk_st, count=st.sampled_from([1, 2, 3, 0, True, 2.0]))
    def copy(self, tube, foreign, junk, count):
        m, (operand,) = self.owner[tube] ^ foreign, junk or (tube,)
        call = lambda: self.machines[m].copy(operand, count)
        refusal = self._refusal(m, [operand])
        if not refusal and count.__class__ is not int:
            refusal = TypeError, f"copy count must be an int, got {count!r}"
        elif not refusal and count < 1:
            refusal = ValueError, f"copy count must be at least 1, got {count}"
        if refusal:
            self._refused(call, *refusal)
            return multiple()
        strands, self.strands[tube] = self.strands[tube], []
        return self._made(m, *((c, list(strands)) for c in call()))

    @rule(dest=tubes, sources=st.lists(tubes, max_size=3), foreign=foreign_st, junk=junk_st,
          repeat=st.sampled_from(["", "", "dest", "source", "lone"]), at=st.integers(0, 3))
    def merge(self, dest, sources, foreign, junk, repeat, at):
        m, lone = self.owner[dest], sources[-1] if sources else dest
        if not foreign:
            sources = [src for src in sources if self.owner[src] == m]
        elif all(self.owner[src] == m for src in sources):
            m ^= 1  # dest is the other machine's
        if repeat == "dest" or repeat == "source" and sources:  # dest among its sources, or a source listed twice
            sources.insert(at, dest if repeat == "dest" else sources[-1])
        if junk and at % 2:  # a source that is no tube
            sources.insert(at, junk[0])
        elif junk:  # a dest that is no tube
            dest = junk[0]
        if repeat == "lone":  # one tube in place of the list of sources
            sources, refusal = lone, (TypeError, f"merge sources must be an iterable of tubes, got {lone!r}")
        else:
            refusal = self._refusal(m, [dest, *sources])
        call = lambda: self.machines[m].merge(dest, sources)
        if refusal:
            return self._refused(call, *refusal)
        assert call() is dest
        for src in sources:
            self.strands[dest], self.strands[src] = self.strands[dest] + self.strands[src], []

    @rule(target=tubes, tube=tubes, foreign=foreign_st, junk=junk_st,
          probe=st.sampled_from(TWO_PROBES + ["ACGT", None] + WRONG_PROBES))
    def extract(self, tube, foreign, junk, probe):
        m, (operand,) = self.owner[tube] ^ foreign, junk or (tube,)
        call = lambda: self.machines[m].extract(operand, probe)
        refusal = self._refusal(m, [operand], [probe])
        if not (refusal or m):  # only a symbolic extract hashes the probe's token
            refusal = self._token_refusal(probe)
        if refusal:
            self._refused(call, *refusal)
            return multiple()
        strands, self.strands[tube] = self.strands[tube], []
        if m:  # the coded machine searches the rendered bases
            held = [probe.sequence in render(s, TWO_CB) for s in strands]
        else:
            held = [(probe.vertex, probe.color) in s for s in strands]
        plus, minus = call()
        return self._made(
            m, (plus, [s for s, h in zip(strands, held) if h]), (minus, [s for s, h in zip(strands, held) if not h])
        )

    @rule(tube=tubes, foreign=foreign_st, junk=junk_st)
    def detect(self, tube, foreign, junk):
        m, (operand,) = self.owner[tube] ^ foreign, junk or (tube,)
        call = lambda: self.machines[m].detect(operand)
        if refusal := self._refusal(m, [operand]):
            return self._refused(call, *refusal)
        assert call() is bool(self.strands[tube])

    @rule(tube=tubes, foreign=foreign_st, junk=junk_st)
    def discard(self, tube, foreign, junk):
        m, (operand,) = self.owner[tube] ^ foreign, junk or (tube,)
        call = lambda: self.machines[m].discard(operand)
        if refusal := self._refusal(m, [operand]):
            return self._refused(call, *refusal)
        assert call() is None
        self.strands[tube] = []
        self.gone.add(tube)

    @invariant()
    def every_tube_and_peak_follows_the_model(self):
        for tube, strands in self.strands.items():
            assert Counter(copy.copy(tube).contents) == Counter(strands)
            assert len(tube) == len(strands) and tube.retired == (tube in self.gone)
        for i, m in enumerate(self.machines):
            self.peaks[i] = max(self.peaks[i], sum(len(s) for t, s in self.strands.items() if self.owner[t] == i))
            assert m.peak_tube_size == self.peaks[i]


TwoMachines.TestCase.settings = settings(max_examples=100, stateful_step_count=30, deadline=None)
TestTwoMachines = TwoMachines.TestCase
