import hashlib
import itertools
import json
import random
import re
import tracemalloc
import unittest.mock
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from helix import (
    Codebook,
    CodecError,
    Codeword,
    DecodeError,
    GenerationError,
    JunctionViolation,
    SoundnessError,
    TubeMachine,
    ValidationReport,
    builtin_table1,
    codebook_from_json,
    codebook_to_json,
    color_name,
    decode_strand,
    dump_codebook,
    generate_codebook,
    load_codebook,
    render,
    validate_codebook,
)
from helix.codec import _admit_word_by_word, _candidates, _first_draw_fits, _JunctionIndex, coloring_from_strand

R1 = "AAGGCAGGAACAGATCAACC"
G1 = "CGTTCTAAATAGGGTCGTGT"
R2 = "CCACAATGTTATAATACCAC"
B12 = "TCTCAACAGCGTCTGGAAGT"


def test_color_names():
    assert [color_name(c) for c in range(5)] == ["red", "green", "blue", "color3", "color4"]


def test_table1_shape(table1):
    assert (table1.n, table1.k) == (12, 3)
    assert len(table1.codewords()) == 36
    assert table1.codeword(1, 0).sequence == R1
    assert table1.codeword(12, 2).sequence == B12


def test_table1_irregular_lengths_kept_verbatim(table1):
    hist = Counter(len(cw.sequence) for cw in table1.codewords())
    assert hist == {20: 31, 21: 3, 19: 2}
    assert len(table1.codeword(3, 0).sequence) == 19
    assert len(table1.codeword(8, 2).sequence) == 19
    assert len(table1.codeword(5, 0).sequence) == 21


def test_table1_passes_validation(table1):
    report = table1.validation()
    assert report.ok
    assert report.duplicates == ()
    assert report.junction_violations == ()
    assert report.min_pairwise_hamming is not None and report.min_pairwise_hamming >= 1


def _tiny_cb(*seqs):
    entries = [Codeword(v, 0, s) for v, s in enumerate(seqs, start=1)]
    return Codebook(len(seqs), 1, entries, provenance="test")


def test_duplicate_sequences_reported():
    report = validate_codebook(_tiny_cb("ACGT", "ACGT"))
    assert not report.ok
    assert len(report.duplicates) == 1
    a, b = report.duplicates[0]
    assert (a.vertex, b.vertex) == (1, 2)


def test_junction_violation_reported_with_offset():
    report = validate_codebook(_tiny_cb("AAAA", "AAAT"))
    assert not report.ok
    hits = {
        (v.word.sequence, v.left.sequence, v.right.sequence, v.offset)
        for v in report.junction_violations
    }
    # AAAA straddles the AAAA|AAAT junction three bases in: ...A AAA|A...
    assert ("AAAA", "AAAA", "AAAT", 3) in hits
    # and every reported witness really is a misaligned occurrence
    for word, left, right, offset in hits:
        assert (left + right)[offset : offset + len(word)] == word
        assert offset not in (0, len(left))


def test_junction_report_is_exhaustive_not_first_hit():
    report = validate_codebook(_tiny_cb("AAAA", "AAAT"))
    # AAAA alone occurs misaligned inside AAAA+AAAA at offsets 1, 2, 3
    self_hits = [
        v.offset
        for v in report.junction_violations
        if v.word.sequence == "AAAA" and v.left.sequence == "AAAA" and v.right.sequence == "AAAA"
    ]
    assert self_hits == [1, 2, 3]


def test_min_hamming_only_among_equal_lengths():
    report = validate_codebook(_tiny_cb("ACGTA", "AGGTA", "ACGTACGT"))
    assert report.min_pairwise_hamming == 1
    assert validate_codebook(_tiny_cb("ACGT", "ACGTACGT")).min_pairwise_hamming is None


def test_codebook_construction_checks():
    with pytest.raises(CodecError, match="non-DNA"):
        _tiny_cb("ACGU")
    with pytest.raises(CodecError, match="empty"):
        _tiny_cb("")
    with pytest.raises(CodecError, match="needs 4"):
        Codebook(2, 2, [Codeword(1, 0, "ACGT")], provenance="test")
    with pytest.raises(CodecError, match="outside"):
        Codebook(1, 1, [Codeword(2, 0, "ACGT")], provenance="test")
    with pytest.raises(CodecError, match=r"entry \(1,1\) outside 1 vertices x 1 colors"):
        Codebook(1, 1, [Codeword(1, 1, "ACGT")], provenance="test")
    with pytest.raises(CodecError, match="two entries"):
        Codebook(1, 1, [Codeword(1, 0, "ACGT"), Codeword(1, 0, "AAAA")], provenance="test")


def test_generate_is_deterministic_and_valid():
    a = generate_codebook(5, 3, 20, 7)
    b = generate_codebook(5, 3, 20, 7)
    assert [cw.sequence for cw in a.codewords()] == [cw.sequence for cw in b.codewords()]
    assert dump_codebook(a) == dump_codebook(b)
    assert a.validation().ok


def test_generate_matches_requested_shape():
    cb = generate_codebook(12, 3, 20, 7)
    assert (cb.n, cb.k, cb.length) == (12, 3, 20)
    assert all(len(cw.sequence) == 20 for cw in cb.codewords())
    assert validate_codebook(cb).ok


def test_generate_empty_codebook():
    cb = generate_codebook(0, 3, 8, 1)
    assert cb.codewords() == []
    assert cb.validation().ok


def test_generate_rejects_bad_params():
    with pytest.raises(CodecError, match="at least 4"):
        generate_codebook(2, 2, 3, 0)
    with pytest.raises(CodecError, match="positive"):
        generate_codebook(2, 0, 8, 0)
    with pytest.raises(CodecError, match="at most 1000"):
        generate_codebook(2, 2, 10**20, 0)
    assert generate_codebook(1, 2, 1000, 0).length == 1000


def test_generation_gives_up_when_no_candidate_is_junction_safe():
    # 4-mers leave no safe candidate long before 300 codewords
    with pytest.raises(GenerationError, match="gave up on codeword 44 after 10000 attempts"):
        generate_codebook(100, 3, 4, 0)


@pytest.mark.parametrize(
    "count, length, fits",
    [
        (48, 20, True),  # the bench's n=12, k=4 tables
        (1000, 20, True),  # the CI step's table under the bound
        (160, 8, False),  # the CI step's table over it
        (300, 10, False),
        (400, 12, False),  # the word-by-word growth case
        (20000, 20, False),  # a large symbolic table at k=1
    ],
)
def test_the_first_draw_bound_sides(count, length, fits):
    assert _first_draw_fits(count, length) is fits


def _generated_and_validations(n, k, length, seed):
    """(codewords or GenerationError message, validate_codebook calls while generating)."""
    with unittest.mock.patch("helix.codec.validate_codebook", wraps=validate_codebook) as spy:
        try:
            got = [cw.sequence for cw in generate_codebook(n, k, length, seed).codewords()]
        except GenerationError as exc:
            got = str(exc)
    return got, spy.call_count


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12), st.integers(1, 4), st.integers(4, 24), st.integers(0, 2**32))
def test_generation_equals_the_word_by_word_loop_on_both_sides_of_the_bound(n, k, length, seed):
    try:
        want = _admit_word_by_word(n * k, length, seed)
    except GenerationError as exc:
        want = str(exc)
    got, validations = _generated_and_validations(n, k, length, seed)
    assert got == want
    # Over the bound nothing is validated, so large tables pay for no report.
    assert validations == (1 if _first_draw_fits(n * k, length) else 0)


def test_a_first_draw_that_fails_validation_falls_back_to_the_word_by_word_loop():
    assert _first_draw_fits(4, 8)
    first_draw = list(itertools.islice(_candidates(random.Random(15), 8), 4))
    assert not validate_codebook(_tiny_cb(*first_draw)).ok
    got, validations = _generated_and_validations(2, 2, 8, 15)
    assert validations == 1
    assert got == _admit_word_by_word(4, 8, 15) != first_draw
    assert generate_codebook(2, 2, 8, 15).validation().ok


def test_a_first_draw_that_passes_comes_with_its_report():
    cb = generate_codebook(12, 4, 20, 0)
    with unittest.mock.patch("helix.codec.validate_codebook", side_effect=AssertionError("validated twice")):
        assert cb.validation().ok
        TubeMachine(cb)


@pytest.mark.parametrize(
    "args, message",
    [
        ((-1, 3, 8, 0), "vertex count must be non-negative, got -1"),
        ((2, -1, 8, 0), "color count must be positive, got -1"),
        ((-2, -2, 8, 0), "vertex count must be non-negative, got -2"),
    ],
)
def test_generation_refuses_a_negative_count_before_drawing(args, message):
    with pytest.raises(CodecError, match=message):
        generate_codebook(*args)


def test_codebook_refuses_a_negative_vertex_count():
    with pytest.raises(CodecError, match="vertex count must be non-negative, got -1"):
        Codebook(-1, 1, [], provenance="test")


@pytest.mark.parametrize("entry", [
    Codeword(1, 0, ["A", "C"]), Codeword(1, 0, ("A",)), Codeword("1", 0, "A"), Codeword(1.0, 0, "A"),
    Codeword(True, 0, "A"), Codeword(1, False, "A"), Codeword(9.5, 0, "XYZ"),
], ids=["list-sequence", "tuple-sequence", "str-vertex", "float-vertex", "bool-vertex", "bool-color", "before-range"])
def test_an_entry_of_the_wrong_kind_is_refused_by_name(entry):
    """The kinds are checked before the range and the alphabet, so the last entry is named for its vertex's kind."""
    message = f"entry {tuple(entry)!r} needs an int vertex, an int color and a str sequence"
    with pytest.raises(CodecError, match=f"^{re.escape(message)}$"):
        Codebook(1, 1, [entry], provenance="test")


def test_a_declared_length_that_a_sequence_does_not_have_is_refused():
    doc = codebook_to_json(generate_codebook(2, 2, 8, 0))
    doc["entries"][2]["sequence"] += "ACGT"
    doc["entries"][3]["sequence"] = doc["entries"][3]["sequence"][:5]
    codebook_from_json(dict(doc, length=None))  # no declared length: any mix is kept
    with pytest.raises(CodecError, match=r"entry \(2,0\) has 12 bases, not the codebook's length 8"):
        codebook_from_json(doc)
    with pytest.raises(CodecError, match=r"entry \(1,0\) has 8 bases, not the codebook's length 20"):
        codebook_from_json(dict(doc, length=20))


@pytest.mark.parametrize(
    "args, digest",
    [
        ((12, 4, 20, 0), "998f6413286f54e65ef3a5fcf918478587c39ef4c31dc8a17a605eefaa989e0d"),
        ((12, 4, 20, 7), "8e7fd0d4841b3fa804ce487a9b6014c99a969b36d14b28488a41f254bc2aeb7e"),
        ((16, 4, 20, 1), "6dcd65ce60f291392fc5cc4b28c8e3d54d50b2208136c495c313ec45bad6d046"),
        ((10, 4, 6, 0), "eda4f65e8c5dbeee5f171be752a53439be3c4167bd15e8c701b214a589b6d283"),
        ((8, 3, 5, 0), "28f18b7904cb145057a8694d40de83a2bb44cbfa50a8349881823c149df95903"),
    ],
)
def test_generated_codebook_bytes_are_pinned(args, digest):
    # digests of the codebooks the exhaustive triple-scan generator produced
    assert hashlib.sha256(dump_codebook(generate_codebook(*args)).encode()).hexdigest() == digest


def _misaligned_offsets(word, left, right):
    """Reference: offsets of word in left + right other than as exactly left or exactly right."""
    concat = left + right
    aligned = {(0, len(left)), (len(left), len(right))}
    return [
        off for off in range(len(concat) - len(word) + 1)
        if concat.startswith(word, off) and (off, len(word)) not in aligned
    ]


def _misaligned(word, left, right):
    return bool(_misaligned_offsets(word, left, right))


def _report_by_triple_scan(cb):
    """Reference validator: every (w, x, y) triple of codewords, scanned.

    (duplicates, junction violations, min pairwise Hamming distance).
    """
    words = cb.codewords()
    duplicates = tuple(
        (a, b) for i, a in enumerate(words) for b in words[i + 1 :] if a.sequence == b.sequence
    )
    violations = tuple(
        JunctionViolation(w, x, y, off)
        for w in words for x in words for y in words
        for off in _misaligned_offsets(w.sequence, x.sequence, y.sequence)
    )
    return duplicates, violations, _hamming_by_pair_scan([w.sequence for w in words])


def _hamming_by_pair_scan(sequences):
    """Reference: the least Hamming distance over every pair of one length, or None."""
    distances = [
        sum(p != q for p, q in zip(a, b))
        for i, a in enumerate(sequences) for b in sequences[i + 1 :]
        if len(a) == len(b)
    ]
    return min(distances, default=None)


def _extends_safely_by_scan(accepted, cand):
    """Reference: every (w, x, y) triple with the candidate in at least one role."""
    if cand in accepted:
        return False
    pool = accepted + [cand]
    return not (
        any(_misaligned(cand, x, y) for x in pool for y in pool)
        or any(_misaligned(w, cand, z) or _misaligned(w, z, cand) for w in accepted for z in pool)
    )


@st.composite
def pool_and_candidates(draw):
    alphabet = draw(st.sampled_from(["AC", "ACGT"]))
    length = draw(st.integers(4, 6))
    word = st.text(alphabet, min_size=length, max_size=length)
    return length, draw(st.lists(word, max_size=12)), draw(st.lists(word, min_size=1, max_size=8))


@settings(max_examples=400, deadline=None)
@given(pool_and_candidates())
def test_junction_index_agrees_with_the_triple_scan(case):
    length, pool, candidates = case
    index = _JunctionIndex()
    for word in pool:
        index.add(word)
    for cand in candidates + pool:
        assert index.admits(cand) == _extends_safely_by_scan(pool, cand), cand


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text("ACG", min_size=1, max_size=7), max_size=12))
def test_junction_index_role_sets_follow_their_definition(pool):
    index = _JunctionIndex()
    for word in pool:
        index.add(word)
    prefixes = {w[:i] for w in pool for i in range(1, len(w) + 1)}
    suffixes = {w[-i:] for w in pool for i in range(1, len(w) + 1)}
    assert index.x_tails == {w[:i] for w in pool for i in range(1, len(w)) if w[i:] in prefixes}
    assert index.y_heads == {w[i:] for w in pool for i in range(1, len(w)) if w[:i] in suffixes}


@st.composite
def planted_tables(draw):
    """Tables whose witnesses are cut from shared half-affixes, and some that share one and hold none.

    Up to six words of one length, or of lengths 1-8, over 1 to 4 letters.
    Then up to four are planted: repeats; crossings, a suffix of x then a
    prefix of y; and half-affixes, a long prefix or suffix of some word with
    the rest drawn, which seldom completes a crossing.
    """
    alphabet = "ACGT"[: draw(st.integers(1, 4))]
    length = draw(st.integers(1, 8))
    sizes = st.just(length) if draw(st.booleans()) else st.integers(1, 8)

    def text(size):
        return draw(st.text(alphabet, min_size=size, max_size=size))

    words = [text(draw(sizes)) for _ in range(draw(st.integers(0, 6)))]
    for _ in range(draw(st.integers(0, 4)) if words else 0):
        x, y, size = draw(st.sampled_from(words)), draw(st.sampled_from(words)), draw(sizes)
        kind = draw(st.sampled_from(["repeat", "crossing", "half-affix", "half-affix mirrored"]))
        if kind == "repeat":
            words.append(x)
        elif kind == "crossing" and max(1, size - len(y)) <= min(len(x), size - 1):
            j = draw(st.integers(max(1, size - len(y)), min(len(x), size - 1)))
            words.append(x[len(x) - j :] + y[: size - j])
        elif kind.startswith("half-affix") and (size + 1) // 2 <= min(len(x), size - 1):
            j = draw(st.integers((size + 1) // 2, min(len(x), size - 1)))
            words.append(x[len(x) - j :] + text(size - j) if kind == "half-affix" else text(size - j) + x[:j])
        else:
            words.append(text(size))
    return draw(st.permutations(words))


@settings(max_examples=600, deadline=None)
@given(planted_tables())
def test_validation_report_matches_the_triple_scan(pool):
    cb = _tiny_cb(*pool)
    report = validate_codebook(cb)
    assert (report.duplicates, report.junction_violations, report.min_pairwise_hamming) == _report_by_triple_scan(cb)


@st.composite
def hamming_tables(draw):
    """Words of a few lengths (0 included) over 1-, 2- or 4-letter alphabets, some repeated, in any order."""
    alphabet = draw(st.sampled_from(["A", "AC", "ACGT"]))
    lengths = draw(st.lists(st.integers(0, 12), min_size=1, max_size=3))
    word = st.sampled_from(lengths).flatmap(lambda n: st.text(alphabet, min_size=n, max_size=n))
    words = draw(st.lists(word, max_size=16))
    repeats = draw(st.lists(st.sampled_from(words), max_size=3)) if words else []
    return draw(st.permutations(words + repeats))


@settings(max_examples=500, deadline=None)
@given(hamming_tables())
def test_the_block_search_finds_the_pair_scans_least_hamming_distance(words):
    report = ValidationReport((), (), tuple(words))
    assert report.min_pairwise_hamming == _hamming_by_pair_scan(words)


def test_validation_lists_no_codeword_pairs():
    """750 codewords make 280,875 pairs; the report's memory must not grow with them."""
    cb = generate_codebook(250, 3, 20, 0)
    tracemalloc.start()
    try:
        report = validate_codebook(cb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok and report.min_pairwise_hamming is not None
    assert peak < 12 * 2**20


def test_the_machine_check_computes_no_hamming_distance():
    """TubeMachine reads only validation().ok; the Hamming figure waits for the report that shows it."""
    cb = generate_codebook(6, 3, 12, 0)
    with unittest.mock.patch("helix.codec.ne", side_effect=AssertionError("Hamming distance computed")):
        TubeMachine(cb)
        with pytest.raises(AssertionError, match="Hamming"):
            cb.validation().min_pairwise_hamming
    assert cb.validation().min_pairwise_hamming >= 1


def test_an_occurrence_at_a_boundary_is_aligned_only_as_a_whole_word():
    report = validate_codebook(_tiny_cb("TAA", "TAAGG", "GGT"))
    hits = {
        (v.word.sequence, v.left.sequence, v.right.sequence, v.offset)
        for v in report.junction_violations
    }
    assert ("TAA", "TAAGG", "GGT", 0) in hits  # the start of a longer x
    assert ("TAA", "GGT", "TAAGG", 3) in hits  # the start of a longer y
    assert ("TAAGG", "TAA", "GGT", 0) in hits  # all of a shorter x, then into y
    assert not any((off, w) in ((0, x), (len(x), y)) for w, x, y, off in hits)


@st.composite
def greedy_codebooks(draw):
    """Up to four words of lengths m to m + 2, each kept if the codebook still passes."""
    m = draw(st.integers(2, 4))
    word = st.integers(m, m + 2).flatmap(lambda n: st.text("ACGT", min_size=n, max_size=n))
    words = []
    for cand in draw(st.lists(word, min_size=1, max_size=12)):
        if len(words) < 4 and validate_codebook(_tiny_cb(*words, cand)).ok:
            words.append(cand)
    return _tiny_cb(*words)


@settings(max_examples=300, deadline=None)
@given(greedy_codebooks())
def test_match_modes_agree_on_validated_mixed_length_codebooks(cb):
    contents = [
        tuple((v, 0) for v in vertices)
        for size in range(cb.n + 1)
        for vertices in itertools.permutations(range(1, cb.n + 1), size)
    ]
    for codeword in cb.codewords():
        sym, nuc = TubeMachine(), TubeMachine(cb)
        sp, sm = sym.extract(sym.new_tube("s", contents), codeword)
        np_, nm = nuc.extract(nuc.new_tube("n", contents), codeword)
        assert (sp.contents, sm.contents) == (np_.contents, nm.contents), codeword


def test_render(table1):
    assert render((), table1) == ""
    assert render(((1, 1), (2, 0)), table1) == G1 + R2


def test_decode_inverts_render(table1):
    for strand in [(), ((1, 0),), ((1, 1), (2, 0)), ((3, 0), (5, 0), (9, 1))]:
        assert decode_strand(render(strand, table1), table1) == strand


def test_decode_errors(table1):
    with pytest.raises(DecodeError, match="position 0"):
        decode_strand("AAAA", table1)
    with pytest.raises(DecodeError, match="position 20"):
        decode_strand(R1 + "ACGT", table1)


def test_decode_refuses_unvalidated_codebook():
    bad = _tiny_cb("ACGT", "ACGT")
    with pytest.raises(SoundnessError):
        decode_strand("ACGT", bad)


def test_json_round_trip(tmp_path, table1):
    doc = codebook_to_json(table1)
    assert set(doc) == {"n", "k", "length", "provenance", "entries"}
    assert doc["length"] is None
    again = codebook_from_json(doc)
    assert codebook_to_json(again) == doc

    path = tmp_path / "cb.json"
    cb = generate_codebook(4, 2, 12, 3)
    path.write_text(dump_codebook(cb), encoding="utf-8")
    loaded = load_codebook(path)
    assert codebook_to_json(loaded) == codebook_to_json(cb)
    assert json.loads(path.read_text())["length"] == 12


def test_codebook_from_json_rejects_garbage():
    with pytest.raises(CodecError, match="missing fields"):
        codebook_from_json({"n": 1})
    with pytest.raises(CodecError):
        codebook_from_json([1, 2])


def test_strand_coloring_round_trip():
    assert coloring_from_strand(((1, 2), (2, 0), (3, 1)), 3) == (2, 0, 1)
    with pytest.raises(DecodeError, match="misses"):
        coloring_from_strand(((1, 0),), 2)
    with pytest.raises(DecodeError, match="twice"):
        coloring_from_strand(((1, 0), (1, 1)), 1)


@st.composite
def cb_and_strand(draw):
    seed = draw(st.integers(0, 4))
    cb = _GEN_CACHE[seed]
    vertices = draw(st.lists(st.integers(1, cb.n), unique=True, max_size=cb.n))
    strand = tuple((v, draw(st.integers(0, cb.k - 1))) for v in vertices)
    return cb, strand


_GEN_CACHE = {seed: generate_codebook(6, 3, 14, seed) for seed in range(5)}


@settings(max_examples=300, deadline=None)
@given(cb_and_strand())
def test_junction_soundness_on_generated_codebooks(pair):
    # a codeword's sequence occurs in the rendered strand iff its token is on it
    cb, strand = pair
    rendered = render(strand, cb)
    for cw in cb.codewords():
        assert ((cw.vertex, cw.color) in strand) == (cw.sequence in rendered)


@settings(max_examples=300, deadline=None)
@given(cb_and_strand())
def test_decode_render_round_trip_property(pair):
    cb, strand = pair
    assert decode_strand(render(strand, cb), cb) == strand


def test_junction_soundness_on_table1_samples(table1):
    rng = random.Random(99)
    for _ in range(200):
        vertices = rng.sample(range(1, 13), rng.randint(0, 8))
        strand = tuple((v, rng.randrange(3)) for v in vertices)
        rendered = render(strand, table1)
        for cw in table1.codewords():
            assert ((cw.vertex, cw.color) in strand) == (cw.sequence in rendered)


def test_render_raises_for_a_token_outside_the_codebook(table1):
    assert render([[1, 0], [2, 1]], table1) == render(((1, 0), (2, 1)), table1)
    with pytest.raises(CodecError, match="vertex 13"):
        render(((1, 0), (13, 0)), table1)
    with pytest.raises(CodecError, match="color 3"):
        render(((1, 3),), table1)
    with pytest.raises(CodecError, match="color 3"):
        render([[1, 0], [1, 3]], table1)


@pytest.mark.parametrize("strand, shown", [(((1,),), "(1,)"), (("ab",), "'ab'"), (((1, 0), [2]), "[2]"), (((1, 0), 5), "5")])
def test_render_names_a_token_that_is_not_a_pair(table1, strand, shown):
    with pytest.raises(TypeError, match=f"^{re.escape(f'a token must be a (vertex, color) pair, got {shown}')}$"):
        render(strand, table1)


@pytest.mark.parametrize(
    "field, value",
    [
        ("n", "x"), ("k", "2"), ("k", 2.5), ("length", "long"),
        ("vertex", "one"), ("vertex", 1.0), ("color", None), ("color", True),
    ],
)
def test_codebook_from_json_rejects_non_integer_fields(table1, field, value):
    doc = codebook_to_json(table1)
    if field in ("vertex", "color"):
        doc["entries"][0][field] = value
    else:
        doc[field] = value
    with pytest.raises(CodecError, match=f"'{field}' must be an integer"):
        codebook_from_json(doc)
