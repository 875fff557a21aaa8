"""DNA codewords and strand encoding.

A codeword is the fixed base sequence that stands for one (vertex, color)
assignment; a strand is an ordered run of such assignments, rendered to
nucleotides by concatenating its codewords in token order.  Substring-based
extraction is only trustworthy when no codeword can occur in a rendered strand
anywhere except at a codeword boundary, so codebooks carry a junction validator
and generated codebooks are rejection-sampled against it.  The validator looks
only at pairs of codewords; validate_codebook says why that is enough.

A generated table that is unlikely to hold a crossing is not sampled word by
word: its first n * k candidates are validated whole, and if they pass they
are the table, its report cached.  generate_codebook gives the bound and why
the output is the same bytes either way.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from collections import namedtuple
from operator import itemgetter, ne

DNA_BASES = "ACGT"

# A token is one (vertex, color) assignment; a strand is a tuple of tokens in
# append order with at most one token per vertex.  Plain tuples keep strands
# hashable; inside a TubeMachine each is a field of a run (see frames.py).
Token = tuple[int, int]
Strand = tuple[Token, ...]
BLANK_STRAND: Strand = ()

GENERATION_ATTEMPTS = 10_000
MAX_GENERATED_LENGTH = 1000  # admission is quadratic in the length
# Generation's junction index takes about length * (length + 300) bytes per
# codeword; a table whose index would pass this many bytes is refused.
MAX_GENERATED_INDEX_BYTES = 1 << 29
# Generation draws DRAWN_WORDS * length 32-bit words at a time, about
# DRAWN_WORDS / 2 candidates, and reads a base from each word's top byte b:
# DNA_BASES[b >> 5], its top 3 bits, or none when b >> 5 is 4 or more.
DRAWN_WORDS = 64
_BASE_OF_TOP_BYTE = bytes(ord(DNA_BASES[b >> 5]) for b in range(128)) + bytes(128)
_REJECTED_TOP_BYTES = bytes(range(128, 256))
# Generation validates its first draw whole when N = n * k uniform words of
# length L are expected to hold fewer than 1 / FIRST_DRAW_ODDS crossings,
# N**3 * (L - 1) * 4**-L (see generate_codebook); the test is in integers.
FIRST_DRAW_ODDS = 16
# The most bits of an int written in digits: str refuses one of over 4,300
# digits (about 14,284 bits), so a longer one is named, not written.
STR_BITS = 14_000


class CodecError(ValueError):
    pass


def _show(value) -> str:
    """repr(value) for a refusal message, but an int past STR_BITS is named by its bit length.

    A count computed from a request, or a document built in process, can
    hold such an int anywhere.  Lists, tuples and dicts are shown item by
    item, as repr shows them.
    """
    if isinstance(value, int) and value.bit_length() > STR_BITS:
        return f"{'-' if value < 0 else ''}<int of {value.bit_length()} bits>"
    if value.__class__ is dict:
        return "{" + ", ".join(f"{_show(key)}: {_show(item)}" for key, item in value.items()) + "}"
    if value.__class__ in (list, tuple):
        items = ", ".join(map(_show, value))
        return f"[{items}]" if value.__class__ is list else f"({items}{',' * (len(value) == 1)})"
    return repr(value)


class DecodeError(CodecError):
    pass


class GenerationError(CodecError):
    pass


class SoundnessError(CodecError):
    """An operation that relies on junction safety was given an unvalidated codebook."""


def color_name(c: int) -> str:
    return ("red", "green", "blue")[c] if 0 <= c < 3 else f"color{c}"


def check_dna(seq: str) -> None:
    if not seq:
        raise CodecError("empty codeword sequence")
    bad = set(seq) - set(DNA_BASES)
    if bad:
        raise CodecError(f"non-DNA characters {sorted(bad)} in {seq!r}")


Codeword = namedtuple("Codeword", "vertex color sequence")


def _check_shape(n: int, k: int) -> None:
    if n < 0:
        raise CodecError(f"vertex count must be non-negative, got {n}")
    if k < 1:
        raise CodecError(f"color count must be positive, got {k}")


class JunctionViolation(namedtuple("JunctionViolation", "word left right offset")):
    """Codeword `word` occurs in left.sequence + right.sequence at a misaligned offset."""

    __slots__ = ()


class ValidationReport(namedtuple("ValidationReport", "duplicates junction_violations sequences")):
    """What validate_codebook found; `sequences` is left out of the repr."""

    def __repr__(self) -> str:
        return f"ValidationReport(duplicates={self.duplicates!r}, junction_violations={self.junction_violations!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of a ValidationReport")

    @property
    def ok(self) -> bool:
        return not self.duplicates and not self.junction_violations

    @functools.cached_property
    def min_pairwise_hamming(self) -> int | None:
        """The least Hamming distance between two sequences of one length (None if none share one), worked out on first read."""
        by_length: dict[int, list[str]] = {}
        for seq in self.sequences:
            by_length.setdefault(len(seq), []).append(seq)
        least = None
        for length, words in by_length.items():
            if len(words) > 1:
                found = _least_hamming(words, length, length + 1 if least is None else least)
                least = found if least is None else min(least, found)
        return least


def _least_hamming(words: list[str], length: int, cap: int) -> int:
    """The least Hamming distance between two of `words`, all `length` long, or min(length, cap) if none is below that.

    Two words within distance d agree on one of any d + 1 disjoint blocks
    that cut them (pigeonhole).  So for d = 0, 1, ... the words are bucketed
    by each block and only words that share a bucket are compared; every pair
    within d is compared in round d, so the first round that finds one has
    found the least distance.  Words that agree nowhere are `length` apart.
    """
    for d in range(min(length, cap)):
        cuts = [length * b // (d + 1) for b in range(d + 2)]
        least = cap
        for lo, hi in zip(cuts, cuts[1:]):
            buckets: dict[str, list[str]] = {}
            for word in words:
                buckets.setdefault(word[lo:hi], []).append(word)
            for bucket in buckets.values():
                if len(bucket) > 1:
                    least = min(least, *(sum(map(ne, a, b)) for a, b in itertools.combinations(bucket, 2)))
        if least <= d:
            return least
    return min(length, cap)


class Codebook:
    """Total (vertex, color) -> Codeword table for n vertices and k colors.

    Treated as immutable after construction; validation results are cached on
    first use.  Construction checks each entry's kinds (an int vertex and
    color, a bool not counted, and a str sequence), then coverage, the DNA
    alphabet and, when a length is declared, that every sequence has it;
    distinctness and junction safety are the validator's business, so that
    a deliberately broken codebook can still be built and reported on.

    The table is the one link between tokens and bases: `_table` maps each
    token to its Codeword, and `_tokens`, the one reverse map, each sequence
    to its token.  A sequence held twice keeps one token in `_tokens`, so
    only a validated table's map is read (by decode_strand and a nucleotide
    TubeMachine's extract).
    """

    def __init__(self, n: int, k: int, entries, provenance: str, length: int | None = None):
        _check_shape(n, k)
        table: dict[Token, Codeword] = {}
        for cw in entries:
            if not (cw.vertex.__class__ is cw.color.__class__ is int and isinstance(cw.sequence, str)):  # a bool is no int
                raise CodecError(f"entry {_show(tuple(cw))} needs an int vertex, an int color and a str sequence")
            if not (1 <= cw.vertex <= n) or not (0 <= cw.color < k):
                raise CodecError(f"entry ({cw.vertex},{cw.color}) outside {n} vertices x {k} colors")
            check_dna(cw.sequence)
            if length is not None and len(cw.sequence) != length:
                raise CodecError(
                    f"entry ({cw.vertex},{cw.color}) has {len(cw.sequence)} bases, not the codebook's length {_show(length)}"
                )
            if (cw.vertex, cw.color) in table:
                raise CodecError(f"two entries for vertex {cw.vertex}, color {cw.color}")
            table[(cw.vertex, cw.color)] = cw
        if len(table) != n * k:
            raise CodecError(f"codebook has {len(table)} entries, needs {_show(n * k)}")
        self.n = n
        self.k = k
        self.provenance = provenance
        self.length = length
        self._table = table
        self._tokens = {cw.sequence: key for key, cw in table.items()}  # bases -> token
        self._validation: ValidationReport | None = None

    def codeword(self, vertex: int, color: int) -> Codeword:
        try:
            return self._table[(vertex, color)]
        except KeyError:
            raise CodecError(f"no codeword for vertex {vertex}, color {color}") from None

    def codewords(self) -> list[Codeword]:
        return [self._table[key] for key in sorted(self._table)]

    def validation(self) -> ValidationReport:
        if self._validation is None:
            self._validation = validate_codebook(self)
        return self._validation

    def __repr__(self):
        return f"Codebook(n={self.n}, k={self.k}, provenance={self.provenance!r})"


def validate_codebook(cb: Codebook) -> ValidationReport:
    """Duplicate and junction report, every witness listed.

    A junction violation is an occurrence of a codeword w in x + y, for any
    codewords x and y (x = y included), other than as exactly x or exactly y.
    The witnesses are listed in (w, x, y, offset) order.

    Pairs are enough: an occurrence of w in a rendered strand that touches
    three or more codewords covers some whole codeword z shorter than w, and
    z inside w is already a violation.  So a codebook that passes has every
    occurrence of w inside two adjacent codewords, as exactly one of them,
    and nucleotide extract agrees with token membership on every strand,
    whatever the mix of codeword lengths.

    Crossings are found from the words' shared half-affixes.  w crosses the
    junction of x + y with its first j bases in x exactly when x ends with
    w[:j] and y starts with w[j:], and one of those two sides has at least
    half of w's bases.  So every crossing has a long side that is both a
    prefix and a suffix of some words, of one size j from half the shortest
    word up.  Per size, the j-base prefixes of all words are met with their
    j-base suffixes in one set intersection; when no size shares a string
    there is no crossing, and nothing more is cut.  Otherwise only the cuts
    whose long side is shared are kept, and the words that end (start) with
    the cuts' two sides are looked up, keyed by just those strings.  A word
    wholly inside a longer word z is found by looking each substring of z,
    of each shorter word length, up among the whole words.

    Each step maps over the words once per size, in C, or loops over what
    it found: O(total length * distinct lengths) slices and lookups, plus
    one entry per witness listed, and no step visits a pair of codewords.
    Memory is one size's prefixes and suffixes at a time, the kept cuts and
    their keys, and the witnesses: linear in the total length when the
    report is short.
    """
    words = cb.codewords()
    seqs = [cw.sequence for cw in words]
    whole: dict[str, list[int]] = {}
    for pos, seq in enumerate(seqs):
        whole.setdefault(seq, []).append(pos)
    same = sorted(pair for group in whole.values() for pair in itertools.combinations(group, 2))
    duplicates = tuple((words[i], words[j]) for i, j in same)
    violations = tuple(
        JunctionViolation(words[w], words[x], words[y], off) for w, x, y, off in _witnesses(seqs, whole)
    )
    return ValidationReport(duplicates, violations, tuple(seqs))


def _witnesses(words: list[str], whole: dict[str, list[int]]) -> list[tuple[int, int, int, int]]:
    """Every violation as sorted (w, x, y, offset) positions in words; whole maps each word to its positions."""
    lengths = sorted({len(word) for word in whole}) or [0]
    everyone = range(len(words))
    sizes = range((lengths[0] + 1) // 2, lengths[-1])  # the long sides' sizes, for every word length

    def prefixes(j):
        return list(map(itemgetter(slice(j)), words))

    def suffixes(j):
        return list(map(itemgetter(slice(-j, None)), words))

    def held(table, keys):
        """The positions whose key is in table."""
        return itertools.compress(everyone, map(table.__contains__, keys))

    shared = set()
    for j in sizes:
        shared.update(set(prefixes(j)).intersection(suffixes(j)))
    found = []
    if shared:
        cuts = []  # (w, j): w crosses where some x ends with w[:j] and some y starts with w[j:]
        for j in sizes:  # the long side is w[:j] when j < len(w) <= 2j, or w[-j:] when j < len(w) < 2j
            cuts += [(w, j) for w in held(shared, prefixes(j)) if j < len(words[w]) <= 2 * j]
            cuts += [(w, len(words[w]) - j) for w in held(shared, suffixes(j)) if j < len(words[w]) < 2 * j]
        ends = {words[w][:j]: [] for w, j in cuts}
        starts = {words[w][j:]: [] for w, j in cuts}
        for table, affixes in ((ends, suffixes), (starts, prefixes)):
            for j in {len(key) for key in table}:
                keys = affixes(j)
                for x in held(table, keys):
                    if len(words[x]) >= j:  # a shorter word's affix is the word, met at its own size
                        table[keys[x]].append(x)
        found = [
            (w, x, y, len(words[x]) - j) for w, j in cuts for x in ends[words[w][:j]] for y in starts[words[w][j:]]
        ]
    for z, other in enumerate(words):  # wholly inside z, as x or as y of every pair
        for size in lengths:
            if size >= len(other):
                break
            for off in range(len(other) - size + 1):
                for w in whole.get(other[off : off + size], ()):
                    found += [(w, z, y, off) for y in everyone]
                    found += [(w, x, z, len(words[x]) + off) for x in everyone]
    found.sort()
    return found


class _JunctionIndex:
    """Prefix/suffix index that generation admits words into one at a time.

    Word w occurs across the junction of x + y with its first j bases in x
    (0 < j < len(w)) exactly when x ends with w[:j] and y starts with w[j:],
    so the x and y of such an occurrence are looked up independently, as a
    suffix and a prefix.  Whole words are keys too: w = x + y[:1] at offset 0
    crosses the junction just as any other offset does.

    Besides the two maps, add keeps, for admits, the two sets of affixes a
    candidate may not have:
    - x-role tails: each proper prefix w[:i] of a word whose rest w[i:]
      starts some word;
    - y-role heads: each proper suffix w[i:] of a word whose rest w[:i]
      ends some word.
    add() keeps them current with two lookups per cut of the new word: its
    own affixes are looked up, and a prefix (suffix) no word had before adds
    the matching affix of every word ending (starting) with it.  Each new
    prefix or suffix is met once, so the upkeep is amortised O(total length).
    Validation does not use the index: validate_codebook needs no map of
    every affix.
    """

    def __init__(self):
        self.words: list[str] = []
        self.ends: dict[str, list[int]] = {}  # s: positions of the words ending with s
        self.starts: dict[str, list[int]] = {}  # s: positions of the words starting with s
        self.x_tails: set[str] = set()
        self.y_heads: set[str] = set()

    def add(self, word: str) -> None:
        pos = len(self.words)
        words, ends, starts, x_tails, y_heads = self.words, self.ends, self.starts, self.x_tails, self.y_heads
        words.append(word)
        for j in range(1, len(word) + 1):
            head, tail = word[:j], word[-j:]
            heads, tails = starts.setdefault(head, []), ends.setdefault(tail, [])
            heads.append(pos)
            tails.append(pos)
            # Both affixes of length j are indexed now, so head in ends and tail
            # in starts are final: no later affix of this word has length j.
            if head in ends:
                if j < len(word):
                    y_heads.add(word[j:])
                if len(heads) == 1:  # a new prefix: the words ending with it gain a tail
                    x_tails.update(words[w][:-j] for w in ends[head] if len(words[w]) > j)
            if tail in starts:
                if j < len(word):
                    x_tails.add(word[:-j])
                if len(tails) == 1:  # a new suffix: the words starting with it gain a head
                    y_heads.update(words[w][j:] for w in starts[tail] if len(words[w]) > j)

    def admits(self, cand: str) -> bool:
        """Whether cand joins the words without a duplicate or a crossing violation.

        Only violations with cand in some role are looked for (the words are
        taken as safe among themselves), x and y ranging over the words and
        cand, with O(len(cand)) lookups.  This is exact when all the words
        have cand's length, as in generate_codebook: an occurrence wholly
        inside one word is then a duplicate.
        """
        ends, starts, x_tails, y_heads = self.ends, self.starts, self.x_tails, self.y_heads
        if cand in starts:
            return False
        for j in range(1, len(cand)):
            head, tail = cand[:j], cand[j:]
            # cand as w: its head ends some x and its tail starts some y.
            if (head in ends or cand.endswith(head)) and (tail in starts or cand.startswith(tail)):
                return False
            # cand as x: a word w starting with cand's tail whose rest starts
            # some y; cand as y, the mirror image.  y (or x) = cand needs no
            # lookup: w would be a rotation of cand, caught as cand in w + w.
            if tail in x_tails or head in y_heads:
                return False
        return True


def _candidates(rng: random.Random, length: int):
    """Candidate words of `length` bases, endlessly, from rng's base stream in order.

    Each base is what rng.choice(DNA_BASES) would give: choice keeps the top
    3 bits of one 32-bit Mersenne Twister output, retried while they are 4 or
    more, and getrandbits(32 * m) is m such outputs in order, lowest first.
    So the top byte of each little-endian word, with bytes of 0x80 and up
    dropped, is the same stream of bases, and a bytes.translate turns a bulk
    draw into them with no Python call per base.  How the stream is cut into
    draws changes no base, and the rng is local, so bases drawn ahead and
    never used change no word.
    """
    pool, at = "", 0
    while True:
        while at + length > len(pool):
            draws = rng.getrandbits(32 * DRAWN_WORDS * length).to_bytes(4 * DRAWN_WORDS * length, "little")
            pool = pool[at:] + draws[3::4].translate(_BASE_OF_TOP_BYTE, _REJECTED_TOP_BYTES).decode("ascii")
            at = 0
        yield pool[at : at + length]
        at += length


def _admit_word_by_word(count: int, length: int, seed: int) -> list[str]:
    """The first `count` candidates from seed that a _JunctionIndex admits, each in turn.

    A slot that sees GENERATION_ATTEMPTS candidates refused raises
    GenerationError.  Admission is O(length) lookups and add amortised
    O(length), so the cost is linear in count.
    """
    index = _JunctionIndex()
    candidates = _candidates(random.Random(seed), length)
    for _slot in range(count):
        for cand in itertools.islice(candidates, GENERATION_ATTEMPTS):
            if index.admits(cand):
                index.add(cand)
                break
        else:
            raise GenerationError(
                f"gave up on codeword {len(index.words) + 1} after "
                f"{GENERATION_ATTEMPTS} attempts; try a longer length"
            )
    return index.words


def generate_codebook(n: int, k: int, length: int, seed: int) -> Codebook:
    """Seeded uniform-length codebook that passes validation by construction.

    Codewords fill the (vertex, color) slots in vertex-major order, each the
    next candidate from the seed's base stream (see _candidates) that a
    _JunctionIndex admits, rejection-resampled until one is.  The draw order
    is fixed, so equal arguments give bit-identical codebooks on any
    platform.

    When a violation among the first N = n * k candidates is unlikely, they
    are taken whole instead: the table is built from them and validated
    once, and if the report is ok it is returned with the report cached, so
    cb.validation() and TubeMachine(cb) cost nothing more.  Each of the
    N**3 * (L - 1) triples (w, x, y, misaligned offset) of N uniform words of
    length L holds w at that offset of x + y with chance about 4**-L, so
    about N**3 * (L - 1) * 4**-L crossings are expected; duplicates, N**2 / 2
    pairs at 4**-L each, are fewer.  The first draw is tried when that is
    under 1 / FIRST_DRAW_ODDS, so a failed validation, paid on top of the
    word-by-word loop, is rare; over it, the loop runs alone and large
    tables pay no validation.  The output is the same bytes either way:
    admits is exact at uniform length, and every violation among some of
    the words is one among all of them, so a set with no duplicate and no
    crossing is admitted word by word, each on its first draw and in draw
    order.

    A length outside 4..MAX_GENERATED_LENGTH, or a table whose index would
    pass MAX_GENERATED_INDEX_BYTES, raises CodecError before anything is
    drawn, as does a negative n or a k under 1.
    """
    if length < 4:
        raise CodecError(f"codeword length must be at least 4, got {length}")
    if length > MAX_GENERATED_LENGTH:
        raise CodecError(f"codeword length must be at most {MAX_GENERATED_LENGTH}, got {length}")
    size = n * k * length * (length + 300)
    if size > MAX_GENERATED_INDEX_BYTES:
        raise CodecError(
            f"{_show(n * k)} codewords of {length} nt need about {_show(size)} bytes to generate, "
            f"over the limit of {MAX_GENERATED_INDEX_BYTES}"
        )
    _check_shape(n, k)
    count = n * k
    if _first_draw_fits(count, length):
        cb = _generated(n, k, length, seed, itertools.islice(_candidates(random.Random(seed), length), count))
        if cb.validation().ok:
            return cb
    return _generated(n, k, length, seed, _admit_word_by_word(count, length, seed))


def _first_draw_fits(count: int, length: int) -> bool:
    """Whether count uniform words of length are expected to hold under 1 / FIRST_DRAW_ODDS crossings."""
    return count**3 * (length - 1) * FIRST_DRAW_ODDS < 4**length


def _generated(n: int, k: int, length: int, seed: int, words) -> Codebook:
    slots = ((v, c) for v in range(1, n + 1) for c in range(k))  # lazily: an empty table's k may pass what a tuple holds
    entries = [Codeword(v, c, seq) for (v, c), seq in zip(slots, words)]
    return Codebook(
        n, k, entries,
        provenance=f"generated(seed={seed}, length={length})",
        length=length,
    )


@functools.cache
def builtin_table1() -> Codebook:
    """The built-in 12-vertex, 3-color codebook (shared instance).

    Sequences are stored verbatim, irregular row lengths included; nothing is
    normalized on load.
    """
    from importlib import resources

    data = json.loads(resources.files("helix").joinpath("table1.json").read_text(encoding="utf-8"))
    return codebook_from_json(data)


def codebook_to_json(cb: Codebook) -> dict:
    return {
        "n": cb.n,
        "k": cb.k,
        "length": cb.length,
        "provenance": cb.provenance,
        "entries": [
            {"vertex": cw.vertex, "color": cw.color, "sequence": cw.sequence}
            for cw in cb.codewords()
        ],
    }


def _json_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise CodecError(f"codebook field {field!r} must be an integer, got {value!r}")
    return value


def codebook_from_json(data) -> Codebook:
    if not isinstance(data, dict):
        raise CodecError("codebook document must be a JSON object")
    missing = {"n", "k", "entries"} - data.keys()
    if missing:
        raise CodecError(f"codebook document missing fields: {sorted(missing)}")
    try:
        entries = [
            Codeword(
                _json_int(e["vertex"], "vertex"),
                _json_int(e["color"], "color"),
                str(e["sequence"]),
            )
            for e in data["entries"]
        ]
    except (KeyError, TypeError) as exc:
        raise CodecError(f"malformed codebook entry: {exc}") from None
    length = data.get("length")
    return Codebook(
        _json_int(data["n"], "n"), _json_int(data["k"], "k"), entries,
        provenance=str(data.get("provenance", "file")),
        length=None if length is None else _json_int(length, "length"),
    )


def dump_codebook(cb: Codebook) -> str:
    """Canonical serialization: entry order and layout are deterministic."""
    return json.dumps(codebook_to_json(cb), indent=2) + "\n"


def load_codebook(path) -> Codebook:
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    return codebook_from_json(data)


def _pairs(tokens, kinds: type | tuple = tuple):
    """The tokens, or a TypeError that names the first that is not a (vertex, color) pair of one of `kinds`."""
    for token in tokens:
        if not (isinstance(token, kinds) and len(token) == 2):
            raise TypeError(f"a token must be a (vertex, color) pair, got {_show(token)}")
    return tokens


def render(strand: Strand, cb: Codebook) -> str:
    """The strand's bases: its tokens' codewords, in order.

    A token is a (vertex, color) tuple or list; one that is not is a
    TypeError that names it.  The tokens are checked only once the one
    expression has failed, so a good strand pays nothing for the check.
    """
    try:
        return "".join([cb.codeword(v, c).sequence for v, c in strand])
    except (TypeError, ValueError):  # a CodecError is a ValueError
        _pairs(strand, (tuple, list))
        raise


def decode_strand(seq: str, cb: Codebook) -> Strand:
    """Greedy left-to-right segmentation of a rendered strand back into tokens.

    Requires a codebook that passed validation; on a safe codebook this is a
    total inverse of render.  Longer codewords are tried first at each
    position, which makes the greedy choice deterministic even for codebooks
    with mixed lengths.
    """
    if not cb.validation().ok:
        raise SoundnessError("decode refused: codebook failed validation")
    lengths = sorted({len(s) for s in cb._tokens}, reverse=True)
    tokens = []
    pos = 0
    while pos < len(seq):
        for length in lengths:
            token = cb._tokens.get(seq[pos : pos + length])
            if token is not None:
                tokens.append(token)
                pos += length
                break
        else:
            raise DecodeError(f"no codeword matches at position {pos}")
    return tuple(tokens)


def coloring_from_strand(strand: Strand, n: int) -> tuple[int, ...]:
    """Re-index a strand covering all of 1..n to a color tuple in vertex order."""
    out: list[int | None] = [None] * n
    for v, c in strand:
        if not (1 <= v <= n):
            raise DecodeError(f"strand names vertex {v}, graph has 1..{n}")
        if out[v - 1] is not None:
            raise DecodeError(f"strand assigns vertex {v} twice")
        out[v - 1] = c
    if any(c is None for c in out):
        missing = [v + 1 for v, c in enumerate(out) if c is None]
        raise DecodeError(f"strand misses vertices {missing}")
    return tuple(out)  # type: ignore[arg-type]
