"""DNA codewords and strand encoding.

A codeword is the fixed base sequence that stands for one (vertex, color)
assignment; a strand is an ordered run of such assignments, rendered to
nucleotides by concatenating its codewords in token order.  Substring-based
extraction is only trustworthy when no codeword can occur in a rendered strand
anywhere except at a codeword boundary, so codebooks carry a junction validator
and generated codebooks are rejection-sampled against it.  The validator's rule
is exact for uniform-length codebooks (every misaligned occurrence spans at
most one junction); see validate_codebook for the fine print.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass
from importlib import resources

DNA_BASES = "ACGT"

# A token is one (vertex, color) assignment; a strand is a tuple of tokens in
# append order with at most one token per vertex.  Plain tuples keep strands
# hashable; inside a TubeMachine they are packed to ints (see machine.py).
Token = tuple[int, int]
Strand = tuple[Token, ...]
BLANK_STRAND: Strand = ()

GENERATION_ATTEMPTS = 10_000


class CodecError(ValueError):
    pass


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


@dataclass(frozen=True)
class Codeword:
    vertex: int
    color: int
    sequence: str


@dataclass(frozen=True)
class JunctionViolation:
    """Codeword `word` occurs in left.sequence + right.sequence at a misaligned offset."""

    word: Codeword
    left: Codeword
    right: Codeword
    offset: int


@dataclass(frozen=True)
class ValidationReport:
    duplicates: tuple[tuple[Codeword, Codeword], ...]
    junction_violations: tuple[JunctionViolation, ...]
    min_pairwise_hamming: int | None

    @property
    def ok(self) -> bool:
        return not self.duplicates and not self.junction_violations


class Codebook:
    """Total (vertex, color) -> Codeword table for n vertices and k colors.

    Treated as immutable after construction; validation results are cached on
    first use.  Construction checks coverage and the DNA alphabet only;
    distinctness and junction safety are the validator's business, so that a
    deliberately broken codebook can still be built and reported on.
    """

    def __init__(self, n: int, k: int, entries, provenance: str, length: int | None = None):
        if n < 0:
            raise CodecError(f"vertex count must be non-negative, got {n}")
        if k < 1:
            raise CodecError(f"color count must be positive, got {k}")
        table: dict[Token, Codeword] = {}
        for cw in entries:
            if not (1 <= cw.vertex <= n) or not (0 <= cw.color < k):
                raise CodecError(f"entry ({cw.vertex},{cw.color}) outside {n} vertices x {k} colors")
            check_dna(cw.sequence)
            if (cw.vertex, cw.color) in table:
                raise CodecError(f"two entries for vertex {cw.vertex}, color {cw.color}")
            table[(cw.vertex, cw.color)] = cw
        if len(table) != n * k:
            raise CodecError(f"codebook has {len(table)} entries, needs {n * k}")
        self.n = n
        self.k = k
        self.provenance = provenance
        self.length = length
        self._table = table
        self._sequences = {key: cw.sequence for key, cw in table.items()}  # render's fast path
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


def _occurrences(haystack: str, needle: str):
    """All (possibly overlapping) offsets of needle in haystack."""
    start = haystack.find(needle)
    while start != -1:
        yield start
        start = haystack.find(needle, start + 1)


def validate_codebook(cb: Codebook) -> ValidationReport:
    """Exhaustive duplicate and junction report.

    A junction violation is any occurrence of a codeword inside the
    concatenation x + y of two codewords (all ordered pairs, x = y included)
    at an offset other than 0 or len(x), i.e. not aligned to the junction's
    codeword boundaries.  Every witness is reported, not just the first.
    """
    words = cb.codewords()
    pairs = list(itertools.combinations(words, 2))
    duplicates = tuple((a, b) for a, b in pairs if a.sequence == b.sequence)
    violations = []
    for w in words:
        for x in words:
            concat_left = x.sequence
            boundary = len(concat_left)
            for y in words:
                concat = concat_left + y.sequence
                for off in _occurrences(concat, w.sequence):
                    if off != 0 and off != boundary:
                        violations.append(JunctionViolation(w, x, y, off))
    min_hamming = min(
        (
            sum(p != q for p, q in zip(a.sequence, b.sequence))
            for a, b in pairs
            if len(a.sequence) == len(b.sequence)
        ),
        default=None,
    )
    return ValidationReport(duplicates, tuple(violations), min_hamming)


class _JunctionIndex:
    """Prefix/suffix index over accepted words of one length L, for generation.

    A word w occurs in x + y at a misaligned offset off (0 < off < L) exactly
    when x[off:] == w[:L-off] and y[:off] == w[L-off:], so the x and y of a
    violation can be looked up independently, as a suffix and a prefix.  A
    candidate's check is then O(L) set lookups instead of a scan over every
    pair of the pool.
    """

    def __init__(self, length: int):
        self.length = length
        self.words: set[str] = set()
        self.by_head = [{} for _ in range(length)]  # [i]: {w[:i]: {w[i:], ...}}
        self.by_tail = [{} for _ in range(length)]  # [i]: {w[i:]: {w[:i], ...}}

    def add(self, word: str) -> None:
        self.words.add(word)
        for i in range(1, self.length):
            head, tail = word[:i], word[i:]
            self.by_head[i].setdefault(head, set()).add(tail)
            self.by_tail[i].setdefault(tail, set()).add(head)

    def admits(self, cand: str) -> bool:
        """Whether cand extends the words without a duplicate or a junction violation.

        Only violations with cand in some role are looked for (the words are
        taken as already safe among themselves), and the pool that x and y
        range over is the words plus cand itself.
        """
        if cand in self.words:
            return False
        length = self.length
        for off in range(1, length):
            cut = length - off
            head, tail = cand[:off], cand[off:]  # cand as y gives y[:off], as x gives x[off:]
            prefixes, suffixes = self.by_head[off], self.by_tail[off]  # keyed by every w[:off], w[off:]
            # cand as w: its first cut bases end some x, the rest start some y.
            left, right = cand[:cut], cand[cut:]
            if (left == tail or left in suffixes) and (right == head or right in prefixes):
                return False
            # cand as x (or y): a word w with w[:cut] == cand[off:] whose rest
            # starts some word (w[cut:] == cand[:off] whose start ends some
            # word).  That other word need not be tried as cand itself: w would
            # then be a rotation of cand, and cand inside w + w is caught above.
            tails = self.by_head[cut].get(tail)
            if tails and not prefixes.keys().isdisjoint(tails):
                return False
            heads = self.by_tail[cut].get(head)
            if heads and not suffixes.keys().isdisjoint(heads):
                return False
        return True


def generate_codebook(n: int, k: int, length: int, seed: int) -> Codebook:
    """Seeded uniform-length codebook that passes validation by construction.

    Codewords are drawn one (vertex, color) slot at a time in vertex-major
    order and rejection-resampled until they extend the accepted set without
    duplicates or junction violations, looked up in a _JunctionIndex rather
    than by validate_codebook's exhaustive scan.  The draw order is fixed, so
    equal arguments give bit-identical codebooks on any platform.
    """
    if length < 4:
        raise CodecError(f"codeword length must be at least 4, got {length}")
    rng = random.Random(seed)
    accepted: list[str] = []
    index = _JunctionIndex(length)
    for _slot in range(n * k):  # a bad n or k is refused by Codebook below
        for _attempt in range(GENERATION_ATTEMPTS):
            cand = "".join(rng.choice(DNA_BASES) for _ in range(length))
            if index.admits(cand):
                accepted.append(cand)
                index.add(cand)
                break
        else:
            raise GenerationError(
                f"gave up on codeword {len(accepted) + 1} after "
                f"{GENERATION_ATTEMPTS} attempts; try a longer length"
            )
    entries = [
        Codeword(v, c, accepted[(v - 1) * k + c])
        for v in range(1, n + 1)
        for c in range(k)
    ]
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
    data = json.loads(resources.files("helix").joinpath("table1.json").read_text())
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


def save_codebook(cb: Codebook, path) -> None:
    with open(path, "w") as f:
        f.write(dump_codebook(cb))


def load_codebook(path) -> Codebook:
    with open(path) as f:
        data = json.load(f)
    return codebook_from_json(data)


def encode_assignment(cb: Codebook, coloring) -> Strand:
    """Map {vertex: color} over exactly 1..i to the strand ((1,c1), ..., (i,ci))."""
    vertices = sorted(coloring)
    if vertices != list(range(1, len(vertices) + 1)):
        raise CodecError(f"assignment must cover exactly 1..i, got vertices {vertices}")
    tokens = []
    for v in vertices:
        c = coloring[v]
        cb.codeword(v, c)  # existence check doubles as the range check
        tokens.append((v, c))
    return tuple(tokens)


def render(strand: Strand, cb: Codebook) -> str:
    try:
        return "".join(map(cb._sequences.__getitem__, strand))
    except (KeyError, TypeError):  # a token outside the codebook, or not a hashable pair
        return "".join(cb.codeword(v, c).sequence for v, c in strand)


def decode_strand(seq: str, cb: Codebook) -> Strand:
    """Greedy left-to-right segmentation of a rendered strand back into tokens.

    Requires a codebook that passed validation; on a safe codebook this is a
    total inverse of render.  Longer codewords are tried first at each
    position, which makes the greedy choice deterministic even for codebooks
    with mixed lengths.
    """
    if not cb.validation().ok:
        raise SoundnessError("decode refused: codebook failed validation")
    by_seq = {cw.sequence: cw for cw in cb.codewords()}
    lengths = sorted({len(s) for s in by_seq}, reverse=True)
    tokens = []
    pos = 0
    while pos < len(seq):
        for length in lengths:
            cw = by_seq.get(seq[pos : pos + length])
            if cw is not None:
                tokens.append((cw.vertex, cw.color))
                pos += length
                break
        else:
            raise DecodeError(f"no codeword matches at position {pos}")
    return tuple(tokens)


def strand_from_coloring(colors) -> Strand:
    """Full assignment (c1, ..., cn) as a strand in natural vertex order."""
    return tuple((v, c) for v, c in enumerate(colors, start=1))


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
