"""Simulated test-tube bench: labeled strand multisets and the six operations.

A TubeMachine hands out tubes and performs Append, Copy, Merge, Extract,
Detect, and Discard on them, charging one counter tick per call.  As in the
Adleman-Lipton model, one session fixes one extraction chemistry: a machine
built with a codebook extracts on nucleotides, one built without extracts on
tokens, and extract itself takes only the tube and the codeword.  Tubes hold
multisets of symbolic strands either way; the tokens are the ground truth the
simulator reasons about, and a codeword's base sequence only ever decides
membership, all of which keeps the two kinds of machine comparable strand for
strand.

Physical accounting: Copy pours the source out into its copies (the source
ends empty), Merge pours sources into the destination, Extract pours the
source into its two output tubes, and Discard retires a tube for good.  The
machine tracks the total strand count across live tubes after every operation;
the high-water mark is the run's peak tube size.

Packed strands: in a list tube every strand is one Python int, in the spirit
of the sticker model's memory strands (Roweis et al., J. Comput. Biol. 5(4),
1998).  The low ORDER_BITS bits hold an order id, an index into the machine's
table of vertex sequences, so a strand remembers the order its tokens were
appended in.  Above them sits one bit per (vertex, color) token: token i,
the i-th the machine has seen, is bit ORDER_BITS + i.  Symbolic extract is
then `s & bit`, append moves every strand to the order id of its sequence
plus the new vertex by adding one delta per order id, and equal strands are
equal ints.
Tube.contents unpacks to token tuples in append order through a plan of
(vertex mask, {masked bits: token}) pairs per order id, built on each unpack
from the tokens registered so far, so there is no cache to keep in step.
Tube.colors, the final decode, reads the colors of several vertices with one
lookup: a table per run of vertices, from the product of their color rows,
keyed by the strand's bits under their joint mask.  A table of more than one
vertex holds at most one entry per TABLE_SHARE strands.

Product tubes: the monolithic start tube, new_tube(rows=...), holds no ints.
It is a membership mask over the product of its rows: strand i of
itertools.product(*rows) is in the tube iff bit i of the mask is set.  This is
the sticker layout sliced by column: a token's column is the mask of the
strands that hold it, so symbolic extract is one big-int AND
(`hit = mask & column`, rest `mask ^ hit`), copy shares the mask, and len,
detect and discard count its bits.  Merge ORs the masks when every non-empty
input is over the same product and no strand is in two of them, which gives
product order; otherwise, as with two copies of one tube, it concatenates
lists so that repeated strands stay repeated.  Every other use (append,
nucleotide extract, contents, colors, Tube.packed) materializes the mask once,
in product order, and the tube is an ordinary list tube from then on.  A mask
with few bits set is decoded from the mixed-radix index of each set bit, a
dense one by walking the product.  Only rows= builds a mask: a mask over
k**i strands for a tube that grows by append would bring back the blow-up
the incremental engine avoids.

Frames: on a symbolic machine a tube whose strands all share one vertex order
is a frame (see frames.py), one big int of fixed-width fields, so extract,
append and copy are a few whole-tube big-int operations.  Merge of frames of
one order joins them in order, laid out when first read, so a merged tube
that is discarded unread, like the solver's bad tubes, is never laid out.
Any other mix of forms, and Tube.packed, turns frames into list tubes; a
nucleotide machine keeps no frames.

Rendered bases: on a nucleotide machine a list tube keeps each strand's bases
under the codebook in `bases`, next to `packed`.  new_tube renders them from
the bits through one (vertex mask, {bit: sequence}) row per vertex; append
extends every string by the codeword, copies share the list (never changed in
place), extract tests `seq in b` and partitions it alongside `packed`, and
merge chains the lists, so the incremental engine renders each strand once.
A tube made from rows= (the monolithic start tube and its descendants) keeps
none, and its strands are rendered as a stream at each extract, since holding
the bases of k**n full-length strands would multiply its memory.  So does a
tube holding a token the codebook lacks, whose first extract raises the
CodecError that names it.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, filterfalse, product, repeat
from math import prod
from operator import add, itemgetter, not_

from . import frames
from .codec import Codebook, CodecError, Codeword, SoundnessError, Strand, Token, render
from .frames import Frame, tile

ORDER_BITS = 32
ORDER_MASK = (1 << ORDER_BITS) - 1
_DIGIT = bytes.maketrans(b"01", b"\x00\x01")  # a mask's binary digits as 0/1 bytes
TABLE_SHARE = 8  # the color decode builds at most one table entry per this many strands


def _packed_place(i: int) -> int:
    """The bit of token i in a packed strand."""
    return ORDER_BITS + i


class _Product:
    """The strands of itertools.product(*rows), numbered in product order.

    `rows` are the rows' token bits with the order id added to the first row,
    so strand i is the sum of its row entries.  column(bit) is the mask of the
    strands that hold that token bit.  Entry j of row r spans runs of `run`
    strands, so its column is the column of the row's first entry shifted up
    j * run bits; only that first column is built (on first use) and cached,
    one mask per row rather than one per token.
    """

    __slots__ = ("rows", "size", "_where", "_firsts")

    def __init__(self, oid: int, bit_rows: list[list[int]]):
        self.rows = [[oid + b for b in bit_rows[0]], *bit_rows[1:]] if bit_rows else [[oid]]
        self.size = prod(map(len, self.rows))
        self._where: dict[int, tuple[int, list[int]]] = {}  # bit -> (row, positions in the row)
        for r, row in enumerate(bit_rows):
            for j, b in enumerate(row):
                self._where.setdefault(b, (r, []))[1].append(j)
        self._firsts: dict[int, tuple[int, int]] = {}  # row -> (first entry's column, run)

    def column(self, bit: int) -> int:
        if bit not in self._where or not self.size:
            return 0
        r, positions = self._where[bit]
        if r not in self._firsts:
            run = prod(map(len, self.rows[r + 1:]))
            period = len(self.rows[r]) * run
            self._firsts[r] = (tile((1 << run) - 1, period, self.size // period), run)
        first, run = self._firsts[r]
        col = 0
        for j in positions:
            col |= first << (j * run)
        return col

    def members(self, mask: int) -> list[int]:
        """The strands whose bits are set in mask, as ints, in product order.

        A mask with fewer set bits than size / rows is decoded bit by bit,
        anything denser by walking the whole product.
        """
        if mask.bit_count() * len(self.rows) < self.size:
            return self._picked(mask)
        return self._walked(mask)

    def _walked(self, mask: int) -> list[int]:
        digits = bin(mask)[:1:-1].encode().translate(_DIGIT) if mask else b""
        return list(map(sum, compress(product(*self.rows), digits)))

    def _picked(self, mask: int) -> list[int]:
        """Each set bit's strand from its index, read as mixed-radix digits (last row fastest)."""
        radices = [(len(row), row) for row in reversed(self.rows)]
        digits = bin(mask)[:1:-1]
        out = []
        i = digits.find("1")
        while i != -1:
            rest, strand = i, 0
            for size, row in radices:
                rest, j = divmod(rest, size)
                strand += row[j]
            out.append(strand)
            i = digits.find("1", i + 1)
        return out


class MachineFault(RuntimeError):
    """An operation that the bench cannot perform: bad append, retired tube, etc."""


@dataclass
class OpCounter:
    append: int = 0
    copy: int = 0
    merge: int = 0
    extract: int = 0
    detect: int = 0
    discard: int = 0

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)

    def snapshot(self) -> "OpCounter":
        return dataclasses.replace(self)


class Tube:
    """A labeled multiset of strands (order carries no meaning).

    `packed` holds the strands as the owning machine's ints; `contents`
    unpacks them to token tuples in append order.  A strand names each vertex
    at most once: TubeMachine.new_tube raises MachineFault on one that names a
    vertex twice.  A product tube keeps a membership mask over its `_product`,
    and a frame tube a `_frame`, instead of a list until `packed` is first read
    (see the module docstring).

    When `bases` is not None, strand i renders under the machine's codebook
    as `bases[i]`; the list may be shared with other tubes and is never
    changed in place.  Only tubes on a nucleotide machine keep bases, and
    never one made from rows= (see the module docstring).
    """

    __slots__ = ("label", "_packed", "_product", "_mask", "_frame", "retired", "bases", "_machine")

    def __init__(
        self, label: str, machine: "TubeMachine", packed: list[int] | None,
        product: _Product | None = None, mask: int = 0, bases: list[str] | None = None,
        frame: Frame | None = None,
    ):
        self.label = label
        self._packed = packed  # owned by this tube: callers hand over a fresh list
        self._product, self._mask = product, mask  # a product tube has packed None
        self._frame = frame  # a frame tube has packed None; never an empty frame
        self.retired = False
        self.bases = bases
        self._machine = machine

    def _pour_out(self) -> None:
        self._packed, self._product, self._mask, self._frame, self.bases = [], None, 0, None, None

    @property
    def packed(self) -> list[int]:
        """The strands as ints; a product or frame tube turns into a list tube here."""
        if self._product is not None:
            self._packed = self._product.members(self._mask)
            self._product, self._mask = None, 0
        elif self._frame is not None:
            self._packed, self._frame = self._frame_packed(), None
        return self._packed

    def _frame_packed(self, stop: int | None = None) -> list[int]:
        oid = self._frame.oid
        return [oid | t << ORDER_BITS for t in self._frame.tokens(stop)]

    @property
    def contents(self) -> list[Strand]:
        return self._machine._unpack(self._frame_packed() if self._frame is not None else self.packed)

    def order_samples(self) -> list[Strand]:
        """One strand of each vertex order in the tube, as a token tuple."""
        if self._frame is not None:
            return self._machine._unpack(self._frame_packed(1))
        return self._machine._unpack(list({s & ORDER_MASK: s for s in self.packed}.values()))

    def colors(self, vertices) -> list[tuple[int, ...]]:
        """Each strand's color at each of `vertices`, read from the bits.

        Every strand must name every one of the vertices (KeyError otherwise).
        """
        if self._frame is not None:
            return self._machine._colors(self._frame.values(), vertices, frames.place)
        return self._machine._colors(self.packed, vertices, _packed_place)

    def distinct(self) -> int:
        """How many different strands the tube holds; a frame is read from its words."""
        return len(set(self.packed if self._frame is None else self._frame.values()))

    def __len__(self) -> int:
        if self._frame is not None:
            return self._frame.count
        return self._mask.bit_count() if self._product is not None else len(self._packed)

    def __bool__(self) -> bool:  # without counting a mask's bits; a frame is never empty
        return self._frame is not None or bool(self._mask if self._product is not None else self._packed)

    def counts(self) -> Counter:
        return Counter(self.contents)

    def __repr__(self):
        state = "retired" if self.retired else f"{len(self)} strands"
        return f"Tube({self.label!r}, {state})"


class TubeMachine:
    """One bench session: creates tubes, runs operations, keeps the books.

    `codebook` fixes how extract matches for the whole session: None tests
    token membership, a codebook tests for its base sequences.  Substring
    search on an unsafe codebook can disagree with token membership, so a
    codebook that fails validation is refused here, before any tube exists.
    """

    def __init__(self, codebook: Codebook | None = None):
        if codebook is not None and not codebook.validation().ok:
            raise SoundnessError("nucleotide matching refused: codebook failed validation")
        self.codebook = codebook
        self.counter = OpCounter()
        self._live_strands = 0
        self.peak_tube_size = 0
        self._index: dict[Token, int] = {}  # token -> i: bit ORDER_BITS + i packed, frames.place(i) in a frame
        self._token_at: dict[int, dict[int, Token]] = {}  # vertex -> {i: token}
        self._orders: list[tuple[int, ...]] = []
        self._order_id: dict[tuple[int, ...], int] = {}

    def _credit(self, delta: int) -> None:
        self._live_strands += delta
        if self._live_strands > self.peak_tube_size:
            self.peak_tube_size = self._live_strands

    @staticmethod
    def _require_live(tube: Tube) -> None:
        if tube.retired:
            raise MachineFault(f"tube {tube.label!r} was discarded")

    # --- packing -----------------------------------------------------------

    def _index_of(self, token: Token) -> int:
        i = self._index.get(token)
        if i is None:
            i = self._index[token] = len(self._index)
            self._token_at.setdefault(token[0], {})[i] = token
        return i

    def _bit_of(self, token: Token) -> int:
        return 1 << _packed_place(self._index_of(token))

    def _oid_of(self, order: tuple[int, ...]) -> int:
        oid = self._order_id.get(order)
        if oid is None:
            if len(set(order)) != len(order):
                raise MachineFault(f"strand names a vertex twice: vertex order {order}")
            oid = self._order_id[order] = len(self._orders)
            self._orders.append(order)
        return oid

    def _pack(self, strands) -> list[int]:
        """Token tuples to ints: the order id plus one bit per token."""
        return [
            sum(map(self._bit_of, s), self._oid_of(tuple(v for v, _ in s)))
            for s in strands
        ]

    def _product_of(self, rows) -> _Product:
        """itertools.product(*rows) as a _Product, with no strand ever built.

        Each row holds the tokens of one vertex.
        """
        rows = [tuple(row) for row in rows]
        order = []
        for row in rows:
            vertices = {v for v, _ in row}
            if len(vertices) > 1:
                raise MachineFault(f"token row names more than one vertex: {sorted(vertices)}")
            order.extend(vertices)
        oid = self._oid_of(tuple(order))
        return _Product(oid, [list(map(self._bit_of, row)) for row in rows])

    def _rows(self, vertices, value, place=_packed_place) -> list[tuple[int, dict]]:
        """One (vertex mask, {bit: value(token)}) row per vertex, leaving out tokens valued None.

        Token i is bit 1 << place(i).  A strand's entry for a vertex is then
        `entries[s & mask]`.
        """
        rows = []
        for v in vertices:
            tokens = {1 << place(i): t for i, t in self._token_at.get(v, {}).items()}
            rows.append((sum(tokens), {bit: x for bit, t in tokens.items() if (x := value(t)) is not None}))
        return rows

    def _unpack(self, packed: list[int]) -> list[Strand]:
        """Ints to token tuples, through the token rows of each order id."""
        plans = {
            oid: self._rows(self._orders[oid], lambda t: t)
            for oid in set(map(ORDER_MASK.__and__, packed))
        }
        return [tuple([tok[s & m] for m, tok in plans[s & ORDER_MASK]]) for s in packed]

    def _colors(self, strands, vertices, place) -> list[tuple[int, ...]]:
        """Strand ints, token i at bit place(i), to colors at the given vertices.

        Runs of consecutive vertices are read with one lookup each, in a table
        from the product of their color rows keyed by the bits under their
        joint mask.  A run grows while its table keeps to at most one entry
        per TABLE_SHARE strands, so a tube of a few strands builds no large
        table.  `strands` is a sequence: it is read once per run.
        """
        rows = self._rows(vertices, itemgetter(1), place)
        out, start = repeat((), len(strands)), 0
        while start < len(rows):
            stop, size = start + 1, len(rows[start][1])
            while stop < len(rows) and size * len(rows[stop][1]) * TABLE_SHARE <= len(strands):
                size *= len(rows[stop][1])
                stop += 1
            mask = sum(m for m, _ in rows[start:stop])
            colors = [c for _, c in rows[start:stop]]
            table = dict(zip(map(sum, product(*colors)), product(*map(dict.values, colors))))
            out = map(add, out, map(table.__getitem__, map(mask.__and__, strands)))  # runs chained, not listed
            start = stop
        return list(out)

    def _render(self, packed: list[int]):
        """Each strand's bases under the codebook, streamed straight from the bits.

        One sequence row per vertex of each order id.  A strand holding a
        token the codebook lacks goes through render, which raises the
        CodecError that names it.
        """
        seqs = self.codebook._sequences
        plans = {
            oid: self._rows(self._orders[oid], seqs.get)
            for oid in set(map(ORDER_MASK.__and__, packed))
        }
        for s in packed:
            try:
                yield "".join([seq[s & m] for m, seq in plans[s & ORDER_MASK]])
            except KeyError:
                yield render(self._unpack([s])[0], self.codebook)

    def _frame_tube(self, label: str, frame: Frame) -> Tube:
        """A tube of the frame's strands; an empty frame gives an empty list tube."""
        return Tube(label, self, None, frame=frame) if frame.count else Tube(label, self, [])

    # --- operations --------------------------------------------------------

    def new_tube(self, label: str, contents=(), *, rows=None) -> Tube:
        """A tube of the given strands, or of every strand in the product of token rows.

        `rows=[row_1, ..., row_n]`, each row the tokens of one vertex, gives
        the contents of itertools.product(*rows) in the same order as a
        product tube: a mask with every strand's bit set, and no strand built.
        """
        if rows is None:
            packed = self._pack(contents)
            tube = Tube(label, self, packed)
            if self.codebook is not None:
                try:
                    tube.bases = list(self._render(packed))
                except CodecError:  # a token the codebook lacks: the first extract says which
                    pass
            elif packed and len({s & ORDER_MASK for s in packed}) == 1:
                tube._packed, tube._frame = None, Frame.of_tokens(packed[0] & ORDER_MASK, [s >> ORDER_BITS for s in packed])
        elif contents:
            raise ValueError("new_tube takes contents or rows, not both")
        else:
            product = self._product_of(rows)
            tube = Tube(label, self, None, product, (1 << product.size) - 1)
        self._credit(len(tube))
        return tube

    def append(self, tube: Tube, cw: Codeword) -> Tube:
        """Extend every strand in the tube with cw's (vertex, color) token."""
        self._require_live(tube)
        v = cw.vertex
        index = self._index_of((v, cw.color))
        frame = tube._frame
        if frame is not None:
            order = self._orders[frame.oid]
            if v in order:
                raise MachineFault(f"append: strand already assigns vertex {v}")
            tube._frame = frame.grown(self._oid_of(order + (v,)), index)
            self.counter.append += 1
            return tube
        bit = 1 << _packed_place(index)
        strands = tube.packed
        delta = {}
        for oid in set(map(ORDER_MASK.__and__, strands)):
            order = self._orders[oid]
            if v in order:
                raise MachineFault(f"append: strand already assigns vertex {v}")
            delta[oid] = bit + self._oid_of(order + (v,)) - oid
        if len(delta) == 1:
            (d,) = delta.values()
            tube._packed = list(map(d.__add__, strands))
        else:
            tube._packed = [s + delta[s & ORDER_MASK] for s in strands]
        if tube.bases is not None:
            seq = self.codebook._sequences.get((v, cw.color))
            # a token the codebook lacks drops the bases: the next extract says which
            tube.bases = None if seq is None else [b + seq for b in tube.bases]
        self.counter.append += 1
        return tube

    def copy(self, tube: Tube, count: int) -> list[Tube]:
        """Pour the tube into `count` identical copies; the source ends empty."""
        self._require_live(tube)
        if count < 1:
            raise ValueError(f"copy count must be at least 1, got {count}")
        size, packed = len(tube), tube._packed
        copies = [
            Tube(f"{tube.label}#{i}", self, None if packed is None else packed[:],
                 tube._product, tube._mask, tube.bases, tube._frame)
            for i in range(1, count + 1)
        ]
        tube._pour_out()
        self._credit((count - 1) * size)
        self.counter.copy += 1
        return copies

    def merge(self, dest: Tube, sources) -> Tube:
        """Pour every source into dest; sources end empty.  One counter tick.

        Product tubes over one product whose masks share no strand merge by
        OR, and dest holds the union in product order.  Frames of one vertex
        order are joined in order, laid out on first use.  Any other mix is
        concatenated as lists.  On a nucleotide machine dest keeps bases,
        the inputs' lists chained, when every non-empty input has them.  A
        tube may be poured only once, so a source listed twice faults before
        anything moves.
        """
        self._require_live(dest)
        sources = list(sources)
        for src in sources:
            if src is dest:
                raise MachineFault("merge: tube cannot be merged into itself")
            self._require_live(src)
        if len(set(map(id, sources))) != len(sources):
            raise MachineFault("merge: a source tube is listed twice")
        full = [t for t in (dest, *sources) if t]
        union = None  # the merged mask, when the inputs allow one
        if full and all(t._product is full[0]._product is not None for t in full):
            union = 0
            for t in full:
                if union & t._mask:  # a strand in two inputs: lists keep it twice
                    union = None
                    break
                union |= t._mask
        bases = None
        if self.codebook is not None and all(t.bases is not None for t in full):
            bases = list(chain.from_iterable(t.bases for t in full))
        frames = [t._frame for t in full]
        if union is not None:
            dest._packed, dest._product, dest._mask = None, full[0]._product, union
        elif full and all(f is not None and f.oid == frames[0].oid for f in frames):
            dest._packed, dest._product, dest._mask = None, None, 0
            dest._frame = frames[0] if len(frames) == 1 else Frame.joined(frames)
        else:
            for src in sources:
                dest.packed.extend(src.packed)
        for src in sources:
            src._pour_out()
        dest.bases = bases
        self.counter.merge += 1
        return dest

    def extract(self, tube: Tube, cw: Codeword) -> tuple[Tube, Tube]:
        """Partition the tube by cw into (matching, rest); the source ends empty.

        Without a codebook the machine tests token membership; with one it
        tests whether cw's base sequence occurs in the rendered strand.  Both
        outputs keep the source's strand order, and its bases when it has
        them; a tube without bases is rendered from the bits as a stream.  A
        product tube extracts on tokens with one AND of its mask and the
        token's column, giving two product tubes; nucleotide extract
        materializes it first.  A frame splits into two frames (an empty
        output is an empty list tube).
        """
        self._require_live(tube)
        product = tube._product
        if self.codebook is None:
            index = self._index.get((cw.vertex, cw.color))  # a token never seen is in no strand
            bit = 0 if index is None else 1 << _packed_place(index)
            if product is not None:
                mask = tube._mask
                hit = mask & product.column(bit)
                plus = Tube(f"{tube.label}+", self, None, product, hit)
                minus = Tube(f"{tube.label}-", self, None, product, mask ^ hit)
            elif tube._frame is not None:
                hit, rest = tube._frame.split(index)
                plus, minus = self._frame_tube(f"{tube.label}+", hit), self._frame_tube(f"{tube.label}-", rest)
            else:
                strands = tube.packed
                plus = Tube(f"{tube.label}+", self, list(filter(bit.__and__, strands)))
                minus = Tube(f"{tube.label}-", self, list(filterfalse(bit.__and__, strands)))
        else:
            strands, bases, seq = tube.packed, tube.bases, cw.sequence
            flags = [seq in b for b in (self._render(strands) if bases is None else bases)]
            miss = list(map(not_, flags))
            plus = Tube(f"{tube.label}+", self, list(compress(strands, flags)))
            minus = Tube(f"{tube.label}-", self, list(compress(strands, miss)))
            if bases is not None:
                plus.bases, minus.bases = list(compress(bases, flags)), list(compress(bases, miss))
        tube._pour_out()
        self.counter.extract += 1
        return plus, minus

    def detect(self, tube: Tube) -> bool:
        self._require_live(tube)
        self.counter.detect += 1
        return bool(tube)

    def discard(self, tube: Tube) -> None:
        """Drop the tube's contents and retire it; later operations on it fault."""
        self._require_live(tube)
        self._credit(-len(tube))
        tube._pour_out()
        tube.retired = True
        self.counter.discard += 1
