"""Frames: the strands of one vertex order, stored as a byte matrix of planes by slots.

Field layout.  A strand's field is the sticker model's memory strand
(Roweis et al., J. Comput. Biol. 5(4), 1998) in a row of bytes.  Bit 0 of
every byte is a presence bit, and token i, the i-th (vertex, color) token
the machine has seen, sits above it at place(i): byte i // 7, bit 1 + i % 7.
So a byte holds 7 tokens, and every byte of a live field is non-zero.

The byte matrix.  A frame holds its strands' fields in `planes x slots`
bytes, stored plane-major in one bytes object: plane b is byte b of every
slot's field, so the sticker model's memory is read by column rather than by
strand.  A frame's fields are `planes` bytes long, enough for the tokens its
strands hold, and a slot's byte in a plane past them would hold only its
presence bit.  The live mask has bit 0 of each slot's byte set for the slots
that hold a strand; the others are dead.

Columns and split.  A token's column is its plane read as an int of `slots`
bytes, shifted down to bit 0 of each byte and ANDed with the live mask, one
bit per strand that holds it.  Columns combine by AND and OR, and split by a
column gives two frames that share the source's matrix and the plane ints
read so far, and differ only in their live masks, so an extract writes no
field.  grown ORs the live mask in at the token's bit of one plane, or adds
planes, the gap filled with presence bits.  It shares the matrix and the
plane ints too, and keeps the planes it changed as its own; they are
written into a copy of the matrix only when the matrix is read whole, by
compacted(), a slot-side join or growing the grown frame again.

Compaction and the shorter side.  A frame is one plane-major matrix.  A
dead slot's bytes stay in it until the live strands are next read: by a
join, or by compacted(), which ascending, values and keys read and which
is the frame's own matrix when no slot is dead and a join of the frame
alone otherwise, so the join is the one compaction.  It walks the shorter
side of the matrix, so it costs O(min(planes, strands)) Python calls.  When
planes <= strands, each plane is ANDed with the live mask spread over its
slot bytes, and since every byte of a live field is non-zero, deleting the
zero bytes with one bytes.translate leaves exactly the live slots, in
order.  Otherwise each live slot's field is one strided slice of the matrix,
and the joined fields are transposed back to planes.  A join pads the
fields of frames with fewer planes with presence bytes.  Slot-major fields,
`planes` little-endian bytes each, are built only by of_fields and by that
slot-side join, each transposed along the shorter side.

Ascending frames.  ascending tests whether the live strands' fields, read
as ints, strictly increase from slot to slot, walking the shorter side.  A
frame with more planes than strands compares its fields, one strided slice
each: a pair that differs only in a low plane would cost the plane walk a
pass per plane.  Any other compares adjacent slots plane by plane, from the
top plane down, on the plane ints that _plane reads and caches: each plane
is shifted down one bit, so slot j's 7 token bits sit in lane j, bits 0..6
of byte j, next to slot j + 1's in the same plane shifted down 9 bits.  Bit
7 of each lane is a guard that no borrow crosses, so `(next | guard) -
this` keeps it exactly where the next slot's byte is not below this one's,
and `(this | guard) - next` where it is not above.  A pair is undecided
while its bytes are equal; a plane that puts an undecided pair in
descending order ends the test, and the fields ascend once no pair is
undecided.  Bit 0 is the presence bit of every live byte, so the lanes lose
nothing.  No slot-major copy and no guard tile is built, and the next
step's append, extract and join read the same cached plane ints.  Strictly
increasing fields hold no strand twice.  The solver's survivor tube stays
one ascending frame: a token's place rises with the order in which the
machine first saw it, so the colors appended at a step outrank every
earlier token and rise with the color; split and the join keep slot order,
merge keeps the color tubes in color order, and padding adds presence
bytes only.  So the fields stay in colex order of the run order, the newest
token most significant.  Only the speed of the repeat check (Tube.distinct)
relies on this.
"""

from __future__ import annotations

import struct
from functools import cache, reduce
from itertools import chain, compress
from operator import lt, or_

WORD_BITS = 64  # a decode key and a color are one word of this many bits
BYTE_TOKENS = 7  # bit 0 of each byte marks a present strand


def place(i: int) -> int:
    """The bit of token i in a field (see the field layout in the module docstring)."""
    byte, bit = divmod(i, BYTE_TOKENS)
    return 8 * byte + 1 + bit


def _as_words(raw):
    """Little-endian bytes as a tuple of 64-bit ints."""
    return struct.unpack(f"<{len(raw) // 8}Q", raw)


def _ones(count: int) -> int:
    """A live mask of `count` slots: bit 0 of each of `count` bytes."""
    return int.from_bytes(b"\1" * count, "little")


def transposed(raw: bytes, rows: int, cols: int) -> bytes:
    """A rows x cols byte matrix, stored row by row, stored column by column.

    One strided copy per row or per column, whichever side is shorter.
    """
    out = bytearray(len(raw))
    if rows <= cols:
        for r in range(rows):
            out[r::rows] = raw[r * cols : (r + 1) * cols]
    else:
        for c in range(cols):
            out[c * rows : (c + 1) * rows] = raw[c::cols]
    return bytes(out)


def tile(pattern: int, width: int, count: int) -> int:
    """`count` copies of a `width`-bit pattern side by side, by shift-doubling.

    Only shifts and ORs: CPython multiplies and divides big ints in more than
    linear time.
    """
    out = shift = 0
    while count:
        if count & 1:
            out |= pattern << shift
            shift += width
        count >>= 1
        if count:
            pattern |= pattern << width
            width *= 2
    return out


@cache
def _byte_field(shift: int, width: int) -> bytes:
    """A bytes.translate table: each byte to its bits [shift, shift + width), for shift + width <= 8.

    Entry b is (b >> shift) & mask, so the table is each of the 1 << width
    values repeated 1 << shift times, cycled 256 >> (shift + width) times: a
    transposed matrix of rows 0, 1, ..., mask, built with no loop over bytes.
    """
    return transposed(bytes(range(1 << width)) * (1 << shift), 1 << shift, 1 << width) * (256 >> shift + width)


@cache
def _bit_table(bit: int) -> int:
    """_byte_field(bit, 1) read as one int of 256 bytes, so a key byte's table is a multiple of it."""
    return int.from_bytes(_byte_field(bit, 1), "little")


def key_tables(values) -> dict[int, list[tuple[int, bytes]]]:
    """Frame.keys's tables for keys that OR the value of each (token index, value) pair a strand holds.

    Per key byte, the field bytes (planes) that feed it, each with its table
    (the byte-table decode, machine.py).
    """
    tables = {}
    for i, value in values:
        byte, bit = divmod(place(i), 8)
        table, k = _bit_table(bit), 0
        while value:  # a zero key byte adds nothing
            if v := value & 0xFF:
                row = tables.setdefault(k, {})
                row[byte] = row.get(byte, 0) | v * table
            value >>= 8
            k += 1
    return {k: [(byte, table.to_bytes(256, "little")) for byte, table in row.items()] for k, row in tables.items()}


def bit_fields(values, fields) -> list:
    """For each (offset, width) in fields, bits [offset, offset + width) of every one of values.

    The values are one-word ints, and each field comes out as a sequence of
    ints in their order, cut out of all of them at once.  A field inside one
    byte of the word is that byte of every value, translated; any other is a
    shift and a mask over all the words side by side.
    """
    count = len(values)
    raw, joined, out = struct.pack(f"<{count}Q", *values), None, []
    for offset, width in fields:
        byte, shift = divmod(offset, 8)
        if shift + width <= 8:
            out.append(raw[byte::8].translate(_byte_field(shift, width)))
        else:
            if joined is None:
                joined = int.from_bytes(raw, "little")
            field = (joined >> offset) & tile((1 << width) - 1, WORD_BITS, count)
            out.append(_as_words(field.to_bytes(8 * count, "little")))
    return out


class Frame:
    """Strands of one vertex order as a planes x slots byte matrix (see the module docstring).

    `order` is the strands' vertex order, a tuple the frame only carries,
    `planes` the bytes per field, `count` the strands, `_slots` the slots,
    dead ones included, and `live` the live mask.  `_raw` is the plane-major
    matrix but for the planes in `_own`, the ints of the planes grown
    changed or added (see _matrix); `_ints` holds the other planes read as
    ints, shared with split outputs and grown children.  A frame is never
    changed once built.
    """

    __slots__ = ("order", "planes", "count", "live", "_raw", "_slots", "_ints", "_own")

    def __init__(self, order, planes, count, raw, slots, live, ints, own):
        self.order, self.planes, self.count, self._raw, self._slots = order, planes, count, raw, slots
        self.live, self._ints, self._own = live, ints, own

    @classmethod
    def of_fields(cls, order: tuple[int, ...], fields: list[int]) -> "Frame":
        """Fields, with or without their presence bits, as a frame with no dead slot."""
        planes = max(1, -(-max(f.bit_length() for f in fields) // 8))
        pad, count = _ones(planes), len(fields)
        slot_major = b"".join([(f | pad).to_bytes(planes, "little") for f in fields])
        return cls(order, planes, count, transposed(slot_major, count, planes), count, _ones(count), {}, {})

    @classmethod
    def joined(cls, frames: list["Frame"]) -> "Frame":
        """The frames' strands in order, compacted along the shorter side, in fields of the most planes of any of them."""
        planes, count = max(f.planes for f in frames), sum(f.count for f in frames)
        if planes <= count:
            raw = b"".join(chain.from_iterable(zip(*[f._live_planes(planes) for f in frames])))
        else:
            raw = transposed(b"".join(chain.from_iterable(f._live_fields(planes) for f in frames)), count, planes)
        return cls(frames[0].order, planes, count, raw, count, _ones(count), {}, {})

    def _plane(self, b):
        """Plane b as an int of `_slots` bytes, read once for every frame that shares it."""
        plane = self._own.get(b)
        if plane is None:
            plane = self._ints.get(b)
            if plane is None:
                s = self._slots
                plane = self._ints[b] = int.from_bytes(self._raw[b * s : (b + 1) * s], "little")
        return plane

    def _live_planes(self, planes):
        """The live slots' bytes of each of `planes` planes, presence bytes past self.planes."""
        spread, s = (self.live << 8) - self.live, self._slots  # 0xff in each live slot's byte
        live = [(self._plane(b) & spread).to_bytes(s, "little").translate(None, b"\0") for b in range(self.planes)]
        return live + [b"\1" * self.count] * (planes - self.planes)

    def _live_fields(self, planes):
        """The live slots' fields, each one strided slice, padded to `planes` bytes."""
        s, raw, pad = self._slots, self._matrix(), b"\1" * (planes - self.planes)
        return [raw[j::s] + pad for j in compress(range(s), self.live.to_bytes(s, "little"))]

    def compacted(self) -> bytes:
        """The live slots' plane-major matrix: the frame's own when no slot is dead, else a lone join's."""
        return self._matrix() if self.count == self._slots else Frame.joined([self])._raw

    def values(self):
        """One int per strand, its field with its presence bits, dead slots left out; an iterator."""
        raw, n = self.compacted(), self.count
        return (int.from_bytes(raw[j::n], "little") for j in range(n))

    def ascending(self) -> bool:
        """Whether the strands' fields, read as ints, strictly increase from slot to slot.

        Fields that differ only in bit 0 may read as not ascending, never the
        reverse.
        """
        n = self.count
        if n < 2:
            return True
        if self.planes > n:  # the shorter side: one strided slice per strand, not one loop pass per plane
            fields = list(self.values())
            return all(map(lt, fields, fields[1:]))
        frame = self if n == self._slots else Frame.joined([self])
        ones = _ones(n - 1)
        guards = ones << 7  # bit 7 of lanes 0..n-2
        lanes = guards - ones  # bits 0..6 of them
        undecided = guards  # the pairs (j, j + 1) whose bytes were equal in every plane so far
        for b in reversed(range(frame.planes)):
            plane = frame._plane(b)
            this, after = (plane >> 1) & lanes, (plane >> 9) & lanes
            if ((after | guards) - this) & undecided != undecided:  # an undecided pair descends
                return False
            undecided &= (this | guards) - after  # those whose bytes are equal here
            if not undecided:
                return True
        return False

    def keys(self, tables):
        """Each live strand's 64-bit key, read through key_tables(...) (the byte-table decode, machine.py).

        A field byte past the planes holds no token.
        """
        raw, p, n, keys = self.compacted(), self.planes, self.count, bytearray(8 * self.count)
        for k, parts in tables.items():
            byte = reduce(or_, [int.from_bytes(raw[b * n : (b + 1) * n].translate(t), "little") for b, t in parts if b < p], 0)
            keys[k::8] = byte.to_bytes(n, "little")
        return _as_words(keys)

    def column(self, index: int | None) -> int:
        """The live mask's bits of the strands that hold token `index`; None, a token never seen, is in none."""
        if index is None:
            return 0
        b, bit = divmod(index, BYTE_TOKENS)
        return (self._plane(b) >> 1 + bit) & self.live if b < self.planes else 0

    def split(self, starts: int) -> tuple["Frame", "Frame"]:
        """(hit, rest): the strands whose live bits are set in `starts`, a subset of the live mask such as a column, and the others."""
        order, planes, raw, s, ints, own = self.order, self.planes, self._raw, self._slots, self._ints, self._own
        hits = starts.bit_count()
        hit = Frame(order, planes, hits, raw, s, starts, ints, own)
        return hit, Frame(order, planes, self.count - hits, raw, s, self.live ^ starts, ints, own)

    def grown(self, order: tuple[int, ...], index: int) -> "Frame":
        """Every strand with token `index` added, as a frame of vertex order `order`; dead slots stay dead.

        The grown frame shares this frame's matrix and plane ints but for
        the planes it changes or adds, its own.  A frame with own planes that
        this grow does not replace is first written whole (_matrix), so no
        frame keeps more own planes than one grown changes.
        """
        b, bit = divmod(index, BYTE_TOKENS)
        p, live, mine = self.planes, self.live, self._own
        own = dict.fromkeys(range(p, b), live)  # new planes before the token's: presence bits
        own[b] = (self._plane(b) if b < p else live) | live << 1 + bit
        # Every plane of `mine` is below p, so the only one this grow replaces is b.
        raw, ints = (self._matrix(), {}) if len(mine) > (b in mine) else (self._raw, self._ints)
        return Frame(order, max(p, b + 1), self.count, raw, self._slots, live, ints, own)

    def _matrix(self) -> bytes:
        """The plane-major matrix with the planes in `_own` written in."""
        if not self._own:
            return self._raw
        s, raw = self._slots, bytearray(self._raw)
        raw += bytes(s * self.planes - len(raw))  # room for the planes grown added
        for b, plane in self._own.items():
            raw[b * s : (b + 1) * s] = plane.to_bytes(s, "little")
        return bytes(raw)
