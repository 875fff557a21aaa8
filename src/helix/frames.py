"""Frames: the strands of one vertex order, stored as fields of one big int.

Field layout.  A strand's field is the sticker model's memory strand
(Roweis et al., J. Comput. Biol. 5(4), 1998) in a row of 64-bit words.
Bit 0 of every byte is a presence bit, and token i, the i-th (vertex, color)
token the machine has seen, sits above it at place(i): word i // 56, byte
(i % 56) // 7 of that word, bit 1 + i % 7 of that byte.  So a byte holds 7
tokens and a word 56, and every byte of a live field is non-zero.

Live mask, columns and split.  A frame is its strands' fields side by side,
slot j a field of `width` words, plus a live mask: one bit at the start of
each slot that holds a strand.  A token's column is the token's bit shifted
down to each slot's start and ANDed with the live mask, one bit per strand
that holds it.  Columns combine by AND and OR, and split by a column gives
two frames that share the source's int and slots and differ only in their
live masks, so an extract writes no field.

Compaction.  A dead slot's field stays in the int until the fields are next
read (fields: a join, a widening grown, ascending, values).  One AND with the
live mask spread over each slot, `(live << 64 * width) - live`, then clears
the dead fields, and since every byte of a live field is non-zero, deleting
the zero bytes with one bytes.translate leaves exactly the live fields,
compacted.

Widening.  grown ORs the live mask in at the token's place.  A token past
the width first widens every field by whole words, which hold presence bits
only.

Ascending frames.  ascending tests whether the fields, read as ints,
strictly increase from slot to slot, with a few whole-frame int operations.
Read from bit 1 up, each field ends in the next slot's presence bit.  That
bit is cleared and set again as a guard that no borrow crosses, so in
`guard + field - next field` it stays exactly where the field is not below
the next; the last field's guard always stays, so the fields ascend when it
is the only guard left, or no guard in an empty frame.  Strictly increasing
fields hold no strand twice.  The solver's survivor tube stays one ascending
frame: a token's place rises with the order in which the machine first saw
it, so the colors appended at a step outrank every earlier token and rise
with the color; split and the join keep slot order, merge keeps the color
tubes in color order, and widening adds presence bits only.  So the fields
stay in colex order of the run order, the newest token most significant.
Only the speed of the repeat check (Tube.distinct) relies on this.
"""

from __future__ import annotations

import sys
from array import array
from functools import cache, reduce
from itertools import repeat
from operator import lshift, or_

WORD_BITS = 64  # a field is whole words of this many bits
BYTE_TOKENS = 7  # bit 0 of each byte marks a present strand
WORD_TOKENS = WORD_BITS // 8 * BYTE_TOKENS
PRESENT = 0x0101010101010101  # a word of presence bits; the same in either byte order


def place(i: int) -> int:
    """The bit of token i in a field (see the field layout in the module docstring)."""
    word, rest = divmod(i, WORD_TOKENS)
    byte, bit = divmod(rest, BYTE_TOKENS)
    return WORD_BITS * word + 8 * byte + 1 + bit


def _as_words(raw):
    """Little-endian bytes as a sequence of 64-bit ints."""
    if sys.byteorder == "little":
        return memoryview(raw).cast("Q")  # no copy
    words = array("Q", raw)
    words.byteswap()
    return words


def _widen(raw: bytes, width: int, wider: int) -> bytes:
    """Compacted fields of `width` words, as bytes, in fields of `wider` words.

    Words are moved whole and the fill reads the same in either byte order,
    so no word is ever read as an int.
    """
    words = memoryview(raw).cast("Q")
    out = array("Q", [PRESENT]) * (len(words) // width * wider)
    view = memoryview(out)
    for w in range(width):
        view[w::wider] = words[w::width]
    return out.tobytes()


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
    """A bytes.translate table: each byte to its bits [shift, shift + width)."""
    return bytes((b >> shift) & ((1 << width) - 1) for b in range(256))


def key_tables(values) -> dict[int, list[tuple[int, bytes]]]:
    """Frame.keys's tables for keys that OR the value of each (token index, value) pair a strand holds.

    Per key byte, the field bytes that feed it, each with its table (the
    byte-table decode, machine.py).
    """
    tables = {}
    for i, value in values:
        byte, bit = divmod(place(i), 8)
        for k, v in enumerate(value.to_bytes(8, "little")):
            if v:
                row = tables.setdefault(k, {})
                row[byte] = row.get(byte, 0) | v * int.from_bytes(_byte_field(bit, 1), "little")
    return {k: [(byte, table.to_bytes(256, "little")) for byte, table in row.items()] for k, row in tables.items()}


def bit_fields(values, fields) -> list:
    """For each (offset, width) in fields, bits [offset, offset + width) of every one of values.

    The values are one-word ints, and each field comes out as a sequence of
    ints in their order, cut out of all of them at once.  A field inside one
    byte of the word is that byte of every value, translated; any other is a
    shift and a mask over all the words side by side.
    """
    count, words = len(values), array("Q", values)
    if sys.byteorder == "big":
        words.byteswap()
    raw, joined, out = words.tobytes(), None, []
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
    """Strands of one vertex order as the fields of one big int (see the module docstring).

    `order` is the strands' vertex order, a tuple the frame only carries,
    `width` the words per field, `count` the strands, `_slots` the slots,
    dead ones included, and `live` the live mask, every slot live when none
    is given.  A frame is never changed once built.
    """

    __slots__ = ("order", "width", "count", "_bits", "_slots", "live")

    def __init__(self, order: tuple[int, ...], width: int, count: int, bits: int, slots: int, live: int | None = None):
        self.order, self.width, self.count, self._bits, self._slots = order, width, count, bits, slots
        self.live = tile(1, WORD_BITS * width, slots) if live is None else live

    @classmethod
    def of_fields(cls, order: tuple[int, ...], fields: list[int]) -> "Frame":
        """Fields, with or without their presence bits, as a frame with no dead slot."""
        width = max(1, -(-max(f.bit_length() for f in fields) // WORD_BITS))
        pad, size = tile(PRESENT, WORD_BITS, width), 8 * width
        raw = b"".join([(f | pad).to_bytes(size, "little") for f in fields])
        return cls(order, width, len(fields), int.from_bytes(raw, "little"), len(fields))

    @classmethod
    def joined(cls, frames: list["Frame"]) -> "Frame":
        """The frames' strands in order, compacted, in fields of the widest frame's width."""
        width = max(f.width for f in frames)
        raw = b"".join([f.fields(width) for f in frames])
        count = len(raw) // (8 * width)
        return cls(frames[0].order, width, count, int.from_bytes(raw, "little"), count)

    def fields(self, width: int = 0) -> bytes:
        """The strands' fields, dead slots left out, as little-endian bytes of max(width, self.width) words each."""
        bits, size = self._bits, 8 * self.width * self._slots
        if self.count < self._slots:
            bits &= (self.live << (WORD_BITS * self.width)) - self.live
            raw = bits.to_bytes(size, "little").translate(None, b"\0")
        else:
            raw = bits.to_bytes(size, "little")
        return _widen(raw, self.width, width) if width > self.width else raw

    def values(self):
        """One int per strand, its field with its presence bits, dead slots left out."""
        width, words = self.width, _as_words(self.fields())
        values = words[::width]
        for w in range(1, width):
            values = list(map(or_, values, map(lshift, words[w::width], repeat(WORD_BITS * w))))
        return values

    def ascending(self) -> bool:
        """Whether the strands' fields, read as ints, strictly increase from slot to slot.

        Fields that differ only in bit 0 may read as not ascending, never the
        reverse.
        """
        size, full = WORD_BITS * self.width, self.count == self._slots
        bits = self._bits if full else int.from_bytes(self.fields(), "little")
        guards = (self.live if full else tile(1, size, self.count)) << size
        cut = bits ^ (bits & guards)
        return ((cut | guards) - (cut >> size)) & guards == 1 << guards.bit_length() >> 1

    def keys(self, tables):
        """Each live strand's 64-bit key, read through key_tables(...) (the byte-table decode, machine.py).

        A field byte past the width holds no token.
        """
        raw, stride, keys = self.fields(), 8 * self.width, bytearray(8 * self.count)
        for k, parts in tables.items():
            byte = reduce(or_, [int.from_bytes(raw[b::stride].translate(t), "little") for b, t in parts if b < stride], 0)
            keys[k::8] = byte.to_bytes(self.count, "little")
        return _as_words(keys)

    def column(self, index: int | None) -> int:
        """The slot starts of the strands that hold token `index`; None, a token never seen, is in none."""
        if index is None or index >= WORD_TOKENS * self.width:
            return 0
        return (self._bits >> place(index)) & self.live

    def split(self, starts: int) -> tuple["Frame", "Frame"]:
        """(hit, rest): the strands whose slot starts are set in `starts`, a subset of the live mask such as a column, and the others."""
        hits = starts.bit_count()
        hit = Frame(self.order, self.width, hits, self._bits, self._slots, starts)
        return hit, Frame(self.order, self.width, self.count - hits, self._bits, self._slots, self.live ^ starts)

    def grown(self, order: tuple[int, ...], index: int) -> "Frame":
        """Every strand with token `index` added, as a frame of vertex order `order`."""
        width = max(self.width, index // WORD_TOKENS + 1)
        if width > self.width:
            frame = Frame(order, width, self.count, int.from_bytes(self.fields(width), "little"), self.count)
        else:
            frame = Frame(order, width, self.count, self._bits, self._slots, self.live)  # dead slots stay dead
        frame._bits |= frame.live << place(index)
        return frame
