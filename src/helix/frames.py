"""Frames: the strands of one vertex order, stored as fields of one big int.

Every strand a TubeMachine holds outside a product mask lives in a frame, and
a tube is a tuple of frames, so the vertex order (an order id into the
machine's table) is kept once per frame.  A strand's field is the sticker
model's memory strand (Roweis et al., J. Comput. Biol. 5(4), 1998): token i
sits at word i // 63, bit 1 + i % 63 (place(i)) of a row of 64-bit words.

A frame is the fields of its strands side by side.  Slot j is a field of
`width` words, bit 0 of every word is set when the slot holds a strand, and
an empty slot is all zero.  A token's column (column) is the token's bit
shifted down to each slot's start and ANDed with the slot starts: one bit per
strand that holds it, at the strand's slot start.  Columns combine by AND and
OR, so extract on either kind of machine computes one and splits by it
(split): spread each set start over its field (`(x << W) - x`), AND, and XOR
for the rest; both outputs keep the source's slots.  grown (append) ORs the
slot starts in at the token's place, widening every field by whole words
when the token lies past the width.  joined (a merge, once read)
concatenates the frames' words with the empty slots filtered out, since
every word of a strand is non-zero.  values() reads one int per strand, so
the repeated-strand check unpacks no strand, and heads() reads the first word
of each strand's slot from an int laid out like the frame, which the color
decode builds from columns; bit_fields() then cuts each vertex's colors out
of the sorted one-word keys.
"""

from __future__ import annotations

import sys
from array import array
from functools import cache
from itertools import compress, repeat
from operator import lshift, or_

WORD_BITS = 64  # a field is whole words of this many bits
WORD_TOKENS = WORD_BITS - 1  # bit 0 of each word marks a present strand


def place(i: int) -> int:
    """The bit of token i in a field: word i // 63, above that word's presence bit."""
    word, bit = divmod(i, WORD_TOKENS)
    return WORD_BITS * word + 1 + bit


def _to_words(bits: int, count: int):
    """The low `count` 64-bit words of bits, least significant first, as a sequence of ints."""
    raw = bits.to_bytes(8 * count, "little")
    if sys.byteorder == "little":
        return memoryview(raw).cast("Q")  # no copy
    words = array("Q", raw)
    words.byteswap()
    return words


def _from_words(words) -> int:
    """The int whose 64-bit words, least significant first, are `words` (an array or _to_words view)."""
    if sys.byteorder == "big":
        words = array("Q", words)
        words.byteswap()
    return int.from_bytes(words, "little")


def _widen(words, width: int, wider: int) -> array:
    """Compacted fields of `width` words as fields of `wider` words.

    The added words hold no token, only the presence bit.
    """
    out = array("Q", [1]) * (len(words) // width * wider)
    for w in range(width):
        out[w::wider] = array("Q", words[w::width])
    return out


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
            out.append(_to_words((joined >> offset) & tile((1 << width) - 1, WORD_BITS, count), count))
    return out


class Frame:
    """Strands of one vertex order as the fields of one big int.

    `oid` is the machine's order id, which the frame only carries.  Slot j
    is bits [j * 64 * width, (j + 1) * 64 * width) of `_bits`, `_slots`
    counts the slots, empty ones included, and `count` the strands.  A frame
    is never changed once built, so copies share it.
    """

    __slots__ = ("oid", "width", "count", "_bits", "_slots", "_ones")

    def __init__(self, oid: int, width: int, count: int, bits: int, slots: int, ones: int | None = None):
        self.oid, self.width, self.count = oid, width, count
        self._bits, self._slots, self._ones = bits, slots, ones

    @classmethod
    def of_fields(cls, oid: int, fields: list[int]) -> "Frame":
        """Fields, with or without their presence bits, as a frame with no empty slot."""
        width = max(1, -(-max(f.bit_length() for f in fields) // WORD_BITS))
        pad, size = tile(1, WORD_BITS, width), 8 * width
        raw = b"".join([(f | pad).to_bytes(size, "little") for f in fields])
        return cls(oid, width, len(fields), int.from_bytes(raw, "little"), len(fields))

    @classmethod
    def joined(cls, frames: list["Frame"]) -> "Frame":
        """The frames' strands in order, compacted, in fields of the widest frame's width."""
        width, words = max(f.width for f in frames), array("Q")
        for f in frames:
            words.frombytes(memoryview(f.words(width)).cast("B"))
        count = len(words) // width
        return cls(frames[0].oid, width, count, _from_words(words), count)

    def ones(self) -> int:
        """One set bit at the start of every slot."""
        if self._ones is None:
            self._ones = tile(1, WORD_BITS * self.width, self._slots)
        return self._ones

    def words(self, width: int = 0):
        """The strands' words, empty slots left out, in fields of max(width, self.width) words.

        Every word of a strand is non-zero and every word of an empty slot
        zero, so dropping the zero words drops exactly the empty slots.
        """
        words = _to_words(self._bits, self._slots * self.width)
        if self.count < self._slots:
            words = array("Q", filter(None, words))
        return _widen(words, self.width, width) if width > self.width else words

    def values(self, width: int = 0):
        """One int per strand, its field in max(width, self.width) words, presence bits included."""
        width = max(width, self.width)
        words = self.words(width)
        if width == 1:
            return words
        values = words[::width]
        for w in range(1, width):
            values = list(map(or_, values, map(lshift, words[w::width], repeat(WORD_BITS * w))))
        return values

    def present(self) -> int:
        """The slot starts of the strands: every slot start but the empty slots'."""
        ones = self.ones()
        return ones if self.count == self._slots else self._bits & ones

    def heads(self, bits: int):
        """The first word of each strand's slot in `bits`, an int laid out like the frame.

        Empty slots are left out by their presence bits.
        """
        size = self._slots * self.width
        heads = _to_words(bits, size)[::self.width]
        if self.count < self._slots:
            heads = compress(heads, _to_words(self._bits, size)[::self.width])
        return heads

    def _like(self, bits: int, count: int) -> "Frame":
        return Frame(self.oid, self.width, count, bits, self._slots, self._ones)

    def column(self, index: int | None) -> int:
        """The slot starts of the strands that hold token `index`; None, a token never seen, is in none."""
        if index is None or index >= WORD_TOKENS * self.width:
            return 0
        return (self._bits >> place(index)) & self.ones()

    def split(self, starts: int) -> tuple["Frame", "Frame"]:
        """(hit, rest): the strands whose slot starts are set in `starts` and the others, in their slots."""
        bits, hits = self._bits, starts.bit_count()
        hit = bits & ((starts << (WORD_BITS * self.width)) - starts) if hits else 0
        return self._like(hit, hits), self._like(bits ^ hit, self.count - hits)

    def grown(self, oid: int, index: int) -> "Frame":
        """Every strand with token `index` added, as a frame of order id `oid`."""
        width = max(self.width, index // WORD_TOKENS + 1)
        if width > self.width:
            frame = Frame(oid, width, self.count, _from_words(self.words(width)), self.count)
        else:
            frame = Frame(oid, width, self.count, self._bits, self._slots, self.ones())  # copies share self's pattern
        frame._bits |= frame.present() << place(index)
        return frame

