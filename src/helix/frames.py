"""Frames: the strands of one vertex order as the fixed-width fields of one big int.

A frame is the sticker model's memory layout for a whole tube (Roweis et al.,
J. Comput. Biol. 5(4), 1998).  Slot j is a field of `width` 64-bit words.
Bit 0 of every word is set when the slot holds a strand, and token i sits at
word i // 63, bit 1 + i % 63 (place(i)); an empty slot is all zero.  A frame
keeps its order id, its slot count and its strand count.

- split (symbolic extract) is a few whole-frame operations: shift the
  token's bit down to each slot's start, AND with the slot starts, spread
  each set start over its field (`(x << W) - x`), AND, and XOR for the rest.
  Both outputs keep the source's slots, the empty ones zero.
- grown (append) ORs the slot starts in at the token's position, widening
  every field by whole words when the token lies past the current width.
- joined (merge) keeps its inputs as parts and lays them out on first use:
  each part compacted (its words as array('Q'), the zero words filtered out,
  since every word of a strand is non-zero) and the parts concatenated in
  order.  A merged tube discarded unread, as the solver's bad tubes are, is
  never laid out.
- values and tokens read one int per field from the words, so the
  repeated-strand check and the color decode unpack no strand.
"""

from __future__ import annotations

import sys
from array import array
from itertools import repeat
from operator import lshift, or_

WORD_BITS = 64  # a field is whole words of this many bits
WORD_TOKENS = WORD_BITS - 1  # bit 0 of each word marks a present strand
_TOKEN_MASK = (1 << WORD_TOKENS) - 1


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


class Frame:
    """Strands of one vertex order as the fields of one big int.

    `oid` is the machine's order id, which the frame only carries.  Slot j
    is bits [j * 64 * width, (j + 1) * 64 * width) of `_bits`.  A frame made
    by joined holds its inputs in `_parts` until layout() concatenates them.
    Laying out changes the slots, never the strands or their order, so a
    frame is shared by copies and its parts by later merges.
    """

    __slots__ = ("oid", "width", "count", "_bits", "_slots", "_ones", "_parts")

    def __init__(self, oid: int, width: int, count: int, bits: int = 0, slots: int = 0,
                 ones: int | None = None, parts: list["Frame"] | None = None):
        self.oid, self.width, self.count = oid, width, count
        self._bits, self._slots, self._ones, self._parts = bits, slots, ones, parts

    @classmethod
    def of_tokens(cls, oid: int, tokens: list[int]) -> "Frame":
        """Strands given as ints with token i at bit i, as a frame with no empty slot."""
        width = max(1, -(-max(t.bit_length() for t in tokens) // WORD_TOKENS))
        shifts = range(0, WORD_TOKENS * width, WORD_TOKENS)
        words = array("Q", [(t >> shift & _TOKEN_MASK) << 1 | 1 for t in tokens for shift in shifts])
        return cls(oid, width, len(tokens), _from_words(words), len(tokens))

    @classmethod
    def joined(cls, frames: list["Frame"]) -> "Frame":
        """The frames' strands in order, laid out on first use."""
        parts = [part for f in frames for part in (f._parts or (f,))]
        return cls(frames[0].oid, max(f.width for f in frames), sum(f.count for f in frames), parts=parts)

    def layout(self) -> tuple[int, int]:
        """(bits, slot count), concatenating a joined frame's compacted parts first."""
        if self._parts is not None:
            words = array("Q")
            for part in self._parts:
                words.frombytes(memoryview(part.words(self.width)).cast("B"))
            self._bits, self._slots, self._parts = _from_words(words), self.count, None
        return self._bits, self._slots

    def ones(self) -> int:
        """One set bit at the start of every slot."""
        if self._ones is None:
            _, slots = self.layout()
            self._ones = tile(1, WORD_BITS * self.width, slots)
        return self._ones

    def words(self, width: int = 0):
        """The strands' words, empty slots left out, in fields of max(width, self.width) words.

        Every word of a strand is non-zero and every word of an empty slot
        zero, so dropping the zero words drops exactly the empty slots.
        """
        bits, slots = self.layout()
        words = _to_words(bits, slots * self.width)
        if self.count < slots:
            words = array("Q", filter(None, words))
        return _widen(words, self.width, width) if width > self.width else words

    def values(self):
        """One int per strand, its field: token i at bit place(i)."""
        words = self.words()
        if self.width == 1:
            return words
        values = words[::self.width]
        for w in range(1, self.width):
            values = list(map(or_, values, map(lshift, words[w::self.width], repeat(WORD_BITS * w))))
        return values

    def tokens(self, stop: int | None = None) -> list[int]:
        """The first `stop` strands (all by default) as ints with token i at bit i."""
        shifts = [(WORD_BITS * w + 1, WORD_TOKENS * w) for w in range(self.width)]
        out = []
        for v in self.values()[:stop]:
            tokens = 0
            for down, up in shifts:
                tokens |= (v >> down & _TOKEN_MASK) << up
            out.append(tokens)
        return out

    def _like(self, bits: int, count: int) -> "Frame":
        return Frame(self.oid, self.width, count, bits, self._slots, self._ones)

    def split(self, index: int | None) -> tuple["Frame", "Frame"]:
        """(hit, rest): the strands that hold token `index` and the others, in their slots.

        None stands for a token the machine has never seen, which no strand holds.
        """
        bits, _ = self.layout()
        hits = 0
        if index is not None and index < WORD_TOKENS * self.width:
            starts = (bits >> place(index)) & self.ones()  # a slot's start, set if it holds the token
            hits = starts.bit_count()
        hit = bits & ((starts << (WORD_BITS * self.width)) - starts) if hits else 0
        return self._like(hit, hits), self._like(bits ^ hit, self.count - hits)

    def grown(self, oid: int, index: int) -> "Frame":
        """Every strand with token `index` added, as a frame of order id `oid`."""
        width = max(self.width, index // WORD_TOKENS + 1)
        if width > self.width:
            frame = Frame(oid, width, self.count, _from_words(self.words(width)), self.count)
        else:
            bits, slots = self.layout()
            frame = Frame(oid, width, self.count, bits, slots, self.ones())  # copies share self's pattern
        ones = frame.ones()
        present = ones if frame.count == frame._slots else frame._bits & ones
        frame._bits |= present << place(index)
        return frame
