"""Simulated test-tube bench: labeled strand multisets and the six operations.

A TubeMachine hands out tubes and performs Append, Copy, Merge, Extract,
Detect, and Discard on them, charging one counter tick per call.  Tubes hold
multisets of symbolic strands even when extraction matches on nucleotides; the
tokens are the ground truth the simulator reasons about, and a codeword's base
sequence only ever decides membership, all of which keeps the two match modes
comparable strand for strand.

Physical accounting: Copy pours the source out into its copies (the source
ends empty), Merge pours sources into the destination, Extract pours the
source into its two output tubes, and Discard retires a tube for good.  The
machine tracks the total strand count across live tubes after every operation;
the high-water mark is the run's peak tube size.

Packed strands: inside a machine every strand is one Python int, in the spirit
of the sticker model's memory strands (Roweis et al., J. Comput. Biol. 5(4),
1998).  The low ORDER_BITS bits hold an order id, an index into the machine's
table of vertex sequences, so a strand remembers the order its tokens were
appended in.  Above them sits one bit per (vertex, color) token, assigned the
first time the machine sees that token.  Symbolic extract is then `s & bit`,
append moves every strand to the order id of its sequence plus the new vertex
by adding one delta per order id, and equal strands are equal ints.
Tube.contents unpacks to token tuples in append order through a plan of
(vertex mask, {masked bits: token}) pairs per order id, built on each unpack
from the tokens registered so far, so there is no cache to keep in step.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass
from itertools import compress, filterfalse, product
from operator import not_

from .codec import Codebook, Codeword, SoundnessError, Strand, Token, render

MATCH_MODES = ("symbolic", "nucleotide")

ORDER_BITS = 32
ORDER_MASK = (1 << ORDER_BITS) - 1


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
    """A labeled multiset of strands (list-backed; order carries no meaning).

    `packed` holds the strands as the owning machine's ints; `contents`
    unpacks them to token tuples in append order.  A strand names each vertex
    at most once: TubeMachine.new_tube raises MachineFault on one that names a
    vertex twice.
    """

    __slots__ = ("label", "packed", "retired", "_machine")

    def __init__(self, label: str, machine: "TubeMachine", packed: list[int]):
        self.label = label
        self.packed = packed  # owned by this tube: callers hand over a fresh list
        self.retired = False
        self._machine = machine

    @property
    def contents(self) -> list[Strand]:
        return self._machine._unpack(self.packed)

    def __len__(self) -> int:
        return len(self.packed)

    def counts(self) -> Counter:
        return Counter(self.contents)

    def __repr__(self):
        state = "retired" if self.retired else f"{len(self.packed)} strands"
        return f"Tube({self.label!r}, {state})"


class TubeMachine:
    """One bench session: creates tubes, runs operations, keeps the books."""

    def __init__(self):
        self.counter = OpCounter()
        self._live_strands = 0
        self.peak_tube_size = 0
        self._bit: dict[Token, int] = {}
        self._token_at: dict[int, dict[int, Token]] = {}  # vertex -> {bit: token}
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

    def _bit_of(self, token: Token) -> int:
        bit = self._bit.get(token)
        if bit is None:
            bit = self._bit[token] = 1 << (ORDER_BITS + len(self._bit))
            self._token_at.setdefault(token[0], {})[bit] = token
        return bit

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

    def _pack_rows(self, rows) -> list[int]:
        """itertools.product(*rows) packed, with no token tuple ever built.

        Each row holds the tokens of one vertex; the order id is added to the
        bits of the first row, so a strand is just the sum of one bit per row.
        """
        rows = [tuple(row) for row in rows]
        order = []
        for row in rows:
            vertices = {v for v, _ in row}
            if len(vertices) > 1:
                raise MachineFault(f"token row names more than one vertex: {sorted(vertices)}")
            order.extend(vertices)
        oid = self._oid_of(tuple(order))
        if not rows:
            return [oid]
        bit_rows = [list(map(self._bit_of, row)) for row in rows]
        bit_rows[0] = [oid + b for b in bit_rows[0]]
        return list(map(sum, product(*bit_rows)))

    def _unpack(self, packed: list[int]) -> list[Strand]:
        """Ints to token tuples, through one (vertex mask, {bit: token}) pair per vertex."""
        token_at = self._token_at
        plans = {
            oid: [(sum(token_at[v]), token_at[v]) for v in self._orders[oid]]
            for oid in set(map(ORDER_MASK.__and__, packed))
        }
        return [tuple([tok[s & m] for m, tok in plans[s & ORDER_MASK]]) for s in packed]

    # --- operations --------------------------------------------------------

    def new_tube(self, label: str, contents=(), *, rows=None) -> Tube:
        """A tube of the given strands, or of every strand in the product of token rows.

        `rows=[row_1, ..., row_n]`, each row the tokens of one vertex, gives
        the contents of itertools.product(*rows) in the same order without
        building a token tuple per strand.
        """
        if rows is None:
            packed = self._pack(contents)
        elif contents:
            raise ValueError("new_tube takes contents or rows, not both")
        else:
            packed = self._pack_rows(rows)
        tube = Tube(label, self, packed)
        self._credit(len(tube))
        return tube

    def append(self, tube: Tube, cw: Codeword) -> Tube:
        """Extend every strand in the tube with cw's (vertex, color) token."""
        self._require_live(tube)
        v = cw.vertex
        bit = self._bit_of((v, cw.color))
        strands = tube.packed
        delta = {}
        for oid in set(map(ORDER_MASK.__and__, strands)):
            order = self._orders[oid]
            if v in order:
                raise MachineFault(f"append: strand already assigns vertex {v}")
            delta[oid] = bit + self._oid_of(order + (v,)) - oid
        if len(delta) == 1:
            (d,) = delta.values()
            tube.packed = list(map(d.__add__, strands))
        else:
            tube.packed = [s + delta[s & ORDER_MASK] for s in strands]
        self.counter.append += 1
        return tube

    def copy(self, tube: Tube, count: int) -> list[Tube]:
        """Pour the tube into `count` identical copies; the source ends empty."""
        self._require_live(tube)
        if count < 1:
            raise ValueError(f"copy count must be at least 1, got {count}")
        src = tube.packed
        copies = [Tube(f"{tube.label}#{i}", self, src[:]) for i in range(1, count + 1)]
        tube.packed = []
        self._credit((count - 1) * len(src))
        self.counter.copy += 1
        return copies

    def merge(self, dest: Tube, sources) -> Tube:
        """Pour every source into dest; sources end empty.  One counter tick."""
        self._require_live(dest)
        for src in sources:
            if src is dest:
                raise MachineFault("merge: tube cannot be merged into itself")
            self._require_live(src)
            dest.packed.extend(src.packed)
            src.packed = []
        self.counter.merge += 1
        return dest

    def extract(
        self,
        tube: Tube,
        cw: Codeword,
        match_mode: str = "symbolic",
        cb: Codebook | None = None,
    ) -> tuple[Tube, Tube]:
        """Partition the tube by cw into (matching, rest); the source ends empty.

        Symbolic mode tests token membership.  Nucleotide mode tests whether
        cw's base sequence occurs in the rendered strand, and is refused unless
        the codebook passed validation, since substring search on an unsafe
        codebook can disagree with token membership.  Both outputs keep the
        source's strand order.
        """
        self._require_live(tube)
        strands = tube.packed
        if match_mode == "symbolic":
            has_token = self._bit.get((cw.vertex, cw.color), 0).__and__  # a token never seen is in no strand
            plus, minus = filter(has_token, strands), filterfalse(has_token, strands)
        elif match_mode == "nucleotide":
            if cb is None:
                raise SoundnessError("nucleotide extract needs a codebook")
            if not cb.validation().ok:
                raise SoundnessError("nucleotide extract refused: codebook failed validation")
            seq = cw.sequence
            flags = [seq in render(s, cb) for s in self._unpack(strands)]
            plus, minus = compress(strands, flags), compress(strands, map(not_, flags))
        else:
            raise ValueError(f"unknown match mode {match_mode!r}")
        tube.packed = []
        self.counter.extract += 1
        return Tube(f"{tube.label}+", self, list(plus)), Tube(f"{tube.label}-", self, list(minus))

    def detect(self, tube: Tube) -> bool:
        self._require_live(tube)
        self.counter.detect += 1
        return bool(tube.packed)

    def discard(self, tube: Tube) -> None:
        """Drop the tube's contents and retire it; later operations on it fault."""
        self._require_live(tube)
        self._credit(-len(tube.packed))
        tube.packed = []
        tube.retired = True
        self.counter.discard += 1
