"""Simulated test-tube bench: labeled strand multisets and the six operations.

A TubeMachine hands out tubes and performs Append, Copy, Merge, Extract,
Detect, and Discard on them, charging one counter tick per call and keeping
the run's peak strand count; the README states how each operation pours and
how the peak is counted.  The tokens are the ground truth the simulator
reasons about, and a codeword's base sequence only ever decides membership.

Runs.  A tube is a tuple of runs, each a frame (frames.py: the strands of one
vertex order as a byte matrix of planes by slots, whose module docstring
gives the layout) or a product run.  Both give the operations one interface:
`count`, `live` (the live mask, built with the run), column(i) (the live
strands that hold token i) and split(starts), so every operation has one
body; a frame also carries the strands' vertex `order`.  Extract splits each
run by a column, append grows each frame, copy shares the tuple as read
(Tube.runs) and merge concatenates the tuples.
new_tube makes one frame per stretch of strands of one order, so a tube of
no strand has no run and builds no frame.  The machine keeps no table of
orders: an order lives as long as a run carries it, so the machine holds
only live orders.

Lazy join.  Adjacent frames of one order are joined, compacted and in order,
only when the tube is next read (Tube.runs, which groups the runs in one
groupby pass and so compares each pair of neighbouring orders once).  So a
merged tube discarded unread, like the solver's bad tubes, is never joined
or compacted; joining at every merge made the incremental engine about 45%
slower.  A tube that is one frame, as the solver's survivor tube and its
color copies are between merges, is read as it is, with no regrouping.
Copy reads its tube before it shares the runs, so the k copies share one
joined frame rather than each joining its own.

Product runs.  The monolithic start tube, new_tube(rows=...), is one run of
no field: a live mask over the product of its rows, strand i of
itertools.product(*rows) live iff bit i is set.  This is the sticker layout
sliced by column.  Entry j of row r spans runs of as many strands as the
later rows' product, so its column is the column of the row's first entry
shifted up j runs; only that first column is built, by shift-doubling on
first use, and the _Product that both outputs of a split share caches it,
one mask per row rather than one per token.  Extract is then one big-int AND
(`hit = live & column`, rest `live ^ hit`).  Copy decodes a product run to a
frame, so split is the only operation that makes a second run over a
_Product, runs of one product never share a strand, and merge ORs adjacent
runs of one product with no AND.

The live count.  Only new_tube and copy raise the strands in the tubes, so
only they take the count (TubeMachine._count), the sum of len over every
tube built or refilled by a merge and not emptied since, plus the strands
they are about to add, and raise peak_tube_size to it; discard counts
nothing.  They take it before any strand is built, so a machine with a
strand budget refuses (OverBudget) an operation that would put more strands
in the tubes than the budget: copy before it reads the runs, new_tube(rows=)
before it builds the mask and new_tube from contents before its frames.

Decoding a product run.  Tube.runs, which append, copy, contents and colors
read, turns a mask into one frame, in product order, the first time the
strands are read.  A mask with fewer set bits than size / SPARSE_DECODE is
decoded sparsely: one regular-expression scan finds the non-zero bytes of the
mask's bytes, and each set bit's index is read as mixed-radix digits (last
row fastest); a denser mask is decoded by walking the whole product.  The two
tie at 1/100 to 1/128 of the strands on 3^10, 4^9, 3^12 and 2^16 strands,
whatever the row count, and at 1/25 the walk is 2.6 to 3.5 times faster.  Only
rows= builds a mask: a mask over k**i strands for a tube that grows by append
would bring back the blow-up the incremental engine avoids.

Byte-table decode (Tube.colors).  One decode uses one width: every requested
vertex gets as many bits as the largest color among them needs (at least
one), and the vertices, in order, are cut into groups of 64 // width, one
64-bit word each, the first vertex of a group the most significant.  Per
group, a strand's key is the OR of its tokens' colors, each shifted to its
vertex's bits, so each key byte is an OR over the field bytes that hold the
group's tokens.  frames.key_tables builds, from the tokens' places and
colors alone, one 256-entry bytes.translate table per (key byte, field byte)
pair, entry b the OR of that key byte over the tokens whose bits are set in
b.  Frame.keys reads a run's compacted matrix once, translates each feeding
plane, one contiguous slice of every strand's byte, through its table, ORs
the planes into the key byte and interleaves the key bytes into one word per
strand; no token column is read.
frames.bit_fields cuts each vertex's colors back out of the keys, which are
dropped once cut.  One group's keys are sorted as ints before the cut,
several groups' rows as tuples after it, which is the same lexicographic
order.  A color must fit one word, so the machine refuses any other when a
token first enters (_index_of).

Tube.contents unpacks every strand to its token tuple in append order; it is
the per-strand reference that the byte-table decode and the repeat check are
tested against.

Nucleotide extract.  A machine with a codebook keeps the strands whose
rendered bases hold the probe's sequence, and finds them one of two ways.
A probe whose sequence is a codeword's, looked up in the codebook's reverse
map (the machine keeps no copy), is split by that token's column, as a
symbolic extract is: on a validated codebook a codeword occurs in rendered
bases only where its own token is, so no strand is rendered and product
runs stay masks.  The empty probe takes every run's live strands, the
blank strand too.  Any other probe is searched strand by strand: the tube's
strands are read as token tuples, each rendered and kept when its bases hold
the sequence, and both outputs are rebuilt as frames, one per stretch of one
vertex order, as new_tube builds them.  Every token has a codeword: a machine
with a codebook refuses one without, with the codebook's CodecError, when
the token first enters (_index_of), and a refused new_tube registers none of
its tokens.
"""

from __future__ import annotations

import re
from itertools import chain, compress, groupby, product
from math import prod
from operator import attrgetter, not_

from .codec import Codebook, Codeword, SoundnessError, Strand, Token, _pairs, _show, render
from .frames import WORD_BITS, Frame, bit_fields, key_tables, place, tile

_DIGIT = bytes.maketrans(b"01", b"\x00\x01")  # a mask's binary digits as 0/1 bytes
_ORDER, _COUNT = attrgetter("order"), attrgetter("count")
SPARSE_DECODE = 128  # a product run with under size / SPARSE_DECODE live strands is decoded bit by bit


class _Product:
    """The strands of itertools.product(*rows), numbered in product order, none of them built.

    `rows` are the rows' token indices, `bits` their bits, so strand i's
    field is the sum of its row entries, and every strand has vertex order
    `order`.  column(index) is the mask of the strands that hold that token.
    """

    __slots__ = ("order", "bits", "size", "_where", "_firsts")

    def __init__(self, order: tuple[int, ...], rows: list[list[int]]):
        self.order, self.bits = order, [[1 << place(i) for i in row] for row in rows]
        self.size = prod(map(len, rows))
        self._where: dict[int, tuple[int, list[int]]] = {}  # index -> (row, positions in the row)
        for r, row in enumerate(rows):
            for j, i in enumerate(row):
                self._where.setdefault(i, (r, []))[1].append(j)
        self._firsts: dict[int, tuple[int, int]] = {}  # row -> (first entry's column, run)

    def column(self, index: int | None) -> int:
        if index not in self._where:
            return 0
        r, positions = self._where[index]
        if r not in self._firsts:
            run = prod(map(len, self.bits[r + 1:]))
            period = len(self.bits[r]) * run
            self._firsts[r] = (tile((1 << run) - 1, period, self.size // period), run)
        first, run = self._firsts[r]
        j, *more = positions
        col = first << j * run if j else first
        for j in more:
            col |= first << j * run
        return col

    def members(self, mask: int) -> list[int]:
        """The fields of the strands whose bits are set in mask, in product order."""
        if mask.bit_count() * SPARSE_DECODE < self.size:
            return self._picked(mask)
        return self._walked(mask)

    def _walked(self, mask: int) -> list[int]:
        digits = bin(mask)[:1:-1].encode().translate(_DIGIT) if mask else b""
        return list(map(sum, compress(product(*self.bits), digits)))

    def _picked(self, mask: int) -> list[int]:
        """The fields of the strands set in mask, one set bit at a time."""
        radices = [(len(row), row) for row in reversed(self.bits)]
        raw = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
        out = []
        for hit in re.finditer(rb"[^\0]", raw):  # compiled on first use, so importing builds no pattern
            at = hit.start()
            byte = raw[at]
            while byte:
                low = byte & -byte
                byte ^= low
                rest, strand = 8 * at + low.bit_length() - 1, 0
                for size, row in radices:
                    rest, j = divmod(rest, size)
                    strand += row[j]
                out.append(strand)
        return out


def _by_vertex(index: dict[Token, int]) -> dict[int, dict[int, Token]]:
    """The token index grouped by vertex: vertex -> {i: token}, i ascending."""
    at: dict[int, dict[int, Token]] = {}
    for token, i in index.items():
        at.setdefault(token[0], {})[i] = token
    return at


def _unpack(at: dict[int, dict[int, Token]], order: tuple[int, ...], fields) -> list[Strand]:
    """Fields of vertex order `order` to token tuples in append order, `at` the index by vertex.

    A field s holds `tokens[s & mask]` in its vertex's (mask, tokens) row.
    """
    rows = []
    for v in order:
        tokens = {1 << place(i): t for i, t in at[v].items()}
        rows.append((sum(tokens), tokens))
    return [tuple([tok[s & m] for m, tok in rows]) for s in fields]


def _items(value, what: str, of: str) -> tuple:
    """tuple(value), or a TypeError that names it: `what` must be an iterable of `of`."""
    try:
        return tuple(value)
    except TypeError:
        raise TypeError(f"{what} must be an iterable of {of}, got {_show(value)}") from None


def _strand(strand, what: str = "a strand") -> Strand:
    """A strand or token row given to new_tube, as the tuple of its tokens; TypeError names one of the wrong kind."""
    return _pairs(_items(strand, what, "(vertex, color) pairs"))


def _check_token(v, c) -> None:
    """Refuse a token's parts of the wrong kind: MachineFault for the color, TypeError for a vertex no dict can hold."""
    if not isinstance(c, int) or not 0 <= c < 1 << WORD_BITS:
        raise MachineFault(f"color {_show(c)} of vertex {_show(v)} is not an int in [0, 2**64)")
    try:
        hash(v)
    except TypeError:
        raise TypeError(f"a vertex must be hashable, got {_show(v)}") from None


class _ProductRun:
    """The strands of a _Product whose bits are set in `live`: a tube run beside frames."""

    __slots__ = ("product", "live")

    def __init__(self, product: _Product, live: int):
        self.product, self.live = product, live

    @property
    def count(self) -> int:
        return self.live.bit_count()

    def column(self, index: int | None) -> int:
        return self.live & self.product.column(index)

    def split(self, starts: int) -> tuple["_ProductRun", "_ProductRun"]:
        """(hit, rest): the strands set in `starts`, a subset of the live mask, and the others."""
        return _ProductRun(self.product, starts), _ProductRun(self.product, self.live ^ starts)

    def frame(self) -> Frame:
        """The strands as one frame, in product order."""
        return Frame.of_fields(self.product.order, self.product.members(self.live))


class MachineFault(RuntimeError):
    """An operation that the bench cannot perform: bad append, discarded or foreign tube, etc."""


class OverBudget(MachineFault):
    """An operation that would put more strands in the tubes than the machine's budget."""


class OpCounter:
    """How many times the machine has run each operation; snapshot() is a copy that later ticks leave alone."""

    __slots__ = ("append", "copy", "merge", "extract", "detect", "discard")

    def __init__(self, append=0, copy=0, merge=0, extract=0, detect=0, discard=0):
        self.append, self.copy, self.merge = append, copy, merge
        self.extract, self.detect, self.discard = extract, detect, discard

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def snapshot(self) -> "OpCounter":
        return OpCounter(**self.as_dict())

    def __eq__(self, other):
        return self.as_dict() == other.as_dict() if other.__class__ is self.__class__ else NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"OpCounter({', '.join(f'{name}={n!r}' for name, n in self.as_dict().items())})"


class Tube:
    """A labeled multiset of strands (order carries no meaning).

    `_runs` is a tuple of non-empty runs, frames and product runs (see the
    module docstring).  A strand names each vertex at most once:
    TubeMachine.new_tube raises MachineFault on one that names a vertex
    twice.
    """

    __slots__ = ("label", "_runs", "retired", "_index")

    def __init__(self, label: str, machine: "TubeMachine", runs: tuple = ()):
        self.label = label
        self._runs = runs
        self.retired = False
        self._index = machine._index  # the token index, not the machine, which holds its tubes
        machine._tubes.add(self)

    @property
    def runs(self) -> tuple:
        """The runs as frames, product runs decoded and adjacent frames of one order joined."""
        runs = self._runs
        if len(runs) == 1 and runs[0].__class__ is Frame:
            return runs
        frames = (run if isinstance(run, Frame) else run.frame() for run in runs)
        groups = [list(group) for _, group in groupby(frames, _ORDER)]
        runs = self._runs = tuple(g[0] if len(g) == 1 else Frame.joined(g) for g in groups)
        return runs

    @property
    def contents(self) -> list[Strand]:
        """The strands as token tuples in append order."""
        at = _by_vertex(self._index)
        return [s for run in self.runs for s in _unpack(at, run.order, run.values())]

    def colors(self, vertices) -> list[tuple[int, ...]]:
        """Each strand's color at each of `vertices`, in lexicographic order (the byte-table decode).

        Every strand must name every one of the vertices: KeyError names one
        that some strand's vertex order lacks.
        """
        vertices, runs = list(vertices), self.runs
        for run in runs:
            if missing := set(vertices).difference(run.order):
                raise KeyError(f"strands of vertex order {run.order} lack vertex {min(missing)}")
        if not vertices:
            return [()] * len(self)
        at = _by_vertex(self._index)
        tokens = [[(i, c) for i, (_, c) in at.get(v, {}).items() if c] for v in vertices]
        width = max(1, max((c for colored in tokens for _, c in colored), default=0).bit_length())
        step = WORD_BITS // width  # vertices per key
        columns = []  # each vertex's colors, in order
        for start in range(0, len(tokens), step):
            group = tokens[start : start + step]
            fields = [(at * width, width) for at in reversed(range(len(group)))]
            tables = key_tables((i, c << at) for colored, (at, _) in zip(group, fields) for i, c in colored)
            keys = chain.from_iterable(run.keys(tables) for run in runs)
            columns += bit_fields(sorted(keys) if len(tokens) <= step else list(keys), fields)
        rows = list(zip(*columns))
        if len(tokens) > step:
            rows.sort()
        return rows

    def distinct(self) -> int:
        """How many different strands the tube holds.

        One ascending frame (see frames.py) is counted without reading a
        field, any other tube by the set of its token tuples.
        """
        runs = self.runs
        if len(runs) == 1 and runs[0].ascending():
            return runs[0].count
        return len(set(self.contents))

    def __len__(self) -> int:
        return sum(map(_COUNT, self._runs))

    def __repr__(self):
        state = "retired" if self.retired else f"{len(self)} strands"
        return f"Tube({self.label!r}, {state})"


class TubeMachine:
    """One bench session: creates tubes, runs operations, keeps the books.

    `codebook` fixes how extract matches for the whole session: None tests
    token membership, a codebook tests for its base sequences.  Substring
    search on an unsafe codebook can disagree with token membership, so a
    codebook that fails validation is refused here, before any tube exists.
    `budget`, an int or None for none, bounds the strands in the tubes at
    any time, and so peak_tube_size (see "The live count" above).

    Refusals.  One guard (_operands) checks every operand an operation
    takes, its kind before its state, before anything moves: TypeError for
    a probe (append's and extract's cw) that is not a Codeword or whose
    sequence is not a str, or an operand that is not a Tube, MachineFault
    for a tube discarded or another machine's, or in merge dest among the
    sources or a source listed twice.  merge also refuses one Tube given as
    its sources with TypeError.  Past that:
    - new_tube raises ValueError for contents and rows both; TypeError for
      contents that are not an iterable of strands or rows that are not an
      iterable of token rows, a strand or row that is not iterable, a token
      that is not a (vertex, color) pair or a vertex that cannot be hashed;
      MachineFault for a strand or rows that name a vertex twice, a row of
      two vertices or a color that is not an int in [0, 2**64); and on a
      machine with a codebook CodecError for a token with no codeword.  A
      refused new_tube registers none of its tokens, whatever it raises;
    - append raises MachineFault for a strand that already names cw's vertex,
      and TypeError, MachineFault or CodecError for cw's token as new_tube
      does;
    - copy raises TypeError for a count that is not an int (a bool is not a
      count) and ValueError for one below 1;
    - new_tube and copy raise OverBudget, a MachineFault, for strands past
      the budget;
    - a symbolic extract raises TypeError or MachineFault for a token that
      cannot be hashed, as new_tube does (one of the right kind never seen
      matches no strand);
    - merge, detect and discard raise nothing more.
    A refused operation changes nothing: no tube, counter, peak or token index.
    """

    def __init__(self, codebook: Codebook | None = None, budget: int | None = None):
        if budget is not None and budget.__class__ is not int:  # a bool is not a budget
            raise TypeError(f"strand budget must be an int or None, got {_show(budget)}")
        if codebook is not None and not codebook.validation().ok:
            raise SoundnessError("nucleotide matching refused: codebook failed validation")
        self.codebook, self.budget = codebook, budget
        self.counter = OpCounter()
        self.peak_tube_size = 0
        self._index: dict[Token, int] = {}  # token -> i, its bit frames.place(i) in a field
        self._tubes: set[Tube] = set()  # every tube that may hold strands: each one built, each merge's dest

    def _count(self, adding: int) -> int:
        """The strands in the tubes once `adding` more are in, refused past the budget; the empty tubes leave the set.

        The caller raises peak_tube_size to it once the operation cannot fail.
        """
        self._tubes = {tube for tube in self._tubes if tube._runs}  # a retired tube has no run
        live = sum(map(len, self._tubes)) + adding
        if self.budget is not None and live > self.budget:
            raise OverBudget(f"{_show(live)} strands would be in the tubes, over the budget of {_show(self.budget)}")
        return live

    def _operands(self, *tubes: Tube, probe: object = ...) -> None:
        """Refuse, before anything moves, an operand of the wrong kind, then a tube in the wrong state.

        TypeError names a probe that is not a Codeword, then one whose
        sequence is not a str (only append and extract give one; `...`
        stands for none).  Then, operand by operand,
        TypeError names one that is not a Tube, and MachineFault a discarded
        tube or another machine's tube; last, MachineFault names one tube
        given twice.  Only merge gives several tubes, dest first, so only it
        pays the repeat test.
        """
        if probe is not ... and not isinstance(probe, Codeword):
            raise TypeError(f"probe must be a Codeword, got {_show(probe)}")
        if probe is not ... and not isinstance(probe.sequence, str):
            raise TypeError(f"probe sequence must be a str, got {_show(probe.sequence)}")
        for tube in tubes:
            if not isinstance(tube, Tube):
                raise TypeError(f"operand must be a Tube, got {_show(tube)}")
            if tube.retired or tube._index is not self._index:
                raise MachineFault(f"tube {tube.label!r} {'was discarded' if tube.retired else 'belongs to another machine'}")
        if len(tubes) > 1 and len(set(tubes)) < len(tubes):  # a Tube hashes and compares by identity
            why = "tube cannot be merged into itself" if tubes[0] in tubes[1:] else "a source tube is listed twice"
            raise MachineFault(f"merge: {why}")

    # --- fields ------------------------------------------------------------

    def _known(self, token: Token) -> int | None:
        """The token's index, or None for a token never seen; a part that cannot be hashed is refused by name."""
        try:
            return self._index.get(token)
        except TypeError:
            _check_token(*token)
            raise

    def _index_of(self, token: Token) -> int:
        i = self._known(token)
        if i is None:
            v, c = token
            _check_token(v, c)
            if self.codebook is not None:
                self.codebook.codeword(v, c)  # raises CodecError for a token with no codeword
            i = self._index[token] = len(self._index)
        return i

    @staticmethod
    def _checked(order: tuple[int, ...]) -> tuple[int, ...]:
        """The vertex order of strands from outside the machine, refused if it names a vertex twice."""
        if len(set(order)) != len(order):
            raise MachineFault(f"strand names a vertex twice: vertex order {_show(order)}")
        return order

    def _product_of(self, rows) -> _Product:
        """itertools.product(*rows) as a _Product, with no strand ever built.

        Each row holds the tokens of one vertex.
        """
        rows = [_strand(row, "a token row") for row in _items(rows, "new_tube rows", "token rows")]
        indices = [list(map(self._index_of, row)) for row in rows]  # every token checked before a vertex is hashed
        order = []
        for row in rows:
            vertices = {v for v, _ in row}
            if len(vertices) > 1:
                raise MachineFault(f"token row names more than one vertex: {_show(sorted(vertices, key=_show))}")
            order.extend(vertices)
        return _Product(self._checked(tuple(order)), indices)

    def _frames(self, strands) -> tuple[Frame, ...]:
        """Token tuples as frames, one per stretch of strands of one vertex order."""
        stretches = groupby(strands, lambda s: tuple(v for v, _ in s))
        fields = [(order, [sum(1 << place(self._index_of(t)) for t in s) for s in group]) for order, group in stretches]
        return tuple(Frame.of_fields(self._checked(order), f) for order, f in fields)

    # --- operations --------------------------------------------------------

    def new_tube(self, label: str, contents=(), *, rows=None) -> Tube:
        """A tube of the given strands, or of every strand in the product of token rows.

        `rows=[row_1, ..., row_n]`, each row the tokens of one vertex, gives
        the strands of itertools.product(*rows), in that order, as one
        product run with no strand built; an empty product gives an empty
        tube.  A refused tube registers none of its tokens.
        """
        if rows is not None and contents:
            raise ValueError("new_tube takes contents or rows, not both")
        strands = () if rows is not None else _items(contents, "new_tube contents", "strands")
        if rows is None and not strands:  # no strand: no frame to build, no token to register
            return Tube(label, self)
        known = len(self._index)
        try:
            if rows is None:
                live = self._count(len(strands))
                runs = self._frames(map(_strand, strands))
            else:
                product = self._product_of(rows)
                live = self._count(product.size)
                runs = (_ProductRun(product, (1 << product.size) - 1),) if product.size else ()
        except BaseException:
            while len(self._index) > known:  # newest first
                self._index.popitem()
            raise
        self.peak_tube_size = max(self.peak_tube_size, live)
        return Tube(label, self, runs)

    def append(self, tube: Tube, cw: Codeword) -> Tube:
        """Extend every strand in the tube with cw's (vertex, color) token.

        Every run's order is checked before the token is registered, so a
        refused append changes nothing.
        """
        self._operands(tube, probe=cw)
        v, runs = cw.vertex, tube.runs
        for run in runs:
            if v in run.order:
                raise MachineFault(f"append: strand already assigns vertex {_show(v)}")
        index = self._index_of((v, cw.color))
        tube._runs = tuple([run.grown(run.order + (v,), index) for run in runs])
        self.counter.append += 1
        return tube

    def copy(self, tube: Tube, count: int) -> list[Tube]:
        """Pour the tube into `count` identical copies; the source ends empty.

        The copies share the tube's runs as read (Tube.runs): adjacent frames
        of one order are joined once for all of them, and a product run is
        decoded to a frame, whose strands are then built.  The read comes
        after the count checks, so a refused copy changes nothing.
        """
        self._operands(tube)
        if count.__class__ is not int:  # a bool is not a count
            raise TypeError(f"copy count must be an int, got {_show(count)}")
        if count < 1:
            raise ValueError(f"copy count must be at least 1, got {_show(count)}")
        live = self._count((count - 1) * len(tube))
        runs = tube.runs
        copies = [Tube(f"{tube.label}#{i}", self, runs) for i in range(1, count + 1)]
        tube._runs = ()
        self.peak_tube_size = max(self.peak_tube_size, live)
        self.counter.copy += 1
        return copies

    def merge(self, dest: Tube, sources) -> Tube:
        """Pour every source into dest; sources end empty.  One counter tick.

        A source that is dest, or is listed twice, faults before anything
        moves.
        """
        if isinstance(sources, Tube):
            raise TypeError(f"merge sources must be an iterable of tubes, got {_show(sources)}")
        sources = list(sources)
        self._operands(dest, *sources)
        runs = []
        for tube in (dest, *sources):
            for run in tube._runs:
                last = runs[-1] if runs else None
                if run.__class__ is last.__class__ is _ProductRun and run.product is last.product:
                    runs[-1] = _ProductRun(run.product, last.live | run.live)  # runs of one product share no strand
                else:
                    runs.append(run)
            tube._runs = ()
        dest._runs = tuple(runs)
        self._tubes.add(dest)  # an emptied dest left the set at the last count
        self.counter.merge += 1
        return dest

    def extract(self, tube: Tube, cw: Codeword) -> tuple[Tube, Tube]:
        """Partition the tube by cw into (matching, rest); the source ends empty.

        Without a codebook a strand matches when it holds cw's token.  With
        one it matches when its rendered bases hold cw.sequence, so the empty
        sequence matches every strand, the blank strand too.  Both outputs
        keep the source's strand order.
        """
        self._operands(tube, probe=cw)
        runs, seq = tube._runs, cw.sequence
        token = (cw.vertex, cw.color) if self.codebook is None else self.codebook._tokens.get(seq)
        if token is None and seq:  # a probe that is no codeword: search strand by strand
            strands = tube.contents
            held = [seq in render(s, self.codebook) for s in strands]
            hits, rests = self._frames(compress(strands, held)), self._frames(compress(strands, map(not_, held)))
        else:  # a token never seen is in no strand; the empty probe holds every strand
            index, hits, rests = self._known(token), [], []
            for run in runs:  # an empty output run is dropped
                hit, rest = run.split(run.column(index) if token else run.live)
                if hit.live:
                    hits.append(hit)
                if rest.live:
                    rests.append(rest)
            hits, rests = tuple(hits), tuple(rests)
        tube._runs = ()
        self.counter.extract += 1
        return Tube(f"{tube.label}+", self, hits), Tube(f"{tube.label}-", self, rests)

    def detect(self, tube: Tube) -> bool:
        self._operands(tube)
        self.counter.detect += 1
        return bool(tube._runs)  # no run is empty

    def discard(self, tube: Tube) -> None:
        """Drop the tube's contents and retire it; later operations on it fault."""
        self._operands(tube)
        tube._runs = ()
        tube.retired = True
        self.counter.discard += 1
