"""Exact scalar invariants of connected graphs.

Everything here is integer or reduced-rational arithmetic; no floating point
is used anywhere, so threshold comparisons in downstream predicates stay
exact at the boundary cases where they matter.  Rational values (average
degree, average transmission) are :class:`fractions.Fraction`, which stores a
reduced numerator/denominator pair and compares by integer cross
multiplication.

:func:`full_report` is the single-graph definition of every invariant.
:func:`lane_reports` is a fast path for a block of graphs of any one order
n <= 255, one graph per lane of a Python int, the lane 16 to 256 bits wide
by the order; its reports are checked field by field against
:func:`full_report` in the tests.  Its lane BFS keeps per-source sums, not
levels, so a block is O(n) packed ints at any diameter.  It evaluates claim
gates on the packed columns, and a disconnected graph is a bit of its word,
not an exception.  ``ud.lane_ud_certificates`` scans each block's UD pairs
over the same lane BFS's eccentricities and transposed eccentric sets
(``_Lanes.columns``); :func:`lane_wiener_e1` reads only W and E1.

The kernel has one input, a :class:`Block`: the order, the number of lanes
and the packed adjacency rows; ``graph(j)`` unpacks lane j's :class:`Graph`
only when called, and ``graph6()`` writes every lane's graph6 from the rows.
``Block.of`` keeps the row tuples of the sampler's accepted lanes and packs
them when the kernel first reads its rows; ``Block.keep`` gathers the kept
lanes of a block of rows (the mask scan's, a filter's) with no tuple;
``gate_words`` runs a filter's gate alone; ``Block.of_pairs`` builds the
rows of graph6 input from its pair bits, with no :class:`Graph` per line
(the ``invariants`` and ``ud`` commands); the tree sweep builds its blocks'
rows itself, and ``Block.sums`` of its blocks gives the kernel the BFS's
sums in closed form and ``Block.edges`` their parent edges;
``theorems.hunt`` takes T3.3's complements from a block's rows.
"""

from __future__ import annotations

import struct
from itertools import compress
from math import gcd
from typing import TYPE_CHECKING, NamedTuple

from .graphs import DistanceData, Graph, GraphError, _iter_bits, all_pairs_distances

if TYPE_CHECKING:
    from fractions import Fraction


# CSV and JSON columns, in output order
_COLUMNS = (
    "n", "m", "diam", "rad", "W", "E1", "E2", "totecc", "xic", "nprime",
    "avd_num", "avd_den", "avt_num", "avt_den", "self_centered",
)  # fmt: skip
CSV_HEADER = ",".join(_COLUMNS)
# one row's templates, "{i}" standing for the value of column i; the JSON row
# is json.dumps(to_json_dict(), sort_keys=True), so its keys go sorted
_CSV_ROW = ",".join(f"{{{i}}}" for i in range(len(_COLUMNS)))
_JSON_ROW = "{{%s}}" % ", ".join(
    f'"{name}": {{{i}}}' for name, i in sorted(zip(_COLUMNS, range(len(_COLUMNS))))
)
_TEXT = ("false", "true")  # a boolean's CSV and JSON text


class InvariantReport(NamedTuple):
    """Every scalar invariant of one connected graph, all exact."""

    n: int
    m: int
    diam: int
    rad: int
    wiener: int
    e1: int
    e2: int
    total_ecc: int
    ecc_connectivity: int
    n_universal: int
    self_centered: bool

    @property
    def avd(self) -> Fraction:
        """Average degree 2m/n."""
        from fractions import Fraction

        return Fraction(2 * self.m, self.n)

    @property
    def avt(self) -> Fraction:
        """Average transmission 2W/n."""
        from fractions import Fraction

        return Fraction(2 * self.wiener, self.n)

    def _values(self, bools=(False, True)) -> tuple:
        """Every column's value, in ``_COLUMNS`` order, with avd and avt
        reduced once and self_centered as ``bools[self_centered]``."""
        n, m, w = self.n, self.m, self.wiener
        d = gcd(2 * m, n)
        t = gcd(2 * w, n)
        return (
            n, m, self.diam, self.rad, w, self.e1, self.e2, self.total_ecc,
            self.ecc_connectivity, self.n_universal,
            2 * m // d, n // d, 2 * w // t, n // t, bools[self.self_centered],
        )  # fmt: skip

    def csv_row(self) -> str:
        return _CSV_ROW.format(*self._values(_TEXT))

    def json_row(self) -> str:
        """``json.dumps(self.to_json_dict(), sort_keys=True)``."""
        return _JSON_ROW.format(*self._values(_TEXT))

    def to_json_dict(self) -> dict:
        return dict(zip(_COLUMNS, self._values()))


def full_report(g: Graph, dist: DistanceData | None = None) -> InvariantReport:
    """Compute every invariant of a connected graph in one pass; this is the
    single-graph definition of each of them."""
    if g.n < 1:
        raise GraphError("invariant report needs at least one vertex")
    if dist is None:
        dist = all_pairs_distances(g)
    n = g.n
    m = g.m
    ecc = dist.ecc
    total = sum(dist.tr)
    if total % 2:
        raise GraphError("transmission total is odd; distance data corrupt")
    w = total // 2
    bits = g.bits
    e2 = 0
    for u in range(n):
        # each edge once, from its lower endpoint
        rest = bits[u] >> (u + 1)
        eu = ecc[u]
        v = u + 1
        while rest:
            low = rest & -rest
            e2 += eu * ecc[v + low.bit_length() - 1]
            rest ^= low
    return InvariantReport(
        n=n,
        m=m,
        diam=dist.diam,
        rad=dist.rad,
        wiener=w,
        e1=sum(e * e for e in ecc),
        e2=e2,
        total_ecc=sum(ecc),
        ecc_connectivity=sum(b.bit_count() * ecc[v] for v, b in enumerate(bits)),
        n_universal=sum(1 for b in bits if b.bit_count() == n - 1),
        self_centered=dist.diam == dist.rad,
    )


# One graph per lane of w = lane_width(n) = max(16, 1 << n.bit_length()) bits
# (:class:`Lanes`).  Bit w - 1 of every lane is then free, which the lane
# tests need, and every lane sum (the largest, 2 * E2, is at most 2 * C(n, 2)
# * (n - 1)^2) is below 2^w.  The SWAR popcount sums a lane's bytes in its low
# byte, exact for a count below 2^8, and a lane holds at most n bits: hence
# n <= 255.
LANE_MAX_N = 255

# graphs per block that the callers of the kernel hand it at a time
LANE_BLOCK = 1024

# a lane of up to 64 bits is one struct word; a wider one packs from bytes
_WORDS = {16: "H", 32: "I", 64: "Q"}


def lane_width(n: int) -> int:
    """Bits per lane for graphs of order n (see above)."""
    return max(16, 1 << n.bit_length())


def pack_lanes(values, width: int) -> int:
    """The int whose lanes, each ``width`` bits wide, hold ``values``, lane 0
    first; the inverse of :func:`unpack_lanes`."""
    word = _WORDS.get(width)
    if word:
        return int.from_bytes(struct.pack(f"<{len(values)}{word}", *values), "little")
    size = width // 8
    return int.from_bytes(b"".join(v.to_bytes(size, "little") for v in values), "little")


def unpack_lanes(x: int, width: int, k: int):
    """The k lanes of x, each ``width`` bits wide, lane 0 first."""
    size = width // 8
    data = x.to_bytes(size * k, "little")
    word = _WORDS.get(width)
    if word:
        return struct.unpack(f"<{k}{word}", data)
    return [int.from_bytes(data[i : i + size], "little") for i in range(0, len(data), size)]


class Lanes:
    """The packed-lane format of k graphs of order 1 <= n <= 255 (see above):
    graph j's value in lane j of ``width`` bits, ``lane`` one lane's mask, and
    ``ones``, ``full``, ``low`` and ``bias`` 1, the n vertex bits, the bits
    below ``top`` and bit top in every lane.  The methods are every lane
    pass's lane-wise operations (Warren, *Hacker's Delight*, ch. 2 and 5)."""

    def __init__(self, n: int, k: int):
        self.n, self.k = n, k
        self.width = width = lane_width(n)
        self.top = top = width - 1
        self.lane = lane = (1 << width) - 1
        self.ones = ones = int.from_bytes((b"\x01" + bytes(width // 8 - 1)) * k, "little")
        self.full = ones * ((1 << n) - 1)
        self.low = ones * (lane >> 1)
        self.bias = ones << top
        self._cuts = {}  # c: 2^top - c in every lane, for at_least
        # 0x55.., 0x33.. and 0x0F.. over every lane, and each lane's low byte
        self._masks = tuple(ones * x for x in (lane // 3, lane // 5, lane // 17, 0xFF))
        self._folds = [8 << i for i in range(width.bit_length() - 4)]  # 8, ..., width / 2
        # (shift, mask) steps folding the upper half of the lanes onto the lower
        spans = [width << i for i in reversed(range((k - 1).bit_length()))]
        self._halves = [(span, (1 << span) - 1) for span in spans]

    def pack(self, values) -> int:
        """The int whose lanes hold ``values``, lane 0 first."""
        return pack_lanes(values, self.width)

    def unpack(self, x: int):
        """Every lane of x, lane 0 first."""
        return unpack_lanes(x, self.width, self.k)

    def nonzero(self, x: int) -> int:
        """1 in each lane of x that is not zero; lanes must be below 2^top."""
        return ((x + self.low) >> self.top) & self.ones

    def zero(self, x: int) -> int:
        """1 in each lane of x that is zero; lanes must be below 2^top."""
        return self.ones ^ self.nonzero(x)

    def ge(self, a: int, b: int) -> int:
        """1 in each lane where a >= b; lanes must be below 2^top.  a - b
        biased by 2^top borrows in no lane, and has bit top set where a >= b."""
        return ((a + self.bias - b) >> self.top) & self.ones

    def at_least(self, x: int, c: int) -> int:
        """1 in each lane of x >= the integer c; lanes must be below 2^top.
        It is ``ge(x, c * ones)``, its cut ``bias - c * ones`` made once per c."""
        if c <= 0 or c >> self.top:
            return self.ones if c <= 0 else 0
        cut = self._cuts.get(c)
        if cut is None:
            cut = self._cuts[c] = self.bias - c * self.ones
        return ((x + cut) >> self.top) & self.ones

    def max(self, a: int, b: int) -> int:
        """Each lane's larger of a and b; lanes must be below 2^top."""
        return a ^ (a ^ b) & self.ge(b, a) * self.lane

    def min(self, a: int, b: int) -> int:
        """Each lane's smaller of a and b; lanes must be below 2^top."""
        return b ^ (a ^ b) & self.ge(b, a) * self.lane

    def popcount(self, x: int) -> int:
        """Each lane's number of set bits, in that lane (at most 255)."""
        m55, m33, m0f, mff = self._masks
        x -= (x >> 1) & m55
        x = (x & m33) + ((x >> 2) & m33)
        x = (x + (x >> 4)) & m0f
        for shift in self._folds:
            x += x >> shift
        return x & mff

    def times(self, a: int, b: int, bound: int) -> int:
        """Each lane's product of a and b, for lanes of b at most ``bound`` and
        products that fit a lane: a << i summed over the set bits i of b."""
        ones, lane = self.ones, self.lane
        return sum((a << i) & ((b >> i) & ones) * lane for i in range(bound.bit_length()))

    def union(self, x: int) -> int:
        """The union of every lane of x, as one lane."""
        for shift, mask in self._halves:
            x = (x | x >> shift) & mask
        return x

    def bits(self, x: int):
        """Each position set in some lane of x, ascending, from their union: a
        filter on positions acts on the index, as a shift of x crosses lanes."""
        return _iter_bits(self.union(x))


class Block:
    """The lane kernel's one input: k graphs of one order 1 <= n <= 255,
    ``rows[u]`` holding row u of graph j in its lane j of ``lane_width(n)``
    bits.  A block keeps the rows or the row tuples it was built from and
    makes the other at its first read: ``rows`` packs the tuples, and
    ``graph(j)``, lane j's :class:`Graph`, reads one transpose of the rows;
    ``graph6()`` builds no :class:`Graph`."""

    __slots__ = ("n", "k", "_rows", "_lanes")

    def __init__(self, n: int, k: int, rows: list | None, lanes=None):
        self.n, self.k, self._rows, self._lanes = n, k, rows, lanes

    @classmethod
    def of(cls, n: int, lanes):
        """The block of a non-empty list of graphs of one order 1..255, each
        given by its row tuple, as ``Graph.bits``."""
        if not 1 <= n <= LANE_MAX_N or any(len(lane) != n for lane in lanes):
            raise GraphError(f"lane reports need graphs of one order 1..{LANE_MAX_N}")
        return cls(n, len(lanes), None, lanes)

    @property
    def rows(self) -> list:
        if self._rows is None:
            self._rows = [pack_lanes(col, lane_width(self.n)) for col in zip(*self._lanes)]
        return self._rows

    @classmethod
    def of_pairs(cls, n: int, pairs: list):
        """The block of a non-empty list of graphs of one order 1..255, each
        given by its pair bits (``graphs.decode_graph6``), built in every
        lane at once.  Column v of the pairs, ``(pairs >> v(v-1)/2) &
        (2^v - 1)``, is the lower half of row v, the column split of
        ``graphs._rows_from_pairs``; the upper halves are its transpose,
        which for each v visits only the u in some lane's column v."""
        if not 1 <= n <= LANE_MAX_N:
            raise GraphError(f"lane reports need graphs of one order 1..{LANE_MAX_N}")
        lanes = Lanes(n, len(pairs))
        pack, bits, ones = lanes.pack, lanes.bits, lanes.ones
        rows = [0] * n
        shift = 0
        for v in range(1, n):
            mask = (1 << v) - 1
            col = pack([p >> shift & mask for p in pairs])
            shift += v
            rows[v] = col  # the later columns add row v's upper half
            for u in bits(col):  # each u in some lane's column v
                rows[u] |= (col >> u & ones) << v
        return cls(n, lanes.k, rows)

    def graph(self, j: int) -> Graph:
        """Lane j's :class:`Graph`."""
        if self._lanes is None:
            width = lane_width(self.n)
            self._lanes = list(zip(*(unpack_lanes(row, width, self.k) for row in self.rows)))
        return Graph._raw(self.n, self._lanes[j])

    def keep(self, flags) -> Block:
        """The block of the lanes whose flag is set, at least one: a block of
        row tuples keeps the kept tuples, and one of packed rows gathers each
        row's kept lanes, building no tuple."""
        if self._lanes is not None:
            return Block(self.n, sum(flags), None, list(compress(self._lanes, flags)))
        width, k = lane_width(self.n), self.k
        rows = [pack_lanes([*compress(unpack_lanes(r, width, k), flags)], width) for r in self._rows]
        return Block(self.n, sum(flags), rows)

    def graph6(self) -> tuple[str, int]:
        """Every lane's graph6 line and newline as one text of records of one
        length, and that length.  A character is 63 plus six pair bits summed
        lane-wise, and its lanes' low bytes fill its place in every record."""
        n, k, rows = self.n, self.k, self.rows
        lanes = Lanes(n, k)
        head = [n + 63] if n < 63 else [126, 63, (n >> 6) + 63, (n & 63) + 63]
        chars = [63 * lanes.ones] * -(-n * (n - 1) // 12)
        for p, (u, v) in enumerate((u, v) for v in range(1, n) for u in range(v)):
            chars[p // 6] += ((rows[v] >> u) & lanes.ones) << (5 - p % 6)
        size, step = len(head) + len(chars) + 1, lanes.width // 8
        buf = bytearray(size * k)
        for c, x in enumerate([h * lanes.ones for h in head] + chars + [10 * lanes.ones]):
            buf[c::size] = x.to_bytes(step * k, "little")[::step]
        return buf.decode(), size

    def sums(self):
        """The kernel's per-source sums ``(ecc, tr, far, depth)`` of a block
        of connected graphs, as ``_Lanes`` keeps them, where the block has
        them without a BFS, and else None: the kernel then runs its BFS.  The
        tree sweep's blocks have them in closed form."""
        return None

    def edges(self):
        """A block of trees' parent edges ``(i, j, hit)``, each vertex i >= 1
        with one parent j < i in every lane (in the lanes of ``hit``), where
        it lists them (the tree sweep's blocks), and else None."""
        return None


class _Lanes(Lanes):
    """A block's lane-packed BFS, one per source s, run in every lane at
    once.  It keeps no levels F_d(s), only each source's eccentricity
    ``ecc[s]`` (the number of levels), transmission ``tr[s]`` (the sum of
    d * |F_d(s)|, counted from log2(n) bit slices of the levels, not one
    popcount per level) and eccentric set ``far[s]`` (the last level; s
    itself in K1).  Tr is counted only for a caller that reads it: ``tr`` is
    None with ``tr=False`` (the UD scan).  ``depth`` is the largest
    eccentricity in any lane; ``connected`` has bit 0 of a lane set when the
    BFS from vertex 0 covers it, and every other lane is then emptied, so the
    BFS costs nothing more there and leaves values no caller reads.  A block
    whose ``sums()`` has them, every graph connected, skips the BFS.
    """

    def __init__(self, block, tr: bool = True):
        if not isinstance(block, Block):
            raise TypeError("the lane kernel takes a Block")
        super().__init__(block.n, block.k)
        n, lane, ones, full = self.n, self.lane, self.ones, self.full
        self.rows = rows = block.rows
        sums = block.sums()
        if sums is not None:
            self.ecc, self.tr, self.far, self.depth = sums
            self.connected = ones
            return
        popcount, nonzero, bits = self.popcount, self.nonzero, self.bits
        self.ecc = eccs = []
        self.tr = trs = [] if tr else None
        self.far = far = []
        self.depth = 0
        for s in range(n):
            front = seen = last = ones << s
            ecc = d = 0
            slices = [0] * n.bit_length()  # [b]: the levels d with bit b of d set
            while True:
                nxt = 0
                for u in bits(front):  # each vertex in some lane's frontier
                    nxt |= rows[u] & (((front >> u) & ones) * lane)
                nxt &= full ^ seen
                if not nxt:
                    break
                seen |= nxt
                d += 1
                if tr:
                    for b in range(d.bit_length()):
                        if d >> b & 1:
                            slices[b] |= nxt
                reached = nonzero(nxt)  # the lanes this level reaches
                ecc += reached
                # each lane this level reaches takes it as its last level
                last ^= (last ^ nxt) & (reached * lane)
                front = nxt
            if s == 0:
                self.connected = connected = self.zero(full ^ seen)
                if connected != ones:  # tr[0] too: each lane of sum(tr) stays even
                    keep = connected * lane
                    rows = self.rows = [row & keep for row in rows]
                    slices = [x & keep for x in slices]
            self.depth = max(self.depth, d)
            eccs.append(ecc)
            far.append(last)
            if tr:  # Tr(s) = sum_d d * |F_d| = sum_b 2^b * |slices[b]|
                trs.append(sum(popcount(x) << b for b, x in enumerate(slices) if x))

    def columns(self):
        """``col[x]``, bit w of a lane set when x is in ``far[w]`` there: the
        transpose of the eccentric sets, visiting for each w only the
        vertices in some lane's ``far[w]``.  A lane where ``far[w]`` holds
        more than half of the vertices (K_n, say) transposes its complement
        instead, which has fewer, and flips its bit w of every column at the
        end."""
        ones, full, lane = self.ones, self.full, self.lane
        dense = self.n // 2 + 1
        col = [0] * self.n
        flipped = 0
        for w, f in enumerate(self.far):
            flip = self.at_least(self.popcount(f), dense)
            f ^= full & flip * lane
            flipped |= flip << w
            for x in self.bits(f):
                col[x] |= ((f >> x) & ones) << w
        return [c ^ flipped for c in col]


def lane_reports(block: Block, gates) -> tuple[list, list]:
    """Every graph's gate word and report ``(words, reports)``, for a
    :class:`Block` of graphs of one order 1 <= n <= 255.

    ``gates`` are at most 13 tuples of terms ``(column, op, bound)``
    (``column`` one of n, m, diam, nprime, min_degree and self_centered,
    which is 0 or 1; ``op`` one of ==, !=, >= and <=; ``bound`` an integer
    or a function of n); the empty gate holds on every connected graph.  Bit i of
    ``words[k]`` is set when every term of gate i holds in graph k,
    evaluated on the packed columns; the next two bits when L4.1 fails there
    and when it holds with equality; and the bit after them when graph k is
    disconnected, which clears the others.  A word has no more bits than
    the narrowest lane, 16.  ``reports[k]`` is None unless some gate holds
    there, so always None on a disconnected graph.

    Every value is read from the lane BFS: ecc(s), Tr(s) and the eccentric
    sets.  The threshold sets H_a = {u : ecc(u) >= a} give the rest: E1 is
    the sum of (2a - 1) * |H_a|, since 2a - 1 summed over a = 1..e
    telescopes to e^2; with C(u) = sum_a |N(u) & H_a|, the sum of ecc over
    u's neighbours, xic = sum_u C(u), 2 * E2 = sum_a sum_{u in H_a} C(u),
    diam = #{a : H_a nonempty} and rad = #{a : H_a = V}.  L4.1's zero-gap
    condition holds at v exactly when v lies in every other vertex's
    eccentric set, the last level from it.
    """
    if len(gates) > 13:  # a word's bits must fit the narrowest lane, 16 bits
        raise GraphError("lane reports take at most 13 gates")
    lanes = _Lanes(block)
    n, lane, ones, full = lanes.n, lanes.lane, lanes.ones, lanes.full
    nonzero, ge, popcount, unpack = lanes.nonzero, lanes.ge, lanes.popcount, lanes.unpack
    ecc, tr, depth = lanes.ecc, lanes.tr, lanes.depth
    values, hs, held = _gates(lanes, lanes.rows, gates)
    e1 = sum((2 * a - 1) * popcount(hs[a]) for a in range(1, depth + 1))
    xic = e2x2 = 0
    edges = block.edges()
    if edges is None:
        for u, row in enumerate(lanes.rows):
            cu = 0
            for a in range(1, depth + 1):
                cu += popcount(row & hs[a])
            xic += cu
            for a in range(1, depth + 1):
                e2x2 += cu & (((hs[a] >> u) & ones) * lane)
    else:
        # a tree's n - 1 edges, each once as vertex i >= 1 and its parent,
        # whose eccentricity is pe[i]: xic sums both ends, E2 their product
        pe = [0] * n
        for i, j, hit in edges:
            pe[i] |= ecc[j] & hit * lane
        xic = sum(ecc[1:]) + sum(pe)
        e2x2 = sum(lanes.times(e, p, depth) for e, p in zip(ecc[1:], pe[1:])) << 1
    total = sum(ecc)

    # L4.1: gap(v) = totecc - ecc(v) - Tr(v).  Bit v of a lane of common is
    # set when v is in every other vertex's eccentric set there: the zero-gap
    # condition
    common = full
    for u, last in enumerate(lanes.far):
        common &= last | ones << u
    failed = equal = 0
    for v in range(n):
        cost = ecc[v] + tr[v]
        nonneg = ge(total, cost)
        tight = nonneg & ge(cost, total)
        failed |= (ones ^ nonneg) | (tight ^ ((common >> v) & ones))
        equal |= tight

    # every lane of sum(tr) and e2x2 is even, so a shift halves each lane
    m, diam, rad, nprime = map(values.get, ("m", "diam", "rad", "nprime"))
    columns = (m, diam, rad, sum(tr) >> 1, e1, e2x2 >> 1, total, xic, nprime)
    connected = lanes.connected
    ngates = len(gates)
    word = (failed << ngates | equal << ngates + 1) & (connected << ngates) * 3 | held
    word |= (ones ^ connected) << ngates + 2
    reports = [
        InvariantReport(n, m, dm, rd, w, ec1, ec2, tot, x, nu, dm == rd) if b else None
        for b, m, dm, rd, w, ec1, ec2, tot, x, nu in zip(unpack(nonzero(held)), *map(unpack, columns))
    ]
    return unpack(word), reports


def gate_words(block: Block, gates) -> list:
    """Every graph's gate bits, those of :func:`lane_reports`' words, and no
    report, for a :class:`Block` of connected graphs (a sweep filter's):
    gates over n, m, nprime and min_degree alone run no BFS."""
    rows_only = {term[0] for gate in gates for term in gate} <= {"n", "m", "nprime", "min_degree"}
    lanes = Lanes(block.n, block.k) if rows_only else _Lanes(block, tr=False)
    return lanes.unpack(_gates(lanes, block.rows, gates)[2])


def _gates(lanes, rows, gates) -> tuple[dict, list, int]:
    """The packed gate columns of a block's ``rows``, the sets H_a of its lane
    BFS ``lanes``, and bit i of a lane set where it is connected and every
    term of gate i holds.  With a plain :class:`Lanes`, no BFS, every lane
    counts as connected, and only n, m, nprime and min_degree are read."""
    n, ones, full, zero, at_least = lanes.n, lanes.ones, lanes.full, lanes.zero, lanes.at_least
    m2 = n_univ = 0
    low = n * ones  # the minimum degree
    for u, row in enumerate(rows):
        deg = lanes.popcount(row)
        m2 += deg
        low = lanes.min(low, deg)
        n_univ += zero(row ^ (full ^ (ones << u)))
    # every lane of m2 is even, so a shift halves each lane
    values = dict(n=n * ones, m=m2 >> 1, nprime=n_univ, min_degree=low)
    hs, connected = None, ones
    if isinstance(lanes, _Lanes):
        hs = [full] + [0] * lanes.depth  # hs[a] = H_a
        for s, e in enumerate(lanes.ecc):
            for a in range(1, lanes.depth + 1):
                h = at_least(e, a)
                if not h:  # no lane has ecc(s) >= a, so none has it for any larger a
                    break
                hs[a] |= h << s
        diam = sum(map(lanes.nonzero, hs[1:]))
        rad = sum(zero(full ^ h) for h in hs[1:])
        values.update(diam=diam, rad=rad, self_centered=zero(diam ^ rad))
        connected = lanes.connected
    word = 0
    terms = {}
    for i, gate in enumerate(gates):
        held = connected
        for term in gate:
            if term not in terms:
                column, op, bound = term
                c = bound(n) if callable(bound) else bound
                geq = at_least(values[column], c)
                gt = at_least(values[column], c + 1)
                eq = geq ^ gt
                terms[term] = {">=": geq, "<=": ones ^ gt, "==": eq, "!=": ones ^ eq}[op]
            held &= terms[term]
        word |= held << i
    return values, hs, word


def lane_wiener_e1(block: Block) -> list[tuple[int, int] | None]:
    """Every graph's ``(W, E1)`` and no other column, for a :class:`Block` of
    graphs of one order 1 <= n <= 255, and None for a disconnected graph: W
    is half the sum of the lane BFS's Tr(s), and E1 the sum of ecc(s)^2."""
    lanes = _Lanes(block)
    e1 = sum(lanes.times(e, e, lanes.depth) for e in lanes.ecc)
    packed = map(lanes.unpack, (lanes.connected, sum(lanes.tr) >> 1, e1))
    return [(w, e) if c else None for c, w, e in zip(*packed)]
