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
only when called.  ``Block.of`` keeps the row tuples of a list of graphs
(the mask scan's and the sampler's accepted lanes, and a filtered sweep's
kept graphs) and packs them when the kernel first reads its rows, so a
sweep read graph by graph packs nothing; ``Block.of_pairs`` builds the rows
of graph6 input from its pair bits, with no :class:`Graph` per line (the
``invariants`` and ``ud`` commands); the tree sweep builds its blocks' rows
itself, and ``Block.sums`` of its blocks gives the kernel the BFS's sums in
closed form and ``Block.edges`` their parent edges; ``theorems.hunt`` takes
T3.3's complements from a block's rows.
"""

from __future__ import annotations

import struct
from math import gcd
from typing import TYPE_CHECKING, NamedTuple

from .graphs import DistanceData, Graph, GraphError, all_pairs_distances

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
# (the diameter-2 sampler packs its attempts by the same rule).  Bit w - 1 of
# every lane is then free, which the nonzero test and the biased gap need, and
# every lane sum (the largest, 2 * E2, is at most 2 * C(n, 2) * (n - 1)^2) is
# below 2^w.  The SWAR popcount sums a lane's bytes in its low byte, exact for
# a count below 2^8, and a lane holds at most n bits: hence n <= 255.
LANE_MAX_N = 255

# graphs per block that the callers of the kernel hand it at a time
LANE_BLOCK = 1024

# a lane of up to 64 bits is one struct word; a wider one packs from bytes
_WORDS = {16: "H", 32: "I", 64: "Q"}


def lane_width(n: int) -> int:
    """Bits per lane for graphs of order n (see above)."""
    return max(16, 1 << n.bit_length())


def lane_ones(width: int, k: int) -> int:
    """1 in each of k lanes of ``width`` bits."""
    return int.from_bytes((b"\x01" + bytes(width // 8 - 1)) * k, "little")


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


def _halves(width: int, k: int) -> list:
    """The (shift, mask) steps that fold the upper half of k lanes of
    ``width`` bits onto the lower half, ending with the union of every lane
    in lane 0."""
    steps = []
    span = width << (k - 1).bit_length()
    while span > width:
        span >>= 1
        steps.append((span, (1 << span) - 1))
    return steps


def _union(x: int, halves) -> int:
    """The union of every lane of x, as one lane, by the ``_halves`` steps."""
    for shift, mask in halves:
        x = (x | x >> shift) & mask
    return x


def _times(a: int, b: int, ones: int, lane: int, bound: int) -> int:
    """Each lane's product of a and b, for lanes of b at most ``bound`` and
    products that fit a lane: a << k summed over the set bits k of b."""
    return sum((a << k) & ((b >> k) & ones) * lane for k in range(bound.bit_length()))


class Block:
    """The lane kernel's one input: k graphs of one order 1 <= n <= 255,
    ``rows[u]`` holding row u of graph j in its lane j of ``lane_width(n)``
    bits.  A block keeps the rows or the row tuples it was built from and
    makes the other at its first read: ``rows`` packs the tuples, and
    ``graph(j)``, lane j's :class:`Graph`, reads one transpose of the rows."""

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
        k = len(pairs)
        width = lane_width(n)
        ones = lane_ones(width, k)
        halves = _halves(width, k)
        rows = [0] * n
        shift = 0
        for v in range(1, n):
            mask = (1 << v) - 1
            col = pack_lanes([p >> shift & mask for p in pairs], width)
            shift += v
            rows[v] = col  # the later columns add row v's upper half
            hull = _union(col, halves)
            while hull:  # each u in some lane's column v
                bit = hull & -hull
                u = bit.bit_length() - 1
                rows[u] |= (col >> u & ones) << v
                hull ^= bit
        return cls(n, k, rows)

    def graph(self, j: int) -> Graph:
        """Lane j's :class:`Graph`."""
        if self._lanes is None:
            width = lane_width(self.n)
            self._lanes = list(zip(*(unpack_lanes(row, width, self.k) for row in self.rows)))
        return Graph._raw(self.n, self._lanes[j])

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


class _Lanes:
    """A block's lane-packed BFS, one per source s, run in every lane at
    once.  It keeps no levels F_d(s), only each source's eccentricity
    ``ecc[s]`` (the number of levels), transmission ``tr[s]`` (the sum of
    d * |F_d(s)|, counted from log2(n) bit slices of the levels, not one
    popcount per level) and eccentric set ``far[s]`` (the last level; s
    itself in K1).  ``depth`` is the largest eccentricity in any lane;
    ``connected`` has bit 0 of a lane set when the BFS from vertex 0 covers
    it, and every other lane is then emptied, so the BFS costs nothing more
    there and leaves values no caller reads.  A block whose ``sums()`` has
    them, every graph connected, skips the BFS.
    """

    def __init__(self, block):
        if not isinstance(block, Block):
            raise TypeError("the lane kernel takes a Block")
        self.k = k = block.k
        self.n = n = block.n
        self.width = width = lane_width(n)
        self.top = top = width - 1
        self.lane = lane = (1 << width) - 1
        self.ones = ones = lane_ones(width, k)
        self.full = full = ones * ((1 << n) - 1)
        self.low = low = ones * (lane >> 1)
        # 0x55.., 0x33.. and 0x0F.. over every lane, and each lane's low byte
        self._masks = tuple(ones * x for x in (lane // 3, lane // 5, lane // 17, 0xFF))
        self._folds = [8 << i for i in range(width.bit_length() - 4)]  # 8, ..., width / 2
        self.rows = rows = block.rows
        self._halves = halves = _halves(width, k)
        sums = block.sums()
        if sums is not None:
            self.ecc, self.tr, self.far, self.depth = sums
            self.connected = ones
            return
        popcount = self.popcount
        self.ecc = eccs = []
        self.tr = trs = []
        self.far = far = []
        self.depth = 0
        for s in range(n):
            front = seen = last = ones << s
            ecc = d = 0
            slices = [0] * n.bit_length()  # [b]: the levels d with bit b of d set
            while True:
                union = _union(front, halves)
                nxt = 0
                while union:  # each vertex in some lane's frontier
                    bit = union & -union
                    u = bit.bit_length() - 1
                    nxt |= rows[u] & (((front >> u) & ones) * lane)
                    union ^= bit
                nxt &= full ^ seen
                if not nxt:
                    break
                seen |= nxt
                d += 1
                for b in range(d.bit_length()):
                    if d >> b & 1:
                        slices[b] |= nxt
                reached = ((nxt + low) >> top) & ones  # the lanes this level reaches
                ecc += reached
                # each lane this level reaches takes it as its last level
                last ^= (last ^ nxt) & (reached * lane)
                front = nxt
            # Tr(s) = sum_d d * |F_d| = sum_b 2^b * |slices[b]|
            tr = sum(popcount(x) << b for b, x in enumerate(slices) if x)
            if s == 0:
                self.connected = connected = ones ^ self.nonzero(full ^ seen)
                if connected != ones:  # tr[0] too: each lane of sum(tr) stays even
                    keep = connected * lane
                    rows = self.rows = [row & keep for row in rows]
                    tr &= keep
            self.depth = max(self.depth, d)
            eccs.append(ecc)
            trs.append(tr)
            far.append(last)

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
            hull = _union(f, self._halves)
            while hull:
                bit = hull & -hull
                x = bit.bit_length() - 1
                col[x] |= ((f >> x) & ones) << w
                hull ^= bit
        return [c ^ flipped for c in col]

    def nonzero(self, x):
        """1 in each lane of x that is not zero; lanes must be below 2^top."""
        return ((x + self.low) >> self.top) & self.ones

    def at_least(self, x, c):
        """1 in each lane of x that is >= the integer c; lanes must be below
        2^top.  x - c biased by 2^top borrows in no lane, and its bit top is
        set exactly where x >= c."""
        if c <= 0 or c >> self.top:
            return self.ones if c <= 0 else 0
        return ((x + (self.ones << self.top) - c * self.ones) >> self.top) & self.ones

    def popcount(self, x):
        """Each lane's number of set bits, in that lane."""
        m55, m33, m0f, mff = self._masks
        x -= (x >> 1) & m55
        x = (x & m33) + ((x >> 2) & m33)
        x = (x + (x >> 4)) & m0f
        for shift in self._folds:
            x += x >> shift
        return x & mff

    def unpack(self, x):
        """Every lane of x, lane 0 first."""
        return unpack_lanes(x, self.width, self.k)


def lane_reports(block: Block, gates) -> tuple[list, list]:
    """Every graph's gate word and report ``(words, reports)``, for a
    :class:`Block` of graphs of one order 1 <= n <= 255.

    ``gates`` are at most 13 tuples of terms ``(column, op, bound)``
    (``column`` one of n, m, diam, nprime and self_centered, which is 0 or
    1; ``op`` one of ==, !=, >= and <=; ``bound`` an integer or a function
    of n); the empty gate holds on every connected graph.  Bit i of
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
    n, top, lane, ones, full, low = (
        lanes.n, lanes.top, lanes.lane, lanes.ones, lanes.full, lanes.low
    )
    nonzero, popcount, unpack = lanes.nonzero, lanes.popcount, lanes.unpack
    ecc, tr, depth = lanes.ecc, lanes.tr, lanes.depth
    # at_least[a] = H_a: ecc(s) - a, biased by 2^top so no lane borrows, has
    # bit top set in the lanes where ecc(s) >= a
    at_least = [full] + [0] * depth
    cut = [(ones << top) - a * ones for a in range(depth + 1)]
    for s, e in enumerate(ecc):
        for a in range(1, depth + 1):
            h = (e + cut[a]) >> top & ones
            if not h:  # no lane has ecc(s) >= a, so none has it for any larger a
                break
            at_least[a] |= h << s
    e1 = sum((2 * a - 1) * popcount(at_least[a]) for a in range(1, depth + 1))

    diam = rad = 0
    for a in range(1, depth + 1):
        diam += nonzero(at_least[a])
        rad += ones ^ nonzero(full ^ at_least[a])
    m2 = xic = e2x2 = n_univ = 0
    edges = block.edges()
    for u, row in enumerate(lanes.rows):
        m2 += popcount(row)
        n_univ += ones ^ nonzero(row ^ (full ^ (ones << u)))
        if edges is None:
            cu = 0
            for a in range(1, depth + 1):
                cu += popcount(row & at_least[a])
            xic += cu
            for a in range(1, depth + 1):
                e2x2 += cu & (((at_least[a] >> u) & ones) * lane)
    if edges is not None:
        # a tree's n - 1 edges, each once as vertex i >= 1 and its parent,
        # whose eccentricity is pe[i]: xic sums both ends, E2 their product
        pe = [0] * n
        for i, j, hit in edges:
            pe[i] |= ecc[j] & hit * lane
        xic = sum(ecc[1:]) + sum(pe)
        e2x2 = sum(_times(e, p, ones, lane, depth) for e, p in zip(ecc[1:], pe[1:])) << 1
    total = sum(ecc)

    # L4.1: gap(v) = totecc - ecc(v) - Tr(v), biased by 2^top so no lane
    # borrows; bit top of a lane is then set exactly when its gap is >= 0.
    # Bit v of a lane of common is set when v is in every other vertex's
    # eccentric set there: the zero-gap condition
    common = full
    for u, last in enumerate(lanes.far):
        common &= last | ones << u
    failed = equal = 0
    bias = ones << top
    for v in range(n):
        gap = total + bias - ecc[v] - tr[v]
        nonneg = (gap >> top) & ones
        zero = nonneg & (ones ^ nonzero(gap & low))
        failed |= (ones ^ nonneg) | (zero ^ ((common >> v) & ones))
        equal |= zero

    # every lane of m2, sum(tr) and e2x2 is even, so a shift halves each lane
    columns = (m2 >> 1, diam, rad, sum(tr) >> 1, e1, e2x2 >> 1, total, xic, n_univ)
    connected = lanes.connected
    sc = ones ^ nonzero(diam ^ rad)
    values = dict(n=n * ones, m=columns[0], diam=diam, nprime=n_univ, self_centered=sc)
    ngates = len(gates)
    word = (failed << ngates | equal << ngates + 1) & (connected << ngates) * 3
    word |= (ones ^ connected) << ngates + 2
    select = 0
    terms = {}  # gates share terms: each is evaluated once
    for i, gate in enumerate(gates):
        held = connected
        for term in gate:
            if term not in terms:
                column, op, bound = term
                c = bound(n) if callable(bound) else bound
                ge = lanes.at_least(values[column], c)
                gt = lanes.at_least(values[column], c + 1)
                eq = ge ^ gt
                terms[term] = {">=": ge, "<=": ones ^ gt, "==": eq, "!=": ones ^ eq}[op]
            held &= terms[term]
        select |= held
        word |= held << i
    reports = [
        InvariantReport(n, m, dm, rd, w, ec1, ec2, tot, x, nu, dm == rd) if b else None
        for b, m, dm, rd, w, ec1, ec2, tot, x, nu in zip(unpack(select), *map(unpack, columns))
    ]
    return unpack(word), reports


def lane_wiener_e1(block: Block) -> list[tuple[int, int] | None]:
    """Every graph's ``(W, E1)`` and no other column, for a :class:`Block` of
    graphs of one order 1 <= n <= 255, and None for a disconnected graph: W
    is half the sum of the lane BFS's Tr(s), and E1 the sum of ecc(s)^2."""
    lanes = _Lanes(block)
    ones, lane, depth = lanes.ones, lanes.lane, lanes.depth
    e1 = sum(_times(e, e, ones, lane, depth) for e in lanes.ecc)
    packed = map(lanes.unpack, (lanes.connected, sum(lanes.tr) >> 1, e1))
    return [(w, e) if c else None for c, w, e in zip(*packed)]
