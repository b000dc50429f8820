"""Immutable simple graphs with exact BFS distance data.

Vertices are dense integers ``0..n-1``.  A :class:`Graph` stores one neighbor
bitmask per vertex (the representation every hot loop in this package runs
on) and derives sorted neighbor tuples lazily.  Distances are exact hop
counts from breadth-first search, kept per vertex as :class:`DistanceData`
(eccentricity, transmission, eccentric set), never as a table of pairs;
disconnected input is rejected outright so that no infinity ever reaches the
integer invariants built on top.

Supported interchange formats:

* graph6 - one ASCII line per graph, 6 bits per byte offset by 63, order
  header followed by the upper triangle of the adjacency matrix column by
  column, most significant bit first, zero padded.
* edge list - UTF-8 text, ``#`` comment lines, a header line ``n m`` and
  then ``m`` lines ``u v`` with 0-based endpoints.

:func:`decode_graph6` makes every check of a graph6 line and returns its
order and pair bits ``(n, pairs)``; :func:`parse_graph6` builds the
:class:`Graph` from them.  The ``invariants`` and ``ud`` commands hold a
window of ``(n, pairs)`` and build each order's lane block straight from the
pairs (``invariants.Block.of_pairs``), so a line becomes a :class:`Graph`
only on the per-graph path.

Both parsers reject an order above ``MAX_INPUT_ORDER`` with a
:class:`FormatError` before allocating anything for it: a header such as
``1000000000 0`` would otherwise allocate a billion neighbor rows, and the
BFS from every vertex takes about n^2 big-int operations on n-bit masks.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


class GraphError(Exception):
    """Invalid graph construction or malformed graph input."""


class FormatError(GraphError):
    """Malformed graph6 or edge-list text."""


class DisconnectedGraphError(GraphError):
    """An operation that presumes connectivity met a disconnected graph."""


# Largest order the graph6 and edge-list parsers accept.  On P_2048, where each
# BFS runs 1,024 to 2,047 levels, `distinv ud` and `distinv invariants` take
# 2.3-3.6 s at 25 MB peak RSS (2-core Intel Xeon, CPython 3.11); on K_2048
# 1.1-1.4 s.
MAX_INPUT_ORDER = 2048


class Graph:
    """Simple undirected graph, immutable after construction.

    ``bits[v]`` is the neighbor set of ``v`` as a bitmask.  Instances are
    hashable, compare by structure, and are safe to share across worker
    processes.  Use :func:`from_edge_list`, :func:`parse_graph6` or the
    family constructors; ``Graph._raw`` is the internal trusted path.
    """

    __slots__ = ("n", "bits", "_adj", "_m")

    @classmethod
    def _raw(cls, n: int, bits: Sequence[int]) -> "Graph":
        g = object.__new__(cls)
        g.n = n
        g.bits = tuple(bits)
        g._adj = None
        g._m = None
        return g

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor tuple for every vertex."""
        adj = self._adj
        if adj is None:
            adj = tuple(tuple(_iter_bits(b)) for b in self.bits)
            self._adj = adj
        return adj

    @property
    def m(self) -> int:
        """Number of edges."""
        m = self._m
        if m is None:
            m = sum(b.bit_count() for b in self.bits) // 2
            self._m = m
        return m

    def degree(self, v: int) -> int:
        return self.bits[v].bit_count()

    def min_degree(self) -> int:
        return min((b.bit_count() for b in self.bits), default=0)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as pairs ``(u, v)`` with ``u < v``."""
        for u, b in enumerate(self.bits):
            rest = b >> (u + 1)
            v = u + 1
            while rest:
                if rest & 1:
                    yield (u, v)
                rest >>= 1
                v += 1

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _check_input_order(n: int) -> None:
    if n > MAX_INPUT_ORDER:
        raise FormatError(
            f"graph order {n} exceeds the input bound of {MAX_INPUT_ORDER}"
        )


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicates collapse silently.

    Rejects self-loops and out-of-range endpoints.
    """
    if n < 0:
        raise GraphError(f"vertex count must be nonnegative, got {n}")
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph._raw(n, rows)


def parse_edge_list(text: str) -> Graph:
    """Parse the ``n m`` / ``u v`` edge-list text format."""
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines:
        raise FormatError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError(f"expected header 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise FormatError(f"expected header 'n m', got {lines[0]!r}") from None
    _check_input_order(n)
    if len(lines) - 1 != m:
        raise FormatError(f"header declares {m} edges, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"expected edge line 'u v', got {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise FormatError(f"expected edge line 'u v', got {ln!r}") from None
    try:
        return from_edge_list(n, edges)
    except GraphError as exc:
        raise FormatError(str(exc)) from None


# each graph6 byte '?'..'~' to its six data bits; any other character is
# left as it is, one character where a byte gives six
_GRAPH6_BITS = str.maketrans({chr(63 + code): f"{code:06b}" for code in range(64)})


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (trailing newline optional)."""
    n, pairs = decode_graph6(text)
    return Graph._raw(n, _rows_from_pairs(n, pairs))


def decode_graph6(text: str) -> tuple[int, int]:
    """The order n and the pair bits of one graph6 line, every check of
    :func:`parse_graph6` made: edge (u, v), u < v, is bit ``v(v-1)/2 + u``
    of ``pairs``, the order of :func:`_rows_from_pairs`."""
    s = text.rstrip("\r\n")
    if not s:
        raise FormatError("empty graph6 line")
    data = s.translate(_GRAPH6_BITS)
    if len(data) != 6 * len(s):
        ch = next(ch for ch in s if not "?" <= ch <= "~")
        raise FormatError(f"graph6 byte out of range: {ch!r}")
    if s[0] != "~":
        n = ord(s[0]) - 63
        pos = 1
    elif len(s) >= 2 and s[1] != "~":
        if len(s) < 4:
            raise FormatError("truncated graph6 order field")
        n = int(data[6:24], 2)
        pos = 4
        if n < 63:
            raise FormatError("non-canonical graph6 order field")
    else:
        if len(s) < 8:
            raise FormatError("truncated graph6 order field")
        n = int(data[12:48], 2)
        pos = 8
        if n < 258048:
            raise FormatError("non-canonical graph6 order field")
    _check_input_order(n)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(s) - pos != nbytes:
        raise FormatError(
            f"graph6 data for n={n} needs {nbytes} bytes, got {len(s) - pos}"
        )
    data = data[6 * pos :]
    if "1" in data[nbits:]:
        raise FormatError("nonzero graph6 padding bits")
    return n, int(data[:nbits][::-1] or "0", 2)


def emit_graph6(g: Graph) -> str:
    """Encode a graph as one graph6 line (no trailing newline)."""
    n = g.n
    if n > 68719476735:
        raise GraphError(f"order {n} exceeds the graph6 bound")
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    else:
        head = "~~" + "".join(chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
    nbits = n * (n - 1) // 2
    # pair 0 first, behind a sentinel bit that keeps the leading zeros
    data = format(_pairs_from_rows(g.bits) | (1 << nbits), "b")[:0:-1]
    data += "0" * (-nbits % 6)
    return head + "".join(chr(int(data[i : i + 6], 2) + 63) for i in range(0, nbits, 6))


def _rows_from_pairs(n: int, pairs: int) -> list[int]:
    """Neighbor rows of the order-n graph whose edge (u, v), u < v, is bit
    ``v(v-1)/2 + u`` of ``pairs``: the column-major pair order (0,1), (0,2),
    (1,2), (0,3), ... of graph6.  This and :func:`_pairs_from_rows` are the
    package's one definition of that order; ``invariants.Block.of_pairs``
    splits the pairs into the same columns, in every lane at once."""
    rows = [0] * n
    for v in range(1, n):
        col = pairs & ((1 << v) - 1)
        pairs >>= v
        rows[v] = col
        vb = 1 << v
        while col:
            low = col & -col
            rows[low.bit_length() - 1] |= vb
            col ^= low
    return rows


def _pairs_from_rows(rows: Sequence[int]) -> int:
    """Inverse of :func:`_rows_from_pairs`: column v is ``rows[v]`` below v."""
    pairs = 0
    for v in range(len(rows) - 1, 0, -1):
        pairs = (pairs << v) | (rows[v] & ((1 << v) - 1))
    return pairs


class DistanceData:
    """The per-vertex BFS metrics of a connected graph.

    ``ecc[v]`` is the eccentricity, ``tr[v]`` the transmission (sum of
    distances from ``v``), ``far[v]`` the eccentric set of ``v`` as a bitmask
    (the last BFS level from ``v``; ``v`` itself in K1), ``diam``/``rad`` the
    maximum/minimum eccentricity.  No distance table is kept: every
    invariant and claim reads these lists.
    """

    __slots__ = ("n", "ecc", "tr", "far", "diam", "rad")

    def __init__(self, n, ecc, tr, far, diam, rad):
        self.n = n
        self.ecc = ecc
        self.tr = tr
        self.far = far
        self.diam = diam
        self.rad = rad

    def __repr__(self) -> str:
        return f"DistanceData(n={self.n}, diam={self.diam}, rad={self.rad})"


def all_pairs_distances(g: Graph) -> DistanceData:
    """One bitset BFS from every vertex; raises on disconnected input."""
    n = g.n
    if n == 0:
        return DistanceData(0, [], [], [], 0, 0)
    bits = g.bits
    full = (1 << n) - 1
    ecc = [0] * n
    tr = [0] * n
    far = [0] * n
    for v in range(n):
        frontier = bits[v]
        if not frontier:
            if n == 1:
                far[0] = 1
                continue
            raise DisconnectedGraphError("graph is disconnected")
        seen = (1 << v) | frontier
        d = 1
        t = frontier.bit_count()
        while seen != full:
            nxt = 0
            f = frontier
            while f:
                low = f & -f
                nxt |= bits[low.bit_length() - 1]
                f ^= low
            nxt &= ~seen
            if not nxt:
                raise DisconnectedGraphError("graph is disconnected")
            d += 1
            t += d * nxt.bit_count()
            seen |= nxt
            frontier = nxt
        ecc[v] = d
        tr[v] = t
        far[v] = frontier
    return DistanceData(n, ecc, tr, far, max(ecc), min(ecc))


def is_connected(g: Graph) -> bool:
    """True when one BFS from vertex 0 reaches everything; K1 and the empty
    graph count as connected."""
    if g.n == 0:
        return True
    rows = g.bits
    full = (1 << g.n) - 1
    seen = frontier = 1
    while frontier and seen != full:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= rows[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & ~seen
        seen |= frontier
    return seen == full


def complement(g: Graph) -> Graph:
    """Edge uv present in the result iff u != v and uv absent in ``g``."""
    n = g.n
    full = (1 << n) - 1
    return Graph._raw(n, [full & ~(b | (1 << v)) for v, b in enumerate(g.bits)])


def induced_subgraph(g: Graph, keep: Iterable[int]) -> Graph:
    """Subgraph induced by ``keep``, relabeled 0..k-1 in ascending order."""
    verts = sorted(set(keep))
    if verts and not (0 <= verts[0] and verts[-1] < g.n):
        raise GraphError(f"vertex set not contained in 0..{g.n - 1}")
    k = len(verts)
    rows = [0] * k
    bits = g.bits
    for i, v in enumerate(verts):
        b = bits[v]
        row = 0
        for j, u in enumerate(verts):
            if (b >> u) & 1:
                row |= 1 << j
        rows[i] = row
    return Graph._raw(k, rows)
