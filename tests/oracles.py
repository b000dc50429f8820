"""Independent reference implementations used only to cross-check results.

Nothing here shares code with the package's BFS path: distance tables come
from Floyd-Warshall over an adjacency matrix or, where that is too slow, from
a plain queue BFS over neighbor lists, the Wiener index from a plain double
loop over pairs or, for a tree, from the edge-cut identity, and tree
isomorphism from bottom-up subtree encodings rooted at the center.  The
diameter-2 sampler's reference draws one vertex pair per scalar mix64 call.
The sampler's stream reference draws and tests one attempt at a time, in
sample order, with a scalar diameter-2 test over vertex pairs.  The UD
certificate's reference scans a distance table pair by pair, and L4.1's
zero-gap condition is read from the table row by row.  The labeled
mask scan's reference decodes and BFS-checks one mask at a time, and a
sweep filter's reads one graph's queue-BFS table or its degrees.  A report's
row reference reads avd and avt from their ``Fraction`` properties and
formats each value on its own; the eccentric sets' transpose is a double
loop over vertex pairs.  Neighbor lists (``adjacency``) and connectivity
(``is_connected``, one BFS from vertex 0) are read from ``Graph.bits`` here.

The reference ``hunt`` is the one exception: it is the reference for the
claim gates and lane blocks of ``theorems.hunt``, so it runs the package's
per-graph path, every claim's checker on every graph with the report from
``full_report``, the sweep's filter applied by the reference filters.  A
claim gate's reference evaluates its terms on one report and its graph.
``block_of`` and ``lane_eccentric_sets`` are no references either: they
hand the tests the package's own lane block and its lane BFS's eccentric
sets.
"""

from __future__ import annotations

import dataclasses
import operator
import random

from distinv import (
    Graph,
    GraphError,
    SweepError,
    UdCertificate,
    all_pairs_distances,
    from_edge_list,
    full_report,
)
from distinv.graphs import _rows_from_pairs
from distinv.invariants import Block, _Lanes
from distinv.sweeps import iter_sweep
from distinv.theorems import UNARY_CHECKS, CheckReport

INF = 1 << 30


def bits_of(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def adjacency(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Each vertex's neighbors, ascending, read from ``g.bits``."""
    return tuple(map(bits_of, g.bits))


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


def floyd_warshall(g: Graph) -> list[list[int]]:
    n = g.n
    rows = [[INF] * n for _ in range(n)]
    for v in range(n):
        rows[v][v] = 0
    for u, v in g.edges():
        rows[u][v] = rows[v][u] = 1
    for k in range(n):
        rk = rows[k]
        for i in range(n):
            ri = rows[i]
            dik = ri[k]
            if dik >= INF:
                continue
            for j in range(n):
                alt = dik + rk[j]
                if alt < ri[j]:
                    ri[j] = alt
    return rows


def bfs_rows(g: Graph) -> list[list[int]]:
    """The distance table from one queue BFS per source over the neighbor
    lists; INF for an unreachable vertex."""
    adj = adjacency(g)
    rows = []
    for s in range(g.n):
        row = [INF] * g.n
        row[s] = 0
        queue = [s]
        for u in queue:
            du = row[u] + 1
            for w in adj[u]:
                if row[w] == INF:
                    row[w] = du
                    queue.append(w)
        rows.append(row)
    return rows


def gap_equality_by_rows(rows: list[list[int]]) -> int:
    """L4.1's zero-gap condition from a distance table, as a bitmask: v is in
    it when ``d(v, u) == ecc(u)`` for every other vertex u, that is when row
    v, its own entry exempt, equals the eccentricities."""
    ecc = [max(r) for r in rows]
    mask = 0
    for v, r in enumerate(rows):
        row = list(r)
        row[v] = ecc[v]
        if row == ecc:
            mask |= 1 << v
    return mask


def wiener_by_pairs(g: Graph) -> int:
    rows = floyd_warshall(g)
    n = g.n
    return sum(rows[u][v] for u in range(n) for v in range(u + 1, n))


def wiener_tree_edgecut(t: Graph) -> int:
    """Wiener index of a tree via the edge-cut identity.

    Deleting an edge splits the tree into components of sizes ``n_u`` and
    ``n_v``; the index equals the sum of ``n_u * n_v`` over all edges.
    Raises ``GraphError`` unless ``t`` is a tree.
    """
    n = t.n
    if n == 0 or t.m != n - 1:
        raise GraphError("not a tree")
    adj = adjacency(t)
    parent = [-1] * n
    order = [0]
    seen = bytearray(n)
    seen[0] = 1
    for u in order:
        for w in adj[u]:
            if not seen[w]:
                seen[w] = 1
                parent[w] = u
                order.append(w)
    if len(order) != n:
        raise GraphError("not a tree")
    size = [1] * n
    total = 0
    for u in reversed(order[1:]):
        size[parent[u]] += size[u]
        total += size[u] * (n - size[u])
    return total


def diametrical_pairs(rows: list[list[int]]) -> list[tuple[int, int]]:
    """All pairs ``u < v`` at the largest distance of a distance matrix, in
    lexicographic order."""
    n = len(rows)
    diam = max(map(max, rows))
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rows[u][v] == diam]


def ecc_tr_by_rows(rows: list[list[int]]) -> tuple[list[int], list[int]]:
    return [max(r) for r in rows], [sum(r) for r in rows]


def tree_canonical_form(g: Graph) -> str:
    """Isomorphism-invariant encoding of a free tree (center-rooted AHU)."""
    n = g.n
    if n == 1:
        return "()"
    adj = adjacency(g)
    deg = [len(a) for a in adj]
    alive = [True] * n
    remaining = n
    leaves = [v for v in range(n) if deg[v] == 1]
    while remaining > 2:
        nxt = []
        for v in leaves:
            alive[v] = False
            remaining -= 1
            for w in adj[v]:
                if alive[w]:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        leaves = nxt
    centers = [v for v in range(n) if alive[v]]

    def enc(v: int, parent: int) -> str:
        return "(" + "".join(sorted(enc(w, v) for w in adj[v] if w != parent)) + ")"

    if len(centers) == 1:
        return enc(centers[0], -1)
    a, b = centers
    return "|".join(sorted((enc(a, b), enc(b, a))))


def transpose(sets) -> tuple[int, ...]:
    """``cols[x]``, the bitmask of the w with bit x set in ``sets[w]``."""
    n = len(sets)
    return tuple(
        sum(1 << w for w in range(n) if sets[w] >> x & 1) for x in range(n)
    )


def report_columns(rep) -> dict:
    """A report's CSV and JSON columns in output order, avd and avt read
    from their ``Fraction`` properties."""
    return {
        "n": rep.n, "m": rep.m, "diam": rep.diam, "rad": rep.rad,
        "W": rep.wiener, "E1": rep.e1, "E2": rep.e2, "totecc": rep.total_ecc,
        "xic": rep.ecc_connectivity, "nprime": rep.n_universal,
        "avd_num": rep.avd.numerator, "avd_den": rep.avd.denominator,
        "avt_num": rep.avt.numerator, "avt_den": rep.avt.denominator,
        "self_centered": rep.self_centered,
    }  # fmt: skip


def csv_row_by_columns(rep) -> str:
    """A report's CSV row, each value formatted on its own."""
    return ",".join(
        ("true" if x else "false") if isinstance(x, bool) else str(x)
        for x in report_columns(rep).values()
    )


def ud_certificate_by_table(rows: list[list[int]]) -> UdCertificate:
    """The UD certificate from a distance table: each diametrical pair in
    lexicographic order, the first UD pair winning, else each pair with the
    first vertex w that has ``max(d(w,u), d(w,v))`` below ``ecc(w)``; K1 is
    UD with no pair."""
    n = len(rows)
    if n == 1:
        return UdCertificate(is_ud=True, pair=None, diam=0)
    ecc = [max(r) for r in rows]
    diam = max(ecc)
    failures = []
    for u, v in diametrical_pairs(rows):
        witness = None
        for w in range(n):
            if w == u or w == v:
                continue
            if max(rows[w][u], rows[w][v]) != ecc[w]:
                witness = w
                break
        if witness is None:
            return UdCertificate(is_ud=True, pair=(u, v), diam=diam)
        failures.append(((u, v), witness))
    return UdCertificate(is_ud=False, pair=None, diam=diam, failures=tuple(failures))


def connected_graphs_by_mask(n: int, lo: int, hi: int):
    """The connected graphs among edge masks ``lo..hi-1`` of order n, in mask
    order: each mask decoded by the pair codec, then one BFS from vertex 0.
    The reference for the lane-packed scan of ``distinv.sweeps``."""
    for mask in range(lo, hi):
        g = Graph._raw(n, _rows_from_pairs(n, mask))
        if is_connected(g):
            yield g


def tree_from_levels(levels) -> Graph:
    """The tree of a level sequence, one vertex at a time: vertex 0 is the
    root, and vertex i's parent the latest vertex one level up.  The
    reference for the lane-built tree blocks of ``distinv.sweeps``."""
    n = len(levels)
    rows = [0] * n
    last = [0] * n
    for i in range(1, n):
        lev = levels[i]
        j = last[lev - 1]
        rows[i] = 1 << j
        rows[j] |= 1 << i
        last[lev] = i
    return Graph._raw(n, rows)


def block_of(graphs) -> Block:
    """The lane block of a non-empty list of graphs, of the first one's
    order (not a reference: the package's ``Block.of``)."""
    return Block.of(graphs[0].n, [g.bits for g in graphs])


def lane_eccentric_sets(block: Block) -> list:
    """Each lane's eccentricities, eccentric sets and their transpose
    ``(ecc, sets, cols)``, and None for a disconnected graph (not a
    reference: the package's ``_Lanes(block)``, its ``ecc``, ``far`` and
    ``columns()`` unpacked lane by lane)."""
    lanes = _Lanes(block)
    packed = (lanes.ecc, lanes.far, lanes.columns())
    sets = zip(*(zip(*map(lanes.unpack, x)) for x in packed))
    return [t if c else None for c, t in zip(lanes.unpack(lanes.connected), sets)]


def lanes_of(blocks):
    """Each lane's graph of a stream of blocks, in order, by ``graph(j)``."""
    for block in blocks:
        for j in range(block.k):
            yield block.graph(j)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return from_edge_list(n, edges)


def random_connected_graph(rng: random.Random, n: int, p: float) -> Graph:
    """Random graph forced connected by threading a random spanning path."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:])}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.add((u, v))
    return from_edge_list(n, sorted(edges))


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_edge_list(10, outer + spokes + inner)


_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1FE4E57B
_MIX_B = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """The SplitMix64 finalizer, one scalar value at a time."""
    x &= _M64
    x ^= x >> 30
    x = (x * _MIX_A) & _M64
    x ^= x >> 27
    x = (x * _MIX_B) & _M64
    return x ^ (x >> 31)


def unmix64(y: int) -> int:
    """The x with mix64(x) == y: each step of mix64 is a bijection of 64 bits."""

    def unshift(v, s):
        x = v
        for _ in range(64 // s):
            x = v ^ (x >> s)
        return x

    x = unshift(y, 31)
    x = (x * pow(_MIX_B, -1, 1 << 64)) & _M64
    x = unshift(x, 27)
    x = (x * pow(_MIX_A, -1, 1 << 64)) & _M64
    return unshift(x, 30)


def bernoulli_rows(key: int, n: int, counter: int, thresh: int) -> list[int]:
    """Adjacency rows of one sampler attempt, drawn one vertex pair at a time.

    Pair ``e`` of the graph6 column order (0,1), (0,2), (1,2), (0,3), ... is
    an edge iff ``mix64(key + (counter + e) * golden) < thresh``: the scalar
    reference for the packed-lane kernel of ``distinv.sweeps``.
    """
    rows = [0] * n
    for v in range(1, n):
        for u in range(v):
            if mix64(key + counter * _GOLDEN) < thresh:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            counter += 1
    return rows


# the sampler's p cycle 0.3, 0.5, 0.7 as 64-bit thresholds
DIAM2_THRESH = tuple((num << 64) // 10 for num in (3, 5, 7))


def is_diameter2(rows: list[int]) -> bool:
    """Diameter exactly 2: some pair of vertices is not adjacent, and every
    such pair has a common neighbour."""
    n = len(rows)
    full = (1 << n) - 1
    some_apart = 0
    for v, rv in enumerate(rows):
        apart = full & ~(rv | ((2 << v) - 1))
        some_apart |= apart
        while apart:
            low = apart & -apart
            if not rv & rows[low.bit_length() - 1]:
                return False
            apart ^= low
    return some_apart != 0


def diam2_attempts(seed: int, n: int, index: int, max_attempts: int = 10**6):
    """Each attempt of sample ``index`` of the documented ``diam2:`` stream,
    in order, as ``(p_index, rows, accepted)``, up to the first accepted one
    or ``max_attempts`` attempts."""
    key = mix64(seed ^ mix64(n * _GOLDEN))
    for attempt in range(max_attempts):
        k = (index + attempt) % 3
        rows = bernoulli_rows(key, n, ((index << 21) | attempt) << 13, DIAM2_THRESH[k])
        accepted = is_diameter2(rows)
        yield k, rows, accepted
        if accepted:
            return


def diam2_stream_by_attempt(seed: int, n: int, lo: int, hi: int, max_attempts: int = 10**6):
    """Samples ``lo..hi-1`` of the ``diam2:`` stream, one attempt at a time:
    the reference for the block sampler of ``distinv.sweeps``.  Raises
    ``SweepError("sampling stalled")`` at the first sample with no accepted
    attempt among its first ``max_attempts``, after the samples before it."""
    for index in range(lo, hi):
        for _, rows, accepted in diam2_attempts(seed, n, index, max_attempts):
            if accepted:
                yield Graph._raw(n, rows)
                break
        else:
            raise SweepError("sampling stalled")


def _self_centered_by_rows(g: Graph) -> bool:
    ecc = [max(r) for r in bfs_rows(g)]
    return max(ecc) == min(ecc)


# each sweep filter of ``distinv.sweeps``, one graph at a time
REFERENCE_FILTERS = {
    "self_centered": _self_centered_by_rows,
    "non_self_centered": lambda g: not _self_centered_by_rows(g),
    "min_degree_2": lambda g: min(map(len, adjacency(g))) >= 2,
}


def filtered_by_reference(spec):
    """A sweep's graphs as the unfiltered ``iter_sweep`` stream filtered one
    graph at a time by the spec's reference filter."""
    graphs = iter_sweep(dataclasses.replace(spec, filter_name=None))
    if spec.filter_name is None:
        return graphs
    return filter(REFERENCE_FILTERS[spec.filter_name], graphs)


def reference_hunt(spec, ids) -> list[CheckReport]:
    """``hunt(spec, ids)`` one graph at a time: every claim's public checker,
    with full detail, on every graph of the sweep, the report from
    ``full_report`` and the filter from ``REFERENCE_FILTERS``."""
    ids = list(ids)
    visited = 0
    hits = [0] * len(ids)
    cexs = [[] for _ in ids]
    eqs = [set() for _ in ids]
    for g in filtered_by_reference(spec):
        visited += 1
        dist = all_pairs_distances(g)
        rep = full_report(g, dist)
        for i, tid in enumerate(ids):
            v = UNARY_CHECKS[tid](g, rep=rep, dist=dist)
            if v.hypothesis_met:
                hits[i] += 1
                if not v.conclusion_held:
                    cexs[i].append(v)
            else:
                assert v.conclusion_held is None and not v.equality
            if v.equality:
                eqs[i].add(v.graph_id)
    return [
        CheckReport(
            tid,
            visited,
            hits[i],
            tuple(sorted(cexs[i], key=lambda v: v.graph_id)),
            tuple(sorted(eqs[i])),
        )
        for i, tid in enumerate(ids)
    ]


_GATE_OPS = {"==": operator.eq, "!=": operator.ne, ">=": operator.ge, "<=": operator.le}


def gate_holds(gate, rep, g=None) -> bool:
    """Whether every term ``(column, op, bound)`` of a claim gate holds on
    one report, a ``min_degree`` term on its graph ``g``; ``bound`` is an
    integer or a function of the order."""
    values = {
        "n": rep.n,
        "m": rep.m,
        "diam": rep.diam,
        "nprime": rep.n_universal,
        "self_centered": int(rep.self_centered),
        "min_degree": None if g is None else min(map(len, adjacency(g))),
    }
    return all(
        _GATE_OPS[op](values[column], bound(rep.n) if callable(bound) else bound)
        for column, op, bound in gate
    )
