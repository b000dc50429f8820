"""Eccentric sets and universally diametrical (UD) graph recognition.

A graph is UD when some diametrical pair ``(u, v)`` satisfies: every other
vertex ``w`` has ``u`` or ``v`` in its eccentric set, equivalently
``max(d(w,u), d(w,v)) == ecc(w)``.  The certificate search scans diametrical
pairs in lexicographic order so reports are deterministic.

:func:`ud_certificate` is the one scan.  It reads each vertex's
eccentricity and eccentric set as a bitmask, whether those come from a
distance table (:func:`find_ud_certificate`, :func:`is_ud_pair`) or from
the lane kernel (``invariants.lane_eccentric_sets``, which ``distinv ud``
uses on blocks of graphs of one order).

Degenerate conventions: K2's unique pair is UD vacuously (no third vertex);
K1 has no vertex pair at all and is reported UD with ``pair=None``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import DistanceData, Graph, GraphError, _iter_bits, all_pairs_distances


def eccentric_set(dist: DistanceData, v: int) -> tuple[int, ...]:
    """Vertices at distance exactly ``ecc(v)`` from ``v``, ascending."""
    n = dist.n
    base = v * n
    target = dist.ecc[v]
    d = dist.dist
    return tuple(u for u in range(n) if d[base + u] == target)


def diametrical_pairs(dist: DistanceData) -> list[tuple[int, int]]:
    """All unordered pairs at distance ``diam``, lexicographic order."""
    n = dist.n
    diam = dist.diam
    d = dist.dist
    out = []
    for u in range(n):
        base = u * n
        for v in range(u + 1, n):
            if d[base + v] == diam:
                out.append((u, v))
    return out


def is_ud_pair(g: Graph, dist: DistanceData, u: int, v: int) -> bool:
    """True when every third vertex has ``u`` or ``v`` in its eccentric set.

    The pair must be diametrical; anything else is an input error.
    """
    if u == v or dist.dist[u * dist.n + v] != dist.diam:
        raise GraphError(f"({u},{v}) is not a diametrical pair")
    # the scan reads only col[u] and col[v], so each eccentric set is cut
    # down to u and v: one pass over two columns of the table
    n = dist.n
    d = dist.dist
    ecc = dist.ecc
    sets = [
        (d[w * n + u] == ecc[w]) << u | (d[w * n + v] == ecc[w]) << v for w in range(n)
    ]
    return ud_certificate(ecc, sets, [(u, v)]).is_ud


@dataclass(frozen=True, slots=True)
class UdCertificate:
    """Outcome of the UD scan: the first UD pair, or per-pair witnesses."""

    is_ud: bool
    pair: tuple[int, int] | None
    diam: int
    failures: tuple[tuple[tuple[int, int], int], ...] = field(default=())

    def to_json_dict(self) -> dict:
        return {
            "is_ud": self.is_ud,
            "pair": list(self.pair) if self.pair is not None else None,
            "diam": self.diam,
            "failures": [
                {"pair": list(pair), "witness": w} for pair, w in self.failures
            ],
        }


def ud_certificate(ecc, sets, pairs=None) -> UdCertificate:
    """The UD scan over each vertex's eccentricity ``ecc[v]`` and eccentric
    set ``sets[v]`` (a bitmask), of a connected graph.

    The diametrical pairs are the ``(u, v)``, ``v > u``, with ``ecc[u]`` the
    diameter and v in ``sets[u]``, in lexicographic order, unless ``pairs``
    names the pairs to scan.  A pair fails at the lowest vertex w other than
    u and v with neither in ``sets[w]``, and is UD when there is none.
    """
    n = len(ecc)
    if n == 1:
        return UdCertificate(is_ud=True, pair=None, diam=0)
    diam = max(ecc, default=0)
    full = (1 << n) - 1
    # col[x] = {w : x in sets[w]}; when the sets hold more than half of all
    # pairs (K_n, say), the complements are transposed, as they have fewer bits
    flip = full if 2 * sum(map(int.bit_count, sets)) > n * n else 0
    col = [0] * n
    for w, ws in enumerate(sets):
        bit = 1 << w
        ws ^= flip
        while ws:
            low = ws & -ws
            col[low.bit_length() - 1] |= bit
            ws ^= low
    if flip:
        col = [full ^ c for c in col]
    if pairs is None:
        pairs = (
            (u, v)
            for u in range(n)
            if ecc[u] == diam
            for v in _iter_bits(sets[u] >> (u + 1) << (u + 1))
        )
    failures = []
    for u, v in pairs:
        bad = full & ~(col[u] | col[v] | 1 << u | 1 << v)
        if not bad:
            return UdCertificate(is_ud=True, pair=(u, v), diam=diam)
        failures.append(((u, v), (bad & -bad).bit_length() - 1))
    return UdCertificate(
        is_ud=False, pair=None, diam=diam, failures=tuple(failures)
    )


def find_ud_certificate(g: Graph, dist: DistanceData | None = None) -> UdCertificate:
    """Scan diametrical pairs in order; first UD pair wins."""
    if dist is None:
        dist = all_pairs_distances(g)
    return ud_certificate(dist.ecc, _eccentric_masks(dist))


def _eccentric_masks(dist: DistanceData) -> list[int]:
    # every vertex's eccentric set as a bitmask
    return [sum(1 << u for u in eccentric_set(dist, v)) for v in range(dist.n)]


def transmission_gap(dist: DistanceData, v: int, total_ecc: int | None = None) -> int:
    """Total eccentricity minus ``ecc(v)`` minus ``Tr(v)``.

    Nonnegative on every connected graph; zero exactly when every other
    vertex ``u`` has ``ecc(u) == d(v, u)``.  Pass ``total_ecc`` (the sum of
    all eccentricities) when scanning every vertex, to sum it only once.
    """
    if total_ecc is None:
        total_ecc = sum(dist.ecc)
    return total_ecc - dist.ecc[v] - dist.tr[v]


def transmission_gap_equality_holds(dist: DistanceData, v: int) -> bool:
    """The stated zero-gap condition, checked directly from distances."""
    n = dist.n
    row = dist.dist[v * n : (v + 1) * n]  # a slice of a list is a copy
    row[v] = dist.ecc[v]  # v itself is exempt
    return row == dist.ecc
