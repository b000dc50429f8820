"""Eccentric sets and universally diametrical (UD) graph recognition.

A graph is UD when some diametrical pair ``(u, v)`` satisfies: every other
vertex ``w`` has ``u`` or ``v`` in its eccentric set, equivalently
``max(d(w,u), d(w,v)) == ecc(w)``.  The certificate search scans diametrical
pairs in lexicographic order so reports are deterministic.

Degenerate conventions: K2's unique pair is UD vacuously (no third vertex);
K1 has no vertex pair at all and is reported UD with ``pair=None``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import DistanceData, Graph, GraphError, all_pairs_distances


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
    return _ud_witness(dist, u, v) is None


def _ud_witness(dist: DistanceData, u: int, v: int) -> int | None:
    """First vertex proving the pair is not UD, or None when it is UD."""
    n = dist.n
    d = dist.dist
    ecc = dist.ecc
    for w in range(n):
        if w == u or w == v:
            continue
        base = w * n
        du = d[base + u]
        dv = d[base + v]
        if (du if du > dv else dv) != ecc[w]:
            return w
    return None


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


def find_ud_certificate(g: Graph, dist: DistanceData | None = None) -> UdCertificate:
    """Scan diametrical pairs in order; first UD pair wins."""
    if dist is None:
        dist = all_pairs_distances(g)
    if g.n == 1:
        return UdCertificate(is_ud=True, pair=None, diam=0)
    failures = []
    for u, v in diametrical_pairs(dist):
        witness = _ud_witness(dist, u, v)
        if witness is None:
            return UdCertificate(is_ud=True, pair=(u, v), diam=dist.diam)
        failures.append(((u, v), witness))
    return UdCertificate(
        is_ud=False, pair=None, diam=dist.diam, failures=tuple(failures)
    )


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
