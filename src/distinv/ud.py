"""Eccentric sets and universally diametrical (UD) graph recognition.

A graph is UD when some diametrical pair ``(u, v)`` satisfies: every other
vertex ``w`` has ``u`` or ``v`` in its eccentric set, equivalently
``max(d(w,u), d(w,v)) == ecc(w)``.  The certificate search scans diametrical
pairs in lexicographic order so reports are deterministic.

A vertex's eccentric set is the last level of a BFS from it, kept as a
bitmask by both BFS paths: ``DistanceData.far`` for one graph and the lane
BFS's ``far`` for a block of graphs of one order.  :func:`ud_certificate`
is the definition of the scan, read through the transpose ``col[x] = {w :
x in sets[w]}``, and :func:`find_ud_certificate` hands it ``far``;
:func:`is_ud_pair` tests its one pair from the definition.
:func:`lane_ud_certificates` (which ``distinv ud`` uses) runs the same scan
in every lane of a block at once, one packed pass per pair over the lane
BFS's transposed sets, with no per-graph loop.
:meth:`UdCertificate.json_row` is the certificate's JSON text, a template
filled with each failure entry's memoised text.  L4.1's zero-gap condition,
that every other vertex u has ``ecc(u) == d(v, u)``, says that v lies in
every other vertex's eccentric set, and :func:`transmission_gap_equality_set`
reads it from ``far`` too.

Degenerate conventions: K2's unique pair is UD vacuously (no third vertex);
K1 has no vertex pair at all and is reported UD with ``pair=None``.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import compress, count
from typing import NamedTuple

from .graphs import DistanceData, Graph, GraphError, _iter_bits, all_pairs_distances
from .invariants import _Lanes


def eccentric_set(dist: DistanceData, v: int) -> tuple[int, ...]:
    """Vertices at distance exactly ``ecc(v)`` from ``v``, ascending."""
    return tuple(_iter_bits(dist.far[v]))


def is_ud_pair(g: Graph, dist: DistanceData, u: int, v: int) -> bool:
    """True when every third vertex has ``u`` or ``v`` in its eccentric set.

    The pair must be diametrical; anything else is an input error.
    """
    n = dist.n
    in_range = 0 <= u < n and 0 <= v < n and u != v
    if not (in_range and dist.ecc[u] == dist.diam and dist.far[u] >> v & 1):
        raise GraphError(f"({u},{v}) is not a diametrical pair")
    pair = 1 << u | 1 << v
    return all(f & pair for w, f in enumerate(dist.far) if w not in (u, v))


class UdCertificate(NamedTuple):
    """Outcome of the UD scan: the first UD pair, or per-pair witnesses."""

    is_ud: bool
    pair: tuple[int, int] | None
    diam: int
    failures: tuple[tuple[tuple[int, int], int], ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "is_ud": self.is_ud,
            "pair": list(self.pair) if self.pair is not None else None,
            "diam": self.diam,
            "failures": [
                {"pair": list(pair), "witness": w} for pair, w in self.failures
            ],
        }

    def json_row(self) -> str:
        """``json.dumps(self.to_json_dict(), sort_keys=True)``."""
        return _UD_ROW % (
            self.diam,
            ", ".join(map(_failure_text, self.failures)),
            "true" if self.is_ud else "false",
            "null" if self.pair is None else "[%d, %d]" % self.pair,
        )


# json.dumps's text of a certificate and of one failure entry, keys sorted
_UD_ROW = '{"diam": %d, "failures": [%s], "is_ud": %s, "pair": %s}'
_FAILURE = '{"pair": [%d, %d], "witness": %d}'


@lru_cache(maxsize=4096)  # a failure entry's text, made once; bounded for order-255 input
def _failure_text(entry) -> str:
    return _FAILURE % (*entry[0], entry[1])


def ud_certificate(ecc, sets) -> UdCertificate:
    """The UD scan over each vertex's eccentricity ``ecc[v]`` and eccentric
    set ``sets[v]`` (a bitmask), of a connected graph.

    The diametrical pairs are the ``(u, v)``, ``v > u``, with ``ecc[u]`` the
    diameter and v in ``sets[u]``, in lexicographic order.  A pair fails at
    the lowest vertex w other than u and v with neither in ``sets[w]``, and
    is UD when there is none; u's half of that test is made once per u.  The
    scan reads the transpose ``col[x] = {w : x in sets[w]}``.
    """
    n = len(ecc)
    if n == 1:
        return UdCertificate(is_ud=True, pair=None, diam=0)
    diam = max(ecc, default=0)
    full = (1 << n) - 1
    # when the sets hold more than half of all pairs (K_n, say), the
    # complements are transposed, as they have fewer bits
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
    failures = []
    for u in range(n):
        if ecc[u] != diam:
            continue
        vs = sets[u] >> u + 1 << u + 1
        rest = full & ~(col[u] | 1 << u)  # the w that u alone does not cover
        v = -1
        while vs:  # v steps to each partner in turn
            step = (vs & -vs).bit_length()
            v += step
            vs >>= step
            bad = rest & ~(col[v] | 1 << v)
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
    return ud_certificate(dist.ecc, dist.far)


def lane_ud_certificates(block) -> list[UdCertificate | None]:
    """:func:`ud_certificate` of every graph of a :class:`~.invariants.Block`
    of one order 1 <= n <= 255, in every lane at once; None for a
    disconnected graph.

    It scans the pairs in the reference's order over the packed ``ecc``,
    ``far`` and ``columns()`` of a lane BFS without Tr: each u whose ecc is
    the diameter in some lane, then each v > u in some such lane's ``far[u]``.
    In D, the lanes where (u, v) is diametrical and still without a UD pair,
    ``bad = rest[u] & rest[v]`` holds the w that neither covers: an empty lane
    takes (u, v), any other fails at its lowest bit.  A pair's lanes are
    unpacked at once (no packed word outlives its pair) and share its entries.
    """
    lanes = _Lanes(block, tr=False)
    k, n, lane, ones = lanes.k, lanes.n, lanes.lane, lanes.ones
    if n == 1:
        return [UdCertificate(is_ud=True, pair=None, diam=0)] * k
    zero, bits, unpack = lanes.zero, lanes.bits, lanes.unpack
    diam = reduce(lanes.max, lanes.ecc, 0)
    diams = unpack(diam)
    rest = [lanes.full & ~(c | ones << x) for x, c in enumerate(lanes.columns())]
    sentinel = ones << n  # bit n of every lane: an empty lane of bad borrows from it
    todo = lanes.connected  # the lanes without a UD pair yet
    certs = [None] * k
    failures = [[] for _ in range(k)]
    for u, (e, fu) in enumerate(zip(lanes.ecc, lanes.far)):
        fu &= (todo & zero(e ^ diam)) * lane
        for v in bits(fu):
            if v <= u:  # on the index: a shift of fu would cross lane boundaries
                continue
            d = fu >> v & todo
            if not d:
                continue
            pair = (u, v)
            bad = rest[u] & rest[v]
            todo ^= d & zero(bad)
            # each lane of D's lowest bit of bad: its bit_length is the witness
            # + 1 where (u, v) fails, n + 1 (the sentinel's) where it is UD
            bad |= sentinel
            ws = unpack(bad & ~(bad - ones) & d * lane)
            # its lanes share the entries [w + 1] = (pair, w) when they outnumber them
            entries = [(pair, w) for w in range(-1, n)] if d.bit_count() > n else None
            for j, w in zip(compress(count(), ws), map(int.bit_length, filter(None, ws))):
                if w > n:
                    certs[j] = UdCertificate(True, pair, diams[j])
                else:
                    failures[j].append(entries[w] if entries else (pair, w - 1))
        if not todo:
            break
    for j in compress(count(), unpack(todo)):
        certs[j] = UdCertificate(False, None, diams[j], tuple(failures[j]))
    return certs


def transmission_gap(dist: DistanceData, v: int, total_ecc: int | None = None) -> int:
    """Total eccentricity minus ``ecc(v)`` minus ``Tr(v)``.

    Nonnegative on every connected graph; zero exactly when every other
    vertex ``u`` has ``ecc(u) == d(v, u)``.  Pass ``total_ecc`` (the sum of
    all eccentricities) when scanning every vertex, to sum it only once.
    """
    if total_ecc is None:
        total_ecc = sum(dist.ecc)
    return total_ecc - dist.ecc[v] - dist.tr[v]


def transmission_gap_equality_set(far) -> int:
    """The vertices where the stated zero-gap condition holds, as a bitmask,
    from each vertex's eccentric set ``far[u]``: v lies in every other
    vertex's eccentric set, the AND over u of ``far[u] | 1 << u``."""
    out = (1 << len(far)) - 1
    for u, f in enumerate(far):
        out &= f | 1 << u
    return out
