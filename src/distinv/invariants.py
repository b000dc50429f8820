"""Exact scalar invariants of connected graphs.

Everything here is integer or reduced-rational arithmetic; no floating point
is used anywhere, so threshold comparisons in downstream predicates stay
exact at the boundary cases where they matter.  Rational values (average
degree, average transmission) are :class:`fractions.Fraction`, which stores a
reduced numerator/denominator pair and compares by integer cross
multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter

from .graphs import DistanceData, Graph, GraphError, all_pairs_distances, is_connected


def wiener_tree_edgecut(t: Graph) -> int:
    """Wiener index of a tree via the edge-cut identity.

    Deleting an edge splits the tree into components of sizes ``n_u`` and
    ``n_v``; the index equals the sum of ``n_u * n_v`` over all edges.
    """
    n = t.n
    if t.m != n - 1 or not is_connected(t):
        raise GraphError("not a tree")
    if n <= 1:
        return 0
    adj = t.adjacency
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
    size = [1] * n
    total = 0
    for u in reversed(order[1:]):
        size[parent[u]] += size[u]
        total += size[u] * (n - size[u])
    return total


# (CSV and JSON column, report attribute), in output order
_COLUMNS = (
    ("n", "n"),
    ("m", "m"),
    ("diam", "diam"),
    ("rad", "rad"),
    ("W", "wiener"),
    ("E1", "e1"),
    ("E2", "e2"),
    ("totecc", "total_ecc"),
    ("xic", "ecc_connectivity"),
    ("nprime", "n_universal"),
    ("avd_num", "avd.numerator"),
    ("avd_den", "avd.denominator"),
    ("avt_num", "avt.numerator"),
    ("avt_den", "avt.denominator"),
    ("self_centered", "self_centered"),
)
CSV_HEADER = ",".join(name for name, _ in _COLUMNS)
_column_values = attrgetter(*(attr for _, attr in _COLUMNS))


@dataclass(frozen=True, slots=True)
class InvariantReport:
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
        return Fraction(2 * self.m, self.n)

    @property
    def avt(self) -> Fraction:
        """Average transmission 2W/n."""
        return Fraction(2 * self.wiener, self.n)

    def csv_row(self) -> str:
        return ",".join(
            ("true" if x else "false") if isinstance(x, bool) else str(x)
            for x in _column_values(self)
        )

    def to_json_dict(self) -> dict:
        return {name: x for (name, _), x in zip(_COLUMNS, _column_values(self))}


def full_report(g: Graph, dist: DistanceData | None = None) -> InvariantReport:
    """Compute every invariant of a connected graph in one pass; this is the
    package's only definition of each of them."""
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
