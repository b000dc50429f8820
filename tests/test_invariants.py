"""Scalar invariants against closed forms, brute-force oracles and networkx."""

import json
import random
import tracemalloc
from fractions import Fraction
from functools import reduce
from operator import or_

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distinv import (
    GraphError,
    all_pairs_distances,
    complement,
    emit_graph6,
    from_edge_list,
    full_report,
    parse_graph6,
)
from distinv.families import complete, cycle, path, star
from distinv.graphs import decode_graph6
from distinv.invariants import (
    LANE_MAX_N,
    Block,
    Lanes,
    _Lanes,
    gate_words,
    lane_reports,
    lane_width,
    lane_wiener_e1,
)
from distinv.sweeps import (
    FILTERS,
    SweepSpec,
    _Stream,
    _Tally,
    _connected_graphs_range,
    enumerate_connected_graphs,
    enumerate_trees,
    iter_sweep,
    parse_sweep_spec,
)
from distinv.theorems import CLAIMS, LANE_BLOCK, _l41
from distinv.ud import (
    find_ud_certificate,
    lane_ud_certificates,
    transmission_gap_equality_set,
    ud_certificate,
)

from oracles import (
    bfs_rows,
    block_of,
    csv_row_by_columns,
    gap_equality_by_rows,
    gate_holds,
    lane_eccentric_sets,
    lanes_of,
    random_connected_graph,
    random_graph,
    report_columns,
    transpose,
    ud_certificate_by_table,
    wiener_by_pairs,
    wiener_tree_edgecut,
)


def universal(g):
    return tuple(v for v in range(g.n) if g.degree(v) == g.n - 1)


class TestWiener:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_complete(self, n):
        assert full_report(complete(n)).wiener == n * (n - 1) // 2

    def test_star_5(self):
        g = star(5)
        assert full_report(g).wiener == 16 == g.n * (g.n - 1) - g.m

    def test_p4(self):
        assert full_report(path(4)).wiener == 10

    def test_equals_pairwise_sum_exhaustive(self):
        for n in range(1, 6):
            for g in enumerate_connected_graphs(n):
                assert full_report(g).wiener == wiener_by_pairs(g)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 14), st.random_module())
    def test_equals_pairwise_sum_random(self, n, rnd):
        g = random_connected_graph(random.Random(rnd.seed), n, 0.3)
        assert full_report(g).wiener == wiener_by_pairs(g)


class TestWienerTreeEdgecut:
    def test_p3(self):
        assert wiener_tree_edgecut(path(3)) == 4

    def test_p4(self):
        assert wiener_tree_edgecut(path(4)) == 10 == full_report(path(4)).wiener

    def test_star(self):
        assert wiener_tree_edgecut(star(5)) == 16

    def test_k1(self):
        assert wiener_tree_edgecut(complete(1)) == 0

    def test_all_trees_up_to_9(self):
        for n in range(2, 10):
            for t in enumerate_trees(n):
                assert wiener_tree_edgecut(t) == full_report(t).wiener

    def test_rejects_cycle(self):
        with pytest.raises(GraphError, match="not a tree"):
            wiener_tree_edgecut(cycle(4))

    def test_rejects_disconnected_right_edge_count(self):
        g = from_edge_list(4, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(GraphError, match="not a tree"):
            wiener_tree_edgecut(g)


class TestZagrebEccentricity:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_complete_golden(self, n):
        r = full_report(complete(n))
        assert r.e1 == n
        assert r.e2 == n * (n - 1) // 2

    @pytest.mark.parametrize("n", range(3, 21))
    def test_cycle_golden(self, n):
        r = full_report(cycle(n))
        want = n * (n // 2) ** 2
        assert r.e1 == want
        assert r.e2 == want

    def test_star_diam2_formula(self):
        # one universal vertex: E1 = 4n - 3n'
        r = full_report(star(5))
        assert r.e1 == 4 * 5 - 3 * 1 == 17
        assert r.e2 == 8

    def test_two_universal_vertices_formula(self):
        # K2 joined to three isolated vertices: n'=2, x=0
        g = from_edge_list(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
        r = full_report(g)
        assert universal(g) == (0, 1) and r.n_universal == 2
        assert r.e1 == 14
        assert r.e2 == 13

    def test_c5_equality(self):
        r = full_report(cycle(5))
        assert r.e1 == r.e2 == 20


class TestOtherInvariants:
    def test_total_eccentricity(self):
        assert full_report(cycle(6)).total_ecc == 18
        assert full_report(path(4)).total_ecc == 10
        assert full_report(complete(1)).total_ecc == 0

    def test_eccentric_connectivity(self):
        assert full_report(cycle(4)).ecc_connectivity == 16
        assert full_report(path(3)).ecc_connectivity == 6

    def test_xic_lower_bound_min_degree_2(self):
        # min degree >= 2 forces xic >= 2 * total eccentricity
        for n in range(3, 7):
            for g in enumerate_connected_graphs(n):
                if g.min_degree() < 2:
                    continue
                r = full_report(g)
                assert r.ecc_connectivity >= 2 * r.total_ecc

    def test_universal_vertices(self):
        for g, want in ((star(5), (0,)), (cycle(4), ()), (complete(5), (0, 1, 2, 3, 4))):
            assert universal(g) == want
            assert full_report(g).n_universal == len(want)


class TestFullReport:
    def test_c5(self):
        r = full_report(cycle(5))
        assert (r.n, r.m, r.diam, r.rad) == (5, 5, 2, 2)
        assert (r.wiener, r.e1, r.e2) == (15, 20, 20)
        assert r.self_centered
        assert r.avd == Fraction(2) and r.avt == Fraction(6)

    def test_star5_branch_values(self):
        r = full_report(star(5))
        assert (r.wiener, r.e1, r.e2, r.n_universal) == (16, 17, 8, 1)
        assert r.e1 > r.e2

    def test_p2(self):
        r = full_report(path(2))
        assert (r.wiener, r.e1, r.e2) == (1, 2, 1)

    def test_k1(self):
        r = full_report(complete(1))
        assert (r.n, r.wiener, r.e1, r.e2, r.total_ecc) == (1, 0, 0, 0, 0)
        assert r.n_universal == 1 and r.self_centered

    def test_rationals_reduced(self):
        r = full_report(path(4))
        assert (r.avd.numerator, r.avd.denominator) == (3, 2)
        assert (r.avt.numerator, r.avt.denominator) == (5, 1)

    def test_e1_at_least_total_ecc(self):
        for n in range(2, 6):
            for g in enumerate_connected_graphs(n):
                r = full_report(g)
                assert r.e1 >= r.total_ecc

    def test_csv_row(self):
        r = full_report(cycle(5))
        assert r.csv_row() == "5,5,2,2,15,20,20,10,20,0,2,1,6,1,true"

    def test_json_keys_match_csv_header(self):
        from distinv import CSV_HEADER

        d = full_report(path(3)).to_json_dict()
        assert list(d) == CSV_HEADER.split(",")


def nx_report(g):
    """Every integer field of the report, from networkx and the definitions."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    ecc = nx.eccentricity(h)
    return {
        "wiener": int(nx.wiener_index(h)),
        "e1": sum(e * e for e in ecc.values()),
        "e2": sum(ecc[u] * ecc[v] for u, v in h.edges()),
        "total_ecc": sum(ecc.values()),
        "ecc_connectivity": sum(h.degree(v) * ecc[v] for v in h),
        "n_universal": sum(1 for v in h if h.degree(v) == g.n - 1),
        "diam": nx.diameter(h, e=ecc),
        "rad": nx.radius(h, e=ecc),
    }


class TestFullReportAgainstNetworkx:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_connected_labeled_graph(self, n):
        for g in enumerate_connected_graphs(n):
            r = full_report(g)
            want = nx_report(g)
            assert {k: getattr(r, k) for k in want} == want, emit_graph6(g)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_every_tree(self, n):
        for t in enumerate_trees(n):
            r = full_report(t)
            want = nx_report(t)
            assert {k: getattr(r, k) for k in want} == want, emit_graph6(t)


class TestRationalComparisons:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(-1000, 1000),
        st.integers(1, 1000),
        st.integers(-1000, 1000),
        st.integers(1, 1000),
    )
    def test_cross_multiplication(self, a, b, c, d):
        assert (Fraction(a, b) < Fraction(c, d)) == (a * d < c * b)
        assert (Fraction(a, b) == Fraction(c, d)) == (a * d == c * b)

    def test_threshold_constants_exact(self):
        # 1 + 1/(2(n-1)) at n=5 and (2/5)(n-1-2n') at n=10, n'=1
        assert Fraction(1) + Fraction(1, 2 * (5 - 1)) == Fraction(9, 8)
        assert Fraction(2, 5) * (10 - 1 - 2 * 1) == Fraction(14, 5)


def _sweep(text):
    return lambda: list(iter_sweep(parse_sweep_spec(text)))


def _gated_complements(lo, hi):
    # the complement of each tree of orders lo..hi that has W <= E1
    out = []
    for t in iter_sweep(parse_sweep_spec(f"trees:{lo}..{hi}")):
        rep = full_report(t)
        if rep.wiener <= rep.e1:
            out.append(complement(t))
    return out


# the orders on each side of the lane width bounds: 16/32, 32/64, 64/128,
# 128/256 bits, and LANE_MAX_N
WIDTH_BOUNDS = (16, 31, 32, 63, 64, 127, 128, LANE_MAX_N)

# Graph sets for the lane kernel, in sweep order, with their sizes; mixed
# orders are cut into runs of one order, as hunt's chunks are.
LANE_SETS = {
    "connected:1..6": (27476, _sweep("connected:1..6")),
    # the first 1/16 of the n = 7 masks
    "connected:7/16": (81968, lambda: list(lanes_of(_connected_graphs_range(7, 0, 1 << 17)))),
    "trees:2..15": (13187, _sweep("trees:2..15")),
    "diam2:n=9..12,count=2000,seed=9001": (
        8000, _sweep("diam2:n=9..12,count=2000,seed=9001")
    ),
    "diam2:n=3..8,count=300,seed=5": (1800, _sweep("diam2:n=3..8,count=300,seed=5")),
    "diam2:n=9..12,count=2000,seed=5": (8000, _sweep("diam2:n=9..12,count=2000,seed=5")),
    # T3.3's complement disjunct: all of diameter 2 but the S(1,6) complement
    "tree complements 9..15 with W <= E1": (12273, lambda: _gated_complements(9, 15)),
    # P15 has the largest W, totecc and transmission of any order-15 graph
    "named": (6, lambda: [
        complete(1), complete(2), complete(15), cycle(15), path(15), star(15)
    ]),
    # 32-bit lanes
    "trees:16..16": (19320, _sweep("trees:16..16")),
    # on each side of every lane width bound up to the sampler's n <= 128
    "diam2 at the width bounds": (140, lambda: [
        g for n in WIDTH_BOUNDS[:-1]
        for g in iter_sweep(parse_sweep_spec(f"diam2:n={n},count=20,seed=5"))
    ]),
    # P_n has the largest W, totecc and transmission of any order-n graph
    "named at the width bounds": (32, lambda: [
        f(n) for n in WIDTH_BOUNDS for f in (complete, cycle, path, star)
    ]),
}
# one graph per block adds nothing the other block sizes miss on these
_NO_SINGLE_BLOCKS = {"connected:7/16", "trees:16..16"}


def _by_lanes(kernel, graphs, size):
    # kernel's values over blocks of at most ``size`` graphs of one order,
    # the last one partial
    out = []
    i = 0
    while i < len(graphs):
        j = i + 1
        while j < len(graphs) and j - i < size and graphs[j].n == graphs[i].n:
            j += 1
        out.extend(kernel(block_of(graphs[i:j])))
        i = j
    return out


def _lane_reports(block):
    # each graph's report and L4.1 triple, from the words of one empty gate
    words, reports = lane_reports(block, [()])
    assert all(word & 9 == 1 for word in words)  # the gate holds; connected
    return [(rep, (True, not word & 2, bool(word & 4))) for word, rep in zip(words, reports)]


# orders on each side of every lane width bound, and a small one
MIXED_ORDERS = (5, 15, 16, 31, 32, 63, 64, 127, 128, LANE_MAX_N)


def _mixed_block(n):
    """A block of order-n graphs, connected and not, shuffled so that a
    disconnected graph sits in various lanes, lane 0 among them; with
    whether networkx finds each connected."""
    rng = random.Random(n)
    spine = [(i, i + 1) for i in range(n - 1)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    split = n // 2
    graphs = [
        # disconnected: vertex 0 isolated, vertex n-1 isolated, no edges,
        # a path cut in two, two cliques, and a sparse random graph
        from_edge_list(n, [(u, v) for u, v in pairs if u]),
        from_edge_list(n, [(u, v) for u, v in pairs if v != n - 1]),
        from_edge_list(n, []),
        from_edge_list(n, [e for e in spine if e != (split - 1, split)]),
        from_edge_list(n, [(u, v) for u, v in pairs if (u < split) == (v < split)]),
        random_graph(rng, n, 1 / n),
        # connected
        path(n), cycle(n), star(n), complete(n),
        random_connected_graph(rng, n, 2 / n),
        random_connected_graph(rng, n, 0.3),
    ]
    rng.shuffle(graphs)
    graphs.insert(0, graphs.pop(next(i for i, g in enumerate(graphs) if not g.bits[0])))
    connected = []
    for g in graphs:
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges())
        connected.append(nx.is_connected(h))
    assert 0 < sum(connected) < len(graphs)
    return graphs, connected


class TestLaneReports:
    """The lane kernel is a fast path; full_report and L4.1's per-graph
    predicate are the reference for every field and every triple."""

    @pytest.mark.parametrize("name", LANE_SETS)
    def test_matches_full_report(self, name):
        count, make = LANE_SETS[name]
        graphs = make()
        assert len(graphs) == count
        expected = []
        for g in graphs:
            dist = all_pairs_distances(g)
            rep = full_report(g, dist)
            expected.append((rep, _l41(g, rep, dist)))
        sizes = (3, LANE_BLOCK) if name in _NO_SINGLE_BLOCKS else (1, 3, LANE_BLOCK)
        for size in sizes:
            got = _by_lanes(_lane_reports, graphs, size)
            assert len(got) == count
            for g, a, b in zip(graphs, got, expected):
                assert a == b, (size, emit_graph6(g))

    @pytest.mark.parametrize("n", MIXED_ORDERS)
    def test_disconnected_lanes(self, n):
        # a disconnected graph sets the bit after L4.1's two and no other,
        # and gets no report; every other lane is as full_report and L4.1's
        # predicate say.  The empty gate and the claims' 12 fill all 16 bits
        gates = [()] + [c.gate for c in CLAIMS.values() if c.gate]
        apart = 1 << len(gates) + 2
        graphs, connected = _mixed_block(n)
        words, reports = lane_reports(block_of(graphs), gates)
        for g, ok, word, rep in zip(graphs, connected, words, reports, strict=True):
            if not ok:
                assert (word, rep) == (apart, None), emit_graph6(g)
                continue
            dist = all_pairs_distances(g)
            want = full_report(g, dist)
            _, held, eq = _l41(g, want, dist)
            expected = sum(gate_holds(gate, want) << i for i, gate in enumerate(gates))
            expected |= (not held) << len(gates) | eq << len(gates) + 1
            assert (word, rep) == (expected, want), emit_graph6(g)
        for block in ([from_edge_list(2, [])], [from_edge_list(3, [(1, 2)])] * 2):
            words, reports = lane_reports(block_of(block), [()])
            assert (list(words), reports) == ([8] * len(block), [None] * len(block))

    def test_no_levels_kept(self):
        # a block of P_255 has 16 x 255 sources of 127..254 levels each; the
        # kernel keeps per-source sums, a few packed ints per source
        block = block_of([path(255)] * 16)
        for kernel in (lane_ud_certificates, lambda block: lane_reports(block, [()])):
            tracemalloc.start()
            try:
                kernel(block)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 << 20, peak

    @pytest.mark.parametrize(
        "block",
        [[complete(LANE_MAX_N + 1)], [path(4), path(5)], [from_edge_list(0, [])]],
        ids=["order-256", "mixed-orders", "order-0"],
    )
    def test_outside_the_lane_bound_raises(self, block):
        with pytest.raises(GraphError, match="lane reports need"):
            lane_reports(block_of(block), [()])

    def test_a_list_is_refused(self):
        # the kernel's one input is a Block
        for kernel in (lane_ud_certificates, lambda block: lane_reports(block, [()])):
            with pytest.raises(TypeError, match="takes a Block"):
                kernel([path(3)])


# claim-like gates, and terms whose bounds lie outside every column's range
_EDGE_GATES = [
    (("m", ">=", -3), ("m", "<=", 1 << 300), ("diam", "!=", 1)),
    (("nprime", "==", lambda n: n),),
    (("m", ">=", lambda n: n * (n - 1) // 2 + 1),),
    (("n", "<=", -1),),
    (("self_centered", "==", 0), ("diam", ">=", lambda n: n - 1)),
    (("nprime", "!=", 0), ("m", "<=", lambda n: 2 * n - 3)),
]


class TestLaneGates:
    """The gate words, gated reports and L4.1 bits of the lane kernel against
    each gate evaluated on full_report and against L4.1's predicate."""

    @pytest.mark.parametrize("gates", ["claims", "edges"])
    @pytest.mark.parametrize(
        "name",
        [
            "connected:1..6",
            "trees:2..15",
            "diam2:n=3..8,count=300,seed=5",
            "diam2 at the width bounds",
            "named at the width bounds",
        ],
    )
    def test_matches_full_report(self, name, gates):
        gates = (
            [c.gate for c in CLAIMS.values() if c.gate] if gates == "claims" else _EDGE_GATES
        )
        _, make = LANE_SETS[name]
        graphs = make()
        expected = []
        for g in graphs:
            dist = all_pairs_distances(g)
            rep = full_report(g, dist)
            _, held, eq = _l41(g, rep, dist)
            word = sum(gate_holds(gate, rep) << i for i, gate in enumerate(gates))
            word |= (not held) << len(gates) | eq << len(gates) + 1
            expected.append((word, rep if word & ((1 << len(gates)) - 1) else None))
        got = _by_lanes(lambda block: zip(*lane_reports(block, gates)), graphs, LANE_BLOCK)
        for g, a, b in zip(graphs, got, expected, strict=True):
            assert a == b, emit_graph6(g)

    @pytest.mark.parametrize(
        "name",
        [
            "connected:1..6",
            "trees:2..15",
            "diam2 at the width bounds",
            "named at the width bounds",
        ],
    )
    def test_min_degree_and_filter_gates(self, name):
        # the sweep filters' gates and min_degree terms on each side of its
        # bounds, against the minimum degree read from each graph's adjacency
        gates = [
            *FILTERS.values(),
            (("min_degree", "==", 1),),
            (("min_degree", "<=", lambda n: n - 2), ("min_degree", "!=", 0)),
            (("min_degree", ">=", lambda n: n - 1),),
        ]
        graphs = LANE_SETS[name][1]()
        got = _by_lanes(lambda block: lane_reports(block, gates)[0], graphs, LANE_BLOCK)
        selected = set()
        for g, word in zip(graphs, got, strict=True):
            rep = full_report(g)
            want = [gate_holds(gate, rep, g) for gate in gates]
            assert [bool(word >> i & 1) for i in range(len(gates))] == want, emit_graph6(g)
            selected.update(i for i, held in enumerate(want) if held)
        assert len(selected) >= 4  # four of the six gates hold somewhere in each set

    @pytest.mark.parametrize(
        "name", ["connected:1..6", "trees:2..15", "diam2 at the width bounds"]
    )
    def test_gate_words_are_the_gate_bits(self, name):
        # a filter's gate words, with no report and, for a gate over row
        # columns only, no BFS: the gate bits of lane_reports' words
        gates = [*FILTERS.values(), (("m", ">=", lambda n: n), ("nprime", "==", 0))]
        graphs = LANE_SETS[name][1]()
        for some in [[gate] for gate in gates] + [gates]:
            want = _by_lanes(lambda block: lane_reports(block, some)[0], graphs, LANE_BLOCK)
            got = _by_lanes(lambda block: gate_words(block, some), graphs, LANE_BLOCK)
            assert got == [word & (1 << len(some)) - 1 for word in want]

    def test_at_most_13_gates(self):
        # 13 gate bits, L4.1's two and the disconnected bit fill 16 bits
        words, _ = lane_reports(block_of([path(3)]), [()] * 13)
        assert list(words) == [(1 << 13) - 1 | 1 << 14]
        with pytest.raises(GraphError, match="at most 13 gates"):
            lane_reports(block_of([path(3)]), [()] * 14)


class TestL41Condition:
    """L4.1's zero-gap condition is read from eccentric sets on both BFS
    paths; the reference reads it from the rows of a queue-BFS distance
    table, with the gaps counted from the same rows."""

    @pytest.mark.parametrize("name", LANE_SETS)
    def test_matches_distance_table(self, name):
        count, make = LANE_SETS[name]
        graphs = make()
        assert len(graphs) == count
        expected = []
        for g in graphs:
            rows = bfs_rows(g)
            total = sum(map(max, rows))
            gaps = [total - max(r) - sum(r) for r in rows]
            zero = sum(1 << v for v, gap in enumerate(gaps) if gap == 0)
            equality = gap_equality_by_rows(rows)
            assert transmission_gap_equality_set(all_pairs_distances(g).far) == equality
            expected.append((True, min(gaps) >= 0 and zero == equality, zero != 0))
        got = _by_lanes(lambda block: [t for _, t in _lane_reports(block)], graphs, LANE_BLOCK)
        for g, a, b in zip(graphs, got, expected, strict=True):
            assert a == b, emit_graph6(g)


class TestLaneEccentricSets:
    """The lane eccentric sets and their transposed columns against the rows
    of a queue-BFS distance table, and the UD certificates of the per-graph
    scan over the sets and of the lane scan against the table scan."""

    @pytest.mark.parametrize("name", LANE_SETS)
    def test_matches_distance_table(self, name):
        count, make = LANE_SETS[name]
        graphs = make()
        assert len(graphs) == count
        expected = []
        certificates = []
        for g in graphs:
            dist = all_pairs_distances(g)
            rows = bfs_rows(g)
            ecc = [max(r) for r in rows]
            sets = tuple(
                sum(1 << u for u, x in enumerate(r) if x == e) for r, e in zip(rows, ecc)
            )
            expected.append((tuple(ecc), sets, transpose(sets)))
            assert (tuple(dist.ecc), tuple(dist.far)) == expected[-1][:2]
            cert = ud_certificate_by_table(rows)
            assert find_ud_certificate(g) == find_ud_certificate(g, dist) == cert
            certificates.append(cert)
        for size in (1, 3, LANE_BLOCK):
            got = _by_lanes(lane_eccentric_sets, graphs, size)
            assert len(got) == count
            for g, a, b in zip(graphs, got, expected):
                assert a == b, (size, emit_graph6(g))
        lane_certs = _by_lanes(lane_ud_certificates, graphs, LANE_BLOCK)
        for g, (ecc, sets, _), cert, lane_cert in zip(graphs, got, certificates, lane_certs):
            assert ud_certificate(ecc, sets) == cert, emit_graph6(g)
            assert lane_cert == cert, emit_graph6(g)

    @pytest.mark.parametrize("n", MIXED_ORDERS)
    def test_disconnected_lanes(self, n):
        # None for a disconnected graph, and every other lane as alone
        graphs, connected = _mixed_block(n)
        found = lane_eccentric_sets(block_of(graphs))
        for g, ok, got in zip(graphs, connected, found, strict=True):
            if not ok:
                assert got is None, emit_graph6(g)
                continue
            dist = all_pairs_distances(g)
            want = (tuple(dist.ecc), tuple(dist.far))
            assert got == (*want, transpose(want[1])), emit_graph6(g)


def _bfs_blocks(n):
    """Blocks of order-n graphs for the lane BFS: dense, sparse, deep trees,
    and a partly disconnected block (``_mixed_block``)."""
    rng = random.Random(n + 1)
    parents = [(rng.randrange(max(0, v - 3), v), v) for v in range(1, n)]  # deep
    return {
        # complement(C_n) is connected from order 5 on
        "dense": [complete(n), random_connected_graph(rng, n, 0.8), complement(cycle(n))],
        "sparse": [cycle(n), random_connected_graph(rng, n, 2 / n)],
        "trees": [path(n), star(n), from_edge_list(n, parents)],
        "disconnected": _mixed_block(n)[0],
    }


class TestLaneBfsWithoutTr:
    """``_Lanes(block, tr=False)``, the UD scan's BFS, keeps no Tr; its
    ``ecc``, ``far``, ``depth`` and ``connected`` are those of the BFS that
    counts Tr, and in each connected lane those of ``all_pairs_distances``."""

    @pytest.mark.parametrize("n", MIXED_ORDERS)
    def test_matches_tr_counting_bfs(self, n):
        for kind, graphs in _bfs_blocks(n).items():
            block = block_of(graphs)
            want, got = _Lanes(block), _Lanes(block, tr=False)
            assert got.tr is None and want.tr is not None
            for name in ("ecc", "far", "depth", "connected", "rows"):
                assert getattr(got, name) == getattr(want, name), (kind, name)
            assert got.columns() == want.columns(), kind
            ecc, far = (list(zip(*map(got.unpack, x))) for x in (got.ecc, got.far))
            flags = got.unpack(got.connected)
            for g, c, e, f in zip(graphs, flags, ecc, far, strict=True):
                if c:
                    dist = all_pairs_distances(g)
                    assert (e, f) == (tuple(dist.ecc), tuple(dist.far)), (kind, emit_graph6(g))
            if kind != "disconnected":
                assert all(flags), kind
                assert got.depth == max(max(e) for e in ecc), kind


LANE_WIDTHS = (16, 32, 64, 128, 256)


def _largest_order(width):
    return max(n for n in range(1, LANE_MAX_N + 1) if lane_width(n) == width)


class TestLanes:
    """Each lane-wise operation of ``Lanes`` against the same operation on
    every lane's Python int, at every lane width, for the largest order of
    that width, and k = 1, 3 and ``LANE_BLOCK`` lanes.  ``TestLaneProduct``
    is the ``times`` case."""

    @pytest.fixture(
        params=[(w, k) for w in LANE_WIDTHS for k in (1, 3, LANE_BLOCK)],
        ids=lambda p: f"{p[0]}x{p[1]}",
    )
    def lanes(self, request):
        width, k = request.param
        return Lanes(_largest_order(width), k)

    @staticmethod
    def _draws(lanes, limit):
        """Rounds of k per-lane values below ``limit``, each lane 0, 1,
        limit - 1, a value below 4 (so that lanes often tie) or any value:
        enough rounds that a one-lane block meets each kind."""
        rng = random.Random(lanes.width * 10007 + lanes.k)
        for _ in range(max(2, 40 // lanes.k)):
            yield [
                rng.choice((0, 1, limit - 1, rng.randrange(4), rng.randrange(limit)))
                for _ in range(lanes.k)
            ]

    def test_format(self, lanes):
        width, k, top = lanes.width, lanes.k, lanes.top
        assert (top, lanes.lane) == (width - 1, (1 << width) - 1)
        per_lane = {"ones": 1, "full": (1 << lanes.n) - 1, "low": (1 << top) - 1, "bias": 1 << top}
        for name, value in per_lane.items():
            assert list(lanes.unpack(getattr(lanes, name))) == [value] * k, name
        # pack and unpack round trip over whole lanes, bit top included
        for values in self._draws(lanes, 1 << width):
            x = lanes.pack(values)
            assert x == sum(v << width * j for j, v in enumerate(values))
            assert list(lanes.unpack(x)) == values

    def test_nonzero_and_zero(self, lanes):
        for values in self._draws(lanes, 1 << lanes.top):
            x = lanes.pack(values)
            assert list(lanes.unpack(lanes.nonzero(x))) == [int(v != 0) for v in values]
            assert list(lanes.unpack(lanes.zero(x))) == [int(v == 0) for v in values]

    def test_ge_and_max(self, lanes):
        draws = self._draws(lanes, 1 << lanes.top)
        for a, b in zip(draws, draws):
            for p, q in ((a, b), (b, a), (a, a)):
                x, y = lanes.pack(p), lanes.pack(q)
                want = [int(u >= v) for u, v in zip(p, q)]
                assert list(lanes.unpack(lanes.ge(x, y))) == want
                assert list(lanes.unpack(lanes.max(x, y))) == list(map(max, p, q))

    def test_min(self, lanes):
        draws = self._draws(lanes, 1 << lanes.top)
        for a, b in zip(draws, draws):
            for p, q in ((a, b), (b, a), (a, a)):
                got = lanes.min(lanes.pack(p), lanes.pack(q))
                assert list(lanes.unpack(got)) == list(map(min, p, q))

    def test_at_least(self, lanes):
        # c <= 0 holds in every lane and c >= 2^top in none: the early returns
        top = lanes.top
        for values in self._draws(lanes, 1 << top):
            x = lanes.pack(values)
            for c in (-3, 0, 1, 2, 3, (1 << top) - 1, 1 << top, (1 << top) + 7):
                got = lanes.unpack(lanes.at_least(x, c))
                assert list(got) == [int(v >= c) for v in values], c

    def test_popcount(self, lanes):
        # from 0 bits to n, the most a lane of a graph's rows holds
        for values in self._draws(lanes, 1 << lanes.n):
            got = lanes.unpack(lanes.popcount(lanes.pack(values)))
            assert list(got) == [v.bit_count() for v in values]

    def test_union(self, lanes):
        for values in self._draws(lanes, 1 << lanes.width):
            assert lanes.union(lanes.pack(values)) == reduce(or_, values)

    def test_bits(self, lanes):
        # the bits of each even lane lie above vertex u and those of each odd
        # lane below it, so a filter on the yielded positions must keep
        # exactly the even lanes' bits; a shift of the packed word would keep
        # the odd lanes' too
        n, k = lanes.n, lanes.k
        u = n // 2
        rng = random.Random(n * k)
        values = [
            rng.randrange(1, 1 << n - u - 1) << u + 1 if j % 2 == 0 else rng.randrange(1, 1 << u)
            for j in range(k)
        ]
        want = [v for v in range(n) if reduce(or_, values) >> v & 1]
        got = list(lanes.bits(lanes.pack(values)))
        assert got == want
        above = reduce(or_, values[::2])
        assert [v for v in got if v > u] == [v for v in range(n) if above >> v & 1]


class TestLaneProduct:
    @pytest.mark.parametrize("width", LANE_WIDTHS)
    def test_every_pair_up_to_the_eccentricity_bound(self, width):
        # Lanes.times at the largest order of this lane width, whose
        # eccentricities are at most n - 1; every pair (a, b) of values up
        # to that, one per lane
        n = _largest_order(width)
        values = range(n)
        pairs = [(a, b) for a in values for b in values]
        lanes = Lanes(n, len(pairs))
        a, b = (lanes.pack(col) for col in zip(*pairs))
        got = lanes.times(a, b, n - 1)
        assert list(lanes.unpack(got)) == [x * y for x, y in pairs]


class TestLaneWienerE1:
    """The complement reader's connectivity, W and E1 against the complement's
    ``full_report``."""

    @pytest.mark.parametrize("n", range(9, 17))
    def test_tree_complements(self, n):
        # every tree of the order in blocks of LANE_BLOCK, the star among
        # them: its complement, K_{n-1} and an isolated vertex, is disconnected
        seen = False
        full = (1 << n) - 1
        for block in _Stream(SweepSpec("trees", n, n), ("mod", n, 0, 1), _Tally()).blocks():
            ones = Lanes(n, block.k).ones
            rows = [ones * full & ~(row | ones << u) for u, row in enumerate(block.rows)]
            for j, got in enumerate(lane_wiener_e1(Block(n, block.k, rows))):
                tree = block.graph(j)
                if max(b.bit_count() for b in tree.bits) == n - 1:  # the star
                    assert got is None
                    seen = True
                    continue
                rep = full_report(complement(tree))
                assert got == (rep.wiener, rep.e1), emit_graph6(tree)
        assert seen

    @pytest.mark.parametrize("n", MIXED_ORDERS)
    def test_disconnected_lanes(self, n):
        graphs, connected = _mixed_block(n)
        found = lane_wiener_e1(block_of(graphs))
        for g, ok, got in zip(graphs, connected, found, strict=True):
            rep = full_report(g) if ok else None
            assert got == (rep and (rep.wiener, rep.e1)), emit_graph6(g)


def _pair_blocks(lines, size):
    """``(chunk, block)`` for each run of at most ``size`` lines of one order,
    in order of first appearance, ``block`` built by ``Block.of_pairs`` from
    the decoded pairs of ``chunk``."""
    by_order = {}
    for line in lines:
        n, pairs = decode_graph6(line)
        by_order.setdefault(n, []).append((line, pairs))
    for n, items in by_order.items():
        for i in range(0, len(items), size):
            chunk = items[i : i + size]
            yield [line for line, _ in chunk], Block.of_pairs(n, [p for _, p in chunk])


def _check_pair_blocks(lines, size):
    # every block from pairs against Block.of the parsed graphs; returns the
    # largest block's lane count
    largest = 0
    for chunk, block in _pair_blocks(lines, size):
        graphs = [parse_graph6(line) for line in chunk]
        want = block_of(graphs)
        assert (block.n, block.k, block.rows) == (want.n, want.k, want.rows), chunk[0]
        assert [block.graph(j) for j in range(block.k)] == graphs, chunk[0]
        largest = max(largest, block.k)
    return largest


def _emitted(*specs):
    return lambda: [emit_graph6(g) for spec in specs for g in iter_sweep(parse_sweep_spec(spec))]


# graph6 line sets for Block.of_pairs, with the lane count of their largest
# block of LANE_BLOCK
PAIR_SETS = {
    "connected:1..6": (LANE_BLOCK, _emitted("connected:1..6")),
    "trees:2..12": (551, _emitted("trees:2..12")),
    "diam2 at 9..12, 16, 32, 64 and 128": (LANE_BLOCK, _emitted(
        "diam2:n=9..12,count=1030,seed=5", "diam2:n=16,count=30,seed=5",
        "diam2:n=32,count=12,seed=5", "diam2:n=64,count=6,seed=5",
        "diam2:n=128,count=3,seed=5",
    )),
}  # fmt: skip


class TestBlockOfPairs:
    """``Block.of_pairs`` builds a block's rows from graph6 pair bits lane by
    lane; its rows and graphs must be those of ``Block.of`` over
    ``parse_graph6``, which goes through ``_rows_from_pairs`` graph by
    graph."""

    @pytest.mark.parametrize("size", (2, LANE_BLOCK))
    @pytest.mark.parametrize("name", sorted(PAIR_SETS))
    def test_rows_match_parsed_graphs(self, name, size):
        largest, lines = PAIR_SETS[name]
        assert _check_pair_blocks(lines(), size) == min(size, largest)

    @pytest.mark.parametrize("size", (2, LANE_BLOCK))
    def test_long_header_orders(self, size):
        # every order with the "~" header, 63..255: a sparse random graph and
        # a path at each, and dense graphs, whose columns are nearly full, at
        # the lane width bounds
        rng = random.Random(63)
        graphs = []
        for n in range(63, LANE_MAX_N + 1):
            graphs += [random_graph(rng, n, 2 / n), path(n)]
        for n in (63, 64, 127, 128, LANE_MAX_N):
            graphs += [complete(n), random_graph(rng, n, 0.9), star(n)]
        lines = [emit_graph6(g) for g in graphs]
        assert all(line.startswith("~") for line in lines)
        assert _check_pair_blocks(lines, size) == min(size, 5)

    def test_one_order_in_range(self):
        for n in (0, LANE_MAX_N + 1):
            with pytest.raises(GraphError):
                Block.of_pairs(n, [0, 0])


class TestLaneGraph6:
    """``Block.graph6`` writes every lane's graph6 from the packed rows; each
    record must be ``emit_graph6`` of that lane's graph."""

    @staticmethod
    def _check(block):
        text, size = block.graph6()
        assert len(text) == size * block.k
        for j in range(block.k):
            assert text[j * size : (j + 1) * size] == emit_graph6(block.graph(j)) + "\n"

    @pytest.mark.parametrize(
        "text", ["connected:1..6", "trees:2..14", "diam2:n=9..12,count=300,seed=5"]
    )
    def test_every_lane_of_a_sweep(self, text):
        blocks = list(iter_sweep(parse_sweep_spec(text), blocks=True))
        assert sum(b.k for b in blocks) > 1000
        for block in blocks:
            self._check(block)

    @pytest.mark.parametrize("n", [1, 2, 62, 63, 64, 127, 128, LANE_MAX_N])
    def test_random_blocks(self, n):
        # the "~" header from 63 on, and every lane width from 16 to 256 bits;
        # the empty and the complete graph among random ones
        rng = random.Random(n)
        bits = n * (n - 1) // 2
        pairs = [0, (1 << bits) - 1] + [rng.getrandbits(bits) for _ in range(5)]
        self._check(Block.of_pairs(n, pairs))
        self._check(Block.of_pairs(n, pairs[2:3]))


# graph sets for the row templates: every report from full_report and from
# the lane kernel in blocks of one order
ROW_SETS = {
    "connected:1..6": _sweep("connected:1..6"),
    "trees:2..12": _sweep("trees:2..12"),
    "diam2 at n = 9..12, 16, 32, 64, 128": lambda: [
        g for spec in ("n=9..12,count=100", "n=16,count=20", "n=32,count=8",
                       "n=64,count=4", "n=128,count=2")
        for g in iter_sweep(parse_sweep_spec(f"diam2:{spec},seed=5"))
    ],  # fmt: skip
    "P_255 and K_255": lambda: [path(255), complete(255)],
}


class TestRowTemplates:
    """``json_row`` is the text of ``json.dumps(to_json_dict(),
    sort_keys=True)``, and ``csv_row`` and ``to_json_dict`` carry each
    column's value formatted on its own, avd and avt read from their
    Fractions."""

    @pytest.mark.parametrize("name", ROW_SETS)
    def test_rows(self, name):
        graphs = ROW_SETS[name]()
        lanes = _by_lanes(lambda block: lane_reports(block, [()])[1], graphs, LANE_BLOCK)
        assert len(lanes) == len(graphs)
        for g, lane in zip(graphs, lanes):
            rep = full_report(g)
            assert lane == rep, emit_graph6(g)
            want = report_columns(rep)
            assert rep.to_json_dict() == want
            assert list(rep.to_json_dict()) == list(want)
            assert rep.json_row() == json.dumps(want, sort_keys=True)
            assert rep.csv_row() == csv_row_by_columns(rep)
