"""Graph construction, graph6 codec, and distance data."""

import random
import time
import tracemalloc

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distinv import (
    DisconnectedGraphError,
    FormatError,
    Graph,
    GraphError,
    all_pairs_distances,
    complement,
    emit_graph6,
    from_edge_list,
    induced_subgraph,
    is_connected,
    parse_edge_list,
    parse_graph6,
)
from distinv import graphs as graphs_mod
from distinv.graphs import decode_graph6
from distinv.families import complete, cycle, path, star
from distinv.sweeps import enumerate_connected_graphs

from oracles import (
    bfs_rows,
    ecc_tr_by_rows,
    floyd_warshall,
    random_connected_graph,
    random_graph,
)


class TestFromEdgeList:
    def test_path3(self):
        g = from_edge_list(3, [(0, 1), (1, 2)])
        assert g.n == 3 and g.m == 2
        assert g.adjacency == ((1,), (0, 2), (1,))

    def test_singleton(self):
        g = from_edge_list(1, [])
        assert g.n == 1 and g.m == 0

    def test_duplicate_edges_collapse(self):
        g = from_edge_list(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 0)])
        assert g.m == 4
        assert g == cycle(4)

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            from_edge_list(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError, match="out of range"):
            from_edge_list(3, [(0, 3)])

    def test_neighbor_lists_sorted(self):
        g = from_edge_list(5, [(4, 0), (2, 0), (0, 3)])
        assert g.adjacency[0] == (2, 3, 4)


# each malformed graph6 line and its FormatError text
MALFORMED_GRAPH6 = [
    ("", "empty graph6 line"),
    ("\r\n", "empty graph6 line"),
    ("A ", "graph6 byte out of range: ' '"),
    ("A! ", "graph6 byte out of range: '!'"),
    ("A\x7f", "graph6 byte out of range: '\\x7f'"),
    ("Aé", "graph6 byte out of range: 'é'"),
    # a bad byte is reported before a bad order field
    ("~ ", "graph6 byte out of range: ' '"),
    ("~?", "truncated graph6 order field"),
    ("~??", "truncated graph6 order field"),
    ("~~?????", "truncated graph6 order field"),
    ("~???", "non-canonical graph6 order field"),
    ("~??}", "non-canonical graph6 order field"),
    ("~~??????", "non-canonical graph6 order field"),
    ("~~???^~~", "non-canonical graph6 order field"),
    # the order bound is checked before the data length
    ("~?_@", "graph order 2049 exceeds the input bound of 2048"),
    ("~~???~??", "graph order 258048 exceeds the input bound of 2048"),
    ("A", "graph6 data for n=2 needs 1 bytes, got 0"),
    ("D?", "graph6 data for n=5 needs 2 bytes, got 1"),
    ("D?{{", "graph6 data for n=5 needs 2 bytes, got 3"),
    ("@?", "graph6 data for n=1 needs 0 bytes, got 1"),
    ("A`", "nonzero graph6 padding bits"),
    ("Bx", "nonzero graph6 padding bits"),
    ("D?}", "nonzero graph6 padding bits"),
]


class TestGraph6:
    def test_k1(self):
        assert emit_graph6(complete(1)) == "@"
        g = parse_graph6("@")
        assert g.n == 1 and g.m == 0

    def test_k2(self):
        g = parse_graph6("A_")
        assert g.n == 2 and g.m == 1
        assert emit_graph6(g) == "A_"

    def test_d_question_brace_is_star(self):
        # 'D'=n=5; data bits 000000 111100 place the last four pairs
        g = parse_graph6("D?{")
        assert g.n == 5
        assert sorted(g.edges()) == [(0, 4), (1, 4), (2, 4), (3, 4)]

    def test_trailing_newline_ok(self):
        assert parse_graph6("A_\n") == parse_graph6("A_")

    @pytest.mark.parametrize(
        "bad",
        ["", "A ", "A", "D?", "D?{{", "~?", "A`"],
    )
    def test_malformed_rejected(self, bad):
        # "A`" has a nonzero padding bit; the rest are range/length errors
        with pytest.raises(FormatError):
            parse_graph6(bad)

    @pytest.mark.parametrize("bad,message", MALFORMED_GRAPH6)
    def test_malformed_message(self, bad, message):
        with pytest.raises(FormatError) as exc:
            parse_graph6(bad)
        assert str(exc.value) == message

    @pytest.mark.parametrize("bad,message", MALFORMED_GRAPH6)
    def test_decode_gives_the_same_error(self, bad, message):
        # the ingest commands read graph6 through decode_graph6 alone
        with pytest.raises(FormatError) as exc:
            decode_graph6(bad)
        assert str(exc.value) == message

    def test_round_trip_enumerated_small(self):
        for n in range(1, 6):
            for g in enumerate_connected_graphs(n):
                assert parse_graph6(emit_graph6(g)) == g

    def test_round_trip_random_n30(self):
        rng = random.Random(20240817)
        for _ in range(10**4):
            n = rng.randint(0, 30)
            g = random_graph(rng, n, rng.choice([0.1, 0.3, 0.5, 0.9]))
            assert parse_graph6(emit_graph6(g)) == g

    def test_cross_check_networkx_decoder(self):
        # orders 1..100 cover both header forms; networkx decodes our lines
        # and we decode networkx's
        rng = random.Random(7)
        for n in range(1, 101):
            g = random_graph(rng, n, rng.choice([0.1, 0.4, 0.9]))
            other = nx.from_graph6_bytes(emit_graph6(g).encode())
            assert other.number_of_nodes() == g.n
            assert sorted(tuple(sorted(e)) for e in other.edges()) == sorted(g.edges())
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(g.edges())
            assert parse_graph6(nx.to_graph6_bytes(h, header=False).decode()) == g

    def test_long_order_header(self):
        g = path(70)
        line = emit_graph6(g)
        assert line.startswith("~")
        assert parse_graph6(line) == g


class TestEdgeListFormat:
    def test_parse_with_comments(self):
        text = "# a path\n3 2\n0 1\n# middle\n1 2\n"
        assert parse_edge_list(text) == path(3)

    @pytest.mark.parametrize(
        "text",
        ["", "3\n", "3 2\n0 1\n", "3 1\n0 1\n1 2\n", "2 1\n0 x\n", "2 1\n1 1\n"],
    )
    def test_malformed(self, text):
        with pytest.raises(FormatError):
            parse_edge_list(text)


class TestInputOrderBound:
    @staticmethod
    def _graph6_header(n):
        return "~~" + "".join(chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0))

    def test_edge_list_header_rejected_before_allocation(self, monkeypatch):
        def refuse(n, edges):
            raise AssertionError(f"allocated a graph of order {n}")

        monkeypatch.setattr(graphs_mod, "from_edge_list", refuse)
        with pytest.raises(FormatError, match="exceeds the input bound"):
            parse_edge_list("1000000000 0\n")

    def test_graph6_header_rejected_before_length_check(self):
        with pytest.raises(FormatError, match="exceeds the input bound"):
            parse_graph6(self._graph6_header(10**9))

    def test_bound_is_inclusive(self):
        limit = graphs_mod.MAX_INPUT_ORDER
        assert parse_edge_list(f"{limit} 1\n0 {limit - 1}\n").n == limit
        with pytest.raises(FormatError, match="exceeds the input bound"):
            parse_edge_list(f"{limit + 1} 0\n")
        edgeless = Graph._raw(limit, [0] * limit)
        assert parse_graph6(emit_graph6(edgeless)) == edgeless
        # every pair bit set: a codec quadratic in the pair count takes minutes
        dense = complete(limit)
        start = time.perf_counter()
        assert parse_graph6(emit_graph6(dense)) == dense
        assert time.perf_counter() - start < 15
        too_big = emit_graph6(Graph._raw(limit + 1, [0] * (limit + 1)))
        with pytest.raises(FormatError, match="exceeds the input bound"):
            parse_graph6(too_big)


class TestDistances:
    def test_p4(self):
        d = all_pairs_distances(path(4))
        assert d.ecc == [3, 2, 2, 3]
        assert d.tr == [6, 4, 4, 6]
        assert d.diam == 3 and d.rad == 2

    def test_k5(self):
        d = all_pairs_distances(complete(5))
        assert all(e == 1 for e in d.ecc)
        assert d.diam == d.rad == 1
        assert d.far == [0b11111 ^ (1 << v) for v in range(5)]

    def test_c6(self):
        d = all_pairs_distances(cycle(6))
        assert d.ecc == [3] * 6 and d.tr == [9] * 6

    def test_k1_convention(self):
        d = all_pairs_distances(complete(1))
        assert d.ecc == [0] and d.tr == [0] and d.diam == d.rad == 0
        assert d.far == [1]  # vertex 0 is its own eccentric vertex

    def test_disconnected_rejected(self):
        two_triangles = from_edge_list(
            6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        )
        with pytest.raises(DisconnectedGraphError):
            all_pairs_distances(two_triangles)

    def test_no_distance_table(self):
        # K_1024 is a single BFS level per vertex; a table of its n^2 pairs
        # alone would take 8 MiB
        g = complete(1024)
        tracemalloc.start()
        try:
            d = all_pairs_distances(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.diam == d.rad == 1
        assert peak < 1 << 20

    def test_matches_floyd_warshall_small(self):
        for n in range(1, 6):
            for g in enumerate_connected_graphs(n):
                rows = floyd_warshall(g)
                assert bfs_rows(g) == rows  # the two reference tables agree
                d = all_pairs_distances(g)
                ecc, tr = ecc_tr_by_rows(rows)
                assert list(d.ecc) == ecc and list(d.tr) == tr
                assert d.far == [
                    sum(1 << u for u, x in enumerate(r) if x == e) for r, e in zip(rows, ecc)
                ]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 12), st.random_module())
    def test_distance_data_invariants(self, n, rnd):
        rng = random.Random(rnd.seed)
        g = random_connected_graph(rng, n, 0.3)
        d = all_pairs_distances(g)
        for v, row in enumerate(bfs_rows(g)):
            assert d.ecc[v] == max(row)
            assert d.tr[v] == sum(row)
        assert d.rad == min(d.ecc) and d.diam == max(d.ecc)
        assert d.rad <= d.diam <= 2 * d.rad

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 14), st.sampled_from((0.1, 0.3, 0.6, 1.0)), st.integers(0, 2**32))
    @example(1, 0.3, 0)
    def test_far_is_each_rows_argmax_set(self, n, p, seed):
        # far[v] holds the vertices at the largest distance in row v; in K1
        # that is vertex 0 itself, at distance 0
        g = random_connected_graph(random.Random(seed), n, p)
        d = all_pairs_distances(g)
        for v, row in enumerate(bfs_rows(g)):
            top = max(row)
            assert d.far[v] == sum(1 << u for u, x in enumerate(row) if x == top)


class TestComplementInduced:
    def test_complement_k4(self):
        g = complement(complete(4))
        assert g.n == 4 and g.m == 0

    def test_complement_p4_self(self):
        g = complement(path(4))
        assert sorted(g.edges()) == [(0, 2), (0, 3), (1, 3)]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 12), st.random_module())
    def test_complement_involution(self, n, rnd):
        g = random_graph(random.Random(rnd.seed), n, 0.5)
        assert complement(complement(g)) == g

    def test_induced_c5_is_p3(self):
        assert induced_subgraph(cycle(5), {0, 1, 2}) == path(3)

    def test_induced_identity(self):
        g = random_graph(random.Random(3), 8, 0.4)
        assert induced_subgraph(g, range(8)) == g

    def test_induced_k5_triple(self):
        assert induced_subgraph(complete(5), {1, 3, 4}) == complete(3)

    def test_induced_relabels_ascending(self):
        g = path(5)
        sub = induced_subgraph(g, {4, 2, 3})
        assert sub == path(3)

    def test_induced_empty(self):
        assert induced_subgraph(path(3), set()).n == 0

    def test_induced_out_of_range(self):
        with pytest.raises(GraphError):
            induced_subgraph(path(3), {0, 5})


class TestConnectivity:
    def test_p7(self):
        assert is_connected(path(7))

    def test_two_triangles(self):
        g = from_edge_list(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert not is_connected(g)

    def test_k1_and_empty(self):
        assert is_connected(complete(1))
        assert is_connected(from_edge_list(0, []))

    def test_isolated_vertex(self):
        assert not is_connected(from_edge_list(2, []))


def test_graph_repr_and_hash():
    g = path(3)
    assert "n=3" in repr(g)
    assert hash(g) == hash(from_edge_list(3, [(1, 2), (0, 1)]))
    assert g != star(4)
