"""Eccentric sets, UD certificates, and the transmission gap."""

import json

import networkx as nx
import pytest

from distinv import (
    GraphError,
    UdCertificate,
    all_pairs_distances,
    a_k,
    attach_pendants_at,
    complete,
    cycle,
    figure1,
    find_ud_certificate,
    from_edge_list,
    hypercube,
    is_ud_pair,
    path,
    star,
    transmission_gap,
    transmission_gap_equality_set,
)
from distinv import ud as ud_mod
from distinv.cli import main
from distinv.graphs import emit_graph6
from distinv.invariants import LANE_BLOCK, LANE_MAX_N
from distinv.sweeps import SweepSpec, iter_sweep, parse_sweep_spec
from distinv.ud import lane_ud_certificates

from oracles import (
    bfs_rows,
    bits_of,
    block_of,
    diametrical_pairs,
    floyd_warshall,
    gap_equality_by_rows,
    lane_eccentric_sets,
    transpose,
)
from test_invariants import LANE_SETS, MIXED_ORDERS, _by_lanes, _mixed_block


class TestEccentricSet:
    def test_p4_inner_vertex(self):
        d = all_pairs_distances(path(4))
        assert bits_of(d.far[1]) == (3,)

    def test_c6_antipode(self):
        d = all_pairs_distances(cycle(6))
        for v in range(6):
            assert bits_of(d.far[v]) == ((v + 3) % 6,)

    def test_k5(self):
        d = all_pairs_distances(complete(5))
        assert bits_of(d.far[2]) == (0, 1, 3, 4)

    def test_k1(self):
        d = all_pairs_distances(complete(1))
        assert bits_of(d.far[0]) == (0,)

    def test_nonempty_everywhere(self):
        for g in iter_sweep(SweepSpec("connected_graphs", 5, 5)):
            d = all_pairs_distances(g)
            for v in range(5):
                assert bits_of(d.far[v])


class TestDiametricalPairs:
    """The package keeps no pair list: its diametrical pairs are the ones
    ``find_ud_certificate`` scans and ``is_ud_pair`` accepts, checked here
    against the pairs of a Floyd-Warshall table."""

    def test_p5(self):
        assert diametrical_pairs(floyd_warshall(path(5))) == [(0, 4)]
        assert find_ud_certificate(path(5)).pair == (0, 4)

    def test_c4(self):
        cert = find_ud_certificate(cycle(4))
        assert [p for p, _ in cert.failures] == [(0, 2), (1, 3)]
        assert diametrical_pairs(floyd_warshall(cycle(4))) == [(0, 2), (1, 3)]

    def test_figure1_includes_ends(self):
        assert (0, 11) in diametrical_pairs(floyd_warshall(figure1()))
        assert find_ud_certificate(figure1()).pair == (0, 11)

    def test_non_ud_graphs_scan_every_pair(self):
        # a graph that is not UD fails at every diametrical pair, in order
        scanned = 0
        for n in range(2, 6):
            for g in iter_sweep(SweepSpec("connected_graphs", n, n)):
                cert = find_ud_certificate(g)
                if not cert.is_ud:
                    pairs = diametrical_pairs(floyd_warshall(g))
                    assert [p for p, _ in cert.failures] == pairs
                    scanned += 1
        assert scanned > 0

    def test_is_ud_pair_accepts_exactly_these_pairs(self):
        for n in range(2, 6):
            for g in iter_sweep(SweepSpec("connected_graphs", n, n)):
                d = all_pairs_distances(g)
                pairs = diametrical_pairs(floyd_warshall(g))
                for u in range(n):
                    for v in range(n):
                        if (min(u, v), max(u, v)) in pairs:
                            is_ud_pair(g, d, u, v)
                        else:
                            with pytest.raises(GraphError, match="not a diametrical pair"):
                                is_ud_pair(g, d, u, v)


class TestIsUdPair:
    def test_tree_diametrical_path_ends(self):
        for t in iter_sweep(SweepSpec("trees", 8, 8)):
            d = all_pairs_distances(t)
            for u, v in diametrical_pairs(floyd_warshall(t)):
                assert is_ud_pair(t, d, u, v)

    def test_c6_pair_fails_with_witness_1(self):
        g = cycle(6)
        d = all_pairs_distances(g)
        assert not is_ud_pair(g, d, 0, 3)
        # vertex 1's sole eccentric vertex is 4
        assert bits_of(d.far[1]) == (4,)

    def test_hypercube_antipodes_are_not_ud(self):
        # every vertex's eccentric set is exactly its own antipode, so no
        # pair can serve every third vertex
        for dim in (2, 3, 4):
            g = hypercube(dim)
            d = all_pairs_distances(g)
            assert not is_ud_pair(g, d, 0, g.n - 1)

    def test_non_diametrical_pair_rejected(self):
        g = path(4)
        d = all_pairs_distances(g)
        with pytest.raises(GraphError, match="not a diametrical pair"):
            is_ud_pair(g, d, 0, 1)

    @pytest.mark.parametrize(
        "u, v", [(0, 10), (0, -4), (-6, 3), (2, 2), (0, 2)],
        ids=["beyond-n", "negative", "negative-first", "same-vertex", "not-diametrical"],
    )
    def test_c6_rejects(self, u, v):
        # a negative vertex is out of range, not an index from the end
        g = cycle(6)
        d = all_pairs_distances(g)
        with pytest.raises(GraphError, match=rf"\({u},{v}\) is not a diametrical pair"):
            is_ud_pair(g, d, u, v)

    def test_k1_has_no_pair(self):
        d = all_pairs_distances(complete(1))
        with pytest.raises(GraphError, match="not a diametrical pair"):
            is_ud_pair(complete(1), d, 0, 0)


class TestCertificates:
    def test_trees_up_to_10(self):
        for n in range(2, 11):
            for t in iter_sweep(SweepSpec("trees", n, n)):
                assert find_ud_certificate(t).is_ud

    def test_a2_certificate(self):
        cert = find_ud_certificate(a_k(2))
        assert cert.is_ud and cert.pair == (4, 6) and cert.diam == 4

    def test_c6_fails_all_three_pairs(self):
        cert = find_ud_certificate(cycle(6))
        assert not cert.is_ud and cert.pair is None
        assert [pair for pair, _w in cert.failures] == [(0, 3), (1, 4), (2, 5)]
        d = all_pairs_distances(cycle(6))
        rows = bfs_rows(cycle(6))
        for (u, v), w in cert.failures:
            assert max(rows[w][u], rows[w][v]) < d.ecc[w]

    def test_k1_and_k2_conventions(self):
        c1 = find_ud_certificate(complete(1))
        assert c1.is_ud and c1.pair is None and c1.diam == 0
        c2 = find_ud_certificate(complete(2))
        assert c2.is_ud and c2.pair == (0, 1)

    def test_certificate_pair_valid_when_ud(self):
        for g in iter_sweep(SweepSpec("connected_graphs", 5, 5)):
            cert = find_ud_certificate(g)
            if cert.is_ud and g.n >= 2:
                d = all_pairs_distances(g)
                assert cert.pair is not None
                assert is_ud_pair(g, d, *cert.pair)

    def test_json_shape(self):
        blob = json.dumps(find_ud_certificate(cycle(6)).to_json_dict())
        data = json.loads(blob)
        assert set(data) == {"is_ud", "pair", "diam", "failures"}
        assert data["failures"][0].keys() == {"pair", "witness"}

    def test_grown_pair_stays_ud(self):
        # the structural half of the pendant-growth argument
        cases = [a_k(1), a_k(3), figure1()]
        for n in range(2, 11):
            cases.extend(iter_sweep(SweepSpec("trees", n, n)))
        for g in cases:
            cert = find_ud_certificate(g)
            assert cert.is_ud
            if cert.pair is None:
                continue
            grown = attach_pendants_at(g, *cert.pair)
            d0 = all_pairs_distances(g)
            d1 = all_pairs_distances(grown)
            assert is_ud_pair(grown, d1, g.n, g.n + 1)
            assert all(d1.ecc[v] == d0.ecc[v] + 1 for v in range(g.n))


def _definition(h):
    # the UD certificate of networkx graph h straight from the definition
    n = h.number_of_nodes()
    d = dict(nx.all_pairs_shortest_path_length(h))
    ecc = [max(d[v].values()) for v in range(n)]
    diam = max(ecc)
    if n == 1:
        return UdCertificate(True, None, 0)
    failures = []
    for u in range(n):
        for v in range(u + 1, n):
            if d[u][v] != diam:
                continue
            bad = [w for w in range(n) if w not in (u, v) and ecc[w] not in (d[w][u], d[w][v])]
            if not bad:
                return UdCertificate(True, (u, v), diam)
            failures.append(((u, v), bad[0]))
    return UdCertificate(False, None, diam, tuple(failures))


class TestCertificateDefinition:
    def test_networkx_atlas(self):
        # every connected graph on 1..7 vertices, one order after another
        atlas = [h for h in nx.graph_atlas_g()[1:] if nx.is_connected(h)]
        assert len(atlas) == 1 + 1 + 2 + 6 + 21 + 112 + 853
        graphs = [from_edge_list(h.number_of_nodes(), h.edges()) for h in atlas]
        want = [_definition(h) for h in atlas]
        assert [find_ud_certificate(g) for g in graphs] == want
        lanes = []
        for n in range(1, 8):
            lanes.extend(_lane_ud([g for g in graphs if g.n == n]))
        assert lanes == want

    def test_is_ud_pair_on_atlas(self):
        # every diametrical pair of every connected atlas graph on 2..7
        # vertices, against the definition
        pairs = 0
        for h in nx.graph_atlas_g()[3:]:
            if not nx.is_connected(h):
                continue
            n = h.number_of_nodes()
            g = from_edge_list(n, h.edges())
            dist = all_pairs_distances(g)
            d = dict(nx.all_pairs_shortest_path_length(h))
            ecc = [max(d[v].values()) for v in range(n)]
            for u in range(n):
                for v in range(u + 1, n):
                    if d[u][v] == max(ecc):
                        others = (w for w in range(n) if w not in (u, v))
                        want = all(ecc[w] in (d[w][u], d[w][v]) for w in others)
                        assert is_ud_pair(g, dist, u, v) == want, (h.edges(), u, v)
                        pairs += 1
        assert pairs == 4554


class TestJsonRow:
    """``UdCertificate.json_row`` is the text of ``json.dumps(to_json_dict(),
    sort_keys=True)``."""

    def test_atlas_and_named(self):
        # K1's pair is None, and some atlas graphs fail several pairs
        atlas = [h for h in nx.graph_atlas_g()[1:] if nx.is_connected(h)]
        graphs = [from_edge_list(h.number_of_nodes(), h.edges()) for h in atlas]
        graphs += [complete(1), complete(2), cycle(6)]
        certs = [find_ud_certificate(g) for g in graphs]
        assert {c.is_ud for c in certs} == {True, False}
        assert max(len(c.failures) for c in certs) > 1
        for c in certs:
            assert c.json_row() == json.dumps(c.to_json_dict(), sort_keys=True)

    def test_lane_certificates(self):
        # the lane scan's certificates, some failure entries shared among
        # lanes: the atlas's blocks of one order and the diameter-2 stream's
        atlas = [h for h in nx.graph_atlas_g()[1:] if nx.is_connected(h)]
        graphs = [from_edge_list(h.number_of_nodes(), h.edges()) for h in atlas]
        graphs += iter_sweep(parse_sweep_spec("diam2:n=9..12,count=300,seed=5"))
        certs = _by_lanes(lane_ud_certificates, graphs, LANE_BLOCK)
        assert certs == [find_ud_certificate(g) for g in graphs]
        entries = [e for c in certs for e in c.failures]
        assert len({id(e) for e in entries}) < len(entries)
        for c in certs:
            assert c.json_row() == json.dumps(c.to_json_dict(), sort_keys=True)

    def test_failure_text_memo_is_bounded(self):
        # more distinct failure entries than the memo holds, as an order-255
        # input has: the rows stay right and the memo stays within its bound
        bound = ud_mod._failure_text.cache_info().maxsize
        entries = tuple(((u, v), w) for u in range(40) for v in range(u + 1, 255) for w in (0, 7))
        assert len(set(entries)) > bound
        cert = UdCertificate(False, None, 2, entries)
        for _ in range(2):
            assert cert.json_row() == json.dumps(cert.to_json_dict(), sort_keys=True)
        assert ud_mod._failure_text.cache_info().currsize == bound


def _lane_ud(graphs):
    # the lane UD scan of ``distinv ud`` on one block of one order
    return lane_ud_certificates(block_of(graphs))


def _minus_edge(n, u, v):
    # K_n without the edge uv, u < v
    edges = [(a, b) for b in range(n) for a in range(b) if (a, b) != (u, v)]
    return from_edge_list(n, edges)


class TestLaneColumns:
    """The UD scan over the lanes' transposed eccentric sets against
    ``find_ud_certificate`` graph by graph, on dense blocks at every lane
    width; ``test_networkx_atlas`` and ``TestLaneEccentricSets`` in
    test_invariants.py cover the atlas, trees and diameter-2 streams."""

    # one order on each side of every lane width bound, 16 to 256 bits
    @pytest.mark.parametrize("n", (15, 16, 31, 32, 63, 64, 127, 128, LANE_MAX_N))
    def test_dense_blocks(self, n):
        # K_n transposes every complement; K_n minus an edge transposes the
        # complements except at the edge's ends; a dense and a sparse lane
        # share a block with P_n and C_n
        dense = [complete(n), _minus_edge(n, 0, 1), _minus_edge(n, 3, n - 1)]
        for block in (dense, dense + [path(n), cycle(n)]):
            assert _lane_ud(block) == [find_ud_certificate(g) for g in block]
            for ecc, sets, cols in lane_eccentric_sets(block_of(block)):
                assert cols == transpose(sets)


class TestLaneScan:
    """``lane_ud_certificates`` against ``find_ud_certificate`` graph by
    graph: the kernel's graph streams at three block sizes, disconnected
    lanes, the K1 and K2 conventions, and ``distinv ud``, which scans every
    block lane-wise."""

    @pytest.mark.parametrize("name", LANE_SETS)
    def test_lane_sets(self, name):
        count, make = LANE_SETS[name]
        graphs = make()
        assert len(graphs) == count
        want = [find_ud_certificate(g) for g in graphs]
        for size in (1, 3, LANE_BLOCK):
            got = _by_lanes(lane_ud_certificates, graphs, size)
            for g, a, b in zip(graphs, got, want, strict=True):
                assert a == b, (size, emit_graph6(g))

    @pytest.mark.parametrize("n", MIXED_ORDERS)
    def test_disconnected_lanes(self, n):
        # None for a disconnected graph, and every other lane as alone
        graphs, connected = _mixed_block(n)
        got = lane_ud_certificates(block_of(graphs))
        for g, ok, cert in zip(graphs, connected, got, strict=True):
            assert cert == (find_ud_certificate(g) if ok else None), emit_graph6(g)

    def test_k1_and_k2_blocks(self):
        k1, k2 = complete(1), complete(2)
        two_k1 = from_edge_list(2, [])
        k2_and_two_k1 = from_edge_list(4, [(1, 2)])
        k1_cert = UdCertificate(True, None, 0)
        k2_cert = UdCertificate(True, (0, 1), 1)
        assert _lane_ud([k1] * 3) == [k1_cert] * 3
        assert _lane_ud([k2] * 3) == [k2_cert] * 3
        assert _lane_ud([two_k1, k2, two_k1, k2]) == [None, k2_cert, None, k2_cert]
        assert _lane_ud([k2_and_two_k1, path(4)]) == [None, find_ud_certificate(path(4))]

    def test_ud_command_runs_no_per_graph_scan(self, monkeypatch, capsys, tmp_path):
        # every order of the file has at least two graphs, so every graph
        # goes through the lane scan and none through ud_certificate
        graphs = list(iter_sweep(SweepSpec("connected_graphs", 4, 4))) + [complete(1)] * 2
        graphs += list(iter_sweep(parse_sweep_spec("trees:2..9")))
        graphs += list(iter_sweep(parse_sweep_spec("diam2:n=9..10,count=20,seed=5")))
        f = tmp_path / "in.g6"
        f.write_text("".join(f"{emit_graph6(g)}\n" for g in graphs * 2))
        want = "".join(f"{find_ud_certificate(g).json_row()}\n" for g in graphs * 2)
        calls = []
        real = ud_mod.ud_certificate

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(ud_mod, "ud_certificate", counted)
        assert main(["ud", str(f)]) == 0
        assert capsys.readouterr() == (want, "")
        assert calls == []
        find_ud_certificate(path(3))
        assert len(calls) == 1  # the counter sees the per-graph path


class TestTransmissionGap:
    def test_star_center(self):
        d = all_pairs_distances(star(5))
        assert transmission_gap(d, 0) == 9 - 1 - 4 == 4

    def test_p2_equality(self):
        d = all_pairs_distances(path(2))
        for v in (0, 1):
            assert transmission_gap(d, v) == 0
        assert transmission_gap_equality_set(d.far) == 0b11

    def test_k1_equality(self):
        d = all_pairs_distances(complete(1))
        assert transmission_gap(d, 0) == 0
        assert transmission_gap_equality_set(d.far) == 1

    def test_p3_center(self):
        d = all_pairs_distances(path(3))
        assert transmission_gap(d, 1) == (2 + 1 + 2) - 1 - 2 == 2

    def test_complete_graphs_all_zero(self):
        d = all_pairs_distances(complete(6))
        assert all(transmission_gap(d, v) == 0 for v in range(6))
        assert transmission_gap_equality_set(d.far) == 0b111111

    @pytest.mark.parametrize("n", range(1, 6))
    def test_nonnegative_and_equality_biconditional_small(self, n):
        for g in iter_sweep(SweepSpec("connected_graphs", n, n)):
            d = all_pairs_distances(g)
            equality = transmission_gap_equality_set(d.far)
            assert equality == gap_equality_by_rows(floyd_warshall(g))
            for v in range(n):
                gap = transmission_gap(d, v)
                assert gap >= 0
                assert (gap == 0) == bool(equality >> v & 1)

    def test_trees_up_to_9(self):
        for n in range(2, 10):
            for t in iter_sweep(SweepSpec("trees", n, n)):
                d = all_pairs_distances(t)
                equality = transmission_gap_equality_set(d.far)
                assert equality == gap_equality_by_rows(bfs_rows(t))
                for v in range(n):
                    gap = transmission_gap(d, v)
                    assert gap >= 0
                    assert (gap == 0) == bool(equality >> v & 1)
