"""Acceptance suite: one test per criterion, exact tolerances, full scale.

The heavy sweeps are shared through module-scoped fixtures; worker-count
determinism reruns the same sweeps with eight workers and compares the
serialized reports byte for byte.

Two criteria assert a proven refutation rather than the claim as first
stated, and each test carries its proof in its docstring: the
complement-disjunction claim T3.3 fails on exactly one tree of order >= 9,
the double star with 1+6 leaves (``test_criterion_06_tree_complement_claim``),
and the d-cube is universally diametrical only for d = 1, because every
vertex's eccentric set is exactly its antipode
(``test_criterion_08_ud_hypercube_antipodes``).  Both outcomes are also
recomputed with networkx, so the expected values rest on the proof and on an
independent implementation rather than on distinv alone.
"""

import json
import time

import networkx as nx
import pytest

from distinv import (
    GraphError,
    SweepSpec,
    all_pairs_distances,
    a_k,
    check_c44,
    check_product_identities,
    check_t42,
    check_t52,
    check_t54,
    complete,
    cycle,
    emit_graph6,
    figure1,
    find_ud_certificate,
    fold_sweep,
    full_report,
    hunt,
    hypercube,
    is_ud_pair,
    iter_sweep,
    parse_graph6,
    path,
    star,
    thm29_construction,
)
from distinv.theorems import check_l41

from oracles import bits_of, diametrical_pairs, floyd_warshall, wiener_tree_edgecut

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704, 7: 1866256}
TREE_COUNTS = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106,
               11: 235, 12: 551, 13: 1301, 14: 3159}

DIAM2_SEED = 7
DIAM2_COUNT = 100_000

UNARY_IDS = ("P2.1", "C2.2", "T2.3", "P2.4", "P2.6", "L4.1")
SAMPLED_IDS = ("T2.5", "T2.7", "C2.8i", "C2.8ii", "P2.4")
TREE_IDS = ("T3.1", "T3.2", "L4.1")


def _oracle_fold(acc, graphs):
    for g in graphs:
        rows = floyd_warshall(g)
        d = all_pairs_distances(g)
        ok = d.ecc == [max(r) for r in rows] and d.tr == [sum(r) for r in rows]
        ok = ok and d.far == [
            sum(1 << u for u, x in enumerate(r) if x == e) for r, e in zip(rows, d.ecc)
        ]
        acc[0] += 1
        acc[1] += 0 if ok else 1
    return acc


def _oracle_combine(a, b):
    a[0] += b[0]
    a[1] += b[1]
    return a


def _run_oracle_sweep(workers):
    start = time.perf_counter()
    lines = []
    for n in sorted(CONNECTED_COUNTS):
        spec = SweepSpec("connected_graphs", n, n)
        (graphs, mismatches), _summary = fold_sweep(
            spec, _oracle_fold, _oracle_combine, lambda: [0, 0], workers=workers
        )
        lines.append(f"n={n} graphs={graphs} mismatches={mismatches}")
    return "\n".join(lines), time.perf_counter() - start


def _serialize_reports(reports):
    return json.dumps([r.to_json_dict() for r in reports], sort_keys=True)


@pytest.fixture(scope="module")
def oracle_report_w1():
    return _run_oracle_sweep(workers=1)


@pytest.fixture(scope="module")
def oracle_report_w8():
    return _run_oracle_sweep(workers=8)


@pytest.fixture(scope="module")
def unary_hunt():
    return hunt(SweepSpec("connected_graphs", 3, 7), UNARY_IDS)


@pytest.fixture(scope="module")
def diam2_hunt_w1():
    spec = SweepSpec(
        "diameter2_graphs", 9, 12, sample_count=DIAM2_COUNT, seed=DIAM2_SEED
    )
    start = time.perf_counter()
    reports = hunt(spec, SAMPLED_IDS)
    return reports, time.perf_counter() - start


@pytest.fixture(scope="module")
def diam2_hunt_w8():
    spec = SweepSpec(
        "diameter2_graphs", 9, 12, sample_count=DIAM2_COUNT, seed=DIAM2_SEED
    )
    return hunt(spec, SAMPLED_IDS, workers=8)


@pytest.fixture(scope="module")
def tree_hunt_w1():
    start = time.perf_counter()
    reports = hunt(SweepSpec("trees", 2, 14), TREE_IDS)
    return reports, time.perf_counter() - start


@pytest.fixture(scope="module")
def tree_hunt_w8():
    return hunt(SweepSpec("trees", 2, 14), TREE_IDS, workers=8)


@pytest.fixture(scope="module")
def tree33_hunt_w1():
    return hunt(SweepSpec("trees", 9, 12), ["T3.3"])


@pytest.fixture(scope="module")
def tree33_hunt_w8():
    return hunt(SweepSpec("trees", 9, 12), ["T3.3"], workers=8)


def test_criterion_01_closed_form_golden_values():
    start = time.perf_counter()
    for n in range(3, 11):
        r = full_report(complete(n))
        assert r.e1 == n
        assert r.e2 == n * (n - 1) // 2 == r.wiener
    for n in range(3, 21):
        r = full_report(cycle(n))
        want = n * (n // 2) ** 2
        assert r.e1 == want
        assert r.e2 == want
    assert time.perf_counter() - start < 1.0


def test_criterion_02_distance_oracle_full_enumeration(oracle_report_w1):
    report, elapsed = oracle_report_w1
    expected = "\n".join(
        f"n={n} graphs={c} mismatches=0" for n, c in sorted(CONNECTED_COUNTS.items())
    )
    assert report == expected
    assert elapsed < 600.0


def test_criterion_03_tree_edgecut_identity():
    start = time.perf_counter()
    assert wiener_tree_edgecut(complete(1)) == 0
    total = 0
    for n in range(2, 13):
        for t in iter_sweep(SweepSpec("trees", n, n)):
            assert wiener_tree_edgecut(t) == full_report(t).wiener
            total += 1
    assert total == 986
    assert time.perf_counter() - start < 10.0


def test_criterion_04_unary_diameter2_claims(unary_hunt):
    by_id = {r.theorem_id: r for r in unary_hunt}
    visited = sum(CONNECTED_COUNTS[n] for n in range(3, 8))
    for tid in ("P2.1", "C2.2", "T2.3", "P2.4", "P2.6"):
        rep = by_id[tid]
        assert rep.counterexamples == (), rep
        assert rep.graphs_visited == visited
    eq = by_id["C2.2"].equality_cases
    assert len(eq) == 3 + 12  # labeled 4-cycles and 5-cycles
    lengths = set()
    for g6 in eq:
        g = parse_graph6(g6)
        assert g.m == g.n and all(g.bits[v].bit_count() == 2 for v in range(g.n))
        lengths.add(g.n)
    assert lengths == {4, 5}


def test_criterion_05_sampled_diameter2_claims(diam2_hunt_w1):
    reports, elapsed = diam2_hunt_w1
    by_id = {r.theorem_id: r for r in reports}
    for tid in SAMPLED_IDS:
        rep = by_id[tid]
        assert rep.graphs_visited == 4 * DIAM2_COUNT
        assert rep.counterexamples == (), rep
    # every sample has diameter 2 and order >= 9, so these gates always open
    assert by_id["T2.5"].hypothesis_hits == 4 * DIAM2_COUNT
    assert by_id["P2.4"].hypothesis_hits == 4 * DIAM2_COUNT
    assert elapsed < 600.0
    # reproducibility: the same seed yields the same stream
    spec = SweepSpec("diameter2_graphs", 9, 9, sample_count=50, seed=DIAM2_SEED)
    a = [emit_graph6(g) for g in iter_sweep(spec)]
    b = [emit_graph6(g) for g in iter_sweep(spec)]
    assert a == b


def test_criterion_06_tree_claims(tree_hunt_w1):
    reports, elapsed = tree_hunt_w1
    by_id = {r.theorem_id: r for r in reports}
    visited = sum(TREE_COUNTS.values())
    for tid in ("T3.1", "T3.2"):
        rep = by_id[tid]
        assert rep.graphs_visited == visited
        assert rep.counterexamples == (), rep
    # sole equality case of the tight tree bound: the 3-path
    (eq_case,) = by_id["T3.1"].equality_cases
    p3 = parse_graph6(eq_case)
    assert p3.n == 3 and p3.m == 2
    assert elapsed < 120.0


def _nx_wiener_e1(h):
    ecc = nx.eccentricity(h)
    return nx.wiener_index(h), sum(e * e for e in ecc.values())


def test_criterion_06_tree_complement_claim(tree33_hunt_w1):
    """T3.3 ("a tree with n > 8 has W > E1, or its complement does") is
    false, and the double star S(1,6) -- centres carrying 1 and 6 leaves --
    is its only counterexample of any order n >= 9.

    With E1 = sum of squared eccentricities, split the trees of order n >= 9
    by diameter:

    * Stars (diameter 2): W = (n-1)^2 > 4n-3 = E1, so the tree disjunct
      holds.
    * Diameter >= 4: the complement has diameter 2 and, the tree having no
      isolated vertex, no universal vertex.  So every complement
      eccentricity is 2, E1(T') = 4n, and
      W(T') = n(n-1)/2 + n-1 > 4n for n >= 8: the complement disjunct holds.
    * Double stars S(a,b), a + b = n-2 (diameter 3): W = (n-1)(n-2) +
      (a+1)(b+1) and E1 = 2*2^2 + (n-2)*3^2, so
      W - E1 = (n-1)(n-2) + (a+1)(b+1) - (9n-10).  With a <= b this is
      smallest at a = 1, where it equals n^2 - 10n + 8; that is negative
      only at n = 9, and a = 2 already gives 74 > 71 there.  So the tree
      disjunct fails only for S(1,6): W = 70 < E1 = 71.  Its complement
      has diameter 3 (the two centres dominate the tree, so they share no
      complement neighbour) and W = 45 < E1 = 46.

    The sweep therefore meets the hypothesis on every tree of orders 9..12
    and reports that one tree; networkx, enumerating the trees itself,
    finds the same single failure with the same numbers.
    """
    (rep,) = tree33_hunt_w1
    visited = sum(TREE_COUNTS[n] for n in (9, 10, 11, 12))
    assert visited == 47 + 106 + 235 + 551
    assert rep.graphs_visited == rep.hypothesis_hits == visited
    assert rep.equality_cases == ()
    assert len(rep.counterexamples) == 1, (
        "T3.3 counterexample(s): "
        + ", ".join(v.graph_id for v in rep.counterexamples)
    )
    (bad,) = rep.counterexamples
    assert bad.hypothesis_met and bad.conclusion_held is False
    assert bad.detail == {
        "n": 9,
        "W": 70,
        "E1": 71,
        "disjunct": "complement",
        "W_comp": 45,
        "E1_comp": 46,
    }
    tree = parse_graph6(bad.graph_id)
    assert tree.n == 9
    assert sorted(tree.bits[v].bit_count() for v in range(9)) == [1] * 7 + [2, 7]

    # independent recount: networkx enumerates the trees and computes W, E1
    # for each tree and, where the tree disjunct fails, for its complement
    failures = []
    for n in (9, 10, 11, 12):
        for t in nx.nonisomorphic_trees(n):
            w, e1 = _nx_wiener_e1(t)
            if w > e1:
                continue
            tc = nx.complement(t)
            wc, e1c = _nx_wiener_e1(tc)
            if wc <= e1c:
                failures.append((t, (w, e1, wc, e1c), nx.diameter(tc)))
    ((nx_tree, numbers, comp_diam),) = failures
    assert numbers == (70, 71, 45, 46)
    assert comp_diam == 3
    assert nx.is_isomorphic(nx_tree, nx.from_graph6_bytes(bad.graph_id.encode()))


def test_criterion_07_transmission_gap(unary_hunt, tree_hunt_w1):
    connected = {r.theorem_id: r for r in unary_hunt}["L4.1"]
    assert connected.graphs_visited == sum(CONNECTED_COUNTS[n] for n in range(3, 8))
    assert connected.counterexamples == ()
    trees = {r.theorem_id: r for r in tree_hunt_w1[0]}["L4.1"]
    assert trees.counterexamples == ()
    # orders 1 and 2 directly
    for g in (complete(1), complete(2)):
        assert check_l41(g).conclusion_held


def test_criterion_08_ud_trees():
    for n in range(2, 13):
        for t in iter_sweep(SweepSpec("trees", n, n)):
            assert find_ud_certificate(t).is_ud


def test_criterion_08_ud_pendant_family():
    for k in range(1, 6):
        cert = find_ud_certificate(a_k(k))
        assert cert.is_ud and cert.diam == 4
        assert cert.pair == (4, 4 + k)  # one pendant from each side


def test_criterion_08_ud_figure1():
    cert = find_ud_certificate(figure1())
    assert cert.is_ud and cert.diam == 11 and cert.pair == (0, 11)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_criterion_08_ud_hypercube_antipodes(dim):
    """The d-cube is universally diametrical exactly when d = 1.

    For vertices w, u of Q_d, d(w,u) + d(w,u') = d, where u' is the
    antipode of u, and ecc(w) = d with w' the only vertex at distance d.
    So max(d(w,u), d(w,u')) = ecc(w) = d only for w in {u, u'}: every third
    vertex witnesses that the antipodal pair (u, u') is not UD.  The
    antipodal pairs are the only diametrical pairs, so Q_d is not UD for
    d >= 2; Q_1 = K2 is UD vacuously.  The distances below are recomputed
    with networkx on its own hypercube.
    """
    g = hypercube(dim)
    d = all_pairs_distances(g)
    n = g.n
    full = n - 1
    antipodal = [(v, v ^ full) for v in range(n) if v < v ^ full]
    assert len(antipodal) == 2 ** (dim - 1)

    # networkx labels Q_1's vertices 0, 1 and larger cubes' by bit tuples;
    # bit i is tuple slot i
    ref = nx.hypercube_graph(dim)
    if dim > 1:
        ref = nx.relabel_nodes(ref, lambda t: sum(b << i for i, b in enumerate(t)))
    assert set(map(frozenset, ref.edges())) == set(map(frozenset, g.edges()))
    ref_dist = dict(nx.shortest_path_length(ref))
    for w in range(n):
        ecc = max(ref_dist[w].values())
        assert ecc == dim
        assert [u for u in range(n) if ref_dist[w][u] == ecc] == [w ^ full]
        for u in range(n):
            assert ref_dist[w][u] + ref_dist[w][u ^ full] == dim

    for v in range(n):
        assert d.ecc[v] == dim
        assert bits_of(d.far[v]) == (v ^ full,)
    assert diametrical_pairs(floyd_warshall(g)) == antipodal
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) in antipodal:
                assert is_ud_pair(g, d, u, v) == (dim == 1), (u, v)
            else:
                with pytest.raises(GraphError, match="not a diametrical pair"):
                    is_ud_pair(g, d, u, v)

    cert = find_ud_certificate(g)
    assert cert.is_ud == (dim == 1)
    assert cert.diam == dim
    if dim == 1:
        assert cert.pair == (0, 1) and cert.failures == ()
        return
    assert cert.pair is None
    assert [pair for pair, _ in cert.failures] == antipodal
    for (u, v), w in cert.failures:
        assert 0 <= w < n and w not in (u, v)
        assert max(ref_dist[w][u], ref_dist[w][v]) != dim


def test_criterion_09_pendant_growth_paths():
    for k in range(4, 21):
        g = path(k)
        v = check_t42(g, 0, k - 1)
        assert v.hypothesis_met, k
        assert v.conclusion_held, k  # includes the exact growth identities
    for k in range(4, 11):
        for length in (2, 3):
            v = check_c44(path(k), 0, k - 1, length)
            assert v.hypothesis_met and v.conclusion_held, (k, length)


def test_criterion_09_pendant_growth_trees():
    gated = 0
    for n in range(2, 11):
        for t in iter_sweep(SweepSpec("trees", n, n)):
            rep = full_report(t)
            cert = find_ud_certificate(t)
            if cert.pair is None:
                continue
            d = rep.diam
            if 2 * d * d + 9 * d + 6 >= rep.n and rep.e1 > rep.wiener:
                gated += 1
                v = check_t42(t, *cert.pair, rep=rep)
                assert v.hypothesis_met and v.conclusion_held
    assert gated == 189


PRODUCT_GRID = {
    "P2": path(2),
    "P3": path(3),
    "P5": path(5),
    "C4": cycle(4),
    "C5": cycle(5),
    "K3": complete(3),
    "K5": complete(5),
    "K14": star(5),
}


def test_criterion_10_product_identities():
    start = time.perf_counter()
    checked = 0
    for a in PRODUCT_GRID.values():
        for b in PRODUCT_GRID.values():
            assert a.n * b.n <= 75
            v = check_product_identities(a, b)
            assert v.conclusion_held
            checked += 1
    assert checked == 64
    assert time.perf_counter() - start < 10.0


def test_criterion_11_product_inequalities():
    factors = dict(PRODUCT_GRID)
    factors["K6"] = complete(6)
    factors["K8"] = complete(8)
    extras = ("K6", "K8")
    t52_hits = set()
    t54_hits = set()
    for na, a in factors.items():
        for nb, b in factors.items():
            if (na in extras or nb in extras) and na != nb:
                continue  # the extra factors pair only with themselves
            v = check_t52(a, b)
            if v.hypothesis_met:
                t52_hits.add((na, nb))
                assert v.conclusion_held, (na, nb)
            w = check_t54(a, b)
            if w.hypothesis_met:
                t54_hits.add((na, nb))
                assert w.conclusion_held, (na, nb)
    complete_pairs = {(x, y) for x in ("K3", "K5") for y in ("K3", "K5")}
    assert t52_hits == complete_pairs | {("K6", "K6"), ("K8", "K8")}
    assert t54_hits == {("K6", "K6"), ("K8", "K8")}


def test_criterion_12_thm29_construction_grid():
    for n in range(9, 13):
        for n_prime in range(1, n - 1):
            g = thm29_construction(n, n_prime)
            rep = full_report(g)
            assert sum(1 for v in range(n) if g.bits[v].bit_count() == n - 1) == n_prime
            assert rep.n_universal == n_prime
            assert rep.diam == 2
            assert rep.e2 > rep.wiener


def test_supporting_xic_lower_bound_n7():
    # min degree >= 2 forces eccentric connectivity >= twice total
    # eccentricity; smaller orders are covered by the unit suite
    def fold(bad, graphs):
        for g in graphs:
            if g.min_degree() >= 2:
                d = all_pairs_distances(g)
                ecc = d.ecc
                xic = sum(b.bit_count() * ecc[v] for v, b in enumerate(g.bits))
                if xic < 2 * sum(ecc):
                    bad += 1
        return bad

    bad, _ = fold_sweep(
        SweepSpec("connected_graphs", 7, 7), fold, lambda a, b: a + b, int
    )
    assert bad == 0


def test_supporting_graph6_round_trip_full_n7():
    # codec identity over the same corpus the distance oracle covers
    def fold(bad, graphs):
        return bad + sum(parse_graph6(emit_graph6(g)) != g for g in graphs)

    for n in (6, 7):
        bad, summary = fold_sweep(
            SweepSpec("connected_graphs", n, n), fold, lambda a, b: a + b, int
        )
        assert bad == 0 and summary.visited == CONNECTED_COUNTS[n]


def test_criterion_13_determinism_distance_oracle(oracle_report_w1, oracle_report_w8):
    assert oracle_report_w1[0] == oracle_report_w8[0]


def test_criterion_13_determinism_sampled_hunt(diam2_hunt_w1, diam2_hunt_w8):
    assert _serialize_reports(diam2_hunt_w1[0]) == _serialize_reports(diam2_hunt_w8)


def test_criterion_13_determinism_tree_hunts(
    tree_hunt_w1, tree_hunt_w8, tree33_hunt_w1, tree33_hunt_w8
):
    assert _serialize_reports(tree_hunt_w1[0]) == _serialize_reports(tree_hunt_w8)
    assert _serialize_reports(tree33_hunt_w1) == _serialize_reports(tree33_hunt_w8)
