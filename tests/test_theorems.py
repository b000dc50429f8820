"""Targeted verdicts for every claim checker, plus hunt smoke tests."""

import dataclasses
import time

import networkx as nx
import pytest

from distinv import (
    Graph,
    GraphError,
    SweepSpec,
    all_pairs_distances,
    a_k,
    attach_pendant_paths_at,
    check_c44,
    check_product_identities,
    check_t42,
    check_t43,
    check_t52,
    check_t54,
    complement,
    complete,
    cycle,
    double_star,
    figure1,
    from_edge_list,
    full_report,
    hunt,
    hypercube,
    parse_graph6,
    path,
    star,
    thm29_construction,
)
from distinv import invariants as invariants_mod
from distinv import sweeps as sweeps_mod
from distinv import theorems as theorems_mod
from distinv.graphs import emit_graph6
from distinv.invariants import LANE_BLOCK, Block, lane_reports, lane_width, unpack_lanes
from distinv.sweeps import (
    SweepVisitError,
    _Stream,
    _Tally,
    enumerate_connected_graphs,
    iter_sweep,
    parse_sweep_spec,
)
from distinv.theorems import (
    ALL_UNARY_IDS,
    CLAIMS,
    check_c22,
    check_c28i,
    check_c28ii,
    check_l41,
    check_p21,
    check_p24,
    check_p26,
    check_t23,
    check_t25,
    check_t27,
    check_t31,
    check_t32,
    check_t33,
)

from oracles import block_of, gate_holds, petersen, reference_hunt, tree_from_levels


def wheel5():
    # 4-cycle plus a universal hub
    return from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3)])


class TestP21:
    def test_c5_equality_case(self):
        v = check_p21(cycle(5))
        assert v.hypothesis_met and v.conclusion_held and v.equality

    def test_c7_equality_case(self):
        v = check_p21(cycle(7))
        assert v.hypothesis_met and v.conclusion_held and v.equality

    def test_petersen_strict(self):
        g = petersen()
        r = full_report(g)
        assert (r.e1, r.e2, r.wiener) == (40, 60, 75)
        v = check_p21(g)
        assert v.hypothesis_met and v.conclusion_held and not v.equality

    def test_p4_hypothesis_unmet(self):
        v = check_p21(path(4))
        assert not v.hypothesis_met and v.conclusion_held is None

    def test_complete_excluded(self):
        assert not check_p21(complete(4)).hypothesis_met


class TestC22:
    @pytest.mark.parametrize("n", [4, 5])
    def test_equality_cycles(self, n):
        v = check_c22(cycle(n))
        assert v.hypothesis_met and v.conclusion_held and v.equality

    def test_petersen_strict(self):
        v = check_c22(petersen())
        assert v.hypothesis_met and v.conclusion_held and not v.equality

    def test_c7_out_of_scope(self):
        assert not check_c22(cycle(7)).hypothesis_met


class TestCycleFromReport:
    def test_self_centered_cycles_are_the_m_equals_n_graphs(self):
        """P2.1's and C2.2's cycle test reads only the report: a connected
        self-centered graph on n >= 3 vertices is a cycle exactly when m = n.

        Proof.  Let v be a leaf with neighbour u.  Every path from v to
        another vertex w passes through u, so d(v, w) = d(u, w) + 1, and
        ecc(v) = 1 + max over w != v of d(u, w).  With n >= 3 some w is
        neither u nor v, and d(u, w) >= 1 = d(u, v), so that maximum is
        ecc(u), and ecc(v) = ecc(u) + 1.  A self-centered graph therefore
        has no leaf, and being connected on n >= 3 vertices no isolated
        vertex: every degree is at least 2.  Then 2m, the degree sum, is at
        least 2n, with equality exactly when every degree is 2, and a
        connected 2-regular graph is a cycle.  A cycle is self-centered with
        m = n.

        Recounted with networkx on every connected graph of its atlas on 3..7
        vertices; K2,3 is self-centered with m = 6 > n = 5.
        """
        cycles = denser = 0
        for h in nx.graph_atlas_g():
            n = h.number_of_nodes()
            if n < 3 or not nx.is_connected(h):
                continue
            if len(set(nx.eccentricity(h).values())) != 1:
                continue
            two_regular = all(d == 2 for _, d in h.degree())
            assert (h.number_of_edges() == n) == two_regular
            rep = full_report(from_edge_list(n, list(h.edges())))
            assert theorems_mod._is_cycle(rep) == two_regular
            cycles += two_regular
            denser += nx.is_isomorphic(h, nx.complete_bipartite_graph(2, 3))
        assert (cycles, denser) == (5, 1)


class TestT23:
    def test_star_otherwise_branch(self):
        v = check_t23(star(5))
        assert v.hypothesis_met and v.conclusion_held
        assert v.detail["branch"] == "otherwise"
        assert v.detail["E1"] == 17 and v.detail["E2"] == 8

    def test_two_universal_no_gprime_edges(self):
        g = from_edge_list(
            5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]
        )
        v = check_t23(g)
        assert v.hypothesis_met and v.conclusion_held
        assert v.detail["branch"] == "otherwise"

    def test_k5_minus_edge_three_universal(self):
        g = from_edge_list(
            5,
            [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4)],
        )
        r = full_report(g)
        assert (r.e1, r.e2, r.n_universal) == (11, 15, 3)
        v = check_t23(g, rep=r)
        assert v.hypothesis_met and v.conclusion_held and v.detail["branch"] == "i"

    def test_wheel_dense_single_universal(self):
        v = check_t23(wheel5())
        assert v.hypothesis_met and v.conclusion_held
        assert v.detail["branch"] == "iii"

    def test_self_centered_unmet(self):
        assert not check_t23(cycle(5)).hypothesis_met


class TestP24T25:
    def test_p24_c5(self):
        v = check_p24(cycle(5))
        assert v.hypothesis_met and v.conclusion_held

    def test_t25_star9(self):
        v = check_t25(star(9))
        assert v.hypothesis_met and v.conclusion_held
        assert v.detail["W"] == 64 and v.detail["E1"] == 33

    def test_t25_order8_unmet(self):
        assert not check_t25(star(8)).hypothesis_met

    def test_t25_order8_boundary_exploration(self):
        # below the order bar the claim is vacuous; record (not assert) how
        # often the inequality itself fails there
        from distinv import sample_diameter2_graphs

        fails = 0
        for g in sample_diameter2_graphs(8, 200, 11):
            r = full_report(g)
            assert not check_t25(g, rep=r).hypothesis_met
            if not r.wiener > r.e1:
                fails += 1
        print(f"n=8 diameter-2 sample: W>E1 fails on {fails}/200")


class TestP26:
    @pytest.mark.parametrize("g", [cycle(4), cycle(5)])
    def test_small_cycles(self, g):
        v = check_p26(g)
        assert v.hypothesis_met and v.conclusion_held

    def test_petersen_both_directions(self):
        v = check_p26(petersen())
        assert v.hypothesis_met and v.conclusion_held
        assert v.detail["W"] == 75


class TestT27C28:
    def test_t27_many_universal(self):
        v = check_t27(thm29_construction(10, 6))
        assert v.hypothesis_met and v.conclusion_held

    def test_c28i_construction(self):
        v = check_c28i(thm29_construction(10, 1))
        assert v.hypothesis_met and v.conclusion_held

    def test_c28ii_star10(self):
        v = check_c28ii(star(10))
        assert v.hypothesis_met and v.conclusion_held
        assert v.detail["E2"] == 18 and v.detail["W"] == 81

    def test_threshold_tie_gates_neither_branch(self):
        # one universal vertex, triangle among the rest: 5x = (n-n')(n-1-2n')
        g = from_edge_list(
            6,
            [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (2, 3)],
        )
        t27, c28i, c28ii = check_t27(g), check_c28i(g), check_c28ii(g)
        assert not t27.hypothesis_met
        assert not c28i.hypothesis_met and not c28ii.hypothesis_met

    def test_star_t27_unmet(self):
        assert not check_t27(star(9)).hypothesis_met


class TestTreeClaims:
    def test_t31_p3_sole_equality(self):
        v = check_t31(path(3))
        assert v.hypothesis_met and v.conclusion_held and v.equality

    def test_t31_star6(self):
        v = check_t31(star(6))
        assert v.hypothesis_met and v.conclusion_held and not v.equality
        assert v.detail["E2"] == 10 and v.detail["W"] == 25

    def test_t31_long_path_unmet(self):
        assert not check_t31(path(5)).hypothesis_met

    def test_t32_p4(self):
        v = check_t32(path(4))
        assert v.hypothesis_met and v.conclusion_held
        assert v.detail["W"] == 10 and v.detail["E1"] == 26

    def test_t32_p12(self):
        v = check_t32(path(12))
        assert v.hypothesis_met and v.conclusion_held

    def test_t32_star_unmet(self):
        assert not check_t32(star(7)).hypothesis_met

    def test_t33_star10_first_disjunct(self):
        v = check_t33(star(10))
        assert v.hypothesis_met and v.conclusion_held
        assert v.detail["disjunct"] == "tree"

    def test_t33_p9_complement_disjunct(self):
        v = check_t33(path(9))
        assert v.hypothesis_met and v.conclusion_held
        assert v.detail["disjunct"] == "complement"

    def test_t33_double_star_order9_refutes_claim(self):
        # genuine failure of both disjuncts: the tree has W=70 < E1=71, and
        # its complement has diameter 3 (the two centers dominate the tree,
        # so they have no common complement-neighbor), giving W=45 < E1=46
        v = check_t33(double_star(1, 6))
        assert v.hypothesis_met and v.conclusion_held is False
        assert v.detail["disjunct"] == "complement"
        assert v.detail["W"] == 70 and v.detail["E1"] == 71
        assert v.detail["W_comp"] == 45 and v.detail["E1_comp"] == 46

    def test_t33_double_star_is_the_only_order9_failure(self):
        (rep,) = hunt(SweepSpec("trees", 9, 9), ["T3.3"])
        assert rep.hypothesis_hits == 47
        assert len(rep.counterexamples) == 1
        bad = parse_graph6(rep.counterexamples[0].graph_id)
        assert sorted(bad.degree(v) for v in range(9)) == [1] * 7 + [2, 7]

    def test_t33_holds_for_orders_10_to_12(self):
        (rep,) = hunt(SweepSpec("trees", 10, 12), ["T3.3"])
        assert rep.counterexamples == ()

    def test_t33_small_tree_unmet(self):
        assert not check_t33(path(8)).hypothesis_met

    def test_non_tree_unmet(self):
        for check in (check_t31, check_t32, check_t33):
            assert not check(cycle(9)).hypothesis_met


class TestL41:
    def test_star_has_equality_vertices(self):
        v = check_l41(star(5))
        assert v.hypothesis_met and v.conclusion_held and v.equality
        assert v.detail["zero_gap_vertices"] == 4

    def test_complete(self):
        v = check_l41(complete(6))
        assert v.conclusion_held and v.equality

    def test_path5_no_equality(self):
        v = check_l41(path(5))
        assert v.conclusion_held and not v.equality


class TestT42:
    def test_p6_chain_step(self):
        v = check_t42(path(6), 0, 5)
        assert v.hypothesis_met and v.conclusion_held
        assert v.detail["E1_grown"] == 252 and v.detail["W_grown"] == 84

    def test_a1_gated_and_held(self):
        v = check_t42(a_k(1), 4, 5)
        assert v.hypothesis_met and v.conclusion_held
        assert v.detail["E1"] == 58 and v.detail["W"] == 28

    def test_figure1_consistent(self):
        g = figure1()
        r = full_report(g)
        v = check_t42(g, 0, 11, rep=r)
        assert v.hypothesis_met == (r.e1 > r.wiener)
        if v.hypothesis_met:
            assert v.conclusion_held

    def test_non_ud_pair_hypothesis_unmet(self):
        g = cycle(6)
        v = check_t42(g, 0, 3)
        assert not v.hypothesis_met and v.conclusion_held is None

    def test_non_diametrical_pair_rejected(self):
        with pytest.raises(GraphError, match="diametrical"):
            check_t42(path(6), 0, 3)

    def test_path_chain_4_to_20(self):
        for k in range(4, 21):
            v = check_t42(path(k), 0, k - 1)
            assert v.hypothesis_met and v.conclusion_held, k


class TestT43:
    def test_hypercube_vacuous(self):
        # m=12 below the n+2d+4=18 bar (and the pair is not UD anyway)
        v = check_t43(hypercube(3), 0, 7)
        assert not v.hypothesis_met

    def test_min_degree_gate(self):
        v = check_t43(star(9), 1, 2)
        assert not v.hypothesis_met

    def test_k6_held(self):
        v = check_t43(complete(6), 0, 1)
        assert v.hypothesis_met and v.conclusion_held
        assert v.detail["E2_grown"] == 72 and v.detail["E1_grown"] == 42

    def test_k7_minus_edge_held(self):
        g = from_edge_list(
            7,
            [
                (u, v)
                for u in range(7)
                for v in range(u + 1, 7)
                if (u, v) != (5, 6)
            ],
        )
        v = check_t43(g, 5, 6)
        assert v.hypothesis_met and v.conclusion_held

    def test_k8_held(self):
        v = check_t43(complete(8), 0, 1)
        assert v.hypothesis_met and v.conclusion_held


class TestC44:
    def test_length_one_matches_t42(self):
        for g, u, v in [(path(6), 0, 5), (a_k(1), 4, 5)]:
            a = check_c44(g, u, v, 1)
            b = check_t42(g, u, v)
            assert (a.hypothesis_met, a.conclusion_held) == (
                b.hypothesis_met,
                b.conclusion_held,
            )

    def test_p6_length3_chain_to_p12(self):
        v = check_c44(path(6), 0, 5, 3)
        assert v.hypothesis_met and v.conclusion_held
        assert v.detail["steps_gated"] == 3
        grown = attach_pendant_paths_at(path(6), 0, 5, 3)
        assert full_report(grown).e1 == v.detail["E1_grown"]

    def test_a1_length2(self):
        v = check_c44(a_k(1), 4, 5, 2)
        assert v.hypothesis_met and v.conclusion_held

    def test_zero_length_rejected(self):
        with pytest.raises(GraphError):
            check_c44(path(6), 0, 5, 0)

    @pytest.mark.parametrize("length, calls", [(1, 2), (2, 3), (3, 4), (5, 6)])
    def test_one_bfs_per_graph_of_the_iteration(self, monkeypatch, length, calls):
        # P6 and its L grown graphs, each searched once
        from distinv import invariants, theorems

        seen = []
        real = theorems.all_pairs_distances

        def counted(g):
            seen.append(g.n)
            return real(g)

        monkeypatch.setattr(theorems, "all_pairs_distances", counted)
        monkeypatch.setattr(invariants, "all_pairs_distances", counted)
        v = check_c44(path(6), 0, 5, length)
        assert v.hypothesis_met and v.conclusion_held
        assert len(seen) == calls
        assert sorted(seen) == [6 + 2 * i for i in range(length + 1)]

    def test_detail_reports_the_directly_built_graph(self, monkeypatch):
        # when the iteration and the direct construction disagree, the
        # verdict fails and its detail describes the direct construction
        from distinv import families

        other = path(12)
        monkeypatch.setattr(families, "attach_pendant_paths_at", lambda *a: other)
        v = check_c44(a_k(1), 4, 5, 2)
        assert v.hypothesis_met and v.conclusion_held is False
        rep = full_report(other)
        assert (v.detail["E1_grown"], v.detail["W_grown"]) == (rep.e1, rep.wiener)

    def test_iteration_checked_against_the_direct_construction(self, monkeypatch):
        # an iteration step that swaps the two tips grows a different
        # labelled graph than the direct construction, so the check fails
        from distinv import families

        real = families.attach_pendants_at

        def swapped(g, u, v):
            return real(g, v, u)

        assert check_c44(a_k(1), 4, 5, 2).conclusion_held
        monkeypatch.setattr(families, "attach_pendants_at", swapped)
        v = check_c44(a_k(1), 4, 5, 2)
        assert v.hypothesis_met and v.conclusion_held is False


class TestProducts:
    def test_p2_square_identities(self):
        v = check_product_identities(path(2), path(2))
        assert v.conclusion_held
        assert v.detail["E1"] == 16 and v.detail["W"] == 8

    def test_p3_c5_identities(self):
        v = check_product_identities(path(3), cycle(5))
        assert v.conclusion_held

    def test_k1_unit(self):
        v = check_product_identities(complete(1), cycle(5))
        assert v.conclusion_held

    def test_t52_k3_k3(self):
        v = check_t52(complete(3), complete(3))
        assert v.hypothesis_met and v.conclusion_held
        assert v.detail["W"] == 54 and v.detail["E1"] == 36

    def test_t52_star9_k3(self):
        v = check_t52(star(9), complete(3))
        assert v.hypothesis_met and v.conclusion_held

    def test_t52_p2_p2_boundary(self):
        assert not check_t52(path(2), path(2)).hypothesis_met

    def test_t52_path_factor_fails_gate(self):
        assert not check_t52(path(4), complete(3)).hypothesis_met

    def test_t54_k6_k6(self):
        v = check_t54(complete(6), complete(6))
        assert v.hypothesis_met and v.conclusion_held
        assert v.detail["W"] == 1080 and v.detail["E2"] == 720

    def test_t54_k5_k5_strictness_boundary(self):
        # avt(K5)=4 equals the 4*d^2*d' bar, so the strict gate stays shut
        assert not check_t54(complete(5), complete(5)).hypothesis_met

    def test_t54_p2_p2(self):
        assert not check_t54(path(2), path(2)).hypothesis_met

    @pytest.mark.parametrize("check", [check_t52, check_t54])
    def test_large_product_refused(self, check):
        # K_101 and K_100 meet both hypotheses; their product would have
        # 10,100 vertices, past the bound check_product_identities keeps
        start = time.perf_counter()
        with pytest.raises(GraphError, match="product too large to verify by direct BFS"):
            check(complete(101), complete(100))
        assert time.perf_counter() - start < 5.0
        # a verdict whose hypothesis fails is given as before, at any order
        assert not check(path(101), path(100)).hypothesis_met


class TestHunt:
    def test_small_sweep_no_counterexamples(self):
        reports = hunt(SweepSpec("connected_graphs", 3, 5), ALL_UNARY_IDS)
        assert [r.theorem_id for r in reports] == list(ALL_UNARY_IDS)
        for r in reports:
            assert r.counterexamples == ()
            assert r.graphs_visited == 4 + 38 + 728
        c22 = next(r for r in reports if r.theorem_id == "C2.2")
        lengths = set()
        for g6 in c22.equality_cases:
            g = parse_graph6(g6)
            assert g.m == g.n and all(g.degree(v) == 2 for v in range(g.n))
            lengths.add(g.n)
        assert lengths == {4, 5}
        assert len(c22.equality_cases) == 3 + 12

    def test_hypothesis_hits_match_direct_count(self):
        reports = hunt(SweepSpec("connected_graphs", 4, 5), ["P2.4"])
        direct = sum(
            1
            for n in (4, 5)
            for g in enumerate_connected_graphs(n)
            if all_pairs_distances(g).diam == 2
        )
        assert reports[0].hypothesis_hits == direct

    def test_unknown_id_rejected(self):
        with pytest.raises(GraphError, match="unknown"):
            hunt(SweepSpec("trees", 4, 5), ["T9.9"])

    def test_parametric_id_rejected(self):
        with pytest.raises(GraphError):
            hunt(SweepSpec("trees", 4, 5), ["T4.2"])

    def test_no_ids_rejected(self):
        with pytest.raises(GraphError, match="no theorem ids"):
            hunt(SweepSpec("trees", 4, 5), [])

    def test_no_per_graph_report_above_order_15(self, monkeypatch):
        # every order a sweep makes goes through the lane kernel: with no
        # counterexample, hunt runs no BFS and no full_report of its own
        calls = []
        for name in ("full_report", "all_pairs_distances"):
            real = getattr(theorems_mod, name)

            def counted(*args, real=real, name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(theorems_mod, name, counted)
        reports = hunt(parse_sweep_spec("trees:16..16"), ["T3.1", "T3.2", "L4.1"])
        assert [r.graphs_visited for r in reports] == [19320] * 3
        assert all(r.counterexamples == () for r in reports)
        assert calls == []

    def test_worker_count_does_not_change_reports(self):
        spec = SweepSpec("trees", 2, 9)
        a = hunt(spec, ["T3.1", "T3.2", "L4.1"])
        b = hunt(spec, ["T3.1", "T3.2", "L4.1"], workers=3)
        assert a == b

    def test_report_serialization(self):
        (rep,) = hunt(SweepSpec("trees", 3, 3), ["T3.1"])
        assert rep.csv_row() == "T3.1,1,1,0,1"
        blob = rep.to_json_dict()
        assert blob["equality_count"] == 1 and blob["counterexample_count"] == 0


PUBLIC_CHECKS = {
    "P2.1": check_p21,
    "C2.2": check_c22,
    "T2.3": check_t23,
    "P2.4": check_p24,
    "T2.5": check_t25,
    "P2.6": check_p26,
    "T2.7": check_t27,
    "C2.8i": check_c28i,
    "C2.8ii": check_c28ii,
    "T3.1": check_t31,
    "T3.2": check_t32,
    "T3.3": check_t33,
    "L4.1": check_l41,
}


class TestTableHuntMatchesPublicChecks:
    """hunt evaluates the claim table inline, calls a predicate only where its
    gate holds and builds verdicts only for hits; the reference hunt calls
    every public check_* with full detail on every graph.  Both must agree
    on every count, counterexample and equality case."""

    @pytest.mark.parametrize(
        "text",
        [
            "connected:3..6",
            "trees:2..12",
            "diam2:n=9..10,count=150,seed=9001",
            "connected:1..6",
            "trees:2..15",
            "connected:1..6,filter=self_centered",
            "connected:1..6,filter=non_self_centered",
            # on each side of every lane width bound of the sampler's orders
            *(f"diam2:n={n},count=12,seed=5" for n in (16, 31, 32, 63, 64, 127, 128)),
        ],
    )
    def test_same_reports(self, text):
        spec = parse_sweep_spec(text)
        expected = [r.to_json_dict() for r in reference_hunt(spec, ALL_UNARY_IDS)]
        reports = hunt(spec, ALL_UNARY_IDS)
        assert [r.to_json_dict() for r in reports] == expected

    @pytest.mark.parametrize(
        "text", ["connected:1..6", "trees:2..15", "diam2:n=16..17,count=40,seed=5"]
    )
    @pytest.mark.parametrize(
        "ids",
        [
            ("L4.1",),
            ("T3.3",),
            tuple(reversed(ALL_UNARY_IDS)),
            # gates that select only part of a block of diameter-2 graphs
            ("T2.7", "P2.1", "L4.1", "T2.7"),
        ],
        ids=["L4.1", "T3.3", "reversed", "sparse"],
    )
    def test_same_reports_for_id_lists(self, text, ids):
        spec = parse_sweep_spec(text)
        expected = [r.to_json_dict() for r in reference_hunt(spec, ids)]
        assert [r.to_json_dict() for r in hunt(spec, ids)] == expected

    def test_t33_counterexample_detail_from_both_paths(self):
        spec = parse_sweep_spec("trees:9..9")
        (rep,) = hunt(spec, ["T3.3"])
        (from_hunt,) = rep.counterexamples
        ((from_check,),) = [r.counterexamples for r in reference_hunt(spec, ["T3.3"])]
        assert from_hunt.graph_id == from_check.graph_id == "HkaCCA?"
        assert from_hunt.detail == from_check.detail == {
            "n": 9,
            "W": 70,
            "E1": 71,
            "disjunct": "complement",
            "W_comp": 45,
            "E1_comp": 46,
        }

    def test_wrappers_keep_their_names(self):
        for tid, check in PUBLIC_CHECKS.items():
            assert check.__name__ == "check_" + tid.lower().replace(".", "")
            assert check.__doc__


def _blocks(text):
    # a sweep's graphs in blocks of one order and at most LANE_BLOCK graphs
    block = []
    for g in iter_sweep(parse_sweep_spec(text)):
        if block and (g.n != block[0].n or len(block) == LANE_BLOCK):
            yield block
            block = []
        block.append(g)
    if block:
        yield block


class TestClaimGates:
    """A claim's gate is a necessary condition of its hypothesis, so hunt
    may skip its predicate wherever the gate fails; and it skips enough."""

    @pytest.mark.parametrize(
        "text",
        [
            "connected:1..6",
            "trees:2..15",
            *(f"diam2:n={n},count=12,seed=5" for n in (16, 31, 32, 63, 64, 127, 128)),
        ],
    )
    def test_unmet_wherever_the_gate_fails(self, text):
        claims = list(CLAIMS.values())
        for block in _blocks(text):
            words, _ = lane_reports(block_of(block), [claim.gate for claim in claims])
            for g, word in zip(block, words):
                dist = all_pairs_distances(g)
                rep = full_report(g, dist)
                for i, claim in enumerate(claims):
                    if not word >> i & 1:
                        result = claim.predicate(g, rep, dist)
                        assert result == (False, None, False), (
                            claim.theorem_id, emit_graph6(g)
                        )

    def test_fewer_reports_and_predicate_calls(self, monkeypatch):
        # 12,530 of the 27,474 graphs meet some gate, and 12,534 have a
        # nonzero gate word (L4.1's equality bit on four more); their blocks
        # hold 621 distinct (word, report) keys, and hunt makes 2,211
        # predicate calls, one per claim a key's word selects.  One per
        # gated graph was 46,391; every predicate but L4.1's, which hunt
        # never calls, on every graph would be 329,688
        spec = SweepSpec("connected_graphs", 3, 6)
        expected = hunt(spec, ALL_UNARY_IDS)
        built = []
        calls = []
        real = invariants_mod.InvariantReport

        def report(*args):
            built.append(args[0])
            return real(*args)

        monkeypatch.setattr(invariants_mod, "InvariantReport", report)
        for tid, claim in CLAIMS.items():

            def counted(*args, predicate=claim.predicate):
                calls.append(args[0])
                return predicate(*args)

            monkeypatch.setitem(CLAIMS, tid, dataclasses.replace(claim, predicate=counted))
        assert hunt(spec, ALL_UNARY_IDS) == expected
        assert len(built) <= 12_800
        assert len(calls) <= 2_500


class TestHuntNamesTheGraphInHand:
    """hunt's fold reads a block ahead of the graph it evaluates, so it names
    a graph itself when a predicate fails, and the graph the kernel finds
    disconnected.  A predicate runs once per distinct (gate word, report)
    key of a block, so its failure names the key's first lane: the graph a
    lane-by-lane pass would have failed on first."""

    @pytest.mark.parametrize(
        "text",
        ["connected:4..4", "diam2:n=16,count=5,seed=5"],
        ids=["lanes", "lanes-order-16"],
    )
    def test_predicate_error_names_its_graph(self, monkeypatch, text):
        # each sweep is one block
        graphs = list(iter_sweep(parse_sweep_spec(text)))
        ids = ["P2.1", "P2.4", "L4.1"]
        reports = [full_report(g) for g in graphs]

        def key(g, rep):
            # the gate word's bits as the kernel sets them, recomputed
            l41 = check_l41(g)
            gates = [gate_holds(CLAIMS[tid].gate, rep) for tid in ids[:2]]
            return *gates, not l41.conclusion_held, l41.equality, rep

        # P2.4's gate is diameter 2: its predicate runs on no other graph
        t = [i for i, rep in enumerate(reports) if rep.diam == 2][2]
        claim = CLAIMS["P2.4"]

        def boom(g, rep, dist):
            if rep == reports[t]:
                raise ValueError("nope")
            return claim.predicate(g, rep, dist)

        monkeypatch.setitem(CLAIMS, "P2.4", dataclasses.replace(claim, predicate=boom))
        with pytest.raises(SweepVisitError) as info:
            hunt(parse_sweep_spec(text), ids)
        target = key(graphs[t], reports[t])
        first = next(g for g, rep in zip(graphs, reports) if key(g, rep) == target)
        assert str(info.value) == (
            f"visitor failed on {emit_graph6(first)}: ValueError('nope')"
        )
        assert isinstance(info.value.__cause__, ValueError)
        assert graphs[t] != graphs[-1]

    def test_disconnected_graph_named_as_on_the_per_graph_path(self, monkeypatch):
        connected = list(enumerate_connected_graphs(5))[:9]
        bad = from_edge_list(5, [(0, 1), (2, 3), (3, 4)])
        stream = connected[:4] + [bad] + connected[4:]
        monkeypatch.setattr(
            sweeps_mod, "_connected_graphs_range", lambda n, a, b: iter([block_of(stream)])
        )
        with pytest.raises(SweepVisitError) as info:
            hunt(SweepSpec("connected_graphs", 5, 5), ["P2.4", "L4.1"])
        assert str(info.value) == (
            f"visitor failed on {emit_graph6(bad)}: "
            "DisconnectedGraphError('graph is disconnected')"
        )

    def test_kernel_fault_names_the_last_graph_read(self, monkeypatch):
        # a fault of the kernel itself belongs to no one graph of its block;
        # fold_sweep's contract names the last graph the stream handed out
        def broken(block, gates=None):
            raise ValueError("lane fault")

        monkeypatch.setattr(theorems_mod, "lane_reports", broken)
        spec = parse_sweep_spec("connected:4..4")
        last = list(iter_sweep(spec))[-1]
        with pytest.raises(SweepVisitError) as info:
            hunt(spec, ["P2.4"])
        assert str(info.value) == (
            f"visitor failed on {emit_graph6(last)}: ValueError('lane fault')"
        )


class TestT33ComplementBlocks:
    """hunt hands each block's T3.3-gated complements to the lane kernel as
    one block."""

    def _count_reports(self, monkeypatch):
        calls = []
        real = theorems_mod.full_report

        def counted(g, dist=None):
            calls.append(g)
            return real(g, dist)

        monkeypatch.setattr(theorems_mod, "full_report", counted)
        return calls

    def test_complements_take_the_lanes(self, monkeypatch):
        calls = self._count_reports(monkeypatch)
        (rep,) = hunt(parse_sweep_spec("trees:9..15"), ["T3.3"])
        assert rep.hypothesis_hits == 13140
        # only the counterexample's verdict builds its complement per graph,
        # and once
        assert [emit_graph6(g) for g in calls] == [
            emit_graph6(complement(parse_graph6("HkaCCA?")))
        ]

    def test_star_complement_in_the_block_is_named(self, monkeypatch):
        # a star's complement is disconnected, and the star takes T3.3's tree
        # disjunct; have every tree of order > 8 take the complement
        # disjunct, so that the star's missing complement decides it; the
        # star comes early, so the block reads on past it
        levels = list(sweeps_mod._tree_levels(9))
        star = [0] + [1] * 8
        levels.remove(star)
        levels.insert(2, star)
        star9 = tree_from_levels(star)
        monkeypatch.setattr(sweeps_mod, "_tree_levels", lambda n: iter(levels))
        gate = theorems_mod._t33_disjunct
        monkeypatch.setattr(
            theorems_mod, "_t33_disjunct", lambda rep: gate(rep) and "complement"
        )
        with pytest.raises(SweepVisitError) as info:
            hunt(SweepSpec("trees", 9, 9), ["T3.3"])
        assert str(info.value) == (
            f"visitor failed on {emit_graph6(star9)}: "
            "DisconnectedGraphError('graph is disconnected')"
        )

    @pytest.mark.parametrize("n", [9, 12, 15, 16])
    def test_complement_rows_lane_by_lane(self, monkeypatch, n):
        # orders 9..15 in 16-bit lanes, 16 in 32-bit lanes
        handed = []
        real = theorems_mod.lane_wiener_e1

        def capture(block):
            handed.append(block)
            return real(block)

        monkeypatch.setattr(theorems_mod, "lane_wiener_e1", capture)
        spec = SweepSpec("trees", n, n)
        width = lane_width(n)
        stars = 0
        for block in _Stream(spec, ("mod", n, 0, 1), _Tally()).blocks():
            words, _ = lane_reports(block, [CLAIMS["T3.3"].gate])
            comps = theorems_mod._t33_complements(block, words, 1)
            (comp,) = handed
            handed.clear()
            lanes = zip(*(unpack_lanes(row, width, block.k) for row in comp.rows))
            for j, (word, lane) in enumerate(zip(words, lanes)):
                if word & 1:
                    g = block.graph(j)
                    c = complement(g)
                    assert lane == tuple(c.bits)
                    if max(map(len, g.adjacency)) == n - 1:
                        # the star's complement is the one disconnected one
                        stars += 1
                        assert comps[j] is None
                    else:
                        crep = full_report(c)
                        assert comps[j] == (crep.wiener, crep.e1)
                else:
                    assert lane == (0,) * n
                    assert comps[j] is None
        assert stars == 1


class TestTreeHuntGraphs:
    """hunt reads every sweep as its generator's lane blocks, and builds a
    Graph only for a lane that a verdict names, once: no claim row reads a
    graph, and an equality case's graph6 is read from the block."""

    IDS = ["T3.1", "T3.2", "T3.3", "L4.1"]

    @staticmethod
    def _count_graphs(monkeypatch):
        # every Graph built from here on, by Graph._raw
        built = []
        raw = Graph._raw

        def counted(cls, n, bits):
            g = raw(n, bits)
            built.append(g)
            return g

        monkeypatch.setattr(Graph, "_raw", classmethod(counted))
        return built

    @staticmethod
    def _named(reports):
        named = [c.graph_id for r in reports for c in r.counterexamples]
        return named + [g6 for r in reports for g6 in r.equality_cases]

    def test_graphs_only_for_named_trees(self, monkeypatch):
        hkacca = complement(parse_graph6("HkaCCA?"))
        complements = []
        comp = theorems_mod.complement
        monkeypatch.setattr(theorems_mod, "complement", lambda g: complements.append(g) or comp(g))
        built = self._count_graphs(monkeypatch)
        named = self._named(hunt(parse_sweep_spec("trees:2..15"), self.IDS))
        # the HkaCCA? counterexample of T3.3, T3.1's 3-path and 14 L4.1 cases;
        # only the counterexample is built
        assert len(named) == 16
        trees = [emit_graph6(g) for g in built if g.m == g.n - 1]
        assert trees == ["HkaCCA?"]
        # the counterexample's detail, and nothing else, takes complement()
        assert [emit_graph6(g) for g in complements] == ["HkaCCA?"]
        assert [g for g in built if g.m != g.n - 1] == [hkacca]

    def test_no_graphs_on_the_sampled_claims(self, monkeypatch):
        # the diam2-sampled benchmark's sweep and claims, in this process: no
        # claim reads a graph, and none has a verdict or an equality case
        spec = parse_sweep_spec("diam2:n=9..12,count=2000,seed=5")
        built = self._count_graphs(monkeypatch)
        reports = hunt(spec, ["T2.3", "P2.4", "T2.5", "T2.7", "C2.8i", "C2.8ii"])
        assert self._named(reports) == [] and reports[0].graphs_visited == 8000
        assert built == []

    def test_labeled_hunt_builds_no_graph(self, monkeypatch):
        # the labeled-exhaustive benchmark's sweep and claims: no
        # counterexample, so no lane's Graph, and every equality case's
        # graph6 read from its block
        spec = parse_sweep_spec("connected:3..6")
        built = self._count_graphs(monkeypatch)
        lanes = []
        graph = Block.graph
        monkeypatch.setattr(Block, "graph", lambda block, j: lanes.append(j) or graph(block, j))
        reports = hunt(spec, list(ALL_UNARY_IDS))
        named = self._named(reports)
        # P2.1's and C2.2's equality cases (their cycles) among them
        assert {"C]", "Cl", "Cr"} <= set(named)
        assert sum(r.equality_cases != () for r in reports) >= 3
        assert lanes == [] and built == []

    @pytest.mark.parametrize(
        "text",
        ["connected:1..5", "diam2:n=61..64,count=3,seed=5", "diam2:n=127..128,count=2,seed=5"],
    )
    def test_equality_names_come_from_the_block(self, monkeypatch, text):
        # a P2.4 with equality on every graph its gate selects (diameter 2)
        # names each one by the graph6 record of its block: the graph's own
        # graph6, across the "~" header at 63 and every lane width
        equal = dataclasses.replace(CLAIMS["P2.4"], predicate=lambda *_: (True, True, True))
        monkeypatch.setitem(CLAIMS, "P2.4", equal)
        spec = parse_sweep_spec(text)
        (rep,) = hunt(spec, ["P2.4"])
        want = {emit_graph6(g) for g in iter_sweep(spec) if full_report(g).diam == 2}
        assert rep.equality_cases == tuple(sorted(want)) and len(want) >= 4

    def test_workers_build_each_block_once(self, monkeypatch):
        spec = parse_sweep_spec("trees:2..15")
        one = hunt(spec, self.IDS)
        assert hunt(spec, self.IDS, workers=2) == one
        made = []
        real = sweeps_mod._tree_block

        def counted(n, levels):
            made.append((n, tuple(levels[0])))
            return real(n, levels)

        monkeypatch.setattr(sweeps_mod, "_tree_block", counted)
        hunt(spec, self.IDS)
        blocks = sorted(made)
        made.clear()
        # two chunks an order, folded in this process
        monkeypatch.setattr(sweeps_mod.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(sweeps_mod, "_pool_size", lambda workers, chunks: 1)
        assert hunt(spec, self.IDS, workers=2) == one
        assert sorted(made) == blocks and len(set(blocks)) == len(blocks)
