"""Family constructors, the product, pendant growth, and spec parsing."""

import pytest

from distinv import (
    FamilyError,
    all_pairs_distances,
    a_k,
    attach_pendant_paths_at,
    attach_pendants_at,
    build_family,
    cartesian_product,
    complete,
    cycle,
    double_star,
    figure1,
    from_edge_list,
    full_report,
    hypercube,
    is_connected,
    parse_family_spec,
    path,
    star,
    thm29_construction,
)
from distinv.families import family_order
from distinv.ud import eccentric_set, find_ud_certificate, is_ud_pair

from oracles import bfs_rows, tree_canonical_form


def degrees(g):
    return sorted(g.degree(v) for v in range(g.n))


class TestStandardFamilies:
    def test_cycle4(self):
        r = full_report(cycle(4))
        assert (r.diam, r.rad, r.e1, r.e2) == (2, 2, 16, 16)

    def test_path3_equality_values(self):
        r = full_report(path(3))
        assert r.e2 == 4 == r.wiener

    def test_complete3_boundary(self):
        r = full_report(complete(3))
        assert r.wiener == r.e2 == 3 == r.e1

    @pytest.mark.parametrize(
        "fn,arg", [(path, 0), (cycle, 2), (complete, 0), (star, 1)]
    )
    def test_domain_errors(self, fn, arg):
        with pytest.raises(FamilyError):
            fn(arg)

    def test_every_constructor_output_connected(self):
        zoo = [
            path(1),
            path(6),
            cycle(3),
            complete(4),
            star(7),
            double_star(2, 3),
            hypercube(3),
            a_k(2),
            figure1(),
            cartesian_product(path(3), cycle(5)),
            thm29_construction(9, 4),
        ]
        for g in zoo:
            assert is_connected(g)
            for v, row in enumerate(g.bits):
                assert not (row >> v) & 1  # no self-loop
                for u in range(g.n):
                    assert ((row >> u) & 1) == ((g.bits[u] >> v) & 1)


class TestDoubleStar:
    def test_smallest_is_p4(self):
        g = double_star(1, 1)
        assert g.n == 4 and g.m == 3 and degrees(g) == [1, 1, 2, 2]
        assert all_pairs_distances(g).diam == 3

    def test_diam_and_leaf_eccentricities(self):
        g = double_star(2, 2)
        d = all_pairs_distances(g)
        assert g.n == 6 and d.diam == 3
        assert [d.ecc[v] for v in range(2, 6)] == [3, 3, 3, 3]

    def test_order_nine_exact_values(self):
        # the d=3 tree where W > E1 first fails: W=70 < E1=71 at n=9
        r = full_report(double_star(1, 6))
        assert (r.n, r.diam) == (9, 3)
        assert r.wiener == 70 and r.e1 == 71

    def test_double_star_formula(self):
        # W = (n-1)^2 + (n-2)a - a^2 for a leaves on one center
        for a, b in [(1, 4), (2, 3), (3, 3), (2, 5)]:
            n = a + b + 2
            assert full_report(double_star(a, b)).wiener == (n - 1) ** 2 + (
                n - 2
            ) * a - a * a

    def test_rejects_zero(self):
        with pytest.raises(FamilyError):
            double_star(0, 3)


class TestHypercube:
    def test_q1_is_k2(self):
        assert hypercube(1) == complete(2)

    def test_q2_is_c4(self):
        g = hypercube(2)
        assert g.n == 4 and g.m == 4 and degrees(g) == [2, 2, 2, 2]
        assert all_pairs_distances(g).diam == 2

    def test_q3_structure(self):
        g = hypercube(3)
        d = all_pairs_distances(g)
        assert degrees(g) == [3] * 8 and d.diam == 3
        for v in range(8):
            assert eccentric_set(d, v) == (v ^ 7,)

    def test_domain(self):
        with pytest.raises(FamilyError):
            hypercube(0)
        with pytest.raises(FamilyError):
            hypercube(21)


class TestAk:
    def test_a1(self):
        g = a_k(1)
        d = all_pairs_distances(g)
        assert g.n == 6 and d.diam == 4
        cert = find_ud_certificate(g, d)
        assert cert.is_ud and cert.pair == (4, 5)

    def test_a2_pendant_eccentricities(self):
        g = a_k(2)
        d = all_pairs_distances(g)
        assert g.n == 8
        assert [d.ecc[v] for v in range(4, 8)] == [4, 4, 4, 4]

    def test_a3_growth_gate(self):
        g = a_k(3)
        assert g.n == 10
        d = all_pairs_distances(g)
        assert 2 * d.diam**2 + 9 * d.diam + 6 == 74 >= g.n

    def test_rejects_zero(self):
        with pytest.raises(FamilyError):
            a_k(0)


class TestFigure1:
    def test_shape(self):
        g = figure1()
        assert g.n == 16 and g.m == 22
        d = all_pairs_distances(g)
        assert d.diam == d.ecc[0] == 11 and d.far[0] >> 11 & 1

    def test_gadget_adjacency(self):
        g = figure1()
        assert g.neighbors(12) == (1, 2, 3)
        assert g.neighbors(13) == (4, 5, 6)
        assert g.neighbors(14) == (7, 8, 9)
        assert g.neighbors(15) == (10, 11)

    def test_ud_with_path_ends(self):
        cert = find_ud_certificate(figure1())
        assert cert.is_ud and cert.pair == (0, 11) and cert.diam == 11


class TestCartesianProduct:
    def test_p2_square_is_c4(self):
        g = cartesian_product(path(2), path(2))
        assert g.n == 4 and g.m == 4 and degrees(g) == [2] * 4
        r = full_report(g)
        assert r.wiener == 8 and r.e1 == 16

    def test_size_formula(self):
        for a, b in [(path(3), cycle(5)), (complete(4), path(2)), (star(4), cycle(3))]:
            p = cartesian_product(a, b)
            assert p.n == a.n * b.n
            assert p.m == a.n * b.m + b.n * a.m

    @pytest.mark.parametrize(
        "a,b", [(path(3), cycle(5)), (path(2), complete(4)), (cycle(4), cycle(5))]
    )
    def test_distances_and_ecc_add_coordinatewise(self, a, b):
        p = cartesian_product(a, b)
        assert p.n <= 200
        da, db, dp = map(all_pairs_distances, (a, b, p))
        ra, rb, rp = map(bfs_rows, (a, b, p))
        nb = b.n
        for i in range(a.n):
            for j in range(nb):
                assert dp.ecc[i * nb + j] == da.ecc[i] + db.ecc[j]
                for k in range(a.n):
                    for l in range(nb):
                        assert rp[i * nb + j][k * nb + l] == ra[i][k] + rb[j][l]


class TestPendantGrowth:
    def test_c4_diagonal_gives_a1(self):
        assert attach_pendants_at(cycle(4), 0, 2) == a_k(1)

    def test_p2_gives_p4(self):
        g = attach_pendants_at(path(2), 0, 1)
        assert tree_canonical_form(g) == tree_canonical_form(path(4))

    def test_new_vertices_indexed_last(self):
        g = attach_pendants_at(cycle(5), 1, 3)
        assert g.n == 7
        assert g.neighbors(5) == (1,) and g.neighbors(6) == (3,)

    def test_ud_pendant_eccentricities(self):
        # growing a UD pair bumps every old eccentricity by one and the new
        # tips realize diam + 2
        base = a_k(2)
        d0 = all_pairs_distances(base)
        grown = attach_pendants_at(base, 4, 6)
        d1 = all_pairs_distances(grown)
        assert d1.ecc[base.n] == d1.ecc[base.n + 1] == d0.diam + 2
        assert all(d1.ecc[v] == d0.ecc[v] + 1 for v in range(base.n))

    def test_rejects_equal_anchors(self):
        with pytest.raises(FamilyError):
            attach_pendants_at(path(3), 1, 1)

    def test_path_length_one_matches_single(self):
        assert attach_pendant_paths_at(cycle(4), 0, 2, 1) == attach_pendants_at(
            cycle(4), 0, 2
        )

    def test_p2_length2_gives_p6(self):
        g = attach_pendant_paths_at(path(2), 0, 1, 2)
        assert tree_canonical_form(g) == tree_canonical_form(path(6))

    def test_diameter_grows_by_two_per_level(self):
        base = a_k(1)
        grown = attach_pendant_paths_at(base, 4, 5, 2)
        assert all_pairs_distances(grown).diam == 4 + 2 * 2

    def test_rejects_zero_length(self):
        with pytest.raises(FamilyError):
            attach_pendant_paths_at(path(2), 0, 1, 0)

    @pytest.mark.parametrize(
        "base, u, v",
        [(path(2), 0, 1), (path(6), 0, 5), (complete(3), 0, 1), (a_k(1), 4, 5), (a_k(3), 4, 7)],
        ids=["P2", "P6", "K3", "A1", "A3"],
    )
    def test_direct_construction_is_the_iteration(self, base, u, v):
        assert is_ud_pair(base, all_pairs_distances(base), u, v)
        grown, tips = base, (u, v)
        for length in range(1, 5):
            grown = attach_pendants_at(grown, *tips)
            tips = (grown.n - 2, grown.n - 1)
            assert attach_pendant_paths_at(base, u, v, length) == grown


class TestThm29Construction:
    def test_postconditions_spot(self):
        for n, npr in [(9, 5), (10, 1), (12, 10), (9, 1)]:
            g = thm29_construction(n, npr)
            r = full_report(g)
            assert sum(1 for v in range(n) if g.degree(v) == n - 1) == npr
            assert r.n_universal == npr
            assert r.diam == 2
            assert r.e2 > r.wiener

    def test_low_universal_count_hits_avd_gate(self):
        # n=10, n'=1: avd of the non-universal part must exceed 14/5
        from fractions import Fraction

        g = thm29_construction(10, 1)
        part = [v for v in range(10) if g.degree(v) != 9]
        from distinv import induced_subgraph

        sub = induced_subgraph(g, part)
        assert Fraction(2 * sub.m, sub.n) > Fraction(14, 5)

    def test_domain_errors(self):
        for n, npr in [(2, 1), (5, 0), (5, 4), (9, 8)]:
            with pytest.raises(FamilyError):
                thm29_construction(n, npr)


class TestFamilySpecParsing:
    @pytest.mark.parametrize(
        "text,n",
        [
            ("path:7", 7),
            ("cycle:5", 5),
            ("complete:6", 6),
            ("star:5", 5),
            ("double_star:2,3", 7),
            ("hypercube:3", 8),
            ("ak:3", 10),
            ("figure1", 16),
            ("cartesian(path:3,cycle:5)", 15),
            ("thm29:n=10,np=1", 10),
            ("pendant_ud(ak:1,l=2)", 10),
            ("cartesian(cartesian(path:2,path:2),path:2)", 8),
        ],
    )
    def test_build_sizes(self, text, n):
        spec = parse_family_spec(text)
        assert build_family(spec).n == family_order(spec) == n

    def test_pendant_ud_uses_canonical_pair(self):
        g = build_family(parse_family_spec("pendant_ud(ak:1,l=2)"))
        assert g == attach_pendant_paths_at(a_k(1), 4, 5, 2)

    def test_pendant_ud_rejects_non_ud(self):
        with pytest.raises(FamilyError, match="not universally diametrical"):
            build_family(parse_family_spec("pendant_ud(cycle:6)"))

    def test_str_round_trip(self):
        for text in ["path:7", "cartesian(path:3,cycle:5)", "thm29:n=10,np=1",
                     "pendant_ud(ak:1,l=2)"]:
            spec = parse_family_spec(text)
            assert parse_family_spec(str(spec)) == spec

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "pathology:3",
            "path:",
            "path:x",
            "cycle:5,6",
            "cartesian(path:3)",
            "cartesian(path:3,cycle:5",
            "thm29:n=10",
            "figure1:3",
            "pendant_ud(path:2,l=2,l=3)",
        ],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(FamilyError):
            parse_family_spec(bad)

    @pytest.mark.parametrize(
        "text,key",
        [("thm29:n=10,n=11,np=1", "n"), ("thm29:n=10,np=1,np=1", "np")],
    )
    def test_repeated_key(self, text, key):
        with pytest.raises(FamilyError, match=f"repeated key '{key}'"):
            parse_family_spec(text)

    def test_depth_limit(self):
        text = "path:2"
        for _ in range(5):
            text = f"cartesian({text},path:2)"
        with pytest.raises(FamilyError, match="deep"):
            parse_family_spec(text)


def test_a1_pair_is_ud_under_direct_check():
    g = a_k(1)
    d = all_pairs_distances(g)
    assert is_ud_pair(g, d, 4, 5)


def test_two_universal_plus_three_isolated_graph():
    g = from_edge_list(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    r = full_report(g)
    assert r.n_universal == 2 and r.e1 == 14 and r.e2 == 13
