"""Enumeration counts, sampler reproducibility, and the parallel fold."""

import pytest

import networkx as nx

from distinv import (
    SweepError,
    SweepSpec,
    all_pairs_distances,
    emit_graph6,
    enumerate_connected_graphs,
    enumerate_trees,
    fold_sweep,
    full_report,
    iter_sweep,
    parse_sweep_spec,
    run_sweep,
    sample_diameter2_graphs,
)
from distinv import sweeps as sweeps_mod
from distinv.sweeps import _pool_size, _stream_key, mix64, rand64

from oracles import tree_canonical_form

# labeled connected graphs and free trees, by order
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}
TREE_COUNTS = {
    2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106,
    11: 235, 12: 551, 13: 1301, 14: 3159, 15: 7741, 16: 19320,
}


class TestConnectedEnumeration:
    @pytest.mark.parametrize("n,count", sorted(CONNECTED_COUNTS.items()))
    def test_counts(self, n, count):
        assert sum(1 for _ in enumerate_connected_graphs(n)) == count

    def test_all_yielded_connected_and_distinct(self):
        seen = set()
        for g in enumerate_connected_graphs(4):
            assert g.n == 4
            seen.add(g.bits)
        assert len(seen) == 38

    @pytest.mark.parametrize("n", [0, 9])
    def test_bounds(self, n):
        with pytest.raises(SweepError, match="exhaustive bound"):
            list(enumerate_connected_graphs(n))


class TestTreeEnumeration:
    @pytest.mark.parametrize("n,count", sorted(TREE_COUNTS.items()))
    def test_counts(self, n, count):
        assert sum(1 for _ in enumerate_trees(n)) == count

    def test_counts_large(self):
        assert sum(1 for _ in enumerate_trees(17)) == 48629
        assert sum(1 for _ in enumerate_trees(18)) == 123867

    def test_yields_trees(self):
        for t in enumerate_trees(9):
            assert t.m == t.n - 1
            assert all_pairs_distances(t).diam >= 2

    @pytest.mark.parametrize("n", range(2, 11))
    def test_pairwise_nonisomorphic(self, n):
        forms = {tree_canonical_form(t) for t in enumerate_trees(n)}
        assert len(forms) == TREE_COUNTS[n]

    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_networkx_up_to_isomorphism(self, n):
        ours = {tree_canonical_form(t) for t in enumerate_trees(n)}
        theirs = set()
        for g in nx.nonisomorphic_trees(n):
            edges = [tuple(sorted(e)) for e in g.edges()]
            from distinv import from_edge_list

            theirs.add(tree_canonical_form(from_edge_list(n, edges)))
        assert ours == theirs

    @pytest.mark.parametrize("n", [1, 19])
    def test_bounds(self, n):
        with pytest.raises(SweepError):
            list(enumerate_trees(n))


class TestDiameter2Sampler:
    def test_postconditions(self):
        for g in sample_diameter2_graphs(9, 50, 123):
            r = full_report(g)
            assert r.diam == 2
            assert r.wiener == r.n * (r.n - 1) - r.m

    def test_reproducible_byte_for_byte(self):
        a = [emit_graph6(g) for g in sample_diameter2_graphs(10, 300, 42)]
        b = [emit_graph6(g) for g in sample_diameter2_graphs(10, 300, 42)]
        assert a == b

    def test_seed_changes_stream(self):
        a = [emit_graph6(g) for g in sample_diameter2_graphs(10, 50, 1)]
        b = [emit_graph6(g) for g in sample_diameter2_graphs(10, 50, 2)]
        assert a != b

    def test_domain_errors(self):
        with pytest.raises(SweepError):
            list(sample_diameter2_graphs(2, 5, 0))
        with pytest.raises(SweepError):
            list(sample_diameter2_graphs(9, 0, 0))
        with pytest.raises(SweepError):
            list(sample_diameter2_graphs(129, 5, 0))


class TestPrngContract:
    def test_frozen_values(self):
        # these pin the documented stream; changing them breaks every seed
        assert mix64(0) == 0
        assert mix64(1) == 0x97EF3BC1154401C8
        assert rand64(0, 0) == 0
        assert rand64(12345, 678) == 0x20E8A66813A8E0A2
        assert _stream_key(42, 9) == 0xF742F0F31F1ED09F

    def test_counter_addressable(self):
        seq = [rand64(7, c) for c in range(100)]
        assert rand64(7, 50) == seq[50]
        assert len(set(seq)) == 100


class TestSweepSpecParsing:
    def test_trees(self):
        spec = parse_sweep_spec("trees:2..12")
        assert spec.target == "trees" and (spec.n_min, spec.n_max) == (2, 12)

    def test_connected_with_filter(self):
        spec = parse_sweep_spec("connected:3..7,filter=self_centered")
        assert spec.target == "connected_graphs"
        assert spec.filter_name == "self_centered"

    def test_diam2(self):
        spec = parse_sweep_spec("diam2:n=10,count=100000,seed=42,filter=min_degree_2")
        assert spec.target == "diameter2_graphs"
        assert (spec.n_min, spec.n_max, spec.sample_count, spec.seed) == (
            10, 10, 100000, 42,
        )
        assert spec.filter_name == "min_degree_2"

    def test_diam2_range(self):
        spec = parse_sweep_spec("diam2:n=9..12,count=5,seed=7")
        assert (spec.n_min, spec.n_max) == (9, 12)

    def test_str_round_trip(self):
        for text in ["trees:2..12", "connected:3..7",
                     "diam2:n=9..12,count=5,seed=7,filter=min_degree_2"]:
            spec = parse_sweep_spec(text)
            assert parse_sweep_spec(str(spec)) == spec

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "bogus:1..2",
            "trees:",
            "trees:1..19",
            "trees:5..4",
            "connected:3..9",
            "diam2:count=5",
            "diam2:n=10",
            "diam2:n=10,count=0",
            "diam2:n=10,count=5,seed=x",
            "diam2:n=10,count=5,bogus=1",
            "trees:2..8,filter=nope",
        ],
    )
    def test_errors(self, bad):
        with pytest.raises(SweepError):
            parse_sweep_spec(bad)


class TestRunSweep:
    def test_tree_sweep_visits_986(self):
        spec = SweepSpec("trees", 2, 12)
        summary = run_sweep(spec, lambda g: None)
        assert summary.visited == 986 and summary.filtered == 0

    def test_filter_count_matches_direct_loop(self):
        spec = SweepSpec("connected_graphs", 5, 5, filter_name="self_centered")
        summary = run_sweep(spec, lambda g: None)
        direct = 0
        for g in enumerate_connected_graphs(5):
            d = all_pairs_distances(g)
            if d.diam == d.rad:
                direct += 1
        assert summary.visited == direct
        assert summary.visited + summary.filtered == 728

    def test_random_sweep_visits_count(self):
        spec = SweepSpec(
            "diameter2_graphs", 9, 10, "random", sample_count=10, seed=3
        )
        assert run_sweep(spec, lambda g: None).visited == 20

    def test_visitor_error_carries_graph6(self):
        from distinv.sweeps import SweepVisitError

        def boom(g):
            raise ValueError("nope")

        with pytest.raises(SweepVisitError, match=r"visitor failed on "):
            run_sweep(SweepSpec("trees", 4, 4), boom)

    def test_iter_sweep_order_matches_fold(self):
        spec = SweepSpec("trees", 2, 8)
        direct = [emit_graph6(g) for g in iter_sweep(spec)]
        folded, summary = fold_sweep(
            spec,
            lambda acc, g: acc + [emit_graph6(g)],
            lambda a, b: a + b,
            list,
        )
        assert direct == folded and summary.visited == len(direct)


class TestParallelDeterminism:
    @staticmethod
    def _collect(spec, workers):
        return fold_sweep(
            spec,
            lambda acc, g: acc + [emit_graph6(g)],
            lambda a, b: a + b,
            list,
            workers=workers,
        )

    @pytest.mark.parametrize(
        "spec",
        [
            SweepSpec("trees", 2, 10),
            SweepSpec("connected_graphs", 3, 5),
            SweepSpec("diameter2_graphs", 9, 10, "random", sample_count=40, seed=5),
        ],
        ids=["trees", "connected", "diam2"],
    )
    def test_one_vs_three_workers(self, spec):
        acc1, s1 = self._collect(spec, 1)
        acc3, s3 = self._collect(spec, 3)
        assert sorted(acc1) == sorted(acc3)
        assert (s1.visited, s1.filtered) == (s3.visited, s3.filtered)

    def test_chunked_streams_concatenate_in_order(self):
        spec = SweepSpec("diameter2_graphs", 9, 9, "random", sample_count=30, seed=5)
        acc1, _ = self._collect(spec, 1)
        acc4, _ = self._collect(spec, 4)
        assert acc1 == acc4


class TestPoolBound:
    """The pool size is a pure function; nothing here starts a process."""

    @pytest.mark.parametrize(
        "workers, chunks, cpus, expected",
        [
            (1, 10, 8, 1),
            (4, 40, 8, 4),
            (8, 3, 8, 3),
            (10**9, 10**6, 2, 2),
            (2, 40, None, 1),  # cpu count unknown
            (0, 5, 2, 1),
            (3, 0, 2, 1),
        ],
    )
    def test_pool_size(self, monkeypatch, workers, chunks, cpus, expected):
        monkeypatch.setattr(sweeps_mod.os, "cpu_count", lambda: cpus)
        assert _pool_size(workers, chunks) == expected

    def test_fold_sweep_dispatches_one_chunk_per_task(self, monkeypatch):
        seen = {}

        class InlinePool:
            def __init__(self, processes):
                seen["processes"] = processes

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=None):
                seen["chunksize"] = chunksize
                return [fn(i) for i in items]

        class InlineContext:
            Pool = InlinePool

        monkeypatch.setattr(sweeps_mod.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(
            sweeps_mod.multiprocessing, "get_context", lambda method: InlineContext
        )
        count, summary = fold_sweep(
            SweepSpec("connected_graphs", 3, 4),
            lambda acc, g: acc + 1,
            lambda a, b: a + b,
            int,
            workers=10**6,
        )
        assert count == summary.visited == 4 + 38
        assert seen == {"processes": 2, "chunksize": 1}
