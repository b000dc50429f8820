"""Enumeration counts, sampler reproducibility, and the parallel fold."""

import hashlib
import itertools
import re
import operator
import os
import signal
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest

import networkx as nx

from distinv import (
    Graph,
    SweepError,
    SweepSpec,
    all_pairs_distances,
    emit_graph6,
    fold_sweep,
    full_report,
    iter_sweep,
    parse_sweep_spec,
)
from distinv import invariants as invariants_mod
from distinv import sweeps as sweeps_mod
from distinv.graphs import _pair_list, _pairs_from_rows, _rows_from_pairs
from distinv.invariants import LANE_BLOCK, Block, _Lanes, lane_reports, lane_width, unpack_lanes
from distinv.sweeps import (
    FILTERS,
    TREE_MAX_N,
    TREE_MIN_N,
    SweepVisitError,
    _DIAM2_THRESH,
    _GOLDEN,
    _M64,
    _chunks,
    _connected_graphs_range,
    _diam2_lanes,
    _diam2_stream,
    _draw,
    _draw_consts,
    _pool_size,
    _stream_key,
    _Stream,
    _Tally,
    mix64,
    rand64,
)
from distinv.theorems import CLAIMS, hunt

from oracles import (
    REFERENCE_FILTERS,
    bernoulli_rows,
    connected_graphs_by_mask,
    diam2_attempts,
    diam2_stream_by_attempt,
    is_connected,
    is_diameter2,
    lanes_of,
    tree_canonical_form,
    tree_from_levels,
    unmix64,
)

# labeled connected graphs and free trees, by order
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704, 7: 1866256}
TREE_COUNTS = {
    2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106,
    11: 235, 12: 551, 13: 1301, 14: 3159, 15: 7741, 16: 19320,
}


def _count(acc, graphs):
    return acc + sum(1 for _ in graphs)


def _graph6_list(acc, graphs):
    return acc + [emit_graph6(g) for g in graphs]


class TestConnectedEnumeration:
    @pytest.mark.parametrize("n,count", sorted(CONNECTED_COUNTS.items()))
    def test_counts(self, n, count):
        assert sum(1 for _ in iter_sweep(SweepSpec("connected_graphs", n, n))) == count

    def test_all_yielded_connected_and_distinct(self):
        seen = set()
        for g in iter_sweep(SweepSpec("connected_graphs", 4, 4)):
            assert g.n == 4
            seen.add(g.bits)
        assert len(seen) == 38

    @pytest.mark.parametrize("n", [0, 9])
    def test_bounds(self, n):
        with pytest.raises(SweepError, match="exhaustive connected sweep needs"):
            list(iter_sweep(SweepSpec("connected_graphs", n, n)))


class TestMaskScan:
    """The lane-packed labeled mask scan against the one-mask-at-a-time
    reference, on whole orders and on chunk ranges off the block grid."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_mask(self, n):
        total = 1 << (n * (n - 1) // 2)
        ours = list(lanes_of(_connected_graphs_range(n, 0, total)))
        assert ours == list(connected_graphs_by_mask(n, 0, total))

    @pytest.mark.parametrize("parts", [1, 2, 3, 7])
    @pytest.mark.parametrize("n", [5, 6])
    def test_chunk_ranges(self, n, parts):
        whole = []
        for _, _, lo, hi in _chunks(SweepSpec("connected_graphs", n, n), parts):
            ours = list(lanes_of(_connected_graphs_range(n, lo, hi)))
            assert ours == list(connected_graphs_by_mask(n, lo, hi)), (lo, hi)
            whole += ours
        assert whole == list(iter_sweep(SweepSpec("connected_graphs", n, n)))

    @pytest.mark.parametrize("parts", [2, 3, 7])
    def test_chunk_edges_at_order_7(self, parts):
        # 1,500 masks on each side of every chunk boundary
        for _, _, lo, hi in _chunks(SweepSpec("connected_graphs", 7, 7), parts):
            for a, b in ((lo, lo + 1500), (hi - 1500, hi)):
                ours = list(lanes_of(_connected_graphs_range(7, a, b)))
                assert ours == list(connected_graphs_by_mask(7, a, b)), (a, b)

    @pytest.mark.parametrize(
        "lo,hi", [(0, 0), (5, 5), (1023, 1025), (1024, 2048), (3000, 3001)]
    )
    def test_short_ranges(self, lo, hi):
        ours = list(lanes_of(_connected_graphs_range(6, lo, hi)))
        assert ours == list(connected_graphs_by_mask(6, lo, hi))

    @pytest.mark.parametrize("parts", [1, 2])
    def test_gathered_rows_equal_the_tuple_path(self, monkeypatch, parts):
        # each window's kept lanes, gathered from its rows with no tuple
        # built, against Block.of of the kept row tuples; two parts cut the
        # scan into other chunks
        real = Block.keep
        windows = []

        def check(block, flags):
            kept = real(block, flags)
            width = lane_width(block.n)
            tuples = zip(*(unpack_lanes(row, width, block.k) for row in block.rows))
            want = Block.of(block.n, list(itertools.compress(tuples, flags)))
            assert kept._lanes is None and (kept.n, kept.k) == (want.n, want.k)
            assert kept.rows == want.rows
            windows.append(block)
            return kept

        monkeypatch.setattr(Block, "keep", check)
        spec = parse_sweep_spec("connected:1..6")
        chunks = _chunks(spec, parts)
        count = sum(b.k for c in chunks for b in _Stream(spec, c, _Tally()).blocks())
        assert count == 27476 and len(windows) >= 30

    def test_window_cut_is_one_window_wide(self):
        # the lo..hi cut of each 1,024-mask window spans that window, not the
        # rest of the chunk: at order 8 the first connected window is 2^21
        tracemalloc.start()
        try:
            block = next(_connected_graphs_range(8, 0, 1 << 24))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert block.k > 0 and peak < 1 << 20


class TestTreeEnumeration:
    @pytest.mark.parametrize("n,count", sorted(TREE_COUNTS.items()))
    def test_counts(self, n, count):
        assert sum(1 for _ in iter_sweep(SweepSpec("trees", n, n))) == count

    def test_counts_large(self):
        assert sum(1 for _ in iter_sweep(SweepSpec("trees", 17, 17))) == 48629
        assert sum(1 for _ in iter_sweep(SweepSpec("trees", 18, 18))) == 123867

    def test_yields_trees(self):
        for t in iter_sweep(SweepSpec("trees", 9, 9)):
            assert t.m == t.n - 1
            assert all_pairs_distances(t).diam >= 2

    @pytest.mark.parametrize("n", range(2, 11))
    def test_pairwise_nonisomorphic(self, n):
        forms = {tree_canonical_form(t) for t in iter_sweep(SweepSpec("trees", n, n))}
        assert len(forms) == TREE_COUNTS[n]

    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_networkx_up_to_isomorphism(self, n):
        ours = {tree_canonical_form(t) for t in iter_sweep(SweepSpec("trees", n, n))}
        theirs = set()
        for g in nx.nonisomorphic_trees(n):
            edges = [tuple(sorted(e)) for e in g.edges()]
            from distinv import from_edge_list

            theirs.add(tree_canonical_form(from_edge_list(n, edges)))
        assert ours == theirs

    @pytest.mark.parametrize("n", [1, 19])
    def test_bounds(self, n):
        with pytest.raises(SweepError):
            list(iter_sweep(SweepSpec("trees", n, n)))


class TestTreeBlocks:
    """A tree chunk's blocks are built lane-wise from its level sequences;
    and every chunk's two views hand out the same graphs: its generator's
    blocks, lane by lane, and the graph view, graph by graph."""

    @pytest.mark.parametrize("n", range(TREE_MIN_N, TREE_MAX_N + 1))
    def test_lane_rows_equal_the_tree_rows(self, n):
        # orders 2..15 in 16-bit lanes, 16..18 in 32-bit lanes
        width = lane_width(n)
        count = 0
        for levels in sweeps_mod._level_blocks(n, 0, 1):
            block = sweeps_mod._tree_block(n, levels)
            lanes = zip(*(unpack_lanes(row, width, block.k) for row in block.rows))
            assert list(lanes) == [tuple(tree_from_levels(lv).bits) for lv in levels]
            count += block.k
        assert count == {**TREE_COUNTS, 17: 48629, 18: 123867}[n]

    @pytest.mark.parametrize(
        "n, size",
        [(n, LANE_BLOCK) for n in range(TREE_MIN_N, TREE_MAX_N + 1)]
        + [(n, size) for size in (1, 3) for n in range(TREE_MIN_N, 13)],
    )
    def test_closed_form_equals_the_bfs(self, n, size):
        # a tree block's sums are the BFS kernel's on a plain block of the
        # same rows, and so are its words and reports; the empty gate gives
        # every lane a report
        gates = [()] + [c.gate for c in CLAIMS.values() if c.gate]
        levels = sweeps_mod._tree_levels(n)
        for chunk in iter(lambda: list(itertools.islice(levels, size)), []):
            block = sweeps_mod._tree_block(n, chunk)
            plain = Block(n, block.k, block.rows)
            assert block.sums() is not None and plain.sums() is None
            got, want = _Lanes(block), _Lanes(plain)
            for name in ("ecc", "tr", "far", "depth", "connected"):
                assert getattr(got, name) == getattr(want, name), (name, chunk[0])
            assert lane_reports(block, gates) == lane_reports(plain, gates), chunk[0]

    @pytest.mark.parametrize("parts", [1, 2, 3])
    @pytest.mark.parametrize(
        "text",
        [
            "trees:2..16",
            "connected:1..7",
            # 16-, 32- and 64-bit lanes
            "diam2:n=9..12,count=1100,seed=5",
            "diam2:n=16,count=40,seed=5",
            "diam2:n=31..32,count=30,seed=5",
            # each filter
            "trees:2..12,filter=non_self_centered",
            "connected:1..6,filter=self_centered",
            "diam2:n=9..10,count=300,seed=5,filter=min_degree_2",
        ],
    )
    def test_block_view_equals_graph_view(self, text, parts):
        spec = parse_sweep_spec(text)
        for chunk in _chunks(spec, parts):
            graph_tally, block_tally = _Tally(), _Tally()
            graphs = _Stream(spec, chunk, graph_tally)
            count = 0
            for block in _Stream(spec, chunk, block_tally).blocks():
                assert block.n == chunk[1] and 1 <= block.k <= LANE_BLOCK
                for j in range(block.k):
                    assert block.graph(j) == next(graphs), (chunk, count + j)
                count += block.k
            assert next(graphs, None) is None
            assert block_tally.visited == graph_tally.visited == count
            assert block_tally.filtered == graph_tally.filtered
            assert block_tally.named() == graph_tally.named()


class TestDiameter2Sampler:
    def test_postconditions(self):
        spec = SweepSpec("diameter2_graphs", 9, 9, sample_count=50, seed=123)
        for g in iter_sweep(spec):
            r = full_report(g)
            assert r.diam == 2
            assert r.wiener == r.n * (r.n - 1) - r.m

    def test_reproducible_byte_for_byte(self):
        spec = SweepSpec("diameter2_graphs", 10, 10, sample_count=300, seed=42)
        a = [emit_graph6(g) for g in iter_sweep(spec)]
        b = [emit_graph6(g) for g in iter_sweep(spec)]
        assert a == b

    def test_seed_changes_stream(self):
        one = SweepSpec("diameter2_graphs", 10, 10, sample_count=50, seed=1)
        two = SweepSpec("diameter2_graphs", 10, 10, sample_count=50, seed=2)
        a = [emit_graph6(g) for g in iter_sweep(one)]
        b = [emit_graph6(g) for g in iter_sweep(two)]
        assert a != b

    def test_domain_errors(self):
        with pytest.raises(SweepError):
            list(iter_sweep(SweepSpec("diameter2_graphs", 2, 2, sample_count=5, seed=0)))
        with pytest.raises(SweepError):
            list(iter_sweep(SweepSpec("diameter2_graphs", 9, 9, sample_count=0, seed=0)))
        with pytest.raises(SweepError):
            list(iter_sweep(SweepSpec("diameter2_graphs", 129, 129, sample_count=5, seed=0)))


class TestPackedSampler:
    """The block sampler's draw step and lane test against the scalar
    per-pair references."""

    @staticmethod
    def _split(n, hits):
        # _draw's bytes as one row list per attempt
        pairs = n * (n - 1) // 2
        return [
            _rows_from_pairs(n, sum(b << e for e, b in enumerate(hits[a : a + pairs])))
            for a in range(0, len(hits), pairs)
        ]

    @pytest.mark.parametrize("n", [3, 4, 5, 9, 12, 13, 40])
    def test_rows_match_scalar_reference(self, n):
        # attempts 0..3 of samples 0..59, one draw per attempt and p
        consts = _draw_consts(n)
        for seed in (0, 5, 9001):
            key = _stream_key(seed, n)
            for attempt in range(4):
                for k in range(3):
                    index = [i for i in range(60) if (i + attempt) % 3 == k]
                    base = [((i << 21) | attempt) << 13 for i in index]
                    starts = [(key + c * _GOLDEN) & _M64 for c in base]
                    drawn = self._split(n, _draw(consts, starts, k))
                    want = [bernoulli_rows(key, n, c, _DIAM2_THRESH[k]) for c in base]
                    assert drawn == want, (seed, attempt, k)

    def test_largest_order_matches_scalar_reference(self):
        # 8,128 pairs: the closest the pair index comes to its 2^13 field
        key = _stream_key(7, 128)
        base = ((5 << 21) | 1) << 13
        hits = _draw(_draw_consts(128), [(key + base * _GOLDEN) & _M64], 0)
        (drawn,) = self._split(128, hits)
        assert drawn == bernoulli_rows(key, 128, base, _DIAM2_THRESH[0]) and any(drawn)

    @pytest.mark.parametrize("n", [3, 128])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_compare_at_threshold_boundaries(self, n, k):
        # starts chosen so the first lane (attempt 0, pair 0) and the last
        # lane (attempt 2, the last pair) hold exactly x
        consts = _draw_consts(n)
        thresh = _DIAM2_THRESH[k]
        last = n * (n - 1) // 2 - 1
        for x in (0, thresh - 1, thresh, _M64):
            starts = [
                unmix64(x),
                mix64(x),
                (unmix64(x) - last * _GOLDEN) & _M64,
            ]
            hits = _draw(consts, starts, k)
            assert mix64(starts[2] + last * _GOLDEN) == x
            assert hits[0] == hits[-1] == (x < thresh), x
            want = [bernoulli_rows(s, n, 0, thresh) for s in starts]
            assert self._split(n, hits) == want, x

    @staticmethod
    def _lanes(n, graphs):
        # the graphs through the lane test as one block: kept graph or None
        width = n * (n - 1) // 2
        masks = [_pairs_from_rows(g.bits) for g in graphs]
        hits = b"".join(bytes(m >> e & 1 for e in range(width)) for m in masks)
        kept = _diam2_lanes(n, _pair_list(n), hits, len(graphs))
        return [None if rows is None else Graph._raw(n, rows) for rows in kept]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_diameter2_test_matches_bfs(self, n):
        # every mask, in blocks of up to 1,024 lanes
        total = 1 << (n * (n - 1) // 2)
        for lo in range(0, total, 1024):
            masks = range(lo, min(lo + 1024, total))
            graphs = [Graph._raw(n, _rows_from_pairs(n, m)) for m in masks]
            for g, kept in zip(graphs, self._lanes(n, graphs)):
                want = is_connected(g) and all_pairs_distances(g).diam == 2
                assert (kept is not None) == want == is_diameter2(list(g.bits)), g.bits
                assert kept is None or kept == g

    @pytest.mark.parametrize("n", [40, 128])
    def test_lane_test_at_wide_lanes(self, n):
        # 64- and 256-bit lanes: K_n, K_(n-1) plus an isolated vertex, K_(n-2)
        # with pendants at 0 and 1 (diameter 3), and K_n less one edge
        everything = (1 << n) - 1
        complete = [everything ^ (1 << v) for v in range(n)]
        apart = [r & ~(1 << (n - 1)) for r in complete[:-1]] + [0]
        diam3 = [r & (everything >> 2) for r in complete]
        diam3[0] |= 1 << (n - 2)
        diam3[1] |= 1 << (n - 1)
        diam3[n - 2], diam3[n - 1] = 1, 2
        less = list(complete)
        less[0] ^= 2
        less[1] ^= 1
        graphs = [Graph._raw(n, r) for r in (complete, apart, diam3, less)]
        diams = [all_pairs_distances(graphs[i]).diam for i in (0, 2, 3)]
        assert diams == [1, 3, 2]
        assert not is_connected(graphs[1])
        block = graphs * 3
        kept = self._lanes(n, block)
        assert kept == [None, None, None, graphs[3]] * 3

    @pytest.mark.parametrize(
        "text, digest",
        [
            (
                "diam2:n=9..12,count=2000,seed=9001",
                "45a9a0898b09e0b00725a7ecb06f2ae7fbe64d505b76da85d4595475a93daefe",
            ),
            (
                "diam2:n=3..8,count=300,seed=5",
                "387ed10874c644d8c0ee6bbce20daba642279d97b3076674296b4ba23b282452",
            ),
            (
                "diam2:n=40,count=20,seed=1",
                "3e916dec140f537778bfb96ca01d2469b310396bda99947e8081fe00c0f16442",
            ),
        ],
    )
    def test_documented_stream_pinned(self, text, digest):
        # the diam2: stream is a contract; digests of the scalar sampler's output
        spec = parse_sweep_spec(text)
        stream = "".join(emit_graph6(g) + "\n" for g in iter_sweep(spec))
        assert hashlib.sha256(stream.encode()).hexdigest() == digest


class TestBlockSampler:
    """The block stream against the one-attempt-at-a-time reference."""

    @pytest.mark.parametrize(
        "n, count",
        [(n, 60) for n in range(3, 16)] + [(16, 40), (31, 10), (32, 10), (63, 4), (64, 4)]
        + [(127, 2), (128, 2)],
    )
    def test_matches_reference(self, n, count):
        for seed in (0, 5, 9001):
            ours = list(lanes_of(_diam2_stream(seed, n, 0, count)))
            assert ours == list(diam2_stream_by_attempt(seed, n, 0, count)), seed

    @pytest.mark.parametrize("n, count", [(9, 2500), (12, 1100)])
    def test_chunk_ranges(self, n, count):
        # chunk bounds off the 1,024-sample block grid
        whole = list(diam2_stream_by_attempt(7, n, 0, count))
        spec = SweepSpec("diameter2_graphs", n, n, sample_count=count, seed=7)
        for parts in (1, 2, 3, 7):
            for _, _, lo, hi in _chunks(spec, parts):
                ours = list(lanes_of(_diam2_stream(7, n, lo, hi)))
                assert ours == whole[lo:hi], (parts, lo, hi)

    @pytest.mark.parametrize("index", [0, 1, 5, 1023, 1024, 2047, 2048, 10**6])
    def test_one_sample_ranges(self, index):
        for n in (9, 12):
            ours = list(lanes_of(_diam2_stream(3, n, index, index + 1)))
            assert ours == list(diam2_stream_by_attempt(3, n, index, index + 1))

    @pytest.mark.parametrize("limit", [1, 2])
    def test_stall_after_the_samples_before_it(self, monkeypatch, limit):
        # the error comes at the first sample with no accepted attempt, after
        # every sample before it, and nothing else; some cases yield a prefix
        monkeypatch.setattr(sweeps_mod, "_MAX_ATTEMPTS", limit)
        prefixes = 0
        for n, seed, lo in [(9, 5, 0), (9, 5, 1), (10, 1, 2), (12, 9001, 1000), (40, 2, 4)]:
            want = []
            with pytest.raises(SweepError, match="sampling stalled") as ref:
                for g in diam2_stream_by_attempt(seed, n, lo, lo + 2000, limit):
                    want.append(g)
            got = []
            with pytest.raises(SweepError, match="sampling stalled") as info:
                for g in lanes_of(_diam2_stream(seed, n, lo, lo + 2000)):
                    got.append(g)
            assert type(info.value) is type(ref.value) is SweepError
            assert got == want, (n, seed, lo)
            prefixes += bool(got)
        assert prefixes >= 2

    def test_documented_attempt_counts(self):
        # the module docstring: kept of drawn attempts at p = 0.3, 0.5, 0.7
        kept, drawn = [0, 0, 0], [0, 0, 0]
        for n in range(9, 13):
            for index in range(2000):
                for k, _, accepted in diam2_attempts(5, n, index):
                    drawn[k] += 1
                    kept[k] += accepted
        assert (kept, drawn) == ([8, 1973, 6019], [2901, 5561, 6252])

    @pytest.mark.parametrize("n", [3, 12, 40, 128])
    def test_pair_order_is_the_codec_order(self, n):
        pairs = _pair_list(n)
        assert len(pairs) == n * (n - 1) // 2
        for e, (u, v) in enumerate(pairs):
            rows = _rows_from_pairs(n, 1 << e)
            assert u < v and rows[u] == 1 << v and rows[v] == 1 << u, e
            assert sum(map(bool, rows)) == 2


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

    @pytest.mark.parametrize(
        "text,bound",
        [
            # read as seed & (2^64 - 1), these alias seed 5 and 2^64 - 1
            ("diam2:n=9,count=3,seed=18446744073709551621", "seed"),
            ("diam2:n=9,count=3,seed=-1", "seed"),
            # sample index i + 2^30 draws the counters of sample i
            ("diam2:n=9,count=1073741825,seed=5", "count"),
            ("diam2:n=9,count=0,seed=5", "count"),
        ],
    )
    def test_stream_bounds(self, text, bound):
        with pytest.raises(SweepError, match=f"random sweep needs .*{bound}"):
            parse_sweep_spec(text)

    def test_stream_bounds_inclusive(self):
        spec = parse_sweep_spec("diam2:n=9,count=1073741824,seed=18446744073709551615")
        assert (spec.sample_count, spec.seed) == (1 << 30, (1 << 64) - 1)

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

    @pytest.mark.parametrize(
        "text,key",
        [
            ("diam2:n=9,count=2,count=1,seed=3", "count"),
            ("diam2:n=9,n=10,count=2", "n"),
            ("diam2:n=9,count=2,seed=3,seed=3", "seed"),
            ("diam2:n=9,count=2,filter=min_degree_2,filter=min_degree_2", "filter"),
            ("trees:5..6,filter=nope,filter=min_degree_2", "filter"),
            ("connected:3..5,filter=self_centered,filter=self_centered", "filter"),
        ],
    )
    def test_repeated_option(self, text, key):
        with pytest.raises(SweepError, match=f"repeated sweep option '{key}'"):
            parse_sweep_spec(text)


class TestRunSweep:
    """Sweep counts and fold errors, through the stream fold."""

    def test_tree_sweep_visits_986(self):
        spec = SweepSpec("trees", 2, 12)
        count, summary = fold_sweep(spec, _count, operator.add, int)
        assert count == summary.visited == 986 and summary.filtered == 0

    def test_filter_count_matches_direct_loop(self):
        spec = SweepSpec("connected_graphs", 5, 5, filter_name="self_centered")
        count, summary = fold_sweep(spec, _count, operator.add, int)
        direct = 0
        for g in iter_sweep(SweepSpec("connected_graphs", 5, 5)):
            d = all_pairs_distances(g)
            if d.diam == d.rad:
                direct += 1
        assert count == summary.visited == direct
        assert summary.visited + summary.filtered == 728

    def test_random_sweep_visits_count(self):
        spec = SweepSpec(
            "diameter2_graphs", 9, 10, sample_count=10, seed=3
        )
        count, summary = fold_sweep(spec, _count, operator.add, int)
        assert count == summary.visited == 20

    def test_visitor_error_carries_graph6(self):
        spec = SweepSpec("trees", 6, 6)
        third = emit_graph6(list(iter_sweep(spec))[2])

        def boom(acc, graphs):
            for i, _g in enumerate(graphs):
                if i == 2:
                    raise ValueError("nope")
            return acc

        with pytest.raises(SweepVisitError) as info:
            fold_sweep(spec, boom, operator.add, int)
        assert str(info.value) == f"visitor failed on {third}: ValueError('nope')"
        assert isinstance(info.value.__cause__, ValueError)

    def test_iter_sweep_order_matches_fold(self):
        spec = SweepSpec("trees", 2, 8)
        direct = [emit_graph6(g) for g in iter_sweep(spec)]
        folded, summary = fold_sweep(spec, _graph6_list, operator.add, list)
        assert direct == folded and summary.visited == len(direct)


class TestStreamContract:
    """fold_sweep calls the fold once per chunk with that chunk's stream."""

    SPECS = [
        SweepSpec("trees", 2, 9),
        SweepSpec("connected_graphs", 1, 5, filter_name="self_centered"),
        SweepSpec("diameter2_graphs", 9, 10, sample_count=7, seed=5),
    ]

    @staticmethod
    def _record(acc, graphs):
        # one entry per call, in its partial: forked children send it back
        orders = set()
        count = 0
        for g in graphs:
            orders.add(g.n)
            count += 1
        return acc + [(type(graphs), iter(graphs) is graphs, orders, count)]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_one_call_per_chunk_with_an_iterator_of_one_order(
        self, spec, workers, monkeypatch
    ):
        # 2 workers split each order in 2 chunks, run by two forked children
        monkeypatch.setattr(sweeps_mod.os, "cpu_count", lambda: 2)
        calls, summary = fold_sweep(spec, self._record, operator.add, list, workers=workers)
        assert len(calls) == len(_chunks(spec, workers))
        for kind, is_iterator, orders, _ in calls:
            assert kind is not list and is_iterator and len(orders) <= 1
        assert sum(count for *_, count in calls) == summary.visited

    def test_summary_counts_what_the_stream_handed_out(self):
        def two(acc, graphs):
            next(graphs), next(graphs)
            return acc

        _, summary = fold_sweep(SweepSpec("trees", 6, 6), two, operator.add, int)
        assert summary.visited == 2

    def test_error_before_the_first_graph(self):
        def boom(acc, graphs):
            raise ValueError("early")

        with pytest.raises(SweepVisitError, match=r"on no graph yet: ValueError"):
            fold_sweep(SweepSpec("trees", 4, 4), boom, operator.add, int)

    @pytest.mark.parametrize(
        "spec",
        SPECS + [SweepSpec("diameter2_graphs", 9, 10, 7, 5, "min_degree_2")],
        ids=str,
    )
    def test_graph_view_packs_no_rows(self, spec, monkeypatch):
        # a block packs its row tuples only when the kernel reads its rows, so
        # every block of tuples handed out to a graph-view read (the
        # sampler's, or the tuples a filter keeps of one) still has none; only
        # the sampler calls Block.of.  The mask scan's and the tree sweep's
        # blocks are built from packed rows, and a filter gathers its kept
        # lanes from them
        made, read = [], {}
        of, graph = Block.of.__func__, Block.graph
        monkeypatch.setattr(Block, "of", classmethod(lambda *a: made.append(of(*a)) or made[-1]))

        def counted(block, j):
            read[id(block)] = block
            return graph(block, j)

        monkeypatch.setattr(Block, "graph", counted)
        graphs = list(iter_sweep(spec))
        sampled = spec.target == "diameter2_graphs"
        assert graphs and read and bool(made) == sampled
        assert all((block._rows is None) == sampled for block in read.values())

    def test_graph_view_runs_no_closed_form(self, monkeypatch):
        # only the kernel reads a tree block's sums: a filtered tree sweep's
        # gate reads them on its source blocks, and its kept blocks are tree
        # blocks again, whose sums the hunt reads; no block runs the BFS
        calls, bfs = [], []
        sums = sweeps_mod._TreeBlock.sums
        monkeypatch.setattr(
            sweeps_mod._TreeBlock, "sums", lambda self: calls.append(self.k) or sums(self)
        )
        monkeypatch.setattr(Block, "sums", lambda self: bfs.append(self.k))
        assert len(list(iter_sweep(parse_sweep_spec("trees:2..15")))) == 13187
        assert not calls
        spec = parse_sweep_spec("trees:2..12,filter=non_self_centered")
        kept = hunt(spec, ["T3.1", "L4.1"])[0].graphs_visited
        assert 0 < kept < 986 and sum(calls) == 986 + kept and not bfs
        calls.clear()
        hunt(parse_sweep_spec("trees:2..9"), ["T3.1", "L4.1"])
        assert sum(calls) == sum(TREE_COUNTS[n] for n in range(2, 10)) and not bfs

    def test_stream_error_propagates_unwrapped(self, monkeypatch):
        monkeypatch.setattr(sweeps_mod, "_MAX_ATTEMPTS", 0)
        spec = SweepSpec("diameter2_graphs", 9, 9, sample_count=3, seed=5)
        with pytest.raises(SweepError, match="sampling stalled") as info:
            fold_sweep(spec, _count, operator.add, int)
        assert type(info.value) is SweepError


class TestFilterGates:
    """Each filter's kernel gate against its reference: the filtered stream
    and its visited and filtered counts equal the unfiltered stream filtered
    one graph at a time, in chunks of 1 and 2 parts, at every lane width."""

    def test_row_gate_runs_no_bfs(self, monkeypatch):
        # min_degree_2 reads only the rows: its filter pass makes no lane BFS,
        # and a gate over diam makes one
        made = []

        class Counted(_Lanes):
            def __init__(self, block, tr=True):
                made.append(block.k)
                super().__init__(block, tr)

        monkeypatch.setattr(invariants_mod, "_Lanes", Counted)
        spec = parse_sweep_spec("diam2:n=9..12,count=2000,seed=5,filter=min_degree_2")
        kept = sum(block.k for block in iter_sweep(spec, blocks=True))
        assert made == [] and 0 < kept < 8000
        spec = parse_sweep_spec("diam2:n=9..10,count=50,seed=5,filter=self_centered")
        assert list(iter_sweep(spec, blocks=True)) and made

    @pytest.mark.parametrize("parts", [1, 2])
    @pytest.mark.parametrize("name", sorted(FILTERS))
    @pytest.mark.parametrize(
        "text",
        [
            "connected:1..6",
            "trees:2..16",
            "diam2:n=9..10,count=300,seed=5",
            "diam2:n=31..32,count=30,seed=5",
            "diam2:n=63..64,count=8,seed=5",
            "diam2:n=127..128,count=2,seed=5",
        ],
    )
    def test_matches_the_reference_filter(self, text, name, parts):
        # a tree chunk takes every parts-th block, so the order of a stream
        # depends on the parts: both streams are cut into the same chunks
        plain, spec = parse_sweep_spec(text), parse_sweep_spec(f"{text},filter={name}")

        def stream(spec, tally):
            return [g for chunk in _chunks(spec, parts) for g in _Stream(spec, chunk, tally)]

        every = stream(plain, _Tally())
        want = list(filter(REFERENCE_FILTERS[name], every))
        tally = _Tally()
        assert stream(spec, tally) == want
        assert (tally.visited, tally.filtered) == (len(want), len(every) - len(want))


class TestParallelDeterminism:
    @staticmethod
    def _collect(spec, workers):
        return fold_sweep(spec, _graph6_list, operator.add, list, workers=workers)

    @pytest.mark.parametrize(
        "spec",
        [
            SweepSpec("trees", 2, 10),
            SweepSpec("connected_graphs", 3, 5),
            SweepSpec("diameter2_graphs", 9, 10, sample_count=40, seed=5),
        ],
        ids=["trees", "connected", "diam2"],
    )
    def test_one_vs_three_workers(self, spec):
        acc1, s1 = self._collect(spec, 1)
        acc3, s3 = self._collect(spec, 3)
        assert sorted(acc1) == sorted(acc3)
        assert (s1.visited, s1.filtered) == (s3.visited, s3.filtered)

    def test_connected_one_vs_two_workers_byte_identical(self):
        spec = SweepSpec("connected_graphs", 3, 6)
        (acc1, s1), (acc2, s2) = self._collect(spec, 1), self._collect(spec, 2)
        assert acc1 == acc2 and s1.visited == s2.visited == 27474

    def test_chunked_streams_concatenate_in_order(self):
        spec = SweepSpec("diameter2_graphs", 9, 9, sample_count=30, seed=5)
        acc1, _ = self._collect(spec, 1)
        acc4, _ = self._collect(spec, 4)
        assert acc1 == acc4

    @pytest.mark.parametrize(
        "spec",
        [
            SweepSpec("trees", 2, 10),
            SweepSpec("diameter2_graphs", 9, 10, sample_count=40, seed=5),
        ],
        ids=["trees", "diam2"],
    )
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_children_partials_come_back_in_chunk_order(self, monkeypatch, spec, cpus):
        # child p folds chunks p, p + cpus, ...; the parent reassembles them
        # in chunk order, so the graphs come in the one-worker order
        monkeypatch.setattr(sweeps_mod.os, "cpu_count", lambda: cpus)
        acc1, s1 = self._collect(spec, 1)
        accw, sw = self._collect(spec, cpus)
        assert accw == acc1 and sw.visited == s1.visited == len(acc1)

    def test_fold_leaves_no_context_on_the_module(self, monkeypatch):
        # the job reaches the forked children through the fork alone
        monkeypatch.setattr(sweeps_mod.os, "cpu_count", lambda: 2)
        before = dict(vars(sweeps_mod))
        acc, summary = self._collect(SweepSpec("trees", 2, 9), 2)
        assert len(acc) == summary.visited == 1 + 1 + 2 + 3 + 6 + 11 + 23 + 47
        assert dict(vars(sweeps_mod)) == before
        assert _graph6_list not in vars(sweeps_mod).values()


class TestPoolBound:
    """The pool size is a pure function; the dispatch tests fork two
    children each."""

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

    @staticmethod
    def _counted_forks(monkeypatch):
        """Fork for real on 2 CPUs; the list of the children's pids, as the
        parent saw them."""
        monkeypatch.setattr(sweeps_mod.os, "cpu_count", lambda: 2)
        forks = []
        real_fork = os.fork

        def fork():
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(sweeps_mod.os, "fork", fork)
        return forks

    @staticmethod
    def _chunk_graphs(acc, graphs):
        # one entry per chunk: the graph6 of every graph it holds
        return acc + [tuple(emit_graph6(g) for g in graphs)]

    def test_fold_sweep_forks_two_children_and_folds_each_chunk_once(self, monkeypatch):
        forks = self._counted_forks(monkeypatch)
        module_before = dict(vars(sweeps_mod))
        spec = SweepSpec("connected_graphs", 3, 4)
        acc, summary = fold_sweep(spec, self._chunk_graphs, operator.add, list, workers=10**6)
        # every chunk of the two-part cut once, in chunk order
        want = [tuple(emit_graph6(g) for g in _Stream(spec, c, _Tally())) for c in _chunks(spec, 2)]
        assert len(want) == 4 and acc == want
        assert sum(map(len, acc)) == summary.visited == 4 + 38
        # the parent hands the job to the children without storing it anywhere
        assert dict(vars(sweeps_mod)) == module_before
        assert len(forks) == 2

    def test_chunks_capped_by_cpu_count_before_they_are_built(self, monkeypatch):
        forks = self._counted_forks(monkeypatch)
        built = []
        real_chunks = sweeps_mod._chunks

        def chunks(spec, parts):
            # fail before building a chunk per requested worker
            assert parts <= 2, parts
            built.append(parts)
            return real_chunks(spec, parts)

        monkeypatch.setattr(sweeps_mod, "_chunks", chunks)
        acc, summary = fold_sweep(
            SweepSpec("trees", 2, 3),
            self._chunk_graphs,
            operator.add,
            list,
            workers=10**9,
        )
        # residues 0 and 1 of each order: the second holds no tree
        assert acc == [("A_",), (), ("Bo",), ()] and summary.visited == 2
        assert built == [2] and len(forks) == 2


_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _run_python(code, timeout=60):
    """Run ``code`` in a fresh interpreter in its own process group with the
    package on its path; the whole group is killed if it outlives
    ``timeout`` seconds.  Returns (exit code, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(code)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"timed out after {timeout} s")
    return proc.returncode, out, err


class TestWorkerLifecycle:
    def test_cli_import_leaves_out_multiprocessing(self):
        code, out, err = _run_python(
            "import sys, distinv.cli; print('multiprocessing' in sys.modules)"
        )
        assert (code, out, err) == (0, "False\n", "")

    def test_killed_worker_ends_the_sweep(self):
        # every worker SIGKILLs itself on its first chunk; the parent must
        # raise SweepError within the time limit and leave no child behind
        code, out, err = _run_python(
            """
            import operator, os, signal
            from distinv.sweeps import SweepError, SweepSpec, fold_sweep

            os.cpu_count = lambda: 2
            parent = os.getpid()

            def fold(acc, graphs):
                if os.getpid() != parent:
                    os.kill(os.getpid(), signal.SIGKILL)
                return acc + sum(1 for _ in graphs)

            try:
                fold_sweep(SweepSpec("connected_graphs", 3, 5), fold, operator.add, int, workers=2)
            except SweepError as exc:
                print(exc)
            try:
                print(os.waitpid(-1, os.WNOHANG))
            except ChildProcessError:
                print("no child")
            """
        )
        assert code == 0 and err == ""
        message, children = out.splitlines()
        assert re.fullmatch(r"sweep worker \d+ died with exit status -9", message)
        assert children == "no child"

    @staticmethod
    def _error(spec, fold, workers):
        with pytest.raises(SweepError) as info:
            fold_sweep(spec, fold, operator.add, int, workers=workers)
        return type(info.value), str(info.value)

    def test_child_error_is_the_one_worker_error(self, monkeypatch):
        # a graph of the second half of order 5's masks, which the second
        # child folds: the same error, naming the same graph, as one worker
        monkeypatch.setattr(sweeps_mod.os, "cpu_count", lambda: 2)
        target = emit_graph6(list(iter_sweep(SweepSpec("connected_graphs", 5, 5)))[700])

        def fold(acc, graphs):
            for g in graphs:
                if emit_graph6(g) == target:
                    raise ValueError("boom")
                acc += 1
            return acc

        spec = SweepSpec("connected_graphs", 3, 5)
        one = self._error(spec, fold, 1)
        assert one == (SweepVisitError, f"visitor failed on {target}: ValueError('boom')")
        assert self._error(spec, fold, 2) == one

    def test_child_stall_is_the_one_worker_stall(self, monkeypatch):
        # the stream's own error, unwrapped, from a child as from one worker
        monkeypatch.setattr(sweeps_mod.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(sweeps_mod, "_MAX_ATTEMPTS", 1)
        spec = SweepSpec("diameter2_graphs", 9, 10, sample_count=40, seed=5)
        one = self._error(spec, _count, 1)
        assert one == (SweepError, "sampling stalled")
        assert self._error(spec, _count, 2) == one

    def test_no_child_is_left_after_a_sweep_an_error_or_a_kill(self):
        # no child, running or zombie, after each way a forked sweep ends;
        # and no thread or multiprocessing module along the way
        code, out, err = _run_python(
            """
            import operator, os, signal, sys, threading
            from distinv.sweeps import SweepError, SweepSpec, fold_sweep

            os.cpu_count = lambda: 2
            parent = os.getpid()

            def count(acc, graphs):
                return acc + sum(1 for _ in graphs)

            def fails(acc, graphs):
                raise ValueError("boom")

            def killed(acc, graphs):
                if os.getpid() != parent:
                    os.kill(os.getpid(), signal.SIGKILL)
                return count(acc, graphs)

            for fold in (count, fails, killed):
                try:
                    print(fold_sweep(SweepSpec("trees", 2, 9), fold, operator.add, int, workers=2)[0])
                except SweepError as exc:
                    print(type(exc).__name__)
                try:
                    print(os.waitpid(-1, os.WNOHANG))
                except ChildProcessError:
                    print("no child")
            print("multiprocessing" in sys.modules, threading.active_count())
            """
        )
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "94", "no child", "SweepVisitError", "no child", "SweepError", "no child",
            "False 1",
        ]

    def test_unpicklable_error_ends_in_sweep_error(self):
        # an error the child cannot pickle, and one the parent could not
        # unpickle, each become a SweepError carrying its repr
        code, out, err = _run_python(
            """
            import operator, os
            from distinv.sweeps import SweepError, SweepSpec, SweepVisitError, fold_sweep

            os.cpu_count = lambda: 2

            class TwoArgs(SweepVisitError):
                def __init__(self, a, b):
                    super().__init__(a)

            def local():
                class Local(SweepVisitError):
                    pass
                return Local

            for error in (local()("local"), TwoArgs("two", 2)):
                def fold(acc, graphs):
                    raise error

                try:
                    fold_sweep(SweepSpec("trees", 2, 9), fold, operator.add, int, workers=2)
                except SweepError as exc:
                    print(type(exc).__name__, exc)
            """
        )
        assert (code, err) == (0, "")
        local, two = out.splitlines()
        assert re.fullmatch(r"SweepError sweep worker \d+ failed: Local\('local'\)", local)
        assert re.fullmatch(r"SweepError sweep worker \d+ failed: TwoArgs\('two'\)", two)

    def test_killed_worker_is_exit_2_from_the_cli(self):
        code, out, err = _run_python(
            """
            import dataclasses, os, signal
            from distinv import cli, theorems

            os.cpu_count = lambda: 2
            parent = os.getpid()
            claim = theorems.CLAIMS["P2.4"]

            def predicate(g, rep, dist):
                if os.getpid() != parent:
                    os.kill(os.getpid(), signal.SIGKILL)
                return claim.predicate(g, rep, dist)

            theorems.CLAIMS["P2.4"] = dataclasses.replace(claim, predicate=predicate)
            argv = ["verify", "--sweep", "connected:3..5", "--theorems", "P2.4", "--workers", "2"]
            raise SystemExit(cli.main(argv))
            """
        )
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: sweep worker \d+ died with exit status -9\n", err)
