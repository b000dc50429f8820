"""Exhaustive and randomized graph sweeps.

Three sweep targets feed the predicate checkers:

* ``connected_graphs`` - every labeled simple connected graph on n vertices,
  by scanning all 2^(n(n-1)/2) edge subsets (n <= 8; n = 8 is allowed but
  slow).  An edge subset is a pair mask in the pair order of
  ``graphs._rows_from_pairs``, which the sampler and graph6 share.  The scan
  takes 1,024 consecutive masks at a time (all of them below 10 pairs), mask
  ``base + k`` in lane ``k`` (the kernel's ``Lanes``, 16 bits for n <= 8)
  of one int per adjacency row: each row is the codec's rows of ``k``,
  decoded once per scan, or'ed with those of ``base`` spread to every lane.
  Connectivity is a closure from vertex 0 over all lanes at once, at most
  n - 1 rounds of ``reach |= row[u]`` in the lanes whose reach holds u.  The
  lanes whose reach is full are kept in mask order (``Block.keep``, which
  gathers them from the rows), one block per window, compacted and not
  re-buffered to ``LANE_BLOCK`` lanes.
* ``trees`` - one representative per isomorphism class of free trees
  (2 <= n <= 18), generated through canonical level sequences with a
  constant-amortized-time successor rule, ``LANE_BLOCK`` sequences at a
  time.  A block's adjacency rows are built in every lane at once: vertex
  i's parent is the latest vertex one level up, found by scanning down
  with a lane-wise equality test.  From the level columns and those parents
  a tree block gives the kernel each vertex's eccentricity, transmission
  and eccentric set in closed form, with no BFS, and its parent edges, over
  which the kernel sums xic and E2 (``_TreeBlock``).
* ``diameter2_graphs`` - random connected graphs of diameter exactly 2 by
  rejection sampling from G(n, p).  Attempts cycle p over {0.3, 0.5, 0.7},
  samples do not: ``diam2:n=9..12,count=2000,seed=5`` keeps 8 of 2,901
  p = 0.3 attempts, 1,973 of 5,561 at 0.5 and 6,019 of 6,252 at 0.7.

Randomness is a pure counter-based function so streams are reproducible
across runs, worker counts, and reimplementations:

    mix64(x): x ^= x >> 30; x *= 0xBF58476D1FE4E57B; x ^= x >> 27;
              x *= 0x94D049BB133111EB; x ^= x >> 31   (all mod 2^64)
    rand64(key, counter) = mix64(key + counter * 0x9E3779B97F4A7C15)
    key(seed, n)         = mix64(seed XOR mix64(n * 0x9E3779B97F4A7C15))

Sample ``i``, attempt ``j`` draws pair ``e`` from counter
``(i * 2^21 + j) * 2^13 + e``; the pair is an edge iff
``rand64 < floor(p_num * 2^64 / p_den)`` for the attempt's probability
``p = cycle[(i + j) mod 3]``.  With the seed in 0..2^64 - 1, i < 2^30,
j < 2^21 and e < 2^13, distinct draws of a stream never share a counter, and
distinct seeds never share a key.

The sampler runs rounds over blocks of up to 1,024 consecutive samples of a
chunk: round j draws attempt j of every sample not yet accepted (``_draw``
mixes many attempts' pairs per int, grouped by p), puts one attempt in each
lane of adjacency rows of the lane kernel's width, and tests every lane at
once: the closed 2-neighbourhood of each vertex is full, and some pair is not
adjacent.  A block of samples yields one ``Block`` of its accepted graphs in
sample order; a sample with no accepted attempt among ``_MAX_ATTEMPTS``
raises ``SweepError("sampling stalled")`` after the ``Block`` of the samples
before it, as one attempt at a time would.

Sweeps partition into chunks (edge-mask ranges, residues of tree blocks,
sample-index ranges) that merge associatively, so worker count never changes
a result.  A chunk is one order and one stream of graphs, filtered and
counted in one place: a filter is a kernel gate (``FILTERS``) evaluated on
each generator block, whose ``keep`` makes the block of the kept lanes.
Every walk over a sweep reads these streams (the enumerators above are
``iter_sweep`` over one order, and ``fold_sweep`` states the contract), and
``SweepSpec.validate`` is the only bound check.
Each generator yields lane-kernel ``Block``s of its own rows, which build a
``Graph`` only for a lane whose ``graph(j)`` is called.  A stream has two
views of them: its ``blocks()`` yields them, and iterating it yields their
``Graph``s one at a time.
Parallel execution forks (``os.fork``, a pipe per child): POSIX only.
"""

from __future__ import annotations

import gc
import itertools
import os
import time
from dataclasses import dataclass

from .graphs import Graph, GraphError, _rows_from_pairs, emit_graph6
from .invariants import LANE_BLOCK, Block, Lanes, gate_words

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1FE4E57B
_MIX_B = 0x94D049BB133111EB

_DIAM2_P = ((3, 10), (5, 10), (7, 10))
_DIAM2_THRESH = tuple((num << 64) // den for num, den in _DIAM2_P)
_MAX_ATTEMPTS = 10**6
# samples drawn together, and bytes of 128-bit lanes mixed at a time
_SAMPLE_BLOCK = 1024
_DRAW_BYTES = 1 << 14
# the sample index fills counter bits 34..63, so index 2^30 would repeat 0
_MAX_SAMPLES = 1 << 30
_SAMPLER_MAX_N = 128

TREE_MIN_N, TREE_MAX_N = 2, 18
CONNECTED_MAX_N = 8


class SweepError(GraphError):
    """Invalid sweep parameters or a stalled sampler."""


class SweepVisitError(SweepError):
    """A fold raised; the message carries the graph6 of the graph in hand."""


def mix64(x: int) -> int:
    x &= _M64
    x ^= x >> 30
    x = (x * _MIX_A) & _M64
    x ^= x >> 27
    x = (x * _MIX_B) & _M64
    x ^= x >> 31
    return x


def rand64(key: int, counter: int) -> int:
    """Counter-addressable 64-bit value; pure function of its arguments."""
    return mix64((key + counter * _GOLDEN) & _M64)


def _stream_key(seed: int, n: int) -> int:
    return mix64((seed & _M64) ^ mix64((n * _GOLDEN) & _M64))


# ---------------------------------------------------------------------------
# exhaustive enumeration


def enumerate_connected_graphs(n: int):
    """Every connected simple graph on n labeled vertices, exactly once."""
    return iter_sweep(SweepSpec("connected_graphs", n, n))


def _connected_graphs_range(n, lo, hi):
    # masks in blocks of 2^b, b = min(pairs, 10): mask base + j sits in lane
    # j of each row, which is row j's lane or'ed with base's rows; one Block
    # of each window's connected lanes, in mask order
    lanes = Lanes(n, 1 << min(n * (n - 1) // 2, 10))
    k, width, lane, ones = lanes.k, lanes.width, lanes.lane, lanes.ones
    low = [lanes.pack(col) for col in zip(*(_rows_from_pairs(n, j) for j in range(k)))]
    for base in range(lo & -k, hi, k):
        rows = [r | ones * h for r, h in zip(low, _rows_from_pairs(n, base))]
        # closure from vertex 0: each round adds the rows of reached vertices
        reach = ones
        for _ in range(n - 1):
            before = reach
            for u, row in enumerate(rows):
                reach |= row & ((reach >> u) & ones) * lane
            if reach == before:
                break
        # lane j is kept iff its reach is full, so adding 1 carries into bit
        # n, and lo <= base + j < hi
        first, end = width * max(lo - base, 0), width * min(hi - base, k)
        ok = ((reach + ones) >> n) & ones & ((1 << end) - (1 << first))
        if not ok:
            continue
        yield Block(n, k, rows).keep(lanes.unpack(ok))


def enumerate_trees(n: int):
    """One representative of every free tree on n vertices.

    Trees are produced from canonical rooted level sequences in decreasing
    lexicographic order, keeping exactly the height-balanced rootings that
    represent each free tree once.
    """
    return iter_sweep(SweepSpec("trees", n, n))


def _tree_levels(n):
    # every canonical level sequence of a free tree on n vertices, in sweep
    # order; no yielded list is changed afterwards
    levels = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while levels is not None:
        levels = _free_canonical_or_jump(levels)
        if levels is None:
            break
        yield levels
        levels = _rooted_successor(levels)


def _level_blocks(n, r, k):
    # blocks r, r + k, ... of LANE_BLOCK consecutive level sequences of order n
    levels = _tree_levels(n)
    blocks = iter(lambda: list(itertools.islice(levels, LANE_BLOCK)), [])
    return itertools.islice(blocks, r, None, k)


def _rooted_successor(levels, pos=None):
    # successor of a canonical rooted level sequence in decreasing
    # lexicographic order: chop at pos, then repeat the block that starts at
    # the chopped vertex's parent
    if pos is None:
        pos = len(levels) - 1
        while levels[pos] == 1:
            pos -= 1
    if pos == 0:
        return None
    anchor = pos - 1
    while levels[anchor] != levels[pos] - 1:
        anchor -= 1
    out = list(levels)
    period = pos - anchor
    for i in range(pos, len(out)):
        out[i] = out[i - period]
    return out


def _first_end(levels):
    # the end of the root's first subtree: its second level-1 vertex, if any
    try:
        return levels.index(1, 2)
    except ValueError:
        return len(levels)


def _free_canonical_or_jump(levels):
    # a rooted sequence represents a free tree iff the first root subtree
    # (the vertices 1..cut - 1, one level lower seen from its own root) is no
    # taller, no bigger, and no later lexicographically than the rest (the
    # root and the vertices from cut on); otherwise skip straight to the next
    # sequence satisfying that.  The subtrees are copied only on a tie
    cut = _first_end(levels)
    h_first = max(levels[1:cut]) - 1
    h_rest = max(levels[cut:], default=0)
    if h_rest > h_first:
        return levels
    if h_rest == h_first:
        size, rest = cut - 1, len(levels) - cut + 1
        if size < rest or (
            size == rest and [lev - 1 for lev in levels[1:cut]] <= [0] + levels[cut:]
        ):
            return levels
    pos = cut - 1
    nxt = _rooted_successor(levels, pos)
    if levels[pos] > 2:
        tail = list(range(1, max(nxt[1 : _first_end(nxt)]) + 1))
        nxt[len(nxt) - len(tail) :] = tail
    return nxt


def _tree_block(n, levels):
    # the trees of the level sequences as one lane block of order n, built in
    # every lane at once: vertex i's parent is the latest j < i one level up,
    # so j scans downward, and each lane whose level j equals that one takes
    # edge ij and leaves the scan
    lanes = Lanes(n, len(levels))
    ones, zero = lanes.ones, lanes.zero
    cols = [lanes.pack(col) for col in zip(*levels)]
    rows = [0] * n
    hits = []
    for i in range(1, n):
        up = cols[i] - ones  # the parent's level in every lane, as levels[i] >= 1
        todo = ones
        j = i
        while todo:
            j -= 1
            hit = todo & zero(cols[j] ^ up)
            if hit:
                rows[i] |= hit << j
                rows[j] |= hit << i
                todo ^= hit
                hits.append((i, j, hit))
    return _TreeBlock(n, lanes.k, rows, levels, cols, hits)


class _TreeBlock(Block):
    """A block of ``_tree_levels``' trees, which keeps its level sequences
    (``keep`` builds the tree block of the kept ones), their columns and the
    parent scan's ``(i, j, hit)`` (its ``edges()``), vertex i's parent being
    j in the lanes of ``hit``, and from them computes the kernel's per-source
    sums lane-wise, with no BFS.  The root is a centre, and the first root
    subtree (the vertices before the second level-1 vertex) reaches the
    largest level H: the sequence is centre-rooted (Wright, Richmond,
    Odlyzko and McKay, SIAM J. Comput. 15, 1986).  The tree is bicentral iff
    no vertex outside the first subtree has level H.  Then:

    * ecc(v) = level(v) + H - [bicentral and v in the first subtree];
    * Tr(root) = sum of the levels, and Tr(c) = Tr(parent) + n - 2 size(c)
      with size(c) the order of c's subtree (Wiener 1947);
    * far(root) is every level-H vertex, and far(u) every level-H vertex
      outside u's root branch, and in a bicentral tree for u in the first
      subtree every level-(H - 1) vertex outside it instead.
    """

    __slots__ = ("_levels", "_cols", "_hits")

    def __init__(self, n, k, rows, levels, cols, hits):
        super().__init__(n, k, rows)
        self._levels, self._cols, self._hits = levels, cols, hits

    def sums(self):
        n, cols = self.n, self._cols
        lanes = Lanes(n, self.k)
        lane, ones, zero, larger = lanes.lane, lanes.ones, lanes.zero, lanes.max
        # the largest level, and the first subtree's vertices in each lane;
        # each root branch starts at a level-1 vertex
        starts = [zero(c ^ ones) for c in cols]
        h = ones
        first = [0, ones]
        for c, start in zip(cols[2:], starts[2:]):
            h = larger(h, c)
            first.append(first[-1] & ~start)
        inside = sum(f << v for v, f in enumerate(first))
        tops = sum(zero(c ^ h) << v for v, c in enumerate(cols))
        bicentral = zero(tops & ~inside)
        ecc = [c + h - (f & bicentral) for c, f in zip(cols, first)]
        depth = max(lanes.unpack(2 * h - bicentral))

        parents = [(i, j, hit * lane) for i, j, hit in self._hits]
        size = [ones] * n
        for i, j, mask in reversed(parents):
            size[j] += size[i] & mask
        # a lane of n - 2 size(c) may be negative, but the packed sums are
        # exact and each lane ends at Tr(c) >= 0 once Tr(parent) is added
        tr = [sum(cols)] + [n * ones - 2 * s for s in size[1:]]
        for i, j, mask in parents:
            tr[i] += tr[j] & mask

        # the level-H vertices before u's root branch, then those after it
        far = [tops]
        before = after = 0
        for u in range(1, n):
            below = tops & ones * ((1 << u) - 1)
            before ^= (before ^ below) & starts[u] * lane
            far.append(before)
        for u in range(n - 1, 0, -1):
            far[u] |= after
            after ^= (after ^ (tops & ~(ones * ((1 << u) - 1)))) & starts[u] * lane
        # in a bicentral tree the first subtree's far side is the other
        # centre's: its level-(H - 1) vertices
        near = sum(zero(c + ones ^ h) << v for v, c in enumerate(cols)) & ~inside
        for u in range(1, n):
            far[u] |= near & (first[u] & bicentral) * lane
        return ecc, tr, far, depth

    def edges(self):
        return self._hits

    def keep(self, flags):
        return _tree_block(self.n, list(itertools.compress(self._levels, flags)))


# ---------------------------------------------------------------------------
# diameter-2 rejection sampling


def sample_diameter2_graphs(n: int, count: int, seed: int):
    """``count`` connected diameter-2 graphs of order n, seeded."""
    return iter_sweep(
        SweepSpec("diameter2_graphs", n, n, sample_count=count, seed=seed)
    )


def _diam2_stream(seed, n, lo, hi):
    # one Block per block of samples; round j draws attempt j of every sample
    # still pending
    key = _stream_key(seed, n)
    pairs = _pair_list(n)
    consts = _draw_consts(n)
    for first in range(lo, hi, _SAMPLE_BLOCK):
        lanes = [None] * (min(first + _SAMPLE_BLOCK, hi) - first)
        pending = range(first, first + len(lanes))
        for attempt in range(_MAX_ATTEMPTS):
            if not pending:
                break
            # one draw per p = cycle[(i + attempt) mod 3]; pair e of sample i
            # draws counter i * 2^34 + attempt * 2^13 + e
            counter = attempt << 13
            groups = ([], [], [])
            for i in pending:
                groups[(i + attempt) % 3].append(i)
            hits = b"".join(
                _draw(consts, [(key + (i << 34 | counter) * _GOLDEN) & _M64 for i in g], k)
                for k, g in enumerate(groups)
            )
            order = groups[0] + groups[1] + groups[2]
            kept = _diam2_lanes(n, pairs, hits, len(order))
            pending = [i for i, g in zip(order, kept) if g is None]
            for i, g in zip(order, kept):
                lanes[i - first] = g
        if pending:
            if min(pending) > first:
                yield Block.of(n, lanes[: min(pending) - first])
            raise SweepError("sampling stalled")
        yield Block.of(n, lanes)


def _pair_list(n):
    # pair e = v(v - 1)/2 + u is (u, v), u < v: the order of _rows_from_pairs
    return [(u, v) for v in range(1, n) for u in range(v)]


def _draw_consts(n):
    # _draw's constants, once per stream, one tuple per p: the pairs P, the
    # attempts per int, and ints of that many attempts' lanes: 2^64 - 1,
    # pair e's e * golden mod 2^64, and p's limit
    pairs = n * (n - 1) // 2
    per = max(1, _DRAW_BYTES // (16 * pairs))
    lanes = [_M64.to_bytes(16, "little") * pairs]
    lanes.append(b"".join((e * _GOLDEN & _M64).to_bytes(16, "little") for e in range(pairs)))
    lanes += [((1 << 64) + t - 1).to_bytes(16, "little") * pairs for t in _DIAM2_THRESH]
    low64, base, *limits = (int.from_bytes(lane * per, "little") for lane in lanes)
    return [(pairs, per, low64, base, limit) for limit in limits]


def _draw(consts, starts, p_index):
    """One 0/1 byte per pair per attempt, attempt by attempt: byte a * P + e
    is 1 iff mix64(starts[a] + e * golden) < _DIAM2_THRESH[p_index], where
    ``consts = _draw_consts(n)`` holds the P pairs' lanes.

    Pair e of attempt a sits in the 128-bit lane a * P + e of an int of about
    16 kB: shifts are masked to each lane's low 64 bits and products stay
    below 2^128, so no lane spills into the next.  With limit = 2^64 +
    threshold - 1, limit - x lies in [threshold, 2^64 + threshold), and its
    bit 64, alone in byte 8 of the lane, is x < threshold.
    """
    pairs, per, low64, base, limit = consts[p_index]
    out = []
    for a in range(0, len(starts), per):
        chunk = starts[a : a + per]
        if len(chunk) < per:  # the last slice: fewer lanes
            cut = (1 << 128 * pairs * len(chunk)) - 1
            base &= cut
            limit &= cut
        spread = b"".join(s.to_bytes(16, "little") * pairs for s in chunk)
        x = (base + int.from_bytes(spread, "little")) & low64
        x ^= x >> 30 & low64
        x = x * _MIX_A & low64
        x ^= x >> 27 & low64
        x = x * _MIX_B & low64
        x ^= x >> 31 & low64
        out.append((limit - x).to_bytes(16 * pairs * len(chunk), "little")[8::16])
    return b"".join(out)


def _diam2_lanes(n, pairs, hits, k):
    # the k attempts of _draw's bytes, attempt a in lane a of each row (the
    # lane kernel's width), as row tuples or None: a lane is kept iff every
    # pair is adjacent or has a common neighbour, and some pair is not adjacent
    lanes = Lanes(n, k)
    stride = lanes.width // 8
    buf = bytearray(stride * k)
    rows = [0] * n
    count = len(pairs)
    for e, (u, v) in enumerate(pairs):
        buf[::stride] = hits[e::count]
        col = int.from_bytes(buf, "little")
        rows[u] |= col << v
        rows[v] |= col << u
    ones, full, nonzero = lanes.ones, lanes.full, lanes.nonzero
    # u > v is within distance 2 of v iff row u meets N[v] = row v | v.  A
    # lane of spare is nonzero iff its graph is not complete
    good = ones
    spare = 0
    for v, rv in enumerate(rows):
        closed = rv | ones << v
        spare |= full ^ closed
        for ru in rows[v + 1 :]:
            good &= nonzero(ru & closed)
        if not good:
            return [None] * k
    good &= nonzero(spare)
    if not good:
        return [None] * k
    cols = map(lanes.unpack, rows)
    return [g if ok else None for ok, g in zip(lanes.unpack(good), zip(*cols))]


# ---------------------------------------------------------------------------
# sweep specs and the parallel fold


# each filter is a kernel gate, as a claim's: a sweep keeps the graphs it holds on
FILTERS = {
    "self_centered": (("self_centered", "==", 1),),
    "non_self_centered": (("self_centered", "==", 0),),
    "min_degree_2": (("min_degree", ">=", 2),),
}

_TARGETS = ("connected_graphs", "trees", "diameter2_graphs")


@dataclass(frozen=True, slots=True)
class SweepSpec:
    """Declarative sweep description; parse with :func:`parse_sweep_spec`."""

    target: str
    n_min: int
    n_max: int
    sample_count: int = 0
    seed: int = 0
    filter_name: str | None = None

    def validate(self) -> None:
        if self.target not in _TARGETS:
            raise SweepError(f"unknown sweep target {self.target!r}")
        if self.n_min > self.n_max:
            raise SweepError(f"empty order range {self.n_min}..{self.n_max}")
        if self.filter_name is not None and self.filter_name not in FILTERS:
            raise SweepError(f"unknown filter {self.filter_name!r}")
        if self.target == "connected_graphs":
            if not 1 <= self.n_min or self.n_max > CONNECTED_MAX_N:
                raise SweepError("exhaustive connected sweep needs 1 <= n <= 8")
        elif self.target == "trees":
            if not TREE_MIN_N <= self.n_min or self.n_max > TREE_MAX_N:
                raise SweepError("exhaustive tree sweep needs 2 <= n <= 18")
        else:
            if not 1 <= self.sample_count <= _MAX_SAMPLES:
                raise SweepError("random sweep needs 1 <= count <= 2^30")
            if not 0 <= self.seed <= _M64:
                raise SweepError("random sweep needs 0 <= seed <= 2^64 - 1")
            if self.n_min < 3 or self.n_max > _SAMPLER_MAX_N:
                raise SweepError("diameter-2 sweep needs 3 <= n <= 128")

    def __str__(self) -> str:
        tag = {"connected_graphs": "connected", "trees": "trees"}.get(self.target)
        if tag:
            text = f"{tag}:{self.n_min}..{self.n_max}"
        else:
            text = (
                f"diam2:n={self.n_min}..{self.n_max},"
                f"count={self.sample_count},seed={self.seed}"
            )
        if self.filter_name:
            text += f",filter={self.filter_name}"
        return text


def parse_sweep_spec(text: str) -> SweepSpec:
    """Parse ``trees:2..12``, ``connected:3..7`` or
    ``diam2:n=9..12,count=100000,seed=7`` (optionally ``,filter=NAME``)."""
    head, _, rest = text.strip().partition(":")
    head = head.strip()
    if head in ("trees", "connected"):
        parts = rest.split(",") if rest else []
        if not parts or not parts[0]:
            raise SweepError(f"missing order range in sweep spec {text!r}")
        n_min, n_max = _parse_range(parts[0], text)
        filter_name = _parse_filter(parts[1:], text)
        target = "trees" if head == "trees" else "connected_graphs"
        spec = SweepSpec(target, n_min, n_max, filter_name=filter_name)
    elif head == "diam2":
        kv = {}
        extras = []
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            if not eq:
                raise SweepError(f"bad sweep option {item!r} in {text!r}")
            key = key.strip()
            if key in kv:
                raise SweepError(f"repeated sweep option {key!r} in {text!r}")
            if key == "filter":
                extras.append(item)
            else:
                kv[key] = val.strip()
        if "n" not in kv or "count" not in kv:
            raise SweepError(f"diam2 sweep needs n= and count= in {text!r}")
        n_min, n_max = _parse_range(kv.pop("n"), text)
        try:
            count = int(kv.pop("count"))
            seed = int(kv.pop("seed", "0"))
        except ValueError:
            raise SweepError(f"bad integer in sweep spec {text!r}") from None
        if kv:
            raise SweepError(f"unknown sweep option(s) {sorted(kv)} in {text!r}")
        spec = SweepSpec(
            "diameter2_graphs",
            n_min,
            n_max,
            sample_count=count,
            seed=seed,
            filter_name=_parse_filter(extras, text),
        )
    else:
        raise SweepError(f"unknown sweep target in {text!r}")
    spec.validate()
    return spec


def _parse_range(token: str, context: str) -> tuple[int, int]:
    token = token.strip()
    try:
        if ".." in token:
            lo, hi = token.split("..")
            return int(lo), int(hi)
        n = int(token)
        return n, n
    except ValueError:
        raise SweepError(f"bad order range {token!r} in {context!r}") from None


def _parse_filter(items, context) -> str | None:
    name = None
    for item in items:
        key, eq, val = item.partition("=")
        if key.strip() != "filter" or not eq:
            raise SweepError(f"bad sweep option {item!r} in {context!r}")
        if name is not None:
            raise SweepError(f"repeated sweep option 'filter' in {context!r}")
        name = val.strip()
    return name


@dataclass(frozen=True, slots=True)
class SweepSummary:
    """Counts from one sweep run; identical for any worker count."""

    visited: int
    filtered: int
    elapsed: float


def _chunks(spec: SweepSpec, parts: int):
    out = []
    for n in range(spec.n_min, spec.n_max + 1):
        if spec.target == "trees":
            out.extend(("mod", n, r, parts) for r in range(parts))
            continue
        if spec.target == "connected_graphs":
            kind, total = "mask", 1 << (n * (n - 1) // 2)
        else:
            kind, total = "range", spec.sample_count
        step = -(-total // parts)
        for lo in range(0, total, step):
            out.append((kind, n, lo, min(lo + step, total)))
    return out


class _Tally:
    """What one chunk's stream handed out, dropped and raised: ``block`` is
    the block it handed out last, and lane ``j`` of it the graph."""

    visited = filtered = j = 0
    block = error = None

    def named(self):
        """The graph handed out last, None before the first."""
        return None if self.block is None else self.block.graph(self.j)


class _Stream:
    """One chunk's graphs, all of one order, with the sweep's filter
    applied, in two views of its generator's blocks: ``blocks()`` yields
    them, and iterating the stream yields their ``Graph``s one at a time,
    unpacked by ``block.graph(j)``.  A filter's gate runs in the lane kernel
    on each block (``gate_words``: no report, and no BFS for a gate over the
    rows' columns) and ``block.keep`` makes a block of the lanes where it
    holds: their rows gathered, their row tuples kept (the sampler's), or a
    tree block of their level sequences, which keeps the closed form.  A fold
    reads one view; the tally counts graphs either way."""

    def __init__(self, spec: SweepSpec, chunk, tally: _Tally):
        self._tally = tally
        kind, n, a, b = chunk
        if kind == "mask":
            source = _connected_graphs_range(n, a, b)
        elif kind == "mod":
            source = (_tree_block(n, levels) for levels in _level_blocks(n, a, b))
        else:
            source = _diam2_stream(spec.seed, n, a, b)
        self._blocks = self._filtered(source, FILTERS.get(spec.filter_name))
        self._graphs = self._graph_view()

    def __iter__(self):
        return self

    def __next__(self):
        return next(self._graphs)

    def _filtered(self, source, gate):
        tally = self._tally
        try:
            for block in source:
                if gate is not None:
                    flags = gate_words(block, [gate])
                    tally.filtered += block.k - sum(flags)
                    if not any(flags):
                        continue
                    block = block.keep(flags)
                yield block
        except Exception as exc:  # the stream's own error, not the fold's
            tally.error = exc
            raise

    def _graph_view(self):
        tally = self._tally
        for block in self._blocks:
            tally.block = block
            for j in range(block.k):
                tally.visited += 1
                tally.j = j
                yield block.graph(j)

    def blocks(self):
        """The chunk's graphs as lane blocks."""
        tally = self._tally
        for block in self._blocks:
            tally.visited += block.k
            tally.block, tally.j = block, block.k - 1
            yield block


def visit_error(g: Graph | None, exc: Exception) -> SweepVisitError:
    """The error a fold's failure ``exc`` on graph ``g`` becomes (``g`` is
    None before the first graph); raise it ``from exc``."""
    where = "no graph yet" if g is None else emit_graph6(g)
    return SweepVisitError(f"visitor failed on {where}: {exc!r}")


def _fold_chunk(spec, chunk, fold, zero):
    tally = _Tally()
    acc = zero()
    try:
        acc = fold(acc, _Stream(spec, chunk, tally))
    except SweepVisitError:
        raise  # the fold named the graph in hand itself
    except Exception as exc:
        if exc is tally.error:
            raise
        raise visit_error(tally.named(), exc) from exc
    return acc, tally.visited, tally.filtered


def _pool_size(workers: int, chunks: int) -> int:
    """Processes to fork: no more than asked for, chunks to run, or CPUs."""
    return max(1, min(workers, chunks, os.cpu_count() or 1))


def _fork_fold(spec, chunks, fold, zero, procs):
    # fold_sweep's forked branch: the partials of the chunks, in chunk order
    import pickle  # only a forked sweep pays for the imports
    import signal

    kids = []
    partials = [None] * len(chunks)
    try:
        gc.freeze()  # the children's collections skip the parent's objects
        for p in range(procs):
            r, w = os.pipe()
            if (pid := os.fork()) == 0:  # the child leaves only by os._exit
                try:
                    os.close(r)
                    try:
                        sent = True, [_fold_chunk(spec, c, fold, zero) for c in chunks[p::procs]]
                    except BaseException as exc:
                        sent = False, exc
                    try:
                        pickle.loads(data := pickle.dumps(sent))
                    except Exception as exc:  # an unpicklable error or partial
                        why = f"sweep worker {os.getpid()} failed: {exc if sent[0] else sent[1]!r}"
                        data = pickle.dumps((False, SweepError(why)))
                    with open(w, "wb") as pipe:
                        pipe.write(data)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(w)
            kids.append((pid, open(r, "rb")))
        for p in range(procs):
            pid, pipe = kids[0]
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del kids[0]
            if code or not data:
                raise SweepError(f"sweep worker {pid} died with exit status {code}")
            ok, sent = pickle.loads(data)
            if not ok:
                raise sent
            partials[p::procs] = sent
    finally:  # after an error: kill and reap the children left
        gc.unfreeze()
        for pid, pipe in kids:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return partials


def fold_sweep(spec: SweepSpec, fold, combine, zero, *, workers: int = 1):
    """Fold a function over every graph of a sweep, one chunk at a time.

    ``fold(acc, graphs) -> acc`` is called once per chunk with a fresh
    ``zero()`` and that chunk's stream; ``combine(acc, acc) -> acc`` merges
    chunk results in deterministic chunk order.  Returns
    ``(acc, SweepSummary)``.  The contract:

    * ``graphs`` is an iterator, never a list: a chunk can hold 2^28 masks;
      ``graphs.blocks()`` hands out the same graphs as lane ``Block``s
      instead, and a fold reads one of the two views;
    * every graph in one call has the same order;
    * the summary counts the graphs the stream handed out, so the fold must
      exhaust it;
    * if the fold raises, the error becomes
      ``SweepVisitError("visitor failed on <graph6>: <exc!r>")``, naming the
      graph the stream handed out last (``no graph yet`` before the first);
      a fold that reads ahead names the graph in hand itself by raising
      ``visit_error(g, exc)``, which passes through unchanged;
    * an error the stream raises itself, such as
      ``SweepError("sampling stalled")``, propagates unwrapped.

    Each order is cut into at most min(workers, CPUs) chunks.  To run more
    than one, the parent forks ``_pool_size`` children and folds nothing:
    child p folds chunks p, p + procs, ... (one of each order), pickles its
    partials or its error to a pipe and leaves by ``os._exit``.  The
    callables are inherited through the fork, so anything defined at call
    time works, but side effects stay in the children.  A child's error is
    raised unchanged (an unpicklable one as ``SweepError`` with its repr),
    and a child that dies, say OOM-killed, ends the sweep with
    ``SweepError`` naming its exit status; then the others are killed.
    """
    spec.validate()
    start = time.perf_counter()
    chunks = _chunks(spec, max(1, min(workers, os.cpu_count() or 1)))
    procs = _pool_size(workers, len(chunks))
    if procs <= 1:
        partials = [_fold_chunk(spec, c, fold, zero) for c in chunks]
    else:
        partials = _fork_fold(spec, chunks, fold, zero, procs)
    acc = zero()
    visited = 0
    filtered = 0
    for part, v, f in partials:
        acc = combine(acc, part)
        visited += v
        filtered += f
    return acc, SweepSummary(visited, filtered, time.perf_counter() - start)


def iter_sweep(spec: SweepSpec, blocks: bool = False):
    """All graphs of a sweep in canonical order, filter applied, or with
    ``blocks`` their lane blocks; the spec is validated when iteration
    starts."""
    spec.validate()
    tally = _Tally()
    for chunk in _chunks(spec, 1):
        stream = _Stream(spec, chunk, tally)
        yield from stream.blocks() if blocks else stream
