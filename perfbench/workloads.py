"""The four workloads: their CLI commands, inputs and output checks.

Every expected value here comes from outside distinv's code paths: OEIS
counts, the definition of the sweep, or networkx recomputing an invariant
from the graph6 text.  A workload's seed reaches the program only through
the inputs made from it (the diameter-2 sweep seed and the ingest file).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import networkx as nx

# OEIS A001187: connected labeled graphs on n nodes, n = 0..8.
CONNECTED_LABELED = (1, 1, 1, 4, 38, 728, 26704, 1866256, 251548592)
# OEIS A000055: free trees on n nodes, n = 0..18.
FREE_TREES = (
    1, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741,
    19320, 48629, 123867,
)  # fmt: skip

CHECK_HEADER = "theorem_id,graphs_visited,hypothesis_hits,counterexamples,equality_cases"
ALL_UNARY = (
    "P2.1", "C2.2", "T2.3", "P2.4", "T2.5", "P2.6", "T2.7", "C2.8i",
    "C2.8ii", "T3.1", "T3.2", "T3.3", "L4.1",
)  # fmt: skip

# The T3.3 counterexample: the order-9 double star with 1 + 6 leaves.
T33_COUNTEREXAMPLE = "HkaCCA?"

LABELED_ORDERS = (3, 6)
TREE_ORDERS = (2, 15)
DIAM2_ORDERS = (9, 12)
DIAM2_COUNT = 2000
INGEST_DIAM2_COUNT = 1000
INGEST_TREE_ORDERS = (2, 12)
INGEST_SAMPLE_ROWS = 40


@dataclass
class Step:
    """One CLI invocation of a workload iteration."""

    args: list[str]  # after ``distinv``
    expect_exit: int
    rows: int  # graphs checked or rows emitted
    check: Callable[[bytes, bytes], list[str]]  # (stdout, stderr) -> problems found
    reference_args: list[str] | None = None  # same output expected, e.g. other worker count


@dataclass
class Case:
    """A workload made concrete for one seed."""

    steps: list[Step]
    # in-process equivalents for the traced run: (sweep spec, claim ids)
    hunts: list[tuple[str, tuple[str, ...]]]
    workers: int
    ingest_file: Path | None = None


# ---------------------------------------------------------------------------
# independent recomputation with networkx


def nx_graph(g6: str):
    return nx.from_graph6_bytes(g6.encode("ascii"))


def nx_invariants(g6: str) -> dict:
    """n, m, diameter, Wiener index and first Zagreb eccentricity index."""
    g = nx_graph(g6)
    ecc = nx.eccentricity(g)
    return {
        "n": g.number_of_nodes(),
        "m": g.number_of_edges(),
        "diam": max(ecc.values()),
        "W": int(nx.wiener_index(g)),
        "E1": sum(e * e for e in ecc.values()),
    }


def nx_ud_certificate(g6: str) -> dict:
    """The UD certificate, from its definition and networkx distances.

    A diametrical pair (u, v) is universally diametrical when every other
    vertex w has ``max(d(w, u), d(w, v)) == ecc(w)``.  Pairs are scanned in
    lexicographic order; the first UD pair wins, otherwise each pair is
    listed with the first vertex that breaks it.
    """
    g = nx_graph(g6)
    n = g.number_of_nodes()
    d = dict(nx.all_pairs_shortest_path_length(g))
    ecc = {v: max(d[v].values()) for v in range(n)}
    diam = max(ecc.values()) if n else 0
    if n == 1:
        return {"diam": 0, "failures": [], "is_ud": True, "pair": None}
    failures = []
    for u in range(n):
        for v in range(u + 1, n):
            if d[u][v] != diam:
                continue
            breaker = next(
                (w for w in range(n) if w not in (u, v) and max(d[w][u], d[w][v]) != ecc[w]),
                None,
            )
            if breaker is None:
                return {"diam": diam, "failures": [], "is_ud": True, "pair": [u, v]}
            failures.append({"pair": [u, v], "witness": breaker})
    return {"diam": diam, "failures": failures, "is_ud": False, "pair": None}


# ---------------------------------------------------------------------------
# checks of `distinv verify` output


def parse_check_csv(stdout: bytes) -> dict:
    """theorem id -> (visited, hits, counterexamples, equality cases)."""
    lines = stdout.decode("utf-8").splitlines()
    if not lines or lines[0] != CHECK_HEADER:
        raise ValueError("missing or wrong CSV header")
    rows = {}
    for line in lines[1:]:
        tid, *nums = line.split(",")
        if len(nums) != 4 or tid in rows:
            raise ValueError(f"bad row {line!r}")
        rows[tid] = tuple(int(x) for x in nums)
    return rows


def verify_problems(
    stdout: bytes,
    stderr: bytes,
    *,
    ids,
    visited: int,
    hits: dict,
    counterexamples: dict,
    stderr_lines: list[str],
) -> list[str]:
    """Compare one `distinv verify` output against independent values.

    ``hits`` and ``counterexamples`` map a claim id to its exact expected
    count; ``counterexamples`` defaults to 0 for claims not named.
    ``stderr_lines`` is the exact expected stderr, line by line.
    """
    try:
        rows = parse_check_csv(stdout)
    except (ValueError, UnicodeDecodeError) as exc:
        return [f"stdout: {exc}"]
    problems = []
    if list(rows) != list(ids):
        problems.append(f"claims {list(rows)} != {list(ids)}")
    for tid, (v, h, c, _eq) in rows.items():
        if v != visited:
            problems.append(f"{tid}: graphs_visited {v} != {visited}")
        if h > v:
            problems.append(f"{tid}: hits {h} > visited {v}")
        if tid in hits and h != hits[tid]:
            problems.append(f"{tid}: hypothesis_hits {h} != {hits[tid]}")
        if c != counterexamples.get(tid, 0):
            problems.append(f"{tid}: counterexamples {c} != {counterexamples.get(tid, 0)}")
    got = stderr.decode("utf-8", "replace").splitlines()
    if got != stderr_lines:
        problems.append(f"stderr {got!r} != {stderr_lines!r}")
    return problems


def t33_stderr_line() -> str:
    """The stderr line the T3.3 counterexample must produce, from networkx."""
    tree = nx_graph(T33_COUNTEREXAMPLE)
    if not (nx.is_tree(tree) and tree.number_of_nodes() == 9):
        raise ValueError("T3.3 counterexample is not a 9-vertex tree")
    mine = nx_invariants(T33_COUNTEREXAMPLE)
    comp = nx.complement(tree)
    comp_ecc = nx.eccentricity(comp)
    detail = {
        "E1": mine["E1"],
        "E1_comp": sum(e * e for e in comp_ecc.values()),
        "W": mine["W"],
        "W_comp": int(nx.wiener_index(comp)),
        "disjunct": "complement",
        "n": 9,
    }
    return f"counterexample T3.3 {T33_COUNTEREXAMPLE} {json.dumps(detail, sort_keys=True)}"


# ---------------------------------------------------------------------------
# the workloads


def _labeled(seed, work_dir, run_cli) -> Case:
    lo, hi = LABELED_ORDERS
    spec = f"connected:{lo}..{hi}"
    visited = sum(CONNECTED_LABELED[lo : hi + 1])
    args = ["verify", "--sweep", spec, "--theorems", "all-unary"]
    # L4.1 holds for every connected graph; T2.5 and T3.3 need n >= 9
    hits = {"L4.1": visited, "T2.5": 0, "T3.3": 0}

    def check(out, err):
        return verify_problems(
            out, err, ids=ALL_UNARY, visited=visited, hits=hits,
            counterexamples={}, stderr_lines=[],
        )  # fmt: skip

    step = Step(args + ["--workers", "1"], 0, visited, check, args + ["--workers", "2"])
    return Case([step], [(spec, ALL_UNARY)], workers=1)


def _trees(seed, work_dir, run_cli) -> Case:
    lo, hi = TREE_ORDERS
    spec = f"trees:{lo}..{hi}"
    ids = ("T3.1", "T3.2", "T3.3", "L4.1")
    visited = sum(FREE_TREES[lo : hi + 1])
    args = ["verify", "--sweep", spec, "--theorems", ",".join(ids)]
    hits = {"T3.3": sum(FREE_TREES[9 : hi + 1]), "L4.1": visited}
    line = t33_stderr_line()

    def check(out, err):
        return verify_problems(
            out, err, ids=ids, visited=visited, hits=hits,
            counterexamples={"T3.3": 1}, stderr_lines=[line],
        )  # fmt: skip

    step = Step(args + ["--workers", "1"], 1, visited, check, args + ["--workers", "2"])
    return Case([step], [(spec, ids)], workers=1)


def diam2_spec(seed: int, count: int) -> str:
    lo, hi = DIAM2_ORDERS
    return f"diam2:n={lo}..{hi},count={count},seed={seed}"


def _diam2(seed, work_dir, run_cli) -> Case:
    spec = diam2_spec(seed, DIAM2_COUNT)
    ids = ("T2.3", "P2.4", "T2.5", "T2.7", "C2.8i", "C2.8ii")
    lo, hi = DIAM2_ORDERS
    visited = (hi - lo + 1) * DIAM2_COUNT
    args = ["verify", "--sweep", spec, "--theorems", ",".join(ids)]
    # every sample has diameter 2 and order >= 9 by the sweep's definition
    hits = {"P2.4": visited, "T2.5": visited}

    def check(out, err):
        return verify_problems(
            out, err, ids=ids, visited=visited, hits=hits,
            counterexamples={}, stderr_lines=[],
        )  # fmt: skip

    step = Step(args + ["--workers", "2"], 0, visited, check, args + ["--workers", "1"])
    return Case([step], [(spec, ids)], workers=2)


def _ingest(seed, work_dir, run_cli) -> Case:
    d2_spec = diam2_spec(seed, INGEST_DIAM2_COUNT)
    t_spec = "trees:{}..{}".format(*INGEST_TREE_ORDERS)
    lines = []
    for spec in (d2_spec, t_spec):
        run = run_cli(["enumerate", spec])
        if run.exit_code != 0:
            raise RuntimeError(f"distinv enumerate {spec} exited {run.exit_code}")
        lines.extend(run.stdout.decode("ascii").split())
    lo, hi = DIAM2_ORDERS
    expected = (hi - lo + 1) * INGEST_DIAM2_COUNT + sum(
        FREE_TREES[INGEST_TREE_ORDERS[0] : INGEST_TREE_ORDERS[1] + 1]
    )
    if len(lines) != expected:
        raise RuntimeError(f"ingest file has {len(lines)} graphs, expected {expected}")
    rng = random.Random(seed)
    rng.shuffle(lines)  # interleave orders and families
    path = work_dir / f"ingest-{seed}.g6"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    sample = sorted(rng.sample(range(len(lines)), INGEST_SAMPLE_ROWS))
    want_inv = {i: nx_invariants(lines[i]) for i in sample}
    want_ud = {i: nx_ud_certificate(lines[i]) for i in sample}
    rows = len(lines)

    def checker(want, source):
        def check(out, err):
            if err:
                return [f"stderr not empty: {err[:200]!r}"]
            try:
                got = [json.loads(x) for x in out.decode("utf-8").splitlines()]
            except (ValueError, UnicodeDecodeError) as exc:
                return [f"stdout: {exc}"]
            if len(got) != rows:
                return [f"{len(got)} rows != {rows}"]
            problems = []
            for j, expected in want.items():
                seen = {k: got[j].get(k) for k in expected}
                if seen != expected:
                    problems.append(f"row {j}: {seen} != {source} {expected}")
            return problems

        return check

    steps = [
        Step(["invariants", "--format", "json", str(path)], 0, rows, checker(want_inv, "nx")),
        Step(["ud", str(path)], 0, rows, checker(want_ud, "definition")),
    ]
    hunts = [(d2_spec, ALL_UNARY), (t_spec, ALL_UNARY)]
    return Case(steps, hunts, workers=1, ingest_file=path)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable  # (seed, work_dir, run_cli) -> Case


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "labeled-exhaustive",
            "verify connected:3..6 all-unary, 1 worker: small dense graphs, every "
            "layer on, claim and hunt bookkeeping dominate; bypasses the sampler",
            _labeled,
        ),
        Workload(
            "diam2-sampled",
            "verify diam2:n=9..12,count=2000,seed=<seed> six diameter-2 claims, 2 "
            "workers: the rejection sampler dominates; only forked fold; no L4.1",
            _diam2,
        ),
        Workload(
            "trees-complement",
            "verify trees:2..15 T3.1,T3.2,T3.3,L4.1, 1 worker: sparse long-diameter "
            "graphs, deep BFS, a dense complement per T3.3 tree; exit 1 expected",
            _trees,
        ),
        Workload(
            "graph6-ingest",
            "invariants --format json and ud on a seeded shuffled graph6 file of "
            "4000 diameter-2 samples and 986 trees: parse and per-row output; no sweep",
            _ingest,
        ),
    )
}
