"""The package names the traced benchmark patches and calls.

``perfbench/spans.py``'s ``traced_theorems`` swaps ``theorems``'
``all_pairs_distances``, ``full_report``, ``emit_graph6``, ``fold_sweep``
and the ``UNARY_CHECKS`` entries for traced wrappers, and
``perfbench/layers.py`` calls ``full_report``, ``find_ud_certificate`` and
the unary checkers one graph at a time.  A rename or deletion of any of
these fails here, not first in a benchmark run.  Nothing under
``perfbench/`` is written.
"""

import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

from spans import Tracer, traced_theorems  # noqa: E402
from workloads import ALL_UNARY  # noqa: E402

from distinv import graphs, invariants, sweeps, theorems, ud  # noqa: E402

IDS = ["T3.1", "T3.3", "L4.1"]


def test_traced_hunt_matches_the_plain_hunt():
    spec = sweeps.parse_sweep_spec("trees:2..9")
    plain = theorems.hunt(spec, IDS)
    saved = {
        name: getattr(theorems, name)
        for name in ("all_pairs_distances", "full_report", "emit_graph6", "fold_sweep")
    }
    tracer = Tracer("hooks")
    with traced_theorems(tracer, theorems, ALL_UNARY):
        traced = theorems.hunt(spec, IDS, workers=1)
    assert [r.to_json_dict() for r in traced] == [r.to_json_dict() for r in plain]
    # T3.3's counterexample, the 1+6 double star, takes the per-graph path
    assert [r.theorem_id for r in plain if r.counterexamples] == ["T3.3"]
    for name in (
        "sweeps.fold_sweep",
        "theorems.hunt.fold",
        "graphs.all_pairs_distances",
        "invariants.full_report",
        "graphs.emit_graph6",
    ):
        assert tracer.find(name), name
    assert {name: getattr(theorems, name) for name in saved} == saved


def test_layer_calls():
    spec = sweeps.parse_sweep_spec("trees:2..9")
    g6 = [graphs.emit_graph6(g) for g in sweeps.iter_sweep(spec)]
    hits = dict.fromkeys(ALL_UNARY, 0)
    for line in g6:
        g = graphs.parse_graph6(line)
        d = graphs.all_pairs_distances(g)
        r = invariants.full_report(g, d)
        assert r == invariants.full_report(g)
        assert ud.find_ud_certificate(g, d) == ud.find_ud_certificate(g)
        for tid in ALL_UNARY:
            verdict = theorems.UNARY_CHECKS[tid](g, rep=r, dist=d, detail=False)
            hits[tid] += verdict.hypothesis_met
    assert len(g6) == 1 + 1 + 2 + 3 + 6 + 11 + 23 + 47
    assert hits["T3.1"] > 0 and hits["L4.1"] == len(g6)
