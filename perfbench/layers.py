"""The traced run: per-layer numbers from in-process calls into each module.

Layers are the package modules.  ``families`` builds fixed constructions
and is on no sweep path, so it has no layer metric.

Every layer is applied to the workload's own graphs, also where the
workload's CLI command bypasses that layer (``graph6-ingest`` never runs a
claim; the verify workloads never parse graph6), so every metric exists on
every workload.  The mapping from layer metric to the end-to-end metric and
workload it should move is in README.md.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

from sampler import replay
from spans import Tracer, traced_theorems
from workloads import ALL_UNARY

REPEATS = 3  # turns of CLI, in-process and traced runs; medians are reported

LAYER_METRICS = (
    ("sweeps.generate_s", "s", "lower"),
    ("sweeps.graphs", "count", "higher"),
    ("sweeps.accept_ratio", "ratio", "higher"),
    ("sweeps.fold_parallel_efficiency", "ratio", "higher"),
    ("graphs.bfs_s", "s", "lower"),
    ("graphs.graph6_parse_s", "s", "lower"),
    ("graphs.graph6_emit_s", "s", "lower"),
    ("invariants.report_s", "s", "lower"),
    *((f"theorems.claim_s.{tid}", "s", "lower") for tid in ALL_UNARY),
    *((f"theorems.hit_rate.{tid}", "ratio", "higher") for tid in ALL_UNARY),
    ("theorems.hunt_self_s", "s", "lower"),
    ("ud.certificate_s", "s", "lower"),
    ("cli.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def load_package(root: Path):
    """Import the package from the checkout's ``src``."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import distinv

    return distinv


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _candidates(spec, graphs, problems: list) -> int:
    """Candidates the sweep's generator examined to yield ``graphs``.

    Connected sweeps scan every edge mask.  The tree generator has no
    rejection step.  The sampler's attempts are not reported by any public
    function, so they are counted by an independent replay of the documented
    stream, which also checks the samples graph for graph.
    """
    if spec.target == "connected_graphs":
        return sum(1 << (n * (n - 1) // 2) for n in range(spec.n_min, spec.n_max + 1))
    if spec.target == "trees":
        return len(graphs)
    attempts = 0
    replayed = []
    for n in range(spec.n_min, spec.n_max + 1):
        samples, tries = replay(n, spec.sample_count, spec.seed)
        attempts += tries
        replayed += samples
    if [sorted(g.edges()) for g in graphs] != replayed:
        problems.append(f"{spec}: samples differ from the documented stream")
    return attempts


def _hunt_self(tracer, batch_id) -> float:
    """Self time of hunt's own code in one batch of traced hunts.

    That is each ``theorems.hunt`` span, plus the fold and combine callbacks
    hunt hands to ``fold_sweep``; ``fold_sweep``'s own time (generation,
    chunking) belongs to the sweeps layer.
    """
    total = 0.0
    for hunt in tracer.find("theorems.hunt", parent=batch_id):
        total += hunt["self_s"]
        for fold in tracer.find("sweeps.fold_sweep", parent=hunt["id"]):
            for name in ("theorems.hunt.fold", "theorems.hunt.combine"):
                total += sum(r["self_s"] for r in tracer.find(name, parent=fold["id"]))
    return total


def traced_run(name, case, cli_stdout: bytes, root: Path, work_dir: Path, cli_iteration, record):
    """Run the traced measurement of one workload.

    ``cli_stdout`` is the checked output of the workload's first CLI step.
    ``cli_iteration()`` runs the workload's CLI steps once, untraced, checks
    them and returns their total wall time.  ``record(label, problems)``
    counts one checked outcome.  Returns ``(metrics, spans_path, notes)``;
    ``metrics`` maps a name to ``(value, unit)``.
    """
    pkg = load_package(root)
    graphs_mod = pkg.graphs
    sweeps = pkg.sweeps
    theorems = pkg.theorems
    tracer = Tracer(name)
    specs = [(sweeps.parse_sweep_spec(text), ids) for text, ids in case.hunts]

    lines = case.ingest_file.read_text(encoding="ascii").split() if case.ingest_file else []

    def hunts(workers):
        return [theorems.hunt(spec, ids, workers=workers) for spec, ids in specs]

    def ingest():
        for s in lines:
            pkg.invariants.full_report(graphs_mod.parse_graph6(s))
        for s in lines:
            pkg.ud.find_ud_certificate(graphs_mod.parse_graph6(s))

    with tracer.span("benchmark.traced_run"):
        # The untraced CLI, its in-process equivalent and the traced hunt
        # take turns, so drift in machine speed hits every side of
        # cli.overhead_s and trace.overhead_frac alike.
        walls = {"cli": [], "w1": [], "w2": [], "traced": [], "ingest": []}
        hunt_self = []
        for _ in range(REPEATS):
            with tracer.span("cli.run"):
                walls["cli"].append(cli_iteration())
            wall, reports = _timed(lambda: hunts(1))
            walls["w1"].append(wall)
            wall, reports_w2 = _timed(lambda: hunts(2))
            walls["w2"].append(wall)
            if lines:
                walls["ingest"].append(_timed(ingest)[0])
            with tracer.span("theorems.traced_hunts") as batch:
                with traced_theorems(tracer, theorems, ALL_UNARY):
                    for spec, ids in specs:
                        with tracer.span("theorems.hunt"):
                            theorems.hunt(spec, ids, workers=1)
            walls["traced"].append(batch["busy_s"])
            hunt_self.append(_hunt_self(tracer, batch["id"]))
        med = {k: statistics.median(v) for k, v in walls.items() if v}
        record(
            "in-process hunt, 1 vs 2 workers",
            []
            if [[r.to_json_dict() for r in rs] for rs in reports]
            == [[r.to_json_dict() for r in rs] for rs in reports_w2]
            else ["reports differ"],
        )
        if lines:
            inproc = med["ingest"]
        else:
            csv = "\n".join(
                [theorems.CHECK_CSV_HEADER] + [r.csv_row() for r in reports[0]]
            ) + "\n"
            record(
                "in-process hunt vs CLI",
                [] if csv.encode() == cli_stdout else ["output differs"],
            )
            inproc = med["w1"] if case.workers == 1 else med["w2"]

        # each layer in one batch over the workload's graphs
        with tracer.span("sweeps.iter_sweep") as gen_rec:
            per_spec = [list(sweeps.iter_sweep(spec)) for spec, _ in specs]
        graphs = [g for part in per_spec for g in part]
        if lines:
            with tracer.span("graphs.parse_graph6") as parse_rec:
                graphs = [graphs_mod.parse_graph6(s) for s in lines]
            with tracer.span("graphs.emit_graph6") as emit_rec:
                g6 = [graphs_mod.emit_graph6(g) for g in graphs]
            record("graph6 round trip", [] if g6 == lines else ["ingest file changed"])
        else:
            with tracer.span("graphs.emit_graph6") as emit_rec:
                g6 = [graphs_mod.emit_graph6(g) for g in graphs]
            with tracer.span("graphs.parse_graph6") as parse_rec:
                back = [graphs_mod.parse_graph6(s) for s in g6]
            record("graph6 round trip", [] if back == graphs else ["a graph changed"])
        with tracer.span("graphs.all_pairs_distances") as bfs_rec:
            dists = [graphs_mod.all_pairs_distances(g) for g in graphs]
        with tracer.span("invariants.full_report") as rep_rec:
            reps = [pkg.invariants.full_report(g, d) for g, d in zip(graphs, dists)]
        claim_recs = {}
        hits = {}
        for tid in ALL_UNARY:
            fn = theorems.UNARY_CHECKS[tid]
            with tracer.span(f"theorems.claim.{tid}") as claim_recs[tid]:
                hits[tid] = sum(
                    fn(g, rep=r, dist=d, detail=False).hypothesis_met
                    for g, r, d in zip(graphs, reps, dists)
                )
        with tracer.span("ud.find_ud_certificate") as ud_rec:
            for g, d in zip(graphs, dists):
                pkg.ud.find_ud_certificate(g, d)
        with tracer.span("sweeps.replay_candidates"):
            candidates = 0
            for (spec, _), part in zip(specs, per_spec):
                problems = []
                candidates += _candidates(spec, part, problems)
                record(f"candidates of {spec}", problems)

    count = len(graphs)
    metrics = {
        "sweeps.generate_s": (gen_rec["busy_s"], "s"),
        "sweeps.graphs": (count, "count"),
        "sweeps.accept_ratio": (count / candidates, "ratio"),
        "sweeps.fold_parallel_efficiency": (med["w1"] / (2 * med["w2"]), "ratio"),
        "graphs.bfs_s": (bfs_rec["busy_s"], "s"),
        "graphs.graph6_parse_s": (parse_rec["busy_s"], "s"),
        "graphs.graph6_emit_s": (emit_rec["busy_s"], "s"),
        "invariants.report_s": (rep_rec["busy_s"], "s"),
    }
    for tid in ALL_UNARY:
        metrics[f"theorems.claim_s.{tid}"] = (claim_recs[tid]["busy_s"], "s")
    for tid in ALL_UNARY:
        metrics[f"theorems.hit_rate.{tid}"] = (hits[tid] / count, "ratio")
    metrics["theorems.hunt_self_s"] = (statistics.median(hunt_self), "s")
    metrics["ud.certificate_s"] = (ud_rec["busy_s"], "s")
    metrics["cli.overhead_s"] = (med["cli"] - inproc, "s")
    metrics["trace.overhead_frac"] = ((med["traced"] - med["w1"]) / med["w1"], "ratio")

    spans_path = work_dir / f"spans-{name}.jsonl"
    tracer.write(spans_path)
    info = {f"{k}_wall_s": v for k, v in med.items()}
    info["trace_call_cost_s"] = tracer.call_cost
    info["inprocess_wall_s"] = inproc
    info["traced_total_vs_cli_wall"] = (med["traced"] + med["cli"] - inproc) / med["cli"]
    return metrics, spans_path, info
