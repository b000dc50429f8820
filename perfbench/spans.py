"""Spans recorded around calls into the package's modules.

Two kinds of span share one tree:

* ``Tracer.span(name)`` records one span per use, with its own start and
  end; it marks coarse boundaries such as one ``hunt`` call or one batch of
  BFS calls over a whole workload.
* ``Tracer.wrap(fn, name)`` returns ``fn`` with a span around every call.
  Calls at one boundary (same name, same parent) fold into one record that
  keeps the call count, the first start, the last end, the summed duration
  and the summed self time.  Per-graph boundaries are called hundreds of
  thousands of times per workload; one record per call would be larger than
  the work it describes.

A span's self time is its duration minus the time its child spans cover.
A wrapped call also does bookkeeping outside its own span; its cost is
measured when the tracer starts (``call_cost``) and counted as covered by
the child, so callers' self times exclude it while durations keep it.
Spans live in memory and are written out once, by :meth:`Tracer.write`.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from pathlib import Path


class Tracer:
    def __init__(self, workload: str, clock=time.perf_counter, call_cost=None):
        self.workload = workload
        self._clock = clock
        # bookkeeping of one wrapped call outside its own span, in seconds
        self.call_cost = _calibrate(clock) if call_cost is None else call_cost
        self._t0 = clock()
        self._records = []
        # open frames: [record id, time covered by finished children]; the
        # bottom frame stands for "no parent"
        self._stack = [[None, 0.0]]

    def _new_record(self, name, parent, calls):
        rec = {
            "id": len(self._records),
            "name": name,
            "parent": parent,
            "workload": self.workload,
            "calls": calls,
            "start": None,
            "end": None,
            "busy_s": 0.0,
            "self_s": 0.0,
        }
        self._records.append(rec)
        return rec

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1]
        rec = self._new_record(name, parent[0], None)
        frame = [rec["id"], 0.0]
        self._stack.append(frame)
        start = self._clock()
        try:
            yield rec
        finally:
            end = self._clock()
            self._stack.pop()
            rec["start"], rec["end"] = start, end
            rec["busy_s"] = end - start
            rec["self_s"] = end - start - frame[1]
            parent[1] += end - start

    def wrap(self, fn, name):
        clock = self._clock
        stack = self._stack
        cost = self.call_cost
        by_parent = {}  # parent record id -> this boundary's folded record

        # The wrapper's own work outside [start, end] is counted as covered
        # by the child, so it does not inflate the caller's self time.
        def traced(*args, **kwargs):
            parent = stack[-1]
            rec = by_parent.get(parent[0])
            if rec is None:
                rec = by_parent[parent[0]] = self._new_record(name, parent[0], 0)
            frame = [rec["id"], 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rec["calls"] += 1
                rec["busy_s"] += end - start
                rec["self_s"] += end - start - frame[1]
                if rec["start"] is None:
                    rec["start"] = start
                rec["end"] = end
                parent[1] += end - start + cost

        return traced

    @property
    def records(self):
        return self._records

    def find(self, name, parent=None):
        """Records with this name (under ``parent`` if given)."""
        return [
            r
            for r in self._records
            if r["name"] == name and (parent is None or r["parent"] == parent)
        ]

    def write(self, path: Path) -> None:
        """Write one JSON record per line, times in seconds from the start."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self._records:
                out = dict(rec)
                for key in ("start", "end"):
                    if out[key] is not None:
                        out[key] -= self._t0
                fh.write(json.dumps(out, sort_keys=True) + "\n")


def _calibrate(clock, batches=5, calls=4000) -> float:
    """Median cost of a wrapped call outside its own span, per call."""
    costs = []
    for _ in range(batches):
        probe = Tracer("calibration", clock, call_cost=0.0)
        noop = probe.wrap(lambda: None, "noop")
        with probe.span("root") as root:
            for _ in range(calls):
                noop()
        costs.append(root["self_s"] / calls)
    return statistics.median(costs)


@contextlib.contextmanager
def traced_theorems(tracer: Tracer, theorems, claim_ids):
    """Trace the calls ``theorems.hunt`` makes into the other layers.

    Patches the names ``hunt`` looks up at call time: the BFS, report and
    graph6 functions it imported, ``fold_sweep`` (whose ``fold`` and
    ``combine`` callbacks are hunt's own code and get spans of their own),
    and the claim checkers in ``UNARY_CHECKS``.  Everything is restored on
    exit.  Spans made in forked workers stay in the workers, so trace with
    one worker.
    """
    saved = {
        name: getattr(theorems, name)
        for name in ("all_pairs_distances", "full_report", "emit_graph6", "fold_sweep")
    }
    saved_checks = dict(theorems.UNARY_CHECKS)
    fold_sweep = saved["fold_sweep"]

    def traced_fold_sweep(spec, fold, combine, zero, **kwargs):
        with tracer.span("sweeps.fold_sweep"):
            return fold_sweep(
                spec,
                tracer.wrap(fold, "theorems.hunt.fold"),
                tracer.wrap(combine, "theorems.hunt.combine"),
                zero,
                **kwargs,
            )

    theorems.all_pairs_distances = tracer.wrap(
        saved["all_pairs_distances"], "graphs.all_pairs_distances"
    )
    theorems.full_report = tracer.wrap(saved["full_report"], "invariants.full_report")
    theorems.emit_graph6 = tracer.wrap(saved["emit_graph6"], "graphs.emit_graph6")
    theorems.fold_sweep = traced_fold_sweep
    for tid in claim_ids:
        theorems.UNARY_CHECKS[tid] = tracer.wrap(saved_checks[tid], f"theorems.claim.{tid}")
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(theorems, name, fn)
        theorems.UNARY_CHECKS.clear()
        theorems.UNARY_CHECKS.update(saved_checks)
