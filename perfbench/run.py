"""Benchmark of the ``distinv`` CLI on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` times the real CLI in a
subprocess, one process at a time, for about ``S`` seconds and reports the
end-to-end metrics, in seconds normalised to a fixed host speed by a
reference loop that runs beside the CLI (see refclock.py); ``--trace 1``
runs the traced in-process measurement and reports the per-layer metrics
(see layers.py).  ``--workload all`` runs
every workload, untraced and traced, and prints every metric.  Every CLI
output is checked against values that do not come from distinv; the last
line of stdout is the JSON result.  Exits 2 without a result when the
checkout has no package to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from measure import Run, cli_env, describe, machine_record, run_cli
from refclock import RefClock, speed
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench"  # inputs, span files and result records

SETUP_REPEATS = 15
MIN_ITERATIONS = 3
E2E_METRICS = (
    ("graphs_per_s", "graphs/s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def run_problems(run: Run, expect_exit: int, reference: Run | None, check) -> list[str]:
    """Everything wrong with one CLI run; empty when it is correct."""
    problems = []
    if run.exit_code != expect_exit:  # None: killed, or ended by a signal
        problems.append(f"exit code {run.exit_code}, expected {expect_exit}")
    if reference is not None and (
        run.stdout != reference.stdout or run.stderr != reference.stderr
    ):
        problems.append("output differs from the reference run")
    problems += check(run.stdout, run.stderr)
    return problems


class Bench:
    """CLI runs of one benchmark invocation, with their verdicts."""

    def __init__(self, root: Path, work_dir: Path):
        self.root = root
        self.work_dir = work_dir
        self.env = cli_env(root)
        self.attempted = 0
        self.failures = []
        self.clock = None  # a RefClock while the end-to-end runs are timed

    def cli(self, args) -> Run:
        argv = [sys.executable, "-m", "distinv.cli", *args]
        if self.clock is None:
            return run_cli(argv, env=self.env, work_dir=self.work_dir)
        before = self.clock.snapshot()
        run = run_cli(argv, env=self.env, work_dir=self.work_dir)
        return replace(run, speed=speed(before, self.clock.snapshot()))

    def record(self, label: str, problems: list[str]) -> None:
        """Count one checked outcome, failed when ``problems`` is not empty."""
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")

    def setup_time(self) -> float:
        """Median normalised wall of ``distinv --version``: interpreter, import, argparse."""
        version = re.compile(rb"\d+\.\d+\.\d+\s*")

        def check(out, err):
            return [] if version.fullmatch(out) and not err else [f"bad --version output {out!r}"]

        walls = []
        for i in range(SETUP_REPEATS + 1):  # the first run writes bytecode caches
            run = self.cli(["--version"])
            self.record("setup", run_problems(run, 0, None, check))
            if i and run.speed is not None:
                walls.append(run.norm_wall_s)
        return statistics.median(walls)

    def prepare(self, workload, seed: int):
        """The workload's inputs and one checked reference output per step."""
        case = workload.make(seed, self.work_dir, self.cli)
        references = []
        for i, step in enumerate(case.steps):
            run = self.cli(step.reference_args or step.args)
            found = run_problems(run, step.expect_exit, None, step.check)
            self.record(f"reference step {i}", found)
            references.append(run)
        return case, references

    def iteration(self, case, references):
        """Run every step once and check it; returns the iteration's sample.

        ``wall_s`` and ``cpu_s`` are normalised, ``raw_*`` as measured;
        ``timed`` is false when a step's host speed is unknown.
        """
        sample = {"wall_s": 0.0, "cpu_s": 0.0, "raw_wall_s": 0.0, "raw_cpu_s": 0.0}
        sample.update(peak_rss_mb=0.0, graphs=0, timed=True)
        for i, step in enumerate(case.steps):
            run = self.cli(step.args)
            found = run_problems(run, step.expect_exit, references[i], step.check)
            self.record(f"step {i}", found)
            if run.speed is None:
                sample["timed"] = False
                continue
            sample["wall_s"] += run.norm_wall_s
            sample["cpu_s"] += run.norm_cpu_s
            sample["raw_wall_s"] += run.wall_s
            sample["raw_cpu_s"] += run.cpu_s
            sample["peak_rss_mb"] = max(sample["peak_rss_mb"], run.peak_rss_mb)
            sample["graphs"] += step.rows
        return sample


@contextmanager
def clocked(bench: Bench, cpus):
    """Pin this process, and so the CLI it starts, to ``cpus`` and run a
    reference loop beside it on each of them."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        with RefClock(cpus, bench.work_dir) as bench.clock:
            yield
    finally:
        bench.clock = None
        os.sched_setaffinity(0, allowed)


def untraced(bench: Bench, case, references, seconds: float):
    """End-to-end metrics from CLI runs over a window of ``seconds``."""
    cpus = sorted(os.sched_getaffinity(0))[: case.workers]
    with clocked(bench, cpus[:1]):  # start-up is a single process
        setup = bench.setup_time()
    with clocked(bench, cpus):
        metrics, notes = _timed_window(bench, case, references, seconds)
    metrics["setup_s"] = setup
    return {k: (metrics[k], unit) for k, unit in E2E_METRICS}, notes


def _timed_window(bench: Bench, case, references, seconds: float):
    samples = []
    untimed = 0
    start = time.perf_counter()
    while True:
        sample = bench.iteration(case, references)
        if sample["timed"]:
            samples.append(sample)
        else:
            untimed += 1
        elapsed = time.perf_counter() - start
        typical = elapsed / (len(samples) + untimed)
        if len(samples) >= MIN_ITERATIONS and elapsed + typical > seconds:
            break
        if elapsed > 3 * seconds:
            raise RuntimeError(f"the reference clock timed only {len(samples)} iterations")
    walls = [s["wall_s"] for s in samples]
    metrics = {
        "graphs_per_s": statistics.median(s["graphs"] / s["wall_s"] for s in samples),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(s["cpu_s"] for s in samples),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }
    raw = [s["raw_wall_s"] for s in samples]
    notes = {
        "wall_s": describe(walls),
        "wall_samples": [round(w, 4) for w in walls],
        "raw_wall_s": describe(raw),
        "raw_cpu_s": describe([s["raw_cpu_s"] for s in samples]),
        "host_speed": describe([s["cpu_s"] / s["raw_cpu_s"] for s in samples]),
        "untimed_iterations": untimed,
    }
    return metrics, notes


def measure(name: str, seed: int, seconds: float, trace: bool):
    """One workload, untraced or traced; returns (metrics, bench, notes)."""
    bench = Bench(ROOT, WORK_DIR)
    case, references = bench.prepare(WORKLOADS[name], seed)
    if not trace:
        metrics, notes = untraced(bench, case, references, seconds)
        return metrics, bench, notes
    from layers import traced_run

    def cli_iteration():
        return bench.iteration(case, references)["wall_s"]

    metrics, spans_path, notes = traced_run(
        name, case, references[0].stdout, ROOT, WORK_DIR, cli_iteration, bench.record
    )
    notes["spans"] = str(spans_path.relative_to(ROOT))
    return metrics, bench, notes


def report(name, trace, metrics, bench, notes, machine, out=sys.stdout):
    print(f"# workload {name}, {'traced' if trace else 'untraced'}", file=out)
    for key, (value, unit) in metrics.items():
        print(f"#   {key} = {value!r} {unit}", file=out)
    frac = len(bench.failures) / bench.attempted
    print(f"#   failed_frac = {frac!r} ratio ({len(bench.failures)}/{bench.attempted})", file=out)
    for key, value in notes.items():
        print(f"#   {key}: {value}", file=out)
    for failure in bench.failures:
        print(f"#   FAILED {failure}", file=out)
    print(f"# machine {json.dumps(machine, sort_keys=True)}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), required=True, help="ignored with --workload all"
    )
    args = parser.parse_args(argv)
    # a SIGTERM unwinds like an exception, so every child is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "distinv" / "cli.py").is_file():
        print(f"error: no distinv package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    machine = machine_record(ROOT)

    if args.workload == "all":
        runs = [(n, t) for n in WORKLOADS for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    combined = {}
    attempted = failed = 0
    for name, trace in runs:
        metrics, bench, notes = measure(name, args.seed, args.seconds, trace)
        report(name, trace, metrics, bench, notes, machine)
        attempted += bench.attempted
        failed += len(bench.failures)
        prefix = f"{name}." if args.workload == "all" else ""
        for key, (value, unit) in metrics.items():
            combined[prefix + key] = {"value": value, "unit": unit}
        record = {
            "workload": name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": int(trace),
            "machine": machine,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "attempted": bench.attempted,
            "failures": bench.failures,
            "notes": notes,
        }
        path = WORK_DIR / f"result-{name}-seed{args.seed}-trace{int(trace)}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": combined,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
