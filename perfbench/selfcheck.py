"""Fast checks of the benchmark's own logic; runs no workload.

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
import unittest
from pathlib import Path

from layers import LAYER_METRICS
from measure import Run, run_cli, tail_percentile
from refclock import MIN_LOOP_CPU_S, NOMINAL_CHUNKS_PER_S, RefClock, speed
from run import E2E_METRICS, ROOT, Bench, run_problems
from spans import Tracer
from workloads import (
    CHECK_HEADER,
    WORKLOADS,
    nx_invariants,
    nx_ud_certificate,
    verify_problems,
)


def _run(code=0, out=b"", err=b""):
    return Run(code, out, err, 1.0, 1.0, 1.0)


def _no_check(_out, _err):
    return []


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


TREES_OUT = (
    CHECK_HEADER + "\nT3.3,13187,13140,1,0\nL4.1,13187,13187,0,14\n"
).encode()
TREES_ERR = b"counterexample T3.3 HkaCCA? {}\n"


def _trees_problems(out, err=TREES_ERR):
    return verify_problems(
        out,
        err,
        ids=("T3.3", "L4.1"),
        visited=13187,
        hits={"T3.3": 13140, "L4.1": 13187},
        counterexamples={"T3.3": 1},
        stderr_lines=["counterexample T3.3 HkaCCA? {}"],
    )


class OutputChecks(unittest.TestCase):
    def test_expected_output_passes(self):
        self.assertEqual(_trees_problems(TREES_OUT), [])

    def test_tampered_count_fails(self):
        for old, new in ((b"13140", b"13139"), (b",1,0", b",0,0"), (b"13187,0", b"13186,0")):
            with self.subTest(tamper=new):
                self.assertNotEqual(_trees_problems(TREES_OUT.replace(old, new, 1)), [])

    def test_tampered_stderr_or_header_fails(self):
        self.assertNotEqual(_trees_problems(TREES_OUT, b""), [])
        self.assertNotEqual(_trees_problems(TREES_OUT.replace(b"theorem_id", b"id")), [])

    def test_output_differing_from_reference_fails(self):
        ref = _run(0, b"a\n")
        self.assertEqual(run_problems(_run(0, b"a\n"), 0, ref, _no_check), [])
        self.assertNotEqual(run_problems(_run(0, b"b\n"), 0, ref, _no_check), [])
        self.assertNotEqual(run_problems(_run(0, b"a\n", b"warn"), 0, ref, _no_check), [])

    def test_failed_run_counts_in_failed_frac(self):
        bench = Bench(Path("."), Path("."))
        bench.record("ok", [])
        bench.record("bad", ["tampered"])
        self.assertEqual((bench.attempted, len(bench.failures)), (2, 1))

    def test_networkx_reference_values(self):
        # the path on 4 vertices: W = 1+2+3+1+2+1, E1 = 9+4+4+9
        self.assertEqual(
            nx_invariants("Ch"), {"n": 4, "m": 3, "diam": 3, "W": 10, "E1": 26}
        )
        self.assertEqual(nx_ud_certificate("Ch")["pair"], [0, 3])
        cert = nx_ud_certificate("C~")  # K4: every pair diametrical, all UD
        self.assertEqual((cert["is_ud"], cert["pair"], cert["diam"]), (True, [0, 1], 1))


class ExitCodes(unittest.TestCase):
    def test_unexpected_exit_code_fails(self):
        self.assertEqual(run_problems(_run(1), 1, None, _no_check), [])
        self.assertNotEqual(run_problems(_run(0), 1, None, _no_check), [])
        self.assertNotEqual(run_problems(_run(2), 0, None, _no_check), [])

    def test_missing_exit_code_fails(self):
        self.assertNotEqual(run_problems(_run(None), 0, None, _no_check), [])

    def test_real_process_exit_code_and_kill(self):
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            argv = [sys.executable, "-c", "raise SystemExit(3)"]
            exited = run_cli(argv, env=None, work_dir=work)
            self.assertEqual(exited.exit_code, 3)
            hung = run_cli(
                [sys.executable, "-c", "import time; time.sleep(30)"],
                env=None,
                work_dir=work,
                timeout=0.5,
            )
            self.assertIsNone(hung.exit_code)
            self.assertLess(hung.wall_s, 10)


class SelfTime(unittest.TestCase):
    def test_online_self_time_on_synthetic_tree(self):
        clock = FakeClock()
        tracer = Tracer("synthetic", clock=clock)

        def leaf():
            clock.now += 1.0

        traced_leaf = tracer.wrap(leaf, "leaf")

        def middle():
            clock.now += 0.5
            traced_leaf()
            traced_leaf()

        traced_middle = tracer.wrap(middle, "middle")
        with tracer.span("root"):
            clock.now += 2.0
            traced_middle()
            traced_middle()
            traced_leaf()
        by_name = {}
        for rec in tracer.records:
            by_name.setdefault(rec["name"], []).append(rec)
        root = by_name["root"][0]
        # root: 2 own + 2 x (0.5 + 2) middle + 1 leaf = 8
        self.assertAlmostEqual(root["busy_s"], 8.0)
        self.assertAlmostEqual(root["self_s"], 2.0)
        (middle_rec,) = by_name["middle"]
        self.assertEqual(middle_rec["calls"], 2)
        self.assertAlmostEqual(middle_rec["busy_s"], 5.0)
        self.assertAlmostEqual(middle_rec["self_s"], 1.0)
        leaves = sorted(by_name["leaf"], key=lambda r: r["calls"])
        self.assertEqual([r["parent"] for r in leaves], [root["id"], middle_rec["id"]])
        self.assertEqual([r["calls"] for r in leaves], [1, 4])
        self.assertAlmostEqual(sum(r["busy_s"] for r in leaves), 5.0)

    def test_call_cost_is_taken_from_the_caller(self):
        clock = FakeClock()
        self.assertEqual(Tracer("synthetic", clock=clock).call_cost, 0.0)
        tracer = Tracer("synthetic", clock=clock, call_cost=0.25)

        def leaf():
            clock.now += 1.0

        traced_leaf = tracer.wrap(leaf, "leaf")
        with tracer.span("root"):
            clock.now += 2.0
            traced_leaf()
            traced_leaf()
        root, leaf_rec = tracer.records
        self.assertAlmostEqual(root["busy_s"], 4.0)
        self.assertAlmostEqual(root["self_s"], 2.0 - 2 * 0.25)
        self.assertAlmostEqual(leaf_rec["self_s"], 2.0)

    def test_exception_still_closes_span(self):
        clock = FakeClock()
        tracer = Tracer("synthetic", clock=clock)

        def boom():
            clock.now += 1.0
            raise ValueError

        with tracer.span("root"):
            with self.assertRaises(ValueError):
                tracer.wrap(boom, "boom")()
        root, boom_rec = tracer.records
        self.assertAlmostEqual(root["self_s"], 0.0)
        self.assertAlmostEqual(boom_rec["busy_s"], 1.0)


class Declaration(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual(
            [(w["name"], w["why"]) for w in spec["workloads"]],
            [(w.name, w.why) for w in WORKLOADS.values()],
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], list(E2E_METRICS)
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            list(LAYER_METRICS),
        )


class ReferenceClock(unittest.TestCase):
    def test_speed_arithmetic(self):
        nominal = NOMINAL_CHUNKS_PER_S
        # two loops: 0.5 CPU s each, 1.5 nominal CPU seconds of chunks in all
        before = [(1.0, 100.0), (2.0, 50.0)]
        after = [(1.5, 100.0 + 0.5 * nominal), (2.5, 50.0 + nominal)]
        self.assertAlmostEqual(speed(before, after), 1.5)
        self.assertIsNone(speed(before, before))
        self.assertIsNone(speed([(0.0, 0.0)], [(MIN_LOOP_CPU_S / 2, 100.0)]))

    def test_normalised_times(self):
        run = Run(0, b"", b"", 2.0, 1.5, 1.0, speed=1.25)
        self.assertEqual((run.norm_wall_s, run.norm_cpu_s), (2.5, 1.875))
        self.assertEqual(_run().norm_wall_s, 1.0)  # no clock: as measured

    def test_loops_run_and_stop(self):
        with tempfile.TemporaryDirectory() as tmp:
            cpu = min(os.sched_getaffinity(0))
            with RefClock([cpu], Path(tmp)) as clock:
                before = clock.snapshot()
                time.sleep(0.3)
                self.assertIsNotNone(speed(before, clock.snapshot()))
                procs = list(clock._procs)
            self.assertTrue(all(p.returncode is not None for p in procs))


class Stats(unittest.TestCase):
    def test_tail_percentile_needs_ten_beyond(self):
        self.assertIsNone(tail_percentile(range(10)))
        self.assertEqual(tail_percentile(range(11)), (100.0 / 11, 0))
        self.assertEqual(tail_percentile(range(100)), (90.0, 89))


if __name__ == "__main__":
    unittest.main()
