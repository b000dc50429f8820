"""A reference loop run beside each timed CLI process, to cancel host speed.

The machine the benchmark was built on shares its cores with other tenants,
and its speed changes by up to 1.8x from one second to the next; CPU time
follows wall time, so the slowdown is contention on the host, not
scheduling.  Medians over a run do not cancel it: slow phases last from a
second to minutes.

While the CLI runs, a loop of fixed Python object work (build a list of
small dicts, dump it to JSON, load it back) runs on each CPU the CLI is
pinned to, at a lower priority (nice +10, about a tenth of the CPU).  The
scheduler interleaves it with the CLI in slices of a few milliseconds, so
it meets the same host speed as the CLI, slice by slice.  The chunks of
work it completes per CPU second of its own are the host speed during that
CLI run, and ``speed()`` turns them into a factor: CLI seconds times the
factor are seconds on a CPU that runs ``NOMINAL_CHUNKS_PER_S`` chunks per
second, a fixed nominal speed.  The loop never changes, so a change in the
program moves the normalised time and a change in the host does not.

Of the loops tried, this allocation-heavy one tracks the CLI best: over
five minutes of CLI runs whose own times spread by 9-20% (interquartile
range over median), the normalised times spread by 4-8%.  A tight integer
loop overreacts to host speed (its slowdowns are larger than the CLI's).
"""

from __future__ import annotations

import mmap
import os
import struct
import subprocess
import sys
from pathlib import Path

# Fixed forever.  Beside a CLI process on the 2-vCPU Xeon the benchmark was
# built on, the loop ran 9,100 to 19,000 chunks per CPU second as the host's
# speed changed; this is near the middle, so normalised seconds read close
# to real seconds there.
NOMINAL_CHUNKS_PER_S = 12000.0
NICE = 10
# Below this much loop CPU time in a CLI run its rate says too little; such
# a run is checked but not timed.  A 0.2 s start-up gives the loop ~20 ms.
MIN_LOOP_CPU_S = 0.002
_SLOT = struct.Struct("dd")  # (own CPU seconds, chunks done), rewritten per chunk

# Pins itself to one CPU, lowers its priority, then repeats a fixed chunk of
# object work, publishing its CPU time and chunk count after every chunk.  It exits when its parent has gone, so it cannot outlive the
# benchmark even if the benchmark is killed.
LOOP = r"""
import json, mmap, os, struct, sys, time
cpu, path, nice, parent = int(sys.argv[1]), sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
os.sched_setaffinity(0, {cpu})
os.nice(nice)
with open(path, "r+b") as fh:
    slot = mmap.mmap(fh.fileno(), 16)
pack, clock, getppid = struct.Struct("dd").pack_into, time.process_time, os.getppid
sys.stdout.write("ready\n")
sys.stdout.flush()
n = 0
while getppid() == parent:
    rows = [{"n": i, "w": i * 7, "e": [i, i + 1, i + 2]} for i in range(20)]
    json.loads(json.dumps(rows))
    n += 1
    pack(slot, 0, clock(), n)
"""


class RefClock:
    """One reference loop per CPU in ``cpus``; stop it with ``close()``."""

    def __init__(self, cpus, work_dir: Path):
        self.cpus = list(cpus)
        self._procs = []
        self._slots = []
        try:
            for cpu in self.cpus:
                path = work_dir / f"refclock-{cpu}.bin"
                path.write_bytes(bytes(_SLOT.size))
                proc = subprocess.Popen(
                    [sys.executable, "-c", LOOP, str(cpu), str(path), str(NICE), str(os.getpid())],
                    stdout=subprocess.PIPE,
                )
                self._procs.append(proc)
                if proc.stdout.readline() != b"ready\n":
                    raise RuntimeError(f"reference loop on CPU {cpu} did not start")
                with open(path, "r+b") as fh:
                    self._slots.append(mmap.mmap(fh.fileno(), _SLOT.size))
        except BaseException:
            self.close()
            raise

    def snapshot(self) -> list:
        """``(cpu_s, chunks)`` of every loop so far."""
        return [_SLOT.unpack_from(slot) for slot in self._slots]

    def close(self) -> None:
        for proc in self._procs:
            if proc.poll() is None:
                proc.kill()
        for proc in self._procs:
            proc.wait()
            proc.stdout.close()
        for slot in self._slots:
            slot.close()
        self._procs, self._slots = [], []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def speed(before, after):
    """Host speed between two snapshots: the loops' chunks per CPU second
    over the nominal rate, or None when they got under ``MIN_LOOP_CPU_S``."""
    cpu = sum(b[0] - a[0] for a, b in zip(before, after))
    chunks = sum(b[1] - a[1] for a, b in zip(before, after))
    if cpu < MIN_LOOP_CPU_S or chunks < 1:
        return None
    return chunks / cpu / NOMINAL_CHUNKS_PER_S
