"""Timing one CLI process, summary statistics and the machine record."""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# A CLI run that outlives this is killed and counted as failed, so one
# hung run cannot push the benchmark past its own time limit.
RUN_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Run:
    """One finished CLI process: exit code (None if killed), output, cost.

    ``speed`` is the host-speed factor the reference clock measured during
    the run (see refclock.py): 1 without a clock, None when the clock's
    loops got too little CPU time to tell.
    """

    exit_code: int | None
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    speed: float | None = 1.0

    @property
    def norm_wall_s(self) -> float:
        return self.wall_s * self.speed

    @property
    def norm_cpu_s(self) -> float:
        return self.cpu_s * self.speed


def cli_env(root: Path) -> dict:
    """Environment that runs the package from the checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_cli(argv, *, env, work_dir: Path, timeout: float = RUN_TIMEOUT_S) -> Run:
    """Run one process to completion and measure it.

    ``os.wait4`` reaps the child and returns its resource usage, which on
    Linux includes every descendant the child waited for (the forked fold
    workers), so CPU is the whole tree's and ``ru_maxrss`` the largest
    resident set in it.  Output goes to files, not pipes, so a large output
    cannot stall the child while the parent is blocked in ``wait4``.
    """
    out_path = work_dir / "stdout.bin"
    err_path = work_dir / "stderr.bin"
    killed = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no process behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if killed.is_set() or proc.returncode < 0 else proc.returncode
    return Run(
        exit_code=code,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )


def tail_percentile(values, beyond: int = 10):
    """Highest percentile with at least ``beyond`` samples above it.

    Returns ``(percent, value)``, or ``None`` when there are too few
    samples for any such percentile.
    """
    xs = sorted(values)
    k = len(xs) - beyond
    if k < 1:
        return None
    return 100.0 * k / len(xs), xs[k - 1]


def describe(values) -> str:
    """Median, tail percentile and sample count of a timing series."""
    text = f"median {statistics.median(values):.4f} over {len(values)} samples"
    tail = tail_percentile(values)
    if tail is None:
        return text + "; tail: needs at least 11 samples"
    return text + f"; p{tail[0]:.0f} {tail[1]:.4f}"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(module: str) -> str:
    try:
        return __import__(module).__version__
    except ImportError:
        return "absent"


def _commit(root: Path) -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = done.stdout.split()
    # a checkout that is not itself a repository must not report an enclosing one
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]) != root:
        return "unknown"
    return lines[1]


def _source_digest(root: Path) -> str:
    # identifies the measured code where the checkout is not a git repository
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def machine_record(root: Path) -> dict:
    """Where and on what the numbers were taken."""
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "networkx": _version("networkx"),
        "commit": _commit(root),
        "src_sha256": _source_digest(root),
    }
