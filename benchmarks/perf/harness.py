"""Measurement helpers shared by the workloads, the runner and compare.py.

Statistics (percentiles, quartiles, spread), the host fingerprint with its
pinned ``s_per_modexp`` calibration, ``/proc`` readers for CPU time and
peak memory of other processes, and :class:`Cluster`, which runs
``python -m repro serve --shards 2 --port 0`` as a separate process tree.

Nothing here imports :mod:`repro` at module level, so ``compare.py`` and
the statistics tests run without the source tree on ``sys.path``.
"""

from __future__ import annotations

import asyncio
import math
import os
import platform
import random
import re
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
#: Run artifacts (merged traces, server stderr); ignored by git.
OUT_DIR = os.path.join(HERE, "out")

#: Modulus sizes the benchmark worlds exponentiate in: the Burmester-
#: Desmedt DH group, the Cramer-Shoup tracing group and the GSIG RSA
#: modulus of the "tiny" profile (2 x 256-bit safe primes).
CALIBRATION_BITS = (256, 384, 512)
GSIG_BITS = 512


# ---------------------------------------------------------------------------
# Statistics.
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile (0..100), interpolated linearly between
    the two nearest order statistics."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = (len(xs) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def quartiles(values: Sequence[float]):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them (the rule the acceptance check uses)."""
    xs = list(values)
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


# ---------------------------------------------------------------------------
# Host fingerprint and calibration.
# ---------------------------------------------------------------------------


def calibrate(calls: int = 2000, seed: int = 2005) -> Dict[str, float]:
    """Seconds per modular exponentiation at each calibration size: the
    median of ``calls`` seeded builtin ``pow`` calls with a full-size
    exponent.  One pinned number per host, taken the same way every run,
    in place of a busy-time quotient that depends on the workload."""
    rng = random.Random(seed)
    out: Dict[str, float] = {}
    for bits in CALIBRATION_BITS:
        samples = []
        for _ in range(calls):
            modulus = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
            base = rng.randrange(2, modulus)
            exponent = rng.getrandbits(bits) | (1 << (bits - 1))
            t0 = time.perf_counter()
            pow(base, exponent, modulus)
            samples.append(time.perf_counter() - t0)
        out[str(bits)] = statistics.median(samples)
    return out


def host_fingerprint(calibration: Dict[str, float]) -> Dict[str, object]:
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "s_per_modexp": calibration,
    }


# ---------------------------------------------------------------------------
# /proc readers.
# ---------------------------------------------------------------------------

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _stat(pid: int) -> List[str]:
    """Fields of /proc/<pid>/stat after the ``(comm)`` field, so field 3
    of proc(5) (``state``) is index 0."""
    with open(f"/proc/{pid}/stat") as handle:
        return handle.read().rsplit(")", 1)[1].split()


def alive(pid: int) -> bool:
    try:
        return _stat(pid)[0] != "Z"
    except OSError:
        return False


def descendants(root: int) -> List[int]:
    """Every live process below ``root`` (by parent links in /proc)."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                parents[int(entry)] = int(_stat(int(entry))[1])
            except (OSError, IndexError, ValueError):
                continue
    found, frontier = [], [root]
    while frontier:
        parent = frontier.pop()
        for pid, ppid in parents.items():
            if ppid == parent:
                found.append(pid)
                frontier.append(pid)
    return sorted(found)


def process_age_s() -> float:
    """Seconds since this process started (clock-tick resolution) — the
    interpreter start-up that precedes any timer a script can set."""
    with open("/proc/uptime") as handle:
        uptime = float(handle.read().split()[0])
    return max(uptime - int(_stat(os.getpid())[19]) / _CLK_TCK, 0.0)


def cmdline(pid: int) -> bytes:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read()
    except OSError:
        return b""


def cpu_seconds(pid: int) -> float:
    """utime + stime of one process, in seconds (0 once it is gone)."""
    try:
        fields = _stat(pid)
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """VmHWM of ``pid`` from /proc, or this process's ``ru_maxrss``."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


# ---------------------------------------------------------------------------
# The cluster under test.
# ---------------------------------------------------------------------------


class ClusterError(RuntimeError):
    pass


class Cluster:
    """``python -m repro serve --shards 2 --port 0`` in its own process
    tree.  :meth:`start` reads the port the router prints, :meth:`ready`
    waits until STATUS reports both shards up with a heartbeat in hand,
    :meth:`stop` sends SIGINT and checks that no process of the tree
    outlives the router."""

    SHARDS = 2

    def __init__(self) -> None:
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        #: Every process below the router (shards plus multiprocessing's
        #: resource tracker) and the shard workers among them.
        self.tree: List[int] = []
        self.shard_pids: List[int] = []
        self._log = None

    @property
    def router_pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def start(self, timeout: float = 60.0) -> "Cluster":
        os.makedirs(OUT_DIR, exist_ok=True)
        self._log = open(os.path.join(OUT_DIR, "server.log"), "ab")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH")) if p)
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve",
             "--shards", str(self.SHARDS), "--port", "0"],
            stdout=subprocess.PIPE, stderr=self._log, env=env, cwd=ROOT,
            bufsize=0)
        deadline = time.monotonic() + timeout
        text = b""
        while b"\n" not in text:
            remaining = deadline - time.monotonic()
            readable, _, _ = select.select([self.proc.stdout], [], [],
                                           max(remaining, 0))
            chunk = os.read(self.proc.stdout.fileno(), 4096) \
                if readable else b""
            if not chunk:
                self.stop()
                raise ClusterError("server exited or stayed silent before "
                                   "printing its port; see out/server.log")
            text += chunk
        match = re.search(rb"listening on [^\s:]+:(\d+)", text)
        if match is None:
            self.stop()
            raise ClusterError(f"unexpected server banner {text!r}")
        self.port = int(match.group(1))
        return self

    async def ready(self, timeout: float = 30.0) -> dict:
        """Poll STATUS until both shards are up and have heartbeated."""
        from repro.service import query_status

        deadline = time.monotonic() + timeout
        while True:
            status = await query_status("127.0.0.1", self.port)
            shards = status.get("shards") or {}
            if (status["cluster"]["states"] == {"up": list(range(self.SHARDS))}
                    and all(line.get("rooms") is not None
                            for line in shards.values())):
                self.tree = descendants(self.router_pid)
                self.shard_pids = [p for p in self.tree
                                   if b"spawn_main" in cmdline(p)]
                if len(self.shard_pids) != self.SHARDS:
                    raise ClusterError(
                        f"expected {self.SHARDS} shard processes, found "
                        f"{self.shard_pids}")
                return status
            if time.monotonic() > deadline:
                raise ClusterError(f"shards not live: {status['cluster']}")
            await asyncio.sleep(0.05)

    def cpu_seconds(self) -> Dict[str, float]:
        return {"router": cpu_seconds(self.router_pid),
                "shards": sum(cpu_seconds(p) for p in self.shard_pids)}

    def rss_mb(self) -> Dict[str, float]:
        return {"router": peak_rss_mb(self.router_pid),
                "shards": sum(peak_rss_mb(p) for p in self.shard_pids)}

    def stop(self, timeout: float = 30.0) -> bool:
        """SIGINT the router and reap it; True when the whole tree ended
        on its own.  Stragglers are killed (and reported as False)."""
        if self.proc is None:
            return True
        tree = self.tree or descendants(self.router_pid)
        clean = True
        if self.proc.poll() is None:
            os.kill(self.router_pid, signal.SIGINT)
        try:
            self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            clean = False
            self.proc.kill()
            self.proc.communicate()
        deadline = time.monotonic() + 10.0
        while any(alive(p) for p in tree) and time.monotonic() < deadline:
            time.sleep(0.05)
        for pid in tree:
            if alive(pid):
                clean = False
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        if self._log is not None:
            self._log.close()
        self.proc = None
        return clean
