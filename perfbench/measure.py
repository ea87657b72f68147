"""Measurement primitives shared by every workload of the benchmark.

Nothing here imports the program under test: percentiles, memory and
CPU read from ``/proc``, the host parallelism probe, digests
and the result record are the benchmark's own, so a change to ``src/``
cannot change how it is measured.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

_TICK = os.sysconf("SC_CLK_TCK")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the ceil(q*n)-th smallest value (1-based).

    The one percentile function of the benchmark; every median and tail
    it reports goes through here.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values) -> float:
    return percentile(values, 0.5)


# -- /proc: process tree, memory, CPU ----------------------------------------


def children_of(pid: int) -> list[int]:
    """Direct children of *pid*, over every thread that may have forked."""
    kids: list[int] = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return kids
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                kids.extend(int(x) for x in handle.read().split())
        except OSError:
            continue
    return kids


def process_tree(root: int) -> list[int]:
    """*root* and all of its descendants."""
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children_of(pid))
    return tree


def pss_bytes(pid: int) -> int:
    """Proportional set size: each shared page split among its sharers.

    Summed over a process tree it counts every page once, including
    forked copy-on-write pages and shared-memory segments.
    """
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


class TreeMemory:
    """Peak summed PSS of a process tree, sampled by a background thread.

    ``start()`` opens a window; ``peak()`` is the largest sample taken
    since.  The thread spends its time in ``/proc`` reads, which release
    the interpreter lock.
    """

    def __init__(self, root: int, interval: float = 0.05) -> None:
        self.root = root
        self.interval = interval
        self._peak = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self) -> None:
        total = sum(pss_bytes(pid) for pid in process_tree(self.root))
        with self._lock:
            self._peak = max(self._peak, total)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def start(self) -> None:
        with self._lock:
            self._peak = 0

    def peak(self) -> int:
        with self._lock:
            peak = self._peak
        if peak == 0:  # the window was shorter than one interval
            self._sample()
            peak = self._peak
        return peak

    def __enter__(self) -> "TreeMemory":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)


def _status_bytes(pid: int, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(key):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def rss_bytes(pid: int) -> int:
    return _status_bytes(pid, "VmRSS:")


def peak_rss_bytes(pid: int) -> int:
    """Peak resident set size since the last :func:`reset_peak_rss`."""
    return _status_bytes(pid, "VmHWM:")


def reset_peak_rss(pid: int) -> None:
    """Restart the kernel's peak-RSS counter of *pid* at its current RSS."""
    try:
        with open(f"/proc/{pid}/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of *pid* (0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except OSError:
        return 0.0
    fields = stat[stat.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


class PeakMemory:
    """Peak memory of a process and the workers it drives, from the kernel.

    Exact and free of sampling, so it suits windows too short to sample
    (one layer); it cannot see worker pages that stop being shared.

    The kernel keeps each process's peak resident set size; ``start()``
    restarts those counters and ``peak()`` reads them.  The peak is the
    main process's own plus what each worker's peak exceeds the worker's
    size when this object was made, so pages a worker shares with the
    main process (forked copy-on-write pages, shared-memory segments it
    maps) are not counted twice.
    """

    def __init__(self, main: int, workers=()) -> None:
        self.main = main
        self.workers = list(workers)
        self._base = [rss_bytes(pid) for pid in self.workers]

    def start(self) -> None:
        for pid in (self.main, *self.workers):
            reset_peak_rss(pid)

    def peak(self) -> int:
        return peak_rss_bytes(self.main) + sum(
            max(0, peak_rss_bytes(pid) - base)
            for pid, base in zip(self.workers, self._base)
        )


def mib(num_bytes: float) -> float:
    return num_bytes / (1024 * 1024)


# -- host probe ----------------------------------------------------------------


def effective_parallelism(loops: int = 4_000_000) -> float:
    """CPU-bound throughput of 2 concurrent processes over 1 process.

    2.0 means two real cores; a host whose vCPUs share cores reads
    lower, which is what a parallel speed-up must be judged against.
    Call it before this process starts any thread: it forks.
    """

    def spin(count: int) -> list[float]:
        go_read, go_write = os.pipe()
        out_read, out_write = os.pipe()
        pids = []
        for _ in range(count):
            pid = os.fork()
            if pid == 0:  # child: wait for the start signal, spin, report
                try:
                    os.read(go_read, 1)
                    start = time.perf_counter()
                    acc = 0
                    for i in range(loops):
                        acc += i * i
                    os.write(out_write, struct.pack("d", time.perf_counter() - start))
                finally:
                    os._exit(0)
            pids.append(pid)
        os.write(go_write, b"x" * count)
        times = [struct.unpack("d", os.read(out_read, 8))[0] for _ in range(count)]
        for pid in pids:
            os.waitpid(pid, 0)
        for fd in (go_read, go_write, out_read, out_write):
            os.close(fd)
        return times

    single = spin(1)[0]
    return 2 * single / max(spin(2))


# -- inputs, outputs ------------------------------------------------------------


def source_fingerprint(src: Path) -> str:
    """Hash of every source file of the program (keys the oracle cache)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def pair_digest(pairs) -> str:
    """Order-independent digest of a set of ``(i, j)`` pairs."""
    digest = hashlib.sha256()
    for i, j in sorted(pairs):
        digest.update(f"{i},{j};".encode())
    return digest.hexdigest()


@dataclass
class Result:
    """What one run reports: correctness counts and named metrics."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; a failure is also noted."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED: {what}")

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def record(self, selected) -> dict:
        missing = [name for name in selected if name not in self.metrics]
        if missing:
            raise KeyError(f"metrics not measured: {', '.join(missing)}")
        return {
            "correct": self.failed == 0,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name][0], "unit": self.metrics[name][1]}
                for name in selected
            },
        }
