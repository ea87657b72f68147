"""Observability for the serving layer: counters and latency rings.

Every tenant actor owns a :class:`TenantMetrics`; the server owns a
:class:`ServerMetrics` that aggregates them on demand.  Latency is held
in fixed-size :class:`LatencyRing` buffers — O(1) per sample, bounded
memory, percentile snapshots over the most recent window — so the
``stats`` verb and the periodic log line always report *recent* tails
rather than a lifetime average that hides regressions.

Pure stdlib (the serving layer must not drag numpy into its hot path for
bookkeeping); percentiles use the nearest-rank method over a sorted copy
of the window, computed only when a snapshot is requested.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

__all__ = ["LatencyRing", "ServerMetrics", "TenantMetrics"]

#: Default number of samples a latency ring retains (the percentile window).
RING_CAPACITY = 2048


class LatencyRing:
    """A fixed-capacity ring of latency samples (seconds).

    ``record`` is O(1); ``percentiles`` sorts the current window (at most
    ``capacity`` samples) and reports nearest-rank p50/p95/p99 plus the
    window maximum, in milliseconds.
    """

    __slots__ = ("_samples", "_capacity", "_next", "count")

    def __init__(self, capacity: int = RING_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"ring capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._samples: list[float] = []
        self._next = 0
        #: Lifetime number of samples recorded (window-independent).
        self.count = 0

    def record(self, seconds: float) -> None:
        if len(self._samples) < self._capacity:
            self._samples.append(seconds)
        else:
            self._samples[self._next] = seconds
            self._next = (self._next + 1) % self._capacity
        self.count += 1

    def __len__(self) -> int:
        return len(self._samples)

    def percentiles(self) -> dict[str, float]:
        """Nearest-rank p50/p95/p99/max over the window, in milliseconds.

        An empty ring reports zeros (a tenant that never served a request
        has no tail to speak of).
        """
        if not self._samples:
            return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
        ordered = sorted(self._samples)
        n = len(ordered)

        def rank(q: float) -> float:
            # Nearest-rank: the ceil(q*n)-th smallest sample, 1-based.
            index = max(0, min(n - 1, math.ceil(q * n) - 1))
            return ordered[index]

        return {
            "p50": round(rank(0.50) * 1e3, 4),
            "p95": round(rank(0.95) * 1e3, 4),
            "p99": round(rank(0.99) * 1e3, 4),
            "max": round(ordered[-1] * 1e3, 4),
        }


@dataclass
class TenantMetrics:
    """Counters and latency windows of one tenant."""

    upserts: int = 0
    deletes: int = 0
    queries: int = 0
    #: Write requests refused because the tenant queue was full.
    overloads: int = 0
    #: Batches the actor applied, and the operations they contained —
    #: ``batched_ops / batches`` is the observed mean batch size.
    batches: int = 0
    batched_ops: int = 0
    snapshots: int = 0
    #: Crash recoveries performed on attach (snapshot + journal tail).
    recoveries: int = 0
    #: Query views the tenant's queries rebuilt, and the seconds spent
    #: building them (``exact`` views rebuild after every mutation).
    view_builds: int = 0
    view_build_seconds: float = 0.0
    #: Queue-time + apply-time of acknowledged writes.
    write_latency: LatencyRing = field(default_factory=LatencyRing)
    #: Service time of queries.
    query_latency: LatencyRing = field(default_factory=LatencyRing)

    @property
    def writes(self) -> int:
        return self.upserts + self.deletes

    def snapshot_dict(self, *, queue_depth: int = 0) -> dict:
        """The ``stats`` verb's per-tenant payload."""
        return {
            "upserts": self.upserts,
            "deletes": self.deletes,
            "queries": self.queries,
            "overloads": self.overloads,
            "batches": self.batches,
            "mean_batch_size": round(
                self.batched_ops / self.batches if self.batches else 0.0, 3
            ),
            "snapshots": self.snapshots,
            "recoveries": self.recoveries,
            "view_builds": self.view_builds,
            "view_build_ms": round(self.view_build_seconds * 1e3, 3),
            "queue_depth": queue_depth,
            "write_latency_ms": self.write_latency.percentiles(),
            "query_latency_ms": self.query_latency.percentiles(),
        }


@dataclass
class ServerMetrics:
    """Process-global counters of the serving layer."""

    started_at: float = field(default_factory=time.monotonic)
    connections: int = 0
    requests: int = 0
    bad_requests: int = 0
    internal_errors: int = 0
    evictions: int = 0

    def snapshot_dict(self) -> dict:
        uptime = time.monotonic() - self.started_at
        return {
            "uptime_seconds": round(uptime, 3),
            "connections": self.connections,
            "requests": self.requests,
            "requests_per_second": round(
                self.requests / uptime if uptime > 0 else 0.0, 1
            ),
            "bad_requests": self.bad_requests,
            "internal_errors": self.internal_errors,
            "evictions": self.evictions,
        }
