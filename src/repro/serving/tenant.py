"""Tenants: one StreamingSession per catalog, behind a single-writer actor.

A :class:`Tenant` pairs a :class:`~repro.streaming.StreamingSession` with
a bounded write queue and exactly one *writer task* — the only code that
ever mutates the session, which is how the serving layer satisfies the
session's single-writer contract (see
:class:`~repro.streaming.ConcurrentWriterError`) structurally rather
than by locking every call site.

Write path::

    submit() -> bounded asyncio.Queue -> writer task -> session.upsert()
       |                                     |
       overloaded when full                  batches up to serve_batch_size

``submit`` never waits: a full queue raises
:class:`TenantOverloadedError` immediately, which the server answers
with the ``overloaded`` error code — explicit backpressure instead of
unbounded memory growth.  The writer task drains the queue in batches of
at most ``serve_batch_size`` operations and yields the per-tenant lock
between batches, so a query never waits behind more than one batch even
under a write flood.

The :class:`TenantRegistry` maps tenant ids to resident tenants with an
LRU bound (``serve_resident_tenants``).  Tenants are opened lazily on
first touch, always through :meth:`StreamingSession.recover` — a cold
tenant with a snapshot and/or journal on disk is rebuilt to its exact
pre-shutdown (or pre-crash) state, a genuinely new tenant starts fresh
with its journal attached.  Evicted tenants are drained, snapshotted,
and closed; their counters survive in the registry and accumulate across
evict/reattach cycles.

Tenant lifecycle (see DESIGN.md "Serving layer" for the full state
machine)::

    cold --get()--> opening --recover()--> active --evict/shutdown--> draining
      ^                                                                  |
      +------------------- snapshot + close ----------------------------+
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from collections.abc import Callable
from pathlib import Path

from repro.core.config import BlastConfig
from repro.serving.metrics import ServerMetrics, TenantMetrics
from repro.serving.protocol import Request, validate_tenant_id
from repro.streaming.metablocker import Candidate
from repro.streaming.session import StreamingSession

__all__ = [
    "JOURNAL_NAME",
    "SNAPSHOT_NAME",
    "Tenant",
    "TenantClosedError",
    "TenantOverloadedError",
    "TenantRegistry",
]

#: On-disk layout of one tenant: ``<data_dir>/<tenant_id>/``.
SNAPSHOT_NAME = "snapshot.json.gz"
JOURNAL_NAME = "wal.jsonl"


class TenantOverloadedError(RuntimeError):
    """The tenant's write queue is full — the backpressure signal."""


class TenantClosedError(RuntimeError):
    """The tenant (or the whole server) is draining; no new work accepted."""


class Tenant:
    """One resident catalog: a session, its actor, and its bookkeeping.

    Do not construct directly — :meth:`TenantRegistry.get` owns creation,
    recovery, and eviction.  The writer task is started lazily on the
    first submit so a tenant opened only for queries costs no task.
    """

    def __init__(
        self,
        tenant_id: str,
        session: StreamingSession,
        metrics: TenantMetrics,
        *,
        snapshot_path: Path,
        max_queue: int,
        batch_size: int,
        snapshot_interval: int | None,
    ) -> None:
        self.tenant_id = tenant_id
        self.session = session
        self.metrics = metrics
        self.snapshot_path = snapshot_path
        self.batch_size = batch_size
        self.snapshot_interval = snapshot_interval
        #: Serializes the session between the writer task (per batch),
        #: queries (per query), and snapshots — the three legal accessors.
        self.lock = asyncio.Lock()
        self.queue: asyncio.Queue[tuple[Request, asyncio.Future, float]] = (
            asyncio.Queue(maxsize=max_queue)
        )
        self.closing = False
        #: Write operations applied since the last snapshot (dirtiness).
        self.ops_since_snapshot = 0
        self._writer_task: asyncio.Task | None = None

    # -- write path ----------------------------------------------------------

    def submit(self, request: Request) -> asyncio.Future:
        """Enqueue one write; resolves once the operation is applied.

        Raises :class:`TenantOverloadedError` when the queue is full and
        :class:`TenantClosedError` once the tenant started draining —
        both immediately, without blocking the caller.
        """
        if self.closing:
            raise TenantClosedError(
                f"tenant {self.tenant_id!r} is draining; retry later"
            )
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        try:
            self.queue.put_nowait((request, future, time.perf_counter()))
        except asyncio.QueueFull:
            self.metrics.overloads += 1
            raise TenantOverloadedError(
                f"tenant {self.tenant_id!r} write queue is full "
                f"({self.queue.maxsize} pending); back off and retry"
            ) from None
        if self._writer_task is None:
            self._writer_task = asyncio.create_task(
                self._writer_loop(), name=f"tenant-writer:{self.tenant_id}"
            )
        return future

    async def _writer_loop(self) -> None:
        """The single writer: drain the queue forever, one batch at a time."""
        while True:
            batch = [await self.queue.get()]
            while len(batch) < self.batch_size:
                try:
                    batch.append(self.queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            async with self.lock:
                for request, future, enqueued in batch:
                    try:
                        result = self._apply(request)
                    except Exception as exc:
                        if not future.done():
                            future.set_exception(exc)
                        else:  # client gone; surface the failure anyway
                            raise
                    else:
                        self.metrics.write_latency.record(
                            time.perf_counter() - enqueued
                        )
                        if not future.done():
                            future.set_result(result)
                    finally:
                        self.queue.task_done()
                self.metrics.batches += 1
                self.metrics.batched_ops += len(batch)
                if (
                    self.snapshot_interval is not None
                    and self.ops_since_snapshot >= self.snapshot_interval
                ):
                    await self._snapshot_locked()
            # The lock is released here: pending queries run before the
            # next batch is taken, bounding read latency by one batch.

    def _apply(self, request: Request) -> dict:
        """Apply one write to the session (writer task only)."""
        if request.verb == "upsert":
            assert request.profile is not None
            self.session.upsert(request.profile, request.source)
            self.metrics.upserts += 1
            self.ops_since_snapshot += 1
            return {"op": "upsert", "id": request.profile_id, "applied": True}
        assert request.verb == "delete"
        applied = self.session.delete(request.profile_id or "", request.source)
        self.metrics.deletes += 1
        if applied:
            self.ops_since_snapshot += 1
        return {"op": "delete", "id": request.profile_id, "applied": applied}

    # -- read path -----------------------------------------------------------

    async def query(
        self, profile_id: str, k: int | None, source: int
    ) -> list[Candidate]:
        """Arrival-time candidates, serialized with writes per tenant."""
        start = time.perf_counter()
        async with self.lock:
            blocker = self.session.metablocker
            builds, build_seconds = blocker.view_builds, blocker.view_build_seconds
            result = self.session.candidates(profile_id, k=k, source=source)
        self.metrics.view_builds += blocker.view_builds - builds
        self.metrics.view_build_seconds += blocker.view_build_seconds - build_seconds
        self.metrics.queries += 1
        self.metrics.query_latency.record(time.perf_counter() - start)
        return result

    # -- persistence ---------------------------------------------------------

    async def snapshot(self) -> None:
        """Write a snapshot now (takes the tenant lock)."""
        async with self.lock:
            await self._snapshot_locked()

    async def _snapshot_locked(self) -> None:
        # The blocking file write runs in a worker thread; the tenant
        # lock is held, so the actor cannot mutate the session meanwhile
        # and the event loop stays free for other tenants.
        await asyncio.to_thread(self.session.snapshot, self.snapshot_path)
        self.metrics.snapshots += 1
        self.ops_since_snapshot = 0

    async def close(self, *, snapshot: bool = True) -> None:
        """Drain pending writes, optionally snapshot, and close the session.

        Idempotent.  With ``snapshot=True`` (eviction, graceful shutdown)
        a dirty tenant is snapshotted after its queue drains, so the next
        attach restores instead of replaying a long journal tail.
        """
        if self.closing:
            return
        self.closing = True
        if self._writer_task is not None:
            await self.queue.join()
            # join() returns once the last batch is applied, which can be
            # *before* the writer finishes an interval snapshot it started
            # for that batch (task_done precedes the snapshot).  Take the
            # lock so a mid-flight snapshot completes instead of being
            # cancelled with its worker thread still writing the file.
            async with self.lock:
                self._writer_task.cancel()
            try:
                await self._writer_task
            except asyncio.CancelledError:
                pass
            self._writer_task = None
        if snapshot and self.ops_since_snapshot > 0:
            async with self.lock:
                await self._snapshot_locked()
        await asyncio.to_thread(self.session.close)

    @property
    def queue_depth(self) -> int:
        return self.queue.qsize()

    def stats(self) -> dict:
        return self.metrics.snapshot_dict(queue_depth=self.queue_depth)

    def __repr__(self) -> str:
        return (
            f"Tenant({self.tenant_id!r}, "
            f"profiles={self.session.index.num_profiles}, "
            f"queue={self.queue_depth})"
        )


class TenantRegistry:
    """Tenant id -> resident :class:`Tenant`, LRU-bounded, crash-recovering.

    Parameters
    ----------
    data_dir:
        Root of the per-tenant persistence layout
        (``<data_dir>/<tenant_id>/{snapshot.json.gz,wal.jsonl}``).
    config:
        Session tunables plus the ``serve_*`` knobs (queue bound, batch
        size, residency cap, snapshot interval).
    clean_clean:
        Whether *fresh* tenants index two-source streams.  Recovered
        tenants restore their kind from their own snapshot.
    session_factory:
        Override for building fresh (and journal-only-recovered)
        sessions; must **not** attach a journal — recovery attaches the
        tenant's journal itself.  Defaults to
        ``StreamingSession(config, clean_clean=clean_clean)``.
    """

    def __init__(
        self,
        data_dir: str | Path,
        config: BlastConfig | None = None,
        *,
        clean_clean: bool = False,
        session_factory: Callable[[], StreamingSession] | None = None,
        server_metrics: ServerMetrics | None = None,
    ) -> None:
        self.data_dir = Path(data_dir)
        self.config = config or BlastConfig()
        self.clean_clean = clean_clean
        self._session_factory = session_factory
        self.server_metrics = server_metrics or ServerMetrics()
        self._tenants: OrderedDict[str, Tenant] = OrderedDict()
        #: Counters outlive residency: evict + reattach keeps accumulating.
        self._metrics: dict[str, TenantMetrics] = {}
        self._open_locks: dict[str, asyncio.Lock] = {}
        self.closing = False

    # -- paths ---------------------------------------------------------------

    def tenant_dir(self, tenant_id: str) -> Path:
        return self.data_dir / tenant_id

    def snapshot_path(self, tenant_id: str) -> Path:
        return self.tenant_dir(tenant_id) / SNAPSHOT_NAME

    def journal_path(self, tenant_id: str) -> Path:
        return self.tenant_dir(tenant_id) / JOURNAL_NAME

    # -- residency -----------------------------------------------------------

    @property
    def resident(self) -> list[str]:
        """Resident tenant ids, least recently used first."""
        return list(self._tenants)

    def known_tenants(self) -> list[str]:
        """Every tenant with on-disk state or residency, sorted."""
        on_disk = {
            path.name
            for path in self.data_dir.glob("*")
            if path.is_dir()
        }
        return sorted(on_disk | set(self._tenants))

    async def get(self, tenant_id: str) -> Tenant:
        """The tenant, opened (and crash-recovered) on first touch.

        Touching a tenant marks it most recently used; opening one past
        the residency cap evicts the least recently used resident first
        (drain -> snapshot -> close).
        """
        if self.closing:
            raise TenantClosedError("server is shutting down")
        tenant_id = validate_tenant_id(tenant_id)
        tenant = self._tenants.get(tenant_id)
        if tenant is not None and not tenant.closing:
            self._tenants.move_to_end(tenant_id)
            return tenant
        # One opener per tenant: concurrent first touches of the same id
        # must not race two recoveries over the same journal.
        open_lock = self._open_locks.setdefault(tenant_id, asyncio.Lock())
        async with open_lock:
            tenant = self._tenants.get(tenant_id)
            if tenant is not None and not tenant.closing:
                self._tenants.move_to_end(tenant_id)
                return tenant
            tenant = await self._open(tenant_id)
            self._tenants[tenant_id] = tenant
        await self._enforce_residency()
        return tenant

    async def _open(self, tenant_id: str) -> Tenant:
        snap = self.snapshot_path(tenant_id)
        journal = self.journal_path(tenant_id)
        had_state = snap.exists() or (
            journal.exists() and journal.stat().st_size > 0
        )
        await asyncio.to_thread(
            self.tenant_dir(tenant_id).mkdir, parents=True, exist_ok=True
        )
        # recover() covers every attach uniformly: snapshot + journal
        # tail when state exists, a factory-fresh session (journal
        # attached, empty journal replayed) when it does not.
        session = await asyncio.to_thread(
            StreamingSession.recover,
            snap,
            journal,
            session_factory=self._fresh_session,
        )
        metrics = self._metrics.setdefault(tenant_id, TenantMetrics())
        if had_state:
            metrics.recoveries += 1
        return Tenant(
            tenant_id,
            session,
            metrics,
            snapshot_path=snap,
            max_queue=self.config.serve_max_queue,
            batch_size=self.config.serve_batch_size,
            snapshot_interval=self.config.serve_snapshot_interval,
        )

    def _fresh_session(self) -> StreamingSession:
        if self._session_factory is not None:
            return self._session_factory()
        return StreamingSession(self.config, clean_clean=self.clean_clean)

    async def _enforce_residency(self) -> None:
        while len(self._tenants) > self.config.serve_resident_tenants:
            victim_id, victim = next(iter(self._tenants.items()))
            del self._tenants[victim_id]
            await victim.close(snapshot=True)
            self.server_metrics.evictions += 1

    async def evict(self, tenant_id: str) -> bool:
        """Force one tenant back to cold storage; ``False`` if not resident."""
        tenant = self._tenants.pop(tenant_id, None)
        if tenant is None:
            return False
        await tenant.close(snapshot=True)
        self.server_metrics.evictions += 1
        return True

    async def close_all(self, *, snapshot: bool = True) -> None:
        """Graceful shutdown: drain, snapshot, and close every resident.

        New :meth:`get` calls fail with :class:`TenantClosedError` from
        the moment this starts; each tenant's queued writes are applied
        (and journaled) before its final snapshot.  ``snapshot=False``
        skips the final snapshots — the journals alone then carry the
        tail, exactly as after a crash.
        """
        self.closing = True
        while self._tenants:
            _, tenant = self._tenants.popitem(last=False)
            await tenant.close(snapshot=snapshot)

    # -- observability -------------------------------------------------------

    def stats(self, tenant_id: str | None = None) -> dict:
        """The ``stats`` payload: one tenant's, or the global roll-up."""
        if tenant_id is not None:
            tenant = self._tenants.get(tenant_id)
            if tenant is not None:
                return {tenant_id: tenant.stats()}
            metrics = self._metrics.get(tenant_id)
            return {
                tenant_id: metrics.snapshot_dict() if metrics else {}
            }
        tenants = {
            tid: tenant.stats() for tid, tenant in self._tenants.items()
        }
        totals = {
            "tenants_resident": len(self._tenants),
            "tenants_known": len(self.known_tenants()),
            "upserts": sum(m.upserts for m in self._metrics.values()),
            "deletes": sum(m.deletes for m in self._metrics.values()),
            "queries": sum(m.queries for m in self._metrics.values()),
            "overloads": sum(m.overloads for m in self._metrics.values()),
            "recoveries": sum(m.recoveries for m in self._metrics.values()),
            "queue_depth": sum(t.queue_depth for t in self._tenants.values()),
        }
        return {
            "server": self.server_metrics.snapshot_dict(),
            "totals": totals,
            "tenants": tenants,
        }
