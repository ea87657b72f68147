"""Tenant actors and the registry: batching, backpressure, LRU, recovery."""

from __future__ import annotations

import asyncio
import json

import pytest

from _serving_helpers import ROWS, serving_config, state_of

from repro.serving import (
    TenantClosedError,
    TenantOverloadedError,
    TenantRegistry,
)
from repro.serving.protocol import parse_request
from repro.serving.tenant import JOURNAL_NAME, SNAPSHOT_NAME


def upsert_request(tenant: str, pid: str, attributes: list):
    return parse_request(json.dumps(
        {"v": "upsert", "tenant": tenant, "id": pid, "attributes": attributes}
    ))


def delete_request(tenant: str, pid: str):
    return parse_request(json.dumps(
        {"v": "delete", "tenant": tenant, "id": pid}
    ))


async def fill(tenant, rows=ROWS) -> None:
    for pid, attributes in rows:
        await tenant.submit(upsert_request(tenant.tenant_id, pid, attributes))


class TestTenantActor:
    def test_writes_apply_in_order_and_queries_interleave(self, tmp_path):
        async def scenario():
            registry = TenantRegistry(tmp_path, serving_config())
            tenant = await registry.get("t1")
            await fill(tenant)
            result = await tenant.query("p1", 5, 0)
            assert [c.profile_id for c in result] == ["p2"]
            deleted = await tenant.submit(delete_request("t1", "p2"))
            assert deleted == {"op": "delete", "id": "p2", "applied": True}
            assert await tenant.query("p1", 5, 0) == []
            ghost = await tenant.submit(delete_request("t1", "ghost"))
            assert ghost["applied"] is False
            assert tenant.metrics.upserts == 4
            assert tenant.metrics.deletes == 2
            assert tenant.metrics.queries == 2
            await registry.close_all()

        asyncio.run(scenario())

    def test_full_queue_raises_overloaded(self, tmp_path):
        async def scenario():
            config = serving_config(serve_max_queue=4, serve_batch_size=1)
            registry = TenantRegistry(tmp_path, config)
            tenant = await registry.get("t1")
            futures = []
            async with tenant.lock:  # stall the writer mid-batch
                futures.append(tenant.submit(
                    upsert_request("t1", "p0", [["name", "x y"]])
                ))
                # Yield until the writer task holds p0 and waits on the lock.
                while tenant.queue_depth:
                    await asyncio.sleep(0)
                for i in range(4):
                    futures.append(tenant.submit(
                        upsert_request("t1", f"p{i + 1}", [["name", "x y"]])
                    ))
                with pytest.raises(TenantOverloadedError, match="back off"):
                    tenant.submit(
                        upsert_request("t1", "p9", [["name", "x y"]])
                    )
            results = await asyncio.gather(*futures)
            assert all(r["applied"] for r in results)
            assert tenant.metrics.overloads == 1
            assert tenant.session.index.num_profiles == 5
            await registry.close_all()

        asyncio.run(scenario())

    def test_pipelined_writes_batch(self, tmp_path):
        async def scenario():
            config = serving_config(serve_max_queue=64, serve_batch_size=16)
            registry = TenantRegistry(tmp_path, config)
            tenant = await registry.get("t1")
            async with tenant.lock:  # let the queue build before draining
                futures = [
                    tenant.submit(
                        upsert_request("t1", f"p{i}", [["name", "a b"]])
                    )
                    for i in range(20)
                ]
            await asyncio.gather(*futures)
            assert tenant.metrics.batched_ops == 20
            # 20 ops cannot have gone one-per-batch: the stalled queue
            # must have produced at least one multi-op batch.
            assert tenant.metrics.batches < 20
            await registry.close_all()

        asyncio.run(scenario())

    def test_snapshot_interval_snapshots_during_writes(self, tmp_path):
        async def scenario():
            config = serving_config(serve_snapshot_interval=2)
            registry = TenantRegistry(tmp_path, config)
            tenant = await registry.get("t1")
            await fill(tenant)
            await tenant.queue.join()
            assert tenant.metrics.snapshots >= 1
            assert registry.snapshot_path("t1").exists()
            await registry.close_all()

        asyncio.run(scenario())


class TestRegistry:
    def test_lazy_open_creates_layout_and_attaches_journal(self, tmp_path):
        async def scenario():
            registry = TenantRegistry(tmp_path, serving_config())
            tenant = await registry.get("t1")
            assert tenant.session.journal_path == tmp_path / "t1" / JOURNAL_NAME
            assert (tmp_path / "t1").is_dir()
            assert registry.known_tenants() == ["t1"]
            assert await registry.get("t1") is tenant
            await registry.close_all()

        asyncio.run(scenario())

    def test_concurrent_first_touch_opens_once(self, tmp_path):
        async def scenario():
            registry = TenantRegistry(tmp_path, serving_config())
            first, second = await asyncio.gather(
                registry.get("t1"), registry.get("t1")
            )
            assert first is second
            await registry.close_all()

        asyncio.run(scenario())

    def test_lru_eviction_snapshots_and_reattach_recovers(self, tmp_path):
        async def scenario():
            config = serving_config(serve_resident_tenants=2)
            registry = TenantRegistry(tmp_path, config)
            t1 = await registry.get("t1")
            await fill(t1)
            expected = state_of(t1.session)
            await registry.get("t2")
            assert registry.resident == ["t1", "t2"]
            await registry.get("t3")  # evicts t1, the least recently used
            assert registry.resident == ["t2", "t3"]
            assert registry.server_metrics.evictions == 1
            assert registry.snapshot_path("t1").exists()
            # Reattach: state identical, counters carried over.
            t1_again = await registry.get("t1")
            assert t1_again is not t1
            assert state_of(t1_again.session) == expected
            assert t1_again.metrics.upserts == 4
            assert t1_again.metrics.recoveries == 1
            await registry.close_all()

        asyncio.run(scenario())

    def test_touch_refreshes_lru_order(self, tmp_path):
        async def scenario():
            config = serving_config(serve_resident_tenants=2)
            registry = TenantRegistry(tmp_path, config)
            await registry.get("t1")
            await registry.get("t2")
            await registry.get("t1")  # t2 is now the LRU
            await registry.get("t3")
            assert registry.resident == ["t1", "t3"]
            await registry.close_all()

        asyncio.run(scenario())

    def test_close_all_refuses_new_tenants(self, tmp_path):
        async def scenario():
            registry = TenantRegistry(tmp_path, serving_config())
            tenant = await registry.get("t1")
            await fill(tenant)
            await registry.close_all()
            assert registry.snapshot_path("t1").exists()
            with pytest.raises(TenantClosedError, match="shutting down"):
                await registry.get("t1")
            with pytest.raises(TenantClosedError, match="draining"):
                tenant.submit(delete_request("t1", "p1"))

        asyncio.run(scenario())

    def test_crash_close_recovers_from_journal_alone(self, tmp_path):
        async def scenario():
            registry = TenantRegistry(tmp_path, serving_config())
            tenant = await registry.get("t1")
            await fill(tenant)
            expected = state_of(tenant.session)
            await registry.close_all(snapshot=False)  # crash-like
            assert not registry.snapshot_path("t1").exists()
            assert registry.journal_path("t1").stat().st_size > 0

            fresh = TenantRegistry(tmp_path, serving_config())
            recovered = await fresh.get("t1")
            assert state_of(recovered.session) == expected
            assert recovered.metrics.recoveries == 1
            await fresh.close_all()

        asyncio.run(scenario())

    def test_session_factory_shapes_fresh_tenants(self, tmp_path):
        async def scenario():
            from repro.streaming import StreamingSession

            config = serving_config()
            made = []

            def factory() -> StreamingSession:
                session = StreamingSession(config, clean_clean=True)
                made.append(session)
                return session

            registry = TenantRegistry(
                tmp_path, config, session_factory=factory
            )
            tenant = await registry.get("t1")
            assert made == [tenant.session]
            await registry.close_all()

        asyncio.run(scenario())

    def test_apply_errors_resolve_the_future_not_the_actor(self, tmp_path):
        async def scenario():
            registry = TenantRegistry(tmp_path, serving_config())
            tenant = await registry.get("t1")
            real_upsert = tenant.session.upsert
            failures = iter([RuntimeError("boom")])

            def flaky_upsert(profile, source=0):
                error = next(failures, None)
                if error is not None:
                    raise error
                return real_upsert(profile, source)

            tenant.session.upsert = flaky_upsert
            with pytest.raises(RuntimeError, match="boom"):
                await tenant.submit(
                    upsert_request("t1", "p1", [["name", "x y"]])
                )
            # The actor survives and keeps applying later writes.
            result = await tenant.submit(
                upsert_request("t1", "p2", [["name", "x y"]])
            )
            assert result["applied"] is True
            await registry.close_all()

        asyncio.run(scenario())

    def test_stats_roll_up(self, tmp_path):
        async def scenario():
            registry = TenantRegistry(tmp_path, serving_config())
            t1 = await registry.get("t1")
            await fill(t1)
            await t1.query("p1", 5, 0)
            stats = registry.stats()
            assert stats["totals"]["upserts"] == 4
            assert stats["totals"]["queries"] == 1
            assert stats["totals"]["tenants_resident"] == 1
            assert "t1" in stats["tenants"]
            scoped = registry.stats("t1")
            assert scoped["t1"]["upserts"] == 4
            assert registry.stats("ghost") == {"ghost": {}}
            await registry.close_all()

        asyncio.run(scenario())

    def test_stats_report_view_builds(self, tmp_path):
        async def scenario():
            registry = TenantRegistry(tmp_path, serving_config())
            tenant = await registry.get("t1")
            await fill(tenant)
            await tenant.query("p1", 5, 0)
            await tenant.query("p2", 5, 0)  # same index version: no rebuild
            await tenant.submit(delete_request("t1", "p3"))
            await tenant.query("p1", 5, 0)
            stats = registry.stats("t1")["t1"]
            assert stats["view_builds"] == 2
            assert stats["view_build_ms"] > 0.0
            await registry.close_all()

        asyncio.run(scenario())

    def test_snapshot_name_constant_matches_layout(self, tmp_path):
        registry = TenantRegistry(tmp_path, serving_config())
        assert registry.snapshot_path("x").name == SNAPSHOT_NAME
        assert registry.journal_path("x").name == JOURNAL_NAME
