"""Latency rings and counters: windows, percentiles, roll-ups."""

from __future__ import annotations

import pytest

from repro.serving.metrics import LatencyRing, ServerMetrics, TenantMetrics


class TestLatencyRing:
    def test_empty_ring_reports_zeros(self):
        assert LatencyRing().percentiles() == {
            "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0,
        }

    def test_nearest_rank_percentiles(self):
        ring = LatencyRing()
        for ms in range(1, 101):  # 1ms..100ms
            ring.record(ms / 1000)
        stats = ring.percentiles()
        assert stats == {"p50": 50.0, "p95": 95.0, "p99": 99.0, "max": 100.0}

    def test_single_sample(self):
        ring = LatencyRing()
        ring.record(0.002)
        assert ring.percentiles() == {
            "p50": 2.0, "p95": 2.0, "p99": 2.0, "max": 2.0,
        }

    def test_window_evicts_oldest_samples(self):
        ring = LatencyRing(capacity=4)
        for seconds in (9.0, 9.0, 9.0, 9.0, 0.001, 0.001, 0.001, 0.001):
            ring.record(seconds)
        assert ring.percentiles()["max"] == 1.0  # ms; the 9s era is gone
        assert ring.count == 8
        assert len(ring) == 4

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            LatencyRing(capacity=0)


class TestTenantMetrics:
    def test_snapshot_dict_shape_and_batch_mean(self):
        metrics = TenantMetrics()
        metrics.upserts = 6
        metrics.deletes = 2
        metrics.batches = 2
        metrics.batched_ops = 8
        metrics.write_latency.record(0.001)
        snapshot = metrics.snapshot_dict(queue_depth=3)
        assert snapshot["upserts"] == 6
        assert snapshot["queue_depth"] == 3
        assert snapshot["mean_batch_size"] == 4.0
        assert snapshot["write_latency_ms"]["p50"] == 1.0
        assert metrics.writes == 8

    def test_snapshot_dict_reports_view_builds(self):
        metrics = TenantMetrics(view_builds=3, view_build_seconds=0.0125)
        snapshot = metrics.snapshot_dict()
        assert snapshot["view_builds"] == 3
        assert snapshot["view_build_ms"] == 12.5

    def test_zero_batches_mean_is_zero(self):
        assert TenantMetrics().snapshot_dict()["mean_batch_size"] == 0.0


class TestServerMetrics:
    def test_snapshot_dict_reports_rate(self):
        metrics = ServerMetrics()
        metrics.requests = 10
        snapshot = metrics.snapshot_dict()
        assert snapshot["requests"] == 10
        assert snapshot["uptime_seconds"] >= 0
        assert snapshot["requests_per_second"] >= 0
        assert set(snapshot) == {
            "uptime_seconds", "connections", "requests",
            "requests_per_second", "bad_requests", "internal_errors",
            "evictions",
        }
