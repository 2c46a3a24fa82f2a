"""Multi-tenant hardening: quotas, fair draining, connection caps.

The hardening contract (ISSUE 10): every limit is off by default, every
refusal is an explicit documented wire error (``quota_exceeded`` /
``overloaded``) and all-or-nothing — an acknowledged write is never
silently dropped, and estimates stay bit-equal to an offline summary
over the acknowledged prefix whatever the limits are doing.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.observability.registry import MetricsRegistry
from repro.service.client import (
    AsyncServiceClient,
    OverloadedError,
    QuotaExceededError,
    ServiceError,
)
from repro.service.limits import (
    ServiceLimits,
    TableQuotaExceededError,
    TokenBucket,
    WeightedFairScheduler,
)
from repro.service.server import SketchServer
from repro.service.tables import (
    ServiceTable,
    TableOverloadedError,
    TableSpec,
)


def spec_for(name: str = "t") -> TableSpec:
    return TableSpec(name, kind="sketch", depth=4, width=128, seed=3)


def run(coro):
    return asyncio.run(coro)


class FakeClock:
    """Deterministic injectable clock for bucket tests."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTokenBucket:
    def test_starts_full_and_refuses_past_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(10.0, 5.0, clock=clock)
        assert bucket.tokens == 5.0
        assert bucket.try_take(5)
        assert not bucket.try_take(1)

    def test_take_is_all_or_nothing(self):
        clock = FakeClock()
        bucket = TokenBucket(10.0, 5.0, clock=clock)
        assert bucket.try_take(3)
        assert not bucket.try_take(3)  # only 2 left; nothing consumed
        assert bucket.try_take(2)

    def test_continuous_refill_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(10.0, 5.0, clock=clock)
        assert bucket.try_take(5)
        clock.advance(0.25)  # 2.5 tokens back
        assert not bucket.try_take(3)
        assert bucket.try_take(2)
        clock.advance(100.0)  # refill clamps at burst
        assert not bucket.try_take(6)
        assert bucket.try_take(5)

    def test_retry_after_is_exact_or_none(self):
        clock = FakeClock()
        bucket = TokenBucket(10.0, 5.0, clock=clock)
        assert bucket.retry_after(5) == 0.0
        assert bucket.try_take(5)
        assert bucket.retry_after(3) == pytest.approx(0.3)
        # More than burst can never be granted: no finite retry time.
        assert bucket.retry_after(6) is None

    def test_validation(self):
        with pytest.raises(ValueError, match="rate"):
            TokenBucket(0.0, 5.0)
        with pytest.raises(ValueError, match="burst"):
            TokenBucket(10.0, 0.0)


class TestWeightedFairScheduler:
    def test_budget_is_quantum_times_weight(self):
        scheduler = WeightedFairScheduler(64)
        scheduler.register("a", 1)
        scheduler.register("b", 3)
        assert scheduler.budget("a") == 64
        assert scheduler.budget("b") == 192

    def test_turns_granted_in_fifo_order(self):
        async def go():
            scheduler = WeightedFairScheduler(10)
            scheduler.register("a", 1)
            scheduler.register("b", 2)
            order: list[str] = []

            async def take(name: str) -> None:
                budget = await scheduler.acquire(name)
                order.append(name)
                assert budget == scheduler.budget(name)
                await asyncio.sleep(0)
                scheduler.release(name)

            first = asyncio.ensure_future(take("a"))
            await asyncio.sleep(0)  # "a" holds the turn
            second = asyncio.ensure_future(take("b"))
            third = asyncio.ensure_future(take("a"))
            await asyncio.gather(first, second, third)
            assert order == ["a", "b", "a"]

        run(go())

    def test_cancelled_waiter_wakes_the_next(self):
        async def go():
            scheduler = WeightedFairScheduler(10)
            scheduler.register("a", 1)
            scheduler.register("b", 1)
            await scheduler.acquire("a")
            waiter = asyncio.ensure_future(scheduler.acquire("b"))
            await asyncio.sleep(0)
            waiter.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiter
            scheduler.release("a")
            # The queue must not be wedged by the cancelled waiter.
            assert await asyncio.wait_for(
                scheduler.acquire("a"), timeout=1.0) == 10

        run(go())

    def test_forget_removes_queued_turn(self):
        async def go():
            scheduler = WeightedFairScheduler(10)
            scheduler.register("a", 1)
            scheduler.register("b", 1)
            await scheduler.acquire("a")
            scheduler.forget("b")
            scheduler.release("a")
            assert await asyncio.wait_for(
                scheduler.acquire("a"), timeout=1.0) == 10

        run(go())


class TestServiceLimits:
    def test_default_is_inert(self):
        limits = ServiceLimits()
        assert not limits.enabled
        assert limits.ingest_bucket() is None
        assert limits.query_bucket() is None

    def test_roundtrip_and_canonical_weights(self):
        limits = ServiceLimits(
            max_connections=8, ingest_rate=100.0, ingest_burst=200,
            query_rate=50.0, fair_quantum=64,
            weights=(("zz", 2), ("aa", 5)),
        )
        assert limits.enabled
        assert limits.weights == (("aa", 5), ("zz", 2))
        assert limits.weight_for("aa") == 5
        assert limits.weight_for("unlisted") == 1
        assert ServiceLimits.from_dict(limits.to_dict()) == limits

    def test_default_burst_is_one_second_of_rate(self):
        limits = ServiceLimits(ingest_rate=100.0)
        bucket = limits.ingest_bucket()
        assert bucket is not None
        assert bucket.burst == 100.0

    def test_validation(self):
        with pytest.raises(ValueError, match="max_connections"):
            ServiceLimits(max_connections=0)
        with pytest.raises(ValueError, match="ingest_rate"):
            ServiceLimits(ingest_rate=-1.0)
        with pytest.raises(ValueError, match="requires ingest_rate"):
            ServiceLimits(ingest_burst=10)
        with pytest.raises(ValueError, match="duplicate"):
            ServiceLimits(weights=(("a", 1), ("a", 2)))
        with pytest.raises(ValueError, match="unknown limits field"):
            ServiceLimits.from_dict({"velocity": 9})


class TestIngestQuota:
    def test_refusal_is_explicit_all_or_nothing_and_metered(self):
        async def go():
            registry = MetricsRegistry()
            limits = ServiceLimits(ingest_rate=1000.0, ingest_burst=10)
            server = SketchServer([spec_for()], limits=limits,
                                  registry=registry)
            client = AsyncServiceClient.in_process(server)
            await client.ingest("t", [(f"k{i}", 1) for i in range(10)])
            with pytest.raises(QuotaExceededError) as excinfo:
                await client.ingest(
                    "t", [(f"q{i}", 1) for i in range(8)])
            details = excinfo.value.details
            assert details["table"] == "t"
            assert details["op_kind"] == "ingest"
            assert details["retry_after"] > 0
            counter = registry.counter(
                "service_quota_t_ingest_refusals_total")
            assert counter.value == 1
            # The refused batch contributed nothing.
            estimates = await client.estimate(
                "t", [f"q{i}" for i in range(8)])
            offline = spec_for().build()
            for i in range(10):
                offline.update(f"k{i}", 1)
            assert estimates == [
                float(offline.estimate(f"q{i}")) for i in range(8)
            ]
            await server.stop()

        run(go())

    def test_batch_larger_than_burst_has_no_retry_after(self):
        async def go():
            limits = ServiceLimits(ingest_rate=1000.0, ingest_burst=4)
            server = SketchServer([spec_for()], limits=limits)
            client = AsyncServiceClient.in_process(server)
            with pytest.raises(QuotaExceededError) as excinfo:
                await client.ingest(
                    "t", [(f"k{i}", 1) for i in range(5)])
            assert "retry_after" not in excinfo.value.details
            assert "split the batch" in str(excinfo.value)
            await server.stop()

        run(go())

    def test_quota_refusal_is_not_retried_as_overloaded(self):
        async def go():
            limits = ServiceLimits(ingest_rate=1000.0, ingest_burst=4)
            server = SketchServer([spec_for()], limits=limits)
            client = AsyncServiceClient.in_process(server)
            batches = [[(f"k{i}", 1) for i in range(5)]]
            with pytest.raises(QuotaExceededError):
                await client.ingest_many("t", batches)
            await server.stop()

        run(go())

    def test_overloaded_refusal_spends_no_tokens(self):
        # A batch refused for a full queue was never enqueued, so it
        # must not cost quota — nor cost twice when it is retried.
        bucket = TokenBucket(1.0, 100.0, clock=FakeClock())
        table = ServiceTable(spec_for(), MetricsRegistry(),
                             queue_capacity=1, ingest_quota=bucket)
        table.try_enqueue(["a"] * 10, [1] * 10)
        assert bucket.tokens == 90
        for _ in range(3):
            with pytest.raises(TableOverloadedError):
                table.try_enqueue(["b"] * 10, [1] * 10)
        assert bucket.tokens == 90
        assert table.enqueued_seq == 1


class TestQueryQuota:
    def test_queries_charged_and_refused(self):
        async def go():
            registry = MetricsRegistry()
            limits = ServiceLimits(query_rate=1.0, query_burst=2)
            server = SketchServer([spec_for()], limits=limits,
                                  registry=registry)
            client = AsyncServiceClient.in_process(server)
            await client.estimate("t", ["a"])
            await client.estimate("t", ["b"])
            with pytest.raises(QuotaExceededError) as excinfo:
                await client.estimate("t", ["c"])
            assert excinfo.value.details["op_kind"] == "query"
            counter = registry.counter(
                "service_quota_t_query_refusals_total")
            assert counter.value == 1
            # Ingest is not charged against the query bucket.
            await client.ingest("t", [("a", 1)], wait=True)
            await server.stop()

        run(go())


class TestFairScheduling:
    def test_weighted_appliers_drain_everything_exactly(self):
        async def go():
            specs = [spec_for("a"), spec_for("b")]
            limits = ServiceLimits(fair_quantum=8, weights=(("b", 4),))
            registry = MetricsRegistry()
            server = SketchServer(specs, limits=limits,
                                  registry=registry)
            client = AsyncServiceClient.in_process(server)
            offline = {name: spec_for(name).build() for name in "ab"}
            for round_index in range(10):
                for name in "ab":
                    records = [
                        (f"{name}{round_index}-{i}", 1) for i in range(20)
                    ]
                    await client.ingest(name, records)
                    for item, count in records:
                        offline[name].update(item, count)
            for name in "ab":
                probes = [f"{name}0-{i}" for i in range(20)]
                live = await client.estimate(name, probes)
                assert live == [
                    float(offline[name].estimate(p)) for p in probes
                ]
                stats = await client.stats(name)
                assert stats["table"]["records_applied"] == 200
                turns = registry.counter(
                    f"service_quota_{name}_fair_turns_total")
                assert turns.value > 0
            await server.stop()

        run(go())


class TestConnectionCap:
    def test_excess_connection_gets_one_overloaded_frame(self):
        async def go():
            limits = ServiceLimits(max_connections=2)
            registry = MetricsRegistry()
            server = SketchServer([spec_for()], limits=limits,
                                  registry=registry)
            host, port = await server.start("127.0.0.1", 0)
            first = await AsyncServiceClient.connect(host, port)
            second = await AsyncServiceClient.connect(host, port)
            await first.ping()
            await second.ping()
            third = await AsyncServiceClient.connect(host, port)
            with pytest.raises(OverloadedError) as excinfo:
                await third.ping()
            assert excinfo.value.details["open_connections"] == 2
            await third.close()
            # Established connections are unaffected, and a freed slot
            # is reusable.
            await first.ping()
            await first.close()
            await asyncio.sleep(0.05)
            fourth = await AsyncServiceClient.connect(host, port)
            await fourth.ping()
            shed = registry.counter("service_shed_connections_total")
            assert shed.value == 1
            await fourth.close()
            await second.close()
            await server.stop()

        run(go())


class TestManifestPinning:
    def test_limits_pinned_and_adopted_on_resume(self, tmp_path):
        async def go():
            limits = ServiceLimits(ingest_rate=500.0, fair_quantum=32)
            server = SketchServer([spec_for()], limits=limits,
                                  checkpoint_dir=tmp_path)
            client = AsyncServiceClient.in_process(server)
            await client.ingest("t", [("a", 1)], wait=True)
            await server.stop()
            # None adopts the pinned limits.
            resumed = SketchServer(checkpoint_dir=tmp_path)
            assert resumed.limits == limits
            await resumed.stop()

        run(go())

    def test_explicit_limits_override_and_repin(self, tmp_path):
        async def go():
            server = SketchServer(
                [spec_for()],
                limits=ServiceLimits(ingest_rate=500.0),
                checkpoint_dir=tmp_path,
            )
            await server.stop()
            override = ServiceLimits(ingest_rate=900.0)
            tuned = SketchServer(checkpoint_dir=tmp_path,
                                 limits=override)
            assert tuned.limits == override
            await tuned.stop()
            adopted = SketchServer(checkpoint_dir=tmp_path)
            assert adopted.limits == override
            await adopted.stop()

        run(go())

    def test_unlimited_server_pins_nothing(self, tmp_path):
        async def go():
            server = SketchServer([spec_for()],
                                  checkpoint_dir=tmp_path)
            await server.stop()
            manifest = (tmp_path / "service.json").read_text()
            assert "limits" not in manifest
            resumed = SketchServer(checkpoint_dir=tmp_path)
            assert not resumed.limits.enabled
            await resumed.stop()

        run(go())

    def test_corrupt_pinned_limits_refused(self, tmp_path):
        import json

        from repro.store.format import StoreError

        async def go():
            server = SketchServer(
                [spec_for()],
                limits=ServiceLimits(ingest_rate=500.0),
                checkpoint_dir=tmp_path,
            )
            await server.stop()
            path = tmp_path / "service.json"
            manifest = json.loads(path.read_text())
            manifest["limits"] = {"velocity": 9}
            path.write_text(json.dumps(manifest))
            with pytest.raises(StoreError, match="limits"):
                SketchServer(checkpoint_dir=tmp_path)

        run(go())


class TestStatsExposure:
    def test_limits_and_quota_state_in_stats(self):
        async def go():
            limits = ServiceLimits(ingest_rate=100.0, query_rate=50.0,
                                   max_connections=4)
            server = SketchServer([spec_for()], limits=limits)
            client = AsyncServiceClient.in_process(server)
            stats = await client.stats()
            assert stats["server"]["limits"] == limits.to_dict()
            table = stats["tables"]["t"]
            assert table["ingest_quota"] == {"rate": 100.0,
                                             "burst": 100.0}
            assert table["query_quota"] == {"rate": 50.0, "burst": 50.0}
            await server.stop()

        run(go())

    def test_unlimited_stats_omit_limit_keys(self):
        async def go():
            server = SketchServer([spec_for()])
            client = AsyncServiceClient.in_process(server)
            stats = await client.stats()
            assert "limits" not in stats["server"]
            assert "ingest_quota" not in stats["tables"]["t"]
            await server.stop()

        run(go())


class TestTableQuotaExceededError:
    def test_message_carries_retry_guidance(self):
        error = TableQuotaExceededError("t", "ingest", 12, 0.5)
        assert error.retry_after == 0.5
        assert "retry" in str(error)
        hopeless = TableQuotaExceededError("t", "ingest", 1000, None)
        assert hopeless.retry_after is None
        assert "split the batch" in str(hopeless)
