"""Server semantics: exactness mid-stream, backpressure, lifecycle.

The acceptance bar for the service (ISSUE 5): a live server answering
``estimate`` / ``topk`` while ingestion continues returns *exactly*
what an offline summary fed the same acknowledged prefix returns.  The
read barrier makes that deterministic, so these are equality asserts,
not tolerance checks.
"""

from __future__ import annotations

import asyncio
import random

import numpy as np
import pytest

from repro.core.topk import _BATCH_CROSSOVER
from repro.hashing.vectorized import encode_keys
from repro.service.client import (
    AsyncServiceClient,
    OverloadedError,
    ServiceError,
)
from repro.service.protocol import pack_binary_ingest, unpack_frame
from repro.service.server import SketchServer
from repro.service.tables import ServiceTable, TableSpec
from repro.store import dumps

KINDS = ["sketch", "vectorized", "topk", "window"]


def spec_for(kind: str, name: str = "t") -> TableSpec:
    return TableSpec(
        name, kind=kind, depth=4, width=128, seed=3, k=8, window=64,
        buckets=4,
    )


def run(coro):
    return asyncio.run(coro)


class TestMidStreamExactness:
    """Live answers equal the offline summary on the ingested prefix."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_interleaved_queries_match_offline(self, kind):
        async def go():
            spec = spec_for(kind)
            server = SketchServer([spec])
            client = AsyncServiceClient.in_process(server)
            offline = spec.build()
            rng = random.Random(42)
            stream = [f"item-{rng.randrange(40)}" for __ in range(600)]
            probes = [f"item-{i}" for i in range(40)] + ["never-seen"]
            for start in range(0, len(stream), 50):
                chunk = stream[start:start + 50]
                await client.ingest_items(spec.name, chunk)
                for item in chunk:
                    offline.update(item, 1)
                live = await client.estimate(spec.name, probes)
                assert live == [float(offline.estimate(p)) for p in probes]
                if kind == "topk":
                    live_top = await client.topk(spec.name)
                    assert live_top == [
                        (item, float(count))
                        for item, count in offline.top()
                    ]
            stats = await client.stats(spec.name)
            assert stats["table"]["records_applied"] == len(stream)
            await server.stop()

        run(go())

    def test_weighted_and_negative_counts_on_linear_tables(self):
        async def go():
            spec = spec_for("sketch")
            server = SketchServer([spec])
            client = AsyncServiceClient.in_process(server)
            offline = spec.build()
            records = [("a", 5), ("b", 3), ("a", -2), ("c", 7), ("b", -3)]
            await client.ingest(spec.name, records)
            for item, count in records:
                offline.update(item, count)
            live = await client.estimate(spec.name, ["a", "b", "c"])
            assert live == [
                float(offline.estimate(k)) for k in ("a", "b", "c")
            ]
            await server.stop()

        run(go())

    def test_mixed_key_types_roundtrip_through_ingest(self):
        async def go():
            spec = spec_for("sketch")
            server = SketchServer([spec])
            client = AsyncServiceClient.in_process(server)
            offline = spec.build()
            keys = ["text", 42, b"\x00\xff", ("flow", 8080), True]
            await client.ingest(spec.name, [(k, 2) for k in keys])
            for key in keys:
                offline.update(key, 2)
            assert await client.estimate(spec.name, keys) == [
                float(offline.estimate(k)) for k in keys
            ]
            await server.stop()

        run(go())

    def test_mixed_key_types_batch_estimate_on_vectorized_table(self):
        # A vectorized table answers each request with one
        # estimate_batch; every key type must land where the offline
        # per-key estimate puts it.
        async def go():
            spec = spec_for("vectorized")
            server = SketchServer([spec])
            client = AsyncServiceClient.in_process(server)
            offline = spec.build()
            keys = ["text", 42, b"\x00\xff", ("flow", 8080), True]
            await client.ingest(spec.name, [(k, 2) for k in keys])
            for key in keys:
                offline.update(key, 2)
            mixed = [*keys, 1, -7, "absent"]
            # All-int requests take encode_keys' integer fast path.
            ints = [42, 1, -7, 2**63, 2**70]
            for probes in (mixed, ints):
                assert await client.estimate(spec.name, probes) == [
                    float(offline.estimate(k)) for k in probes
                ]
            await server.stop()

        run(go())

    @pytest.mark.parametrize("kind", ["sketch", "topk"])
    def test_mixed_key_types_batch_reads_on_polynomial_tables(self, kind):
        # The paper-family tables read estimate_rows (and, for sketch
        # tables, estimate) as one batch; every key type must land
        # where the offline per-key scalar path puts it.
        async def go():
            spec = spec_for(kind)
            server = SketchServer([spec])
            client = AsyncServiceClient.in_process(server)
            offline = spec.build()
            sketch = offline.sketch if kind == "topk" else offline
            keys = ["text", 42, b"\x00\xff", ("flow", 8080), True]
            await client.ingest(spec.name, [(k, 2) for k in keys])
            for key in keys:
                offline.update(key, 2)
            mixed = [*keys, 1, -7, "absent"]
            ints = [42, 1, -7, 2**63, 2**70]
            for probes in (mixed, ints):
                assert await client.estimate(spec.name, probes) == [
                    float(offline.estimate(k)) for k in probes
                ]
                assert await client.estimate_rows(spec.name, probes) == [
                    sketch.row_values(k) for k in probes
                ]
            await server.stop()

        run(go())


    def test_topk_snapshot_bytes_equal_a_per_item_feed(self):
        # One ingest far above the batch crossover, then ingests below
        # it, each applied before the next is sent: the served tracker
        # goes through both apply paths and must end, byte for byte,
        # where an offline tracker fed one record at a time ends.
        async def go():
            spec = spec_for("topk")
            server = SketchServer([spec])
            client = AsyncServiceClient.in_process(server)
            rng = random.Random(5)
            pool = [*(f"q-{i}" for i in range(300)), *range(-40, 40),
                    2**64 + 1, b"\x00\xff", ("flow", 80), 1.0, True]

            def draw(size: int) -> list[tuple[object, int]]:
                return [(pool[int(rng.paretovariate(1.0)) % len(pool)],
                         rng.randint(1, 4)) for _ in range(size)]

            batches = [draw(5000)] + [draw(rng.randint(1, _BATCH_CROSSOVER - 1))
                                      for _ in range(12)]
            offline = spec.build()
            for batch in batches:
                await client.ingest(spec.name, batch, wait=True)
                for item, count in batch:
                    offline.update(item, count)
            assert dumps(server.tables[spec.name].summary) == dumps(offline)
            await server.stop()

        run(go())


class TestRequestValidation:
    def test_unknown_op_is_bad_request(self):
        async def go():
            server = SketchServer([spec_for("sketch")])
            response = await server.dispatch({"op": "explode", "id": 9})
            assert response["ok"] is False
            assert response["error"]["code"] == "bad_request"
            assert response["id"] == 9
            await server.stop()

        run(go())

    def test_missing_table_is_no_such_table(self):
        async def go():
            server = SketchServer([spec_for("sketch")])
            client = AsyncServiceClient.in_process(server)
            with pytest.raises(ServiceError) as excinfo:
                await client.estimate("ghost", ["a"])
            assert excinfo.value.code == "no_such_table"
            await server.stop()

        run(go())

    @pytest.mark.parametrize("kind", ["topk", "window"])
    def test_negative_counts_refused_on_insert_only_tables(self, kind):
        async def go():
            server = SketchServer([spec_for(kind)])
            client = AsyncServiceClient.in_process(server)
            with pytest.raises(ServiceError) as excinfo:
                await client.ingest("t", [("a", -1)])
            assert excinfo.value.code == "bad_request"
            assert "insert-only" in excinfo.value.message
            await server.stop()

        run(go())

    def test_zero_and_malformed_records_refused(self):
        async def go():
            server = SketchServer([spec_for("sketch")])
            client = AsyncServiceClient.in_process(server)
            with pytest.raises(ServiceError, match="zero count"):
                await client.ingest("t", [("a", 0)])
            # Records enter through binary frames only: a JSON ingest
            # request is an unknown op.
            response = await server.dispatch(
                {"op": "ingest", "table": "t", "records": [["a", 1]]}
            )
            assert response["error"]["code"] == "bad_request"
            assert "unknown op 'ingest'" in response["error"]["message"]
            assert server.tables["t"].enqueued_seq == 0
            # Nothing was enqueued by any refused request.
            stats = await client.stats("t")
            assert stats["table"]["records_applied"] == 0
            await server.stop()

        run(go())

    def test_topk_requires_a_topk_table(self):
        async def go():
            server = SketchServer([spec_for("sketch")])
            client = AsyncServiceClient.in_process(server)
            with pytest.raises(ServiceError) as excinfo:
                await client.topk("t")
            assert excinfo.value.code == "bad_request"
            await server.stop()

        run(go())

    def test_internal_fault_barrier_keeps_server_alive(self):
        async def go():
            server = SketchServer([spec_for("sketch")])
            client = AsyncServiceClient.in_process(server)
            # Metrics with a bogus format object: survives as an error
            # response, then the server still answers pings.
            response = await server.dispatch(
                {"op": "metrics", "format": ["boom"]}
            )
            assert response["ok"] is False
            assert (await client.ping())["ok"] is True
            await server.stop()

        run(go())


class TestTableLifecycle:
    def test_create_is_idempotent_for_identical_specs(self):
        async def go():
            server = SketchServer()
            client = AsyncServiceClient.in_process(server)
            spec = spec_for("topk", "live")
            assert await client.create_table(spec) is True
            assert await client.create_table(spec) is False
            with pytest.raises(ServiceError) as excinfo:
                await client.create_table(
                    TableSpec("live", kind="topk", k=99)
                )
            assert excinfo.value.code == "table_exists"
            await server.stop()

        run(go())

    def test_drop_table_reports_applied_records(self):
        async def go():
            server = SketchServer([spec_for("sketch")])
            client = AsyncServiceClient.in_process(server)
            await client.ingest_items("t", ["a", "b", "a"])
            assert await client.drop_table("t") == 3
            with pytest.raises(ServiceError) as excinfo:
                await client.estimate("t", ["a"])
            assert excinfo.value.code == "no_such_table"
            await server.stop()

        run(go())

    def test_ping_and_server_stats_shape(self):
        async def go():
            server = SketchServer([spec_for("sketch", "a"),
                                   spec_for("topk", "b")])
            client = AsyncServiceClient.in_process(server)
            info = await client.ping()
            assert info["version"] == 2
            assert info["tables"] == 2
            assert info["accepting"] is True
            stats = await client.stats()
            assert set(stats["tables"]) == {"a", "b"}
            assert stats["server"]["tables"] == 2
            assert stats["server"]["checkpoint_dir"] is None
            await server.stop()

        run(go())

    def test_metrics_op_exports_both_formats(self):
        async def go():
            server = SketchServer([spec_for("sketch", "queries")])
            client = AsyncServiceClient.in_process(server)
            await client.ingest_items("queries", ["a", "b"], wait=True)
            body = await client.metrics()
            assert "service_requests_total" in body
            assert "service_table_queries_applied_records_total" in body
            json_body = await client.metrics("json")
            assert "service_requests_total" in json_body
            with pytest.raises(ServiceError, match="unknown metrics"):
                await client.metrics("xml")
            await server.stop()

        run(go())


class TestBackpressure:
    def test_overload_is_explicit_and_all_or_nothing(self):
        async def go():
            spec = spec_for("sketch")
            server = SketchServer([spec], queue_capacity=1)
            client = AsyncServiceClient.in_process(server)
            table = server.tables["t"]
            table.pause()
            first = await client.ingest_items("t", ["a"])
            # Let the paused applier park holding batch 1, emptying the
            # queue; batch 2 then fills it and batch 3 must be refused.
            for __ in range(3):
                await asyncio.sleep(0)
            second = await client.ingest_items("t", ["b"])
            assert (first, second) == (1, 2)
            with pytest.raises(OverloadedError) as excinfo:
                await client.ingest_items("t", ["c"])
            assert excinfo.value.details["capacity"] == 1
            # The refused batch left no partial state behind.
            table.resume()
            assert await client.estimate("t", ["a", "b", "c"]) == [
                1.0, 1.0, 0.0,
            ]
            stats = await client.stats("t")
            assert stats["table"]["records_applied"] == 2
            await server.stop()

        run(go())

    def test_wait_true_applies_before_returning(self):
        async def go():
            server = SketchServer([spec_for("sketch")])
            client = AsyncServiceClient.in_process(server)
            seq = await client.ingest_items("t", ["a", "a"], wait=True)
            table = server.tables["t"]
            assert table.applied_seq >= seq
            assert table.records_applied == 2
            await server.stop()

        run(go())

    def test_pause_and_resume_are_observable(self):
        async def go():
            server = SketchServer([spec_for("sketch")])
            client = AsyncServiceClient.in_process(server)
            table = server.tables["t"]
            table.pause()
            stats = await client.stats("t")
            assert stats["table"]["paused"] is True
            table.resume()
            stats = await client.stats("t")
            assert stats["table"]["paused"] is False
            await server.stop()

        run(go())


class TestShutdown:
    def test_stopped_server_refuses_new_work(self):
        async def go():
            server = SketchServer([spec_for("sketch")])
            client = AsyncServiceClient.in_process(server)
            await client.ingest_items("t", ["a"])
            await server.stop()
            frame = pack_binary_ingest(
                "t", 1, encode_keys(["b"]), np.ones(1, dtype=np.int64),
                raw=True,
            )
            response = await server.dispatch_binary(unpack_frame(frame))
            assert response["error"]["code"] == "shutting_down"
            response = await server.dispatch(
                {"op": "create_table", "spec": {"name": "late"}}
            )
            assert response["error"]["code"] == "shutting_down"
            # Reads still work against the drained state.
            assert await client.estimate("t", ["a"]) == [1.0]

        run(go())

    def test_stop_is_idempotent(self):
        async def go():
            server = SketchServer([spec_for("sketch")])
            await server.stop()
            await server.stop()
            await server.wait_stopped()

        run(go())

    def test_shutdown_op_drains_acknowledged_batches(self):
        async def go():
            server = SketchServer([spec_for("sketch")])
            client = AsyncServiceClient.in_process(server)
            await client.ingest_items("t", ["a"] * 10)
            await client.shutdown()
            await server.wait_stopped()
            assert server.tables["t"].records_applied == 10

        run(go())


class TestTableSpecValidation:
    def test_rejects_bad_names_kinds_and_sizes(self):
        with pytest.raises(ValueError, match="invalid table name"):
            TableSpec("-bad")
        with pytest.raises(ValueError, match="unknown table kind"):
            TableSpec("t", kind="bloom")
        with pytest.raises(ValueError, match="at least 1"):
            TableSpec("t", depth=0)
        with pytest.raises(ValueError, match="integer"):
            TableSpec("t", width=True)

    def test_dict_roundtrip_and_unknown_fields(self):
        spec = spec_for("window", "w")
        assert TableSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ValueError, match="unknown table spec"):
            TableSpec.from_dict({"name": "w", "flavor": "mint"})
        with pytest.raises(ValueError, match="requires a name"):
            TableSpec.from_dict({"kind": "sketch"})

    def test_service_table_rejects_mismatched_summary(self):
        from repro.observability.registry import MetricsRegistry

        spec = spec_for("topk")
        with pytest.raises(ValueError, match="expects"):
            ServiceTable(
                spec, MetricsRegistry(),
                summary=spec_for("sketch").build(),
            )
