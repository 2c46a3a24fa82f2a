"""Columnar ingest: the client and the coordinator carry a key column and
a count column, checked and encoded once per batch.

A bad count is refused as ``bad_request`` before anything is sent, so no
shard applies part of the batch; a raw-key batch is encoded once; and a
coordinator's key images reach its shards' frames as they are.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

import repro.service.client as client_module
import repro.service.protocol as protocol_module
from repro.cluster.coordinator import ClusterCoordinator
from repro.core.countsketch import CountSketch
from repro.service.client import AsyncServiceClient, ServiceError
from repro.service.server import SketchServer
from repro.service.tables import TableSpec

BAD_COUNTS = [1.5, True, float("nan"), 2**63, -(2**63)]


def spec_for(kind: str) -> TableSpec:
    return TableSpec("t", kind=kind, depth=4, width=128, seed=3, k=8)


def run(coro):
    return asyncio.run(coro)


async def shard_counts(cluster: ClusterCoordinator) -> list[tuple[int, int]]:
    """``(enqueued_seq, records_applied)`` per shard."""
    stats = await cluster.stats("t")
    return [(shard["table"]["enqueued_seq"], shard["table"]["records_applied"])
            for shard in stats["shards"]]


@pytest.mark.parametrize("bad", BAD_COUNTS, ids=repr)
@pytest.mark.parametrize("kind", ["sketch", "topk"])
class TestBadCountRefusedBeforeSending:
    def test_every_client_ingest_path(self, kind, bad):
        async def go():
            server = SketchServer([spec_for(kind)])
            client = AsyncServiceClient.in_process(server)
            await client.ingest("t", [("ok", 1)], wait=True)
            sends = [
                lambda: client.ingest("t", [("ok", 1), ("a", bad)]),
                lambda: client.ingest_many("t", [[("ok", 1)], [("a", bad)]]),
                lambda: client.ingest_items("t", ["ok", "a"], [1, bad]),
            ]
            for send in sends:
                with pytest.raises(ServiceError) as excinfo:
                    await send()
                assert excinfo.value.code == "bad_request"
            table = server.tables["t"]
            assert (table.enqueued_seq, table.records_applied) == (1, 1)
            await client.ingest("t", [("ok", 2)], wait=True)
            offline = spec_for(kind).build()
            offline.update("ok", 1)
            offline.update("ok", 2)
            assert await client.estimate("t", ["ok"]) == [
                float(offline.estimate("ok"))]
            assert table.records_applied == 2
            await server.stop()

        run(go())

    def test_cluster_ingest(self, kind, bad):
        async def go():
            servers = [SketchServer([spec_for(kind)]) for _ in range(3)]
            cluster = ClusterCoordinator.in_process(servers)
            items = [f"key-{i}" for i in range(24)]
            with pytest.raises(ServiceError) as excinfo:
                await cluster.ingest(
                    "t", [(item, 1) for item in items] + [("a", bad)])
            assert excinfo.value.code == "bad_request"
            assert await shard_counts(cluster) == [(0, 0)] * 3
            await cluster.ingest("t", [(item, 1) for item in items],
                                 wait=True)
            offline = CountSketch(4, 128, seed=3)
            offline.update_batch(items)
            assert await cluster.estimate("t", items[:5]) == [
                float(offline.estimate(item)) for item in items[:5]]
            assert sum(applied for _, applied in
                       await shard_counts(cluster)) == len(items)
            for server in servers:
                await server.stop()

        run(go())


#: Counts a table's own rule refuses: zero anywhere, and a negative
#: count on an insert-only table.
TABLE_RULE_COUNTS = [("sketch", 0), ("vectorized", 0), ("topk", 0), ("topk", -1)]


@pytest.mark.parametrize("kind, bad", TABLE_RULE_COUNTS)
class TestTableCountRuleBeforeSending:
    """A count the shards' rule refuses (``TableSpec.check_counts``) is
    refused by the client and the coordinator before any frame leaves,
    not after the frames and shards ahead of it were applied."""

    def test_a_split_batch_sends_nothing(self, kind, bad, monkeypatch):
        monkeypatch.setattr(protocol_module, "MAX_FRAME_BYTES", 16384)
        monkeypatch.setattr(client_module, "MAX_FRAME_BYTES", 16384)

        async def go():
            spec = spec_for(kind)
            server = SketchServer([spec])
            client = AsyncServiceClient.in_process(server)
            items = list(range(protocol_module.binary_ingest_capacity("t") + 10))
            counts = [1] * (len(items) - 1) + [bad]
            for send in (lambda: client.ingest_items("t", items, counts),
                         lambda: client.ingest_many(
                             "t", [list(zip(items[:-1], counts[:-1], strict=True)),
                                   [(items[-1], bad)]])):
                with pytest.raises(ServiceError) as excinfo:
                    await send()
                assert excinfo.value.code == "bad_request"
            table = server.tables["t"]
            assert (table.enqueued_seq, table.records_applied) == (0, 0)
            # The good records alone still take more than one frame.
            await client.ingest_items("t", items[:-1], wait=True)
            assert table.enqueued_seq > 1
            assert table.records_applied == len(items) - 1
            await server.stop()

        run(go())

    def test_cluster_ingest_sends_nothing(self, kind, bad):
        async def go():
            servers = [SketchServer([spec_for(kind)]) for _ in range(3)]
            cluster = ClusterCoordinator.in_process(servers)
            items = [f"key-{i}" for i in range(24)]
            with pytest.raises(ServiceError) as excinfo:
                await cluster.ingest(
                    "t", [(item, 1) for item in items] + [("a", bad)])
            assert excinfo.value.code == "bad_request"
            assert await shard_counts(cluster) == [(0, 0)] * 3
            for server in servers:
                await server.stop()

        run(go())


class TestCountColumns:
    @pytest.mark.parametrize("kind", ["sketch", "vectorized", "topk"])
    def test_counts_column_equals_pairs(self, kind):
        async def go():
            server = SketchServer([spec_for(kind)])
            client = AsyncServiceClient.in_process(server)
            items = [f"q{i % 13}" for i in range(300)]
            counts = [1 + i % 4 for i in range(300)]
            await client.ingest_items("t", items[:100], counts[:100])
            await client.ingest_items(
                "t", np.asarray(items[100:200]),
                np.asarray(counts[100:200], dtype=np.int64))
            await client.ingest("t", list(zip(items[200:], counts[200:],
                                              strict=True)), wait=True)
            offline = spec_for(kind).build()
            for item, count in zip(items, counts, strict=True):
                offline.update(item, count)
            probes = sorted(set(items)) + ["absent"]
            assert await client.estimate("t", probes) == [
                float(offline.estimate(item)) for item in probes]
            await server.stop()

        run(go())

    def test_cluster_topk_takes_an_item_array(self):
        async def go():
            servers = [SketchServer([spec_for("topk")]) for _ in range(2)]
            cluster = ClusterCoordinator.in_process(servers)
            items = np.arange(40, dtype=np.int64) % 9
            await cluster.ingest_items("t", items, np.full(40, 3), wait=True)
            offline = CountSketch(4, 128, seed=3)
            offline.update_batch(items.tolist(), [3] * 40)
            top = await cluster.topk("t", 3)
            assert all(type(item) is int for item, _ in top)
            assert [count for _, count in top] == sorted(
                (float(offline.estimate(item)) for item in range(9)),
                reverse=True)[:3]
            for server in servers:
                await server.stop()

        run(go())


class TestEncodedOnce:
    @pytest.fixture()
    def encodings(self, monkeypatch):
        """Every ``encode_keys`` call the client module makes, as
        ``(argument, result)``."""
        calls = []
        encode_keys = client_module.encode_keys

        def spy(items):
            keys = encode_keys(items)
            calls.append((items, keys))
            return keys

        monkeypatch.setattr(client_module, "encode_keys", spy)
        return calls

    def test_raw_batch_reaches_its_frames_through_one_call(
            self, encodings, monkeypatch):
        monkeypatch.setattr(protocol_module, "MAX_FRAME_BYTES", 16384)
        monkeypatch.setattr(client_module, "MAX_FRAME_BYTES", 16384)

        async def go():
            server = SketchServer([spec_for("sketch")])
            client = AsyncServiceClient.in_process(server)
            items = [f"q{i % 50}" for i in range(3000)]
            assert len(client._build_frames(
                "t", *client_module.ingest_columns(items, None, spec_for("sketch")),
                wait=False)) > 1
            encodings.clear()
            await client.ingest("t", [(item, 1) for item in items],
                                wait=True)
            assert len(encodings) == 1
            assert server.tables["t"].records_applied == len(items)
            await server.stop()

        run(go())

    def test_coordinator_slices_reach_shards_unencoded(self, encodings):
        async def go():
            servers = [SketchServer([spec_for("sketch")]) for _ in range(3)]
            cluster = ClusterCoordinator.in_process(servers)
            items = [f"key-{i}" for i in range(60)]
            await cluster.ingest("t", [(item, 2) for item in items],
                                 wait=True)
            (first, _), *shards = encodings
            assert list(first) == items
            assert len(shards) == 3
            for argument, keys in shards:
                assert keys is argument
            offline = CountSketch(4, 128, seed=3)
            offline.update_batch(items, [2] * len(items))
            assert await cluster.estimate("t", items) == [
                float(offline.estimate(item)) for item in items]
            for server in servers:
                await server.stop()

        run(go())
