"""A client vanishing mid-pipeline must not taint the server.

Regression suite for the connection-teardown path: the peer
disappearing while acknowledgements are still queued has to cancel the
response writer, drop the queued acks, release the connection slot
(gauge and writer set), and leave every other connection — and the
acknowledged records — untouched.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.hashing.vectorized import encode_keys
from repro.observability.registry import MetricsRegistry
from repro.service.client import AsyncServiceClient
from repro.service.protocol import pack_binary_ingest
from repro.service.server import SketchServer
from repro.service.tables import TableSpec


def spec_for(name: str = "t") -> TableSpec:
    return TableSpec(name, kind="sketch", depth=4, width=128, seed=3)


def ingest_frame(request_id: int, items: list[str]) -> bytes:
    """One raw-layout binary ingest frame for table ``t``, counts 1."""
    return pack_binary_ingest(
        "t", request_id, encode_keys(items),
        np.ones(len(items), dtype=np.int64), raw=True,
    )


def run(coro):
    return asyncio.run(coro)


async def _wait_for(predicate, timeout: float = 5.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() >= deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(0.01)


class TestClientDisconnect:
    def test_abort_mid_pipeline_leaves_server_healthy(self):
        async def go():
            registry = MetricsRegistry()
            server = SketchServer([spec_for()], registry=registry)
            host, port = await server.start("127.0.0.1", 0)
            gauge = registry.gauge("service_open_connections")

            survivor = await AsyncServiceClient.connect(host, port)
            await survivor.ping()
            assert gauge.value == 1

            # A raw peer that floods pipelined ingest frames and never
            # reads a single acknowledgement, then vanishes abruptly.
            reader, writer = await asyncio.open_connection(host, port)
            await _wait_for(lambda: gauge.value == 2)
            for index in range(200):
                writer.write(ingest_frame(
                    index, [f"ghost-{index}-{i}" for i in range(10)]))
            await writer.drain()
            writer.transport.abort()

            # The slot must come back without the survivor doing
            # anything, and without the server logging internal faults.
            await _wait_for(lambda: gauge.value == 1)

            # The survivor's connection still answers, and answers
            # exactly: whatever prefix of the ghost's frames was
            # acknowledged server-side has been applied atomically.
            await survivor.ingest("t", [("alive", 3)], wait=True)
            # Ghost batches were 10 records each and all-or-nothing;
            # the survivor added exactly one more record.
            applied = server.tables["t"].records_applied
            assert applied % 10 == 1
            estimate = await survivor.estimate("t", ["alive"])
            assert estimate[0] != 0.0

            # A fresh connection takes the freed slot.
            replacement = await AsyncServiceClient.connect(host, port)
            await replacement.ping()
            await replacement.close()
            await survivor.close()
            await _wait_for(lambda: gauge.value == 0)
            await server.stop()

        run(go())

    def test_acknowledged_records_survive_the_abort(self):
        async def go():
            server = SketchServer([spec_for()])
            host, port = await server.start("127.0.0.1", 0)

            # The doomed client pipelines batches and reads the acks
            # for the first half, so those are acknowledged for sure.
            doomed = await AsyncServiceClient.connect(host, port)
            acknowledged = []
            for index in range(5):
                records = [(f"keep-{index}-{i}", 1) for i in range(8)]
                await doomed.ingest("t", records)
                acknowledged.extend(records)
            # Vanish without a goodbye.
            doomed._transport._writer.transport.abort()  # noqa: SLF001

            checker = await AsyncServiceClient.connect(host, port)
            offline = spec_for().build()
            for item, count in acknowledged:
                offline.update(item, count)
            probes = [item for item, _ in acknowledged[:16]]
            live = await checker.estimate("t", probes)
            assert live == [float(offline.estimate(p)) for p in probes]
            stats = await checker.stats("t")
            assert stats["table"]["records_applied"] == len(acknowledged)
            await checker.close()
            await server.stop()

        run(go())

    def test_many_churning_connections_leave_no_residue(self):
        async def go():
            registry = MetricsRegistry()
            server = SketchServer([spec_for()], registry=registry)
            host, port = await server.start("127.0.0.1", 0)
            gauge = registry.gauge("service_open_connections")
            for round_index in range(10):
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(ingest_frame(1, [f"churn-{round_index}"]))
                await writer.drain()
                writer.transport.abort()
            await _wait_for(lambda: gauge.value == 0)
            assert len(server._writers) == 0  # noqa: SLF001
            await server.stop()

        run(go())
