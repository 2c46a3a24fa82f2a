"""``estimate`` answers straight from the table's counters, with no cache.

A Count Sketch point query is ``t`` counter reads and a median (§3), so
the server keeps no estimate cache and has no option to enable one:
``SketchServer`` refuses an ``estimate_cache`` keyword and ``stats``
reports no cache block.  Every answer — repeated, after more ingest,
interleaved with writes, or after a drop and re-create — is bit-equal to
the offline summary over the acknowledged records, on every table kind
(``vectorized`` tables answer a request with one ``estimate_batch``).
The class and test names predate the cache's removal.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.service.client import AsyncServiceClient
from repro.service.server import SketchServer
from repro.service.tables import TABLE_KINDS, TableSpec


def spec_for(kind: str = "sketch", name: str = "t") -> TableSpec:
    return TableSpec(name, kind=kind, depth=4, width=128, seed=3)


def run(coro):
    return asyncio.run(coro)


class TestEstimateCache:
    def test_off_by_default(self):
        async def go():
            server = SketchServer([spec_for()])
            client = AsyncServiceClient.in_process(server)
            stats = await client.stats()
            assert "estimate_cache" not in stats["server"]
            await server.stop()

        run(go())

    def test_capacity_below_two_refused(self):
        # The keyword is gone, not merely validated.
        with pytest.raises(TypeError, match="estimate_cache"):
            SketchServer([spec_for()], estimate_cache=1)

    def test_repeat_queries_hit_and_stay_exact(self):
        async def go(kind):
            server = SketchServer([spec_for(kind)])
            client = AsyncServiceClient.in_process(server)
            offline = spec_for(kind).build()
            records = [(f"k{i}", i + 1) for i in range(16)]
            await client.ingest("t", records, wait=True)
            for item, count in records:
                offline.update(item, count)
            probes = [f"k{i}" for i in range(16)]
            expected = [float(offline.estimate(p)) for p in probes]
            assert await client.estimate("t", probes) == expected
            assert await client.estimate("t", probes) == expected
            await server.stop()

        for kind in TABLE_KINDS:
            run(go(kind))

    def test_ingest_invalidates_cached_answers(self):
        async def go(kind):
            server = SketchServer([spec_for(kind)])
            client = AsyncServiceClient.in_process(server)
            offline = spec_for(kind).build()
            await client.ingest("t", [("a", 5)], wait=True)
            offline.update("a", 5)
            assert await client.estimate("t", ["a"]) == [
                float(offline.estimate("a"))
            ]
            await client.ingest("t", [("a", 7)], wait=True)
            offline.update("a", 7)
            assert await client.estimate("t", ["a"]) == [
                float(offline.estimate("a"))
            ]
            await server.stop()

        for kind in TABLE_KINDS:
            run(go(kind))

    def test_interleaved_writes_never_serve_stale(self):
        async def go(kind):
            server = SketchServer([spec_for(kind)])
            client = AsyncServiceClient.in_process(server)
            offline = spec_for(kind).build()
            probes = [f"k{i}" for i in range(8)]
            for step in range(20):
                records = [(f"k{step % 8}", step + 1)]
                await client.ingest("t", records)
                for item, count in records:
                    offline.update(item, count)
                live = await client.estimate("t", probes)
                assert live == [
                    float(offline.estimate(p)) for p in probes
                ]
            await server.stop()

        for kind in TABLE_KINDS:
            run(go(kind))

    def test_drop_and_recreate_purges_the_table(self):
        async def go(kind):
            server = SketchServer([spec_for(kind)])
            client = AsyncServiceClient.in_process(server)
            await client.ingest("t", [("a", 9)], wait=True)
            assert (await client.estimate("t", ["a"]))[0] != 0.0
            await client.drop_table("t")
            await client.create_table(spec_for(kind))
            assert await client.estimate("t", ["a"]) == [0.0]
            await server.stop()

        for kind in TABLE_KINDS:
            run(go(kind))
