"""End-to-end binary wire: ingest exactness, key layouts, splitting, and
the ``estimate_rows`` readout frames.

Binary frames are the only way records enter a server: everything here
asserts *bit-equality* against an offline summary fed the same
acknowledged prefix.  The feature flags, the one key layout each table
kind accepts, weight overflow and transparent frame splitting are
covered over both transports, and so are the readout frames' answers
and refusals.
"""

from __future__ import annotations

import asyncio
import random

import numpy as np
import pytest

import repro.service.client as client_module
import repro.service.protocol as protocol_module
from repro.service.client import (
    AsyncServiceClient,
    InProcessTransport,
    QuotaExceededError,
    ServiceError,
    TcpTransport,
    ingest_columns,
    unzip_records,
)
from repro.service.limits import ServiceLimits
from repro.service.protocol import (
    WireProtocolError,
    pack_binary_ingest,
    pack_key,
    pack_rows_answer,
    unpack_frame,
)
from repro.service.server import SketchServer
from repro.service.tables import TableSpec

KINDS = ["sketch", "vectorized", "topk", "window"]


def spec_for(kind: str, name: str = "t") -> TableSpec:
    return TableSpec(
        name, kind=kind, depth=4, width=128, seed=3, k=8, window=64,
        buckets=4,
    )


def run(coro):
    return asyncio.run(coro)


class TestNegotiation:
    """Clients that negotiate on ``ping`` still find the one wire."""

    def test_ping_advertises_binary_ingest(self):
        async def go():
            server = SketchServer([spec_for("sketch")])
            client = AsyncServiceClient.in_process(server)
            assert "binary-ingest-v1" in (await client.ping())["features"]
            await server.stop()

        run(go())

    # The wire settings a client could carry before binary frames became
    # the only ingest wire.  An ``auto`` client negotiates on ``ping``
    # and a ``binary`` client sends frames outright; a ``json`` client's
    # ingest op is refused before anything is enqueued, so resending its
    # records as frames must not count them twice.
    @pytest.mark.parametrize("wire", ["auto", "binary", "json"])
    def test_every_wire_mode_reaches_the_same_counters(self, wire):
        async def go():
            spec = spec_for("sketch")
            server = SketchServer([spec])
            client = AsyncServiceClient.in_process(server)
            offline = spec.build()
            records = [(f"item-{i % 7}", i + 1) for i in range(50)]
            if wire == "auto":
                features = (await client.ping())["features"]
                assert "binary-ingest-v1" in features
            elif wire == "json":
                response = await server.dispatch({
                    "op": "ingest", "table": spec.name,
                    "records": [list(record) for record in records],
                })
                assert response["error"]["code"] == "bad_request"
                assert server.tables[spec.name].enqueued_seq == 0
            await client.ingest(spec.name, records, wait=True)
            for item, count in records:
                offline.update(item, count)
            probes = [f"item-{i}" for i in range(8)]
            live = await client.estimate(spec.name, probes)
            assert live == [float(offline.estimate(p)) for p in probes]
            await server.stop()

        run(go())


class TestBinaryMidStreamExactness:
    """Acknowledged binary writes are readable, bit-equal to offline."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_interleaved_queries_match_offline(self, kind):
        async def go():
            spec = spec_for(kind)
            server = SketchServer([spec])
            client = AsyncServiceClient.in_process(server)
            offline = spec.build()
            rng = random.Random(42)
            stream = [rng.randrange(40) for __ in range(600)]
            probes = list(range(40)) + [999_999]
            for start in range(0, len(stream), 50):
                chunk = stream[start:start + 50]
                await client.ingest_items(spec.name, chunk, wait=True)
                for item in chunk:
                    offline.update(item, 1)
                live = await client.estimate(spec.name, probes)
                assert live == [float(offline.estimate(p)) for p in probes]
                if kind == "topk":
                    assert await client.topk(spec.name) == [
                        (item, float(count))
                        for item, count in offline.top()
                    ]
            stats = await client.stats(spec.name)
            assert stats["table"]["records_applied"] == len(stream)
            await server.stop()

        run(go())

    def test_mid_stream_exactness_over_tcp(self):
        """The tentpole acceptance: TCP binary ingest, probe at the
        half-way barrier, answers bit-equal to the offline prefix."""

        async def go():
            spec = spec_for("vectorized", "flows")
            server = SketchServer([spec])
            host, port = await server.start()
            client = await AsyncServiceClient.connect(host, port)
            rng = random.Random(7)
            stream = [rng.randrange(200) for __ in range(4000)]
            half = len(stream) // 2
            probes = list(range(0, 200, 7)) + [10**9]

            offline = spec.build()
            first = stream[:half]
            batches = [first[i:i + 256] for i in range(0, half, 256)]
            assert await client.ingest_many(
                spec.name, [[(x, 1) for x in b] for b in batches]) == half
            for item in stream[:half]:
                offline.update(item, 1)
            live = await client.estimate(spec.name, probes)
            assert live == [float(offline.estimate(p)) for p in probes]

            rest = stream[half:]
            batches = [rest[i:i + 256] for i in range(0, len(rest), 256)]
            await client.ingest_many(
                spec.name, [[(x, 1) for x in b] for b in batches])
            for item in rest:
                offline.update(item, 1)
            live = await client.estimate(spec.name, probes)
            assert live == [float(offline.estimate(p)) for p in probes]

            await client.close()
            await server.stop()

        run(go())

    def test_packed_keys_roundtrip_into_topk(self):
        async def go():
            spec = spec_for("topk")
            server = SketchServer([spec])
            client = AsyncServiceClient.in_process(server)
            keys = [("flow", 8080), "\udcff-garbled", b"\x00\xff",
                    2**70, -1.5, True]
            await client.ingest(spec.name, [(k, 9) for k in keys],
                                wait=True)
            listed = {item for item, _ in await client.topk(spec.name)}
            assert listed == set(keys)
            await server.stop()

        run(go())

    def test_nan_key_accepted_but_listing_is_bad_request(self):
        # The packed codec carries NaN bit-exactly into the sketch; the
        # JSON response wire cannot list it back (satellite: allow_nan).
        async def go():
            spec = spec_for("topk")
            server = SketchServer([spec])
            client = AsyncServiceClient.in_process(server)
            await client.ingest(
                spec.name, [(float("nan"), 5), ("ok", 3)], wait=True)
            with pytest.raises(ServiceError) as excinfo:
                await client.topk(spec.name)
            assert excinfo.value.code == "bad_request"
            assert "not representable" in excinfo.value.message
            assert await client.estimate(spec.name, ["ok"]) == [3.0]
            await server.stop()

        run(go())


class TestAutoSplit:
    """Oversized batches split into several frames instead of erroring."""

    @pytest.fixture()
    def tiny_frames(self, monkeypatch):
        monkeypatch.setattr(protocol_module, "MAX_FRAME_BYTES", 16384)
        monkeypatch.setattr(client_module, "MAX_FRAME_BYTES", 16384)

    def test_binary_raw_batch_splits(self, tiny_frames):
        async def go():
            spec = spec_for("vectorized")
            server = SketchServer([spec])
            client = AsyncServiceClient.in_process(server)
            pairs = [(i % 100, 1) for i in range(5000)]
            keys, weights = ingest_columns(*unzip_records(pairs), spec)
            frames = client._build_frames(spec.name, keys, weights,
                                          wait=True)
            assert len(frames) > 1
            offline = spec.build()
            await client.ingest(spec.name, pairs, wait=True)
            for item, count in pairs:
                offline.update(item, count)
            probes = list(range(100))
            live = await client.estimate(spec.name, probes)
            assert live == [float(offline.estimate(p)) for p in probes]
            stats = await client.stats(spec.name)
            assert stats["table"]["records_applied"] == len(pairs)
            await server.stop()

        run(go())

    def test_binary_packed_batch_splits(self, tiny_frames):
        async def go():
            spec = spec_for("topk")
            server = SketchServer([spec])
            client = AsyncServiceClient.in_process(server)
            pairs = [(f"query-{i % 30}-" + "x" * 40, 1)
                     for i in range(2000)]
            items, counts = ingest_columns(*unzip_records(pairs), spec)
            frames = client._build_frames(spec.name, items, counts,
                                          wait=True)
            assert len(frames) > 1
            offline = spec.build()
            await client.ingest(spec.name, pairs, wait=True)
            for item, count in pairs:
                offline.update(item, count)
            assert await client.topk(spec.name) == [
                (item, float(count)) for item, count in offline.top()
            ]
            await server.stop()

        run(go())

    def test_single_record_too_large_still_errors(self, tiny_frames):
        async def go():
            spec = spec_for("topk")
            server = SketchServer([spec])
            client = AsyncServiceClient.in_process(server)
            with pytest.raises(WireProtocolError, match="exceeds"):
                await client.ingest(spec.name, [("y" * 64000, 1)])
            await server.stop()

        run(go())


class TestBinaryIngestValidation:
    def test_unusable_key_types_fail_at_the_client_boundary(self):
        async def go():
            server = SketchServer([spec_for("sketch"),
                                   spec_for("topk", "top")])
            client = AsyncServiceClient.in_process(server)
            for table in ("t", "top"):  # raw and packed key paths
                with pytest.raises(WireProtocolError,
                                   match="unsupported key type"):
                    await client.ingest(
                        table, [(np.datetime64(7, "s"), 1)])
                with pytest.raises(WireProtocolError,
                                   match="unsupported key type"):
                    await client.ingest(table, [(complex(1, 2), 1)])
            await server.stop()

        run(go())

    @pytest.mark.parametrize("kind", ["sketch", "topk"])
    def test_count_beyond_int64_refused_on_every_key_layout(self, kind):
        # Regression: a 2**70 count once crashed the applier task
        # (int64 counters) and hung every read barrier behind it.  Raw
        # and packed frames alike refuse it up front and the table
        # stays live.
        async def go():
            spec = spec_for(kind)
            server = SketchServer([spec])
            client = AsyncServiceClient.in_process(server)
            for bad in (2**63, -(2**63) - 1, 2**70):
                with pytest.raises(ServiceError) as excinfo:
                    await client.ingest(spec.name, [("big", bad)])
                assert excinfo.value.code == "bad_request"
                assert "int64" in excinfo.value.message
            await client.ingest(spec.name, [("ok", 2**62)], wait=True)
            assert await client.estimate(spec.name, ["ok"]) == [float(2**62)]
            await server.stop()

        run(go())

    @pytest.mark.parametrize("kind, bad, reason", [
        ("sketch", 0, "zero count"),
        ("topk", 0, "zero count"),
        ("topk", -1, "insert-only"),
        ("window", -3, "insert-only"),
    ])
    def test_table_count_rule_applied_server_side(self, kind, bad, reason):
        # The client refuses these before sending; the server applies
        # the same rule (TableSpec.check_counts) to a foreign frame.
        async def go():
            spec = spec_for(kind)
            server = SketchServer([spec])
            keys = (np.array([7, 8], dtype=np.uint64) if not spec.packed_keys
                    else [pack_key(7), pack_key(8)])
            frame = pack_binary_ingest(
                spec.name, 1, keys, np.array([1, bad], dtype=np.int64),
                raw=not spec.packed_keys, wait=True)
            response = await server.dispatch_binary(unpack_frame(frame))
            assert response["error"]["code"] == "bad_request"
            assert reason in response["error"]["message"]
            assert server.tables[spec.name].enqueued_seq == 0
            await server.stop()

        run(go())

    @pytest.mark.parametrize("kind", ["sketch", "vectorized"])
    def test_count_minus_2_63_refused_server_side(self, kind):
        # -2**63 fits a wire weight but not a sketch update (int64 cannot
        # negate it).  Taken into the queue, it would stop the applier
        # and hang every read barrier behind it; the client refuses it
        # too, so a foreign frame carries it here.
        async def go():
            spec = spec_for(kind)
            server = SketchServer([spec])
            frame = pack_binary_ingest(
                spec.name, 1, np.array([7], dtype=np.uint64),
                np.array([-(2**63)], dtype=np.int64), raw=True, wait=True)
            response = await server.dispatch_binary(unpack_frame(frame))
            assert response["ok"] is False
            assert response["error"]["code"] == "bad_request"
            assert "int64" in response["error"]["message"]
            assert server.tables[spec.name].enqueued_seq == 0
            client = AsyncServiceClient.in_process(server)
            low = -(2**63 - 1)
            await asyncio.wait_for(
                client.ingest(spec.name, [(7, low)], wait=True), timeout=30)
            assert await client.estimate(spec.name, [7]) == [float(low)]
            await server.stop()

        run(go())

    def test_raw_keys_refused_for_topk_tables_server_side(self):
        # The client always packs topk losslessly; a foreign client
        # sending raw hashes at a topk table must be refused — the
        # table stores original items the hash cannot reconstruct.
        async def go():
            server = SketchServer([spec_for("topk")])
            frame = pack_binary_ingest(
                "t", 1,
                np.array([7], dtype=np.uint64),
                np.array([1], dtype=np.int64),
                raw=True,
            )
            response = await server.dispatch_binary(unpack_frame(frame))
            assert response["ok"] is False
            assert response["error"]["code"] == "bad_request"
            await server.stop()

        run(go())

    def test_packed_keys_refused_for_vectorized_tables_server_side(self):
        # Hash-only tables take raw 64-bit images alone, so every
        # queued batch of a table has one representation.
        async def go():
            server = SketchServer([spec_for("vectorized")])
            frame = pack_binary_ingest(
                "t", 1, [pack_key("a")], np.array([1], dtype=np.int64),
                raw=False,
            )
            response = await server.dispatch_binary(unpack_frame(frame))
            assert response["ok"] is False
            assert response["error"]["code"] == "bad_request"
            assert "raw 64-bit key images" in response["error"]["message"]
            assert server.tables["t"].enqueued_seq == 0
            await server.stop()

        run(go())


TRANSPORTS = ["in-process", "tcp"]

#: Readout probes of every key type, each hashed as the sketches hash it.
MIXED_KEYS = ["text", b"\x00\xff", ("flow", 8080), True, np.int64(7), 2**70,
              -7, 1.5, "\udcff-garbled"]


async def open_transport(server, kind):
    """A transport to ``server``: over a real socket for ``tcp``."""
    if kind == "tcp":
        host, port = await server.start()
        return await TcpTransport.connect(host, port)
    return InProcessTransport(server)


def requests_seen(server):
    """The server's request and error counts and timed requests."""
    snapshot = server.registry.snapshot()
    counters = snapshot["counters"]
    timed = snapshot["histograms"].get("service_request_seconds")
    return (counters.get("service_requests_total", 0),
            counters.get("service_request_errors_total", 0),
            timed["count"] if timed else 0)


class TestBinaryReadouts:
    """``estimate_rows`` travels as a binary frame pair: raw key images
    out, one int64 readout block back."""

    def test_ping_advertises_the_readout_wire(self):
        async def go():
            server = SketchServer([spec_for("sketch")])
            info = await AsyncServiceClient.in_process(server).ping()
            assert info["version"] == 3
            assert {"binary-ingest-v1", "binary-rows-v1"} <= set(
                info["features"])
            await server.stop()

        run(go())

    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("kind", ["sketch", "vectorized", "topk"])
    def test_mixed_key_types_bit_equal_to_row_values(self, kind, transport):
        async def go():
            spec = spec_for(kind)
            server = SketchServer([spec])
            client = AsyncServiceClient(await open_transport(server,
                                                             transport))
            offline = spec.build()
            sketch = offline.sketch if kind == "topk" else offline
            records = [(key, index + 1) for index, key in enumerate(MIXED_KEYS)]
            await client.ingest(spec.name, records, wait=True)
            for key, count in records:
                offline.update(key, count)
            probes = [*MIXED_KEYS, 7, 0, "absent"]
            rows = await client.estimate_rows(spec.name, probes)
            assert rows == [sketch.row_values(key) for key in probes]
            assert all(type(value) is int for row in rows for value in row)
            # encode_key takes no float32; the wire hashes its float twin.
            assert await client.estimate_rows(
                spec.name, [np.float32(0.1)]) == [
                    sketch.row_values(float(np.float32(0.1)))]
            assert await client.estimate_rows(spec.name, []) == []
            await client.close()
            await server.stop()

        run(go())

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_refusals_keep_the_connection_serving(self, transport):
        async def go():
            server = SketchServer([spec_for("sketch"),
                                   spec_for("window", "w")])
            client = AsyncServiceClient(await open_transport(server,
                                                             transport))
            with pytest.raises(ServiceError) as excinfo:
                await client.estimate_rows("nope", ["a"])
            assert excinfo.value.code == "no_such_table"
            with pytest.raises(ServiceError) as excinfo:
                await client.estimate_rows("w", ["a"])
            assert excinfo.value.code == "bad_request"
            assert "linear sketch table" in excinfo.value.message
            assert await client.estimate_rows("t", ["a"]) == [[0] * 4]
            await client.close()
            await server.stop()

        run(go())

    def test_spent_query_quota_is_quota_exceeded(self):
        async def go():
            server = SketchServer(
                [spec_for("topk")],
                limits=ServiceLimits(query_rate=0.001, query_burst=1))
            client = AsyncServiceClient.in_process(server)
            assert await client.estimate_rows("t", ["a"]) == [[0] * 4]
            with pytest.raises(QuotaExceededError) as excinfo:
                await client.estimate_rows("t", ["a"])
            assert excinfo.value.code == "quota_exceeded"
            assert excinfo.value.details["op_kind"] == "query"
            await server.stop()

        run(go())

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_answer_frame_as_a_request_is_bad_frame(self, transport):
        async def go():
            server = SketchServer([spec_for("sketch")])
            wire = await open_transport(server, transport)
            response = await wire.request_bytes(
                pack_rows_answer(41, np.zeros((4, 1), dtype=np.int64)))
            assert response["ok"] is False
            assert response["id"] == 41
            assert response["error"]["code"] == "bad_frame"
            client = AsyncServiceClient(wire)
            assert (await client.ping())["ok"] is True
            assert await client.estimate_rows("t", [5]) == [[0] * 4]
            await client.close()
            await server.stop()

        run(go())

    def test_answer_past_the_frame_limit_is_bad_request(self, monkeypatch):
        # 64 keys fit a 1 KiB request frame; their 4 rows of readouts
        # (2 KiB) do not fit the answer.
        monkeypatch.setattr(protocol_module, "MAX_FRAME_BYTES", 1024)

        async def go():
            server = SketchServer([spec_for("sketch")])
            client = AsyncServiceClient.in_process(server)
            with pytest.raises(ServiceError) as excinfo:
                await client.estimate_rows("t", list(range(64)))
            assert excinfo.value.code == "bad_request"
            assert "exceeds" in excinfo.value.message
            assert len(await client.estimate_rows("t", list(range(16)))) == 16
            await server.stop()

        run(go())

    def test_readouts_are_counted_and_timed_as_requests(self):
        async def go():
            server = SketchServer([spec_for("sketch")])
            client = AsyncServiceClient.in_process(server)
            await client.estimate_rows("t", ["a", "b"])
            with pytest.raises(ServiceError):
                await client.estimate_rows("nope", ["a"])
            assert requests_seen(server) == (2, 1, 2)
            await server.stop()

        run(go())

    def test_unusable_key_types_are_refused_before_anything_is_sent(self):
        async def go():
            server = SketchServer([spec_for("sketch")])
            client = AsyncServiceClient.in_process(server)
            for bad in (np.datetime64(7, "s"), complex(1, 2), None, [1]):
                with pytest.raises(WireProtocolError,
                                   match="unsupported key type"):
                    await client.estimate_rows("t", ["ok", bad])
            assert requests_seen(server) == (0, 0, 0)
            await server.stop()

        run(go())
