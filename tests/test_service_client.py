"""The synchronous client facade over a real TCP server.

The server runs its own event loop on a background thread; the
:class:`ServiceClient` under test runs *another* private loop on its
own daemon thread.  Everything here crosses real sockets, so these
tests cover the frame codec, the transport lock, and the sync/async
bridge end to end.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.service.client import (
    ServiceClient,
    ServiceConnectionError,
    ServiceError,
)
from repro.service.server import SketchServer
from repro.service.tables import TableSpec


class ServerThread:
    """A SketchServer serving TCP on a background event loop."""

    def __init__(self, specs, **kwargs):
        self._specs = specs
        self._kwargs = kwargs
        self._started = threading.Event()
        self.host = ""
        self.port = 0
        self.server = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        async def main():
            self.server = SketchServer(self._specs, **self._kwargs)
            self.host, self.port = await self.server.start()
            self._started.set()
            await self.server.wait_stopped()

        asyncio.run(main())

    def __enter__(self):
        self._thread.start()
        assert self._started.wait(10), "server failed to start"
        return self

    def __exit__(self, *exc_info):
        if self._thread.is_alive():
            try:
                with ServiceClient(self.host, self.port, timeout=5) as c:
                    c.shutdown()
            except (OSError, ServiceError):
                pass  # stopped between the liveness check and the connect
            self._thread.join(10)

    def join(self, timeout=10):
        self._thread.join(timeout)
        return not self._thread.is_alive()


SPEC = TableSpec("queries", kind="topk", depth=4, width=256, seed=5, k=5)


class TestSyncClientOverTcp:
    def test_full_session_matches_offline(self):
        with ServerThread([SPEC]) as box:
            offline = SPEC.build()
            stream = (["deep learning"] * 9 + ["sketch"] * 6
                      + ["stream"] * 3 + ["rare"])
            with ServiceClient(box.host, box.port, timeout=10) as client:
                info = client.ping()
                assert info["version"] == 2

                client.ingest("queries", [(q, 1) for q in stream])
                for query in stream:
                    offline.update(query, 1)

                live = client.estimate(
                    "queries", ["deep learning", "sketch", "absent"])
                assert live == [
                    float(offline.estimate(q))
                    for q in ("deep learning", "sketch", "absent")
                ]
                assert client.topk("queries") == [
                    (item, float(count)) for item, count in offline.top()
                ]

                stats = client.stats("queries")
                assert stats["table"]["records_applied"] == len(stream)
                assert "service_requests_total" in client.metrics()

    def test_second_table_created_over_the_wire(self):
        with ServerThread([SPEC]) as box:
            with ServiceClient(box.host, box.port, timeout=10) as client:
                spec = TableSpec("flows", kind="sketch", depth=4, width=64)
                assert client.create_table(spec) is True
                client.ingest("flows", [(("tcp", 443), 10)], wait=True)
                assert client.estimate("flows", [("tcp", 443)]) == [10.0]
                assert client.drop_table("flows") == 1

    def test_server_errors_surface_with_codes(self):
        with ServerThread([SPEC]) as box:
            with ServiceClient(box.host, box.port, timeout=10) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.estimate("ghost", ["x"])
                assert excinfo.value.code == "no_such_table"
                with pytest.raises(ServiceError) as excinfo:
                    client.checkpoint()
                assert excinfo.value.code == "bad_request"

    def test_shutdown_stops_the_server_thread(self):
        box = ServerThread([SPEC])
        with box:
            with ServiceClient(box.host, box.port, timeout=10) as client:
                client.ingest_items("queries", ["a", "b"])
                client.shutdown()
            assert box.join(10), "server thread did not exit"
            assert box.server.tables["queries"].records_applied == 2

    def test_concurrent_sync_clients_agree(self):
        with ServerThread([SPEC]) as box:
            clients = [
                ServiceClient(box.host, box.port, timeout=10)
                for __ in range(3)
            ]
            try:
                for index, client in enumerate(clients):
                    client.ingest(
                        "queries", [(f"q{index}", index + 1)], wait=True)
                answers = [
                    client.estimate("queries", ["q0", "q1", "q2"])
                    for client in clients
                ]
                assert answers[0] == answers[1] == answers[2]
            finally:
                for client in clients:
                    client.close()

    def test_connection_refused_raises_typed_error(self):
        with pytest.raises(ServiceConnectionError, match="cannot connect"):
            ServiceClient("127.0.0.1", 1, timeout=2)

    def test_mid_session_loss_raises_typed_error(self):
        box = ServerThread([SPEC])
        with box:
            client = ServiceClient(box.host, box.port, timeout=10)
            try:
                client.ingest_items("queries", ["a"], wait=True)
                client.shutdown()
                assert box.join(10), "server thread did not exit"
                with pytest.raises(ServiceConnectionError):
                    client.estimate("queries", ["a"])
            finally:
                client.close()
