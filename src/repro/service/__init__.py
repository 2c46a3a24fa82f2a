"""Online serving for Count Sketch summaries.

The paper's motivating feeds — search-query logs (§1), router packet
flows — are live streams queried *while* ingestion continues.  This
package is that shape: a long-running asyncio server owning named
"tables" (dense / vectorized / top-k / jumping-window summaries),
absorbing batched binary ingest frames over a length-prefixed
protocol, and answering ``estimate`` / ``topk`` / ``stats`` concurrently with exact
read-your-acknowledged-writes semantics.

Entry points:

* :class:`SketchServer` — the server core (TCP or in-process).
* :class:`AsyncServiceClient` / :class:`ServiceClient` — the typed
  client library (async core, sync facade).
* :class:`TableSpec` — declarative table descriptions, pinned in the
  durability manifest.
* CLI: ``repro serve`` / ``repro query``.

See ``docs/service.md`` for the protocol specification, backpressure
semantics, and durability guarantees.
"""

from repro.service.client import (
    AsyncServiceClient,
    InProcessTransport,
    OverloadedError,
    QuotaExceededError,
    ServiceClient,
    ServiceConnectionError,
    ServiceError,
    TcpTransport,
)
from repro.service.limits import (
    ServiceLimits,
    TableQuotaExceededError,
    TokenBucket,
    WeightedFairScheduler,
)
from repro.service.protocol import (
    FEATURE_BINARY_INGEST,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    BinaryIngest,
    FrameTooLargeError,
    WireProtocolError,
    decode_wire_key,
    encode_wire_key,
    normalize_key,
    pack_binary_ingest,
    pack_frame,
    pack_key,
    read_frame,
    unpack_frame,
    unpack_key,
    write_frame,
)
from repro.service.server import MANIFEST_NAME, SketchServer
from repro.service.tables import (
    TABLE_KINDS,
    ServiceTable,
    TableOverloadedError,
    TableSpec,
)

__all__ = [
    "FEATURE_BINARY_INGEST",
    "MANIFEST_NAME",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "TABLE_KINDS",
    "AsyncServiceClient",
    "BinaryIngest",
    "FrameTooLargeError",
    "InProcessTransport",
    "OverloadedError",
    "QuotaExceededError",
    "ServiceClient",
    "ServiceConnectionError",
    "ServiceError",
    "ServiceLimits",
    "ServiceTable",
    "SketchServer",
    "TableOverloadedError",
    "TableQuotaExceededError",
    "TableSpec",
    "TcpTransport",
    "TokenBucket",
    "WeightedFairScheduler",
    "WireProtocolError",
    "decode_wire_key",
    "encode_wire_key",
    "normalize_key",
    "pack_binary_ingest",
    "pack_frame",
    "pack_key",
    "read_frame",
    "unpack_frame",
    "unpack_key",
    "write_frame",
]
