"""Horizontally sharded serving: N sketch servers, one exact answer.

The paper's §3.2 linearity makes a sharded deployment *exact*, not
approximate: for any partition of the stream, the sum of the shard
sketches equals the single sketch over everything.  This package turns
that identity into a cluster tier over :mod:`repro.service`:

* :mod:`~repro.cluster.routing` — jump consistent hashing over the same
  pre-encoded u64 key images the sketches hash (one ``encode_key`` pass
  covers routing and sketching).
* :mod:`~repro.cluster.coordinator` — :class:`ClusterCoordinator`, an
  async API: scatter-gather ``estimate`` / ``topk`` / ``maxchange``
  whose answers are bit-equal to one offline sketch fed the same
  records (per-row integer readouts sum across shards; the median is
  applied once, by the summary kind's own arithmetic).  A script runs
  it under ``asyncio.run``, as ``repro query --cluster`` does.
* :mod:`~repro.cluster.fleet` — cluster spec files, the ``repro
  cluster serve`` process supervisor, manifest pinning that refuses a
  silent shard-count change, and offline snapshot-re-merge rebalancing
  over the ``.rcs`` format.

CLI: ``repro cluster serve`` / ``repro cluster rebalance``, and
``repro query <verb> --cluster SPEC`` to aim any query verb at a fleet.
See ``docs/cluster.md`` for topology, routing, and failure semantics.
"""

from repro.cluster.coordinator import ClusterCoordinator, unshardable_reason
from repro.cluster.fleet import (
    MERGEABLE_KINDS,
    ClusterSpecFile,
    ShardProcess,
    fleet_status,
    launch_fleet,
    merge_shard_summaries,
    pin_cluster_manifest,
    read_cluster_spec,
    rebalance_cluster,
    shard_directory,
    stop_fleet,
    write_cluster_spec,
)
from repro.cluster.routing import (
    MAX_SHARDS,
    jump_hash,
    jump_hash_array,
    partition_keys,
)

__all__ = [
    "MAX_SHARDS",
    "MERGEABLE_KINDS",
    "ClusterCoordinator",
    "ClusterSpecFile",
    "ShardProcess",
    "fleet_status",
    "jump_hash",
    "jump_hash_array",
    "launch_fleet",
    "merge_shard_summaries",
    "partition_keys",
    "pin_cluster_manifest",
    "read_cluster_spec",
    "rebalance_cluster",
    "shard_directory",
    "stop_fleet",
    "unshardable_reason",
    "write_cluster_spec",
]
