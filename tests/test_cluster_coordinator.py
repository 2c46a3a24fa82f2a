"""Coordinator semantics: exact scatter-gather over in-process shards.

Every answer the cluster gives must be **bit-equal** to one offline
summary fed the same records (§3.2 linearity: per-row integer readouts
sum across shards, and one median finalizes them).  These are equality
asserts, not tolerance checks — including the degenerate zero/one/N
shard cases and shards that never saw a record.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.routing import partition_keys
from repro.hashing.vectorized import encode_keys
from repro.service.server import SketchServer
from repro.service.tables import TableSpec

LINEAR_KINDS = ["sketch", "vectorized", "topk"]


def spec_for(kind: str, name: str = "t", *, k: int = 8) -> TableSpec:
    return TableSpec(name, kind=kind, depth=4, width=128, seed=3, k=k)


def run(coro):
    return asyncio.run(coro)


def make_cluster(n_shards: int, specs):
    servers = [SketchServer(list(specs)) for _ in range(n_shards)]
    return servers, ClusterCoordinator.in_process(servers)


async def stop_all(servers):
    for server in servers:
        await server.stop()


def stream(n: int, distinct: int = 30, seed: int = 42) -> list[str]:
    rng = random.Random(seed)
    return [f"item-{rng.randrange(distinct)}" for _ in range(n)]


class TestConstruction:
    def test_zero_shards_refused(self):
        with pytest.raises(ValueError, match="at least one shard"):
            ClusterCoordinator([])

    def test_n_shards_and_clients_in_routing_order(self):
        async def go():
            servers, cluster = make_cluster(3, [spec_for("sketch")])
            assert cluster.n_shards == 3
            assert len(cluster.clients) == 3
            pings = await cluster.ping()
            assert [p["ok"] for p in pings] == [True, True, True]
            await stop_all(servers)

        run(go())


class TestEstimateExactness:
    @pytest.mark.parametrize("kind", LINEAR_KINDS)
    @pytest.mark.parametrize("n_shards", [1, 2, 3])
    def test_bit_equal_to_offline_sketch(self, kind, n_shards):
        async def go():
            spec = spec_for(kind)
            servers, cluster = make_cluster(n_shards, [spec])
            offline = spec.build()
            items = stream(600)
            probes = sorted(set(items)) + ["never-seen"]
            await cluster.ingest_items(spec.name, items, wait=True)
            for item in items:
                offline.update(item, 1)
            sketch = getattr(offline, "sketch", offline)
            live = await cluster.estimate(spec.name, probes)
            assert live == [float(sketch.estimate(p)) for p in probes]
            await stop_all(servers)

        run(go())

    def test_weighted_and_negative_counts(self):
        async def go():
            spec = spec_for("sketch")
            servers, cluster = make_cluster(2, [spec])
            offline = spec.build()
            records = [("a", 5), ("b", 3), ("a", -2), ("c", 7), ("b", -3)]
            await cluster.ingest(spec.name, records, wait=True)
            for item, count in records:
                offline.update(item, count)
            live = await cluster.estimate(spec.name, ["a", "b", "c"])
            assert live == [float(offline.estimate(q))
                            for q in ("a", "b", "c")]
            await stop_all(servers)

        run(go())

    def test_never_updated_cluster_estimates_zero(self):
        async def go():
            spec = spec_for("vectorized")
            servers, cluster = make_cluster(3, [spec])
            assert await cluster.estimate(spec.name, ["x", "y"]) == [0.0,
                                                                     0.0]
            assert await cluster.estimate(spec.name, []) == []
            await stop_all(servers)

        run(go())

    def test_partially_empty_shards_are_exact(self):
        # One record: at most one shard holds data, the rest contribute
        # all-zero readouts.  The merged answer must not notice.
        async def go():
            spec = spec_for("sketch")
            servers, cluster = make_cluster(4, [spec])
            await cluster.ingest_items(spec.name, ["lonely"], wait=True)
            offline = spec.build()
            offline.update("lonely", 1)
            live = await cluster.estimate(spec.name, ["lonely", "ghost"])
            assert live == [float(offline.estimate("lonely")),
                            float(offline.estimate("ghost"))]
            await stop_all(servers)

        run(go())


class TestTopK:
    def test_union_rescore_bit_equal_to_offline_sketch(self):
        async def go():
            # k large enough that every shard tracks every distinct item:
            # the union is then the full key set, so the cluster ranking
            # must equal ranking every item by the offline sketch.
            spec = spec_for("topk", k=40)
            servers, cluster = make_cluster(3, [spec])
            items = stream(800, distinct=25)
            await cluster.ingest_items(spec.name, items, wait=True)
            offline = spec.build()
            for item in items:
                offline.update(item, 1)
            expected = sorted(
                ((q, float(offline.sketch.estimate(q)))
                 for q in set(items)),
                key=lambda pair: (-pair[1], repr(pair[0])),
            )
            live = await cluster.topk(spec.name, k=10)
            assert live == expected[:10]
            full = await cluster.topk(spec.name)  # defaults to spec's k
            assert full == expected[:40]
            await stop_all(servers)

        run(go())

    def test_empty_table_returns_empty(self):
        async def go():
            spec = spec_for("topk")
            servers, cluster = make_cluster(2, [spec])
            assert await cluster.topk(spec.name) == []
            await stop_all(servers)

        run(go())

    def test_k_must_be_positive(self):
        async def go():
            spec = spec_for("topk")
            servers, cluster = make_cluster(1, [spec])
            with pytest.raises(ValueError, match="at least 1"):
                await cluster.topk(spec.name, k=0)
            await stop_all(servers)

        run(go())


class TestMaxChange:
    def test_matches_offline_difference_sketch(self):
        async def go():
            before = spec_for("topk", name="day1", k=40)
            after = spec_for("topk", name="day2", k=40)
            servers, cluster = make_cluster(2, [before, after])
            day1 = stream(400, distinct=20, seed=1)
            day2 = stream(400, distinct=20, seed=2) + ["surge"] * 60
            await cluster.ingest_items("day1", day1, wait=True)
            await cluster.ingest_items("day2", day2, wait=True)

            off1, off2 = before.build(), after.build()
            for item in day1:
                off1.update(item, 1)
            for item in day2:
                off2.update(item, 1)
            candidates = sorted(set(day1) | set(day2))

            entries = await cluster.maxchange("day1", "day2", k=5,
                                              items=candidates)
            diff = off2.sketch - off1.sketch
            expected = sorted(
                ((q, float(diff.estimate(q))) for q in candidates),
                key=lambda pair: (-abs(pair[1]), repr(pair[0])),
            )[:5]
            assert [(e.item, e.estimated_change) for e in entries] \
                == expected
            assert entries[0].item == "surge"
            for entry in entries:
                assert entry.estimate_before == float(
                    off1.sketch.estimate(entry.item))
                assert entry.estimate_after == float(
                    off2.sketch.estimate(entry.item))
            await stop_all(servers)

        run(go())

    def test_candidates_default_to_both_tables_shard_topk_union(self):
        async def go():
            before = spec_for("topk", name="b", k=40)
            after = spec_for("topk", name="a", k=40)
            servers, cluster = make_cluster(2, [before, after])
            await cluster.ingest_items("b", ["x"] * 5, wait=True)
            await cluster.ingest_items("a", ["y"] * 9, wait=True)
            entries = await cluster.maxchange("b", "a", k=10)
            assert {e.item for e in entries} == {"x", "y"}
            await stop_all(servers)

        run(go())

    def test_mismatched_kinds_refused(self):
        async def go():
            servers, cluster = make_cluster(
                1, [spec_for("sketch", name="s"),
                    spec_for("vectorized", name="v")])
            with pytest.raises(ValueError, match="different kinds"):
                await cluster.maxchange("s", "v", items=["x"])
            await stop_all(servers)

        run(go())

    def test_empty_candidates_return_empty(self):
        async def go():
            servers, cluster = make_cluster(
                2, [spec_for("topk", name="b"), spec_for("topk", name="a")])
            assert await cluster.maxchange("b", "a") == []
            await stop_all(servers)

        run(go())


#: A count two of which sum to 2**63 + 2**62, past int64.
BIG = 2**62 + 2**61


def same_sign_pair(spec: TableSpec) -> tuple[int, int]:
    """Two int keys a 2-shard cluster routes to different shards whose
    one cell (depth 1, width 1) they update with the same sign."""
    keys = list(range(64))
    first, second = partition_keys(encode_keys(keys), 2)
    a = keys[int(first[0])]
    for index in second.tolist():
        probe = spec.build()
        sketch = getattr(probe, "sketch", probe)
        sketch.update_batch([a, keys[index]])
        if sketch.row_values_batch([a])[0, 0] == 2:
            return a, keys[index]
    raise AssertionError("no same-sign key on the second shard")


class TestSumsPastInt64:
    """Shard readouts add mod 2**64, as the merged sketch's counters do:
    two records of ``BIG`` on two shards read exactly what one offline
    sketch fed both reads, although their sum leaves int64."""

    @staticmethod
    def wide_spec(kind: str, name: str = "t") -> TableSpec:
        return TableSpec(name, kind=kind, depth=1, width=1, seed=3, k=2)

    def test_estimate_and_estimate_rows(self):
        async def go():
            spec = self.wide_spec("sketch")
            a, b = same_sign_pair(spec)
            servers, cluster = make_cluster(2, [spec])
            for key in (a, b):
                await cluster.ingest("t", [(key, BIG)], wait=True)
            offline = spec.build()
            offline.update_batch([a, b], [BIG, BIG])
            rows = await cluster.estimate_rows("t", [a, b])
            assert rows == offline.row_values_batch([a, b]).T.tolist()
            assert rows == [[-(2**62)], [-(2**62)]]
            assert await cluster.estimate("t", [a, b]) == \
                offline.estimate_batch([a, b]).tolist()
            await stop_all(servers)

        run(go())

    def test_maxchange(self):
        async def go():
            before = self.wide_spec("sketch", "before")
            after = self.wide_spec("sketch", "after")
            a, b = same_sign_pair(after)
            servers, cluster = make_cluster(2, [before, after])
            await cluster.ingest("before", [(a, 3)], wait=True)
            for key in (a, b):
                await cluster.ingest("after", [(key, BIG)], wait=True)
            off_before, off_after = before.build(), after.build()
            off_before.update_batch([a], [3])
            off_after.update_batch([a, b], [BIG, BIG])
            changes = (off_after - off_before).estimate_batch([a, b])
            entries = await cluster.maxchange("before", "after", k=2,
                                              items=[a, b])
            assert {entry.item: (entry.estimated_change,
                                 entry.estimate_before,
                                 entry.estimate_after)
                    for entry in entries} == {
                key: (change, est_before, est_after)
                for key, change, est_before, est_after in zip(
                    [a, b], changes.tolist(),
                    off_before.estimate_batch([a, b]).tolist(),
                    off_after.estimate_batch([a, b]).tolist(),
                    strict=True)}
            await stop_all(servers)

        run(go())

    def test_topk_scores(self):
        async def go():
            spec = self.wide_spec("topk")
            a, b = same_sign_pair(spec)
            servers, cluster = make_cluster(2, [spec])
            for key in (a, b):
                await cluster.ingest("t", [(key, BIG)], wait=True)
            sketch = spec.build().sketch
            sketch.update_batch([a, b], [BIG, BIG])
            top = await cluster.topk("t", 2)
            assert {item for item, _ in top} == {a, b}
            assert [score for _, score in top] == sketch.estimate_batch(
                [item for item, _ in top]).tolist()
            await stop_all(servers)

        run(go())


class TestAdministration:
    def test_create_table_everywhere_and_window_refused(self):
        async def go():
            servers, cluster = make_cluster(2, [spec_for("sketch")])
            created = await cluster.create_table(
                spec_for("vectorized", name="fresh"))
            assert created is True
            for server in servers:
                assert "fresh" in server.tables
            with pytest.raises(ValueError, match="window tables cannot"):
                await cluster.create_table(
                    TableSpec("w", kind="window", depth=4, width=64,
                              seed=1, k=4, window=32, buckets=4))
            await stop_all(servers)

        run(go())

    def test_drop_table_sums_shard_records(self):
        async def go():
            spec = spec_for("sketch")
            servers, cluster = make_cluster(3, [spec])
            items = stream(200)
            await cluster.ingest_items(spec.name, items, wait=True)
            dropped = await cluster.drop_table(spec.name)
            assert dropped == len(items)
            for server in servers:
                assert spec.name not in server.tables
            await stop_all(servers)

        run(go())

    def test_stats_and_metrics_shapes(self):
        async def go():
            spec = spec_for("sketch")
            servers, cluster = make_cluster(2, [spec])
            await cluster.ingest_items(spec.name, ["a", "b"], wait=True)
            stats = await cluster.stats(spec.name)
            assert stats["n_shards"] == 2
            assert len(stats["shards"]) == 2
            assert [s["shard"] for s in stats["shards"]] == [0, 1]
            assert all("ok" not in s and "id" not in s
                       for s in stats["shards"])
            applied = sum(s["table"]["records_applied"]
                          for s in stats["shards"])
            assert applied == 2
            bodies = await cluster.metrics("prometheus")
            assert len(bodies) == 2
            assert all(isinstance(body, str) for body in bodies)
            await stop_all(servers)

        run(go())


class TestShardQuotaPassthrough:
    """Shard-side quota refusals must reach the caller untranslated.

    The coordinator promises (``ingest`` docstring): refusals raise the
    shard's own ``QuotaExceededError``, the refused sub-batch was never
    enqueued on that shard, and sub-batches routed to other shards may
    already be acknowledged.
    """

    def test_quota_refusal_passes_through_untranslated(self):
        async def go():
            from repro.service import QuotaExceededError, ServiceLimits

            limits = ServiceLimits(ingest_rate=1.0, ingest_burst=2.0)
            servers = [SketchServer([spec_for("sketch")], limits=limits)
                       for _ in range(3)]
            cluster = ClusterCoordinator.in_process(servers)
            records = [(f"key-{i}", 1) for i in range(48)]
            with pytest.raises(QuotaExceededError) as excinfo:
                await cluster.ingest("t", records, wait=True)
            assert excinfo.value.code == "quota_exceeded"
            assert excinfo.value.details["op_kind"] == "ingest"
            # Every shard's sub-batch exceeded its burst, and refusal
            # is all-or-nothing per shard: nothing was enqueued.
            stats = await cluster.stats("t")
            assert all(s["table"]["records_applied"] == 0
                       for s in stats["shards"])
            await stop_all(servers)

        run(go())

    def test_one_limited_shard_leaves_others_acknowledged(self):
        async def go():
            from repro.service import QuotaExceededError, ServiceLimits

            tight = ServiceLimits(ingest_rate=1.0, ingest_burst=1.0)
            servers = [SketchServer([spec_for("sketch")], limits=tight)]
            servers += [SketchServer([spec_for("sketch")])
                        for _ in range(2)]
            cluster = ClusterCoordinator.in_process(servers)
            records = [(f"key-{i}", 1) for i in range(48)]
            with pytest.raises(QuotaExceededError):
                await cluster.ingest("t", records, wait=True)
            stats = await cluster.stats("t")
            applied = [s["table"]["records_applied"]
                       for s in stats["shards"]]
            # The limited shard refused its whole sub-batch; the
            # unlimited shards may already have applied theirs.
            assert applied[0] == 0
            assert sum(applied[1:]) > 0
            await stop_all(servers)

        run(go())
