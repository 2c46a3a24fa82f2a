"""True positives for RS009: stale writes across unguarded awaits.

Linted under a synthetic ``src/repro/service/`` display path — the rule
patrols the async tiers, where the event loop interleaves tasks at
every await point: state read before an await may be stale by the time
the dependent write runs.
"""

import asyncio


class ShardTable:
    """Async table whose read-modify-write cycles cross await points."""

    async def bump(self, key):
        current = self._counters[key]
        await asyncio.sleep(0)
        self._counters[key] = current + 1  # RS009: current is stale

    async def renamed(self, amount):
        snapshot = self._total_weight
        total = snapshot
        await self._flush()
        self._total_weight = total + amount  # RS009: via copy of snapshot

    async def subscripted(self, key, n):
        row = self._rows[key]
        await asyncio.sleep(0)
        self._rows[key] = row + n  # RS009: row is stale

    async def loop_crossing(self, batch):
        seen = self._records_applied
        async for record in batch:  # implicit await each iteration
            self.apply(record)
        self._records_applied = seen + 1  # RS009: seen is stale

    async def flat_view(self, cell):
        value = self._cells[cell]
        await asyncio.sleep(0)
        self._cells[cell] = value + 1  # RS009: value is stale
