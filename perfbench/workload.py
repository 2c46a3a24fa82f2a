"""The result one workload run hands back to ``run.py``."""

from __future__ import annotations

from typing import Callable

from perfbench.common import BenchmarkFailure, percentile, quiet

#: p99 is reported only from at least this many samples per round.
MIN_P99_SAMPLES = 1000


class Outcome:
    """End-to-end values, per-layer values and op counts of one run.

    ``check`` is for exactness and no-silent-drop checks: a failure ends
    the run without numbers.  ``failed`` counts individual ops that were
    refused, raised, or answered wrongly; they lower ``ok_ops_ratio``.
    """

    def __init__(self, fingerprint: str) -> None:
        self.fingerprint = fingerprint
        self.e2e: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.replay: Callable[[], dict[str, float]] | None = None

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            raise BenchmarkFailure(f"check failed: {name}")

    def latencies(self, op: str, rounds_ms: list[list[float]], strict: bool) -> None:
        """p50, p90 and p99 of each round's samples, each reported as its
        lower quartile over rounds (see :func:`perfbench.common.quiet`).

        Only p50 is an end-to-end figure.  On a shared 2-vCPU host the
        slowest tenth of sub-millisecond calls are mostly the ones another
        tenant preempted: over ten runs of the same code the p90 and p99
        spread by 0.3 to 0.5 of their median, the p50 by under 0.2.  The
        tail is reported per layer, without a bound."""
        fewest = min(len(samples) for samples in rounds_ms)
        if strict and fewest < MIN_P99_SAMPLES:
            raise BenchmarkFailure(
                f"{op}: a round has {fewest} latency samples, p99 needs {MIN_P99_SAMPLES}")
        self.e2e[f"{op}_p50_ms"] = quiet([percentile(samples, 50) for samples in rounds_ms])
        for q in (90, 99):
            self.layers[f"loadgen.{op}_p{q}_ms"] = quiet(
                [percentile(samples, q) for samples in rounds_ms])

    def finish(self) -> None:
        if self.attempted < 1:
            raise BenchmarkFailure("no operations attempted")
        self.e2e["ok_ops_ratio"] = (self.attempted - self.failed) / self.attempted
