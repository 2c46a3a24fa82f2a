"""The Count Sketch over the multiply-shift hash family.

:class:`VectorizedCountSketch` is a
:class:`~repro.core.countsketch.CountSketch` — same counter layout, same
median estimator, same linearity, same per-item and batch paths — whose
rows come from :class:`~repro.hashing.vectorized.VectorizedRowHashes`
instead of the paper's polynomial family.  Multiply-shift hashes a key
array over twice as fast (see :mod:`repro.hashing.vectorized` for the
independence caveat), which makes this the backend for streams that
arrive as blocks (log-shipping batches, columnar scans).
Deployments that want the letter of the analysis use ``CountSketch``,
which has the same batch paths.

Sketches add only when they share hash functions, so a multiply-shift
sketch merges with any other built from the same ``(depth, width,
seed)``, never with a polynomial one.  Its functions follow from the seed
alone, which is all its snapshots record.
"""

from __future__ import annotations

from typing import Any

from repro.core.countsketch import CountSketch
from repro.hashing.vectorized import VectorizedRowHashes


class VectorizedCountSketch(CountSketch):
    """A Count Sketch whose rows are multiply-shift hashes.

    Args:
        depth: number of rows ``t``.
        width: counters per row ``b``.
        seed: hash derivation seed; equal ``(depth, width, seed)`` means
            shared hash functions and therefore mergeability.
    """

    __slots__ = ()

    # Batch paths count items, not calls, so throughput ratios against
    # the polynomial sketch stay comparable; batches get their own
    # counter.  A per-item call counts as a batch of one.
    _METRIC_NAMES = (
        "vectorized_countsketch_update_items_total",
        "vectorized_countsketch_update_batches_total",
        "vectorized_countsketch_estimate_items_total",
        None,
        None,
        None,
    )

    def __init__(self, depth: int, width: int, seed: int = 0) -> None:
        self._start(VectorizedRowHashes(depth, width, seed), seed)

    @classmethod
    def from_state_dict(cls, state: dict[str, Any]) -> VectorizedCountSketch:
        """Rebuild a sketch serialized by :meth:`state_dict`.

        Raises:
            ValueError: if the counter array is non-integral or its shape
                disagrees with ``depth``/``width``.
        """
        sketch = cls(state["depth"], state["width"], seed=state["seed"])
        sketch._load_counts(state)
        return sketch
