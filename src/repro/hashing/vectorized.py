"""Key-array encoding and the multiply-shift row family.

:func:`encode_keys` turns a batch of stream items into the uint64 key
array every batch path hashes.  :class:`VectorizedRowHashes` is the
faster of the two row families a Count Sketch can use: a key's mix is one
multiply (which NumPy wraps mod ``2**64``, exactly the multiply-shift
ring) and one add, for all rows at once.  Batch ingest with it runs over
twice as fast as with the paper's polynomial family
(:class:`~repro.hashing.mersenne.PolynomialRowHashes`), whose limb
products cost more, and hashing is nearly all of a batch's cost.

Independence caveat, documented rather than hidden: 64-bit multiply-shift
is universal but not pairwise independent in the strict sense the paper's
lemmas assume (the pair form needs 128-bit arithmetic NumPy lacks).
Empirically it is indistinguishable from the polynomial family on every
workload in this repository (the equivalence tests measure this), matching
the common practice of production sketch libraries; deployments that want
the letter of the analysis should use
:class:`~repro.core.countsketch.CountSketch`, which has the same batch
paths over the polynomial family.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from typing import Any

import numpy as np

from repro.hashing.encode import encode_key
from repro.hashing.family import seeded_rng

_MASK_64 = (1 << 64) - 1
_BIT_63 = 1 << 63
_U32, _U63 = np.uint64(32), np.uint64(63)


def encode_keys(items: Iterable[Hashable] | np.ndarray) -> np.ndarray:
    """Encode an iterable of stream items to a uint64 key array.

    Integer items — Python ``int``, ``np.integer`` scalars, and whole
    integer-dtype ndarrays — take a vectorized fast path with the same
    mod-``2**64`` wrap semantics as :func:`repro.hashing.encode.encode_key`
    (negative values map to their two's-complement uint64 image).  Other
    supported types go through ``encode_key`` item by item (one Python
    loop, after which everything downstream is vectorized).
    """
    if isinstance(items, np.ndarray):
        if items.dtype == np.uint64:
            return items
        if items.dtype.kind in "iu":
            # Signed→unsigned astype is a value-preserving C cast mod
            # 2**64, matching encode_key's `value & ((1 << 64) - 1)`.
            return items.astype(np.uint64)
    items = list(items)
    # One check per distinct type, not per item.
    if all(issubclass(kind, (int, np.integer))
           and not issubclass(kind, (bool, np.bool_))
           for kind in set(map(type, items))):
        try:
            return np.asarray(items, dtype=np.uint64)
        except (OverflowError, TypeError, ValueError):
            # Negative or >64-bit ints: wrap mod 2**64 like encode_key.
            mask = (1 << 64) - 1
            return np.asarray([int(item) & mask for item in items],
                              dtype=np.uint64)
    return np.asarray([encode_key(item) for item in items], dtype=np.uint64)


class VectorizedRowHashes:
    """Count Sketch rows from the multiply-shift family.

    Row ``i`` mixes a key as ``m_i·key + a_i mod 2**64`` (odd ``m_i``):
    the bucket is the top 32 bits of the mix mod ``width``, the sign the
    top bit of a second, independent mix.  All ``(m, a)`` pairs derive
    from ``seed``, so ``(depth, width, seed)`` fixes the functions.

    Args:
        depth: number of rows.
        width: bucket count per row.
        seed: derivation seed.
    """

    def __init__(self, depth: int, width: int, seed: int = 0) -> None:
        if depth < 1:
            raise ValueError("depth must be at least 1")
        if width < 1:
            raise ValueError("width must be at least 1")
        self._depth = depth
        self._width = width
        self._seed = seed
        rng = seeded_rng(seed, "vectorized-rows")

        def draw_pairs() -> tuple[list[int], list[int]]:
            multipliers = [rng.getrandbits(64) | 1 for _ in range(depth)]
            addends = [rng.getrandbits(64) for _ in range(depth)]
            return multipliers, addends

        bucket_mult, bucket_add = draw_pairs()
        sign_mult, sign_add = draw_pairs()
        # Bucket rows, then sign rows, as Python ints for one key and as
        # uint64 columns so one multiply-add hashes a key array.
        self._mult = bucket_mult + sign_mult
        self._add = bucket_add + sign_add
        self._columns = np.asarray([self._mult, self._add], dtype=np.uint64)[:, :, None]
        # Per row for ``positions``: its first cell and both mixes.
        self._cell_rows = list(zip(range(0, depth * width, width), bucket_mult,
                                   bucket_add, sign_mult, sign_add, strict=True))

    @property
    def depth(self) -> int:
        """Number of rows."""
        return self._depth

    @property
    def width(self) -> int:
        """Buckets per row."""
        return self._width

    @property
    def seed(self) -> int:
        """The derivation seed (hash identity for compatibility checks)."""
        return self._seed

    def positions(self, key: int) -> tuple[int, ...]:
        """One encoded key's signed cells, one per row: row ``i``'s
        bucket ``b`` is cell ``i * width + b``, complemented (``~cell``)
        where the row's sign is ``-1``."""
        width = self._width
        cells: list[int] = []
        for start, bucket_mult, bucket_add, sign_mult, sign_add in self._cell_rows:
            cell = start + (((bucket_mult * key + bucket_add) & _MASK_64) >> 32) % width
            cells.append(~cell if (sign_mult * key + sign_add) & _BIT_63 else cell)
        return tuple(cells)

    def positions_array(
        self, keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(depth, n)`` int64 bucket indices and ±1 signs of a uint64
        key array: :meth:`positions` of each key, before the folding
        into signed cells."""
        mult, add = self._columns
        with np.errstate(over="ignore"):
            mixed = keys * mult + add  # wraps mod 2**64
        depth = self._depth
        buckets = (mixed[:depth] >> _U32).astype(np.int64) % self._width
        signs = 1 - 2 * (mixed[depth:] >> _U63).astype(np.int64)
        return buckets, signs

    def state(self) -> dict[str, Any]:
        """Nothing beyond the seed: it determines every function."""
        return {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorizedRowHashes):
            return NotImplemented
        return (self._width == other._width and self._mult == other._mult
                and self._add == other._add)

    def __repr__(self) -> str:
        return (
            f"VectorizedRowHashes(depth={self._depth}, width={self._width}, "
            f"seed={self._seed})"
        )
