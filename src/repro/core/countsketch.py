"""The COUNT SKETCH data structure (§3 of the paper).

A Count Sketch is a ``t × b`` array of integer counters plus ``t`` bucket
hash functions ``h_i : O → [b]`` and ``t`` pairwise-independent sign hash
functions ``s_i : O → {+1, −1}``.  The two operations of §3.2:

* ``ADD(C, q)``  — for each row ``i``, ``counter[i][h_i(q)] += s_i(q)``
  (generalized here to weighted updates, which is what makes the sketch a
  linear map and enables the §4.2 difference trick).
* ``ESTIMATE(C, q)`` — ``median_i { counter[i][h_i(q)] · s_i(q) }``.

Per row the estimate is unbiased (Lemma 1); the median over
``t = Θ(log n/δ)`` rows concentrates within ``8γ`` of the true count
(Lemmas 3–4) where ``γ = sqrt(Σ_{q' > k} n_{q'}² / b)`` (Eq. 5).

Because the update is a linear function of the frequency vector, two
sketches that share hash functions can be added, subtracted and scaled;
:meth:`CountSketch.__sub__` is the engine of the max-change algorithm.

The sketch also supports AMS-style second-moment estimation
(:meth:`estimate_f2`, :meth:`inner_product`): each row's self/inner dot
product is an unbiased F2/inner-product estimator — the paper builds on
exactly this machinery of Alon, Matias & Szegedy.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from collections.abc import Hashable, Iterable, Mapping, Sequence
from typing import Any

import numpy as np

from repro.hashing.bucket import BucketHash, BucketHashFamily
from repro.hashing.encode import encode_key
from repro.hashing.family import HashFunction
from repro.hashing.mersenne import KWiseFamily, PolynomialHash, PolynomialRowHashes
from repro.hashing.sign import SignHash, SignHashFamily
from repro.hashing.vectorized import VectorizedRowHashes, encode_keys
from repro.core.sketch_base import coerce_counter_array
from repro.observability.registry import MetricsRegistry, NullRegistry, get_registry

#: Maximum number of items kept in the per-sketch hash-position cache.  The
#: cache trades memory for speed on streams with repeated items (every
#: realistic stream).  When full, a batch of the oldest entries is evicted
#: (dicts iterate in insertion order) rather than clearing wholesale —
#: a full clear makes every item a miss on high-cardinality streams, so the
#: dict grows to the limit, gets cleared, and repeats (cache thrash).
_POSITION_CACHE_LIMIT = 1 << 20

#: Fraction of the cache (as a right-shift) evicted per over-limit event.
_POSITION_CACHE_EVICT_SHIFT = 3

#: Keys hashed per step of a batch path.  Every step holds a few
#: ``(2·depth, slice)`` 64-bit temporaries, so slicing bounds a large
#: batch's memory by the slice, not by the batch.
_BATCH_SLICE = 1 << 13

#: Largest weight magnitude one update may carry.  A counter moves by
#: ``sign * weight``, and int64 cannot negate ``-2**63``, so the range is
#: symmetric: ``[-(2**63 - 1), 2**63 - 1]``.
_MAX_WEIGHT = (1 << 63) - 1

_NO_METRIC = NullRegistry().counter("")


def _median(rows: list[float]) -> float:
    """The median of a key's row readouts, taken as ``statistics.median``
    takes it: sort (in place), then the middle value, or the mean of the
    middle two for an even depth."""
    rows.sort()
    middle = len(rows) // 2
    if len(rows) % 2:
        return rows[middle]
    return (rows[middle - 1] + rows[middle]) / 2


#: ``-(-2**63)``: the one negated counter value outside int64.
_I64_NEGATED_MIN = 1 << 63


def _wrapped(value: int) -> int:
    """``value`` reduced into int64 mod ``2**64``, as NumPy's int64
    addition wraps a counter that leaves the range."""
    return ((value + (1 << 63)) & ((1 << 64) - 1)) - (1 << 63)


#: A hash family's rows: each evaluates one key in Python ints to its
#: signed cells (``positions``) or a uint64 key array in NumPy to bucket
#: and sign arrays (``positions_array``), the same hashes either way, and
#: compares equal only to rows of identical functions, the §3.2
#: condition for adding sketches.
RowHashes = PolynomialRowHashes | VectorizedRowHashes


def integral_count(count: object) -> int:
    """Return the stream weight ``count`` as an ``int``.

    Counters are int64, so a weight must be a whole number: ``2.0`` and
    ``np.int64(3)`` become ``2`` and ``3``, while ``1.5``, ``nan`` and
    ``inf`` are refused rather than truncated.  Callers test
    ``type(count) is int`` first, so the common case costs one check.

    Raises:
        TypeError: if ``count`` is a bool or not a real number.
        ValueError: if ``count`` is not integral.
    """
    if isinstance(count, (bool, np.bool_)):
        raise TypeError("count must be an integer, not a bool")
    if isinstance(count, (int, np.integer)):
        return int(count)
    if isinstance(count, (float, np.floating)):
        value = float(count)
        if value.is_integer():
            return int(value)
        raise ValueError(f"count must be integral, got {count!r}")
    raise TypeError(f"count must be an integer, got {type(count).__name__}")


def integral_weights(weights: Iterable[int] | np.ndarray, size: int) -> np.ndarray:
    """Return per-record ``weights`` as an int64 array of length ``size``,
    refusing the whole batch if any weight is not integral (see
    :func:`integral_count`) or lies outside ``[-(2**63 - 1), 2**63 - 1]``.

    An int64 array passes through without a copy, after one range check.

    Raises:
        TypeError: if a weight is a bool or not a real number.
        ValueError: if the length differs from ``size`` or a weight is
            not integral.
        OverflowError: if a weight lies outside the range above.
    """
    if isinstance(weights, np.ndarray) and weights.dtype.kind in "iu":
        if (weights.dtype.kind == "u" and weights.size
                and weights.max() > _MAX_WEIGHT):
            raise OverflowError("weight does not fit int64")
        array = weights.astype(np.int64, copy=False)
    else:
        # Each weight on its own, so a bool is never promoted to 1 and a
        # non-integral value is named; the int64 conversion refuses
        # values out of range.
        try:
            array = np.asarray(
                [weight if type(weight) is int else integral_count(weight)
                 for weight in (weights.tolist() if isinstance(weights, np.ndarray)
                                else weights)],
                dtype=np.int64)
        except OverflowError:
            raise OverflowError("weight does not fit int64") from None
    if array.shape != (size,):
        raise ValueError("weights must match items in length")
    if size and array.min() < -_MAX_WEIGHT:
        raise OverflowError("weight -2**63 does not fit: int64 cannot negate it")
    return array


class _SketchMetrics:
    """Metric handles captured once per sketch when collection is on.

    Sketches built under the default :class:`~repro.observability.
    NullRegistry` carry ``_metrics = None`` instead, so the disabled-path
    cost is one attribute load and an ``is not None`` test per event.
    ``updates`` and ``estimates`` count items on every path; a class
    whose metric names leave a handle out counts it nowhere.
    """

    __slots__ = (
        "updates", "update_batches", "estimates", "cache_hits",
        "cache_misses", "cache_evictions",
    )

    def __init__(self, registry: MetricsRegistry,
                 names: tuple[str | None, ...]) -> None:
        (self.updates, self.update_batches, self.estimates, self.cache_hits,
         self.cache_misses, self.cache_evictions) = (
            _NO_METRIC if name is None else registry.counter(name)
            for name in names
        )


class CountSketch:
    """A Count Sketch with ``depth`` rows of ``width`` counters each.

    Every path comes twice: per item (``update``, ``update_estimate``,
    ``estimate``, ``row_values``), with a position cache for repeated
    items, and per batch (``update_batch``, ``update_batch_estimates``,
    ``estimate_batch``, ``row_values_batch``), hashing a whole key array
    in NumPy.  Both give identical counters and answers.  The hash family
    is the one part that varies: this class uses the paper's pairwise
    polynomial family;
    :class:`~repro.core.vectorized.VectorizedCountSketch` selects
    multiply-shift.

    The per-item paths address the counters as one flat run of cells
    (row ``i``, bucket ``b`` is cell ``i * width + b``) through an int64
    view of the counter array, so each row's counter is read and written
    as a Python int.  A key's cache entry is its *signed cells*, one per
    row: the cell itself where the row's sign is ``+1``, its complement
    ``~cell`` (``-cell - 1``) where it is ``-1``.  A counter pushed past
    the int64 range wraps mod ``2**64`` on every path, as NumPy's int64
    addition wraps it.

    Args:
        depth: number of hash-table rows ``t``.  Use an odd value so the
            median is a single row estimate; see
            :func:`repro.core.params.suggest_depth`.
        width: counters per row ``b``; see
            :func:`repro.core.params.width_for_approxtop`.
        seed: seed for the default hash families.  Two sketches built with
            the same ``(depth, width, seed)`` share hash functions and are
            therefore mergeable/subtractable, per §3.2.
        bucket_hashes: optional explicit bucket hash functions (one per
            row, each with ``range_size == width``); overrides ``seed``.
        sign_hashes: optional explicit sign hash functions (one per row).
    """

    __slots__ = (
        "_depth",
        "_width",
        "_seed",
        "_rows",
        "_counters",
        "_cells",
        "_total_weight",
        "_position_cache",
        "_metrics",
    )

    #: Counter names for (updates, update batches, estimates, position
    #: cache hits, misses, evictions); ``None`` leaves one uncounted.
    _METRIC_NAMES: tuple[str | None, ...] = (
        "countsketch_updates_total",
        None,
        "countsketch_estimates_total",
        "countsketch_position_cache_hits_total",
        "countsketch_position_cache_misses_total",
        "countsketch_position_cache_evictions_total",
    )

    def __init__(
        self,
        depth: int,
        width: int,
        seed: int = 0,
        bucket_hashes: Sequence[HashFunction] | None = None,
        sign_hashes: Sequence[HashFunction] | None = None,
    ) -> None:
        if depth < 1:
            raise ValueError("depth must be at least 1")
        if width < 1:
            raise ValueError("width must be at least 1")

        if bucket_hashes is None:
            bucket_family = BucketHashFamily(
                KWiseFamily(independence=2, seed=seed, salt="buckets"), width
            )
            bucket_hashes = bucket_family.draw(depth)
        else:
            bucket_hashes = list(bucket_hashes)
            if len(bucket_hashes) != depth:
                raise ValueError(
                    f"expected {depth} bucket hashes, got {len(bucket_hashes)}"
                )
            for h in bucket_hashes:
                if h.range_size != width:
                    raise ValueError(
                        "every bucket hash must have range_size == width"
                    )
        if sign_hashes is None:
            sign_family = SignHashFamily(
                KWiseFamily(independence=2, seed=seed, salt="signs")
            )
            sign_hashes = sign_family.draw(depth)
        else:
            sign_hashes = list(sign_hashes)
            if len(sign_hashes) != depth:
                raise ValueError(
                    f"expected {depth} sign hashes, got {len(sign_hashes)}"
                )
        self._start(PolynomialRowHashes(bucket_hashes, sign_hashes, width),
                    seed)

    def _start(self, rows: RowHashes, seed: int) -> None:
        """Make an empty sketch over ``rows``: the one initializer of
        every constructor and clone."""
        self._depth = rows.depth
        self._width = rows.width
        self._seed = seed
        self._rows = rows
        self._set_counters(np.zeros((self._depth, self._width), dtype=np.int64))
        self._total_weight = 0
        self._position_cache: dict[int, tuple[int, ...]] = {}
        registry = get_registry()
        self._metrics = (
            _SketchMetrics(registry, self._METRIC_NAMES)
            if registry.enabled else None
        )

    def _set_counters(self, counters: np.ndarray) -> None:
        """Make the C-ordered int64 ``counters`` the sketch's counter
        array, and ``_cells`` a flat int64 view of the same buffer (the
        per-item paths' cells)."""
        self._counters = counters
        self._cells = memoryview(counters).cast("B").cast("q")

    def __getstate__(self) -> dict[str, Any]:
        # A memoryview cannot be pickled or deep-copied; __setstate__
        # rebuilds ``_cells`` over the restored counters.
        return {name: getattr(self, name) for name in CountSketch.__slots__
                if name != "_cells"}

    def __setstate__(self, state: dict[str, Any]) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._set_counters(self._counters)

    # -- basic properties ---------------------------------------------------

    @property
    def depth(self) -> int:
        """Number of rows ``t``."""
        return self._depth

    @property
    def width(self) -> int:
        """Counters per row ``b``."""
        return self._width

    @property
    def seed(self) -> int:
        """Seed the default hash families were derived from."""
        return self._seed

    @property
    def total_weight(self) -> int:
        """Net weight of all updates applied (stream length for +1 updates)."""
        return self._total_weight

    @property
    def counters(self) -> np.ndarray:
        """A read-only view of the ``depth × width`` counter array."""
        view = self._counters.view()
        view.flags.writeable = False
        return view

    def counters_used(self) -> int:
        """Total number of counters: ``depth * width`` (the paper's ``tb``)."""
        return self._depth * self._width

    def items_stored(self) -> int:
        """A bare sketch stores no stream objects."""
        return 0

    # -- hashing ------------------------------------------------------------

    def _signed_cells(self, item: Hashable) -> tuple[int, ...]:
        """``item``'s signed cells (see the class notes): one encode and
        one position-cache lookup, counted as a hit or a miss."""
        key = encode_key(item)
        cells = self._position_cache.get(key)
        metrics = self._metrics
        if cells is None:
            if metrics is not None:
                metrics.cache_misses.inc()
            cells = self._rows.positions(key)
            self._remember(key, cells)
        elif metrics is not None:
            metrics.cache_hits.inc()
        return cells

    def _remember(self, key: int, cells: tuple[int, ...]) -> None:
        """Cache ``key``'s signed cells, first evicting the oldest
        entries if the cache is full."""
        cache = self._position_cache
        if len(cache) >= _POSITION_CACHE_LIMIT:
            evict = max(1, _POSITION_CACHE_LIMIT >> _POSITION_CACHE_EVICT_SHIFT)
            for stale in list(itertools.islice(iter(cache), evict)):
                del cache[stale]
            if self._metrics is not None:
                self._metrics.cache_evictions.inc(evict)
        cache[key] = cells

    def _remember_batch(self, keys: np.ndarray, cells: np.ndarray,
                        signs: np.ndarray) -> None:
        """Cache the signed cells of the batch ``keys`` not cached yet,
        from their ``(depth, n)`` cell and sign arrays; no lookup is
        counted."""
        cache = self._position_cache
        key_list = keys.tolist()
        fresh = [j for j, key in enumerate(key_list) if key not in cache]
        if not fresh:
            return
        signed = np.where(signs[:, fresh] > 0, cells[:, fresh], ~cells[:, fresh])
        # Key by key, as ``positions`` builds them, so each entry's ints
        # are allocated together rather than row by row.
        for j, row_cells in zip(fresh, signed.T.tolist(), strict=True):
            if key_list[j] not in cache:  # repeated within the batch
                self._remember(key_list[j], tuple(row_cells))

    # -- updates ------------------------------------------------------------

    def update(self, item: Hashable, count: int = 1) -> None:
        """Apply ``ADD`` with weight ``count`` (may be negative).

        ``update(q)`` is exactly the paper's ``ADD(C, q)``;
        ``update(q, -1)`` is the subtraction step of the §4.2 first pass.

        Raises:
            ValueError: if ``count`` is not integral (see
                :func:`integral_count`); the sketch is left unchanged.
            OverflowError: if ``count`` lies outside
                ``[-(2**63 - 1), 2**63 - 1]``; the sketch is left unchanged.
        """
        if type(count) is not int:
            count = integral_count(count)
        if count > _MAX_WEIGHT or count < -_MAX_WEIGHT:
            raise OverflowError("weight does not fit int64")
        self._add(item, count)

    def _add(self, item: Hashable, count: int) -> None:
        """``ADD`` one record whose ``count`` is already checked."""
        cells = self._cells
        down = -count
        for cell in self._signed_cells(item):
            if cell < 0:
                cell = ~cell
                value = cells[cell] + down
            else:
                value = cells[cell] + count
            try:
                cells[cell] = value
            except ValueError:  # past int64
                cells[cell] = _wrapped(value)
        self._total_weight += count
        metrics = self._metrics
        if metrics is not None:
            metrics.updates.inc()
            metrics.update_batches.inc()

    def update_estimate(self, item: Hashable, count: int = 1) -> float:
        """Apply ``ADD`` with weight ``count``, then return
        ``ESTIMATE(C, item)``: APPROXTOP's loop body (§3.2) in one step.

        The one-record twin of :meth:`update_batch_estimates`: the
        result equals ``update(item, count)`` followed by
        ``estimate(item)``, bit for bit, and so do the counters and the
        update and estimate counts, but the key is encoded and looked up
        once.

        Raises:
            ValueError: if ``count`` is not integral; the sketch is left
                unchanged.
            OverflowError: if ``count`` lies outside
                ``[-(2**63 - 1), 2**63 - 1]``; the sketch is left unchanged.
        """
        if type(count) is not int:
            count = integral_count(count)
        if count > _MAX_WEIGHT or count < -_MAX_WEIGHT:
            raise OverflowError("weight does not fit int64")
        return self._add_estimate(item, count)

    def _add_estimate(self, item: Hashable, count: int) -> float:
        """:meth:`update_estimate` of a ``count`` already checked."""
        cells = self._cells
        down = -count
        rows: list[float] = []
        for cell in self._signed_cells(item):
            if cell < 0:
                cell = ~cell
                value = cells[cell] + down
                sign = -1.0
            else:
                value = cells[cell] + count
                sign = 1.0
            try:
                cells[cell] = value
            except ValueError:  # past int64
                cells[cell] = value = _wrapped(value)
            rows.append(float(value) * sign)
        self._total_weight += count
        metrics = self._metrics
        if metrics is not None:
            metrics.updates.inc()
            metrics.update_batches.inc()
            metrics.estimates.inc()
        return _median(rows)

    def update_batch(
        self,
        items: Iterable[Hashable] | np.ndarray,
        weights: Sequence[int] | np.ndarray | None = None,
    ) -> None:
        """Apply weighted updates for a whole batch of items at once.

        The counters and ``total_weight`` equal those of per-item
        :meth:`update` calls in any order (linearity).

        Args:
            items: iterable of stream items (ints take the fast path) or a
                pre-encoded uint64 key array.
            weights: optional per-item weights (default 1 each); negative
                weights delete, preserving linearity.

        Raises:
            ValueError: if a weight is not integral; the sketch is left
                unchanged.
            OverflowError: if a weight lies outside
                ``[-(2**63 - 1), 2**63 - 1]``; the sketch is left unchanged.
        """
        keys, weights_arr = self._batch_input(items, weights)
        if keys.size == 0:
            return
        flat = self._counters.reshape(-1)  # a view: counters are C-ordered
        row_starts = np.arange(0, flat.size, self._width)[:, None]
        for start in range(0, keys.size, _BATCH_SLICE):
            part = slice(start, start + _BATCH_SLICE)
            buckets, signs = self._rows.positions_array(keys[part])
            if weights_arr is not None:
                signs = signs * weights_arr[part]
            np.add.at(flat, (buckets + row_starts).ravel(), signs.ravel())
        self._count_batch(keys.size, weights_arr)

    def update_batch_estimates(
        self,
        items: Iterable[Hashable] | np.ndarray,
        weights: Sequence[int] | np.ndarray | None = None,
    ) -> np.ndarray:
        """Apply a batch in stream order and return each record's estimate
        as read just after its own update.

        This is APPROXTOP's ``ADD(C, q)`` then ``ESTIMATE(C, q)`` step
        (§3.2) for a whole batch.  The sketch never depends on what a
        caller does with an estimate, so record ``j``'s readout in row
        ``i`` is the pre-batch counter plus the prefix sum, over records
        ``0..j``, of the signed weights that land in its bucket.

        Entry ``j`` equals :meth:`estimate` of ``items[j]`` right after
        ``update(items[j], weights[j])`` in a per-item feed, bit for bit
        (``-0.0`` included: rows are read as ``float(counter) * sign`` and
        the median takes the rows in :func:`sorted` order, as
        ``statistics.median`` does).  Counters and ``total_weight`` end as
        :meth:`update_batch` leaves them.  Updates are counted as one
        batch; the estimates are not counted as reads, since a caller may
        use only some of them and counts those itself.

        The position cache ends holding every key of the batch, as a
        per-item feed leaves it, so per-item calls that follow find
        their keys; the batch's own lookups are not counted as hits or
        misses.

        Raises:
            ValueError: if a weight is not integral; the sketch is left
                unchanged.
            OverflowError: if a weight lies outside
                ``[-(2**63 - 1), 2**63 - 1]``; the sketch is left unchanged.
        """
        keys, weights_arr = self._batch_input(items, weights)
        estimates = np.empty(keys.size, dtype=np.float64)
        if keys.size == 0:
            return estimates
        depth = self._depth
        middle = depth // 2
        flat = self._counters.reshape(-1)
        row_starts = np.arange(0, flat.size, self._width)[:, None]
        # NumPy radix-sorts 16-bit keys, several times faster than int64.
        bucket_type = np.uint16 if self._width <= 1 << 16 else np.int64
        for start in range(0, keys.size, _BATCH_SLICE):
            part = slice(start, start + _BATCH_SLICE)
            buckets, signs = self._rows.positions_array(keys[part])
            row_cells = buckets + row_starts
            self._remember_batch(keys[part], row_cells, signs)
            steps = signs if weights_arr is None else signs * weights_arr[part]
            # A stable sort of each row lines up every counter's updates
            # in stream order; ``order`` indexes the raveled rows.
            order = np.argsort(buckets.astype(bucket_type), axis=1, kind="stable")
            order += np.arange(0, buckets.size, buckets.shape[1])[:, None]
            order = order.ravel()
            cells = row_cells.ravel()[order]
            steps = steps.ravel()[order]
            running = np.cumsum(steps)
            # Each counter's run of updates starts where ``cells`` changes.
            starts = np.empty(cells.size, dtype=bool)
            starts[0] = True
            np.not_equal(cells[1:], cells[:-1], out=starts[1:])
            firsts = np.flatnonzero(starts)
            lasts = np.append(firsts[1:], cells.size) - 1
            # Counter value after each update: the old counter plus the
            # running sum since the first update of its counter.
            before = flat[cells[firsts]] - running[firsts] + steps[firsts]
            after = running + np.repeat(before, lasts - firsts + 1)
            flat[cells[firsts]] = after[lasts]
            readouts = np.empty_like(after)
            readouts[order] = after
            rows = np.sort(readouts.reshape(depth, -1).astype(np.float64) * signs,
                           axis=0, kind="stable")
            estimates[part] = (rows[middle] if depth % 2
                               else (rows[middle - 1] + rows[middle]) / 2)
        self._count_batch(keys.size, weights_arr)
        return estimates

    def _batch_input(
        self,
        items: Iterable[Hashable] | np.ndarray,
        weights: Sequence[int] | np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """A batch's uint64 keys and validated int64 weights (``None``
        for unit weights)."""
        keys = encode_keys(items)
        if weights is None:
            return keys, None
        return keys, integral_weights(weights, keys.size)

    def _count_batch(self, size: int, weights: np.ndarray | None) -> None:
        """Add an applied batch to ``total_weight`` and the metrics."""
        if weights is None:
            self._total_weight += size
        elif size * max(int(weights.max()), -int(weights.min())) <= _MAX_WEIGHT:
            self._total_weight += int(weights.sum())
        else:  # the int64 sum could wrap: add exactly, as per-item updates do
            self._total_weight += sum(weights.tolist())
        metrics = self._metrics
        if metrics is not None:
            metrics.updates.inc(size)
            metrics.update_batches.inc()

    def update_counts(self, counts: Mapping[Hashable, int]) -> None:
        """Apply a pre-aggregated count table as one batch.

        Feeding a ``collections.Counter`` of a stream produces a sketch
        identical to item-at-a-time updates (linearity) at a fraction of
        the cost — the idiom the experiment harness uses.
        """
        self.update_batch(list(counts), list(counts.values()))

    def extend(self, stream: Iterable[Hashable]) -> None:
        """Apply ``ADD`` for each item of ``stream`` (aggregated, then one
        batch: identical counters)."""
        self.update_counts(Counter(stream))

    # -- queries ------------------------------------------------------------

    def estimate(self, item: Hashable) -> float:
        """Return ``ESTIMATE(C, item)``: the median of per-row estimates.

        With odd ``depth`` the result is an integer-valued float; with even
        ``depth`` the standard midpoint-average median is used.
        """
        rows = self.row_estimates(item)
        if self._metrics is not None:
            self._metrics.estimates.inc()
        return _median(rows)

    def row_estimates(self, item: Hashable) -> list[float]:
        """Return the ``depth`` individual per-row estimates for ``item``.

        Row ``i`` reads ``float(counters[i][h_i(q)]) * s_i(q)``, so a zero
        counter under a ``-1`` sign reads ``-0.0``.  Exposed for the
        estimator ablation (median vs mean, experiment A1) and for the
        variance experiments.
        """
        cells = self._cells
        return [float(cells[cell]) if cell >= 0 else -float(cells[~cell])
                for cell in self._signed_cells(item)]

    def row_values(self, item: Hashable) -> list[int]:
        """Return the per-row *signed counter readouts* for ``item`` as ints.

        ``row_values(q)[i]`` is exactly ``counters[i][h_i(q)] · s_i(q)`` —
        the integer whose median (over rows) is :meth:`estimate`.  Exposed
        for distributed scatter-gather: by §3.2 linearity the readouts of
        sharded sketches *sum* to the readouts of their merge, so a
        coordinator can add per-shard row values and take one median,
        bit-equal to querying the merged sketch.  Each value wraps as
        int64 does, as in :meth:`row_values_batch`: a counter at
        ``-2**63`` under a ``-1`` sign reads ``-2**63``.
        """
        cells = self._cells
        values = [cells[cell] if cell >= 0 else -cells[~cell]
                  for cell in self._signed_cells(item)]
        if _I64_NEGATED_MIN in values:  # only -(-2**63) leaves int64
            return [_wrapped(value) for value in values]
        return values

    def row_values_batch(
        self, items: Iterable[Hashable] | np.ndarray
    ) -> np.ndarray:
        """Per-row signed counter readouts as an ``(depth, n)`` int64 array.

        Column ``j`` holds ``counters[i][h_i(q_j)] · s_i(q_j)`` for each
        row ``i``: column ``j`` equals ``row_values(q_j)``.  By §3.2
        linearity the readouts of sharded sketches sum, elementwise, to
        the readouts of their merge, which is what makes distributed
        scatter-gather estimates bit-equal to a single merged sketch.
        """
        keys = encode_keys(items)
        rows = np.empty((self._depth, keys.size), dtype=np.int64)
        for start in range(0, keys.size, _BATCH_SLICE):
            part = slice(start, start + _BATCH_SLICE)
            buckets, signs = self._rows.positions_array(keys[part])
            rows[:, part] = np.take_along_axis(self._counters, buckets,
                                               axis=1) * signs
        return rows

    def estimate_batch(
        self, items: Iterable[Hashable] | np.ndarray
    ) -> np.ndarray:
        """Median-of-rows estimates for a whole batch of items.

        Each equals :meth:`estimate` of its item, except that a zero is
        always ``0.0`` (the per-item path can return ``-0.0``).
        """
        rows = self.row_values_batch(items)
        if self._metrics is not None:
            self._metrics.estimates.inc(rows.shape[1])
        return np.median(rows.astype(np.float64), axis=0)

    def estimate_mean(self, item: Hashable) -> float:
        """Estimate using the *mean* combiner §3.1 warns against.

        Unbiased but fragile: collisions with heavy hitters blow up single
        rows and the mean follows them, which is exactly why the paper uses
        the median.  Kept for the A1 ablation.
        """
        estimates = self.row_estimates(item)
        return sum(estimates) / len(estimates)

    def estimate_f2(self) -> float:
        """AMS-style estimate of the second frequency moment ``F2 = Σ n_q²``.

        Each row's sum of squared counters is an unbiased F2 estimator (the
        signs cancel cross terms in expectation); the median over rows
        concentrates.  The paper's γ (Eq. 5) is ``sqrt(F2_tail / b)``, so
        this estimator lets a deployment size ``b`` from the stream itself.
        """
        row_sums = (self._counters.astype(np.float64) ** 2).sum(axis=1)
        return float(np.median(row_sums))

    def inner_product(self, other: CountSketch) -> float:
        """Estimate ``Σ_q n_q(self) · n_q(other)`` from two sketches.

        Requires compatible sketches (shared hash functions).
        """
        self._require_compatible(other)
        row_dots = (
            self._counters.astype(np.float64)
            * other._counters.astype(np.float64)
        ).sum(axis=1)
        return float(np.median(row_dots))

    # -- sketch arithmetic (§3.2: we can add and subtract them) -----------

    def compatible_with(self, other: CountSketch) -> bool:
        """True if the sketches share shape *and* hash functions (which
        sketches of different hash families never do)."""
        return (
            isinstance(other, CountSketch)
            and self._depth == other._depth
            and self._width == other._width
            and self._rows == other._rows
        )

    def _require_compatible(self, other: CountSketch) -> None:
        if not isinstance(other, CountSketch):
            raise TypeError(f"expected CountSketch, got {type(other).__name__}")
        if not self.compatible_with(other):
            raise ValueError(
                "sketches are not compatible: arithmetic requires identical "
                "shape and shared hash functions (build both as the same "
                "class with the same (depth, width, seed))"
            )

    def _with_counters(self, counters: np.ndarray, total: int) -> CountSketch:
        clone = object.__new__(type(self))
        clone._start(self._rows, self._seed)
        clone._set_counters(counters)
        clone._total_weight = total
        return clone

    def copy(self) -> CountSketch:
        """Return an independent copy of this sketch."""
        return self._with_counters(self._counters.copy(), self._total_weight)

    def __add__(self, other: CountSketch) -> CountSketch:
        """Sketch of the concatenation of the two underlying streams."""
        self._require_compatible(other)
        return self._with_counters(
            self._counters + other._counters,
            self._total_weight + other._total_weight,
        )

    def __sub__(self, other: CountSketch) -> CountSketch:
        """Sketch of the *difference* of the two frequency vectors.

        ``(a - b).estimate(q)`` estimates ``n_q(a) - n_q(b)`` — the quantity
        the §4.2 max-change algorithm ranks by.
        """
        self._require_compatible(other)
        return self._with_counters(
            self._counters - other._counters,
            self._total_weight - other._total_weight,
        )

    def __neg__(self) -> CountSketch:
        return self._with_counters(-self._counters, -self._total_weight)

    def scale(self, factor: int | float) -> CountSketch:
        """Return the sketch of the frequency vector scaled by ``factor``.

        Two kinds of factor keep the int64 counter invariant (and with it
        ``state_dict`` round-tripping and equality against integer
        sketches), and only those are accepted:

        * **Integral factors** (``3``, ``-1``, ``2.0``) multiply every
          counter exactly.
        * **Exact reciprocals** (``0.5``, ``0.25``, …): a float whose
          IEEE-754 value is exactly ``1/k`` for an integer ``k >= 2``
          **floor-divides** every counter by ``k``.  ``scale(0.5)`` is the
          TinyLFU aging/reset operation (halve every counter when the
          sample watermark is hit; see :mod:`repro.cache`) and the halving
          step of Hokusai-style time decay.

        Floor-division semantics are pinned deliberately: ``counter // k``
        rounds toward negative infinity, so ``5 -> 2``, ``-5 -> -3``, and
        a ``-1`` counter is a fixed point of repeated halving (it never
        decays to ``0``).  Every per-row readout of ``scale(0.5)`` is
        therefore within ``0.5`` of half the original readout, and so is
        the median estimate.  Callers using halving as TinyLFU aging must
        clear their doorkeeper in the same step — the doorkeeper's ones
        are one-epoch state that the halved sketch no longer accounts for.

        Only binary reciprocals are exactly representable as floats
        (``0.2`` is really ``0.200000…11``), so non-dyadic fractions are
        rejected rather than silently mis-scaled.

        Raises:
            TypeError: if ``factor`` is not a real number.
            ValueError: if ``factor`` is neither integral nor an exact
                ``1/k`` reciprocal.
        """
        if isinstance(factor, (bool, np.bool_)):
            raise TypeError("scale factor must be an integer, not a bool")
        if isinstance(factor, (float, np.floating)):
            value = float(factor)
            if value.is_integer():
                factor = int(value)
            else:
                ratio = (
                    Fraction(value) if math.isfinite(value) else None
                )
                if (
                    ratio is None
                    or ratio.numerator != 1
                    or ratio.denominator < 2
                ):
                    raise ValueError(
                        f"scale factor must be integral or an exact "
                        f"reciprocal 1/k, got {factor!r}: other fractions "
                        "would break the int64 counter invariant (0.5 "
                        "floor-halves every counter; 0.2 is not exactly "
                        "representable as a float)"
                    )
                divisor = ratio.denominator
                return self._with_counters(
                    self._counters // divisor,
                    self._total_weight // divisor,
                )
        elif isinstance(factor, (int, np.integer)):
            factor = int(factor)
        else:
            raise TypeError(
                f"scale factor must be an integer, "
                f"got {type(factor).__name__}"
            )
        return self._with_counters(
            self._counters * factor, self._total_weight * factor
        )

    def merge(self, other: CountSketch) -> None:
        """In-place ``+=`` of a compatible sketch (distributed aggregation)."""
        self._require_compatible(other)
        self._counters += other._counters
        self._total_weight += other._total_weight

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountSketch):
            return NotImplemented
        return self.compatible_with(other) and bool(
            np.array_equal(self._counters, other._counters)
        )

    def __hash__(self) -> int:  # pragma: no cover - mutable, not hashable
        raise TypeError(f"{type(self).__name__} is mutable and unhashable")

    # -- introspection / serialization ---------------------------------------

    def l2_norm(self) -> float:
        """The L2 norm of the counter array (useful as a residual gauge)."""
        return float(math.sqrt(float((self._counters.astype(np.float64) ** 2).sum())))

    def state_dict(self) -> dict[str, Any]:
        """Serialize to a plain dict; the counters travel as an ndarray.

        Besides the dimensions and seed, the dict carries what the hash
        family needs to rebuild its functions: the per-row polynomial
        coefficients here (so sketches built with explicit
        ``bucket_hashes``/``sign_hashes`` of another family cannot be
        serialized this way), nothing for multiply-shift.

        The ``counters`` value is an independent int64 ``np.ndarray`` copy
        (not nested Python lists — boxing ``depth × width`` ints costs
        more than the sketch itself for wide configurations).  Callers
        that need JSON must ``.tolist()`` it themselves; durable snapshots
        should use :mod:`repro.store`, which packs the array as raw
        little-endian bytes behind a checksummed header.
        """
        return {
            "depth": self._depth,
            "width": self._width,
            "seed": self._seed,
            **self._rows.state(),
            "total_weight": self._total_weight,
            "counters": self._counters.copy(),
        }

    @classmethod
    def from_state_dict(cls, state: dict[str, Any]) -> CountSketch:
        """Rebuild a sketch serialized by :meth:`state_dict`.

        Raises:
            ValueError: if the coefficient lists disagree with ``depth``,
                or the counter array is non-integral or mis-shaped.
        """
        depth = state["depth"]
        width = state["width"]
        bucket_coefficients = state["bucket_coefficients"]
        sign_coefficients = state["sign_coefficients"]
        if len(bucket_coefficients) != depth:
            raise ValueError(
                f"expected {depth} bucket coefficient lists (one per row), "
                f"got {len(bucket_coefficients)}"
            )
        if len(sign_coefficients) != depth:
            raise ValueError(
                f"expected {depth} sign coefficient lists (one per row), "
                f"got {len(sign_coefficients)}"
            )
        bucket_hashes = [
            BucketHash(PolynomialHash(tuple(coeffs)), width)
            for coeffs in bucket_coefficients
        ]
        sign_hashes = [
            SignHash(PolynomialHash(tuple(coeffs)))
            for coeffs in sign_coefficients
        ]
        sketch = cls(
            depth,
            width,
            seed=state.get("seed", 0),
            bucket_hashes=bucket_hashes,
            sign_hashes=sign_hashes,
        )
        sketch._load_counts(state)
        return sketch

    def _load_counts(self, state: dict[str, Any]) -> None:
        self._set_counters(coerce_counter_array(
            state["counters"], self._depth, self._width
        ))
        self._total_weight = state["total_weight"]

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(depth={self._depth}, width={self._width}, "
            f"seed={self._seed}, total_weight={self._total_weight})"
        )
