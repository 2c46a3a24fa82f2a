"""Seeded input generation owned by the benchmark.

Every workload draws its inputs here, from one NumPy ``Generator`` per
seed, before any clock starts.  Nothing is taken from ``repro.streams``
or ``repro.traffic``, so a change to the program cannot shift the
inputs; :func:`fingerprint` digests them so two runs (or a parent and a
change) can show that they measured the same records.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK_63 = np.uint64((1 << 63) - 1)


def generator(seed: int, stream: str) -> np.random.Generator:
    """An independent PCG64 generator for one named input stream."""
    tag = int.from_bytes(hashlib.blake2b(stream.encode(), digest_size=8).digest(), "little")
    return np.random.Generator(np.random.PCG64([seed, tag]))


def scrambled_ids(n_keys: int, seed: int) -> np.ndarray:
    """``n_keys`` distinct pseudo-random ids in ``[0, 2**63)``, rank-ordered.

    Rank ``r`` maps through the SplitMix64 finalizer (a bijection on 64
    bits) and drops the top bit, so ids fit a signed 64-bit wire key.
    Dropping a bit could in principle collide two ranks; that is checked.
    """
    with np.errstate(over="ignore"):
        z = np.arange(n_keys, dtype=np.uint64) + np.uint64(seed * 0x9E3779B97F4A7C15 % (1 << 64))
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    ids = (z & _MASK_63).astype(np.int64)
    ordered = np.sort(ids)
    if bool((ordered[1:] == ordered[:-1]).any()):
        raise RuntimeError("scrambled ids collided; choose another seed")
    return ids


def zipf_ranks(rng: np.random.Generator, n_keys: int, z: float, size: int) -> np.ndarray:
    """``size`` draws of a Zipf(``z``) law over ranks ``0 .. n_keys-1``.

    Inverse-CDF sampling over the finite support, so ``z <= 1`` works
    (``numpy.random.zipf`` needs ``z > 1`` and an infinite support).
    """
    weights = np.arange(1, n_keys + 1, dtype=np.float64) ** -z
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    ranks = np.searchsorted(cdf, rng.random(size), side="right")
    return np.minimum(ranks, n_keys - 1).astype(np.int64)


def zipf_stream(seed: int, stream: str, n_keys: int, z: float, size: int) -> np.ndarray:
    """``size`` Zipf(``z``) draws over ``n_keys`` scrambled ids (int64)."""
    ids = scrambled_ids(n_keys, seed)
    return ids[zipf_ranks(generator(seed, stream), n_keys, z, size)]


def batches(stream: np.ndarray, batch: int) -> list[np.ndarray]:
    """Split ``stream`` into consecutive ``batch``-record views."""
    return [stream[start:start + batch] for start in range(0, stream.size, batch)]


def fingerprint(*arrays: np.ndarray) -> str:
    """A short digest of the exact input bytes (dtype and shape included)."""
    digest = hashlib.blake2b(digest_size=8)
    for array in arrays:
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()
