"""Canonical encoding of stream items to 64-bit integer keys.

Sketches hash *integers*; streams carry arbitrary hashable Python objects
(query strings, flow 5-tuples, ...).  Python's builtin ``hash`` is salted per
process (``PYTHONHASHSEED``), so a sketch built in one process could not be
merged with, or compared against, a sketch built in another.  This module
provides a deterministic, process-stable mapping instead.

Integers are passed through (reduced mod ``2**64``) so that the common case
of integer item identifiers costs nothing.  Strings, bytes, and other
structured keys are digested with BLAKE2b (8-byte digest), which is both fast
and stable across processes and platforms.

Collisions between distinct non-integer keys occur with probability
``~ 2**-64`` per pair, far below the error terms of any sketch built on top.
"""

from __future__ import annotations

import hashlib
from collections.abc import Hashable

import numpy as np

_MASK_64 = (1 << 64) - 1


def _digest_bytes(data: bytes) -> int:
    """Return a stable 64-bit digest of ``data``."""
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8).digest(), byteorder="little"
    )


def encode_key(item: Hashable) -> int:
    """Encode ``item`` as an integer in ``[0, 2**64)``.

    The encoding is deterministic across processes and platforms, which makes
    sketches serializable and mergeable between machines.

    Supported key types:

    * ``int`` — passed through mod ``2**64`` (negative values wrap).
      NumPy integer scalars (``np.integer``) and booleans (``np.bool_``)
      encode identically to the equivalent Python ``int``.
    * ``str`` — BLAKE2b digest of the UTF-8 encoding.  Lone surrogates
      (as produced by reading byte-garbled logs with
      ``errors="surrogateescape"``) are encoded with ``surrogatepass``,
      so such strings hash deterministically instead of raising.
    * ``bytes`` / ``bytearray`` — BLAKE2b digest of the raw bytes.
    * ``tuple`` — digest of the recursively encoded elements (so flow
      5-tuples and similar composite keys work out of the box).
    * ``bool`` — treated as ``int`` (``False`` → 0, ``True`` → 1).
    * ``float`` — digest of the IEEE-754 representation via ``float.hex``.

    Raises:
        TypeError: for unsupported key types.
    """
    if type(item) is int:  # the common case, ahead of the bool test
        return item & _MASK_64
    if isinstance(item, (bool, np.bool_)):
        return int(item)
    if isinstance(item, (int, np.integer)):
        return int(item) & _MASK_64
    if isinstance(item, str):
        return _digest_bytes(item.encode("utf-8", "surrogatepass"))
    if isinstance(item, (bytes, bytearray)):
        return _digest_bytes(bytes(item))
    if isinstance(item, float):
        return _digest_bytes(item.hex().encode("ascii"))
    if isinstance(item, tuple):
        parts = b"".join(
            encode_key(part).to_bytes(8, byteorder="little") for part in item
        )
        return _digest_bytes(b"tuple:" + parts)
    raise TypeError(
        f"cannot encode key of type {type(item).__name__!r}; "
        "supported types are int, str, bytes, float, bool, and tuples thereof"
    )
