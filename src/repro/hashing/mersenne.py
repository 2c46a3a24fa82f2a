"""k-wise-independent polynomial hashing over the Mersenne prime ``2**61-1``.

This is the classical Carter–Wegman construction: a degree-``k-1`` polynomial
with uniformly random coefficients over the field ``GF(p)`` is a k-wise
independent hash family.  With ``k = 2`` it provides exactly the pairwise
independence that the Count Sketch analysis (Lemmas 1–4 of the paper)
assumes, which is why this family is the default for every sketch in this
library.

Choosing a Mersenne prime makes the mod reduction cheap (shift/add instead of
division) in languages with fixed-width integers.  Per key, Python's exact
big-integer arithmetic keeps the implementation an obviously correct
transcription of the mathematics; over NumPy ``uint64`` arrays,
:func:`polynomial_values` multiplies in 32-bit limbs and folds with
``2**61 ≡ 1 (mod p)`` so no product overflows 64 bits.
:class:`PolynomialRowHashes` is a Count Sketch's rows drawn from this
family, with both evaluations.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property
from typing import Any

import numpy as np

from repro.hashing.bucket import BucketHash
from repro.hashing.family import HashFunction, seeded_rng
from repro.hashing.sign import SignHash

#: The Mersenne prime ``2**61 - 1``, comfortably above 64-bit key space /
#: the stream lengths considered here, so the "uniform over [0, p)" model is
#: a faithful approximation for 61-bit slices of the key space.
MERSENNE_PRIME_61 = (1 << 61) - 1


class PolynomialHash:
    """A single polynomial hash ``h(x) = (c_0 + c_1 x + ... ) mod p``.

    The output range is ``[0, p)`` with ``p = 2**61 - 1``.  Keys larger than
    ``p`` are folded into the field first; because keys are at most 64 bits
    and ``p`` is 61 bits, the fold keeps the family (k-1)-wise independent on
    distinct folded keys, and the fold itself collides at most 8 keys per
    residue — negligible against sketch error for all workloads here.

    Args:
        coefficients: polynomial coefficients, constant term first.  All must
            lie in ``[0, p)`` and the leading coefficient must be nonzero so
            the polynomial has full degree.
    """

    __slots__ = ("_coefficients",)

    def __init__(self, coefficients: tuple[int, ...]) -> None:
        if not coefficients:
            raise ValueError("a polynomial hash needs at least one coefficient")
        for c in coefficients:
            if not 0 <= c < MERSENNE_PRIME_61:
                raise ValueError(f"coefficient {c} outside [0, p)")
        if len(coefficients) > 1 and coefficients[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")
        self._coefficients = tuple(coefficients)

    @property
    def coefficients(self) -> tuple[int, ...]:
        """The polynomial coefficients, constant term first."""
        return self._coefficients

    @property
    def degree(self) -> int:
        """Degree of the polynomial (independence is ``degree + 1``-wise)."""
        return len(self._coefficients) - 1

    @property
    def range_size(self) -> int:
        """Output range bound: the Mersenne prime ``p``."""
        return MERSENNE_PRIME_61

    def __call__(self, key: int) -> int:
        """Evaluate the polynomial at ``key`` via Horner's rule."""
        x = key % MERSENNE_PRIME_61
        acc = 0
        for c in reversed(self._coefficients):
            acc = (acc * x + c) % MERSENNE_PRIME_61
        return acc

    def __repr__(self) -> str:
        return f"PolynomialHash(degree={self.degree})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolynomialHash):
            return NotImplemented
        return self._coefficients == other._coefficients

    def __hash__(self) -> int:
        return hash(self._coefficients)


class KWiseFamily:
    """A seeded family of mutually independent k-wise polynomial hashes.

    Args:
        independence: the ``k`` in k-wise independence (``2`` for the
            pairwise independence assumed by the paper).
        seed: integer seed; the family is deterministic given the seed.
        salt: optional extra derivation material so several families can be
            built from one user seed without correlation.
    """

    def __init__(self, independence: int = 2, seed: int = 0, salt: object = "") -> None:
        if independence < 1:
            raise ValueError("independence must be at least 1")
        self._independence = independence
        self._seed = seed
        self._salt = salt
        self._rng = seeded_rng(seed, "kwise", independence, salt)

    @property
    def independence(self) -> int:
        """The independence parameter ``k``."""
        return self._independence

    def draw(self, count: int) -> list[PolynomialHash]:
        """Draw ``count`` fresh, mutually independent polynomial hashes."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        functions = []
        for _ in range(count):
            coefficients = [
                self._rng.randrange(MERSENNE_PRIME_61)
                for _ in range(self._independence)
            ]
            if self._independence > 1:
                # Force full degree so independence is not silently degraded.
                coefficients[-1] = self._rng.randrange(1, MERSENNE_PRIME_61)
            functions.append(PolynomialHash(tuple(coefficients)))
        return functions

    def __repr__(self) -> str:
        return (
            f"KWiseFamily(independence={self._independence}, "
            f"seed={self._seed})"
        )


_P = np.uint64(MERSENNE_PRIME_61)
_LOW_32 = np.uint64((1 << 32) - 1)
_LOW_29 = np.uint64((1 << 29) - 1)
_U1, _U3, _U29, _U32, _U61 = (np.uint64(n) for n in (1, 3, 29, 32, 61))


def _reduce(x: np.ndarray) -> np.ndarray:
    """``x mod p`` for any uint64 ``x``: one fold, one conditional ``-p``
    (``x - p`` wraps above ``x`` exactly when ``x < p``)."""
    x = (x & _P) + (x >> _U61)
    return np.minimum(x, x - _P)


def polynomial_values(coefficients: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Evaluate one polynomial per row at every key, mod ``p = 2**61 - 1``.

    Bit-equal to :class:`PolynomialHash` key by key, with no 128-bit
    products: operands below ``2**61`` split into 32-bit limbs, so every
    partial product fits in 64 bits, and the folds use
    ``2**61 ≡ 1``, ``2**64 ≡ 8 (mod p)``.  (Computing ``a*x % p`` in
    64-bit integers directly would overflow silently.)

    Args:
        coefficients: ``(rows, k)`` uint64, constant term first, each
            below ``p``; rows of lower degree pad their top with zeros.
        keys: ``(n,)`` uint64 keys.

    Returns:
        ``(rows, n)`` uint64 values in ``[0, p)``.
    """
    if coefficients.shape[1] == 1:  # constant rows
        return np.repeat(coefficients, keys.size, axis=1)
    x = _reduce(keys)
    x_hi, x_lo = x >> _U32, x & _LOW_32
    acc = coefficients[:, -1:]  # Horner's rule, broadcast over the keys
    for column in range(coefficients.shape[1] - 2, -1, -1):
        a_hi, a_lo = acc >> _U32, acc & _LOW_32
        middle = a_hi * x_lo + a_lo * x_hi  # < 2**62, weight 2**32
        low = a_lo * x_lo  # < 2**64, weight 1
        acc = _reduce(
            ((a_hi * x_hi) << _U3)  # weight 2**64 ≡ 8
            + (middle >> _U29) + ((middle & _LOW_29) << _U32)
            + (low & _P) + (low >> _U61)
            + coefficients[:, column:column + 1]
        )
    return acc


def _polynomial(
    function: HashFunction, wrapper: type[BucketHash] | type[SignHash]
) -> tuple[int, ...] | None:
    """The coefficients under a bucket or sign wrapper, if polynomial."""
    if isinstance(function, wrapper) and isinstance(function.base, PolynomialHash):
        return function.base.coefficients
    return None


class PolynomialRowHashes:
    """Count Sketch rows of per-row bucket and sign functions.

    The paper's rows are :class:`KWiseFamily` polynomials under a
    :class:`~repro.hashing.bucket.BucketHash` and a
    :class:`~repro.hashing.sign.SignHash`; :meth:`positions_array`
    evaluates those with :func:`polynomial_values`.  Explicit functions
    of any other family (the hash-family ablation) are accepted too and
    are evaluated key by key on both paths.

    Args:
        bucket_hashes: one bucket function per row, each onto
            ``[0, width)``.
        sign_hashes: one ±1 function per row.
        width: buckets per row.
    """

    def __init__(self, bucket_hashes: Sequence[HashFunction],
                 sign_hashes: Sequence[HashFunction], width: int) -> None:
        self._buckets = tuple(bucket_hashes)
        self._signs = tuple(sign_hashes)
        self._width = width

    @property
    def depth(self) -> int:
        """Number of rows."""
        return len(self._buckets)

    @property
    def width(self) -> int:
        """Buckets per row."""
        return self._width

    def positions(self, key: int) -> tuple[int, ...]:
        """One encoded key's signed cells, one per row: row ``i``'s
        bucket ``b`` is cell ``i * width + b``, complemented (``~cell``)
        where the row's sign is ``-1``."""
        width = self._width
        rows = self._pairwise
        if rows is None:
            return tuple([start + h(key) if s(key) > 0 else ~(start + h(key))
                          for start, h, s in zip(range(0, self.depth * width, width),
                                                 self._buckets, self._signs, strict=True)])
        # Each row's two PolynomialHash evaluations, inlined:
        # (c1·x + c0) mod p.
        x = key % MERSENNE_PRIME_61
        cells: list[int] = []
        for start, (b0, b1), (s0, s1) in rows:
            cell = start + (b1 * x + b0) % MERSENNE_PRIME_61 % width
            cells.append(cell if (s1 * x + s0) % MERSENNE_PRIME_61 & 1 else ~cell)
        return tuple(cells)

    @cached_property
    def _polynomials(self) -> list[tuple[int, ...]] | None:
        """Coefficients of every bucket row, then every sign row; None
        when some row is not a polynomial draw."""
        rows = [_polynomial(h, BucketHash) for h in self._buckets]
        rows += [_polynomial(s, SignHash) for s in self._signs]
        polynomials = [row for row in rows if row is not None]
        return polynomials if len(polynomials) == len(rows) else None

    @cached_property
    def _pairwise(self) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]] | None:
        """Per row, its first cell and its bucket and sign coefficients,
        when all rows are degree-1 (pairwise) polynomials, as the default
        draws are; other functions are called key by key."""
        rows = self._polynomials
        if rows is None or any(len(row) != 2 for row in rows):
            return None
        depth = self.depth
        return list(zip(range(0, depth * self._width, self._width),
                        rows[:depth], rows[depth:], strict=True))

    @cached_property
    def _matrix(self) -> np.ndarray | None:
        # Built on the first array call: construction stays as cheap as
        # drawing the functions.
        if self._polynomials is None:
            return None
        rows = self._polynomials
        matrix = np.zeros((len(rows), max(map(len, rows))), dtype=np.uint64)
        for index, row in enumerate(rows):
            matrix[index, :len(row)] = row
        return matrix

    def positions_array(
        self, keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(depth, n)`` int64 bucket indices and ±1 signs of a uint64
        key array: :meth:`positions` of each key, before the folding
        into signed cells."""
        if self._matrix is None:
            listed = keys.tolist()
            return (np.asarray([[h(k) for k in listed] for h in self._buckets],
                               dtype=np.int64),
                    np.asarray([[s(k) for k in listed] for s in self._signs],
                               dtype=np.int64))
        values = polynomial_values(self._matrix, keys)
        depth = self.depth
        buckets = (values[:depth] % np.uint64(self._width)).astype(np.int64)
        signs = (values[depth:] & _U1).astype(np.int64) * 2 - 1
        return buckets, signs

    def state(self) -> dict[str, Any]:
        """The per-row coefficient lists a snapshot records.

        Raises:
            TypeError: if some row is not a polynomial draw.
        """
        if self._polynomials is None:
            raise TypeError("state_dict supports only default polynomial hashing")
        rows = [list(row) for row in self._polynomials]
        return {"bucket_coefficients": rows[:self.depth],
                "sign_coefficients": rows[self.depth:]}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolynomialRowHashes):
            return NotImplemented
        return (self._width == other._width and self._buckets == other._buckets
                and self._signs == other._signs)

    def __repr__(self) -> str:
        return f"PolynomialRowHashes(depth={self.depth}, width={self._width})"
