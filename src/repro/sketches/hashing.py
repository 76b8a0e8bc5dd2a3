"""Pairwise-independent hash functions over integer keys.

The count-distinct sketch of Bar-Yossef et al. (Section 2.3 of the paper)
hashes stream elements with a function drawn from a pairwise independent
family mapping ``[n] -> [n^3]``.  We implement the classical
``(a * x + b) mod p`` construction over a Mersenne prime, reduced into the
requested range.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.rng import SeedLike, ensure_rng

#: Mersenne prime 2^61 - 1; large enough for any practical universe here.
_PRIME = (1 << 61) - 1

_P = np.uint64(_PRIME)
_U61 = np.uint64(61)
_U32 = np.uint64(32)
_U29 = np.uint64(29)
_LOW32 = np.uint64((1 << 32) - 1)
_LOW29 = np.uint64((1 << 29) - 1)


def _fold(values: np.ndarray) -> np.ndarray:
    """Reduce uint64 *values* modulo ``p`` into a new array.

    ``2^61 = 1 (mod p)``, so ``x = (x & p) + (x >> 61) (mod p)``; the fold
    leaves a value below ``2^61 + 8 < 2p``, which one conditional subtract
    brings into ``[0, p)``.
    """
    folded = (values & _P) + (values >> _U61)
    folded[folded >= _P] -= _P
    return folded


class PairwiseIndependentHash:
    """A hash ``x -> ((a x + b) mod p) mod range`` with random ``a, b``."""

    def __init__(self, a: int, b: int, output_range: int):
        if not 0 < a < _PRIME:
            raise InvalidParameterError("multiplier a must be in (0, prime)")
        if not 0 <= b < _PRIME:
            raise InvalidParameterError("offset b must be in [0, prime)")
        if output_range < 1:
            raise InvalidParameterError(f"output range must be >= 1, got {output_range}")
        self.a = int(a)
        self.b = int(b)
        self.output_range = int(output_range)

    @classmethod
    def sample(cls, output_range: int, seed: SeedLike = None) -> "PairwiseIndependentHash":
        """Draw a random member of the family with the given output range."""
        rng = ensure_rng(seed)
        a = int(rng.integers(1, _PRIME))
        b = int(rng.integers(0, _PRIME))
        return cls(a, b, output_range)

    def __call__(self, key: int) -> int:
        return ((self.a * int(key) + self.b) % _PRIME) % self.output_range

    def hash_array(self, keys) -> np.ndarray:
        """Exact vectorized :meth:`__call__` over non-negative integer keys."""
        return hash_rows([self], keys)[0]


def hash_rows(hashes, keys) -> np.ndarray:
    """Hash *keys* with every function of *hashes* in one array pass.

    Returns an ``int64`` array of shape ``(len(hashes), len(keys))`` whose
    row ``i`` equals ``[hashes[i](key) for key in keys]`` exactly.  The
    product ``a * x`` of two 61-bit residues is split into 32-bit halves so
    every partial product fits in ``uint64``; the ``2^64`` and ``2^32``
    weights reduce through ``2^61 = 1 (mod p)``.  Keys must be non-negative.
    """
    keys = np.asarray(keys)
    if keys.dtype.kind not in "iu":
        raise InvalidParameterError(f"keys must be integers, got dtype {keys.dtype}")
    if keys.dtype.kind == "i" and keys.size and keys.min() < 0:
        raise InvalidParameterError("keys must be non-negative")
    x = _fold(keys.astype(np.uint64).reshape(1, -1))
    a = np.array([h.a for h in hashes], dtype=np.uint64).reshape(-1, 1)
    b = np.array([h.b for h in hashes], dtype=np.uint64).reshape(-1, 1)
    # Values are already below p, so a range of p or more leaves them as is.
    ranges = np.array([min(h.output_range, _PRIME) for h in hashes], dtype=np.uint64)
    a_hi, a_lo = a >> _U32, a & _LOW32
    x_hi, x_lo = x >> _U32, x & _LOW32
    # a * x = a_hi x_hi 2^64 + (a_hi x_lo + a_lo x_hi) 2^32 + a_lo x_lo,
    # with a_hi, x_hi < 2^29 and a_lo, x_lo < 2^32.
    middle = a_hi * x_lo + a_lo * x_hi  # < 2^62
    total = (a_hi * x_hi) << np.uint64(3)  # 2^64 = 8 (mod p); < 2^61
    total += middle >> _U29  # middle 2^32 = (middle >> 29) 2^61 + ...
    total += (middle & _LOW29) << _U32
    total += _fold(a_lo * x_lo)
    total += b  # four terms below 2^61 plus one below 2^33: no overflow
    values = _fold(total)
    values %= ranges.reshape(-1, 1)
    return values.astype(np.int64)
