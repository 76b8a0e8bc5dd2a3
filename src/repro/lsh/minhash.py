"""MinHash and 1-bit minwise hashing for Jaccard similarity.

The paper's experiments (Section 6) use "standard MinHash [Broder 1997]
applying the 1-bit scheme of Li and König".  A MinHash function maps a set to
the minimum of a random hash over its elements; two sets agree on that value
with probability equal to their Jaccard similarity.  The 1-bit scheme keeps
only the lowest-order bit of the minimum, halving the bucket key size; the
collision probability becomes ``(1 + s) / 2`` for sets with Jaccard
similarity ``s``.

Item hashing uses a seeded splitmix64-style mixer rather than a linear
``(a x + b) mod p`` universal hash: linear hashes are only approximately
min-wise independent and visibly distort collision probabilities on
structured item sets, whereas the 64-bit mixer is indistinguishable from a
random function for this purpose (collisions between distinct items happen
with probability ~2^-64 and are irrelevant).

Because the LSH structures of the paper use hundreds of tables, hashing every
set with every function in a Python loop would dominate the running time.
Both families therefore expose a vectorized *batch hasher* (see
:class:`repro.lsh.family.BatchHasher`): the seeds of all drawn functions are
stacked into an array and a whole batch of sets is hashed with a handful of
numpy operations over a CSR-like flattened item representation, into the
int64 ``points x functions`` code matrix that is the batch hasher's one
method.  The table layer groups that matrix into buckets as it is; query,
insert and sweep keys are one ``tolist()`` of it.
"""

from __future__ import annotations

from typing import Hashable, Optional, Sequence

import numpy as np

from repro.distances.jaccard import JaccardSimilarity
from repro.exceptions import InvalidParameterError, UnsupportedDataTypeError
from repro.lsh.family import BatchHasher, HashFunction, LSHFamily
from repro.types import Dataset, Point
from repro.registry import register_lsh_family

#: Bucket key reserved for the empty set (no element to take a minimum over).
_EMPTY_SET_KEY = -1

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
#: Hash values are truncated to 63 bits so they always fit in a signed int64
#: (bucket keys and rank arrays use signed integers throughout).
_MASK_63 = np.uint64((1 << 63) - 1)


def _splitmix64(values: np.ndarray, seed) -> np.ndarray:
    """Seeded splitmix64 finalizer applied elementwise (broadcasts over seeds)."""
    with np.errstate(over="ignore"):
        z = values + (seed + _GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * _MIX_1
        z = (z ^ (z >> np.uint64(27))) * _MIX_2
        z = z ^ (z >> np.uint64(31))
    return z & _MASK_63


def _point_items(point: Point) -> np.ndarray:
    if not isinstance(point, (set, frozenset)):
        raise UnsupportedDataTypeError(
            f"MinHash expects set-valued points, got {type(point).__name__}"
        )
    return np.fromiter((int(x) for x in point), dtype=np.uint64, count=len(point))


class MinHashFunction(HashFunction):
    """A single MinHash function ``h(X) = min_{x in X} psi_seed(x)``."""

    def __init__(self, seed: int):
        self.seed = np.uint64(seed)

    def __call__(self, point: Point) -> Hashable:
        items = _point_items(point)
        if items.size == 0:
            return _EMPTY_SET_KEY
        return int(_splitmix64(items, self.seed).min())


class OneBitMinHashFunction(HashFunction):
    """1-bit minwise hash of Li and König: the parity of the MinHash value."""

    def __init__(self, seed: int):
        self._inner = MinHashFunction(seed)

    @property
    def seed(self) -> np.uint64:
        """The seed of the underlying MinHash function."""
        return self._inner.seed

    def __call__(self, point: Point) -> Hashable:
        value = self._inner(point)
        if value == _EMPTY_SET_KEY:
            return _EMPTY_SET_KEY
        return int(value) & 1


class _MinHashBatchHasher(BatchHasher):
    """Vectorized evaluation of many MinHash functions.

    ``seeds`` holds one uint64 seed per wrapped function; ``one_bit`` selects
    the Li-König reduction.  Datasets are flattened into a single item array
    plus segment offsets so that ``numpy.minimum.reduceat`` computes all
    per-set minima at once; functions are processed in chunks to bound peak
    memory.
    """

    def __init__(self, seeds: np.ndarray, one_bit: bool, chunk_size: int = 64):
        self._seeds = seeds.astype(np.uint64)
        self._one_bit = one_bit
        self._chunk_size = max(1, int(chunk_size))

    # ------------------------------------------------------------------
    def _finalize(self, minima: np.ndarray) -> np.ndarray:
        if self._one_bit:
            return (minima & np.uint64(1)).astype(np.int64)
        return minima.astype(np.int64)

    def codes(self, points: Dataset) -> np.ndarray:
        items = [_point_items(point) for point in points]
        sizes = np.fromiter(map(len, items), dtype=np.int64, count=len(items))
        non_empty = sizes > 0
        # Functions by points, filled one chunk of functions at a time, and
        # returned transposed: each function's codes stay one contiguous row.
        # Empty sets keep the sentinel, the rest take their minima.
        codes = np.full((self._seeds.size, len(items)), _EMPTY_SET_KEY, dtype=np.int64)
        if non_empty.any():
            flat = np.concatenate(items)
            offsets = np.cumsum(sizes[non_empty]) - sizes[non_empty]
            for start in range(0, self._seeds.size, self._chunk_size):
                stop = min(self._seeds.size, start + self._chunk_size)
                hashed = _splitmix64(flat[None, :], self._seeds[start:stop, None])
                codes[start:stop, non_empty] = self._finalize(
                    np.minimum.reduceat(hashed, offsets, axis=1)
                )
        return codes.T


def _batch_hasher_from(
    functions: Sequence[HashFunction], expected_type, one_bit: bool
) -> Optional[_MinHashBatchHasher]:
    seeds = []
    for function in functions:
        if not isinstance(function, expected_type):
            return None
        seeds.append(np.uint64(function.seed))
    if not seeds:
        return None
    return _MinHashBatchHasher(np.asarray(seeds, dtype=np.uint64), one_bit=one_bit)


@register_lsh_family("minhash")
class MinHashFamily(LSHFamily):
    """The classical MinHash family: collision probability equals Jaccard."""

    def __init__(self) -> None:
        self.measure = JaccardSimilarity()

    def sample(self, rng: np.random.Generator) -> MinHashFunction:
        return MinHashFunction(int(rng.integers(0, 2**63 - 1)))

    def collision_probability(self, value: float) -> float:
        if not 0.0 <= value <= 1.0:
            raise InvalidParameterError(f"Jaccard similarity must be in [0, 1], got {value}")
        return float(value)

    def make_batch_hasher(self, functions: Sequence[HashFunction]):
        return _batch_hasher_from(functions, MinHashFunction, one_bit=False)


@register_lsh_family("onebit_minhash")
class OneBitMinHashFamily(LSHFamily):
    """1-bit minwise hashing: collision probability ``(1 + s) / 2``.

    The extra ``1/2`` baseline comes from unrelated sets colliding on the
    parity bit half of the time; concatenating ``K`` functions still yields a
    usable gap between near and far points and keeps bucket keys tiny.
    """

    def __init__(self) -> None:
        self.measure = JaccardSimilarity()

    def sample(self, rng: np.random.Generator) -> OneBitMinHashFunction:
        return OneBitMinHashFunction(int(rng.integers(0, 2**63 - 1)))

    def collision_probability(self, value: float) -> float:
        if not 0.0 <= value <= 1.0:
            raise InvalidParameterError(f"Jaccard similarity must be in [0, 1], got {value}")
        return 0.5 * (1.0 + float(value))

    def make_batch_hasher(self, functions: Sequence[HashFunction]):
        return _batch_hasher_from(functions, OneBitMinHashFunction, one_bit=True)
