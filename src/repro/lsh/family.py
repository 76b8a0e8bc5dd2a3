"""Abstract LSH family interface and AND-composition.

An LSH family (Definition 3 of the paper) is a distribution over hash
functions such that the collision probability of two points is a function of
their (dis)similarity.  The samplers only rely on three operations:

* draw a random hash function (:meth:`LSHFamily.sample`),
* evaluate it on a point or a whole dataset (:class:`HashFunction`),
* evaluate the collision-probability curve
  (:meth:`LSHFamily.collision_probability`), which parameter selection uses
  to choose the concatenation length ``K`` and the number of repetitions
  ``L``.
"""

from __future__ import annotations

import abc
from typing import Hashable, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.distances.base import Measure
from repro.exceptions import InvalidParameterError
from repro.rng import SeedLike, ensure_rng
from repro.types import Dataset, Point


class HashFunction(abc.ABC):
    """A single hash function drawn from an LSH family."""

    @abc.abstractmethod
    def __call__(self, point: Point) -> Hashable:
        """Hash a single point to a hashable bucket key."""

    def hash_dataset(self, dataset: Dataset) -> List[Hashable]:
        """Hash every point of *dataset*; subclasses may vectorize this."""
        return [self(p) for p in dataset]


def key_tuples(values: Iterable, width: int) -> Iterator[tuple]:
    """Consecutive *width*-tuples of *values*, as an iterator.

    Key tuples come straight from the ``tolist()`` of a raveled code
    matrix, with no list per key or per row in between.
    """
    return zip(*[iter(values)] * width)


class BatchHasher(abc.ABC):
    """Vectorized evaluation of *many* hash functions at once.

    Hashing loops in pure Python dominate the construction and query cost of
    LSH structures with hundreds of tables; families that can evaluate all
    their drawn functions with numpy expose a batch hasher through
    :meth:`LSHFamily.make_batch_hasher` and the table layer uses it
    transparently.

    A batch hasher implements one method, :meth:`codes`: the int64
    ``points x functions`` code matrix of a batch of points.  Everything
    else derives from that matrix here.  The table layer groups each table's
    code block straight into buckets (:meth:`table_codes`); the key lists
    are one ``tolist()`` of it, with :attr:`key_width` adjacent columns
    forming one tuple key of an AND-composition.
    """

    #: Code columns per bucket key: ``None`` when each column is one ``int``
    #: key, ``k`` when columns ``t*k .. t*k + k - 1`` form table ``t``'s
    #: ``k``-tuple key (a tuple even for ``k = 1``).
    key_width: Optional[int] = None

    @abc.abstractmethod
    def codes(self, points: Dataset) -> np.ndarray:
        """The int64 ``points x functions`` code matrix of *points*."""

    def table_codes(self, points: Dataset) -> np.ndarray:
        """Per table, the codes of every point: ``(tables, points)`` for int
        keys, ``(tables, points, key_width)`` for tuple keys."""
        codes = self.codes(points)
        if self.key_width is None:
            return codes.T
        width = self.key_width
        return codes.reshape(codes.shape[0], codes.shape[1] // width, width).swapaxes(0, 1)

    def keys_for_points(self, points: Dataset) -> List[List[Hashable]]:
        """Per point, the bucket key under every wrapped function.

        The entry point of batched query execution, inserts and the
        compaction sweep: a whole batch in one vectorized pass.
        """
        codes = self.codes(points)
        if self.key_width is None:
            return codes.tolist()
        keys = key_tuples(codes.ravel().tolist(), self.key_width)
        return [list(row) for row in key_tuples(keys, codes.shape[1] // self.key_width)]

    def keys_for_point(self, point: Point) -> List[Hashable]:
        """One bucket key per wrapped hash function for a single point."""
        return self.keys_for_points([point])[0]

    def keys_for_dataset(self, dataset: Dataset) -> List[List[Hashable]]:
        """Per wrapped function, the bucket key of every dataset point."""
        blocks = self.table_codes(dataset)
        if self.key_width is None:
            return blocks.tolist()
        return [list(key_tuples(block.ravel().tolist(), self.key_width)) for block in blocks]


class LSHFamily(abc.ABC):
    """A distribution over locality sensitive hash functions."""

    #: The measure whose value parameterises the collision probability curve.
    measure: Measure

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator) -> HashFunction:
        """Draw a random hash function from the family."""

    @abc.abstractmethod
    def collision_probability(self, value: float) -> float:
        """Collision probability of two points at measure value *value*."""

    def make_batch_hasher(self, functions: Sequence[HashFunction]):
        """Return a :class:`BatchHasher` for *functions*, or ``None``.

        The default implementation returns ``None``, meaning the table layer
        falls back to calling each function individually.
        """
        return None

    def sample_many(self, count: int, seed: SeedLike = None) -> List[HashFunction]:
        """Draw *count* i.i.d. hash functions."""
        if count < 0:
            raise InvalidParameterError(f"count must be non-negative, got {count}")
        rng = ensure_rng(seed)
        return [self.sample(rng) for _ in range(count)]

    def concatenate(self, k: int) -> "ConcatenatedFamily":
        """Return the AND-composition of *k* independent copies of the family."""
        return ConcatenatedFamily(self, k)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class _ConcatenatedHash(HashFunction):
    """Tuple of ``k`` independent hash values (AND-composition)."""

    def __init__(self, parts: Sequence[HashFunction]):
        self._parts = list(parts)

    def __call__(self, point: Point) -> Hashable:
        return tuple(h(point) for h in self._parts)

    def hash_dataset(self, dataset: Dataset) -> List[Hashable]:
        columns = [h.hash_dataset(dataset) for h in self._parts]
        return list(zip(*columns)) if columns else [() for _ in range(len(dataset))]


class ConcatenatedFamily(LSHFamily):
    """AND-composition ``H^K`` of a base family.

    Two points collide under the concatenated function only if they collide
    under every one of the ``k`` independent base functions, so the collision
    probability becomes ``p^k``.  This is the standard way to drive the
    far-point collision probability ``p2`` below ``1/n`` (Section 2.2).
    """

    def __init__(self, base: LSHFamily, k: int):
        if k < 1:
            raise InvalidParameterError(f"concatenation length must be >= 1, got {k}")
        self.base = base
        self.k = int(k)
        self.measure = base.measure

    def sample(self, rng: np.random.Generator) -> HashFunction:
        return _ConcatenatedHash([self.base.sample(rng) for _ in range(self.k)])

    def collision_probability(self, value: float) -> float:
        return self.base.collision_probability(value) ** self.k

    def make_batch_hasher(self, functions: Sequence[HashFunction]):
        """Batch-evaluate concatenated functions via the base family's hasher.

        The ``L`` concatenated functions are flattened into ``L * k`` base
        functions, handed to the base family's batch hasher, and its code
        matrix is read as ``k``-tuple keys (see :attr:`BatchHasher.key_width`).
        A base hasher that already reads tuple keys (a nested composition)
        gets none: its keys are tuples of tuples, which no code matrix
        holds, so its functions hash one by one.
        """
        parts: List[HashFunction] = []
        for function in functions:
            if not isinstance(function, _ConcatenatedHash):
                return None
            parts.extend(function._parts)
        base_hasher = self.base.make_batch_hasher(parts)
        if base_hasher is None or base_hasher.key_width is not None:
            return None
        return _ConcatenatedBatchHasher(base_hasher, self.k)


class _ConcatenatedBatchHasher(BatchHasher):
    """The base hasher's code matrix, read as ``k``-tuple keys per table."""

    def __init__(self, base: BatchHasher, k: int):
        self._base = base
        self.key_width = k

    def codes(self, points: Dataset) -> np.ndarray:
        return self._base.codes(points)
