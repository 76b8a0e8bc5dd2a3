"""p-stable (Gaussian projection) LSH family for Euclidean distance (E2LSH).

A hash function projects the point onto a random Gaussian direction, shifts
it by a random offset and quantizes into buckets of width ``w``.  The
collision probability of two points at Euclidean distance ``d`` is the
classical Datar-Immorlica-Indyk-Mirrokni expression

    p(d) = 1 - 2 * Phi(-w/d) - (2 d / (sqrt(2 pi) w)) * (1 - exp(-w^2 / (2 d^2)))

which is monotonically decreasing in ``d``.

Hashing goes through a batch hasher (see
:class:`repro.lsh.family.BatchHasher`): the directions of all drawn
functions are stacked into one ``dim x F`` matrix, so a batch of points is
hashed into its int64 ``points x F`` code matrix with one product and one
floor, whether it is the dataset at fit time (grouped into buckets as a
matrix), an insert batch, the points a compaction sweep rehashes or a
query batch (one ``tolist()`` each).
"""

from __future__ import annotations

import math
from typing import Hashable, Sequence

import numpy as np

from repro.distances.euclidean import EuclideanDistance
from repro.exceptions import InvalidParameterError
from repro.lsh.family import BatchHasher, HashFunction, LSHFamily
from repro.types import Dataset, Point
from repro.registry import register_lsh_family


def _standard_normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


class PStableHashFunction(HashFunction):
    """``h(x) = floor((<a, x> + b) / w)`` with Gaussian ``a``, uniform ``b``."""

    def __init__(self, direction: np.ndarray, offset: float, width: float):
        self._direction = np.asarray(direction, dtype=float)
        self._offset = float(offset)
        self._width = float(width)

    def __call__(self, point: Point) -> Hashable:
        projection = float(np.dot(np.asarray(point, dtype=float), self._direction))
        return int(math.floor((projection + self._offset) / self._width))


class _PStableBatchHasher(BatchHasher):
    """All wrapped ``floor((<a, x> + b) / w)`` at once: one product per batch.

    The ``F`` directions are the columns of one ``dim x F`` matrix, so
    hashing ``m`` points is one ``m x F`` product, the same offset-and-scale
    arithmetic as :meth:`PStableHashFunction.__call__` and a floor.
    """

    def __init__(self, functions: Sequence[PStableHashFunction]):
        self._directions = np.stack([f._direction for f in functions], axis=1)
        self._offsets = np.array([f._offset for f in functions])
        self._widths = np.array([f._width for f in functions])

    def codes(self, points: Dataset) -> np.ndarray:
        data = np.asarray(points, dtype=float)
        return np.floor((data @ self._directions + self._offsets) / self._widths).astype(np.int64)


@register_lsh_family("pstable")
class PStableFamily(LSHFamily):
    """Gaussian (2-stable) projection family for Euclidean distance."""

    def __init__(self, dim: int, width: float = 4.0):
        if dim < 1:
            raise InvalidParameterError(f"dimension must be >= 1, got {dim}")
        if width <= 0:
            raise InvalidParameterError(f"bucket width must be positive, got {width}")
        self.dim = int(dim)
        self.width = float(width)
        self.measure = EuclideanDistance()

    def sample(self, rng: np.random.Generator) -> PStableHashFunction:
        direction = rng.standard_normal(self.dim)
        offset = float(rng.uniform(0.0, self.width))
        return PStableHashFunction(direction, offset, self.width)

    def make_batch_hasher(self, functions: Sequence[HashFunction]):
        if not functions or not all(isinstance(f, PStableHashFunction) for f in functions):
            return None
        return _PStableBatchHasher(functions)

    def collision_probability(self, value: float) -> float:
        if value < 0:
            raise InvalidParameterError(f"distance must be non-negative, got {value}")
        if value == 0.0:
            return 1.0
        ratio = self.width / value
        term_cdf = 1.0 - 2.0 * _standard_normal_cdf(-ratio)
        term_density = (
            2.0 / (math.sqrt(2.0 * math.pi) * ratio) * (1.0 - math.exp(-(ratio**2) / 2.0))
        )
        return max(0.0, term_cdf - term_density)
