"""Bottom-t (KMV) count-distinct sketches.

A single sketch keeps, for each of ``delta_rows`` independent hash functions,
the ``t`` smallest distinct hash values observed.  The per-row estimate of
the number of distinct elements is ``t * R / v_t`` where ``R`` is the hash
range and ``v_t`` the ``t``-th smallest value; the overall estimate is the
median across rows, exactly as in the construction the paper cites
(Bar-Yossef et al., RANDOM 2002).  Two sketches built with the *same* hash
functions can be merged by keeping the ``t`` smallest values of the union of
their value lists — the property Section 4 relies on to combine the sketches
of the ``L`` buckets colliding with a query.

:class:`DistinctCountSketcher` is the factory that fixes the shared hash
functions so that sketches created for different buckets are mergeable.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, List, Sequence

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.rng import SeedLike, ensure_rng
from repro.sketches.hashing import PairwiseIndependentHash, hash_rows


class BottomTSketch:
    """A mergeable bottom-``t`` sketch over integer keys.

    Sketches built with the same hash functions combine with :meth:`merge`
    into the sketch of the union of their key streams.  Each row is a
    sorted ``int64`` array, so every operation is a few array calls per
    hash row.

    Parameters
    ----------
    hashes:
        The shared hash rows; obtain them from a
        :class:`DistinctCountSketcher` so sketches stay mergeable.
    t:
        Number of smallest distinct hash values kept per row.
    """

    def __init__(self, hashes: Sequence[PairwiseIndependentHash], t: int):
        if t < 1:
            raise InvalidParameterError(f"t must be >= 1, got {t}")
        if not hashes:
            raise InvalidParameterError("at least one hash row is required")
        self._hashes = list(hashes)
        self.t = int(t)
        # One sorted array of the smallest distinct hash values per row.
        self._rows: List[np.ndarray] = [_EMPTY for _ in self._hashes]

    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Number of independent hash rows (the delta repetitions)."""
        return len(self._hashes)

    def estimate(self) -> float:
        """Median-of-rows estimate of the number of distinct inserted keys."""
        # Small streams are answered exactly: every row has seen fewer than t
        # distinct values, so the bottom-t list *is* the full value set.
        estimates = []
        for row, hash_function in zip(self._rows, self._hashes):
            if len(row) < self.t:
                estimates.append(float(len(row)))
            else:
                v_t = int(row[self.t - 1])
                if v_t == 0:
                    estimates.append(float(len(row)))
                else:
                    estimates.append(self.t * hash_function.output_range / v_t)
        # The float median of np.median, without its per-call overhead.
        return statistics.median(estimates)

    def merge(self, other: "BottomTSketch") -> "BottomTSketch":
        """Return a new sketch equivalent to sketching the union of streams.

        Both sketches must come from the same :class:`DistinctCountSketcher`
        (i.e. share hash functions and ``t``); merging sketches with different
        randomness would produce meaningless estimates.
        """
        return BottomTSketch.merge_all([self, other])

    @staticmethod
    def merge_all(sketches: Sequence["BottomTSketch"]) -> "BottomTSketch":
        """Merge a non-empty sequence of compatible sketches.

        Bottom-``t`` of a union is the bottom-``t`` of the concatenated rows,
        so each hash row costs one concatenate, one sort and one slice
        however many sketches take part.
        """
        if not sketches:
            raise InvalidParameterError("cannot merge an empty sequence of sketches")
        first = sketches[0]
        for sketch in sketches[1:]:
            first._check_compatible(sketch)
        merged = BottomTSketch(first._hashes, first.t)
        merged._rows = [
            _bottom(np.concatenate([sketch._rows[row] for sketch in sketches]), first.t)
            for row in range(first.num_rows)
        ]
        return merged

    # ------------------------------------------------------------------
    def _check_compatible(self, other: "BottomTSketch") -> None:
        if self.t != other.t or len(self._hashes) != len(other._hashes):
            raise InvalidParameterError("sketches have incompatible shapes and cannot be merged")
        for mine, theirs in zip(self._hashes, other._hashes):
            if mine is not theirs and (mine.a != theirs.a or mine.b != theirs.b):
                raise InvalidParameterError(
                    "sketches were built with different hash functions; "
                    "create them from the same DistinctCountSketcher"
                )


_EMPTY = np.empty(0, dtype=np.int64)


def _bottom(values: np.ndarray, t: int) -> np.ndarray:
    """The ``t`` smallest distinct entries of *values*, sorted, in a new array."""
    values = np.sort(values)
    if values.size > 1:
        first = np.empty(values.size, dtype=bool)
        first[0] = True
        np.not_equal(values[1:], values[:-1], out=first[1:])
        values = values[first]
    # A copy, so a stored row never keeps the whole sorted input alive.
    return values[:t].copy()


class DistinctCountSketcher:
    """Factory producing mergeable :class:`BottomTSketch` instances.

    Parameters
    ----------
    epsilon:
        Target relative accuracy; the bottom-``t`` size is ``ceil(c / eps^2)``.
        Section 4 uses ``epsilon = 1/2``.
    delta:
        Failure probability; the number of independent rows is
        ``ceil(log(1/delta))`` (at least 1).
    universe_size:
        Upper bound on the number of distinct keys (used to size the hash
        output range to ``universe^3`` as in the paper's description).
    seed:
        Controls the shared hash functions.
    """

    def __init__(
        self,
        universe_size: int,
        epsilon: float = 0.5,
        delta: float = 0.01,
        seed: SeedLike = None,
    ):
        if universe_size < 1:
            raise InvalidParameterError(f"universe_size must be >= 1, got {universe_size}")
        if not 0.0 < epsilon < 1.0:
            raise InvalidParameterError(f"epsilon must be in (0, 1), got {epsilon}")
        if not 0.0 < delta < 1.0:
            raise InvalidParameterError(f"delta must be in (0, 1), got {delta}")
        rng = ensure_rng(seed)
        self.universe_size = int(universe_size)
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        self.t = max(1, int(math.ceil(4.0 / (epsilon * epsilon))))
        self.num_rows = max(1, int(math.ceil(math.log(1.0 / delta))))
        output_range = max(universe_size**3, 1 << 20)
        self._hashes = [
            PairwiseIndependentHash.sample(output_range, rng) for _ in range(self.num_rows)
        ]

    def new_sketch(self) -> BottomTSketch:
        """Create an empty sketch sharing this sketcher's hash functions."""
        return BottomTSketch(self._hashes, self.t)

    def sketch_keys(self, keys: Iterable[int]) -> BottomTSketch:
        """A sketch of all of *keys* (non-negative integers; repeats count once)."""
        if not isinstance(keys, np.ndarray):
            keys = np.fromiter(keys, dtype=np.int64)
        sketch = self.new_sketch()
        if keys.size:
            sketch._rows = [_bottom(values, self.t) for values in hash_rows(self._hashes, keys)]
        return sketch
