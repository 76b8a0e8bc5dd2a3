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

import itertools
import math
import statistics
from typing import Iterable, List, Sequence

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.rng import SeedLike, ensure_rng
from repro.sketches.hashing import PairwiseIndependentHash, hash_rows


class BottomTSketch:
    """A mergeable bottom-``t`` sketch over integer keys.

    Mergeability works in both directions: whole sketches combine with
    :meth:`merge` (the query-time operation over the ``L`` colliding
    buckets), and key batches fold into an existing sketch with
    :meth:`add_keys` (the maintenance-time operation the dynamic serving
    layer uses to absorb insert batches without re-sketching buckets).
    Each row is a sorted ``int64`` array, so every operation is a few array
    calls per hash row.

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

    def __setstate__(self, state: dict) -> None:
        # Older snapshots hold each row as a sorted list of ints: convert the
        # values exactly; re-hashing is impossible without the keys.
        self.__dict__.update(state)
        self._rows = [np.asarray(row, dtype=np.int64) for row in self._rows]

    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Number of independent hash rows (the delta repetitions)."""
        return len(self._hashes)

    def update(self, key: int) -> None:
        """Insert one element (by integer key) into the sketch."""
        self.add_keys([key])

    def update_many(self, keys: Iterable[int]) -> None:
        """Insert many elements (see :meth:`add_keys`)."""
        self.add_keys(keys)

    def add_keys(self, keys: Iterable[int]) -> "BottomTSketch":
        """Fold a batch of keys into this sketch in place; returns ``self``.

        This is the incremental-maintenance primitive: inserting a key is
        equivalent to merging a singleton sketch of it, so a mutation batch
        can be absorbed into an existing bucket sketch in ``O(batch)`` hash
        evaluations instead of re-sketching the whole bucket.  Insertion is
        idempotent — bottom-``t`` rows are deduplicated sets of hash values —
        so re-adding an already-counted key never changes the estimate.
        :meth:`DistinctCountSketcher.fold_keys` does the same for many
        sketches at once.

        Parameters
        ----------
        keys:
            Integer keys (dataset slot indices) to insert.
        """
        keys = _as_keys(keys)
        if keys.size:
            self._rows = [
                _bottom(np.concatenate([row, values]), self.t)
                for row, values in zip(self._rows, hash_rows(self._hashes, keys))
            ]
        return self

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


def _as_keys(keys: Iterable[int]) -> np.ndarray:
    """*keys* as an ``int64`` array (arrays pass through without a copy)."""
    if isinstance(keys, np.ndarray):
        return keys.astype(np.int64, copy=False)
    return np.fromiter(keys, dtype=np.int64)


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


def _bottom_groups(values: np.ndarray, owner: np.ndarray, count: int, t: int) -> List[np.ndarray]:
    """Per-group :func:`_bottom`: group ``g`` holds ``values[owner == g]``.

    One ``lexsort`` by (owner, value) puts each group's values in order;
    dropping repeats and every entry at position ``t`` or later within its
    group leaves the rows as consecutive slices, each copied out so that a
    stored row does not keep its siblings' values alive.
    """
    order = np.lexsort((values, owner))
    values, owner = values[order], owner[order]
    first = np.ones(values.size, dtype=bool)
    first[1:] = (values[1:] != values[:-1]) | (owner[1:] != owner[:-1])
    values, owner = values[first], owner[first]
    group_starts = np.searchsorted(owner, np.arange(count))
    keep = np.arange(values.size) - group_starts[owner] < t
    values, owner = values[keep], owner[keep]
    bounds = np.searchsorted(owner, np.arange(count + 1)).tolist()
    return [values[start:stop].copy() for start, stop in zip(bounds[:-1], bounds[1:])]


def _full_row_cuts(rows: Sequence[np.ndarray], t: int) -> np.ndarray:
    """Per row, its ``t``-th value if the row is full, else the ``int64`` maximum.

    Only a hash value below the cut can enter the row.  A row never holds
    more than ``t`` values, so a full row's ``t``-th value is its last.
    """
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    cuts = np.full(len(rows), np.iinfo(np.int64).max, dtype=np.int64)
    full = lengths >= t
    if full.any():
        cuts[full] = np.concatenate(rows)[np.cumsum(lengths)[full] - 1]
    return cuts


def _grouped(groups: Sequence) -> tuple:
    """Concatenated keys of *groups* and, per key, the index of its group."""
    sizes = [len(group) for group in groups]
    total = sum(sizes)
    if not total:
        return _EMPTY, _EMPTY
    if all(isinstance(group, np.ndarray) for group in groups):
        keys = np.concatenate(groups).astype(np.int64, copy=False)
    else:
        keys = np.fromiter(itertools.chain.from_iterable(groups), dtype=np.int64, count=total)
    owner = np.repeat(np.arange(len(groups)), sizes)
    return keys, owner


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
        """Create a sketch and insert all of *keys*."""
        sketch = self.new_sketch()
        sketch.update_many(keys)
        return sketch

    def sketch_groups(self, groups: Sequence[Iterable[int]]) -> List[BottomTSketch]:
        """One sketch per key group, equal to ``[sketch_keys(g) for g in groups]``.

        All groups are hashed together, one ``hash_array`` call per row, so
        sketching many small buckets costs a few array passes rather than a
        few array calls per bucket.
        """
        groups = list(groups)
        sketches = [self.new_sketch() for _ in groups]
        keys, owner = _grouped(groups)
        if keys.size:
            for row, hash_function in enumerate(self._hashes):
                rows = _bottom_groups(hash_function.hash_array(keys), owner, len(groups), self.t)
                for sketch, values in zip(sketches, rows):
                    sketch._rows[row] = values
        return sketches

    def fold_keys(
        self, sketches: Sequence[BottomTSketch], groups: Sequence[Iterable[int]]
    ) -> None:
        """``sketch.add_keys(group)`` for each pair of *sketches* and *groups*.

        The keys of every group are hashed in one call per row.  A hash value
        can enter a full row only below its ``t``-th value, so only those
        survivors are merged, and only into the rows they reach.  Each sketch
        may appear at most once in *sketches*.
        """
        keys, owner = _grouped(groups)
        if not keys.size:
            return
        t = self.t
        for row, hash_function in enumerate(self._hashes):
            rows = [sketch._rows[row] for sketch in sketches]
            values = hash_function.hash_array(keys)
            survive = values < _full_row_cuts(rows, t)[owner]
            if not survive.any():
                continue
            values, survivors = values[survive], owner[survive]
            reached = np.unique(survivors)
            old_rows = [rows[i] for i in reached]
            merged = _bottom_groups(
                np.concatenate(old_rows + [values]),
                np.concatenate(
                    [
                        np.repeat(np.arange(reached.size), [len(r) for r in old_rows]),
                        np.searchsorted(reached, survivors),
                    ]
                ),
                reached.size,
                t,
            )
            for i, merged_row in zip(reached, merged):
                sketches[i]._rows[row] = merged_row
