"""Exact ground truth the benchmark checks every answer against.

Each mirror holds the benchmark's own copy of the indexed points, keyed by
the slot the library returned for them, plus a liveness mask that follows
every insert and delete the benchmark issued.  It answers two questions by
brute force, independent of any index:

* ``valid(slot, query[, exclude])`` — is the returned slot live, not the
  excluded one, and within the radius of the query?
* ``has_neighbors(queries)`` / ``has_neighbor(query, exclude)`` — is the
  query's exact r-neighborhood among live points non-empty?  (The
  denominator of ``hit_rate``.)

Distances use the library's own arithmetic recipe (``sqrt(einsum)`` for
Euclidean, integer counts divided once for Jaccard), so a point exactly on
the boundary is classified the same way on both sides.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Optional, Sequence

import numpy as np


class DenseTruth:
    """Live Euclidean points; near means ``distance <= radius``."""

    def __init__(self, points: np.ndarray, radius: float):
        self.radius = float(radius)
        self._points = np.array(points, dtype=np.float64)
        self._alive = np.ones(len(self._points), dtype=bool)

    @property
    def num_live(self) -> int:
        return int(self._alive.sum())

    def insert(self, slots: Sequence[int], points: Sequence[np.ndarray]) -> None:
        top = max(slots) + 1
        if top > len(self._points):
            grow = max(top, 2 * len(self._points)) - len(self._points)
            self._points = np.vstack([self._points, np.zeros((grow, self._points.shape[1]))])
            self._alive = np.concatenate([self._alive, np.zeros(grow, dtype=bool)])
        for slot, point in zip(slots, points):
            if self._alive[slot]:
                raise AssertionError(f"insert returned live slot {slot}")
            self._points[slot] = point
            self._alive[slot] = True

    def delete(self, slot: int) -> None:
        self._alive[slot] = False

    def _distances(self, slots: np.ndarray, query: np.ndarray) -> np.ndarray:
        diff = self._points[slots] - query[np.newaxis, :]
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))

    def valid(self, slot: Optional[int], query) -> bool:
        if slot is None:
            return True
        if not 0 <= slot < len(self._points) or not self._alive[slot]:
            return False
        query = np.asarray(query, dtype=np.float64)
        return bool(self._distances(np.asarray([slot]), query)[0] <= self.radius)

    def has_neighbors(self, queries: Sequence[np.ndarray]) -> np.ndarray:
        """Non-empty live r-neighborhood, per query (no exclusion)."""
        queries = np.asarray(queries, dtype=np.float64)
        live = np.flatnonzero(self._alive)
        points = self._points[live]
        norms = np.einsum("ij,ij->i", points, points)
        margin = (self.radius + 1e-6 * (1.0 + self.radius)) ** 2
        out = np.zeros(len(queries), dtype=bool)
        # Squared-norm expansion as a cheap prefilter with a safety margin,
        # in blocks to keep the distance matrix small; the survivors are
        # then decided by the exact recipe.
        for first in range(0, len(queries), 32):
            block = queries[first : first + 32]
            approx = (
                np.einsum("ij,ij->i", block, block)[:, None] + norms[None, :] - 2.0 * block @ points.T
            )
            for row, query in enumerate(block):
                close = live[approx[row] <= margin]
                if close.size:
                    out[first + row] = bool((self._distances(close, query) <= self.radius).any())
        return out


class SetTruth:
    """Live sets; near means ``Jaccard similarity >= radius``."""

    def __init__(self, sets: Iterable[frozenset], radius: float):
        self.radius = float(radius)
        self._sets: list = []
        self._alive: list = []
        self._postings = defaultdict(list)
        for slot, items in enumerate(sets):
            self._put(slot, items)

    @property
    def num_live(self) -> int:
        return sum(self._alive)

    def _put(self, slot: int, items: frozenset) -> None:
        while len(self._sets) <= slot:
            self._sets.append(frozenset())
            self._alive.append(False)
        if self._alive[slot]:
            raise AssertionError(f"insert returned live slot {slot}")
        self._sets[slot] = items
        self._alive[slot] = True
        for item in items:
            self._postings[item].append(slot)

    def insert(self, slots: Sequence[int], sets: Sequence[frozenset]) -> None:
        for slot, items in zip(slots, sets):
            self._put(slot, items)

    def delete(self, slot: int) -> None:
        self._alive[slot] = False

    def _similarity(self, a: frozenset, b: frozenset) -> float:
        if not a and not b:
            return 1.0
        intersection = len(a & b)
        return intersection / (len(a) + len(b) - intersection)

    def valid(self, slot: Optional[int], query: frozenset, exclude: Optional[int] = None) -> bool:
        if slot is None:
            return True
        if not 0 <= slot < len(self._sets) or not self._alive[slot] or slot == exclude:
            return False
        return self._similarity(self._sets[slot], query) >= self.radius

    def has_neighbor(self, query: frozenset, exclude: Optional[int] = None) -> bool:
        shared = defaultdict(int)
        for item in query:
            for slot in self._postings.get(item, ()):
                shared[slot] += 1
        size = len(query)
        for slot, intersection in shared.items():
            if slot == exclude or not self._alive[slot]:
                continue
            union = size + len(self._sets[slot]) - intersection
            if intersection / union >= self.radius:
                return True
        return False
