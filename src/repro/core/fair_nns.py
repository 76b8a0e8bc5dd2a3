"""Section 3: the rank-permutation r-NNS data structure.

Construction assigns every data point a random *rank* (a position in a random
permutation drawn independently of the LSH randomness) and stores every LSH
bucket sorted by rank.  A query scans each colliding bucket in rank order
until the first r-near point and returns, over all ``L`` buckets, the near
point with the smallest rank.  Because the permutation is independent of the
hashing, every point of ``B_S(q, r)`` is equally likely to carry the smallest
rank, so — conditioned on the whole neighborhood colliding at least once,
which the choice of ``L`` guarantees with high probability — the output is
uniform over ``B_S(q, r)`` (Theorem 1).

Section 3.1: returning the ``k`` near points with the smallest ranks yields a
uniform sample of size ``k`` *without replacement*.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.base import LSHNeighborSampler
from repro.core.result import QueryResult, QueryStats
from repro.exceptions import InvalidParameterError
from repro.lsh.family import LSHFamily
from repro.rng import SeedLike
from repro.types import Point
from repro.registry import register_sampler


def _first_occurrences(ranks: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Positions of each point's first (lowest-rank) occurrence in a view.

    A point colliding in several tables appears once per table, always with
    its one rank, so in a rank-sorted view its copies are adjacent: the
    positions whose index differs from the predecessor's deduplicate the
    view in one pass, already in rank order.  Only two *distinct* points
    sharing a rank (or a view out of rank order) can interleave copies;
    such views go through :func:`_first_occurrences_by_sorting`.
    """
    if indices.size < 2:
        return np.arange(indices.size)
    new_point = indices[1:] != indices[:-1]
    if np.any(new_point & (ranks[1:] <= ranks[:-1])):
        return _first_occurrences_by_sorting(indices)
    return np.flatnonzero(np.concatenate(([True], new_point)))


def _first_occurrences_by_sorting(indices: np.ndarray) -> np.ndarray:
    """:func:`_first_occurrences` for any view, at the price of two sorts."""
    _, first_seen = np.unique(indices, return_index=True)
    return np.sort(first_seen)


@register_sampler("permutation", inputs="family")
class PermutationFairSampler(LSHNeighborSampler):
    """Fair r-near-neighbor sampling via a random rank permutation."""

    # Section 3 is deterministic at query time (the motivation for
    # Section 4), so the serving engine may coalesce duplicate queries.
    deterministic_queries = True

    # The Section 3 answer is the minimum-rank near colliding point, so it is
    # determined by a rank prefix of the colliding view — the property the
    # serving engines' bounded rank-prefix gather exploits.
    supports_rank_prefix_scan = True

    def __init__(
        self,
        family: LSHFamily,
        radius: float,
        far_radius: Optional[float] = None,
        num_hashes: Optional[int] = None,
        num_tables: Optional[int] = None,
        recall: float = 0.99,
        max_expected_far_collisions: float = 1.0,
        seed: SeedLike = None,
    ):
        super().__init__(
            family=family,
            radius=radius,
            far_radius=far_radius,
            num_hashes=num_hashes,
            num_tables=num_tables,
            recall=recall,
            max_expected_far_collisions=max_expected_far_collisions,
            use_ranks=True,
            seed=seed,
        )

    #: First evaluation chunk of the rank-ordered scan; subsequent chunks
    #: grow geometrically so a query with a distant first near point costs
    #: O(log) kernel calls instead of one per candidate.  Kept small: on
    #: serving workloads the first near point usually sits within the first
    #: few candidates, and a wide first chunk would overshoot on every query.
    _SCAN_CHUNK = 8

    # ------------------------------------------------------------------
    def sample_detailed(self, query: Point, exclude_index: Optional[int] = None) -> QueryResult:
        """Return the minimum-rank r-near colliding point (Section 3 query).

        The answer is a function of the colliding multiset alone, so the
        query gathers the rank-sorted view of all colliding buckets once and
        scans it with batched distance kernels (see
        :meth:`sample_detailed_from_candidates`); because the rank
        permutation is uniform, the answer is a uniform draw from the
        colliding near points (deterministic given the construction
        randomness — repeated queries return the same neighbor).  See
        :meth:`~repro.core.base.NeighborSampler.sample_detailed` for the
        parameters and the returned :class:`~repro.core.result.QueryResult`.
        """
        self._check_fitted()
        return self.sample_detailed_from_candidates(
            query, self.tables.colliding_view(query), exclude_index=exclude_index
        )

    # ------------------------------------------------------------------
    def sample_detailed_from_candidates(
        self, query: Point, view: tuple, exclude_index: Optional[int] = None
    ) -> QueryResult:
        """Vectorized scan of a pre-gathered rank-sorted candidate view.

        The Section 3 answer is "the r-near colliding point of smallest
        rank": deduplicate the view preserving rank order, then score
        geometrically growing chunks through one distance kernel each until
        the first near point.  ``candidates_examined`` counts the distinct
        candidates up to and including the returned one;
        ``distance_evaluations`` counts the pairs actually scored (the final
        chunk may overshoot the hit).
        """
        ranks, indices = view
        stats = QueryStats(buckets_probed=self.tables.num_tables)
        evaluator = self._evaluator(query)
        candidates = indices[_first_occurrences(ranks, indices)]
        if exclude_index is not None:
            candidates = candidates[candidates != exclude_index]

        start = 0
        chunk = self._SCAN_CHUNK
        while start < candidates.size:
            batch = candidates[start : start + chunk]
            values = evaluator.values(batch)
            near_mask = self.measure.within_mask(values, self.radius)
            hits = np.flatnonzero(near_mask)
            if hits.size:
                position = int(hits[0])
                stats.candidates_examined += position + 1
                stats.distance_evaluations = evaluator.fresh_evaluations
                stats.kernel_calls = evaluator.kernel_calls
                return QueryResult(
                    index=int(batch[position]), value=float(values[position]), stats=stats
                )
            stats.candidates_examined += int(batch.size)
            start += chunk
            chunk *= 4
        stats.distance_evaluations = evaluator.fresh_evaluations
        stats.kernel_calls = evaluator.kernel_calls
        return QueryResult(index=None, value=None, stats=stats)

    def sample_detailed_from_prefix(
        self, query: Point, view: tuple, complete: bool, exclude_index: Optional[int] = None
    ) -> Optional[QueryResult]:
        """Scan a rank-prefix view, answering only when provably identical.

        The same chunked scan as :meth:`sample_detailed_from_candidates`,
        with one extra rule: a chunk may only be scored while it lies
        entirely inside the prefix.  Deduplication keeps each point's first
        (lowest-rank) occurrence, so the deduplicated prefix is a *prefix of
        the full deduplicated candidate sequence* — any hit found in a
        fully-contained chunk is therefore the global minimum-rank near
        point, with bit-identical values and work counters.  Returns ``None``
        when the prefix is exhausted first (no near point among its
        candidates, or the next chunk would be cut short); the caller widens
        the prefix and retries.
        """
        if complete:
            return self.sample_detailed_from_candidates(
                query, view, exclude_index=exclude_index
            )
        ranks, indices = view
        stats = QueryStats(buckets_probed=self.tables.num_tables)
        evaluator = self._evaluator(query)
        candidates = indices[_first_occurrences(ranks, indices)]
        if exclude_index is not None:
            candidates = candidates[candidates != exclude_index]

        start = 0
        chunk = self._SCAN_CHUNK
        while start < candidates.size:
            if start + chunk > candidates.size:
                # The chunk would be cut short by the prefix boundary: on the
                # full view it would score more candidates, so values and
                # counters could diverge.  Ask for a longer prefix.
                return None
            batch = candidates[start : start + chunk]
            values = evaluator.values(batch)
            hits = np.flatnonzero(self.measure.within_mask(values, self.radius))
            if hits.size:
                position = int(hits[0])
                stats.candidates_examined += position + 1
                stats.distance_evaluations = evaluator.fresh_evaluations
                stats.kernel_calls = evaluator.kernel_calls
                return QueryResult(
                    index=int(batch[position]), value=float(values[position]), stats=stats
                )
            stats.candidates_examined += int(batch.size)
            start += chunk
            chunk *= 4
        return None

    def sample_k_from_prefix(
        self,
        query: Point,
        view: tuple,
        complete: bool,
        k: int,
        replacement: bool = True,
    ) -> Optional[List[int]]:
        """Answer :meth:`sample_k` from a rank-prefix view, when provable.

        With replacement the sampler is query-deterministic, so the request
        reduces to one certified single draw repeated ``k`` times.  Without
        replacement this runs the exact Section 3.1 chunk schedule of
        :meth:`_k_lowest_rank_neighbors` over the (deduplicated) prefix:
        hits accumulate in rank order and later chunks only append, so once
        a fully-contained chunk run has produced ``k`` hits the result is
        final.  Returns ``None`` when an incomplete prefix would cut a
        chunk short, or runs out before ``k`` hits — the full view might
        hold more candidates, so nothing short of a longer prefix can prove
        the answer.
        """
        if k < 0:
            raise InvalidParameterError(f"k must be non-negative, got {k}")
        if k == 0:
            return []
        if replacement:
            result = self.sample_detailed_from_prefix(query, view, complete)
            if result is None:
                return None
            if result.index is None:
                return []
            return [int(result.index)] * k
        ranks, indices = view
        evaluator = self._evaluator(query)
        candidates = indices[_first_occurrences(ranks, indices)]

        found: List[int] = []
        start = 0
        chunk = max(self._SCAN_CHUNK, 2 * k)
        while start < candidates.size and len(found) < k:
            if not complete and start + chunk > candidates.size:
                return None
            batch = slice(start, start + chunk)
            near_mask = self.measure.within_mask(
                evaluator.values(candidates[batch]), self.radius
            )
            found.extend(int(index) for index in candidates[batch][near_mask])
            start += chunk
            chunk *= 4
        if len(found) < k and not complete:
            return None
        return found[:k]

    def sample_k(self, query: Point, k: int, replacement: bool = True) -> List[int]:
        """Sample ``k`` near neighbors.

        Without replacement this is the direct Section 3.1 algorithm: the
        ``k`` r-near colliding points with the smallest ranks.  With
        replacement it falls back to repeating the query against fresh rank
        draws (see :class:`~repro.core.rank_perturbation.RankPerturbationSampler`
        for the structure that makes repeated queries properly independent).
        """
        if k < 0:
            raise InvalidParameterError(f"k must be non-negative, got {k}")
        if k == 0:
            return []
        if replacement:
            return super().sample_k(query, k, replacement=True)
        return [index for index, _ in self._k_lowest_rank_neighbors(query, k)]

    def _k_lowest_rank_neighbors(self, query: Point, k: int) -> List[tuple]:
        """The ``k`` near colliding points with smallest ranks as ``(index, rank)``.

        Same chunked kernel scan as the single-draw query, continued until
        ``k`` near points have been found (or the view is exhausted).
        """
        ranks, indices = self.tables.colliding_view(query)
        evaluator = self._evaluator(query)
        first = _first_occurrences(ranks, indices)
        candidates = indices[first]
        candidate_ranks = ranks[first]

        found: List[tuple] = []
        start = 0
        chunk = max(self._SCAN_CHUNK, 2 * k)
        while start < candidates.size and len(found) < k:
            batch = slice(start, start + chunk)
            near_mask = self.measure.within_mask(
                evaluator.values(candidates[batch]), self.radius
            )
            found.extend(
                (int(index), int(rank))
                for index, rank in zip(candidates[batch][near_mask], candidate_ranks[batch][near_mask])
            )
            start += chunk
            chunk *= 4
        return found[:k]
