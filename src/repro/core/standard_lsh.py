"""The standard (unfair) LSH query — the baseline whose bias Figure 1 shows.

The classical query procedure iterates over the ``L`` hash tables and, inside
each colliding bucket, over the stored points, returning the *first* r-near
point it encounters.  Because closer points collide with the query in more
tables, they are found earlier much more often: the output distribution over
``B_S(q, r)`` is heavily biased towards high similarity.  Section 2.2 of the
paper gives the two-point example (``S = {x, y}``, ``q = x``) where the bias
is extreme.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import LSHNeighborSampler
from repro.core.result import QueryResult, QueryStats
from repro.types import Point
from repro.registry import register_sampler


@register_sampler("standard_lsh", inputs="family")
class StandardLSHSampler(LSHNeighborSampler):
    """First-found r-near neighbor over the ``L`` LSH tables.

    Parameters are those of :class:`~repro.core.base.LSHNeighborSampler`,
    plus:

    shuffle_tables:
        When True, the order in which tables are visited is randomized per
        query.  The paper notes the bias persists "even if the order in which
        the L hash tables are visited is randomized"; the flag lets
        experiments verify that claim.
    far_point_limit_factor:
        The theoretical query procedure stops after seeing ``3 L`` far points
        and reports ``⊥``; set to ``None`` to disable the early stop (as the
        experimental implementation effectively does when hunting for a near
        point).
    """

    def __init__(self, *args, shuffle_tables: bool = False, far_point_limit_factor: float = None, **kwargs):
        super().__init__(*args, **kwargs)
        self._shuffle_tables = shuffle_tables
        self._far_point_limit_factor = far_point_limit_factor

    @property
    def deterministic_queries(self) -> bool:
        """First-found scanning is deterministic unless table order is shuffled."""
        return not self._shuffle_tables

    def sample_detailed(self, query: Point, exclude_index: int = None) -> QueryResult:
        """Classical LSH query: return the first r-near colliding point found.

        Fast — but the output is biased towards close neighbors (the paper's
        Figure 1); use the fair samplers when uniformity matters.  See
        :meth:`~repro.core.base.NeighborSampler.sample_detailed` for the
        parameters and the returned :class:`~repro.core.result.QueryResult`.
        """
        self._check_fitted()
        stats = QueryStats()
        evaluator = self._evaluator(query)
        far_limit = (
            None
            if self._far_point_limit_factor is None
            else int(self._far_point_limit_factor * self.tables.num_tables)
        )
        far_seen = 0

        buckets = self.tables.query_buckets(query)
        order = range(len(buckets))
        if self._shuffle_tables:
            order = self._query_rng.permutation(len(buckets))
        for table_index in order:
            bucket = buckets[int(table_index)]
            stats.buckets_probed += 1
            members = bucket.indices
            if exclude_index is not None:
                members = members[members != exclude_index]
            if members.size == 0:
                continue
            # Score the whole bucket with one (memoized) kernel call, then
            # replay the classical scan-order semantics on the mask: stop at
            # the first near member, or at the far member that pushes
            # far_seen past the limit, whichever the scan reaches first.
            near_mask = self.measure.within_mask(evaluator.values(members), self.radius)
            near_positions = np.flatnonzero(near_mask)
            first_near = int(near_positions[0]) if near_positions.size else None
            stop_position = None
            if far_limit is not None:
                cumulative_far = np.cumsum(~near_mask)
                over = np.flatnonzero(far_seen + cumulative_far > far_limit)
                stop_position = int(over[0]) if over.size else None
            if first_near is not None and (stop_position is None or first_near < stop_position):
                stats.candidates_examined += first_near + 1
                stats.distance_evaluations = evaluator.fresh_evaluations
                stats.kernel_calls = evaluator.kernel_calls
                index = int(members[first_near])
                return QueryResult(index=index, value=evaluator.value(index), stats=stats)
            if stop_position is not None:
                stats.candidates_examined += stop_position + 1
                stats.distance_evaluations = evaluator.fresh_evaluations
                stats.kernel_calls = evaluator.kernel_calls
                return QueryResult(index=None, value=None, stats=stats)
            stats.candidates_examined += int(members.size)
            far_seen += int(members.size)  # no near member: the whole bucket was far
        stats.distance_evaluations = evaluator.fresh_evaluations
        stats.kernel_calls = evaluator.kernel_calls
        return QueryResult(index=None, value=None, stats=stats)
