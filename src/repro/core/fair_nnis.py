"""Section 4: the r-near neighbor *independent* sampling (r-NNIS) structure.

The structure keeps the Section 3 layout (LSH tables whose buckets are sorted
by a random rank permutation) and adds two ingredients:

* a count-distinct estimate of ``s_q = |S_q|``, the number of distinct points
  colliding with the query.  The paper merges bottom-t sketches stored with
  each of the ``L`` colliding buckets; since bottom-t sketches merge exactly,
  that equals one bottom-t sketch of the distinct colliding points, which
  this implementation computes from the colliding view every query gathers
  anyway — so no per-bucket sketch is stored or maintained under churn;
* instead of returning the minimum-rank near point (which is deterministic
  given the permutation), the query splits the rank space into ``k`` equal
  segments, repeatedly picks a segment uniformly at random, retrieves the
  near colliding points inside it with a rank-range query, and accepts the
  segment with probability proportional to how many near points it holds.
  Accepting returns a uniform point of the segment — overall every near
  point is returned with probability ``1 / (k * lambda)`` per round, so the
  output is uniform, and because all the randomness is drawn fresh at query
  time, answers to different queries are independent (Theorem 2).

``k`` starts at roughly ``2 * s_q`` (so segments hold O(log n) near points
with high probability) and is halved every ``Sigma = Theta(log^2 n)``
unsuccessful rounds, which keeps the expected query time at
``O~(n^rho + b(q, cr) / (b(q, r) + 1))``.

The sketch hash functions are drawn from the permutation stream, at fit or
attach time and again whenever :meth:`IndependentFairSampler._after_update`
decides the tables changed beyond what the current draw covers.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Optional

import numpy as np

from repro.core.base import LSHNeighborSampler
from repro.core.fair_nns import _first_occurrences
from repro.core.result import QueryResult, QueryStats
from repro.exceptions import InvalidParameterError
from repro.lsh.family import LSHFamily
from repro.lsh.tables import point_digest
from repro.rng import SeedLike
from repro.sketches.kmv import DistinctCountSketcher
from repro.types import Point
from repro.registry import register_sampler


@register_sampler("independent", inputs="family")
class IndependentFairSampler(LSHNeighborSampler):
    """The Section 4 r-NNIS data structure.

    Extra parameters beyond :class:`~repro.core.base.LSHNeighborSampler`:

    lambda_factor, sigma_factor:
        Constants in ``lambda = lambda_factor * log2(n)`` (per-segment near
        point budget) and ``Sigma = sigma_factor * log2(n)^2`` (rounds before
        halving ``k``).
    sketch_epsilon, sketch_delta:
        Accuracy of the count-distinct estimate of ``s_q``; the paper uses
        ``epsilon = 1/2`` and a polynomially small ``delta``.
    max_rounds:
        Hard safety cap on the total number of rejection rounds.
    """

    def __init__(
        self,
        family: LSHFamily,
        radius: float,
        far_radius: Optional[float] = None,
        num_hashes: Optional[int] = None,
        num_tables: Optional[int] = None,
        recall: float = 0.99,
        max_expected_far_collisions: float = 1.0,
        lambda_factor: float = 1.0,
        sigma_factor: float = 1.0,
        sketch_epsilon: float = 0.5,
        sketch_delta: float = 0.01,
        max_rounds: int = 100_000,
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
        if lambda_factor <= 0 or sigma_factor <= 0:
            raise InvalidParameterError("lambda_factor and sigma_factor must be positive")
        if max_rounds < 1:
            raise InvalidParameterError("max_rounds must be >= 1")
        self.lambda_factor = float(lambda_factor)
        self.sigma_factor = float(sigma_factor)
        self.sketch_epsilon = float(sketch_epsilon)
        self.sketch_delta = float(sketch_delta)
        self.max_rounds = int(max_rounds)
        self._sketcher: Optional[DistinctCountSketcher] = None
        # Caches keyed by a hashable digest of the query.  Both cached values
        # (the colliding-count estimate and the rank-sorted view of the
        # colliding points) are deterministic functions of the query and the
        # construction randomness, so caching them does not affect the output
        # distribution; it avoids re-gathering L buckets and re-sketching
        # when the same query is repeated (the common case in fairness
        # audits).
        self._estimate_cache: Dict[Hashable, float] = {}
        self._view_cache: Dict[Hashable, tuple] = {}
        self._cache_limit = 1024

    def __setstate__(self, state: dict) -> None:
        # Snapshots written while a sketch was stored per bucket still carry
        # those sketches and their size cutoff; nothing reads either.
        state.pop("_bucket_sketches", None)
        state.pop("sketch_min_bucket", None)
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _after_fit(self) -> None:
        # Runs on fit() and attach() alike: any previously served queries'
        # cached estimates/views describe the old tables and must go.
        self._estimate_cache.clear()
        self._view_cache.clear()
        self._sketcher = DistinctCountSketcher(
            universe_size=self.num_points,
            epsilon=self.sketch_epsilon,
            delta=self.sketch_delta,
            seed=self._perm_rng,
        )

    def _after_update(self, delta=None) -> None:
        """Attached tables mutated: drop the per-query caches, redraw if due.

        The sketch hash functions come from ``_perm_rng``, so a redraw moves
        every later answer; it happens exactly when

        * *delta* is ``None``: the tables keep no record (static tables), or
          :meth:`~repro.core.base.LSHNeighborSampler.notify_update` found an
          epoch gap (another consumer drained part of the history);
        * the record ``overflowed`` (nothing drained it for too long);
        * the slot count exceeds 4x the sketcher's universe.  The hash range
          is sized off the universe, and keys colliding in a too-small range
          make the estimate under-count; the next redraw is another 4x away,
          so this is amortized O(1) per insert.  Sketchers unpickled from
          pre-v2 snapshots lack ``universe_size``; the 0 default redraws
          them.
        """
        if (
            delta is None
            or delta.overflowed
            or self.tables.num_points > 4 * getattr(self._sketcher, "universe_size", 0)
        ):
            # A redraw starts from clean buckets, as a fit does.  The sweep
            # it forces is part of the redraw: drop its record and re-anchor,
            # so the next sync does not see it as news.
            self.tables.ensure_clean_buckets()
            self._after_fit()
            self.tables.drain_delta()
            self._synced_epoch = getattr(self.tables, "mutation_epoch", 0)
            return
        # Cached estimates and candidate views may describe pre-mutation
        # tables; notify_update only fires when something mutated.
        self._estimate_cache.clear()
        self._view_cache.clear()

    def _stripped_for_snapshot(self):
        # The per-query caches are deterministic functions of the tables and
        # rebuild lazily; pickling them only bloats snapshots.
        clone = super()._stripped_for_snapshot()
        clone._estimate_cache = {}
        clone._view_cache = {}
        return clone

    # ------------------------------------------------------------------
    # Query helpers
    # ------------------------------------------------------------------
    def estimate_colliding_count(self, query: Point) -> float:
        """Count-distinct estimate of ``s_q``, the number of live colliding points.

        One bottom-t sketch of the live members of the query's colliding
        view.  Bottom-t sketches merge exactly (the bottom-t of a union is
        the bottom-t of its parts' rows), so this is the value the paper's
        merge of the ``L`` colliding buckets' sketches gives.  A point seen
        in several tables hashes to the same values each time, and a sketch
        row keeps distinct values only, so the view needs no deduplication.
        """
        self._check_fitted()
        digest = point_digest(query)
        if digest is not None and digest in self._estimate_cache:
            return self._estimate_cache[digest]
        members = self._colliding_view(query)[1]
        alive = getattr(self.tables, "alive", None)
        if alive is not None:
            members = members[alive[members]]
        estimate = self._sketcher.sketch_keys(members).estimate()
        if digest is not None:
            if len(self._estimate_cache) >= self._cache_limit:
                self._estimate_cache.clear()
            self._estimate_cache[digest] = estimate
        return estimate

    def _colliding_view(self, query: Point) -> tuple:
        """Rank-sorted ``(ranks, indices)`` of all points colliding with *query*.

        Concatenating the ``L`` colliding buckets once per query turns every
        segment lookup of the rejection loop into a single ``searchsorted``
        instead of a Python loop over all tables.  Points colliding in
        several tables appear once per table; the segment lookup
        de-duplicates after slicing.
        """
        digest = point_digest(query)
        if digest is not None and digest in self._view_cache:
            return self._view_cache[digest]
        view = self.tables.colliding_view(query)
        if digest is not None:
            if len(self._view_cache) >= self._cache_limit:
                self._view_cache.clear()
            self._view_cache[digest] = view
        return view

    def _log_n(self) -> float:
        # Live count: dead slots neither collide nor get sampled, so they
        # should not inflate the rejection-round budgets.
        return max(1.0, math.log2(max(2, self.tables.num_live)))

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def sample_detailed(self, query: Point, exclude_index: Optional[int] = None) -> QueryResult:
        """Section 4 r-NNIS query: segment rejection sampling over ranks.

        Estimates ``s_q`` (:meth:`estimate_colliding_count`), splits the rank
        domain into ``k ~ 2 s_q`` segments and rejection-samples segments
        until one is accepted; all randomness is drawn at query time, so
        answers are uniform *and* independent across repeated queries
        (Theorem 2).  See
        :meth:`~repro.core.base.NeighborSampler.sample_detailed` for the
        parameters and the returned :class:`~repro.core.result.QueryResult`.

        The rejection rounds run as array code.  The rank-sorted colliding
        view is deduplicated once in one pass, and one ``searchsorted`` of
        the first level's segment boundaries over those distinct members
        places every level's segments (a level's boundaries are every other
        one of the level before).  The segment choices and acceptance coins
        of one ``k`` level (``sigma`` rounds) are drawn in two RNG calls up
        front, and all the level's rounds are then scored with one
        :meth:`~repro.core.evaluator.CandidateEvaluator.values` call for the
        members their segments cover.  A round's near count is read from one
        prefix sum at the level's boundaries, and the first round whose coin
        falls below ``min(1, near / lambda)`` is accepted; its answer is a uniform draw
        among the segment's near members in index order.  Answers, round
        counts and RNG consumption equal those of scoring one round at a
        time; ``distance_evaluations`` also counts the members of the
        accepted level's later rounds, which were scored but not needed.
        """
        self._check_fitted()
        return self._sample_over_view(query, self._colliding_view(query), exclude_index)

    def sample_detailed_from_candidates(
        self, query: Point, view: tuple, exclude_index: Optional[int] = None
    ) -> QueryResult:
        """The rejection loop over a pre-gathered rank-sorted candidate view.

        The Section 4 rejection loop is a function of the colliding multiset
        (plus fresh query-time randomness); given the query's full colliding
        view this has the same distribution as :meth:`sample_detailed`.  The
        ``s_q`` estimate always comes from the full live view
        (:meth:`estimate_colliding_count`), not from *view*.
        """
        return self._sample_over_view(query, view, exclude_index)

    def _sample_over_view(
        self, query: Point, view: tuple, exclude_index: Optional[int]
    ) -> QueryResult:
        stats = QueryStats()
        n = self.tables.num_live

        estimate = self.estimate_colliding_count(query)
        if estimate <= 0.0:
            return QueryResult(index=None, value=None, stats=stats)

        # k: smallest power of two >= 2 * s_hat, capped so segments are never
        # smaller than a single rank slot.
        k = 1
        while k < 2.0 * estimate and k < 2 * n:
            k *= 2
        lam = max(1.0, self.lambda_factor * self._log_n())
        sigma = max(1, int(math.ceil(self.sigma_factor * self._log_n() ** 2)))

        # A point's copies share its one rank, so the rank-sorted view
        # deduplicates in one pass.  Within a rank tied between distinct
        # points the member order may differ from index order; answers
        # cannot, since a segment is a rank range and the draw sorts its
        # near members by index.
        first = _first_occurrences(*view)
        member_ranks, members = view[0][first], view[1][first]
        # near[i]: member i is r-near, once scored[i] is set.  The excluded
        # point counts as scored and never near.
        near = np.zeros(members.size, dtype=bool)
        scored = near.copy() if exclude_index is None else members == exclude_index
        evaluator = self._evaluator(query)
        num_tables = self.tables.num_tables
        # Segment s of level k spans ranks [floor(s * domain / k),
        # floor((s + 1) * domain / k)), computed as s * q + s * rem // k:
        # exact in int64 even for the 2^62 rank domain of dynamic tables.
        # k halves from level to level, so level k / step's boundaries are
        # every step-th boundary of the first level: one searchsorted
        # places all members for every level.
        q, rem = divmod(self.tables.rank_domain, k)
        starts = np.arange(k + 1, dtype=np.int64)
        positions = np.searchsorted(member_ranks, starts * q + starts * rem // k)
        step = 1
        while k >= 1 and stats.rounds < self.max_rounds:
            # One chunk per k level: k halves after exactly sigma failed
            # rounds, so the segment choices and acceptance coins for the
            # whole level can be drawn in two array calls.
            chunk = min(sigma, self.max_rounds - stats.rounds)
            segments = self._query_rng.integers(0, k, size=chunk)
            acceptance = self._query_rng.random(chunk)
            bounds = positions[::step]
            hit = np.zeros(k, dtype=bool)
            hit[segments] = True
            self._score_block(evaluator, members, near, scored, bounds, hit)
            near_at_bounds = np.concatenate(([0], np.cumsum(near)))[bounds]
            near_counts = np.diff(near_at_bounds)[segments]
            sizes = np.diff(bounds)[segments]
            accepted = (near_counts > 0) & (acceptance < np.minimum(1.0, near_counts / lam))
            if accepted.any():
                stop = int(np.argmax(accepted)) + 1
                self._count_rounds(stats, sizes[:stop], num_tables)
                segment = segments[stop - 1]
                left, right = bounds[segment], bounds[segment + 1]
                # Slot-index order fixes which member each draw picks,
                # so answers equal those of scoring one round at a time.
                chosen_from = np.sort(members[left:right][near[left:right]])
                chosen = int(chosen_from[int(self._query_rng.integers(0, chosen_from.size))])
                stats.distance_evaluations = evaluator.fresh_evaluations
                stats.kernel_calls = evaluator.kernel_calls
                return QueryResult(index=chosen, value=evaluator.value(chosen), stats=stats)
            self._count_rounds(stats, sizes, num_tables)
            k //= 2
            step *= 2
        stats.distance_evaluations = evaluator.fresh_evaluations
        stats.kernel_calls = evaluator.kernel_calls
        return QueryResult(index=None, value=None, stats=stats)

    def _score_block(self, evaluator, members, near, scored, bounds, hit) -> None:
        """Score the not-yet-scored members of a level's drawn segments.

        Segment ``s`` covers members ``bounds[s]:bounds[s + 1]``, and *hit*
        marks the segments the level drew.  One
        :meth:`~repro.core.evaluator.CandidateEvaluator.values` call covers
        the segments of a whole ``k`` level; ``near`` and ``scored`` are
        updated in place.
        """
        first = bounds[0]
        covered = np.repeat(hit, np.diff(bounds))
        todo = np.flatnonzero(covered & ~scored[first : bounds[-1]]) + first
        if todo.size:
            values = evaluator.values(members[todo])
            near[todo] = self.measure.within_mask(values, self.radius)
            scored[todo] = True

    @staticmethod
    def _count_rounds(stats: QueryStats, sizes: np.ndarray, num_tables: int) -> None:
        """Add the work counters of rounds whose segments hold *sizes* members."""
        stats.rounds += int(sizes.size)
        stats.buckets_probed += int(sizes.size) * num_tables
        stats.candidates_examined += int(sizes.sum())
