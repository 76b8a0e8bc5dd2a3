"""The block-scored Section 4 sampler against the one-round-at-a-time loop.

:func:`reference_sample_over_view` is the rejection loop
``IndependentFairSampler._sample_over_view`` ran before rounds were scored in
blocks: one ``searchsorted`` slice, one ``np.unique`` and one kernel call per
round.  It is kept here, unchanged, as the oracle.  The sampler must return
the same index and value, report the same ``rounds``,
``candidates_examined`` and ``buckets_probed``, and leave its query RNG in
the same state — so a later query draws exactly what it drew before.
``distance_evaluations`` and ``kernel_calls`` may differ: a block scores the
members of all its rounds with one call.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import IndependentFairSampler
from repro.core.result import QueryResult, QueryStats
from repro.engine import BatchQueryEngine
from repro.engine.dynamic import DynamicLSHTables
from repro.lsh import MinHashFamily, PStableFamily


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
def _segment_bounds(self, segment: int, k: int) -> tuple:
    # Integer arithmetic: the dynamic table layer uses a 2^62-sized rank
    # domain, where float division would mis-place segment boundaries.
    domain = self.tables.rank_domain
    lo = (segment * domain) // k
    hi = ((segment + 1) * domain) // k if segment + 1 < k else domain
    return lo, hi


def reference_sample_over_view(self, query, view, exclude_index) -> QueryResult:
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

    view_ranks, view_indices = view
    evaluator = self._evaluator(query)
    num_tables = self.tables.num_tables
    within_mask = self.measure.within_mask
    radius = self.radius
    while k >= 1 and stats.rounds < self.max_rounds:
        # One chunk per k level: k halves after exactly sigma failed
        # rounds, so the segment choices and acceptance coins for the
        # whole level can be drawn in two array calls.
        chunk = min(sigma, self.max_rounds - stats.rounds)
        segments = self._query_rng.integers(0, k, size=chunk)
        acceptance = self._query_rng.random(chunk)
        for round_index in range(chunk):
            stats.rounds += 1
            lo, hi = _segment_bounds(self, int(segments[round_index]), k)
            left = int(np.searchsorted(view_ranks, lo, side="left"))
            right = int(np.searchsorted(view_ranks, hi, side="left"))
            candidates = np.unique(view_indices[left:right])
            stats.buckets_probed += num_tables
            stats.candidates_examined += int(candidates.size)
            if exclude_index is not None:
                candidates = candidates[candidates != exclude_index]

            if candidates.size:
                near = candidates[within_mask(evaluator.values(candidates), radius)]
            else:
                near = candidates

            if near.size and acceptance[round_index] < min(1.0, near.size / lam):
                chosen = int(near[int(self._query_rng.integers(0, near.size))])
                stats.distance_evaluations = evaluator.fresh_evaluations
                stats.kernel_calls = evaluator.kernel_calls
                return QueryResult(index=chosen, value=evaluator.value(chosen), stats=stats)
        k //= 2
    stats.distance_evaluations = evaluator.fresh_evaluations
    stats.kernel_calls = evaluator.kernel_calls
    return QueryResult(index=None, value=None, stats=stats)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def assert_matches_oracle(sampler, query, view=None, exclude_index=None):
    """Run both loops from one RNG state; return the sampler's result."""
    if view is None:
        view = sampler._colliding_view(query)
    rng = sampler._query_rng.bit_generator
    before = copy.deepcopy(rng.state)
    expected = reference_sample_over_view(sampler, query, view, exclude_index)
    expected_state = copy.deepcopy(rng.state)
    rng.state = before
    got = sampler._sample_over_view(query, view, exclude_index)
    assert (got.index, got.value) == (expected.index, expected.value)
    for counter in ("rounds", "candidates_examined", "buckets_probed"):
        assert getattr(got.stats, counter) == getattr(expected.stats, counter), counter
    assert rng.state == expected_state
    # A block scores every member its rounds cover, a superset of what the
    # rounds up to the accepted one needed.
    assert got.stats.distance_evaluations >= expected.stats.distance_evaluations
    return got


def k_level(sampler, query) -> int:
    """The first ``k`` the sampler uses for *query* (as both loops compute it)."""
    estimate = sampler.estimate_colliding_count(query)
    k = 1
    while k < 2.0 * estimate and k < 2 * sampler.tables.num_live:
        k *= 2
    return k


def segment_start(sampler, segment: int, k: int) -> int:
    return _segment_bounds(sampler, segment, k)[0]


def near_and_far(sampler, query):
    """Dataset slots that are r-near to *query*, and those that are not."""
    values = sampler._evaluator(query).values(np.arange(sampler.tables.num_points))
    mask = sampler.measure.within_mask(values, sampler.radius)
    return [int(i) for i in np.flatnonzero(mask)], [int(i) for i in np.flatnonzero(~mask)]


def make_view(pairs):
    """A rank-sorted view from ``(rank, index, copies)`` triples.

    Equal ranks keep the order the triples give, so distinct points sharing
    a rank can interleave their copies, as a merge of buckets may leave them.
    """
    ranks, indices = [], []
    for rank, index, copies in pairs:
        ranks.extend([rank] * copies)
        indices.extend([index] * copies)
    ranks = np.asarray(ranks, dtype=np.int64)
    order = np.argsort(ranks, kind="stable")
    return ranks[order], np.asarray(indices, dtype=np.int64)[order]


@pytest.fixture(scope="module")
def hub_sets():
    """Overlapping sets: big colliding views, a good share of them near."""
    rng = np.random.default_rng(3)
    core = set(range(8))
    dataset = [
        frozenset(core | {int(x) for x in rng.choice(range(8, 120), size=6, replace=False)})
        for _ in range(200)
    ]
    return dataset


def _sampler(seed=5, **extra):
    params = dict(radius=0.45, far_radius=0.2, num_hashes=1, num_tables=12, seed=seed)
    params.update(extra)
    return IndependentFairSampler(MinHashFamily(), **params)


def _static(dataset, seed=5, **extra):
    return _sampler(seed, **extra).fit(dataset)


def _dynamic(dataset, seed=5, **extra):
    return BatchQueryEngine.build(_sampler(seed, **extra), dataset, seed=seed).sampler


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
class TestRealViews:
    @pytest.mark.parametrize("build", [_static, _dynamic], ids=["static", "dynamic"])
    def test_repeated_and_distinct_queries(self, hub_sets, build):
        sampler = build(hub_sets)
        if build is _static:
            assert sampler.tables.rank_domain == len(hub_sets)
        else:
            assert sampler.tables.rank_domain == 2**62
        found = 0
        for query in hub_sets[:30] + [hub_sets[0]] * 10:
            found += assert_matches_oracle(sampler, query).found
        assert found > 20

    @pytest.mark.parametrize("build", [_static, _dynamic], ids=["static", "dynamic"])
    def test_exclude_index_of_the_query_itself(self, hub_sets, build):
        sampler = build(hub_sets)
        for index in range(20):
            result = assert_matches_oracle(sampler, hub_sets[index], exclude_index=index)
            assert result.index != index

    def test_dense_vectors(self):
        rng = np.random.default_rng(11)
        points = rng.normal(size=(300, 6))
        sampler = IndependentFairSampler(
            PStableFamily(dim=6, width=3.0), radius=2.5, far_radius=5.0,
            num_hashes=2, num_tables=10, seed=2,
        ).fit(points)
        for query in points[:25]:
            assert_matches_oracle(sampler, query)

    def test_after_churn(self, hub_sets):
        engine = BatchQueryEngine.build(_sampler(9), hub_sets, seed=9)
        engine.insert_many(hub_sets[:15])
        for index in range(0, 40, 3):
            engine.delete(index)
        engine._sync()
        for query in hub_sets[40:60]:
            assert_matches_oracle(engine.sampler, query)


class TestEdgeCases:
    def test_equal_ranks_of_distinct_points_in_dynamic_tables(self, hub_sets):
        # Two distinct points per rank: dynamic tables draw ranks i.i.d., so
        # rank ties between points are possible and must not merge them.
        ranks = np.repeat(np.arange(100, dtype=np.int64) * (2**62 // 100), 2)
        tables = DynamicLSHTables(MinHashFamily(), 12, seed=4).fit(hub_sets, ranks=ranks)
        sampler = _sampler(4)
        sampler.attach(tables, tables.dataset)
        view_ranks, view_indices = sampler._colliding_view(hub_sets[0])
        tied = [r for r in np.unique(view_ranks) if np.unique(view_indices[view_ranks == r]).size > 1]
        assert tied  # the view really holds distinct points sharing a rank
        for query in hub_sets[:25]:
            assert_matches_oracle(sampler, query)

    def test_interleaved_ties_in_a_handmade_view(self, hub_sets):
        sampler = _dynamic(hub_sets)
        k = k_level(sampler, hub_sets[0])
        base = segment_start(sampler, 1, k)
        view = make_view(
            [(base, 7, 2), (base, 3, 1), (base, 7, 1), (base, 3, 2), (base + 1, 9, 3)]
        )
        for _ in range(20):
            assert_matches_oracle(sampler, hub_sets[0], view)

    @pytest.mark.parametrize("build", [_static, _dynamic], ids=["static", "dynamic"])
    def test_segment_ending_on_a_run_of_duplicates(self, hub_sets, build):
        sampler = build(hub_sets)
        query = hub_sets[0]
        k = k_level(sampler, query)
        # In every segment, the last rank before the next boundary carries
        # one point with several copies.
        pairs = []
        for segment in range(min(k, 64)):
            end = segment_start(sampler, segment + 1, k)
            start = segment_start(sampler, segment, k)
            if end > start:
                pairs.append((end - 1, (3 * segment) % len(hub_sets), 4))
                if end - 1 > start:
                    pairs.append((start, (3 * segment + 1) % len(hub_sets), 1))
        view = make_view(pairs)
        for _ in range(15):
            assert_matches_oracle(sampler, query, view)

    def test_exclude_index_inside_the_accepted_segment(self, hub_sets):
        sampler = _dynamic(hub_sets)
        query = hub_sets[0]
        k = k_level(sampler, query)
        base = segment_start(sampler, 0, k)
        near, far = near_and_far(sampler, query)
        # Every member sits in segment 0, including the excluded one.
        members = near[:4] + far[:2]
        view = make_view([(base + i, index, 2) for i, index in enumerate(members)])
        for _ in range(10):
            result = assert_matches_oracle(sampler, query, view, exclude_index=near[0])
            assert result.index in near[1:4]

    def test_exclude_index_as_the_only_near_member(self, hub_sets):
        sampler = _dynamic(hub_sets)
        query = hub_sets[0]
        near, far = near_and_far(sampler, query)
        assert len(near) >= 2 and len(far) >= 2
        k = k_level(sampler, query)
        lone = segment_start(sampler, 0, k)
        other = segment_start(sampler, k // 2, k)
        view = make_view(
            [(lone, near[0], 3), (lone + 1, far[0], 1),
             (other, far[1], 2), (other + 1, near[1], 1)]
        )
        for _ in range(10):
            result = assert_matches_oracle(sampler, query, view, exclude_index=near[0])
            assert result.index in (None, near[1])
        # Alone: the excluded point is the segment's only near member, and
        # no round may ever accept.
        view = make_view([(lone, near[0], 3), (lone + 1, far[0], 1)])
        result = assert_matches_oracle(sampler, query, view, exclude_index=near[0])
        assert result.index is None

    @pytest.mark.parametrize("max_rounds", [1, 5, 13, 29, 100])
    def test_max_rounds_cap_lands_mid_block(self, hub_sets, max_rounds):
        sampler = _dynamic(hub_sets, max_rounds=max_rounds)
        query = hub_sets[0]
        k = k_level(sampler, query)
        # A lone far member: no round accepts, so the cap ends the query.
        far = near_and_far(sampler, query)[1][0]
        view = make_view([(segment_start(sampler, k - 1, k), far, 2)])
        result = assert_matches_oracle(sampler, query, view)
        assert result.stats.rounds == max_rounds
        for query in hub_sets[:10]:
            assert_matches_oracle(sampler, query)

    @pytest.mark.parametrize("build", [_static, _dynamic], ids=["static", "dynamic"])
    def test_empty_view_with_a_positive_estimate(self, hub_sets, build):
        sampler = build(hub_sets)
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert sampler.estimate_colliding_count(hub_sets[0]) > 0
        result = assert_matches_oracle(sampler, hub_sets[0], empty)
        assert result.index is None and result.stats.rounds > 0

    def test_estimate_of_zero(self, hub_sets):
        sampler = _static(hub_sets)
        query = frozenset({5000, 5001, 5002})
        assert sampler.estimate_colliding_count(query) == 0.0
        result = assert_matches_oracle(sampler, query)
        assert result.index is None and result.stats == QueryStats()

    @pytest.mark.parametrize("build", [_static, _dynamic], ids=["static", "dynamic"])
    def test_k_up_to_twice_n(self, hub_sets, build, monkeypatch):
        sampler = build(hub_sets)
        n = sampler.tables.num_live
        monkeypatch.setattr(sampler, "estimate_colliding_count", lambda query: 10.0 * n)
        assert k_level(sampler, hub_sets[0]) >= 2 * n
        for query in hub_sets[:10]:
            assert_matches_oracle(sampler, query)


_FAST = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def dynamic_hub(hub_sets):
    return _dynamic(hub_sets, seed=17)


class TestHandmadeViews:
    @_FAST
    @given(
        data=st.data(),
        members=st.integers(0, 40),
        segments_used=st.integers(1, 6),
        exclude=st.booleans(),
        max_rounds=st.integers(1, 200),
    )
    def test_random_views_match(self, dynamic_hub, hub_sets, data, members, segments_used,
                                exclude, max_rounds):
        """Random views: rank ties, boundary-hugging ranks, duplicate runs."""
        sampler = dynamic_hub
        query = hub_sets[1]
        k = k_level(sampler, query)
        pool = [segment_start(sampler, s, k) for s in range(min(k, segments_used) + 1)]
        candidate_ranks = sorted({r + d for r in pool for d in (-1, 0, 1) if 0 <= r + d < 2**62})
        indices = data.draw(
            st.lists(st.integers(0, len(hub_sets) - 1), min_size=members, max_size=members,
                     unique=True)
        )
        pairs = [
            (data.draw(st.sampled_from(candidate_ranks)), index, data.draw(st.integers(1, 4)))
            for index in indices
        ]
        exclude_index = indices[0] if exclude and indices else None
        saved = sampler.max_rounds
        sampler.max_rounds = max_rounds
        try:
            assert_matches_oracle(sampler, query, make_view(pairs), exclude_index)
        finally:
            sampler.max_rounds = saved


@pytest.fixture(scope="module")
def static_hub(hub_sets):
    return _static(hub_sets, seed=17)


class TestStaticRankDomain:
    """Static tables rank their points ``0 .. n-1``, so the rank domain is
    ``n`` and a first level ``k`` above it makes ``q = domain // k`` zero:
    every segment is zero or one rank wide, and level boundaries come from
    the ``s * rem // k`` term alone."""

    @_FAST
    @given(
        data=st.data(),
        members=st.integers(0, 40),
        factor=st.sampled_from([0.6, 1.0, 10.0]),
        exclude=st.booleans(),
        max_rounds=st.integers(1, 400),
    )
    def test_random_views_with_k_above_the_domain(self, static_hub, hub_sets, data, members,
                                                  factor, exclude, max_rounds):
        sampler = static_hub
        query = hub_sets[2]
        domain = sampler.tables.rank_domain
        sampler.estimate_colliding_count = lambda query: factor * domain
        saved = sampler.max_rounds
        sampler.max_rounds = max_rounds
        try:
            k = k_level(sampler, query)
            assert k > domain and divmod(domain, k)[0] == 0
            indices = data.draw(
                st.lists(st.integers(0, len(hub_sets) - 1), min_size=members,
                         max_size=members, unique=True)
            )
            pairs = [
                (data.draw(st.integers(0, domain - 1)), index, data.draw(st.integers(1, 3)))
                for index in indices
            ]
            exclude_index = indices[0] if exclude and indices else None
            assert_matches_oracle(sampler, query, make_view(pairs), exclude_index)
        finally:
            sampler.max_rounds = saved
            del sampler.estimate_colliding_count

    def test_real_views_with_k_above_the_domain(self, static_hub, hub_sets):
        sampler = static_hub
        domain = sampler.tables.rank_domain
        sampler.estimate_colliding_count = lambda query: 0.75 * domain
        try:
            assert divmod(domain, k_level(sampler, hub_sets[0]))[0] == 0
            found = 0
            for index, query in enumerate(hub_sets[:25]):
                found += assert_matches_oracle(sampler, query, exclude_index=index).found
            assert found > 10
        finally:
            del sampler.estimate_colliding_count
