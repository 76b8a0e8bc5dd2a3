"""The one-pass dedup of rank-sorted views against the two-sort oracle.

The Section 3 sampler deduplicates a rank-sorted colliding view keeping each
point's first (lowest-rank) occurrence.  Copies of one point share its rank,
so they are adjacent and one comparison with the predecessor suffices; only
two distinct points sharing a rank can interleave copies, and those views
take the two-sort path.  The oracle below is the ``np.unique`` + stable
``argsort`` dedup the sampler used before.  Candidates and answers must be
identical on tie-free and tied views alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PermutationFairSampler
from repro.core import fair_nns
from repro.engine.gather import PrefixView
from repro.lsh import MinHashFamily


def _oracle_positions(ranks, indices):
    _, first_seen = np.unique(indices, return_index=True)
    return first_seen[np.argsort(first_seen, kind="stable")]


def _oracle_candidates(indices):
    unique, first_seen = np.unique(indices, return_index=True)
    return unique[np.argsort(first_seen, kind="stable")]


def _view(rng, num_points, copies, ties=0):
    """A rank-sorted view over *num_points* slots with planted duplicates.

    Each point appears up to *copies* times (once per colliding table)
    with its one rank; *ties* pairs of distinct points share a rank.
    """
    points = rng.choice(num_points, size=min(num_points, 40), replace=False)
    point_ranks = rng.choice(10_000, size=points.size, replace=False)
    for pair in range(min(ties, points.size // 2)):
        point_ranks[2 * pair + 1] = point_ranks[2 * pair]
    repeats = rng.integers(1, copies + 1, size=points.size)
    indices = np.repeat(points, repeats).astype(np.intp)
    ranks = np.repeat(point_ranks, repeats).astype(np.int64)
    # Shuffle, then sort by rank stably: equal-rank copies of distinct
    # points interleave, as gathers from several tables would leave them.
    shuffle = rng.permutation(indices.size)
    indices, ranks = indices[shuffle], ranks[shuffle]
    order = np.argsort(ranks, kind="stable")
    return ranks[order], indices[order]


@pytest.fixture(scope="module")
def sampler():
    rng = np.random.default_rng(5)
    dataset = [
        frozenset(int(x) for x in rng.choice(30, size=int(rng.integers(3, 9)), replace=False))
        for _ in range(120)
    ]
    return PermutationFairSampler(
        MinHashFamily(), radius=0.25, far_radius=0.1, num_hashes=1, num_tables=6, seed=2
    ).fit(dataset)


@pytest.fixture
def oracle_dedup(monkeypatch):
    """Route the sampler through the oracle dedup for the rest of the test."""

    def _use_oracle():
        monkeypatch.setattr(fair_nns, "_first_occurrences", _oracle_positions)

    return _use_oracle


@pytest.mark.parametrize("ties", [0, 1, 5])
@pytest.mark.parametrize("seed", range(8))
def test_candidates_match_oracle(seed, ties):
    rng = np.random.default_rng(seed)
    ranks, indices = _view(rng, 120, copies=4, ties=ties)
    positions = fair_nns._first_occurrences(ranks, indices)
    assert indices[positions].tolist() == _oracle_candidates(indices).tolist()
    assert ranks[positions].tolist() == ranks[_oracle_positions(ranks, indices)].tolist()


def test_tied_distinct_points_take_the_two_sort_path(monkeypatch):
    # Copies of points 3 and 5 interleave at rank 2.
    ranks = np.array([1, 2, 2, 2, 2, 7], dtype=np.int64)
    indices = np.array([9, 3, 5, 3, 5, 9], dtype=np.intp)
    calls = []
    by_sorting = fair_nns._first_occurrences_by_sorting
    monkeypatch.setattr(
        fair_nns,
        "_first_occurrences_by_sorting",
        lambda view_indices: calls.append(1) or by_sorting(view_indices),
    )
    positions = fair_nns._first_occurrences(ranks, indices)
    assert indices[positions].tolist() == [9, 3, 5]
    assert calls == [1]


@pytest.mark.parametrize("size", [0, 1])
def test_short_views(size):
    ranks = np.arange(size, dtype=np.int64)
    indices = np.arange(size, dtype=np.intp) + 4
    positions = fair_nns._first_occurrences(ranks, indices)
    assert indices[positions].tolist() == _oracle_candidates(indices).tolist()
    assert indices[positions].dtype == indices.dtype


def _answers(sampler, query, view, exclude_index=None):
    ranks, indices = view
    prefix = PrefixView(ranks, indices, complete=False)
    full = sampler.sample_detailed_from_candidates(query, view, exclude_index=exclude_index)
    cut = sampler.sample_detailed_from_prefix(query, prefix, False, exclude_index=exclude_index)
    k_prefix = sampler.sample_k_from_prefix(query, prefix, False, 3, replacement=False)
    k_full = sampler.sample_k_from_prefix(query, view, True, 3, replacement=False)
    return (
        (full.index, full.value, full.stats),
        None if cut is None else (cut.index, cut.value, cut.stats),
        k_prefix,
        k_full,
    )


@pytest.mark.parametrize("ties", [0, 3])
@pytest.mark.parametrize("seed", range(6))
def test_answers_match_oracle(sampler, oracle_dedup, seed, ties):
    rng = np.random.default_rng(100 + seed)
    view = _view(rng, sampler.num_points, copies=3, ties=ties)
    query = sampler.dataset[int(rng.integers(sampler.num_points))]
    exclude = int(view[1][0])
    mine = [_answers(sampler, query, view), _answers(sampler, query, view, exclude)]
    oracle_dedup()
    assert mine == [_answers(sampler, query, view), _answers(sampler, query, view, exclude)]


def test_duplicate_run_at_the_prefix_cut(sampler, oracle_dedup):
    """A point whose copies straddle the prefix cut dedups the same way."""
    rng = np.random.default_rng(7)
    ranks, indices = _view(rng, sampler.num_points, copies=4)
    # Cut inside the last run of copies longer than one.
    runs = np.flatnonzero(np.diff(indices) == 0)
    cut = int(runs[-1]) + 1
    view = (ranks[:cut], indices[:cut])
    assert indices[cut - 1] == indices[cut]
    query = sampler.dataset[3]
    mine = _answers(sampler, query, view)
    oracle_dedup()
    assert mine == _answers(sampler, query, view)


def test_k_lowest_rank_neighbors_match_oracle(sampler, oracle_dedup):
    queries = sampler.dataset[:15]
    mine = [sampler._k_lowest_rank_neighbors(q, 4) for q in queries]
    oracle_dedup()
    assert mine == [sampler._k_lowest_rank_neighbors(q, 4) for q in queries]
