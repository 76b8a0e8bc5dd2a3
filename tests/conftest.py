"""Shared fixtures for the test suite.

The statistical tests (uniformity of the fair samplers, bias of standard LSH)
use small datasets with explicitly chosen LSH parameters so that each test
builds its index in milliseconds; seeds are fixed so the suite is
deterministic.
"""

from __future__ import annotations

import pathlib
import shutil

import numpy as np
import pytest

from repro.data.sets import generate_lastfm_like
from repro.data.synthetic import planted_neighborhood, planted_inner_product_neighborhood
from repro.distances.jaccard import JaccardSimilarity
from repro.lsh.minhash import MinHashFamily, OneBitMinHashFamily


@pytest.fixture(scope="session")
def small_set_dataset():
    """A small Last.FM-like set dataset (120 users) shared across tests."""
    return generate_lastfm_like(num_users=120, seed=11)


@pytest.fixture(scope="session")
def jaccard():
    return JaccardSimilarity()


@pytest.fixture(scope="session")
def minhash_family():
    return MinHashFamily()


@pytest.fixture(scope="session")
def onebit_family():
    return OneBitMinHashFamily()


@pytest.fixture(scope="session")
def planted_sets():
    """A tiny hand-built set dataset with a known neighborhood.

    The query ``{1..10}`` has exactly five near neighbors at Jaccard >= 0.5
    (indices 0-4); the remaining points are far.
    """
    base = frozenset(range(1, 11))
    near = [
        frozenset(range(1, 11)),              # similarity 1.0
        frozenset(range(1, 10)),              # 0.9
        frozenset(range(1, 9)),               # 0.8
        frozenset(list(range(1, 9)) + [20]),  # 8/11 = 0.727
        frozenset(range(2, 11)),              # 0.9
    ]
    far = [frozenset(range(100 + 10 * i, 110 + 10 * i)) for i in range(20)]
    dataset = near + far
    return {"dataset": dataset, "query": base, "near_indices": set(range(5)), "radius": 0.5}


@pytest.fixture(scope="session")
def planted_vectors():
    """Euclidean planted neighborhood: 15 near points, 200 background points."""
    points, query, neighbors = planted_neighborhood(
        n_background=200, n_neighbors=15, dim=12, radius=1.0, seed=5
    )
    return {"points": points, "query": query, "near_indices": set(int(i) for i in neighbors)}


@pytest.fixture(scope="session")
def planted_unit_vectors():
    """Inner-product planted neighborhood on the unit sphere."""
    points, query, neighbors = planted_inner_product_neighborhood(
        n_background=300, n_neighbors=12, dim=20, alpha=0.8, beta_max=0.2, seed=9
    )
    return {"points": points, "query": query, "near_indices": set(int(i) for i in neighbors)}


@pytest.fixture
def rng():
    return np.random.default_rng(0)


#: Snapshots written by an earlier release, zipped v3 (``*-v3``) and raw v5
#: (``*-v5``); ``tests/test_table_build.py`` pins their answers.
CHECKED_IN_SNAPSHOTS = pathlib.Path(__file__).parent / "data" / "table_build_snapshots"


@pytest.fixture
def legacy_snapshot(tmp_path):
    """Copy a checked-in snapshot into *tmp_path*; returns the copy's path.

    ``save_engine`` writes format v5 only, so tests of the zipped formats
    (v1–v3) edit or damage a copy of a v3 snapshot an earlier release wrote.
    """

    def copy(case: str = "minhash-k2-v3") -> pathlib.Path:
        return pathlib.Path(shutil.copytree(CHECKED_IN_SNAPSHOTS / case, tmp_path / case))

    return copy
