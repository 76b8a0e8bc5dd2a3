"""Sharded serving: byte-identical equivalence, placement, snapshots, facade.

The load-bearing guarantee of :mod:`repro.engine.sharded` is pinned here:
for the same spec + seed + dataset, a :class:`ShardedEngine` over any
``n_shards`` returns **byte-identical** :class:`QueryResponse`\\ s (indices,
values *and* work counters) to the unsharded :class:`BatchQueryEngine` —
for every registered LSH-backed sampler, before and after an insert/delete
churn phase that crosses compaction sweeps.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import registry
from repro.api import FairNN
from repro.core.base import LSHNeighborSampler
from repro.engine import (
    BatchQueryEngine,
    ShardedEngine,
    ShardedLSHTables,
    load_engine,
    save_engine,
)
from repro.engine.batch import build_tables
from repro.engine.sharded import _stable_point_hash
from repro.exceptions import InvalidParameterError
from repro.lsh import MinHashFamily
from repro.spec import EngineSpec, LSHSpec, SamplerSpec

SET_PARAMS = {"radius": 0.35, "far_radius": 0.1, "num_hashes": 2, "num_tables": 8}


def _lsh_backed_sampler_names():
    """Every registered sampler that can serve over dynamic (sharded) tables."""
    names = []
    for name, cls in registry.SAMPLERS.items():
        if not issubclass(cls, LSHNeighborSampler):
            continue
        if registry.SAMPLERS.metadata(name).get("inputs") != "family":
            continue
        if not cls.supports_dynamic_ranks:
            continue  # e.g. rank_perturbation: permutation ranks only
        names.append(name)
    return sorted(names)


def _make_sampler(name, seed=7):
    spec = SamplerSpec(name, SET_PARAMS, lsh=LSHSpec("minhash"), seed=seed)
    return spec.build()


def _workload(rng, n=150):
    dataset = [
        frozenset(int(x) for x in rng.choice(500, size=rng.integers(8, 25)))
        for _ in range(n)
    ]
    queries = list(dataset[:15]) + [
        frozenset(int(x) for x in rng.choice(500, size=12)) for _ in range(10)
    ]
    inserts = [frozenset(int(x) for x in rng.choice(500, size=15)) for _ in range(30)]
    doomed = [int(x) for x in rng.choice(n, size=45, replace=False)]
    return dataset, queries, inserts, doomed


def _serve_and_churn(engine, queries, inserts, doomed):
    """A serving trace: batches interleaved with churn (deletes cross sweeps)."""
    responses = list(engine.run(queries))
    engine.insert_many(inserts)
    responses += engine.run(queries)
    for position, index in enumerate(doomed):
        engine.delete(index)
        if position % 7 == 0:
            responses += engine.run(queries[:4])
    responses += engine.run(queries)
    # Multi-draw and exclusion requests ride the same trace.
    responses += [engine.run([queries[0]])[0]]
    return responses


def _assert_identical(reference, candidate):
    assert len(reference) == len(candidate)
    for left, right in zip(reference, candidate):
        assert left.indices == right.indices
        assert left.value == right.value
        assert left.stats == right.stats
        assert left.sampler == right.sampler


class TestShardedEquivalence:
    def test_every_lsh_backed_sampler_is_covered(self):
        # The acceptance criterion names "every registered LSH-backed
        # sampler"; keep the derived list honest against the registry.
        names = _lsh_backed_sampler_names()
        assert set(names) == {
            "approximate",
            "collect_all",
            "independent",
            "permutation",
            "standard_lsh",
        }

    @pytest.mark.parametrize("name", _lsh_backed_sampler_names())
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_byte_identical_responses_with_churn(self, name, n_shards):
        rng = np.random.default_rng(42)
        dataset, queries, inserts, doomed = _workload(rng)
        reference = _serve_and_churn(
            BatchQueryEngine.build(_make_sampler(name), dataset),
            queries,
            inserts,
            doomed,
        )
        sharded = ShardedEngine.build(_make_sampler(name), dataset, n_shards=n_shards)
        _assert_identical(reference, _serve_and_churn(sharded, queries, inserts, doomed))

    def test_hash_placement_is_equivalent_too(self):
        rng = np.random.default_rng(43)
        dataset, queries, inserts, doomed = _workload(rng)
        reference = _serve_and_churn(
            BatchQueryEngine.build(_make_sampler("permutation"), dataset),
            queries,
            inserts,
            doomed,
        )
        sharded = ShardedEngine.build(
            _make_sampler("permutation"), dataset, n_shards=3, placement="hash"
        )
        _assert_identical(reference, _serve_and_churn(sharded, queries, inserts, doomed))
        sizes = sharded.tables.shard_sizes()
        assert sum(sizes) == len(dataset) + 30
        assert all(size > 0 for size in sizes)

    def test_equivalence_across_compaction_sweeps(self):
        """Deletes heavy enough to trigger global and per-shard sweeps."""
        rng = np.random.default_rng(44)
        dataset, queries, _, _ = _workload(rng)
        doomed = [int(x) for x in rng.choice(len(dataset), size=90, replace=False)]

        def build(sharded):
            sampler = _make_sampler("independent")
            tables, bound = build_tables(
                sampler,
                dataset,
                dynamic=True,
                max_tombstone_fraction=0.1,
                n_shards=4 if sharded else None,
            )
            sampler.attach(tables, bound)
            return (ShardedEngine if sharded else BatchQueryEngine)(sampler)

        def trace(engine):
            responses = list(engine.run(queries))
            for index in doomed:
                engine.delete(index)
                responses += engine.run(queries[:3])
            return responses

        reference_engine = build(False)
        reference = trace(reference_engine)
        sharded_engine = build(True)
        _assert_identical(reference, trace(sharded_engine))
        assert reference_engine.tables.rebuilds_triggered >= 1
        assert sharded_engine.tables.rebuilds_triggered >= 1
        # Shards self-compact under local pressure on top of global sweeps.
        assert any(s.rebuilds_triggered > 0 for s in sharded_engine.tables.shards)

    def test_sample_k_and_exclusion_equivalence(self):
        from repro.engine import QueryRequest

        rng = np.random.default_rng(45)
        dataset, queries, _, _ = _workload(rng)
        requests = [
            QueryRequest(query=queries[0], k=4, replacement=False),
            QueryRequest(query=queries[1], k=3, replacement=True),
            QueryRequest(query=dataset[2], exclude_index=2),
        ]
        reference = BatchQueryEngine.build(_make_sampler("permutation"), dataset).run(requests)
        sharded = ShardedEngine.build(_make_sampler("permutation"), dataset, n_shards=4).run(
            requests
        )
        _assert_identical(reference, sharded)


class TestShardedTables:
    def test_merged_buckets_match_unsharded(self, small_set_dataset):
        sampler = _make_sampler("permutation")
        unsharded, _ = build_tables(sampler, small_set_dataset, dynamic=True)
        sampler2 = _make_sampler("permutation")
        sharded, _ = build_tables(sampler2, small_set_dataset, dynamic=True, n_shards=3)
        assert isinstance(sharded, ShardedLSHTables)
        for table_index in range(unsharded.num_tables):
            reference = unsharded._tables[table_index]
            merged = sharded._tables[table_index]
            assert set(merged) == set(reference)
            assert len(merged) == len(reference)
            for key, bucket in reference.items():
                merged_bucket = merged[key]
                np.testing.assert_array_equal(bucket.indices, merged_bucket.indices)
                np.testing.assert_array_equal(bucket.ranks, merged_bucket.ranks)

    def test_ranks_and_functions_are_placement_invariant(self, small_set_dataset):
        built = [
            build_tables(_make_sampler("permutation"), small_set_dataset, dynamic=True, n_shards=n)[0]
            for n in (None, 1, 2, 4)
        ]
        reference = built[0]
        # Insert streams stay aligned after construction as well: mutate
        # every variant identically and re-compare the global rank arrays.
        for round_inserts in (small_set_dataset[:3], small_set_dataset[3:5]):
            for tables in built[1:]:
                np.testing.assert_array_equal(reference.ranks, tables.ranks)
            for tables in built:
                tables.insert_many(list(round_inserts))
        for tables in built[1:]:
            np.testing.assert_array_equal(reference.ranks, tables.ranks)

    def test_round_robin_placement_is_recorded(self, small_set_dataset):
        tables, _ = build_tables(
            _make_sampler("permutation"), small_set_dataset, dynamic=True, n_shards=4
        )
        n = len(small_set_dataset)
        np.testing.assert_array_equal(tables.shard_of, np.arange(n) % 4)
        tables.insert_many(list(small_set_dataset[:2]))
        assert tables.shard_of[n] == n % 4
        assert sum(tables.shard_sizes()) == n + 2

    def test_stable_point_hash_ignores_set_order(self):
        assert _stable_point_hash(frozenset({1, 2, 3})) == _stable_point_hash(
            frozenset({3, 1, 2})
        )
        assert _stable_point_hash(frozenset({1, 2, 3})) != _stable_point_hash(
            frozenset({1, 2, 4})
        )

    def test_bounded_colliding_view_is_a_true_prefix(self):
        # A dense hub: every point shares a 12-item core, so colliding views
        # run to hundreds of references per shard.
        rng = np.random.default_rng(11)
        dataset = [
            frozenset(set(range(12)) | {int(x) for x in rng.choice(range(12, 300), size=4)})
            for _ in range(200)
        ]
        tables, _ = build_tables(
            _make_sampler("permutation"), dataset, dynamic=True, n_shards=4
        )
        query = dataset[0]
        # The per-shard merge without a limit reproduces the view over the
        # merged cross-shard buckets.
        buckets = [b for b in tables.query_buckets(query) if b.indices.size]
        merged_ranks = np.concatenate([b.ranks for b in buckets])
        order = np.argsort(merged_ranks, kind="stable")
        full = tables.colliding_view(query)
        assert full.complete
        full_ranks, full_indices = full
        np.testing.assert_array_equal(full_ranks, merged_ranks[order])
        np.testing.assert_array_equal(
            full_indices, np.concatenate([b.indices for b in buckets])[order]
        )
        # 128 total splits into 32 per shard, below the largest shard's
        # colliding multiset: a strict, certified prefix.
        prefix = tables.colliding_view(query, 128)
        assert not prefix.complete and 0 < prefix.ranks.size < full_ranks.size
        np.testing.assert_array_equal(prefix.ranks, full_ranks[: prefix.ranks.size])
        np.testing.assert_array_equal(prefix.indices, full_indices[: prefix.indices.size])
        # A generous limit returns the complete view.
        whole = tables.colliding_view(query, 10_000)
        assert whole.complete
        np.testing.assert_array_equal(whole.ranks, full_ranks)
        np.testing.assert_array_equal(whole.indices, full_indices)

    def test_validation(self, small_set_dataset):
        with pytest.raises(InvalidParameterError):
            ShardedLSHTables(MinHashFamily(), l=3, n_shards=0)
        with pytest.raises(InvalidParameterError):
            ShardedLSHTables(MinHashFamily(), l=3, placement="modulo")
        with pytest.raises(InvalidParameterError):
            build_tables(
                _make_sampler("permutation"), small_set_dataset, dynamic=False, n_shards=2
            )

    def test_sharded_engine_requires_sharded_tables(self, small_set_dataset):
        engine = BatchQueryEngine.build(_make_sampler("permutation"), small_set_dataset)
        with pytest.raises(InvalidParameterError):
            ShardedEngine(engine.sampler)

    def test_close_shuts_down_the_pool_and_reserve_closes_old_engines(
        self, small_set_dataset
    ):
        engine = ShardedEngine.build(_make_sampler("permutation"), small_set_dataset, n_shards=2)
        engine.run(list(small_set_dataset[:5]))
        engine.close()
        engine.close()  # idempotent
        assert engine._pool._shutdown
        # Re-serving a facade replaces its engines and releases their pools.
        spec = SamplerSpec("permutation", SET_PARAMS, lsh=LSHSpec("minhash"), seed=5)
        nn = FairNN.from_spec(spec).serve(small_set_dataset, shards=2)
        old = nn.engine()
        nn.serve(small_set_dataset)
        assert old._pool._shutdown

    def test_prefix_flag_without_override_falls_back_to_merged_view(
        self, small_set_dataset
    ):
        """A sampler may declare supports_rank_prefix_scan but keep the base
        sample_detailed_from_prefix (always None): the engine must fall back
        to the full merged view once the prefix is complete, not escalate
        forever."""
        from repro.core import StandardLSHSampler
        from repro.core.base import LSHNeighborSampler

        class FlaggedWithoutOverride(StandardLSHSampler):
            # Declare the capability but strip the real prefix replayers back
            # to the base always-refuse implementations.
            supports_rank_prefix_scan = True
            prefix_scan_needs_tables = False
            sample_detailed_from_prefix = LSHNeighborSampler.sample_detailed_from_prefix
            sample_k_from_prefix = LSHNeighborSampler.sample_k_from_prefix

        sampler = FlaggedWithoutOverride(
            MinHashFamily(), seed=7, use_ranks=True, **SET_PARAMS
        )
        engine = ShardedEngine.build(sampler, small_set_dataset, n_shards=2)
        responses = engine.run(list(small_set_dataset[:5]))
        assert len(responses) == 5
        assert engine.stats.prefix_scans == 0  # nothing certified via prefix


class TestShardedSpecAndFacade:
    def test_engine_spec_round_trips_shard_fields(self):
        spec = EngineSpec(
            samplers={"fair": SamplerSpec("permutation", SET_PARAMS, lsh=LSHSpec("minhash"))},
            n_shards=4,
            placement="hash",
        )
        assert EngineSpec.from_dict(spec.to_dict()) == spec
        assert EngineSpec.from_json(spec.to_json()) == spec
        assert json.loads(spec.to_json())["n_shards"] == 4

    def test_engine_spec_validates_shard_fields(self):
        sampler = {"fair": SamplerSpec("permutation", SET_PARAMS, lsh=LSHSpec("minhash"))}
        with pytest.raises(InvalidParameterError):
            EngineSpec(samplers=sampler, n_shards=0)
        with pytest.raises(InvalidParameterError):
            EngineSpec(samplers=sampler, placement="nope")
        with pytest.raises(InvalidParameterError):
            EngineSpec(samplers=sampler, n_shards=2, dynamic=False)

    def test_serve_shards_promotes_and_records_spec(self, small_set_dataset):
        spec = SamplerSpec("permutation", SET_PARAMS, lsh=LSHSpec("minhash"), seed=5)
        nn = FairNN.from_spec(spec).serve(small_set_dataset, shards=3)
        assert nn.is_sharded and nn.is_dynamic
        assert nn.n_shards == 3
        assert nn.spec.n_shards == 3  # recorded: snapshots describe the topology
        assert isinstance(nn.engine(), ShardedEngine)

        unsharded = FairNN.from_spec(spec).serve(small_set_dataset)
        assert not unsharded.is_sharded and unsharded.n_shards == 1
        queries = list(small_set_dataset[:20])
        _assert_identical(unsharded.run(queries), nn.run(queries))

    def test_spec_n_shards_drives_serving(self, small_set_dataset):
        engine_spec = EngineSpec(
            samplers={"fair": SamplerSpec("permutation", SET_PARAMS, lsh=LSHSpec("minhash"), seed=5)},
            n_shards=2,
        )
        nn = FairNN.from_spec(engine_spec).serve(small_set_dataset)
        assert nn.is_sharded and nn.n_shards == 2

    def test_facade_mutations_route_once_and_notify_all(self, small_set_dataset):
        engine_spec = EngineSpec(
            samplers={
                "fair": SamplerSpec("permutation", SET_PARAMS, lsh=LSHSpec("minhash"), seed=5),
                "independent": SamplerSpec("independent", SET_PARAMS, lsh=LSHSpec("minhash"), seed=6),
            },
            primary="fair",
            n_shards=4,
        )
        nn = FairNN.from_spec(engine_spec).serve(small_set_dataset)
        new_point = frozenset(range(3000, 3030))
        index = nn.insert(new_point)
        nn.delete(0)
        stats = nn.stats()
        assert all(s.inserts == 1 and s.deletes == 1 for s in stats.values())
        for name in ("fair", "independent"):
            assert nn.sample(new_point, sampler=name) == index

    def test_snapshot_v4_round_trip(self, small_set_dataset, tmp_path):
        spec = SamplerSpec("permutation", SET_PARAMS, lsh=LSHSpec("minhash"), seed=5)
        nn = FairNN.from_spec(spec).serve(small_set_dataset, shards=3)
        nn.insert_many(list(small_set_dataset[:5]))
        nn.delete(2)
        nn.save(tmp_path / "snap")
        manifest = json.loads((tmp_path / "snap" / "manifest.json").read_text())
        assert manifest["format_version"] == 4
        assert manifest["n_shards"] == 3
        assert manifest["placement"] == "round_robin"
        assert len(manifest["shards"]) == 3

        clone = FairNN.load(tmp_path / "snap")
        assert clone.is_sharded and clone.n_shards == 3
        queries = list(small_set_dataset[:25])
        _assert_identical(nn.run(queries), clone.run(queries))
        # The restored engine keeps mutating byte-identically.
        extra = [frozenset(range(i, i + 12)) for i in range(4000, 4040, 10)]
        assert nn.insert_many(extra) == clone.insert_many(extra)
        nn.delete(7)
        clone.delete(7)
        _assert_identical(nn.run(queries), clone.run(queries))

    def test_unsharded_snapshots_still_write_v3(self, small_set_dataset, tmp_path):
        engine = BatchQueryEngine.build(_make_sampler("permutation"), small_set_dataset)
        save_engine(engine, tmp_path / "snap")
        manifest = json.loads((tmp_path / "snap" / "manifest.json").read_text())
        assert manifest["format_version"] == 3
        assert isinstance(load_engine(tmp_path / "snap"), BatchQueryEngine)

    def test_sharded_save_load_engine_direct(self, small_set_dataset, tmp_path):
        engine = ShardedEngine.build(
            _make_sampler("independent"), small_set_dataset, n_shards=2, placement="hash"
        )
        engine.run(list(small_set_dataset[:10]))
        save_engine(engine, tmp_path / "snap")
        clone = load_engine(tmp_path / "snap")
        assert isinstance(clone, ShardedEngine)
        assert clone.tables.placement == "hash"
        np.testing.assert_array_equal(engine.tables.shard_of, clone.tables.shard_of)
        queries = list(small_set_dataset[10:30])
        _assert_identical(engine.run(queries), clone.run(queries))
