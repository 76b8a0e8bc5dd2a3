"""The declarative layer: registries, specs, the FairNN facade, snapshots.

Four guarantees are pinned down here:

1. **Registry completeness** — every concrete sampler, measure and base LSH
   family class is registered (so the whole library is reachable from
   specs), and every registered name builds a working instance.
2. **Spec round-trip** — ``Spec.from_dict(spec.to_dict()) == spec`` and the
   JSON forms agree, for all four spec types, with validated errors on
   malformed input.
3. **Bitwise-reproducible seeding** — a spec-built sampler answers seeded
   queries byte-identically to the directly constructed equivalent.
4. **Snapshot compatibility** — snapshots (since format v3) persist the spec and
   serving name; pre-existing v2 snapshots (no spec keys) still load with
   identical query responses.
"""

from __future__ import annotations

import gc
import inspect
import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro import registry
from repro.api import FairNN
from repro.core.base import NeighborSampler
from repro.core.weighted import WeightedFairSampler
from repro.distances.base import Measure
from repro.engine import BatchQueryEngine, load_engine, save_engine
from repro.exceptions import InvalidParameterError, NotFittedError
from repro.lsh.family import ConcatenatedFamily, LSHFamily
from repro.spec import DistanceSpec, EngineSpec, LSHSpec, SamplerSpec, spec_from_dict

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Canonical buildable spec per registered sampler, plus the dataset flavour
#: ("sets" or "vectors") its measure needs.  Kept in sync with the registry
#: by test_every_registered_sampler_is_buildable.
SET_PARAMS = {"radius": 0.4, "far_radius": 0.1, "num_hashes": 2, "num_tables": 4}
CANONICAL_SPECS = {
    "exact": (SamplerSpec("exact", {"radius": 0.4}, distance=DistanceSpec("jaccard")), "sets"),
    "standard_lsh": (SamplerSpec("standard_lsh", SET_PARAMS, lsh=LSHSpec("minhash")), "sets"),
    "collect_all": (SamplerSpec("collect_all", SET_PARAMS, lsh=LSHSpec("minhash")), "sets"),
    "approximate": (
        SamplerSpec("approximate", {**SET_PARAMS, "far_radius": 0.2}, lsh=LSHSpec("minhash")),
        "sets",
    ),
    "permutation": (SamplerSpec("permutation", SET_PARAMS, lsh=LSHSpec("minhash")), "sets"),
    "rank_perturbation": (
        SamplerSpec("rank_perturbation", SET_PARAMS, lsh=LSHSpec("minhash")),
        "sets",
    ),
    "independent": (SamplerSpec("independent", SET_PARAMS, lsh=LSHSpec("minhash")), "sets"),
    "filter": (SamplerSpec("filter", {"alpha": 0.8, "beta": 0.2, "num_structures": 4}), "vectors"),
    "gaussian_filter": (SamplerSpec("gaussian_filter", {"alpha": 0.8, "beta": 0.2}), "vectors"),
}


def _concrete_subclasses(base):
    # Classes a test defined locally stay in __subclasses__() until the
    # cyclic collector frees them; collect first so only live classes count.
    gc.collect()
    seen = set()
    stack = list(base.__subclasses__())
    while stack:
        cls = stack.pop()
        if cls in seen:
            continue
        seen.add(cls)
        stack.extend(cls.__subclasses__())
    return {cls for cls in seen if not inspect.isabstract(cls)}


# ----------------------------------------------------------------------
# 1. Registry completeness
# ----------------------------------------------------------------------
class TestRegistryCompleteness:
    def test_every_concrete_measure_is_registered(self):
        registered = {cls for _, cls in registry.DISTANCES.items()}
        assert _concrete_subclasses(Measure) == registered

    def test_every_concrete_base_family_is_registered(self):
        registered = {cls for _, cls in registry.LSH_FAMILIES.items()}
        concrete = {
            cls
            for cls in _concrete_subclasses(LSHFamily)
            # AND-composition is derived (applied by the samplers), and the
            # batch-hasher helpers are internal plumbing, not families a
            # spec would name.
            if cls is not ConcatenatedFamily and not cls.__name__.startswith("_")
        }
        assert concrete == registered

    def test_every_concrete_sampler_is_registered(self):
        registered = {cls for _, cls in registry.SAMPLERS.items()}
        concrete = {
            cls
            for cls in _concrete_subclasses(NeighborSampler)
            # WeightedFairSampler wraps another sampler with an arbitrary
            # callable, so it has no declarative (JSON) description.
            if cls is not WeightedFairSampler
        }
        assert concrete == registered

    def test_canonical_spec_table_covers_registry(self):
        assert set(CANONICAL_SPECS) == set(registry.sampler_names())

    @pytest.mark.parametrize("name", sorted(CANONICAL_SPECS))
    def test_every_registered_sampler_is_buildable(
        self, name, small_set_dataset, planted_unit_vectors
    ):
        spec, flavour = CANONICAL_SPECS[name]
        dataset = (
            small_set_dataset if flavour == "sets" else planted_unit_vectors["points"]
        )
        query = (
            small_set_dataset[0] if flavour == "sets" else planted_unit_vectors["query"]
        )
        sampler = spec.build(seed=0).fit(dataset)
        index = sampler.sample(query)
        assert index is None or 0 <= int(index) < len(dataset)

    def test_duplicate_registration_of_different_class_fails(self):
        with pytest.raises(InvalidParameterError, match="already registered"):
            registry.SAMPLERS.register("permutation", WeightedFairSampler)

    def test_reregistration_of_same_class_is_idempotent(self):
        cls = registry.get_sampler("permutation")
        assert registry.SAMPLERS.register("permutation", cls) is cls

    def test_name_of_walks_the_mro(self):
        base = registry.get_sampler("permutation")
        sub = type("MyPermutation", (base,), {})
        assert registry.SAMPLERS.name_of(sub) == "permutation"
        assert registry.SAMPLERS.name_of(int) is None

    def test_unknown_names_raise_with_known_names_listed(self):
        with pytest.raises(InvalidParameterError, match="permutation"):
            registry.get_sampler("nope")
        with pytest.raises(InvalidParameterError, match="jaccard"):
            registry.get_distance("nope")
        with pytest.raises(InvalidParameterError, match="minhash"):
            registry.get_lsh_family("nope")


# ----------------------------------------------------------------------
# 2. Spec round-trip and validation
# ----------------------------------------------------------------------
class TestSpecRoundTrip:
    @pytest.mark.parametrize(
        "spec",
        [
            DistanceSpec("jaccard"),
            LSHSpec("pstable", {"dim": 8, "width": 4.0}),
            SamplerSpec("exact", {"radius": 0.3}, distance=DistanceSpec("jaccard"), seed=3),
            SamplerSpec(
                "independent",
                {"radius": 0.4, "far_radius": 0.1, "max_rounds": 5000},
                lsh=LSHSpec("onebit_minhash"),
                seed=11,
            ),
            EngineSpec(
                samplers={
                    "fair": SamplerSpec("permutation", SET_PARAMS, lsh=LSHSpec("minhash"), seed=0),
                    "baseline": SamplerSpec(
                        "standard_lsh", SET_PARAMS, lsh=LSHSpec("minhash"), seed=1
                    ),
                },
                primary="fair",
                dynamic=False,
                max_tombstone_fraction=0.5,
            ),
        ],
        ids=lambda s: type(s).__name__,
    )
    def test_dict_and_json_round_trip(self, spec):
        cls = type(spec)
        assert cls.from_dict(spec.to_dict()) == spec
        assert cls.from_json(spec.to_json()) == spec
        assert spec_from_dict(spec.to_dict()) == spec
        json.loads(spec.to_json())  # genuinely JSON

    def test_engine_spec_defaults_primary_to_first_entry(self):
        spec = EngineSpec(
            samplers={"a": CANONICAL_SPECS["permutation"][0], "b": CANONICAL_SPECS["exact"][0]}
        )
        assert spec.primary == "a"
        assert spec.primary_spec.sampler == "permutation"

    def test_unknown_keys_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown"):
            SamplerSpec.from_dict({"sampler": "exact", "oops": 1})
        with pytest.raises(InvalidParameterError, match="unknown"):
            DistanceSpec.from_dict({"name": "jaccard", "typo": {}})

    def test_params_must_be_json_serializable_identifiers(self):
        with pytest.raises(InvalidParameterError, match="JSON"):
            SamplerSpec("exact", {"radius": np.arange(3)})
        with pytest.raises(InvalidParameterError, match="identifier"):
            LSHSpec("minhash", {"not an identifier": 1})

    def test_seed_goes_through_the_seed_field(self):
        with pytest.raises(InvalidParameterError, match="seed"):
            SamplerSpec("exact", {"radius": 0.3, "seed": 4})

    def test_build_validates_inputs_kind(self):
        with pytest.raises(InvalidParameterError, match="LSH family"):
            SamplerSpec("permutation", SET_PARAMS).build()
        with pytest.raises(InvalidParameterError, match="measure"):
            SamplerSpec("exact", {"radius": 0.3}).build()
        with pytest.raises(InvalidParameterError, match="self-contained"):
            SamplerSpec(
                "filter", {"alpha": 0.8, "beta": 0.2}, lsh=LSHSpec("minhash")
            ).build()
        with pytest.raises(InvalidParameterError, match="unknown sampler"):
            SamplerSpec("no_such_sampler", {}).build()

    def test_engine_spec_requires_known_primary_and_samplers(self):
        fair = CANONICAL_SPECS["permutation"][0]
        with pytest.raises(InvalidParameterError, match="primary"):
            EngineSpec(samplers={"a": fair}, primary="b")
        with pytest.raises(InvalidParameterError, match="non-empty"):
            EngineSpec(samplers={})

    def test_engine_spec_wal_fsync_round_trips_and_validates(self):
        fair = CANONICAL_SPECS["permutation"][0]
        spec = EngineSpec(samplers={"a": fair}, wal_fsync="always")
        assert EngineSpec.from_dict(spec.to_dict()) == spec
        # Snapshots written before the WAL existed have no wal_fsync key.
        legacy = {k: v for k, v in spec.to_dict().items() if k != "wal_fsync"}
        assert EngineSpec.from_dict(legacy).wal_fsync == "interval"
        with pytest.raises(InvalidParameterError, match="fsync"):
            EngineSpec(samplers={"a": fair}, wal_fsync="sometimes")

    def test_engine_spec_loads_legacy_shard_keys_only_at_defaults(self):
        """Spec dicts persisted while table sharding existed still carry its
        three keys; the unsharded defaults load, anything else is refused."""
        fair = CANONICAL_SPECS["permutation"][0]
        spec = EngineSpec(samplers={"a": fair})
        legacy = {**spec.to_dict(), "n_shards": 1, "placement": "round_robin", "executor": "thread"}
        assert EngineSpec.from_dict(legacy) == spec
        assert "n_shards" not in spec.to_dict()
        for key, value in (("n_shards", 2), ("executor", "process"), ("placement", "hash")):
            with pytest.raises(InvalidParameterError, match=key):
                EngineSpec.from_dict({**spec.to_dict(), key: value})

    def test_engine_spec_loads_legacy_budget_keys_only_when_null(self):
        """Spec dicts persisted while the prefix budget was an option carry
        its two keys as null; those load, a set budget is refused by name."""
        fair = CANONICAL_SPECS["permutation"][0]
        spec = EngineSpec(samplers={"a": fair})
        legacy = {**spec.to_dict(), "prefix_budget": None, "prefix_budget_cap": None}
        assert EngineSpec.from_dict(legacy) == spec
        assert "prefix_budget" not in spec.to_dict()
        for key in ("prefix_budget", "prefix_budget_cap"):
            with pytest.raises(InvalidParameterError, match=key):
                EngineSpec.from_dict({**spec.to_dict(), key: 256})

    def test_sampler_spec_drops_legacy_sketch_min_bucket(self):
        """Section 4 spec dicts persisted while a sketch was stored per
        bucket name its size cutoff; they load, and build, without it."""
        params = {"radius": 0.4, "far_radius": 0.1}
        spec = SamplerSpec("independent", params, lsh=LSHSpec("minhash"), seed=2)
        for cutoff in (1, 16, 500):
            legacy = spec.to_dict()
            legacy["params"] = {**params, "sketch_min_bucket": cutoff}
            assert SamplerSpec.from_dict(legacy) == spec
            engine = EngineSpec.from_dict(
                {**EngineSpec(samplers={"fair": spec}).to_dict(), "samplers": {"fair": legacy}}
            )
            assert engine.samplers["fair"] == spec
            assert spec_from_dict(legacy).build().max_rounds == spec.build().max_rounds
        with pytest.raises(TypeError, match="sketch_min_bucket"):
            SamplerSpec("independent", {**params, "sketch_min_bucket": 4}, lsh=LSHSpec("minhash")).build()

    def test_spec_from_dict_dispatch(self):
        assert isinstance(spec_from_dict({"name": "jaccard"}), DistanceSpec)
        assert isinstance(spec_from_dict({"family": "minhash"}), LSHSpec)
        with pytest.raises(InvalidParameterError, match="cannot infer"):
            spec_from_dict({"what": 1})


# ----------------------------------------------------------------------
# 3. Bitwise-reproducible seeding (spec-built == hand-built)
# ----------------------------------------------------------------------
class TestSpecBuildEquivalence:
    @pytest.mark.parametrize("name", sorted(CANONICAL_SPECS))
    def test_spec_built_equals_hand_built_bytewise(
        self, name, small_set_dataset, planted_unit_vectors
    ):
        """``spec.from_dict(spec.to_dict()).build().fit(ds)`` answers seeded
        queries byte-identically to the directly constructed sampler."""
        spec, flavour = CANONICAL_SPECS[name]
        spec = type(spec).from_dict(spec.to_dict())  # through the JSON schema
        if flavour == "sets":
            dataset = small_set_dataset
            queries = [small_set_dataset[i] for i in range(8)]
        else:
            dataset = planted_unit_vectors["points"]
            queries = [planted_unit_vectors["query"]] + [row for row in dataset[:7]]

        cls = registry.get_sampler(name)
        kwargs = dict(spec.params)
        if spec.lsh is not None:
            hand_built = cls(spec.lsh.build(), **kwargs, seed=123)
        elif spec.distance is not None:
            hand_built = cls(spec.distance.build(), **kwargs, seed=123)
        else:
            hand_built = cls(**kwargs, seed=123)
        spec_built = spec.build(seed=123)

        assert type(spec_built) is cls
        hand_built.fit(dataset)
        spec_built.fit(dataset)
        for query in queries:
            for _ in range(3):  # repeated draws exercise the query RNG stream
                a = hand_built.sample_detailed(query)
                b = spec_built.sample_detailed(query)
                assert (a.index, a.value) == (b.index, b.value)
                assert a.stats.candidates_examined == b.stats.candidates_examined
                assert a.stats.distance_evaluations == b.stats.distance_evaluations


# ----------------------------------------------------------------------
# 4. FairNN facade
# ----------------------------------------------------------------------
@pytest.fixture()
def engine_spec():
    return EngineSpec(
        samplers={
            "fair": SamplerSpec(
                "permutation",
                {"radius": 0.5, "far_radius": 0.1, "num_hashes": 2, "num_tables": 6},
                lsh=LSHSpec("minhash"),
                seed=0,
            ),
            "independent": SamplerSpec(
                "independent",
                {"radius": 0.5, "far_radius": 0.1, "num_hashes": 2, "num_tables": 6},
                lsh=LSHSpec("minhash"),
                seed=1,
            ),
            "exact": SamplerSpec("exact", {"radius": 0.5}, distance=DistanceSpec("jaccard"), seed=2),
        },
        primary="fair",
    )


class TestFairNNFacade:
    def test_from_spec_accepts_all_forms(self, engine_spec):
        assert FairNN.from_spec(engine_spec).spec == engine_spec
        assert FairNN.from_spec(engine_spec.to_dict()).spec == engine_spec
        assert FairNN.from_spec(engine_spec.to_json()).spec == engine_spec
        single = engine_spec.samplers["fair"]
        facade = FairNN.from_spec(single, name="only")
        assert facade.sampler_names == ["only"] and facade.primary == "only"
        with pytest.raises(InvalidParameterError, match="FairNN"):
            FairNN.from_spec(DistanceSpec("jaccard"))

    def test_static_fit_matches_hand_built_sampler(self, planted_sets):
        dataset = planted_sets["dataset"]
        spec = SamplerSpec(
            "permutation",
            {"radius": planted_sets["radius"], "far_radius": 0.2, "num_hashes": 2, "num_tables": 6},
            lsh=LSHSpec("minhash"),
            seed=5,
        )
        nn = FairNN.from_spec(spec).fit(dataset)
        hand = spec.build().fit(dataset)
        for _ in range(20):
            assert nn.sample(planted_sets["query"]) == hand.sample(planted_sets["query"])

    def test_requires_fit_before_queries(self, engine_spec):
        nn = FairNN.from_spec(engine_spec)
        with pytest.raises(NotFittedError):
            nn.sample(frozenset({1}))
        with pytest.raises(NotFittedError):
            nn.serve()

    def test_named_samplers_share_one_table_set(self, planted_sets):
        dataset = planted_sets["dataset"]
        spec = EngineSpec(
            samplers={
                "fair": SamplerSpec(
                    "permutation",
                    {"radius": 0.5, "far_radius": 0.2, "num_hashes": 2, "num_tables": 6},
                    lsh=LSHSpec("minhash"),
                    seed=0,
                ),
                "baseline": SamplerSpec(
                    "standard_lsh",
                    {"radius": 0.5, "far_radius": 0.2, "num_hashes": 2, "num_tables": 6},
                    lsh=LSHSpec("minhash"),
                    seed=1,
                ),
            },
            primary="fair",
        )
        nn = FairNN.from_spec(spec).serve(dataset)
        fair = nn.samplers["fair"]
        baseline = nn.samplers["baseline"]
        assert fair.tables is baseline.tables is nn.tables
        query = planted_sets["query"]
        near = planted_sets["near_indices"]
        for name in ("fair", "baseline"):
            index = nn.sample(query, sampler=name)
            assert index in near
        response = nn.run([query], sampler="baseline")[0]
        assert response.sampler == "baseline"

    def test_mixed_family_specs_rejected(self):
        fair = SamplerSpec("permutation", SET_PARAMS, lsh=LSHSpec("minhash"))
        other = SamplerSpec("standard_lsh", SET_PARAMS, lsh=LSHSpec("onebit_minhash"))
        with pytest.raises(InvalidParameterError, match="different LSH families"):
            FairNN.from_spec(EngineSpec(samplers={"a": fair, "b": other})).fit(
                [frozenset({1, 2}), frozenset({2, 3})]
            )

    def test_serve_single_sampler_matches_engine_build(self, small_set_dataset):
        spec = SamplerSpec(
            "permutation",
            {"radius": 0.2, "far_radius": 0.1, "recall": 0.95},
            lsh=LSHSpec("minhash"),
            seed=0,
        )
        nn = FairNN.from_spec(spec).serve(small_set_dataset)
        reference = BatchQueryEngine.build(spec.build(), small_set_dataset)
        queries = list(small_set_dataset[:25])
        assert nn.engine().sample_batch(queries) == reference.sample_batch(queries)

    def test_churn_notifies_every_named_sampler(self, small_set_dataset, engine_spec):
        samplers = dict(engine_spec.samplers)
        del samplers["exact"]  # non-LSH samplers cannot track mutations
        spec = EngineSpec(samplers=samplers, primary="fair")
        nn = FairNN.from_spec(spec).serve(small_set_dataset)
        new_point = frozenset(range(2000, 2030))
        index = nn.insert(new_point)
        nn.delete(0)
        stats = nn.stats()
        assert set(stats) == {"fair", "independent"}
        assert all(s.inserts == 1 and s.deletes == 1 for s in stats.values())
        # The inserted point is its own near neighbor (similarity 1.0) and
        # must be reachable through every LSH-backed sampler after the
        # mutation syncs.
        for name in ("fair", "independent"):
            assert nn.sample(new_point, sampler=name) == index

    def test_mutation_rejected_when_non_lsh_sampler_attached(
        self, small_set_dataset, engine_spec
    ):
        """The exact baseline cannot track index mutations — mutating would
        silently serve deleted points from it, so the facade refuses."""
        nn = FairNN.from_spec(engine_spec).serve(small_set_dataset)
        with pytest.raises(InvalidParameterError, match="exact"):
            nn.insert(frozenset({1, 2, 3}))
        with pytest.raises(InvalidParameterError, match="not LSH-backed"):
            nn.delete(0)

    def test_neighborhood_is_exact_and_liveness_aware(self, planted_sets):
        dataset = planted_sets["dataset"]
        spec = SamplerSpec(
            "permutation",
            {"radius": 0.5, "far_radius": 0.2, "num_hashes": 2, "num_tables": 6},
            lsh=LSHSpec("minhash"),
            seed=0,
        )
        nn = FairNN.from_spec(spec).serve(dataset)
        near = set(int(i) for i in nn.neighborhood(planted_sets["query"]))
        assert near == planted_sets["near_indices"]
        victim = next(iter(planted_sets["near_indices"]))
        nn.delete(victim)
        assert set(int(i) for i in nn.neighborhood(planted_sets["query"])) == near - {victim}

    def test_static_facade_rejects_mutation(self, planted_sets, engine_spec):
        nn = FairNN.from_spec(engine_spec).fit(planted_sets["dataset"])
        with pytest.raises(InvalidParameterError, match="dynamic"):
            nn.insert(frozenset({1, 2, 3}))

    def test_add_sampler_adopts_first_lsh_tables_as_shared(self, planted_sets):
        """On an all-non-LSH facade, the first added LSH sampler's tables
        become the shared set later additions attach to."""
        nn = FairNN.from_spec(
            SamplerSpec("exact", {"radius": 0.5}, distance=DistanceSpec("jaccard"), seed=0),
            name="exact",
        ).fit(planted_sets["dataset"])
        assert nn.tables is None
        lsh_params = {"radius": 0.5, "far_radius": 0.2, "num_hashes": 2, "num_tables": 6}
        nn.add_sampler(
            "fair", SamplerSpec("permutation", lsh_params, lsh=LSHSpec("minhash"), seed=1)
        )
        assert nn.tables is nn.samplers["fair"].tables
        nn.add_sampler(
            "baseline", SamplerSpec("standard_lsh", lsh_params, lsh=LSHSpec("minhash"), seed=2)
        )
        assert nn.samplers["baseline"].tables is nn.tables  # shared, not private

    def test_add_sampler_after_serve(self, planted_sets):
        spec = SamplerSpec(
            "permutation",
            {"radius": 0.5, "far_radius": 0.2, "num_hashes": 2, "num_tables": 6},
            lsh=LSHSpec("minhash"),
            seed=0,
        )
        nn = FairNN.from_spec(spec, name="fair").serve(planted_sets["dataset"])
        nn.add_sampler(
            "collect",
            SamplerSpec(
                "collect_all",
                {"radius": 0.5, "far_radius": 0.2, "num_hashes": 2, "num_tables": 6},
                lsh=LSHSpec("minhash"),
                seed=3,
            ),
        )
        assert nn.samplers["collect"].tables is nn.tables
        assert nn.sample(planted_sets["query"], sampler="collect") in planted_sets["near_indices"]
        with pytest.raises(InvalidParameterError, match="already in use"):
            nn.add_sampler("collect", spec)

    def test_response_sampler_name_defaults_to_registry_key(self, planted_sets):
        sampler = CANONICAL_SPECS["permutation"][0].build(seed=0).fit(planted_sets["dataset"])
        engine = BatchQueryEngine(sampler)
        assert engine.sampler_name == "permutation"
        response = engine.run([planted_sets["query"]])[0]
        assert response.sampler == "permutation"


# ----------------------------------------------------------------------
# 5. Snapshot spec persistence (+ v2 compatibility)
# ----------------------------------------------------------------------
class TestSnapshotSpecPersistence:
    def _serve(self, dataset):
        spec = SamplerSpec(
            "permutation",
            {"radius": 0.2, "far_radius": 0.1, "recall": 0.95},
            lsh=LSHSpec("minhash"),
            seed=0,
        )
        return FairNN.from_spec(spec, name="fair").serve(dataset)

    def test_v3_snapshot_carries_spec_and_name(self, small_set_dataset, tmp_path):
        """Format v3 added the spec and serving name to the manifest; the
        v5 snapshots ``save`` writes carry both."""
        nn = self._serve(small_set_dataset)
        nn.save(tmp_path / "snap")
        manifest = json.loads((tmp_path / "snap" / "manifest.json").read_text())
        assert manifest["format_version"] == 5
        assert manifest["sampler_name"] == "fair"
        assert manifest["spec_kind"] == "engine"
        assert EngineSpec.from_dict(manifest["spec"]) == nn.spec

        clone = FairNN.load(tmp_path / "snap")
        assert clone.spec == nn.spec
        queries = list(small_set_dataset[:30])
        assert clone.engine().sample_batch(queries) == nn.engine().sample_batch(queries)

    def test_engine_snapshot_with_sampler_spec(self, small_set_dataset, tmp_path):
        spec = SamplerSpec(
            "independent",
            {"radius": 0.2, "far_radius": 0.1, "recall": 0.95},
            lsh=LSHSpec("minhash"),
            seed=4,
        )
        engine = BatchQueryEngine.build(spec.build(), small_set_dataset)
        engine.spec = spec
        save_engine(engine, tmp_path / "snap")
        loaded = load_engine(tmp_path / "snap")
        assert loaded.spec == spec
        assert loaded.sampler_name == "independent"
        queries = list(small_set_dataset[:20])
        assert loaded.sample_batch(queries) == engine.sample_batch(queries)

    def test_facade_load_preserves_static_tables_flag(self, small_set_dataset, tmp_path):
        """Loading an engine snapshot that carries only a SamplerSpec must
        synthesize an EngineSpec whose dynamic flag matches the artifact."""
        spec = SamplerSpec(
            "permutation",
            {"radius": 0.2, "far_radius": 0.1, "recall": 0.95},
            lsh=LSHSpec("minhash"),
            seed=0,
        )
        engine = BatchQueryEngine.build(spec.build(), small_set_dataset, dynamic=False)
        engine.spec = spec
        save_engine(engine, tmp_path / "snap")
        clone = FairNN.load(tmp_path / "snap")
        assert clone.is_dynamic is False
        assert clone.spec.dynamic is False

    def test_pre_existing_v2_snapshot_still_loads(self, legacy_snapshot):
        """A v2 snapshot (no spec/sampler_name keys) loads with identical
        query responses; only the facade loader (which needs the spec)
        refuses it.  The artifact is a copy of a checked-in v3 snapshot
        with its manifest rewritten as v2."""
        path = legacy_snapshot("minhash-k2-v3")
        reference = load_engine(path)
        manifest_path = path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        # Rewrite the manifest exactly as save_engine@v2 produced it: the v3
        # keys did not exist then.
        manifest["format_version"] = 2
        for key in ("spec", "spec_kind", "sampler_name"):
            del manifest[key]
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))

        loaded = load_engine(path)
        assert loaded.spec is None
        assert loaded.sampler_name == "independent"  # derived from the class
        queries = [p for p in reference.sampler.dataset if p is not None][:30]
        assert loaded.sample_batch(queries) == reference.sample_batch(queries)
        with pytest.raises(InvalidParameterError, match="pre-v3"):
            FairNN.load(path)


# ----------------------------------------------------------------------
# 6. Experiment configs emit specs; shared validation helpers
# ----------------------------------------------------------------------
class TestExperimentConfigSpecs:
    def test_q1_sampler_specs_build_the_audited_classes(self):
        from repro.experiments.config import Q1Config

        config = Q1Config()
        specs = config.sampler_specs(num_hashes=3, num_tables=7)
        assert set(specs) == {"standard_lsh", "fair_lsh_collect", "fair_nnis"}
        for spec in specs.values():
            assert spec.lsh == config.lsh_spec()
            assert spec.params["num_hashes"] == 3 and spec.params["num_tables"] == 7
            assert spec.seed == config.seed
        assert type(specs["fair_nnis"].build()).__name__ == "IndependentFairSampler"
        assert specs["standard_lsh"].params["shuffle_tables"] is True

    def test_q2_sampler_spec_offsets_seed_per_trial(self):
        from repro.experiments.config import Q2Config

        config = Q2Config()
        first = config.sampler_spec(2, 5, trial=0)
        second = config.sampler_spec(2, 5, trial=3)
        assert first.seed == config.seed and second.seed == config.seed + 3
        assert type(first.build()).__name__ == "ApproximateNeighborhoodSampler"

    def test_q3_distance_spec(self):
        from repro.experiments.config import Q3Config

        assert type(Q3Config().distance_spec().build()).__name__ == "JaccardSimilarity"

    @pytest.mark.parametrize(
        "bad",
        [
            {"dataset": "imdb"},
            {"radius": 1.5},
            {"repetitions": 0},
            {"num_queries": 0},
            {"seed": "nope"},
        ],
        ids=lambda d: next(iter(d)),
    )
    def test_shared_validation_helpers_reject_bad_q1(self, bad):
        from repro.experiments.config import Q1Config

        config = Q1Config(**bad)
        with pytest.raises(InvalidParameterError):
            config.validate()


# ----------------------------------------------------------------------
# 7. Public API surface stays in sync with the checked-in file
# ----------------------------------------------------------------------
class TestApiSurface:
    def test_surface_file_is_current(self):
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "check_api_surface.py")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr

    def test_all_exports_resolve_and_hide_privates(self):
        for name in repro.__all__:
            assert not name.startswith("_") or name == "__version__"
            assert hasattr(repro, name), f"__all__ names missing symbol {name}"
