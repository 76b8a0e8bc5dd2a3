"""repro — Fair Near Neighbor Search: Independent Range Sampling in High Dimensions.

A from-scratch reproduction of Aumüller, Pagh and Silvestri (PODS 2020).  The
package provides fair (uniform, independent) r-near-neighbor sampling data
structures on top of a complete LSH substrate, plus the baselines, datasets,
fairness audit tooling and experiment harness needed to regenerate every
figure of the paper's evaluation section.

Quickstart
----------
>>> from repro import PermutationFairSampler, MinHashFamily
>>> sets = [frozenset({1, 2, 3}), frozenset({1, 2, 4}), frozenset({7, 8, 9})]
>>> sampler = PermutationFairSampler(MinHashFamily(), radius=0.4, seed=0).fit(sets)
>>> sampler.sample(frozenset({1, 2, 3, 4})) in (0, 1)
True

Or declaratively, through the spec + registry + facade layer (the same
construction, as config values — see ``docs/api.md``):

>>> from repro import FairNN, LSHSpec, SamplerSpec
>>> spec = SamplerSpec("permutation", {"radius": 0.4}, lsh=LSHSpec("minhash"), seed=0)
>>> nn = FairNN.from_spec(spec).fit(sets)
>>> nn.sample(frozenset({1, 2, 3, 4})) in (0, 1)
True
"""

from repro.core import (
    ApproximateNeighborhoodSampler,
    CollectAllFairSampler,
    ExactUniformSampler,
    FilterFairSampler,
    GaussianFilterIndex,
    IndependentFairSampler,
    LSHNeighborSampler,
    NeighborSampler,
    PermutationFairSampler,
    QueryResult,
    QueryStats,
    RankPerturbationSampler,
    StandardLSHSampler,
    sample_with_replacement,
    sample_without_replacement,
)
from repro.distances import (
    AngularDistance,
    CosineSimilarity,
    EuclideanDistance,
    HammingDistance,
    InnerProductSimilarity,
    JaccardSimilarity,
    ball_indices,
    ball_size,
)
from repro.lsh import (
    BitSamplingFamily,
    ConcatenatedFamily,
    HyperplaneFamily,
    LSHFamily,
    LSHParameters,
    LSHTables,
    MinHashFamily,
    OneBitMinHashFamily,
    PStableFamily,
    compute_rho,
    select_parameters,
)
from repro.engine import (
    BatchQueryEngine,
    DynamicLSHTables,
    EngineStats,
    QueryRequest,
    QueryResponse,
    WALRecord,
    WriteAheadLog,
    load_engine,
    save_engine,
)
from repro.fairness import FairnessAuditor, total_variation_from_uniform
from repro.exceptions import (
    AlreadyDeletedError,
    BlockFetchError,
    CapacityExceededError,
    EmptyDatasetError,
    InvalidParameterError,
    NotFittedError,
    QuotaExceededError,
    ReproError,
    ServerTimeoutError,
    SlotOutOfRangeError,
    SnapshotCorruptError,
    WALCorruptError,
    WALError,
    WALWriteError,
)
from repro.testing import FaultInjector
from repro.registry import (
    DISTANCES,
    LSH_FAMILIES,
    SAMPLERS,
    distance_names,
    get_distance,
    get_lsh_family,
    get_sampler,
    lsh_family_names,
    register_distance,
    register_lsh_family,
    register_sampler,
    sampler_names,
)
from repro.spec import DistanceSpec, EngineSpec, LSHSpec, SamplerSpec, spec_from_dict
from repro.store import (
    DatasetStore,
    DenseStore,
    HTTPBlockClient,
    LocalBlockClient,
    MemmapDenseStore,
    MemmapSetStore,
    RemoteDenseStore,
    RemoteSetStore,
    SetStore,
    StoreSpec,
    make_store,
)
from repro.api import FairNN
from repro.server import (
    BlockServer,
    CapacityModel,
    FairNNClient,
    FairNNServer,
    ServingHandle,
    SnapshotSwapper,
    SwapInProgressError,
    SwapReport,
    SwapVerificationError,
    TokenBucket,
)

__version__ = "1.5.0"

__all__ = [
    "__version__",
    # core samplers
    "NeighborSampler",
    "LSHNeighborSampler",
    "ExactUniformSampler",
    "StandardLSHSampler",
    "CollectAllFairSampler",
    "ApproximateNeighborhoodSampler",
    "PermutationFairSampler",
    "RankPerturbationSampler",
    "IndependentFairSampler",
    "GaussianFilterIndex",
    "FilterFairSampler",
    "QueryResult",
    "QueryStats",
    "sample_with_replacement",
    "sample_without_replacement",
    # distances
    "EuclideanDistance",
    "HammingDistance",
    "JaccardSimilarity",
    "InnerProductSimilarity",
    "AngularDistance",
    "CosineSimilarity",
    "ball_indices",
    "ball_size",
    # lsh
    "LSHFamily",
    "ConcatenatedFamily",
    "MinHashFamily",
    "OneBitMinHashFamily",
    "HyperplaneFamily",
    "PStableFamily",
    "BitSamplingFamily",
    "LSHParameters",
    "LSHTables",
    "compute_rho",
    "select_parameters",
    # engine
    "BatchQueryEngine",
    "DynamicLSHTables",
    "EngineStats",
    "QueryRequest",
    "QueryResponse",
    "save_engine",
    "load_engine",
    # durability (repro.engine.wal)
    "WriteAheadLog",
    "WALRecord",
    # chaos testing (repro.testing)
    "FaultInjector",
    # fairness
    "FairnessAuditor",
    "total_variation_from_uniform",
    # exceptions
    "ReproError",
    "NotFittedError",
    "EmptyDatasetError",
    "InvalidParameterError",
    "SlotOutOfRangeError",
    "AlreadyDeletedError",
    "CapacityExceededError",
    "QuotaExceededError",
    "WALError",
    "WALCorruptError",
    "WALWriteError",
    "SnapshotCorruptError",
    "BlockFetchError",
    "ServerTimeoutError",
    # registries (repro.registry)
    "SAMPLERS",
    "DISTANCES",
    "LSH_FAMILIES",
    "register_sampler",
    "register_distance",
    "register_lsh_family",
    "get_sampler",
    "get_distance",
    "get_lsh_family",
    "sampler_names",
    "distance_names",
    "lsh_family_names",
    # declarative specs (repro.spec)
    "DistanceSpec",
    "LSHSpec",
    "SamplerSpec",
    "EngineSpec",
    "spec_from_dict",
    # storage backends (repro.store)
    "StoreSpec",
    "DatasetStore",
    "DenseStore",
    "SetStore",
    "MemmapDenseStore",
    "MemmapSetStore",
    "RemoteDenseStore",
    "RemoteSetStore",
    "LocalBlockClient",
    "HTTPBlockClient",
    "make_store",
    # facade (repro.api)
    "FairNN",
    # serving (repro.server)
    "BlockServer",
    "FairNNServer",
    "FairNNClient",
    "CapacityModel",
    "TokenBucket",
    "ServingHandle",
    "SnapshotSwapper",
    "SwapReport",
    "SwapInProgressError",
    "SwapVerificationError",
]
