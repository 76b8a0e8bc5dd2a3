"""Online serving layer: dynamic indexes, batched queries, snapshots.

The :mod:`repro.core` samplers reproduce the paper's data structures as
static, single-query objects.  This package turns them into a serving
system:

* :class:`~repro.engine.dynamic.DynamicLSHTables` — LSH tables that absorb
  inserts and deletes online (rank-sorted bucket insertion, tombstone
  deletes, targeted compaction sweeps) while preserving the rank exchangeability
  the fair samplers' uniformity guarantees rest on, and that report every
  mutation batch as a structured
  :class:`~repro.engine.dynamic.MutationDelta` so attached samplers can
  maintain derived per-bucket state incrementally;
* :class:`~repro.engine.batch.BatchQueryEngine` — batched query execution
  that hashes a whole batch of queries in one vectorized pass and dispatches
  to any sampler, with per-engine serving statistics;
* :class:`~repro.engine.sharded.ShardedLSHTables` /
  :class:`~repro.engine.sharded.ShardedEngine` — the scale-out layer: the
  index partitioned across ``n_shards`` dynamic shards with recorded
  placement, batches executed across shards through a thread pool, and
  per-shard candidates merged into answers byte-identical to unsharded
  serving (the exchangeable ``2^62`` rank domain makes the merge exact);
* :mod:`~repro.engine.gather` — the bounded rank-prefix gather core both
  sharded executors share: per-shard bottom-``B``-by-rank slices
  (:func:`~repro.engine.gather.bounded_shard_prefix`), the
  provably-complete prefix merge
  (:func:`~repro.engine.gather.merge_prefix_parts`) and the self-tuning
  :class:`~repro.engine.gather.PrefixBudgetController`;
* :class:`~repro.engine.procpool.ProcessShardedEngine` — the sharded layer
  over worker **processes**: each shard's dynamic tables replicated in a
  supervised worker reading the dataset's columnar buffers zero-copy through
  ``multiprocessing.shared_memory``, mutations replicated over a
  length-prefixed message protocol, crashed workers restarted from their
  shard snapshot with the mutation log replayed (in-flight requests fail
  with a typed :class:`~repro.exceptions.WorkerCrashedError` instead of
  hanging) — responses still byte-identical to unsharded serving;
* :mod:`~repro.engine.requests` — the typed request/response surface;
* :mod:`~repro.engine.snapshot` — save/load of a fitted engine, so indexes
  can be built offline and shipped to servers;
* :mod:`~repro.engine.wal` — an append-only, checksummed write-ahead log of
  mutation batches: a durable facade journals every insert/delete *before*
  applying it, so a crashed server recovers byte-identically from its
  newest checkpoint plus the WAL suffix (see ``docs/operations.md``).

Quickstart
----------
>>> from repro import MinHashFamily, PermutationFairSampler
>>> from repro.engine import BatchQueryEngine
>>> sets = [frozenset({1, 2, 3}), frozenset({1, 2, 4}), frozenset({7, 8, 9})]
>>> sampler = PermutationFairSampler(MinHashFamily(), radius=0.4, seed=0)
>>> engine = BatchQueryEngine.build(sampler, sets, seed=0)
>>> new_index = engine.insert(frozenset({1, 2, 3, 4}))
>>> responses = engine.run([frozenset({1, 2, 3, 4})])
>>> responses[0].found
True
"""

from repro.engine.batch import BatchQueryEngine
from repro.engine.dynamic import RANK_DOMAIN, DynamicLSHTables, MutationDelta
from repro.engine.gather import PrefixBudgetController, PrefixView
from repro.engine.procpool import FaultPlan, ProcessShardedEngine, WorkerSupervisor
from repro.engine.requests import EngineStats, QueryRequest, QueryResponse
from repro.engine.sharded import PLACEMENTS, ShardedEngine, ShardedLSHTables
from repro.engine.snapshot import load_engine, save_engine
from repro.engine.wal import WALRecord, WALScanReport, WriteAheadLog

__all__ = [
    "BatchQueryEngine",
    "DynamicLSHTables",
    "MutationDelta",
    "RANK_DOMAIN",
    "PLACEMENTS",
    "PrefixBudgetController",
    "PrefixView",
    "FaultPlan",
    "ProcessShardedEngine",
    "WorkerSupervisor",
    "ShardedEngine",
    "ShardedLSHTables",
    "EngineStats",
    "QueryRequest",
    "QueryResponse",
    "save_engine",
    "load_engine",
    "WriteAheadLog",
    "WALRecord",
    "WALScanReport",
]
