"""Online serving layer: dynamic indexes, batched queries, snapshots.

The :mod:`repro.core` samplers reproduce the paper's data structures as
static, single-query objects.  This package turns them into a serving
system:

* :class:`~repro.engine.dynamic.DynamicLSHTables` — LSH tables that absorb
  inserts and deletes online (rank-sorted bucket insertion, tombstone
  deletes, targeted compaction sweeps) while preserving the rank exchangeability
  the fair samplers' uniformity guarantees rest on, and that count every
  mutation in a :class:`~repro.engine.dynamic.MutationDelta` the attached
  sampler drains at its next sync;
* :class:`~repro.engine.batch.BatchQueryEngine` — batched query execution
  that hashes a whole batch of queries in one vectorized pass and dispatches
  to any sampler, with per-engine serving statistics; queries the
  rank-prefix gather does not answer are answered in parallel chunks on a
  shared thread pool when the sampler has no query-time randomness;
* :mod:`~repro.engine.gather` — the bounded rank-prefix gather behind
  every prefix-capable query: a table set's bottom-``B``-by-rank slice
  (:func:`~repro.engine.gather.bounded_prefix`) and the self-tuning
  :class:`~repro.engine.gather.PrefixBudgetController`;
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
from repro.engine.requests import EngineStats, QueryRequest, QueryResponse
from repro.engine.snapshot import load_engine, save_engine
from repro.engine.wal import WALRecord, WALScanReport, WriteAheadLog

__all__ = [
    "BatchQueryEngine",
    "DynamicLSHTables",
    "MutationDelta",
    "RANK_DOMAIN",
    "PrefixBudgetController",
    "PrefixView",
    "EngineStats",
    "QueryRequest",
    "QueryResponse",
    "save_engine",
    "load_engine",
    "WriteAheadLog",
    "WALRecord",
    "WALScanReport",
]
