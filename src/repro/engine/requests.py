"""Request/response containers and serving statistics for the engine layer.

The serving engine speaks a tiny typed protocol: callers submit
:class:`QueryRequest` objects (or bare points, which the engine wraps) and
receive one :class:`QueryResponse` per request, in order.  The containers are
deliberately plain dataclasses — they hold indices into the engine's dataset
plus the work counters of :class:`~repro.core.result.QueryStats`, nothing that
would tie them to a transport.

:class:`EngineStats` aggregates per-engine counters across the engine's
lifetime (queries, candidates, primed-cache hits, index mutations and
amortized rebuilds) so operators can watch a server's behaviour without
instrumenting the samplers themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.result import QueryStats
from repro.exceptions import InvalidParameterError
from repro.types import Point


@dataclass
class QueryRequest:
    """One near-neighbor sampling request.

    Attributes
    ----------
    query:
        The query point (same representation as the indexed dataset).
    k:
        Number of neighbors to sample; ``k=1`` uses the sampler's single-draw
        path and also reports per-query work counters.
    replacement:
        Whether multi-draw sampling is with replacement (forwarded to
        :meth:`~repro.core.base.NeighborSampler.sample_k`).
    exclude_index:
        Optional dataset index removed from consideration (querying with a
        point that is itself indexed).
    """

    query: Point
    k: int = 1
    replacement: bool = True
    exclude_index: Optional[int] = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {self.k}")
        if self.k > 1 and self.exclude_index is not None:
            # sample_k has no exclusion surface; silently dropping the
            # exclusion would hand the query back to itself.
            raise InvalidParameterError("exclude_index is only supported for k=1 requests")


@dataclass
class QueryResponse:
    """The engine's answer to one :class:`QueryRequest`.

    Attributes
    ----------
    request_index:
        Position of the originating request in the submitted batch.
    indices:
        Sampled dataset indices (empty when no near neighbor was found;
        length 1 for ``k=1`` requests that found one).
    value:
        Measure value between the sampled point and the query for ``k=1``
        requests, when the sampler computed it.
    stats:
        Work counters for the query (``k=1`` requests only; multi-draw
        requests aggregate inside the sampler and report empty counters).
    sampler:
        Serving name of the sampler that answered (the engine's
        ``sampler_name`` — the registry key of the sampler class unless the
        engine was given an explicit name, e.g. by the
        :class:`~repro.api.FairNN` facade).  Lets multiplexed callers route
        answers without tracking which engine they asked.
    """

    request_index: int
    indices: List[int] = field(default_factory=list)
    value: Optional[float] = None
    stats: QueryStats = field(default_factory=QueryStats)
    sampler: Optional[str] = None

    @property
    def found(self) -> bool:
        """True when at least one near neighbor was returned."""
        return bool(self.indices)

    @property
    def index(self) -> Optional[int]:
        """The first sampled index, or ``None`` (the paper's ``⊥``)."""
        return self.indices[0] if self.indices else None

    def to_dict(self) -> Dict:
        """A JSON-serializable rendering of the response.

        This is the wire schema of the HTTP serving surface
        (:mod:`repro.server`): plain ints/floats only, with the work counters
        rendered through :meth:`QueryStats.to_dict
        <repro.core.result.QueryStats.to_dict>`.
        """
        return {
            "request_index": int(self.request_index),
            "indices": [int(i) for i in self.indices],
            "index": None if self.index is None else int(self.index),
            "value": None if self.value is None else float(self.value),
            "found": self.found,
            "sampler": self.sampler,
            "stats": self.stats.to_dict(),
        }


@dataclass
class EngineStats:
    """Lifetime serving counters of one engine instance.

    Attributes
    ----------
    queries_served:
        Total requests answered.
    batches_served:
        Number of :meth:`~repro.engine.batch.BatchQueryEngine.run` calls.
    candidates_scanned:
        Sum of ``candidates_examined`` over all detailed queries.
    distance_evaluations:
        Sum of exact measure (pair) evaluations over all detailed queries.
    distance_kernel_calls:
        Sum of batched distance-kernel invocations over all detailed
        queries.  With the vectorized candidate-evaluation pipeline this
        grows like the number of rejection rounds / probed buckets, not like
        ``candidates_scanned`` — the ratio is the counter the perf-guard CI
        job watches.
    key_cache_hits:
        Query-key lookups served from the batch's pre-hashed keys — the
        primed hash cache, or handed straight to the rank-prefix gather
        (each hit is an ``L``-table hashing pass that batching avoided).
    coalesced_queries:
        Duplicate requests answered from an identical request in the same
        batch (exact for query-deterministic samplers).
    inserts, deletes:
        Index mutations applied through the engine.
    rebuilds_triggered:
        Bucket compaction sweeps: one per batch sync that finds tombstones
        pending, plus any triggered by tombstone pressure between batches
        or forced by a sampler's full rebuild of derived state.
    prefix_scans, prefix_escalations:
        Queries answered from a bounded bottom-``B``-by-rank gather instead
        of the full colliding view, and the retries where the prefix proved
        too short and was widened.
    store_cache_hits, store_cache_misses, store_bytes_fetched:
        Mirrors of the active dataset store's block-cache lifetime counters
        (remote backend only; 0 for stores without a cache).  Refreshed —
        overwritten, not accumulated — every time the engine reports stats,
        so they always equal the store's own
        :meth:`~repro.store.base.DatasetStore.cache_stats` numbers.
    prefix_budget:
        Mirror of the engine's live self-tuned opening prefix budget (the
        total bottom-by-rank references a batch's first gather requests,
        before any per-query escalation).  Refreshed — overwritten, not
        accumulated — every time the engine reports stats.
    """

    queries_served: int = 0
    batches_served: int = 0
    candidates_scanned: int = 0
    distance_evaluations: int = 0
    distance_kernel_calls: int = 0
    key_cache_hits: int = 0
    coalesced_queries: int = 0
    inserts: int = 0
    deletes: int = 0
    rebuilds_triggered: int = 0
    prefix_scans: int = 0
    prefix_escalations: int = 0
    store_cache_hits: int = 0
    store_cache_misses: int = 0
    store_bytes_fetched: int = 0
    prefix_budget: int = 0

    def to_dict(self) -> Dict[str, int]:
        """The counters as a plain JSON-serializable dict.

        The canonical serialization shared by snapshot manifests, the HTTP
        ``/v1/stats`` endpoint (:mod:`repro.server`) and the
        ``benchmarks/results/*.json`` writers.
        """
        return {
            field_name: int(getattr(self, field_name))
            for field_name in self.__dataclass_fields__
        }

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "EngineStats":
        """Inverse of :meth:`to_dict` (ignores unknown keys)."""
        known = {f: int(data[f]) for f in cls.__dataclass_fields__ if f in data}
        return cls(**known)
