"""Result containers returned by the samplers' detailed query methods."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class QueryStats:
    """Work counters for a single query.

    These are the quantities the paper's running-time theorems are stated in
    terms of, so benchmarks and tests can check the *shape* of the cost
    (e.g. that the Section 3 structure examines
    ``O(L + b(q, cr) / (b(q, r) + 1))`` points) without relying on wall-clock
    noise.

    Attributes
    ----------
    candidates_examined:
        Number of point references read from buckets (with multiplicity).
    distance_evaluations:
        Number of exact measure (pair) evaluations performed.  Vectorized
        samplers may evaluate a whole bucket or chunk at once and stop at the
        first hit, so this can exceed ``candidates_examined``; each pair is
        still evaluated at most once per query (memoized).
    buckets_probed:
        Number of hash buckets (or filter buckets) inspected.
    rounds:
        Number of rejection-sampling rounds (Sections 4 and 5.2).
    kernel_calls:
        Number of batched distance-kernel invocations dispatched for the
        query.  The vectorized candidate-evaluation pipeline scores a whole
        candidate array per call, so this stays at most one per probed
        bucket, scan chunk or Section 4 ``k`` level of rejection rounds
        rather than one per candidate — the counter the perf-guard CI job
        asserts on.
    """

    candidates_examined: int = 0
    distance_evaluations: int = 0
    buckets_probed: int = 0
    rounds: int = 0
    kernel_calls: int = 0

    def to_dict(self) -> Dict[str, int]:
        """The counters as a plain JSON-serializable dict.

        The one serialization recipe shared by the HTTP ``/v1/stats`` and
        query endpoints (:mod:`repro.server`) and the
        ``benchmarks/results/*.json`` writers, so counter names never drift
        between the wire format and the checked-in benchmark artifacts.
        """
        return {name: int(getattr(self, name)) for name in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "QueryStats":
        """Inverse of :meth:`to_dict` (ignores unknown keys)."""
        known = {f: int(data[f]) for f in cls.__dataclass_fields__ if f in data}
        return cls(**known)


@dataclass
class QueryResult:
    """Outcome of a single sampling query.

    Attributes
    ----------
    index:
        Index of the returned dataset point, or ``None`` when the sampler
        found no near neighbor (the paper's ``⊥``).
    value:
        The measure value (distance or similarity) between the returned point
        and the query, when it was computed.
    stats:
        Work counters for the query.
    """

    index: Optional[int]
    value: Optional[float] = None
    stats: QueryStats = field(default_factory=QueryStats)

    @property
    def found(self) -> bool:
        """True when a near neighbor was returned."""
        return self.index is not None
