"""The :class:`DatasetStore` contract every storage backend implements.

A store is a columnar snapshot of a dataset, indexable by dataset slot: row
``i`` always corresponds to dataset slot ``i`` — including tombstoned slots,
whose payload is retained (or dropped) but never queried, so memo arrays and
bucket indices stay valid without renumbering.

Three interchangeable backends implement the contract (see
:mod:`repro.store`):

``inram``
    The original columnar stores (:class:`~repro.store.inram.DenseStore` /
    :class:`~repro.store.inram.SetStore`) — everything resident.
``memmap``
    Snapshot-backed lazy stores (:mod:`repro.store.memmap`) that map a v5
    snapshot's raw ``.npy`` payloads and let the OS page vectors in on
    demand; appended rows live in an in-RAM overlay.
``remote``
    Client-side stores (:mod:`repro.store.remote`) that fetch vector blocks
    in batches over the :class:`~repro.store.blocks.BlockClient` protocol
    through a bounded LRU block cache.

The engine layers above are oblivious to the backend: candidate evaluation
routes every batched read through :meth:`DatasetStore.gather`, the serving
capacity model reads :attr:`DatasetStore.nbytes` (backend-aware — out-of-core
stores charge their resident overlay/cache, not the corpus).
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Sequence

from repro.exceptions import InvalidParameterError

__all__ = ["DatasetStore"]


class DatasetStore(abc.ABC):
    """Columnar snapshot of a dataset, indexable by dataset slot.

    Row ``i`` of a store always corresponds to dataset slot ``i`` — including
    tombstoned slots, whose payload is retained (or zeroed) but never queried,
    so memo arrays and bucket indices stay valid without renumbering.
    """

    #: Layout tag the distance kernels dispatch on (``"dense"`` / ``"sets"``).
    kind: str = "abstract"

    #: Backend tag the serving/capacity layers report (``"inram"`` /
    #: ``"memmap"`` / ``"remote"``).
    backend: str = "inram"

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of stored slots (live and tombstoned)."""

    @abc.abstractmethod
    def get_point(self, index: int):
        """The point at slot *index* in a representation ``Measure.value`` accepts."""

    @abc.abstractmethod
    def append(self, points: Sequence) -> None:
        """Add new slots for *points* at the end of the store."""

    def gather(self, indices):
        """Batched columnar read of the rows at *indices*.

        The one entry point the vectorized candidate-evaluation pipeline
        (:class:`~repro.core.evaluator.CandidateEvaluator` via
        :meth:`Measure.values_at <repro.distances.base.Measure.values_at>`)
        uses, so every measure works unchanged on every backend:

        * ``kind == "dense"`` stores return a ``(len(indices), dim)``
          ``float64`` matrix;
        * ``kind == "sets"`` stores return ``(lengths, flat_items)`` — the
          rows' sizes plus their concatenated sorted items.

        Backends must return byte-identical values for the same slots — the
        contract the cross-backend equivalence suite pins.
        """
        raise InvalidParameterError(f"{type(self).__name__} has no batched gather")

    @property
    def nbytes(self) -> int:
        """Resident bytes of the store's buffers (capacity included).

        The number the serving layer's capacity accounting
        (:meth:`FairNN.capacity <repro.api.FairNN.capacity>` /
        ``GET /v1/capacity``) reports as index memory.  In-RAM stores count
        their allocated buffers — including capacity-doubling headroom and
        tombstoned slots — because that is what the process actually holds.
        Out-of-core backends charge only what is resident *and unevictable*:
        the memmap tier counts its in-RAM overlay and caches (mapped file
        pages are reclaimable), the remote tier counts its bounded block
        cache plus overlay.
        """
        return 0

    def release(self, index: int) -> None:
        """Mark slot *index* tombstoned.

        The slot keeps its position (dataset indices are stable); the payload
        may be dropped.  The base implementation is a no-op because queries
        never evaluate dead slots — subclasses override only when retaining
        the payload costs real memory.  Must be idempotent: the dynamic
        table layer and a store-backed point container may both release the
        same slot during one compaction sweep.
        """

    def cache_stats(self) -> Optional[Dict]:
        """Block-cache counters, for backends that have one (else ``None``).

        Remote stores return ``{"hits", "misses", "evictions",
        "bytes_fetched", "cached_blocks", "capacity_blocks"}`` — the counters
        :class:`~repro.engine.requests.EngineStats` mirrors and ``/v1/stats``
        surfaces.
        """
        return None

    def stats_dict(self) -> Dict:
        """JSON-serializable store identity + occupancy (the ``/v1/stats`` block)."""
        payload = {
            "backend": self.backend,
            "kind": self.kind,
            "rows": int(len(self)),
            "resident_bytes": int(self.nbytes),
        }
        cache = self.cache_stats()
        if cache is not None:
            payload["cache"] = cache
        return payload
