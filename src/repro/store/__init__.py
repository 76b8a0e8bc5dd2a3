"""Pluggable dataset storage backends (``repro.store``).

Every engine reads its dataset through the one
:class:`~repro.store.base.DatasetStore` contract; three interchangeable
backends implement it:

``inram``
    The original columnar stores (:class:`DenseStore` / :class:`SetStore`)
    — everything resident.  Built by :func:`make_store`.
``memmap``
    Out-of-core stores (:class:`MemmapDenseStore` / :class:`MemmapSetStore`)
    mapping a format-v5 snapshot's raw ``.npy`` payloads; the OS pages
    vectors in on demand and cold start touches only file headers.
``remote``
    Client-side stores (:class:`RemoteDenseStore` / :class:`RemoteSetStore`)
    fetching vector blocks in batches over the :class:`BlockClient`
    protocol through a bounded LRU :class:`BlockCache`.

Select a tier declaratively with :class:`StoreSpec` — via
``FairNN.serve(..., store=...)``, ``FairNN.load(..., store=...)``, or the
``store`` field of :class:`~repro.spec.EngineSpec`.
"""

from repro.store.base import DatasetStore
from repro.store.blocks import BlockClient, HTTPBlockClient, LocalBlockClient, block_count
from repro.store.inram import DenseStore, SetStore, make_store
from repro.store.memmap import MemmapDenseStore, MemmapSetStore, open_npy_mapped
from repro.store.points import StoreBackedPoints, points_share_store
from repro.store.remote import BlockCache, RemoteDenseStore, RemoteSetStore
from repro.store.spec import STORE_BACKENDS, StoreSpec

__all__ = [
    "BlockCache",
    "BlockClient",
    "DatasetStore",
    "DenseStore",
    "HTTPBlockClient",
    "LocalBlockClient",
    "MemmapDenseStore",
    "MemmapSetStore",
    "RemoteDenseStore",
    "RemoteSetStore",
    "STORE_BACKENDS",
    "SetStore",
    "StoreBackedPoints",
    "StoreSpec",
    "block_count",
    "make_store",
    "open_npy_mapped",
    "points_share_store",
]
