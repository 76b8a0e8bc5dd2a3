"""The out-of-core memmap backend: map a v5 snapshot, page vectors on demand.

A format-v5 snapshot (see :mod:`repro.engine.snapshot`) writes its dataset
payload as raw uncompressed ``.npy`` files — ``arrays/dataset__dense.npy``
for vector data, ``arrays/dataset__indptr.npy`` + ``arrays/dataset__items.npy``
for set data.  The stores here open those files with ``mmap_mode="r"``
instead of reading them: construction touches only the ``.npy`` headers, a
server process reaches its first query in milliseconds, and the OS pages
vector rows in on first access (and back out under memory pressure — mapped
file pages are clean and reclaimable, which is why :attr:`nbytes` charges
only the in-RAM overlay and caches).

Mutations still work: appended rows are promoted to an in-RAM **overlay**
store (the mapped base file is immutable), gathers stitch base and overlay
rows transparently, and tombstoned slots are tracked by the
:class:`~repro.store.points.StoreBackedPoints` container exactly as for the
in-RAM backend.  Values are byte-identical to the in-RAM stores for the same
slots — ``float64`` rows and sorted ``int64`` CSR rows read back exactly as
written.
"""

from __future__ import annotations

import pathlib
from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.exceptions import SnapshotCorruptError
from repro.store.base import DatasetStore
from repro.store.inram import DenseStore, SetStore

__all__ = ["MemmapDenseStore", "MemmapSetStore", "open_npy_mapped"]


def open_npy_mapped(path: Union[str, pathlib.Path]) -> np.ndarray:
    """``np.load(path, mmap_mode="r")`` with typed corruption errors.

    A missing or truncated ``.npy`` raises
    :class:`~repro.exceptions.SnapshotCorruptError` carrying ``path`` — the
    same contract the snapshot loader gives damaged ``arrays.npz`` files in
    the zipped formats.
    """
    path = pathlib.Path(path)
    try:
        return np.load(path, mmap_mode="r", allow_pickle=False)
    except (OSError, ValueError, EOFError) as error:
        raise SnapshotCorruptError(
            f"cannot map snapshot array {path}: {type(error).__name__}: {error}",
            path=path,
        ) from error


class _LazyRowNorms:
    """``store.row_norms`` stand-in computing per-row l2 norms on demand.

    The in-RAM store precomputes all norms in one pass; doing that here would
    page the whole corpus in and defeat the lazy tier.  Each row's norm is
    independent (``sqrt(einsum('ij,ij->i', M, M))`` row by row), so computing
    only the requested rows yields bitwise-identical values.  Computed norms
    are cached in a NaN-sentinel buffer.
    """

    __slots__ = ("_store",)

    def __init__(self, store: "MemmapDenseStore"):
        self._store = store

    def __getitem__(self, indices) -> np.ndarray:
        return self._store._norms_at(indices)

    def __len__(self) -> int:
        return len(self._store)


class MemmapDenseStore(DatasetStore):
    """Dense vectors mapped read-only from a snapshot ``.npy`` + in-RAM overlay."""

    kind = "dense"
    backend = "memmap"

    def __init__(self, path: Union[str, pathlib.Path]):
        self._path = str(path)
        base = open_npy_mapped(path)
        if base.ndim != 2 or base.dtype != np.float64:
            raise SnapshotCorruptError(
                f"dense snapshot payload must be a 2-D float64 array, got "
                f"shape {base.shape} dtype {base.dtype}",
                path=self._path,
            )
        self._base = base
        self._base_n = int(base.shape[0])
        self.dim = int(base.shape[1])
        # Appended rows are promoted to this in-RAM overlay (the mapped base
        # is immutable); gathers stitch the two address ranges transparently.
        self._overlay = DenseStore(np.empty((0, self.dim), dtype=np.float64))
        self._norms_buf: Optional[np.ndarray] = None

    # -- DatasetStore ---------------------------------------------------
    def __len__(self) -> int:
        return self._base_n + len(self._overlay)

    @property
    def path(self) -> str:
        """The mapped base ``.npy`` file."""
        return self._path

    @property
    def matrix(self) -> np.ndarray:
        """All rows as one in-RAM matrix (materializes the corpus; used by
        the snapshot writer, not the hot path)."""
        if len(self._overlay) == 0:
            return np.asarray(self._base)
        return np.concatenate([np.asarray(self._base), self._overlay.matrix])

    @property
    def row_norms(self) -> _LazyRowNorms:
        return _LazyRowNorms(self)

    def _norms_at(self, indices) -> np.ndarray:
        indices = np.atleast_1d(np.asarray(indices, dtype=np.intp))
        n = len(self)
        if self._norms_buf is None:
            self._norms_buf = np.full(n, np.nan, dtype=np.float64)
        elif self._norms_buf.shape[0] < n:
            grown = np.full(n, np.nan, dtype=np.float64)
            grown[: self._norms_buf.shape[0]] = self._norms_buf
            self._norms_buf = grown
        missing = np.unique(indices[np.isnan(self._norms_buf[indices])])
        if missing.size:
            rows = self.gather(missing)
            self._norms_buf[missing] = np.sqrt(np.einsum("ij,ij->i", rows, rows))
        return self._norms_buf[indices]

    @property
    def nbytes(self) -> int:
        """Resident unevictable bytes: overlay + norm cache, **not** the
        mapped base file (its pages are clean and reclaimable)."""
        total = self._overlay.nbytes
        if self._norms_buf is not None:
            total += self._norms_buf.nbytes
        return int(total)

    def get_point(self, index: int) -> np.ndarray:
        if index < self._base_n:
            # A memmap row view: no page is touched until the values are read.
            return self._base[index]
        return self._overlay.get_point(index - self._base_n)

    def gather(self, indices) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.intp)
        if len(self._overlay) == 0:
            return np.asarray(self._base[indices], dtype=np.float64)
        out = np.empty((indices.size, self.dim), dtype=np.float64)
        base_mask = indices < self._base_n
        if base_mask.any():
            out[base_mask] = self._base[indices[base_mask]]
        if not base_mask.all():
            out[~base_mask] = self._overlay.gather(indices[~base_mask] - self._base_n)
        return out

    def append(self, points: Sequence) -> None:
        self._overlay.append(points)

    def stats_dict(self) -> Dict:
        payload = super().stats_dict()
        payload["path"] = self._path
        payload["overlay_rows"] = len(self._overlay)
        return payload


class MemmapSetStore(DatasetStore):
    """CSR set data with items mapped read-only from a snapshot + overlay.

    The small ``indptr`` offsets array (8 bytes per row) is read eagerly —
    gathers need random access to it anyway — while the flat ``items``
    payload stays mapped and pages in per gathered row.  Point objects
    (frozensets, for hashing and the scalar evaluation path) are
    reconstructed lazily from CSR slices and cached.
    """

    kind = "sets"
    backend = "memmap"

    def __init__(
        self,
        indptr_path: Union[str, pathlib.Path],
        items_path: Union[str, pathlib.Path],
    ):
        self._indptr_path = str(indptr_path)
        self._items_path = str(items_path)
        indptr = open_npy_mapped(indptr_path)
        items = open_npy_mapped(items_path)
        if indptr.ndim != 1 or indptr.dtype != np.int64 or indptr.shape[0] < 1:
            raise SnapshotCorruptError(
                f"set snapshot indptr must be a 1-D int64 array, got shape "
                f"{indptr.shape} dtype {indptr.dtype}",
                path=self._indptr_path,
            )
        if items.ndim != 1 or items.dtype != np.int64:
            raise SnapshotCorruptError(
                f"set snapshot items must be a 1-D int64 array, got shape "
                f"{items.shape} dtype {items.dtype}",
                path=self._items_path,
            )
        # Materialize the offsets (8 bytes/row); leave the payload mapped.
        self._indptr = np.array(indptr, dtype=np.int64)
        if int(self._indptr[-1]) > items.shape[0]:
            raise SnapshotCorruptError(
                f"set snapshot items file holds {items.shape[0]} items but "
                f"indptr addresses {int(self._indptr[-1])} — truncated payload",
                path=self._items_path,
            )
        self._base_items = items
        self._base_n = int(self._indptr.shape[0] - 1)
        self._overlay = SetStore([])
        self._point_cache: Dict[int, frozenset] = {}

    def __len__(self) -> int:
        return self._base_n + len(self._overlay)

    @property
    def indptr(self) -> np.ndarray:
        """Combined row offsets (materializes overlay offsets; base is in RAM)."""
        if len(self._overlay) == 0:
            return self._indptr
        shifted = self._overlay.indptr[1:] + self._indptr[-1]
        return np.concatenate([self._indptr, shifted])

    @property
    def items(self) -> np.ndarray:
        """All items, concatenated (materializes the mapped payload)."""
        base = np.asarray(self._base_items[: int(self._indptr[-1])])
        if len(self._overlay) == 0:
            return base
        return np.concatenate([base, self._overlay.items])

    @property
    def nbytes(self) -> int:
        """Resident unevictable bytes: offsets, overlay and point cache."""
        total = self._indptr.nbytes + self._overlay.nbytes
        # Cached frozensets hold ~64 bytes + 28/item; count the items.
        total += sum(64 + 28 * len(s) for s in self._point_cache.values())
        return int(total)

    def get_point(self, index: int):
        index = int(index)
        if index >= self._base_n:
            return self._overlay.get_point(index - self._base_n)
        cached = self._point_cache.get(index)
        if cached is None:
            start = int(self._indptr[index])
            end = int(self._indptr[index + 1])
            cached = frozenset(int(item) for item in self._base_items[start:end])
            self._point_cache[index] = cached
        return cached

    def gather(self, indices):
        indices = np.asarray(indices, dtype=np.intp)
        if len(self._overlay) == 0 or (
            indices.size and int(indices.max()) < self._base_n
        ):
            return self._gather_base(indices)
        # Mixed base/overlay rows (post-churn): assemble per row.  Gathers
        # are bucket-sized, so the Python loop is not the serving bottleneck.
        lengths = np.empty(indices.size, dtype=np.int64)
        pieces = []
        for position, index in enumerate(indices):
            index = int(index)
            if index < self._base_n:
                start, end = int(self._indptr[index]), int(self._indptr[index + 1])
                row = np.asarray(self._base_items[start:end])
            else:
                _, row = self._overlay.gather(
                    np.asarray([index - self._base_n], dtype=np.intp)
                )
            lengths[position] = row.shape[0]
            pieces.append(row)
        flat = (
            np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
        )
        return lengths, flat.astype(np.int64, copy=False)

    def _gather_base(self, indices: np.ndarray):
        starts = self._indptr[indices]
        ends = self._indptr[indices + 1]
        lengths = ends - starts
        total = int(lengths.sum())
        if total == 0:
            return lengths, np.empty(0, dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        positions = np.repeat(starts - offsets, lengths) + np.arange(total)
        return lengths, np.asarray(self._base_items[positions], dtype=np.int64)

    def append(self, points: Sequence) -> None:
        self._overlay.append(points)

    def stats_dict(self) -> Dict:
        payload = super().stats_dict()
        payload["path"] = self._items_path
        payload["overlay_rows"] = len(self._overlay)
        return payload
