"""The in-RAM columnar backend: everything resident, zero read latency.

These are the original concrete stores the vectorized candidate-evaluation
pipeline was built on:

* **dense vector data** lives in a single C-contiguous ``float64`` matrix
  (:class:`DenseStore`), so a batch of candidate rows is one fancy-indexing
  gather away from a distance kernel;
* **set-valued data** is packed CSR-style (:class:`SetStore`): one flat
  ``int64`` item array plus an ``indptr`` offset array, items sorted within
  each row, so set intersections reduce to ``searchsorted`` membership tests
  and segment sums.

Both stores are built once — at ``fit``/``attach`` time, or lazily on the
first batched evaluation — and support dynamic growth (``append``) and
tombstoning (``release``) so :class:`~repro.engine.dynamic.DynamicLSHTables`
can keep one shared store in sync with its mutable point container instead of
forcing a rebuild per mutation batch.

Datasets that fit neither layout (ragged arrays, exotic objects) get no
store: :func:`make_store` returns ``None`` and the evaluation layer falls
back to the per-pair scalar loop, which remains the semantic reference.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.store.base import DatasetStore

__all__ = ["DenseStore", "SetStore", "make_store"]


class DenseStore(DatasetStore):
    """Dense vector data as one contiguous ``float64`` matrix.

    The matrix lives in a capacity-doubled buffer so a stream of appends is
    amortized O(1) per row; :attr:`matrix` is a view of the live prefix.
    Per-row l2 norms (used by the cosine/angular kernels) are computed with
    the same ``einsum`` recipe as the scalar measure and cached incrementally.
    """

    kind = "dense"

    def __init__(self, rows: np.ndarray):
        rows = np.ascontiguousarray(rows, dtype=np.float64)
        if rows.ndim != 2:
            raise InvalidParameterError(f"DenseStore requires 2-D data, got shape {rows.shape}")
        self._buf = rows
        self._n = rows.shape[0]
        self.dim = rows.shape[1]
        self._norms_buf: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self._n

    @property
    def matrix(self) -> np.ndarray:
        """The ``(n, dim)`` float64 matrix of all stored rows."""
        return self._buf[: self._n]

    @property
    def row_norms(self) -> np.ndarray:
        """Per-row l2 norms, ``sqrt(einsum('ij,ij->i', M, M))`` (cached).

        Maintained incrementally: after an append only the new rows' norms
        are computed (each row's norm is independent, so the block boundary
        cannot change the values).
        """
        if self._norms_buf is None:
            rows = self.matrix
            self._norms_buf = np.sqrt(np.einsum("ij,ij->i", rows, rows))
        elif self._norms_buf.shape[0] < self._n:
            fresh = self._buf[self._norms_buf.shape[0] : self._n]
            self._norms_buf = np.concatenate(
                [self._norms_buf, np.sqrt(np.einsum("ij,ij->i", fresh, fresh))]
            )
        return self._norms_buf[: self._n]

    @property
    def nbytes(self) -> int:
        total = self._buf.nbytes
        if self._norms_buf is not None:
            total += self._norms_buf.nbytes
        return int(total)

    def get_point(self, index: int) -> np.ndarray:
        return self._buf[index]

    def gather(self, indices: np.ndarray) -> np.ndarray:
        """The rows at *indices* as a dense ``(len(indices), dim)`` matrix."""
        return self._buf[indices]

    def append(self, points: Sequence) -> None:
        rows = _dense_rows(points, self.dim)
        if rows.size == 0:
            return
        needed = self._n + rows.shape[0]
        self._buf = _grown(self._buf, self._n, needed)
        self._buf[self._n : needed] = rows
        self._n = needed
        # Norms for the appended rows are filled lazily on next access.


class SetStore(DatasetStore):
    """Set-valued data packed CSR-style: flat sorted item rows + offsets.

    Like :class:`DenseStore`'s matrix, both arrays live in capacity-doubled
    buffers; :attr:`indptr` and :attr:`items` are views of the live
    prefixes.
    """

    kind = "sets"

    def __init__(self, points: Sequence):
        points = list(points)
        self._points: List = points
        self._indptr, self._items = _pack_sets(points)
        self._n = len(points)

    @classmethod
    def _from_csr(cls, points: List, indptr: np.ndarray, items: np.ndarray) -> "SetStore":
        """Adopt pre-packed CSR buffers (v5 snapshot load) without repacking."""
        store = cls.__new__(cls)
        store._points = points
        store._indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        store._items = np.ascontiguousarray(items, dtype=np.int64)
        store._n = len(points)
        return store

    def __len__(self) -> int:
        return self._n

    @property
    def indptr(self) -> np.ndarray:
        """Row offsets into :attr:`items` (``int64``, length ``n + 1``)."""
        return self._indptr[: self._n + 1]

    @property
    def items(self) -> np.ndarray:
        """All rows' items, concatenated, sorted within each row."""
        return self._items[: self._indptr[self._n]]

    @property
    def nbytes(self) -> int:
        return int(self._indptr.nbytes + self._items.nbytes)

    def get_point(self, index: int):
        return self._points[index]

    def gather(self, indices: np.ndarray):
        """``(lengths, flat_items)`` of the rows at *indices* (concatenated)."""
        starts = self._indptr[indices]
        ends = self._indptr[indices + 1]
        lengths = ends - starts
        total = int(lengths.sum())
        if total == 0:
            return lengths, np.empty(0, dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        positions = np.repeat(starts - offsets, lengths) + np.arange(total)
        return lengths, self._items[positions]

    def append(self, points: Sequence) -> None:
        points = list(points)
        if not points:
            return
        indptr, items = _pack_sets(points)
        rows = self._n + len(points)
        used = int(self._indptr[self._n])
        filled = used + items.size
        self._indptr = _grown(self._indptr, self._n + 1, rows + 1)
        self._items = _grown(self._items, used, filled)
        self._indptr[self._n + 1 : rows + 1] = used + indptr[1:]
        if items.size:
            self._items[used:filled] = items
        self._points.extend(points)
        self._n = rows

def _grown(buf: np.ndarray, used: int, needed: int) -> np.ndarray:
    """*buf*, or a copy of its first *used* rows with room for *needed*.

    Capacity doubles, so a stream of appends is amortized O(1) per row.
    """
    if needed <= buf.shape[0]:
        return buf
    capacity = max(8, 2 * buf.shape[0], needed)
    grown = np.empty((capacity,) + buf.shape[1:], dtype=buf.dtype)
    grown[:used] = buf[:used]
    return grown


def _dense_rows(points: Sequence, dim: Optional[int] = None) -> np.ndarray:
    """Coerce a sequence of vectors (``None`` = tombstoned slot) to float64 rows."""
    if isinstance(points, np.ndarray) and points.ndim == 2:
        rows = np.ascontiguousarray(points, dtype=np.float64)
    else:
        points = list(points)
        if dim is None:
            probe = next((p for p in points if p is not None), None)
            if probe is None:
                raise InvalidParameterError("cannot infer a row shape from all-dead slots")
            dim = len(np.asarray(probe).reshape(-1))
        rows = np.zeros((len(points), dim), dtype=np.float64)
        for position, point in enumerate(points):
            if point is None:
                continue  # released slot: keep a zero placeholder row
            rows[position] = np.asarray(point, dtype=np.float64).reshape(-1)
    if dim is not None and rows.shape[1] != dim:
        raise InvalidParameterError(
            f"appended rows have dimension {rows.shape[1]}, store holds {dim}"
        )
    return rows


def _pack_sets(points: Sequence) -> tuple:
    """CSR-pack set points (``None`` = tombstoned slot) into (indptr, items)."""
    lengths = np.asarray(
        [0 if p is None else len(p) for p in points], dtype=np.int64
    )
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    total = int(indptr[-1])
    for point in points:
        if point and not isinstance(next(iter(point)), (int, np.integer)):
            # Non-integer items (strings, floats) have no exact int64
            # packing — np.fromiter would raise for strings but silently
            # truncate floats.  Refuse; callers fall back to the scalar path.
            raise TypeError(f"set items must be integers to pack, got {point!r}")
    # Every row's items, sorted within the row, in one pass: sorting a small
    # set in Python costs less than a (row, item) lexsort of all the items.
    items = np.fromiter(
        itertools.chain.from_iterable(sorted(point) for point in points if point),
        dtype=np.int64,
        count=total,
    )
    return indptr, items


def make_store(dataset) -> Optional[DatasetStore]:
    """Build (or adopt) the columnar store matching *dataset*'s representation.

    Returns ``None`` when no columnar layout applies (the evaluation layer
    then falls back to the scalar per-pair loop).  ``None`` entries inside
    *dataset* are treated as tombstoned slots and stored as placeholders.
    A :class:`~repro.store.points.StoreBackedPoints` container — the point
    container of memmap/remote-backed engines — contributes its own backing
    store directly, whatever the backend, instead of being repacked in RAM.
    """
    from repro.store.points import StoreBackedPoints

    if isinstance(dataset, StoreBackedPoints):
        return dataset.store
    if isinstance(dataset, np.ndarray):
        if dataset.ndim == 2 and dataset.dtype.kind in "iufb":
            return DenseStore(dataset)
        return None
    try:
        n = len(dataset)
    except TypeError:
        return None
    if n == 0:
        return None
    probe = next((p for p in dataset if p is not None), None)
    if probe is None:
        return None
    if isinstance(probe, (set, frozenset)):
        if all(p is None or isinstance(p, (set, frozenset)) for p in dataset):
            try:
                return SetStore(dataset)
            except (ValueError, TypeError, OverflowError):
                # Non-integer items (e.g. sets of strings) have no CSR
                # packing; the scalar evaluation path handles them.
                return None
        return None
    if isinstance(probe, np.ndarray) and probe.ndim == 1 and probe.dtype.kind in "iufb":
        dim = probe.shape[0]
        if all(
            p is None
            or (isinstance(p, np.ndarray) and p.ndim == 1 and p.shape[0] == dim and p.dtype.kind in "iufb")
            for p in dataset
        ):
            return DenseStore(_dense_rows(dataset, dim))
        return None
    return None
