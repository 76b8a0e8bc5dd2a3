"""LSH hash tables with rank-aware buckets.

This is the storage layer shared by all LSH-based samplers:

* the standard LSH query needs the multiset of points colliding with the
  query in each of the ``L`` tables;
* the Section 3 sampler additionally needs the points of each bucket sorted
  by their random *rank* so that the lowest-ranked near point can be found by
  an in-order scan;
* the Section 4 sampler needs *rank-range* queries inside each colliding
  bucket ("all points of this bucket with rank in ``[lo, hi)``") and a
  count-distinct estimate of the colliding points (the paper merges one
  sketch per bucket; :mod:`repro.core.fair_nnis` sketches the gathered
  view instead, which gives the same value).

Buckets are stored as numpy index arrays.  When ranks are supplied the arrays
are sorted by rank so both the ordered scan and the range query (via
``numpy.searchsorted`` on the parallel rank array) are cheap.  The paper
suggests a balanced binary search tree per bucket; for a static index the
sorted-array representation has identical asymptotics with far smaller
constants (see the ablation benchmark).

A fit takes the batch hasher's integer code matrix (see
:class:`~repro.lsh.family.BatchHasher`) and sorts each table's block into
CSR form: sorted key rows, bucket offsets and one members array that every
bucket of the table is a view of.  :func:`buckets_from_csr` turns that form
into the ``{key: Bucket}`` dict, and snapshots write and read tables through
the same form (:func:`buckets_to_csr` and back).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence

import numpy as np

from repro.exceptions import EmptyDatasetError, InvalidParameterError
from repro.lsh.family import HashFunction, LSHFamily, key_tuples
from repro.rng import SeedLike, ensure_rng
from repro.types import Dataset, Point


def point_digest(point: Point) -> Optional[Hashable]:
    """A hashable digest of *point*, or ``None`` when it has no cheap one.

    Used wherever per-query results are memoised (the Section 4 sampler's
    sketch-estimate cache, the serving engine's primed-key cache).  Digests of
    distinct points may in principle collide only for numpy arrays that share
    dtype, shape and raw bytes, i.e. equal arrays — which is exactly the
    equality the caches want.
    """
    if isinstance(point, (frozenset, tuple, str, bytes, int)):
        return point
    if isinstance(point, set):
        return frozenset(point)
    if isinstance(point, np.ndarray):
        return (point.dtype.str, point.shape, point.tobytes())
    return None


class Bucket:
    """A single hash bucket: indices of the points hashing to one key.

    When ranks are available, ``indices`` is sorted by increasing rank and
    ``ranks`` holds the corresponding rank values (so ``ranks`` is sorted
    ascending).  Without ranks, ``indices`` keeps insertion (dataset) order
    and ``ranks`` is ``None``.

    The members live in one array — the indices, or a ``2 x m`` array of
    indices over ranks — and ``indices`` / ``ranks`` are views of it.  Most
    buckets hold one or two points, so an index's memory goes mostly to
    per-array overhead, and one array per bucket instead of two saves much
    of it.
    """

    __slots__ = ("_members",)

    def __init__(self, indices: np.ndarray, ranks: Optional[np.ndarray] = None):
        self._members = indices if ranks is None else np.array((indices, ranks))

    @classmethod
    def from_array(cls, members: np.ndarray) -> "Bucket":
        """Wrap a members array (indices, or ``2 x m`` indices over ranks) as is."""
        bucket = cls.__new__(cls)
        bucket._members = members
        return bucket

    @property
    def indices(self) -> np.ndarray:
        """Member slot indices (rank order when the bucket has ranks)."""
        members = self._members
        return members[0] if members.ndim == 2 else members

    @property
    def ranks(self) -> Optional[np.ndarray]:
        """Member ranks, ascending, or ``None`` for a rankless bucket."""
        members = self._members
        return members[1] if members.ndim == 2 else None

    def __len__(self) -> int:
        return int(self._members.shape[-1])

    def rank_range(self, lo: int, hi: int) -> np.ndarray:
        """Indices of bucket members with rank in ``[lo, hi)``.

        Requires the bucket to have been built with ranks.
        """
        ranks = self.ranks
        if ranks is None:
            raise InvalidParameterError("bucket was built without ranks; rank_range unavailable")
        left = int(np.searchsorted(ranks, lo, side="left"))
        right = int(np.searchsorted(ranks, hi, side="left"))
        return self.indices[left:right]

    @classmethod
    def from_members(cls, indices: np.ndarray, ranks: Optional[np.ndarray]) -> "Bucket":
        """Build a bucket from unsorted members, rank-sorting when ranks exist."""
        indices = np.asarray(indices, dtype=np.intp)
        if ranks is None:
            return cls(indices)
        ranks = np.asarray(ranks)
        order = np.argsort(ranks, kind="stable")
        return cls(indices[order], ranks[order])

    def inserted(self, index: int, rank: Optional[int]) -> "Bucket":
        """A new bucket with one member added, preserving rank order.

        With ranks, the member is spliced into its sorted position; without,
        it is appended (insertion order).  This is the single-point update
        primitive shared by the dynamic table layer.
        """
        ranks = self.ranks
        if ranks is None:
            if rank is not None:
                raise InvalidParameterError("cannot insert a ranked member into a rankless bucket")
            return Bucket(np.append(self._members, np.intp(index)))
        if rank is None:
            raise InvalidParameterError("bucket has ranks; a rank is required to insert")
        # One copy: fill a fresh 2 x (m + 1) array around the splice position
        # (np.insert pays several times this in argument handling).
        members = self._members
        position = int(np.searchsorted(ranks, rank, side="left"))
        spliced = np.empty((2, members.shape[1] + 1), dtype=members.dtype)
        spliced[:, :position] = members[:, :position]
        spliced[0, position] = index
        spliced[1, position] = rank
        spliced[:, position + 1 :] = members[:, position:]
        return Bucket.from_array(spliced)

    def filtered(self, keep: np.ndarray) -> "Bucket":
        """A new bucket keeping only the members where *keep* is True."""
        return Bucket.from_array(np.compress(keep, self._members, axis=-1))


def buckets_from_csr(keys, offsets: np.ndarray, members: np.ndarray) -> Dict[Hashable, Bucket]:
    """One table's ``{key: Bucket}`` from its CSR form.

    Bucket ``i`` holds ``members[..., offsets[i]:offsets[i + 1]]`` (a view
    of the one *members* array: indices, or ``2 x m`` indices over ranks)
    under ``keys[i]``.  *keys* is a sequence of bucket keys, or an integer
    code array whose rows become the keys: ints for a 1-D array, tuples of
    ints for a 2-D one.  Dict order is the order of *keys*.
    """
    if isinstance(keys, np.ndarray):
        keys = keys.tolist() if keys.ndim == 1 else key_tuples(keys.ravel().tolist(), keys.shape[1])
    bounds = np.asarray(offsets).tolist()
    from_array = Bucket.from_array
    if members.ndim == 1:
        buckets = [from_array(members[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    else:
        buckets = [from_array(members[:, lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    return dict(zip(keys, buckets))


def _integer_codes(keys: Sequence[Hashable]):
    """*keys* as an integer code block when they are ints or fixed-width
    tuples of ints (``(points,)`` or ``(points, K)``), else *keys* as given.

    Families without a batch hasher hash function by function into key
    lists; integer ones take the same sorted CSR build as a code matrix, and
    anything else (mixed widths, strings, nested tuples) the dict grouping.
    """
    if len(keys) == 0:
        return keys
    try:
        codes = np.asarray(keys)
    except (ValueError, OverflowError):
        return keys
    if codes.dtype.kind not in "iu" or codes.ndim not in (1, 2):
        return keys
    return codes


def buckets_to_csr(table: Dict[Hashable, Bucket], ranked: bool):
    """The inverse of :func:`buckets_from_csr`: ``(keys, offsets, members)``.

    The members of every bucket, in dict order, in one array (``2 x m``
    indices over ranks when *ranked*), with int64 bucket offsets.
    """
    keys = list(table)
    arrays = [bucket._members for bucket in table.values()]
    offsets = np.zeros(len(arrays) + 1, dtype=np.int64)
    np.cumsum([array.shape[-1] for array in arrays], out=offsets[1:])
    if arrays:
        members = np.concatenate(arrays, axis=-1)
    else:
        members = np.empty((2, 0), dtype=np.int64) if ranked else np.empty(0, dtype=np.intp)
    return keys, offsets, members


class LSHTables:
    """``L`` independent LSH hash tables over a dataset.

    Parameters
    ----------
    family:
        The (possibly concatenated) LSH family used for each table.
    l:
        Number of independent tables.
    seed:
        Seed controlling the choice of the ``l`` hash functions.
    """

    def __init__(self, family: LSHFamily, l: int, seed: SeedLike = None, *, _functions=None):
        if l < 1:
            raise InvalidParameterError(f"number of tables must be >= 1, got {l}")
        self.family = family
        self.l = int(l)
        self._rng = ensure_rng(seed)
        # _functions is the snapshot-restore path: it injects previously drawn
        # hash functions instead of sampling (and discarding) fresh ones.
        if _functions is not None:
            self._functions: List[HashFunction] = list(_functions)
        else:
            self._functions = [self.family.sample(self._rng) for _ in range(self.l)]
        # Families that support it provide a vectorized evaluator over all L
        # functions at once; pure-Python hashing loops are the bottleneck
        # otherwise (hundreds of tables times thousands of points).
        self._batch_hasher = self.family.make_batch_hasher(self._functions)
        self._tables: List[Dict[Hashable, Bucket]] = []
        self._n = 0
        self._ranks: Optional[np.ndarray] = None
        self._fitted = False
        #: Monotone counter of mutation events (static tables never move it).
        #: Samplers remember the epoch they last synchronized at, so a
        #: consumer that receives an empty delta can tell "nothing changed"
        #: apart from "another consumer drained the record first".
        self.mutation_epoch = 0
        # Primed query-key cache (see prime_key_cache): digest -> per-table keys.
        self._key_cache: Dict[Hashable, List[Hashable]] = {}
        self.key_cache_hits = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def fit(self, dataset: Dataset, ranks: Optional[np.ndarray] = None) -> "LSHTables":
        """Hash every dataset point into each of the ``L`` tables.

        Parameters
        ----------
        dataset:
            The point set ``S``.
        ranks:
            Optional array where ``ranks[i]`` is the rank of point ``i``
            under the random permutation (Sections 3 and 4).  When given,
            buckets are sorted by rank.
        """
        n = len(dataset)
        if n == 0:
            raise EmptyDatasetError("cannot build LSH tables over an empty dataset")
        if ranks is not None:
            ranks = np.asarray(ranks)
            if ranks.shape != (n,):
                raise InvalidParameterError(
                    f"ranks must have shape ({n},), got {ranks.shape}"
                )
        self._n = n
        self._ranks = ranks
        if self._batch_hasher is not None:
            blocks = self._batch_hasher.table_codes(dataset)
        else:
            blocks = [
                _integer_codes(function.hash_dataset(dataset)) for function in self._functions
            ]
        rank_order = None if ranks is None else np.argsort(ranks, kind="stable")
        self._tables = [self._build_table(block, ranks, rank_order) for block in blocks]
        self._fitted = True
        return self

    @staticmethod
    def _build_table(
        keys, ranks: Optional[np.ndarray], rank_order: Optional[np.ndarray]
    ) -> Dict[Hashable, Bucket]:
        """Group per-point bucket keys into one table of rank-sorted buckets.

        *keys* is normally one table's block of the batch hasher's integer
        code matrix (:meth:`~repro.lsh.family.BatchHasher.table_codes`):
        ``(points,)`` for int keys, ``(points, K)`` for K-tuple keys.  One
        stable sort over it gives the CSR form — sorted key rows, bucket
        offsets and rank-sorted members — which :func:`buckets_from_csr`
        turns into the dict, in sorted key order; *rank_order*, the stable
        argsort of *ranks*, is computed once per fit and shared by its
        tables.  Families without a batch hasher pass integer key lists as
        the same kind of block (:func:`_integer_codes`); other key lists
        (any hashable keys) are grouped with a dict, in first-seen order.
        """
        if not isinstance(keys, np.ndarray):
            groups: Dict[Hashable, List[int]] = {}
            for index, key in enumerate(keys):
                groups.setdefault(key, []).append(index)
            table: Dict[Hashable, Bucket] = {}
            for key, members in groups.items():
                indices = np.asarray(members, dtype=np.intp)
                table[key] = Bucket.from_members(indices, None if ranks is None else ranks[indices])
            return table

        # A stable sort by key row (column 0 first) of the points in rank
        # order: each bucket's members end up in rank order, dataset order
        # among equal ranks.  All buckets are views of one members array.
        if ranks is not None:
            keys = keys[rank_order]
        order = np.lexsort([keys] if keys.ndim == 1 else keys.T[::-1])
        sorted_keys = keys[order]
        if ranks is not None:
            order = rank_order[order]
        new_group = sorted_keys[1:] != sorted_keys[:-1]
        if keys.ndim == 2:
            new_group = new_group.any(axis=1)
        offsets = np.concatenate(([0], np.flatnonzero(new_group) + 1, [keys.shape[0]]))
        members = order.astype(np.intp)
        if ranks is not None:
            members = np.array((members, ranks[members]))
        return buckets_from_csr(sorted_keys[offsets[:-1]], offsets, members)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_points(self) -> int:
        """Number of indexed points."""
        return self._n

    @property
    def num_tables(self) -> int:
        """Number of hash tables ``L``."""
        return self.l

    @property
    def num_live(self) -> int:
        """Number of live indexed points (static tables: every point).

        Mutable subclasses override this to exclude tombstoned slots, so
        samplers can size budgets and parameter records off the data actually
        being served rather than every slot ever allocated.
        """
        return self._n

    def ensure_clean_buckets(self) -> None:
        """Guarantee buckets reference live points only (static: always true).

        Samplers call this before rebuilding derived state, so the contract
        lives in the table API; mutable subclasses override it to sweep
        pending tombstones.
        """

    def drain_delta(self):
        """Return and reset the mutations recorded since the last drain.

        Static tables never mutate and have nothing to report: they return
        ``None``, which tells :meth:`~repro.core.base.LSHNeighborSampler.notify_update`
        consumers that no delta is available and a full rebuild of derived
        state is the only safe course.
        :class:`~repro.engine.dynamic.DynamicLSHTables` overrides this to
        return a :class:`~repro.engine.dynamic.MutationDelta` (possibly
        empty).
        """
        return None

    @property
    def ranks(self) -> Optional[np.ndarray]:
        """The rank array used at construction time, if any."""
        return self._ranks

    @property
    def rank_domain(self) -> int:
        """Exclusive upper bound of the stored rank values.

        Static tables use a permutation of ``0 .. n-1``; mutable tables draw
        ranks from a much larger fixed domain so that inserts stay
        exchangeable with existing points (see
        :class:`~repro.engine.dynamic.DynamicLSHTables`).  Rank-segment
        queries (Section 4) must partition this domain, not ``n``.
        """
        return self._n

    def bucket_sizes(self) -> List[Dict[Hashable, int]]:
        """Size of every bucket per table (useful for diagnostics/tests)."""
        self._check_fitted()
        return [{key: len(bucket) for key, bucket in table.items()} for table in self._tables]

    def total_stored_references(self) -> int:
        """Total number of point references stored across all tables."""
        self._check_fitted()
        return sum(len(bucket) for table in self._tables for bucket in table.values())

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query_keys(self, query: Point) -> List[Hashable]:
        """The bucket key of *query* in each table.

        Keys primed via :meth:`prime_key_cache` are served from the cache, so
        batched execution pays for hashing once per query even though the
        samplers call this method internally.
        """
        if self._key_cache:
            digest = point_digest(query)
            if digest is not None:
                cached = self._key_cache.get(digest)
                if cached is not None:
                    self.key_cache_hits += 1
                    return cached
        if self._batch_hasher is not None:
            return self._batch_hasher.keys_for_point(query)
        return [function(query) for function in self._functions]

    def query_keys_many(self, queries: Sequence[Point]) -> List[List[Hashable]]:
        """Per query, the bucket key in each table — hashed in one batch.

        Uses the family's :class:`~repro.lsh.family.BatchHasher` to evaluate
        all ``L`` functions over the whole query batch with vectorized numpy
        operations; families without one fall back to per-query hashing.
        """
        if len(queries) == 0:
            return []
        if self._batch_hasher is not None:
            return self._batch_hasher.keys_for_points(queries)
        return [self.query_keys(query) for query in queries]

    def prime_key_cache(self, queries: Sequence[Point], keys_per_query: Sequence[List[Hashable]]) -> None:
        """Pre-populate the query-key cache (used by the batch engine).

        Queries without a hashable digest are silently skipped; they fall
        back to per-query hashing.
        """
        if len(queries) != len(keys_per_query):
            raise InvalidParameterError(
                f"got {len(queries)} queries but {len(keys_per_query)} key lists"
            )
        for query, keys in zip(queries, keys_per_query):
            digest = point_digest(query)
            if digest is not None:
                self._key_cache[digest] = list(keys)

    def clear_key_cache(self) -> None:
        """Drop all primed query keys (hit counters are preserved)."""
        self._key_cache.clear()

    def query_buckets(self, query: Point, keys: Optional[List[Hashable]] = None) -> List[Bucket]:
        """The (possibly empty) bucket colliding with *query* in each table.

        Parameters
        ----------
        query:
            The query point.
        keys:
            Optional pre-computed per-table bucket keys for *query* (as
            returned by :meth:`query_keys`).  Callers that already hold the
            keys pass them to avoid hashing the query a second time.
        """
        self._check_fitted()
        empty = Bucket(np.empty(0, dtype=np.intp), None if self._ranks is None else np.empty(0, dtype=self._ranks.dtype))
        if keys is None:
            keys = self.query_keys(query)
        return [table.get(key, empty) for table, key in zip(self._tables, keys)]

    def query_candidates(self, query: Point) -> np.ndarray:
        """Unique indices of all points colliding with *query* in any table."""
        parts = [bucket.indices for bucket in self.query_buckets(query) if bucket.indices.size]
        return self.distinct_indices(parts)

    def distinct_indices(self, parts: Sequence[np.ndarray]) -> np.ndarray:
        """Sorted distinct dataset indices across *parts* (bucket arrays).

        Large multisets (relative to the slot range) are deduplicated with a
        flag-array pass — O(n + multiset) instead of the
        O(multiset log multiset) sort ``np.unique`` pays, which matters when
        large-bucket queries produce multisets of tens of thousands of
        references.  Small multisets over big indexes keep the ``np.unique``
        path, whose cost does not scale with ``n``.  Output order
        (ascending) is identical either way.
        """
        if not parts:
            return np.empty(0, dtype=np.intp)
        total = sum(part.size for part in parts)
        if 8 * total < self._n:
            return np.unique(np.concatenate(parts)).astype(np.intp, copy=False)
        seen = np.zeros(self._n, dtype=bool)
        for part in parts:
            seen[part] = True
        return np.flatnonzero(seen).astype(np.intp, copy=False)

    def query_candidates_multiset(self, query: Point) -> np.ndarray:
        """Indices of colliding points *with* multiplicity across tables."""
        buckets = self.query_buckets(query)
        if not buckets:
            return np.empty(0, dtype=np.intp)
        return np.concatenate([b.indices for b in buckets])

    def colliding_view(
        self,
        query: Point,
        limit: Optional[int] = None,
        keys: Optional[List[Hashable]] = None,
    ):
        """Rank-sorted ``(ranks, indices)`` of the points colliding with *query*.

        The concatenation of the ``L`` colliding buckets (live members only),
        sorted by rank, with multiplicity (a point colliding in several
        tables appears once per table); consumers de-duplicate after
        slicing.  With a *limit*, only a **rank prefix** of that view is
        gathered — the bottom-*limit* references by rank, cut strictly below
        the truncation boundary so every reference ranked lower is provably
        present — in O(tables × limit) instead of O(multiset) (see
        :func:`~repro.engine.gather.bounded_prefix`).  Samplers whose
        answer is fixed by a rank prefix certify against it, and the engines
        widen the limit when they cannot.

        Returns a :class:`~repro.engine.gather.PrefixView`, which unpacks as
        the bare ``(ranks, indices)`` tuple and whose ``complete`` flag says
        whether the view is the whole colliding multiset.  *keys* are
        optional pre-computed per-table bucket keys.
        """
        # Deferred: repro.engine imports this module.
        from repro.engine.gather import bounded_prefix

        self._check_fitted()
        if self._ranks is None:
            raise InvalidParameterError("tables were built without ranks; no rank-sorted view")
        if limit is not None and limit < 1:
            raise InvalidParameterError(f"limit must be >= 1, got {limit}")
        if keys is None:
            keys = self.query_keys(query)
        return bounded_prefix(self, keys, limit)

    def rank_range_candidates(self, query: Point, lo: int, hi: int) -> np.ndarray:
        """Unique colliding indices with rank in ``[lo, hi)`` (Section 4, step 3b)."""
        self._check_fitted()
        if self._ranks is None:
            raise InvalidParameterError("tables were built without ranks; rank-range queries unavailable")
        parts = [bucket.rank_range(lo, hi) for bucket in self.query_buckets(query)]
        parts = [p for p in parts if p.size]
        if not parts:
            return np.empty(0, dtype=np.intp)
        return np.unique(np.concatenate(parts))

    def collision_counts(self, query: Point) -> Dict[int, int]:
        """Map point index -> number of tables in which it collides with *query*."""
        parts = [bucket.indices for bucket in self.query_buckets(query) if bucket.indices.size]
        if not parts:
            return {}
        stacked = np.concatenate(parts)
        if 8 * stacked.size < self._n:
            # Small multiset over a big index: avoid the n-length bincount.
            unique, counts = np.unique(stacked, return_counts=True)
            return {int(index): int(count) for index, count in zip(unique, counts)}
        counts = np.bincount(stacked, minlength=self._n)
        colliding = np.flatnonzero(counts)
        return {int(index): int(counts[index]) for index in colliding}

    # ------------------------------------------------------------------
    def _check_fitted(self) -> None:
        if not self._fitted:
            raise EmptyDatasetError("LSHTables.fit must be called before querying")
