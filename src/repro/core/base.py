"""Abstract sampler interfaces.

:class:`NeighborSampler` is the public face of every data structure in
:mod:`repro.core`; :class:`LSHNeighborSampler` adds the shared construction
logic for the samplers that sit on top of the LSH table layer (standard LSH,
collect-all fair LSH, the approximate-neighborhood baseline, and the
Section 3 / Appendix A / Section 4 structures).
"""

from __future__ import annotations

import abc
import copy
from typing import List, Optional

import numpy as np

from repro.core.evaluator import CandidateEvaluator
from repro.store import DatasetStore, make_store
from repro.distances.base import Measure
from repro.exceptions import EmptyDatasetError, InvalidParameterError, NotFittedError
from repro.lsh.family import LSHFamily
from repro.lsh.params import LSHParameters, select_parameters
from repro.lsh.tables import LSHTables
from repro.rng import SeedLike, spawn_rngs
from repro.core.result import QueryResult
from repro.types import Dataset, Point


class NeighborSampler(abc.ABC):
    """A data structure answering r-near-neighbor sampling queries.

    Subclasses are constructed with all their parameters and then bound to a
    dataset via :meth:`fit` (constructors that accept a ``dataset`` argument
    call ``fit`` themselves).  After fitting, :meth:`sample` returns the
    index of a point of ``B_S(q, r)`` — for the fair samplers, a uniformly
    distributed one — or ``None`` when no near neighbor is found.
    """

    #: The measure used to decide near/far; set during fit.
    measure: Measure
    #: The near threshold ``r`` (a distance or a similarity).
    radius: float
    #: True when repeated queries provably return the same answer (no
    #: query-time randomness).  The serving engine may then coalesce
    #: duplicate requests in a batch without changing any output.  Samplers
    #: that draw randomness per query MUST leave this False.
    deterministic_queries: bool = False

    def __init__(self) -> None:
        self._dataset: Optional[Dataset] = None
        self._fitted = False
        # Columnar store for the vectorized candidate-evaluation pipeline.
        # None = not built yet (lazy), False = dataset has no columnar form.
        self._store = None

    # ------------------------------------------------------------------
    @property
    def dataset(self) -> Dataset:
        """The indexed dataset."""
        self._check_fitted()
        return self._dataset

    @property
    def num_points(self) -> int:
        """Number of indexed points."""
        self._check_fitted()
        return len(self._dataset)

    @abc.abstractmethod
    def fit(self, dataset: Dataset) -> "NeighborSampler":
        """Build the data structure over *dataset* and return ``self``."""

    @abc.abstractmethod
    def sample_detailed(self, query: Point, exclude_index: Optional[int] = None) -> QueryResult:
        """Answer one query, returning the sampled index plus work counters.

        ``exclude_index`` removes one dataset point from consideration — the
        standard way to query with a point that is itself part of the indexed
        dataset (e.g. recommending for an existing user) without having the
        structure hand the query back to itself.
        """

    # ------------------------------------------------------------------
    def sample(self, query: Point, exclude_index: Optional[int] = None) -> Optional[int]:
        """Return the index of a sampled r-near neighbor of *query* (or None)."""
        return self.sample_detailed(query, exclude_index=exclude_index).index

    def sample_k(self, query: Point, k: int, replacement: bool = True) -> List[int]:
        """Sample *k* near neighbors of *query*.

        With ``replacement=True`` the query is simply repeated ``k`` times
        (each call is an independent draw for the independent samplers).
        Without replacement the default implementation also repeats the query
        and discards duplicates; the Section 3 sampler overrides this with
        the direct "k lowest ranks" algorithm from Section 3.1.
        """
        if k < 0:
            raise InvalidParameterError(f"k must be non-negative, got {k}")
        results: List[int] = []
        seen = set()
        attempts = 0
        max_attempts = max(10 * k, 100)
        while len(results) < k and attempts < max_attempts:
            attempts += 1
            index = self.sample(query)
            if index is None:
                break
            if replacement:
                results.append(index)
            elif index not in seen:
                seen.add(index)
                results.append(index)
        return results

    # ------------------------------------------------------------------
    def _check_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError(f"{type(self).__name__} must be fitted before use")

    def _store_dataset(self, dataset: Dataset) -> None:
        if len(dataset) == 0:
            raise EmptyDatasetError("cannot fit a sampler on an empty dataset")
        self._dataset = dataset
        self._fitted = True
        self._store = None  # rebuilt lazily for the new dataset

    def _active_store(self) -> Optional[DatasetStore]:
        """The columnar store candidates are scored against, or ``None``.

        Samplers attached to a table layer that maintains its own store under
        mutation (:class:`~repro.engine.dynamic.DynamicLSHTables`) share that
        store, so inserted points become scoreable without a rebuild; everyone
        else packs their (immutable) dataset once, on first use.
        """
        tables = getattr(self, "tables", None)
        if tables is not None and hasattr(tables, "point_store"):
            return tables.point_store
        if self._store is None:
            self._store = make_store(self._dataset)
            if self._store is None:
                self._store = False  # remember the miss; don't re-probe per query
        return self._store or None

    def _evaluator(self, query: Point) -> CandidateEvaluator:
        """A fresh per-query memoized batch evaluator over the dataset."""
        return CandidateEvaluator(
            self.measure,
            query,
            store=self._active_store(),
            dataset=self._dataset,
            size=len(self._dataset),
        )

    def _is_near(self, index: int, query: Point, value_cache: Optional[dict] = None) -> bool:
        """Whether dataset point *index* is r-near to *query* (with caching)."""
        return self.measure.within(self._value(index, query, value_cache), self.radius)

    def _value(self, index: int, query: Point, value_cache: Optional[dict] = None) -> float:
        if value_cache is not None and index in value_cache:
            return value_cache[index]
        value = self.measure.value(self._dataset[index], query)
        if value_cache is not None:
            value_cache[index] = value
        return value


class LSHNeighborSampler(NeighborSampler):
    """Shared construction for samplers built on :class:`~repro.lsh.tables.LSHTables`.

    Parameters
    ----------
    family:
        Base LSH family (not yet concatenated).
    radius:
        Near threshold ``r`` in the family's measure.
    far_radius:
        Relaxed threshold ``cr`` used only for parameter selection; defaults
        to a mild relaxation when omitted.
    num_hashes, num_tables:
        Explicit ``(K, L)``.  When either is ``None`` the pair is chosen with
        :func:`repro.lsh.params.select_parameters` at fit time (it needs
        ``n``).
    recall, max_expected_far_collisions:
        Passed to the parameter selection when it runs.
    use_ranks:
        Whether the hash tables must store rank-sorted buckets (Sections 3
        and 4 need this; the baselines do not).
    seed:
        Controls every random choice (hash functions, permutation, query
        randomness).
    """

    #: Whether the sampler's query procedure works over an arbitrary rank
    #: domain (ranks as i.i.d. draws from a large interval, as the dynamic
    #: table layer uses) rather than requiring a permutation of ``0 .. n-1``.
    #: Samplers that index arrays by rank value must set this False.
    supports_dynamic_ranks: bool = True

    def __init__(
        self,
        family: LSHFamily,
        radius: float,
        far_radius: Optional[float] = None,
        num_hashes: Optional[int] = None,
        num_tables: Optional[int] = None,
        recall: float = 0.99,
        max_expected_far_collisions: float = 1.0,
        use_ranks: bool = False,
        seed: SeedLike = None,
    ):
        super().__init__()
        self.family = family
        self.measure = family.measure
        self.radius = float(radius)
        self.far_radius = float(far_radius) if far_radius is not None else self._default_far_radius()
        self._explicit_k = num_hashes
        self._explicit_l = num_tables
        self._recall = recall
        self._max_far = max_expected_far_collisions
        self._use_ranks = use_ranks
        rngs = spawn_rngs(seed, 3)
        self._tables_rng, self._perm_rng, self._query_rng = rngs
        self.params: Optional[LSHParameters] = None
        self.tables: Optional[LSHTables] = None
        self.ranks: Optional[np.ndarray] = None
        # Table-layer mutation epoch this sampler last synchronized at; see
        # notify_update.
        self._synced_epoch = 0

    # ------------------------------------------------------------------
    def _default_far_radius(self) -> float:
        """A mild default relaxation of the near threshold."""
        from repro.distances.base import MeasureKind

        if self.measure.kind is MeasureKind.DISTANCE:
            return 2.0 * self.radius
        return 0.5 * self.radius

    def _resolve_parameters(self, n: int) -> LSHParameters:
        if self._explicit_k is not None and self._explicit_l is not None:
            k = int(self._explicit_k)
            l = int(self._explicit_l)
            p1 = self.family.collision_probability(self.radius) ** k
            p2 = self.family.collision_probability(self.far_radius) ** k
            return LSHParameters(
                k=k,
                l=l,
                p_near=p1,
                p_far=p2,
                recall=1.0 - (1.0 - p1) ** l,
                expected_far_collisions=n * p2,
            )
        params = select_parameters(
            self.family,
            near_threshold=self.radius,
            far_threshold=self.far_radius,
            n=n,
            recall=self._recall,
            max_expected_far_collisions=self._max_far,
        )
        if self._explicit_k is not None or self._explicit_l is not None:
            k = int(self._explicit_k) if self._explicit_k is not None else params.k
            l = int(self._explicit_l) if self._explicit_l is not None else params.l
            p1 = self.family.collision_probability(self.radius) ** k
            p2 = self.family.collision_probability(self.far_radius) ** k
            params = LSHParameters(
                k=k,
                l=l,
                p_near=p1,
                p_far=p2,
                recall=1.0 - (1.0 - p1) ** l,
                expected_far_collisions=n * p2,
            )
        return params

    def fit(self, dataset: Dataset) -> "LSHNeighborSampler":
        """Hash the dataset into ``L`` tables (with ranks when required)."""
        n = len(dataset)
        if n == 0:
            raise EmptyDatasetError("cannot fit a sampler on an empty dataset")
        self.params = self._resolve_parameters(n)
        concatenated = self.family.concatenate(self.params.k) if self.params.k > 1 else self.family
        self.tables = LSHTables(concatenated, self.params.l, seed=self._tables_rng)
        # Reset first: a previous attach() to ranked tables may have left
        # foreign ranks behind on a rankless sampler.
        self.ranks = None
        if self._use_ranks:
            self.ranks = self._perm_rng.permutation(n)
        self.tables.fit(dataset, ranks=self.ranks)
        self._store_dataset(dataset)
        self._synced_epoch = self.tables.mutation_epoch
        self._after_fit()
        return self

    def attach(self, tables: LSHTables, dataset: Dataset) -> "LSHNeighborSampler":
        """Bind this sampler to externally built (possibly mutable) tables.

        This is the serving-engine entry point: the engine owns an
        :class:`~repro.engine.dynamic.DynamicLSHTables` over a mutable dataset
        and re-points samplers at it instead of letting each sampler build a
        private static index.  ``dataset`` must be the table layer's own live
        container so that points inserted later are visible to the sampler
        without a refit.  The caller is responsible for passing tables whose
        family matches this sampler's.
        """
        n = len(dataset)
        if n == 0:
            raise EmptyDatasetError("cannot attach a sampler to an empty dataset")
        if self._use_ranks and tables.ranks is None:
            raise InvalidParameterError(
                f"{type(self).__name__} needs rank-sorted buckets but the tables were built without ranks"
            )
        if not self.supports_dynamic_ranks and tables.rank_domain > tables.num_points:
            raise InvalidParameterError(
                f"{type(self).__name__} requires permutation ranks (0..n-1) and cannot "
                "attach to tables with a dynamic rank domain; build the engine with "
                "dynamic=False or use a rank-domain-agnostic sampler"
            )
        self.tables = tables
        # Rank-agnostic samplers must not adopt the tables' ranks: a later
        # plain fit() would feed them to the fresh tables.
        self.ranks = tables.ranks if self._use_ranks else None
        # Params reflect the attached structure; _explicit_k/_explicit_l are
        # left untouched so a later plain fit() still auto-selects (K, L).
        self.params = self._attached_parameters(n)
        self._store_dataset(dataset)
        # _after_fit derives all state from the tables as they are now: any
        # still-undrained mutation record predates it, so it is dropped and
        # the sampler starts epoch-aligned instead of rebuilding again on its
        # first sync.  A previously attached sampler loses the record too,
        # but its epoch check detects that and falls back to a rebuild of
        # its own.
        tables.drain_delta()
        self._synced_epoch = getattr(tables, "mutation_epoch", 0)
        self._after_fit()
        return self

    def _attached_parameters(self, n: int) -> LSHParameters:
        """The parameter record describing externally built tables."""
        k = getattr(self.tables.family, "k", 1)
        l = self.tables.num_tables
        p1 = self.family.collision_probability(self.radius) ** k
        p2 = self.family.collision_probability(self.far_radius) ** k
        return LSHParameters(
            k=k,
            l=l,
            p_near=p1,
            p_far=p2,
            recall=1.0 - (1.0 - p1) ** l,
            expected_far_collisions=n * p2,
        )

    def notify_update(self) -> None:
        """Tell the sampler its attached tables mutated (insert/delete).

        Refreshes the views that go stale when the table layer grows its
        arrays, recomputes the parameter record for the new ``n``, drains the
        table layer's :class:`~repro.engine.dynamic.MutationDelta` and hands
        it to :meth:`_after_update`.  Tables that do not track deltas report
        ``None``, which subclasses must treat as "anything may have changed"
        (full rebuild).

        The delta is drained (single-consumer).  Samplers track the table
        layer's mutation epoch and compare it with the drained record's
        ``start_epoch``, so a sampler that missed an earlier record (it went
        to a different consumer — two samplers attached to one table set)
        detects the gap, receives ``None`` and rebuilds in full instead of
        acting on only the tail of the mutation history.
        """
        self._check_fitted()
        self.ranks = self.tables.ranks if self._use_ranks else None
        # Size off the live count: under sustained churn the slot count keeps
        # growing while the served dataset does not, and parameter records
        # (expected far collisions etc.) should describe the latter.
        self.params = self._attached_parameters(max(1, self.tables.num_live))
        epoch = getattr(self.tables, "mutation_epoch", 0)
        delta = self.tables.drain_delta()
        if delta is not None and delta.start_epoch != self._synced_epoch:
            # Mutations between our last sync and this record's start were
            # drained by another consumer; without their record, only a full
            # rebuild is safe.
            delta = None
        self._synced_epoch = epoch
        self._after_update(delta)

    #: Whether this sampler's single-draw answer is determined by a *rank
    #: prefix* of the colliding view: scanning candidates in increasing rank
    #: order, the query can stop at the first near point.  Samplers that set
    #: this True must implement :meth:`sample_detailed_from_prefix`.  For
    #: samplers that are also :attr:`deterministic_queries`, the serving
    #: engine uses it to gather only the bottom-``B`` candidates by rank
    #: instead of the full colliding multiset.
    supports_rank_prefix_scan: bool = False

    def sample_detailed_from_prefix(
        self,
        query: Point,
        view: tuple,
        complete: bool,
        exclude_index: Optional[int] = None,
    ) -> Optional[QueryResult]:
        """Answer one query from a *rank-prefix* candidate view, or ``None``.

        *view* is a rank-sorted ``(ranks, indices)`` multiset that is a
        **prefix** (by rank) of the full colliding view: every colliding
        reference with rank below the view's last entry is present, but
        higher-ranked references may be missing unless *complete* is True.
        Implementations must return exactly what :meth:`sample_detailed`
        would return on the full view — including identical
        :class:`~repro.core.result.QueryStats` counters — or ``None`` when
        the prefix cannot prove that (the caller then retries with a longer
        prefix, or falls back to the full view).  The default returns
        ``None`` (no prefix support).
        """
        return None

    def sample_k_from_prefix(
        self,
        query: Point,
        view: tuple,
        complete: bool,
        k: int,
        replacement: bool = True,
    ) -> Optional[List[int]]:
        """Answer one multi-draw request from a rank-prefix view, or ``None``.

        The k-aware form of :meth:`sample_detailed_from_prefix`, with the
        same certification contract: *view* is a true rank prefix of the
        full colliding view (the whole view iff *complete*), and
        implementations must return **exactly** the list
        :meth:`~repro.core.base.NeighborSampler.sample_k` would return —
        same indices, same order — or ``None`` when the prefix cannot prove
        that (the caller then retries with a longer prefix, or falls back to
        the full view).  Only samplers whose ``sample_k`` is a
        deterministic function of the colliding multiset can implement this;
        the default returns ``None`` (no k-aware prefix support), which the
        engines also use as the eligibility signal — requests with
        ``k > 1`` only take the prefix path when this method is overridden.
        """
        return None

    def _stripped_for_snapshot(self) -> "LSHNeighborSampler":
        """A shallow copy of the sampler suitable for pickling into a snapshot.

        The heavy references (tables, dataset, rank view) are nulled — the
        snapshot layer persists them as arrays and re-binds them on load.
        Subclasses drop rebuildable per-query caches here too; state needed
        for bit-identical post-load behaviour (RNG streams, the Section 4
        sketcher) stays.
        """
        clone = copy.copy(self)
        clone.tables = None
        clone._dataset = None
        clone.ranks = None
        clone._store = None  # columnar store rebuilds lazily from the dataset
        return clone

    def _after_fit(self) -> None:
        """Hook for subclasses needing extra per-bucket structures."""

    def _after_update(self, delta=None) -> None:
        """Hook invoked by :meth:`notify_update`; default is a no-op.

        Subclasses that derive state from the tables (e.g. the Section 4
        sketch hash functions) bring it up to date here.

        Parameters
        ----------
        delta:
            The :class:`~repro.engine.dynamic.MutationDelta` drained from the
            table layer.  ``None`` means the tables reported no delta, or an
            epoch gap; the only safe response is a full rebuild of all
            derived state.
        """

    # ------------------------------------------------------------------
    @property
    def num_tables(self) -> int:
        """Number of LSH tables in use."""
        self._check_fitted()
        return self.tables.num_tables
