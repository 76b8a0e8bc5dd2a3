"""Declarative, serializable descriptions of samplers, measures and engines.

A spec answers "which sampler over which distance with which LSH family and
which parameters" as plain data.  Every layer consumes the same description:
:meth:`SamplerSpec.build` constructs the ready-to-fit sampler by resolving
names through :mod:`repro.registry`, the :class:`~repro.api.FairNN` facade
runs on an :class:`EngineSpec`, engine snapshots persist the originating
spec in their manifest, and the experiment configs emit specs instead of
hard-coding class names.

All four spec types are frozen dataclasses with a validated
``to_dict``/``from_dict``/JSON round-trip (``Spec.from_dict(spec.to_dict())
== spec``) and **bitwise-reproducible seeding**: building a spec with a seed
produces a sampler whose seeded query answers are byte-identical to the
directly constructed equivalent, because ``build()`` forwards exactly the
constructor arguments a hand-written call would pass.

Example
-------
>>> from repro.spec import LSHSpec, SamplerSpec
>>> spec = SamplerSpec(
...     sampler="permutation",
...     params={"radius": 0.4, "far_radius": 0.1},
...     lsh=LSHSpec(family="minhash"),
...     seed=7,
... )
>>> sampler = spec.build()          # == PermutationFairSampler(MinHashFamily(), radius=0.4, far_radius=0.1, seed=7)
>>> SamplerSpec.from_json(spec.to_json()) == spec
True
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.exceptions import InvalidParameterError
from repro.registry import SAMPLERS, get_distance, get_lsh_family, get_sampler
from repro.store.spec import StoreSpec

__all__ = [
    "DistanceSpec",
    "LSHSpec",
    "SamplerSpec",
    "EngineSpec",
    "spec_from_dict",
]

#: Sentinel distinguishing "no seed passed" from "seed=None passed".
_UNSET = object()

#: Write-ahead-log fsync policies an :class:`EngineSpec` may name (kept in
#: sync with :data:`repro.engine.wal.FSYNC_POLICIES`): ``"always"`` fsyncs
#: every append, ``"interval"`` flushes every append and fsyncs
#: opportunistically, ``"off"`` only flushes to the OS page cache.
_FSYNC_POLICIES = ("always", "interval", "off")


def _checked_params(params: Mapping[str, Any], owner: str) -> Dict[str, Any]:
    """Validate and normalize a spec's parameter mapping.

    Keys must be strings (they become constructor keyword arguments) and
    values must survive a JSON round-trip — specs are serializable by
    contract, and catching a stray ndarray here beats a confusing failure
    in ``to_json`` later.
    """
    if not isinstance(params, Mapping):
        raise InvalidParameterError(f"{owner} params must be a mapping, got {type(params).__name__}")
    normalized = dict(params)
    for key in normalized:
        if not isinstance(key, str) or not key.isidentifier():
            raise InvalidParameterError(
                f"{owner} parameter names must be valid identifiers, got {key!r}"
            )
    try:
        json.dumps(normalized)
    except TypeError as error:
        raise InvalidParameterError(f"{owner} params must be JSON-serializable: {error}") from None
    return normalized


def _require_name(value: Any, what: str) -> str:
    if not isinstance(value, str) or not value:
        raise InvalidParameterError(f"{what} must be a non-empty string, got {value!r}")
    return value


def _reject_unknown_keys(data: Mapping[str, Any], allowed: tuple, what: str) -> None:
    unknown = set(data) - set(allowed)
    if unknown:
        raise InvalidParameterError(
            f"unknown {what} keys {sorted(unknown)}; allowed: {sorted(allowed)}"
        )


class _JsonRoundTrip:
    """Shared JSON serialization on top of each spec's ``to_dict``/``from_dict``."""

    def to_json(self, indent: Optional[int] = None) -> str:
        """The spec as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class DistanceSpec(_JsonRoundTrip):
    """A distance/similarity measure as a registry name plus parameters.

    >>> DistanceSpec("jaccard").build()          # == JaccardSimilarity()
    """

    name: str
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require_name(self.name, "DistanceSpec.name")
        object.__setattr__(self, "params", _checked_params(self.params, "DistanceSpec"))

    def build(self):
        """Construct the measure instance this spec describes."""
        return get_distance(self.name)(**self.params)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable plain-dict form (inverse of :meth:`from_dict`)."""
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DistanceSpec":
        """Reconstruct a spec from :meth:`to_dict` output (validated)."""
        _reject_unknown_keys(data, ("name", "params"), "DistanceSpec")
        return cls(name=data.get("name"), params=dict(data.get("params", {})))


@dataclass(frozen=True)
class LSHSpec(_JsonRoundTrip):
    """An LSH family as a registry name plus constructor parameters.

    >>> LSHSpec("pstable", {"dim": 16, "width": 4.0}).build()   # == PStableFamily(dim=16, width=4.0)
    """

    family: str
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require_name(self.family, "LSHSpec.family")
        object.__setattr__(self, "params", _checked_params(self.params, "LSHSpec"))

    def build(self):
        """Construct the (base, un-concatenated) family this spec describes."""
        return get_lsh_family(self.family)(**self.params)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable plain-dict form (inverse of :meth:`from_dict`)."""
        return {"family": self.family, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LSHSpec":
        """Reconstruct a spec from :meth:`to_dict` output (validated)."""
        _reject_unknown_keys(data, ("family", "params"), "LSHSpec")
        return cls(family=data.get("family"), params=dict(data.get("params", {})))


@dataclass(frozen=True)
class SamplerSpec(_JsonRoundTrip):
    """A complete, buildable description of one near-neighbor sampler.

    Attributes
    ----------
    sampler:
        Registry name of the sampler class (see
        :func:`repro.registry.sampler_names`).
    params:
        Keyword arguments forwarded verbatim to the sampler constructor
        (``radius``, ``far_radius``, ``num_hashes``, ...).
    lsh:
        The LSH family, for samplers registered with ``inputs="family"``.
    distance:
        The measure, for samplers registered with ``inputs="measure"``
        (e.g. the exact baseline).
    seed:
        Default seed :meth:`build` passes to the constructor; an explicit
        ``build(seed=...)`` overrides it.  Same spec + same seed + same
        dataset ⇒ byte-identical query answers.
    """

    sampler: str
    params: Dict[str, Any] = field(default_factory=dict)
    lsh: Optional[LSHSpec] = None
    distance: Optional[DistanceSpec] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        _require_name(self.sampler, "SamplerSpec.sampler")
        object.__setattr__(self, "params", _checked_params(self.params, "SamplerSpec"))
        if self.lsh is not None and not isinstance(self.lsh, LSHSpec):
            raise InvalidParameterError("SamplerSpec.lsh must be an LSHSpec or None")
        if self.distance is not None and not isinstance(self.distance, DistanceSpec):
            raise InvalidParameterError("SamplerSpec.distance must be a DistanceSpec or None")
        if self.seed is not None and not isinstance(self.seed, int):
            raise InvalidParameterError(f"SamplerSpec.seed must be an int or None, got {self.seed!r}")
        if "seed" in self.params:
            raise InvalidParameterError("pass the seed via SamplerSpec.seed, not params['seed']")

    # ------------------------------------------------------------------
    def build(self, seed: Any = _UNSET):
        """Construct the (unfitted) sampler, resolving names via the registry.

        The constructor call is exactly what a hand-written equivalent would
        be — ``cls(family_or_measure, **params, seed=seed)`` — so a spec-built
        sampler's seeded behaviour is bitwise identical to a direct one.
        """
        cls = get_sampler(self.sampler)
        inputs = SAMPLERS.metadata(self.sampler).get("inputs", "family")
        effective_seed = self.seed if seed is _UNSET else seed
        if inputs == "family":
            if self.lsh is None:
                raise InvalidParameterError(
                    f"sampler {self.sampler!r} is built over an LSH family; set SamplerSpec.lsh"
                )
            if self.distance is not None:
                raise InvalidParameterError(
                    f"sampler {self.sampler!r} takes its measure from the LSH family; "
                    "drop SamplerSpec.distance"
                )
            return cls(self.lsh.build(), **self.params, seed=effective_seed)
        if inputs == "measure":
            if self.distance is None:
                raise InvalidParameterError(
                    f"sampler {self.sampler!r} is built over a measure; set SamplerSpec.distance"
                )
            if self.lsh is not None:
                raise InvalidParameterError(
                    f"sampler {self.sampler!r} takes a measure, not an LSH family; drop SamplerSpec.lsh"
                )
            return cls(self.distance.build(), **self.params, seed=effective_seed)
        if self.lsh is not None or self.distance is not None:
            raise InvalidParameterError(
                f"sampler {self.sampler!r} is self-contained; drop SamplerSpec.lsh/.distance"
            )
        return cls(**self.params, seed=effective_seed)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable plain-dict form (inverse of :meth:`from_dict`)."""
        return {
            "sampler": self.sampler,
            "params": dict(self.params),
            "lsh": None if self.lsh is None else self.lsh.to_dict(),
            "distance": None if self.distance is None else self.distance.to_dict(),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SamplerSpec":
        """Reconstruct a spec from :meth:`to_dict` output (validated).

        Dicts persisted while the Section 4 sampler stored one sketch per
        bucket may name that option, ``sketch_min_bucket``; it never changed
        an answer, so it is dropped.
        """
        _reject_unknown_keys(data, ("sampler", "params", "lsh", "distance", "seed"), "SamplerSpec")
        lsh = data.get("lsh")
        distance = data.get("distance")
        params = dict(data.get("params", {}))
        if data.get("sampler") == "independent":
            params.pop("sketch_min_bucket", None)
        return cls(
            sampler=data.get("sampler"),
            params=params,
            lsh=None if lsh is None else LSHSpec.from_dict(lsh),
            distance=None if distance is None else DistanceSpec.from_dict(distance),
            seed=data.get("seed"),
        )


@dataclass(frozen=True)
class EngineSpec(_JsonRoundTrip):
    """A serving configuration: named samplers over one shared table set.

    Attributes
    ----------
    samplers:
        Mapping of serving name → :class:`SamplerSpec`.  All LSH-backed
        samplers share one table set built from the primary's parameters
        (insertion order is preserved through the JSON round-trip).
    primary:
        Name of the sampler whose parameter rule sizes the shared tables
        and whose engine is persisted by snapshots; defaults to the first
        entry.
    dynamic:
        Whether :meth:`~repro.api.FairNN.serve` builds mutable
        (:class:`~repro.engine.dynamic.DynamicLSHTables`) or static tables.
    max_tombstone_fraction:
        Compaction threshold forwarded to the dynamic table layer.
    batch_hashing, coalesce_duplicates:
        Forwarded to every :class:`~repro.engine.batch.BatchQueryEngine`.
    wal_fsync:
        Fsync policy the write-ahead log uses when :meth:`~repro.api.
        FairNN.serve` is given a ``data_dir``: ``"always"`` (fsync every
        append — survives power loss), ``"interval"`` (the default; flush
        every append, fsync opportunistically — survives process crash) or
        ``"off"`` (flush only).  Ignored when serving without a data
        directory; persisted in snapshots so a recovered engine keeps its
        durability configuration.
    store:
        Which storage tier serves the dataset
        (:class:`~repro.store.StoreSpec`): ``None`` (the default) means the
        in-RAM columnar stores; a spec with ``backend="memmap"`` or
        ``backend="remote"`` serves the corpus out-of-core from a format-v5
        snapshot.  Persisted in snapshots so checkpoints and
        :meth:`~repro.api.FairNN.recover` come back on the same tier.
    """

    samplers: Dict[str, SamplerSpec] = field(default_factory=dict)
    primary: Optional[str] = None
    dynamic: bool = True
    max_tombstone_fraction: float = 0.25
    batch_hashing: bool = True
    coalesce_duplicates: bool = True
    wal_fsync: str = "interval"
    store: Optional[StoreSpec] = None

    def __post_init__(self) -> None:
        if not isinstance(self.samplers, Mapping) or not self.samplers:
            raise InvalidParameterError("EngineSpec.samplers must be a non-empty mapping")
        samplers = dict(self.samplers)
        for name, spec in samplers.items():
            _require_name(name, "EngineSpec sampler name")
            if not isinstance(spec, SamplerSpec):
                raise InvalidParameterError(
                    f"EngineSpec.samplers[{name!r}] must be a SamplerSpec, got {type(spec).__name__}"
                )
        object.__setattr__(self, "samplers", samplers)
        primary = self.primary if self.primary is not None else next(iter(samplers))
        if primary not in samplers:
            raise InvalidParameterError(
                f"EngineSpec.primary {primary!r} is not one of {sorted(samplers)}"
            )
        object.__setattr__(self, "primary", primary)
        if not 0.0 < float(self.max_tombstone_fraction) <= 1.0:
            raise InvalidParameterError("max_tombstone_fraction must be in (0, 1]")
        if self.wal_fsync not in _FSYNC_POLICIES:
            raise InvalidParameterError(
                f"EngineSpec.wal_fsync must be one of {_FSYNC_POLICIES}, got {self.wal_fsync!r}"
            )
        if self.store is not None:
            if isinstance(self.store, (str, dict)):
                object.__setattr__(self, "store", StoreSpec.coerce(self.store))
            elif not isinstance(self.store, StoreSpec):
                raise InvalidParameterError(
                    f"EngineSpec.store must be a StoreSpec, backend name, or None, "
                    f"got {type(self.store).__name__}"
                )

    # ------------------------------------------------------------------
    @property
    def primary_spec(self) -> SamplerSpec:
        """The :class:`SamplerSpec` of the primary sampler."""
        return self.samplers[self.primary]

    def build(self):
        """An (unfitted) :class:`~repro.api.FairNN` facade over this spec."""
        from repro.api import FairNN  # circular at import time, not at runtime

        return FairNN(self)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable plain-dict form (inverse of :meth:`from_dict`)."""
        return {
            "samplers": {name: spec.to_dict() for name, spec in self.samplers.items()},
            "primary": self.primary,
            "dynamic": self.dynamic,
            "max_tombstone_fraction": self.max_tombstone_fraction,
            "batch_hashing": self.batch_hashing,
            "coalesce_duplicates": self.coalesce_duplicates,
            "wal_fsync": self.wal_fsync,
            "store": None if self.store is None else self.store.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EngineSpec":
        """Reconstruct a spec from :meth:`to_dict` output (validated).

        Dicts persisted before table sharding and the prefix-budget options
        were removed may still carry their keys; they load when each holds
        its old default (``None`` for the budgets), and raise
        :class:`~repro.exceptions.InvalidParameterError` otherwise.
        """
        legacy = {
            "n_shards": 1,
            "placement": "round_robin",
            "executor": "thread",
            "prefix_budget": None,
            "prefix_budget_cap": None,
        }
        for key, default in legacy.items():
            if key in data and data[key] != default:
                raise InvalidParameterError(
                    f"EngineSpec no longer supports {key}={data[key]!r}: the "
                    f"option was removed, only the default {default!r} loads"
                )
        _reject_unknown_keys(
            data,
            (
                "samplers",
                "primary",
                "dynamic",
                "max_tombstone_fraction",
                "batch_hashing",
                "coalesce_duplicates",
                *legacy,
                "wal_fsync",
                "store",
            ),
            "EngineSpec",
        )
        samplers = data.get("samplers")
        if not isinstance(samplers, Mapping):
            raise InvalidParameterError("EngineSpec dict needs a 'samplers' mapping")
        return cls(
            samplers={name: SamplerSpec.from_dict(spec) for name, spec in samplers.items()},
            primary=data.get("primary"),
            dynamic=bool(data.get("dynamic", True)),
            max_tombstone_fraction=float(data.get("max_tombstone_fraction", 0.25)),
            batch_hashing=bool(data.get("batch_hashing", True)),
            coalesce_duplicates=bool(data.get("coalesce_duplicates", True)),
            wal_fsync=data.get("wal_fsync", "interval"),
            store=(
                None
                if data.get("store") is None
                else StoreSpec.from_dict(data["store"])
            ),
        )


def spec_from_dict(data: Mapping[str, Any]):
    """Dispatch a plain dict to the spec type it describes.

    ``{"samplers": ...}`` → :class:`EngineSpec`, ``{"sampler": ...}`` →
    :class:`SamplerSpec`, ``{"family": ...}`` → :class:`LSHSpec`,
    ``{"name": ...}`` → :class:`DistanceSpec`.
    """
    if not isinstance(data, Mapping):
        raise InvalidParameterError(f"spec dict expected, got {type(data).__name__}")
    if "samplers" in data:
        return EngineSpec.from_dict(data)
    if "sampler" in data:
        return SamplerSpec.from_dict(data)
    if "family" in data:
        return LSHSpec.from_dict(data)
    if "name" in data:
        return DistanceSpec.from_dict(data)
    raise InvalidParameterError(
        "cannot infer spec type: expected one of the keys 'samplers', 'sampler', 'family', 'name'"
    )
