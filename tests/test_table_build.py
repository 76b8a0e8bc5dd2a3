"""Table build, checkpoint packing and loading against the per-bucket loops
they replaced.

``LSHTables.fit`` groups each table's block of the batch hasher's integer
code matrix straight into CSR form (sorted key rows, bucket offsets, one
members array) and turns it into the ``{key: Bucket}`` dict with
``repro.lsh.tables.buckets_from_csr``; ``_pack_tables`` and
``_restore_table`` go through the same CSR form.  The loops they replaced
are kept here unchanged as oracles:

* :func:`oracle_build_table` — per-point key lists (``keys_for_dataset``)
  read back into an integer array, one dict entry and one ``Bucket`` per
  bucket, or a dict insert per point for other key types;
* :func:`oracle_pack_tables` — separate index, rank and size lists per
  bucket;
* :func:`oracle_restore_table` — one ``Bucket`` per key, sliced in a loop;
* :func:`oracle_encode_keys` — the bucket key encoder that converted a key
  list to an array with one ``np.asarray`` call (``_encode_keys`` now
  flattens tuple keys in one ``np.fromiter`` pass and must decide alike).

The build, the packed arrays and the restored tables must equal the
oracles' exactly: keys (the same Python objects: an ``int`` for ``K = 1``,
a tuple of ``int`` otherwise), key order, members, ranks and dtypes.

``tests/data/table_build_snapshots`` holds v3 and v5 snapshots that
:func:`write_snapshots` wrote with the release before the code-matrix build,
and the answers that release gave after loading them
(``expected.json``).  They must still load and answer identically, and the
current code, which writes v5 only, must write the same table arrays and
bucket keys for the same engines.  A v3 case's pack and round-trip checks
start from the engine loaded from its checked-in snapshot.
"""

from __future__ import annotations

import json
import pathlib
import pickle
import sys
from typing import Dict, Hashable, List, Optional, Sequence

import numpy as np
import pytest

from repro.core import IndependentFairSampler, PermutationFairSampler
from repro.engine import BatchQueryEngine, load_engine, save_engine
from repro.engine.snapshot import _decode_keys, _encode_keys, _pack_tables, _restore_table
from repro.lsh import (
    HyperplaneFamily,
    LSHTables,
    MinHashFamily,
    OneBitMinHashFamily,
    PStableFamily,
)
from repro.lsh.tables import Bucket


# ----------------------------------------------------------------------
# The oracles
# ----------------------------------------------------------------------
def _integer_key_codes(keys: Sequence[Hashable]) -> Optional[np.ndarray]:
    if len(keys) == 0:
        return None
    try:
        codes = np.asarray(keys)
    except (ValueError, OverflowError):
        return None
    if codes.dtype.kind not in "iu" or codes.ndim not in (1, 2):
        return None
    return codes


def oracle_build_table(keys: Sequence[Hashable], ranks: Optional[np.ndarray]) -> Dict[Hashable, Bucket]:
    codes = _integer_key_codes(keys)
    if codes is None:
        groups: Dict[Hashable, List[int]] = {}
        for index, key in enumerate(keys):
            groups.setdefault(key, []).append(index)
        table: Dict[Hashable, Bucket] = {}
        for key, members in groups.items():
            indices = np.asarray(members, dtype=np.intp)
            table[key] = Bucket.from_members(indices, None if ranks is None else ranks[indices])
        return table

    if codes.ndim == 1:
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        new_group = sorted_codes[1:] != sorted_codes[:-1]
    else:
        order = np.lexsort(codes.T[::-1])
        sorted_codes = codes[order]
        new_group = np.any(sorted_codes[1:] != sorted_codes[:-1], axis=1)
    starts = np.concatenate(([0], np.flatnonzero(new_group) + 1))
    ends = np.concatenate((starts[1:], [codes.shape[0]]))
    members = order.astype(np.intp)
    if ranks is not None:
        group = np.repeat(np.arange(starts.size), ends - starts)
        members = members[np.lexsort((ranks[members], group))]
        members = np.array((members, ranks[members]))
    table = {}
    for start, end in zip(starts, ends):
        row = sorted_codes[start]
        key = int(row) if codes.ndim == 1 else tuple(int(part) for part in row)
        table[key] = Bucket.from_array(members[..., start:end])
    return table


def oracle_pack_tables(tables, arrays: Dict[str, np.ndarray]) -> List[List[Hashable]]:
    bucket_keys: List[List[Hashable]] = []
    has_ranks = tables.ranks is not None
    for table_index, table in enumerate(tables._tables):
        keys = list(table.keys())
        bucket_keys.append(keys)
        buckets = [table[key] for key in keys]
        sizes = np.asarray([len(bucket) for bucket in buckets], dtype=np.int64)
        arrays[f"t{table_index}_offsets"] = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(sizes, dtype=np.int64)]
        )
        arrays[f"t{table_index}_indices"] = (
            np.concatenate([bucket.indices for bucket in buckets])
            if buckets
            else np.empty(0, dtype=np.intp)
        )
        if has_ranks:
            arrays[f"t{table_index}_ranks"] = (
                np.concatenate([bucket.ranks for bucket in buckets])
                if buckets
                else np.empty(0, dtype=np.int64)
            )
    return bucket_keys


def oracle_encode_keys(keys, name: str, arrays: Dict[str, np.ndarray]):
    if keys and all(type(k) is int for k in keys):
        arrays[name] = np.asarray(keys, dtype=np.int64)
        return {"__bucket_keys__": "ints", "array": name}
    if (
        keys
        and all(type(k) is tuple for k in keys)
        and len({len(k) for k in keys}) == 1
        and all(type(v) is int for v in keys[0])
    ):
        try:
            arrays[name] = np.asarray(keys, dtype=np.int64)
        except (ValueError, OverflowError, TypeError):
            return keys
        return {"__bucket_keys__": "int_tuples", "array": name}
    return keys


def oracle_restore_table(arrays, table_index: int, keys: List[Hashable], has_ranks: bool) -> dict:
    offsets = np.asarray(arrays[f"t{table_index}_offsets"]).tolist()
    indices = np.asarray(arrays[f"t{table_index}_indices"]).astype(np.intp, copy=False)
    ranks = np.asarray(arrays[f"t{table_index}_ranks"]) if has_ranks else None
    members = indices if ranks is None else np.array((indices, ranks))
    table = {}
    for position, key in enumerate(keys):
        lo, hi = int(offsets[position]), int(offsets[position + 1])
        table[key] = Bucket.from_array(members[..., lo:hi])
    return table


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def assert_same_table(got: dict, expected: dict) -> None:
    """Same keys (objects, types and order), members, ranks and dtypes."""
    assert list(got) == list(expected)
    assert _key_types(got) == _key_types(expected)
    for key in expected:
        got_members, expected_members = got[key]._members, expected[key]._members
        assert got_members.dtype == expected_members.dtype
        assert got_members.shape == expected_members.shape
        assert np.array_equal(got_members, expected_members)


def _key_types(table: dict) -> list:
    return [
        (type(key), tuple(map(type, key)) if isinstance(key, tuple) else ()) for key in table
    ]


def assert_same_tables(got: List[dict], expected: List[dict]) -> None:
    assert len(got) == len(expected)
    for got_table, expected_table in zip(got, expected):
        assert_same_table(got_table, expected_table)


def item_sets(seed: int, count: int) -> list:
    """Overlapping sets with repeats and an empty set: shared and repeated keys."""
    rng = np.random.default_rng(seed)
    core = set(range(6))
    sets = [
        frozenset(core | {int(x) for x in rng.choice(range(6, 90), size=5, replace=False)})
        for _ in range(count - 8)
    ]
    return sets + sets[:6] + [frozenset(), frozenset({7})]


def vectors(seed: int, count: int) -> np.ndarray:
    """Gaussian rows, the first six repeated: repeated keys in every table."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(count - 6, 6)) * 2.0
    return np.concatenate([data, data[:6]])


_FAMILIES = {
    "minhash": (MinHashFamily, item_sets),
    "onebit": (OneBitMinHashFamily, item_sets),
    "pstable": (lambda: PStableFamily(dim=6, width=2.0), vectors),
}


def _ranks(kind: str, n: int) -> Optional[np.ndarray]:
    rng = np.random.default_rng(13)
    if kind == "none":
        return None
    if kind == "permutation":
        return rng.permutation(n).astype(np.int64)
    return rng.integers(0, 7, size=n).astype(np.int64)  # many rank ties


# ----------------------------------------------------------------------
# Build
# ----------------------------------------------------------------------
class TestBuild:
    @pytest.mark.parametrize("ranks_kind", ["none", "permutation", "ties"])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("family_name", sorted(_FAMILIES))
    def test_code_matrix_build_equals_the_dict_grouping_oracle(self, family_name, k, ranks_kind):
        make_family, make_data = _FAMILIES[family_name]
        family = make_family() if k == 1 else make_family().concatenate(k)
        data = make_data(4, 160)
        ranks = _ranks(ranks_kind, len(data))
        tables = LSHTables(family, 7, seed=k).fit(data, ranks)
        assert tables._batch_hasher is not None
        expected = [
            oracle_build_table(keys, ranks)
            for keys in tables._batch_hasher.keys_for_dataset(data)
        ]
        assert_same_tables(tables._tables, expected)
        # Repeated points share a bucket in every table.
        for table in tables._tables:
            assert max(len(bucket) for bucket in table.values()) >= 2

    def test_an_and_composition_of_one_keeps_1_tuple_keys(self):
        data = item_sets(4, 160)
        tables = LSHTables(MinHashFamily().concatenate(1), 3, seed=1).fit(data)
        expected = [oracle_build_table(keys, None) for keys in tables._batch_hasher.keys_for_dataset(data)]
        assert_same_tables(tables._tables, expected)
        assert all(type(key) is tuple and len(key) == 1 for key in tables._tables[0])

    @pytest.mark.parametrize("ranks_kind", ["none", "ties"])
    def test_non_integer_keys_keep_the_dict_grouping(self, ranks_kind):
        keys = ["b", "a", "b", ("x", 1), "a", None, ("x", 1), "c"]
        ranks = _ranks(ranks_kind, len(keys))
        built = LSHTables._build_table(keys, ranks, None)
        assert_same_table(built, oracle_build_table(keys, ranks))

    @pytest.mark.parametrize("ranks_kind", ["none", "ties"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_families_without_a_batch_hasher_take_the_sorted_build(self, k, ranks_kind):
        """Hyperplane keys come from per-function hashing; their int and
        int-tuple key lists are built as code blocks, in sorted key order."""
        data = vectors(5, 120)
        ranks = _ranks(ranks_kind, len(data))
        family = HyperplaneFamily(6) if k == 1 else HyperplaneFamily(6).concatenate(k)
        tables = LSHTables(family, 5, seed=2).fit(data, ranks)
        assert tables._batch_hasher is None
        for function, table in zip(tables._functions, tables._tables):
            assert_same_table(table, oracle_build_table(function.hash_dataset(data), ranks))
            assert list(table) == sorted(table)

    @pytest.mark.parametrize("ranks_kind", ["none", "ties"])
    def test_a_nested_and_composition_hashes_function_by_function(self, ranks_kind):
        """``H^2`` composed again three times keys each of the ``L`` tables
        by a 3-tuple of 2-tuples, as each drawn function hashes it."""
        data = item_sets(8, 150)
        ranks = _ranks(ranks_kind, len(data))
        family = MinHashFamily().concatenate(2).concatenate(3)
        tables = LSHTables(family, 6, seed=4).fit(data, ranks)
        assert tables._batch_hasher is None
        assert len(tables._tables) == tables.num_tables == 6
        for function, table in zip(tables._functions, tables._tables):
            keys = function.hash_dataset(data)
            assert_same_table(table, oracle_build_table(keys, ranks))
            assert all(
                len(key) == 3 and all(type(part) is tuple and len(part) == 2 for part in key)
                for key in table
            )
        queries = data[:5] + [frozenset({1, 200})]
        assert tables.query_keys_many(queries) == [
            [function(query) for function in tables._functions] for query in queries
        ]

    def test_dynamic_fit_equals_the_oracle(self):
        from repro.engine.dynamic import DynamicLSHTables

        data = item_sets(6, 140)
        ranks = np.repeat(np.arange(70, dtype=np.int64) * (2**62 // 70), 2)
        tables = DynamicLSHTables(MinHashFamily().concatenate(2), 6, seed=3).fit(data, ranks)
        expected = [
            oracle_build_table(keys, ranks)
            for keys in tables._batch_hasher.keys_for_dataset(data)
        ]
        assert_same_tables(tables._tables, expected)


# ----------------------------------------------------------------------
# Engines for the snapshot checks
# ----------------------------------------------------------------------
def _queries(name: str) -> list:
    if name.startswith(("minhash", "onebit")):
        return item_sets(21, 40)[:12]
    return list(vectors(2, 150)[20:32] + 0.1)


def _joining(name: str) -> list:
    if name.startswith(("minhash", "onebit")):
        return item_sets(23, 20)[:6]
    return list(vectors(24, 20)[:6])


def make_engine(name: str) -> BatchQueryEngine:
    """One engine per checked-in snapshot, churned before it is saved."""
    if name == "minhash-k2":
        sampler = IndependentFairSampler(
            MinHashFamily(), radius=0.45, far_radius=0.2, num_hashes=2, num_tables=8, seed=5
        )
        engine = BatchQueryEngine.build(sampler, item_sets(1, 150), seed=5)
    elif name == "pstable-k1":
        sampler = PermutationFairSampler(
            PStableFamily(dim=6, width=3.0), radius=2.5, far_radius=5.0,
            num_hashes=1, num_tables=6, seed=2,
        )
        engine = BatchQueryEngine.build(sampler, list(vectors(2, 150)), seed=2)
    elif name == "onebit-k3-static":
        sampler = PermutationFairSampler(
            OneBitMinHashFamily(), radius=0.45, far_radius=0.2, num_hashes=3, num_tables=5, seed=3
        )
        return BatchQueryEngine.build(sampler, item_sets(3, 120), dynamic=False, seed=3)
    else:
        raise KeyError(name)
    engine.sample_batch(_queries(name))
    engine.insert_many(_joining(name))
    for index in (4, 9, 17, 30, 151):
        engine.delete(index)
    engine.sample_batch(_queries(name))
    return engine


def play(engine: BatchQueryEngine, name: str) -> dict:
    record = {"loaded": engine.sample_batch(_queries(name))}
    if not name.endswith("static"):
        engine.insert_many(_joining(name)[:3])
        engine.delete(40)
        record["after_mutation"] = engine.sample_batch(_queries(name))
    return record


SNAPSHOTS = pathlib.Path(__file__).parent / "data" / "table_build_snapshots"
_ENGINES = ["minhash-k2", "pstable-k1", "onebit-k3-static"]
_CASES = [f"{name}-v{version}" for name in _ENGINES for version in (3, 5)]


def _split(case: str):
    name, version = case.rsplit("-v", 1)
    return name, int(version)


def write_snapshots(directory: pathlib.Path) -> None:
    """Write every v5 case's snapshot and the answers after loading it.

    ``save_engine`` writes v5 only: the v3 cases and their answers, written
    by an earlier release, are kept from an ``expected.json`` already in
    *directory*.  Run as
    ``PYTHONPATH=src python tests/test_table_build.py <directory>``.
    """
    path = directory / "expected.json"
    expected = json.loads(path.read_text()) if path.exists() else {}
    for case in _CASES:
        name, version = _split(case)
        if version == 5:
            save_engine(make_engine(name), directory / case)
            expected[case] = play(load_engine(directory / case), name)
    path.write_text(json.dumps(expected, indent=1) + "\n")


def _source_engine(case: str) -> BatchQueryEngine:
    """A v5 case's engine built now, or a v3 case's loaded from its snapshot."""
    name, version = _split(case)
    return make_engine(name) if version == 5 else load_engine(SNAPSHOTS / case)


def _saved_arrays(directory: pathlib.Path) -> Dict[str, np.ndarray]:
    if (directory / "arrays.npz").exists():
        with np.load(directory / "arrays.npz", allow_pickle=False) as arrays:
            return {name: arrays[name] for name in arrays.files}
    return {path.stem: np.load(path) for path in (directory / "arrays").glob("*.npy")}


def _raw_keys(directory: pathlib.Path) -> list:
    """The pickled per-table bucket key entries, as the snapshot writer left them."""
    with open(directory / "objects.pkl", "rb") as handle:
        return pickle.load(handle)["bucket_keys"]


def _keys_list(entry, arrays) -> list:
    """A bucket key entry as the list of key objects it stands for."""
    decoded = _decode_keys(entry, arrays)
    if isinstance(decoded, np.ndarray):
        return decoded.tolist() if decoded.ndim == 1 else [tuple(r) for r in decoded.tolist()]
    return list(decoded)


def _saved_bucket_keys(directory: pathlib.Path, arrays) -> list:
    return [_keys_list(entry, arrays) for entry in _raw_keys(directory)]


# ----------------------------------------------------------------------
# Pack and restore
# ----------------------------------------------------------------------
class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("case", _CASES)
    def test_pack_equals_the_per_bucket_oracle(self, case):
        tables = _source_engine(case).tables
        arrays: Dict[str, np.ndarray] = {}
        bucket_keys = _pack_tables(tables, arrays)
        expected_arrays: Dict[str, np.ndarray] = {}
        expected_keys = oracle_pack_tables(tables, expected_arrays)
        assert [_keys_list(entry, arrays) for entry in bucket_keys] == expected_keys
        table_arrays = {name: array for name, array in arrays.items() if not name.endswith("_keys")}
        assert table_arrays.keys() == expected_arrays.keys()
        for array_name, expected_array in expected_arrays.items():
            got = table_arrays[array_name]
            assert got.dtype == expected_array.dtype and np.array_equal(got, expected_array)

    @pytest.mark.parametrize("case", _CASES)
    def test_every_table_round_trips_exactly(self, case, tmp_path):
        engine = _source_engine(case)
        save_engine(engine, tmp_path / "snap")
        loaded = load_engine(tmp_path / "snap")
        assert_same_tables(loaded.tables._tables, engine.tables._tables)
        # The restore equals the per-bucket loop over the same arrays.
        arrays = _saved_arrays(tmp_path / "snap")
        keys = _saved_bucket_keys(tmp_path / "snap", arrays)
        raw_keys = _raw_keys(tmp_path / "snap")
        has_ranks = engine.tables.ranks is not None
        for table_index, table in enumerate(loaded.tables._tables):
            assert_same_table(
                table, oracle_restore_table(arrays, table_index, keys[table_index], has_ranks)
            )
            entry = _decode_keys(raw_keys[table_index], arrays)
            assert_same_table(_restore_table(arrays, table_index, entry, has_ranks), table)

    def test_a_nested_and_composition_round_trips(self, tmp_path):
        """A sampler given ``H^2`` with ``num_hashes = 3`` keys its tables by
        tuples of tuples; the snapshot holds exactly its ``L`` tables."""
        sampler = IndependentFairSampler(
            MinHashFamily().concatenate(2), radius=0.45, far_radius=0.2,
            num_hashes=3, num_tables=4, seed=6,
        )
        engine = BatchQueryEngine.build(sampler, item_sets(9, 120), seed=6)
        assert engine.tables.num_tables == len(engine.tables._tables) == 4
        queries = item_sets(21, 40)[:8]
        save_engine(engine, tmp_path / "snap")
        loaded = load_engine(tmp_path / "snap")
        assert_same_tables(loaded.tables._tables, engine.tables._tables)
        assert loaded.sample_batch(queries) == engine.sample_batch(queries)

    def test_empty_tables_round_trip(self, tmp_path):
        engine = make_engine("minhash-k2")
        for index in np.flatnonzero(engine.tables.alive).tolist():
            engine.delete(index)
        save_engine(engine, tmp_path / "snap")
        loaded = load_engine(tmp_path / "snap")
        assert all(table == {} for table in loaded.tables._tables)
        arrays = _saved_arrays(tmp_path / "snap")
        assert arrays["t0_indices"].dtype == np.intp and arrays["t0_indices"].size == 0
        assert arrays["t0_ranks"].dtype == np.int64 and arrays["t0_ranks"].size == 0
        assert arrays["t0_offsets"].tolist() == [0]


# ----------------------------------------------------------------------
# Bucket key encoding
# ----------------------------------------------------------------------
_KEY_LISTS = {
    "empty": [],
    "ints": [3, -1, 2**62, 0],
    "pairs": [(1, 2), (3, -4), (2**40, 0)],
    "triples": [(1, 2, 3), (4, 5, 6)],
    "zero_width": [(), ()],
    "numpy_ints": [np.int64(1), np.int64(2)],
    "numpy_int_first_tuple": [(np.int64(1), 2), (3, 4)],
    "numpy_int_later_tuple": [(1, 2), (np.int32(3), 4)],
    "ragged": [(1, 2), (3,)],
    "ragged_same_total": [(1, 2), (3,), (4, 5, 6)],
    "strings": ["a", "b"],
    "string_tuples": [("a", 1), ("b", 2)],
    "float_first": [(1.0, 2), (3, 4)],
    "float_later": [(1, 2), (3, 4.5)],
    "bool_first": [(True, 2), (3, 4)],
    "int_then_tuple": [1, (2, 3)],
    "tuple_then_int": [(2, 3), 1],
    "tuple_then_list": [(2, 3), [4, 5]],
    "nested": [((1, 2), (3, 4)), ((5, 6), (7, 8))],
    "nested_later": [(1, 2), ((3,), 4)],
    "none_later": [(1, 2), (None, 4)],
    "overflow_later": [(1, 2), (2**64, 4)],
}


class TestKeyEncoding:
    @pytest.mark.parametrize("kind", sorted(_KEY_LISTS))
    def test_decides_and_encodes_as_the_oracle(self, kind):
        keys = _KEY_LISTS[kind]
        arrays: Dict[str, np.ndarray] = {}
        expected_arrays: Dict[str, np.ndarray] = {}
        entry = _encode_keys(keys, "t0_keys", arrays)
        expected = oracle_encode_keys(keys, "t0_keys", expected_arrays)
        assert entry == expected
        assert (entry is keys) == (expected is keys)
        assert arrays.keys() == expected_arrays.keys()
        for name, array in expected_arrays.items():
            assert arrays[name].dtype == array.dtype
            assert arrays[name].shape == array.shape
            assert np.array_equal(arrays[name], array)

    @pytest.mark.parametrize("case", _CASES)
    def test_real_table_keys_encode_as_the_oracle(self, case):
        tables = _source_engine(case).tables
        for table in tables._tables:
            keys = list(table)
            arrays: Dict[str, np.ndarray] = {}
            expected_arrays: Dict[str, np.ndarray] = {}
            assert _encode_keys(keys, "k", arrays) == oracle_encode_keys(
                keys, "k", expected_arrays
            )
            assert arrays.keys() == expected_arrays.keys()
            for name, array in expected_arrays.items():
                assert arrays[name].dtype == array.dtype
                assert np.array_equal(arrays[name], array)


# ----------------------------------------------------------------------
# Snapshots written before the code-matrix build
# ----------------------------------------------------------------------
class TestCheckedInSnapshots:
    @pytest.fixture(scope="class")
    def expected(self):
        return json.loads((SNAPSHOTS / "expected.json").read_text())

    @pytest.mark.parametrize("case", _CASES)
    def test_loads_and_answers_identically(self, case, expected):
        name, _ = _split(case)
        assert play(load_engine(SNAPSHOTS / case), name) == expected[case]

    @pytest.mark.parametrize("case", _CASES)
    def test_this_build_writes_the_same_tables(self, case, tmp_path):
        """The same engine, built and saved now, writes the checked-in
        arrays and bucket keys: the build and the pack leave every table
        as the release before them did.  The v5 write holds every array of
        the v3 one, plus the dataset and the bucket keys."""
        name, version = _split(case)
        save_engine(make_engine(name), tmp_path / case)
        saved = _saved_arrays(SNAPSHOTS / case)
        written = _saved_arrays(tmp_path / case)
        if version == 5:
            assert written.keys() == saved.keys()
        else:
            assert saved.keys() < written.keys()
        for array_name, array in saved.items():
            assert written[array_name].dtype == array.dtype, array_name
            assert np.array_equal(written[array_name], array), array_name
        assert _saved_bucket_keys(tmp_path / case, written) == _saved_bucket_keys(
            SNAPSHOTS / case, saved
        )


if __name__ == "__main__":
    write_snapshots(pathlib.Path(sys.argv[1]))
