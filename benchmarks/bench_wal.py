"""WAL overhead benchmark: what durability costs per mutation.

The durable facade journals every insert/delete to the write-ahead log
*before* applying it (see :mod:`repro.engine.wal`), so the interesting
number for an operator is mutation throughput per fsync policy relative to
a WAL-less facade, persisted to ``benchmarks/results/wal_throughput.json``:

* **off** — flush per append, never fsync.  Survives process crash
  (``kill -9`` included: the bytes are in the OS page cache); power loss
  may drop the un-synced suffix.  Should cost single-digit percent.
* **interval** — flush per append + opportunistic fsync at most once per
  ``fsync_interval`` seconds.  The default: bounds power-loss exposure at
  near-``off`` cost.
* **always** — fsync per append.  Survives power loss; the fsync dominates
  the mutation path, and the measured gap is the price tag.

Two measurements are taken: **raw** ``WriteAheadLog.append`` throughput
(isolates the journal; the fsync cliff is unmistakable) and **end-to-end**
facade mutation throughput (what an operator actually observes — noisier,
because the in-memory apply path with its amortized compaction dominates).
Each end-to-end row is the median of ``REPEATS`` runs with the min–max
beside it.  Runs are interleaved: every round serves one fresh facade per
arm, and the arm order rotates from round to round, so every arm sees the
same stretch of host noise in every position.

The recovered state is asserted live-count-identical to the served facade
after each run, so every measured configuration is also a correctness run.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time

import numpy as np

from benchmarks.conftest import write_result, write_result_json
from repro import FairNN, LSHSpec, SamplerSpec
from repro.data import generate_lastfm_like
from repro.engine.wal import WriteAheadLog

N_APPENDS = 2_000
N_USERS = 1_000
N_BATCHES = 150
BATCH_SIZE = 4
REPEATS = 5
#: The end-to-end arms: no WAL, then each fsync policy.
ARMS = ("no_wal", "off", "interval", "always")
SPEC = SamplerSpec(
    "permutation",
    {"radius": 0.2, "far_radius": 0.1, "recall": 0.95},
    lsh=LSHSpec("minhash"),
    seed=17,
)


def _mutation_batches(seed=3):
    rng = np.random.default_rng(seed)
    return [
        [
            frozenset(int(x) for x in rng.choice(3000, size=rng.integers(8, 20)))
            for _ in range(BATCH_SIZE)
        ]
        for _ in range(N_BATCHES)
    ]


def _run_mutations(nn, batches):
    start = time.perf_counter()
    for batch in batches:
        indices = nn.insert_many(batch)
        nn.delete(indices[0])
    return time.perf_counter() - start


def _raw_append_rates():
    """Appends/s of the bare journal per policy — isolates the fsync cost."""
    payload = {
        "op": "insert",
        "points": [frozenset(range(100, 115))] * BATCH_SIZE,
        "key": None,
    }
    rates = {}
    for policy in ("off", "interval", "always"):
        tmp = tempfile.mkdtemp(prefix=f"wal-raw-{policy}-")
        try:
            wal = WriteAheadLog.open(f"{tmp}/wal", fsync=policy)
            for _ in range(100):  # warm the segment + allocator
                wal.append(payload)
            start = time.perf_counter()
            for _ in range(N_APPENDS):
                wal.append(payload)
            rates[policy] = round(N_APPENDS / (time.perf_counter() - start), 1)
            wal.close()
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    return rates


def _timed_arm(arm, users, batches):
    """One run of one arm: ``(seconds, live count, journal bytes)``.

    The ``no_wal`` arm serves without a data directory; the others serve
    from a fresh one with that fsync policy, and recovery from it must
    reproduce the served live count.
    """
    durable = arm != "no_wal"
    tmp = tempfile.mkdtemp(prefix=f"wal-bench-{arm}-")
    try:
        options = {"data_dir": f"{tmp}/d", "fsync": arm} if durable else {}
        nn = FairNN.from_spec(SPEC).serve(users, **options)
        _run_mutations(nn, batches[:10])  # warm the columnar store
        seconds = _run_mutations(nn, batches)
        live = nn.num_live_points
        journal_bytes = nn.durability()["wal_appended_bytes"] if durable else 0
        nn.close()
        if durable:
            recovered = FairNN.recover(f"{tmp}/d")
            assert recovered.num_live_points == live
            recovered.close()
        return seconds, live, journal_bytes
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def test_wal_mutation_overhead():
    """Insert/delete throughput: no WAL vs each fsync policy, plus recovery."""
    raw = _raw_append_rates()
    users = generate_lastfm_like(num_users=N_USERS, seed=1)
    batches = _mutation_batches()
    mutations = N_BATCHES * 2  # one insert batch + one delete per round

    seconds = {arm: [] for arm in ARMS}
    journal = {}
    live_counts = set()
    for round_index in range(REPEATS):
        shift = round_index % len(ARMS)
        for arm in ARMS[shift:] + ARMS[:shift]:
            elapsed, live, journal[arm] = _timed_arm(arm, users, batches)
            seconds[arm].append(elapsed)
            live_counts.add(live)
    # Same history in every run => same live count.
    assert len(live_counts) == 1

    baseline = statistics.median(seconds["no_wal"])
    rows = {}
    for arm in ARMS:
        median = statistics.median(seconds[arm])
        rows[arm] = {
            "mutations_per_second": round(mutations / median, 1),
            "mutations_per_second_min": round(mutations / max(seconds[arm]), 1),
            "mutations_per_second_max": round(mutations / min(seconds[arm]), 1),
            "overhead_vs_no_wal": round(median / baseline, 3),
            "runs": len(seconds[arm]),
        }
        if arm != "no_wal":
            rows[arm]["wal_appended_bytes"] = journal[arm]
            rows[arm]["recovery_verified"] = True

    lines = [
        f"raw journal appends ({N_APPENDS} x {BATCH_SIZE}-point insert payloads):",
    ]
    for policy in ("off", "interval", "always"):
        lines.append(f"  fsync={policy:<9} {raw[policy]:10.0f} appends/s")
    lines += [
        "",
        f"end-to-end: {N_USERS} users, {N_BATCHES} rounds of insert x{BATCH_SIZE} + delete,",
        f"median (min-max) of {REPEATS} interleaved runs per arm",
    ]
    for arm in ARMS:
        row = rows[arm]
        label = "no WAL" if arm == "no_wal" else f"fsync={arm}"
        spread = (
            f"{row['mutations_per_second']:6.0f} mutations/s "
            f"({row['mutations_per_second_min']:.0f}-{row['mutations_per_second_max']:.0f})"
        )
        if arm == "no_wal":
            lines.append(f"  {label:<15} {spread} (baseline)")
        else:
            lines.append(
                f"  {label:<15} {spread} {row['overhead_vs_no_wal']:.2f}x baseline cost, "
                f"{row['wal_appended_bytes']} journal bytes"
            )
    no_wal = rows["no_wal"]
    for policy in ("off", "interval", "always"):
        row = rows[policy]
        if row["mutations_per_second"] > no_wal["mutations_per_second"]:
            overlap = row["mutations_per_second_min"] <= no_wal["mutations_per_second_max"]
            lines.append(
                f"note: fsync={policy} reads faster than no WAL in the median; "
                + (
                    "the two ranges overlap, so the order is run-to-run noise"
                    if overlap
                    else "the ranges do not overlap"
                )
            )
    lines.append("recovery: every policy's directory recovered to the served live count")

    payload = {
        "workload": {
            "users": N_USERS,
            "rounds": N_BATCHES,
            "insert_batch_size": BATCH_SIZE,
            "mutations": mutations,
            "raw_appends": N_APPENDS,
            "repeats": REPEATS,
        },
        "raw_appends_per_second": raw,
        "no_wal": rows["no_wal"],
        "policies": {policy: rows[policy] for policy in ("off", "interval", "always")},
    }
    write_result("wal_throughput", "\n".join(lines))
    write_result_json("wal_throughput", payload)
    print("\n".join(lines))

    # Durability must be an overhead, not a cliff: the flush-only policies
    # stay within 3x of WAL-less mutation throughput on this workload (the
    # loose bound absorbs the apply path's amortized-compaction jitter).
    assert rows["off"]["overhead_vs_no_wal"] < 3.0, lines
    assert rows["interval"]["overhead_vs_no_wal"] < 3.0, lines
