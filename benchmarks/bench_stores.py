"""Storage-backend benchmark: cold-start-to-first-query and steady state.

The point of the out-of-core tiers is the *cold path*: a format-5 snapshot
loaded with ``store="memmap"`` opens the dataset and bucket arrays as
memory maps — file headers, not the corpus — so a serving process answers
its first query without materializing 100k vectors it may never touch.
This benchmark measures, on a 100k-point dense workload, one v5 snapshot
(the only format ``save_engine`` writes) served through all three
backends:

* **cold start** — ``load_engine`` wall time, and wall time to the *first
  answered query*, for ``inram`` (everything materialized), ``memmap`` and
  ``remote``; each is the median of ``REPEATS`` fresh loads in this
  process (the snapshot's files sit in the page cache), with the
  spread (min–max) recorded;
* **resident corpus** — the store's resident bytes after the first
  query (``DatasetStore.nbytes``: all buffers in RAM, only the overlay
  and caches out-of-core);
* **steady state** — batched query throughput per backend once warm, so
  the price of lazy tiers under sustained load is visible next to their
  cold-start win (remote runs against an in-process block client: the
  protocol + cache overhead without network noise);
* **identity** — the first responses of every load are asserted
  identical, so every measured configuration is also a correctness run.

Results persist to ``benchmarks/results/store_backends.{json,txt}``.  The
guard at the bottom pins what the memmap tier is for: its cold start
beats the materializing in-RAM load at least 2x, and it keeps at most a
tenth of the in-RAM store's resident bytes.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import tempfile
import time

import numpy as np
import numpy.ma  # noqa: F401 - pre-warm numpy's lazy submodule import so the
# first measured query times storage, not a one-time interpreter cost (it
# would otherwise land in whichever backend queries first).

from benchmarks.conftest import write_result, write_result_json
from repro.engine import BatchQueryEngine, load_engine, save_engine
from repro.engine.requests import QueryRequest
from repro.spec import LSHSpec, SamplerSpec
from repro.store import LocalBlockClient

N_POINTS = 100_000
DIM = 128
N_QUERIES = 64
STEADY_BATCHES = 3
REPEATS = 5
REMOTE_STORE = {"backend": "remote", "cache_blocks": 256, "block_size": 512}
# The permutation sampler keeps its snapshot state small (no per-bucket
# sketches), so the cold path measures the storage tiers, not pickling of
# sampler-specific auxiliary structures.
SPEC = SamplerSpec(
    "permutation",
    {"radius": 0.7, "far_radius": 0.2, "num_hashes": 10, "num_tables": 6},
    lsh=LSHSpec("hyperplane", {"dim": DIM}),
    seed=23,
)


def _dataset():
    rng = np.random.default_rng(11)
    points = rng.standard_normal((N_POINTS, DIM))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    return np.ascontiguousarray(points)


def _cold_start(directory, first_query, **load_kwargs):
    """(engine, seconds to loaded, seconds to first answered query)."""
    start = time.perf_counter()
    engine = load_engine(directory, **load_kwargs)
    loaded = time.perf_counter() - start
    response = engine.run([QueryRequest(query=first_query)])[0]
    answered = time.perf_counter() - start
    return engine, loaded, answered, response


def _steady_qps(engine, queries):
    requests = [QueryRequest(query=q) for q in queries]
    engine.run(requests)  # warm caches / lazy tiers
    start = time.perf_counter()
    for _ in range(STEADY_BATCHES):
        engine.run(requests)
    return STEADY_BATCHES * len(requests) / (time.perf_counter() - start)


def _summary(values, digits=4):
    return {
        "median": round(statistics.median(values), digits),
        "min": round(min(values), digits),
        "max": round(max(values), digits),
    }


def test_store_backend_cold_start_and_throughput():
    points = _dataset()
    rng = np.random.default_rng(29)
    queries = [points[int(i)] for i in rng.choice(N_POINTS, size=N_QUERIES, replace=False)]

    tmp = tempfile.mkdtemp(prefix="bench-stores-")
    try:
        engine = BatchQueryEngine.build(SPEC.build(), points)
        save_engine(engine, f"{tmp}/v5")
        del engine

        runs = {
            "inram": lambda: {},
            "memmap": lambda: {"store": "memmap"},
            "remote": lambda: {
                "store": REMOTE_STORE, "block_client": LocalBlockClient(f"{tmp}/v5")
            },
        }
        rows, reference = {}, None
        for name, load_kwargs in runs.items():
            loads, answers, resident, qps = [], [], [], []
            for _ in range(REPEATS):
                gc.collect()
                engine, loaded, answered, response = _cold_start(
                    f"{tmp}/v5", queries[0], **load_kwargs()
                )
                # Every load of every backend answers identically.
                reference = reference or response
                assert response.indices == reference.indices, name
                assert response.value == reference.value, name
                loads.append(loaded)
                answers.append(answered)
                resident.append(engine._current_store().nbytes)
                qps.append(_steady_qps(engine, queries))
                del engine
            rows[name] = {
                "load_seconds": _summary(loads),
                "cold_start_to_first_query_seconds": _summary(answers),
                "resident_store_mb": round(max(resident) / 2**20, 2),
                "steady_queries_per_second": _summary(qps, digits=1),
            }

        speedup = round(
            rows["inram"]["cold_start_to_first_query_seconds"]["median"]
            / rows["memmap"]["cold_start_to_first_query_seconds"]["median"],
            1,
        )
        payload = {
            "workload": {
                "points": N_POINTS,
                "dim": DIM,
                "queries": N_QUERIES,
                "steady_batches": STEADY_BATCHES,
                "repeats": REPEATS,
                "remote_store": REMOTE_STORE,
            },
            "backends": rows,
            "memmap_cold_start_speedup_vs_inram": speedup,
        }
        lines = [
            "store backends: cold start to first query / steady throughput",
            f"(median of {REPEATS} loads of one v5 snapshot, min-max in brackets)",
            "",
        ]
        for name, row in rows.items():
            load, first = row["load_seconds"], row["cold_start_to_first_query_seconds"]
            steady = row["steady_queries_per_second"]
            lines.append(
                f"{name:>6}: load {load['median'] * 1e3:7.1f} ms "
                f"[{load['min'] * 1e3:.1f}-{load['max'] * 1e3:.1f}]   "
                f"first query {first['median'] * 1e3:7.1f} ms "
                f"[{first['min'] * 1e3:.1f}-{first['max'] * 1e3:.1f}]   "
                f"store {row['resident_store_mb']:6.1f} MB   "
                f"steady {steady['median']:7.1f} q/s [{steady['min']:.1f}-{steady['max']:.1f}]"
            )
        lines.append("")
        lines.append(f"memmap cold-start speedup vs inram: {speedup}x")
        write_result("store_backends", "\n".join(lines))
        write_result_json("store_backends", payload)
        print("\n".join(lines))

        # Mapping beats materializing on the cold path, and the corpus stays
        # in the page cache instead of the process.
        assert speedup >= 2.0, lines
        assert rows["memmap"]["resident_store_mb"] * 10 <= rows["inram"]["resident_store_mb"], lines
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
