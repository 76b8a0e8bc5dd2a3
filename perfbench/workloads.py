"""The three workloads: inputs from the seed, set-up, timed closed loop, checks.

Every workload is one load-generating thread issuing one call at a time
(closed loop): the next call is sent when the previous one returned.  The
loop runs until ``--seconds`` have passed *and* ``MIN_ROUNDS`` rounds have
completed; the answers of the first rounds form the run's digest, so two
runs with one seed — traced or not — must print the same digest however
fast the machine was.

Answers are recorded during the loop and checked against
:mod:`truth` afterwards, replaying the loop's mutations in order, so the
checks cost the timed loop nothing.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

import reference
from truth import DenseTruth, SetTruth

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Seed of every index (hash functions, ranks, query-time randomness).  It
#: is pinned like (K, L): runs differ in data and traffic only, because one
#: MinHash draw alone moves the colliding-view size by about a tenth.
INDEX_SEED = 17
#: Seed of the embeddings' cluster centers.  The corpus's shape is fixed
#: like the index's; the run's seed draws the points, queries and
#: mutations from it.  (Which clusters share a bucket sets how much a
#: query gathers and an insert splices.)
CORPUS_SEED = 11

# Where each figure comes from is tabled in README.md ("Traffic").
# Dense clustered embeddings (embed-read, http-recover): the corpus, query
# shape and index of benchmarks/bench_sharded.py (Section 3 permutation
# sampler, p-stable LSH, K=2, L=10), at 40k points instead of 100k.
EMBED_POINTS = 40_000
EMBED_DIM = 24
EMBED_CLUSTERS = 400
EMBED_RADIUS = 2.8
EMBED_PARAMS = {"radius": EMBED_RADIUS, "far_radius": 6.0, "num_hashes": 2, "num_tables": 10}
EMBED_LSH = {"dim": EMBED_DIM, "width": 8.0}
#: bench_sharded.py's query count, kept as a fixed pool.
QUERY_POOL = 300
#: bench_engine.py's heavy-tailed traffic: ``rng.zipf(1.3) % pool``.
ZIPF_EXPONENT = 1.3
#: bench_stores.py's steady-state batch.
QUERY_BATCH = 64
#: bench_wal.py's mutation round: one ``insert_many`` of 4, then one delete.
INSERT_BATCH = 4

# Last.FM-like sets (sets-churn): Section 4 independent sampler, MinHash
# with (K, L) pinned — the recall rule would pick L in the hundreds.
SET_USERS = 4_000
SET_PARAMS = {"radius": 0.2, "num_hashes": 2, "num_tables": 50}
#: bench_wal.py's batch size; about 30 ms a query, so a run still makes
#: well over the 100 calls a p90 needs.
SET_QUERY_BATCH = 4
#: bench_wal.py's joining users: 8 to 19 items drawn from the first 3000.
NEW_SET_ITEMS = 3000
NEW_SET_SIZES = (8, 20)

#: Mutation rounds journaled into http-recover's WAL suffix before boot:
#: 800 records, so that replay makes the boot last over half a second.
WAL_SUFFIX_ROUNDS = 400
#: Rounds whose answers form the digest.
DIGEST_ROUNDS = {"embed-read": 40, "sets-churn": 30, "http-recover": 40}
#: Fewest rounds (one query call each) of every loop, so that a p90 has at
#: least ten calls beyond it however slow the machine; this also covers
#: the digest rounds.
MIN_ROUNDS = 100

#: What :meth:`Recorder.call` returns for a call that raised.
FAILED = object()

# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
@dataclass
class Recorder:
    """Times every call into the system; a failed call is counted, never hidden."""

    tracer: Optional[object] = None
    latencies: Dict[str, List[float]] = field(
        default_factory=lambda: {"query": [], "mutation": []}
    )
    #: per call, the loop round it was made in
    rounds: Dict[str, List[int]] = field(default_factory=lambda: {"query": [], "mutation": []})
    #: per call, round trip minus the time the server spent inside the facade
    server_self_ns: Dict[str, List[int]] = field(
        default_factory=lambda: {"query": [], "mutation": []}
    )
    #: reference-job times taken between rounds (ms)
    ref_ms: List[float] = field(default_factory=list)
    queries: int = 0
    attempted: int = 0
    failed: int = 0
    digest: object = field(default_factory=hashlib.sha256)

    def tick(self) -> None:
        """Time one reference job between rounds (outside every timed call)."""
        self.ref_ms.append(reference.ms())

    def call(self, kind: str, fn: Callable, *args, span: Optional[str] = None, inner=None):
        """Run one call; returns its result, or :data:`FAILED` when it raised."""
        self.attempted += 1
        self.rounds[kind].append(len(self.ref_ms))
        tracer = self.tracer if span is not None else None
        inner_before = tracer.inclusive_ns(inner) if tracer is not None else 0
        start = time.perf_counter()
        try:
            result = fn(*args) if tracer is None else tracer.span(span, fn, *args)
        except Exception:  # the loop must go on; the failure is reported
            self.failed += 1
            self.latencies[kind].append(math.inf)
            if self.failed <= 3:
                traceback.print_exc(file=sys.stderr)
            return FAILED
        elapsed = time.perf_counter() - start
        self.latencies[kind].append(elapsed)
        if tracer is not None:
            inner_ns = tracer.inclusive_ns(inner) - inner_before
            self.server_self_ns[kind].append(int(elapsed * 1e9) - inner_ns)
        return result

    def fold(self, record) -> None:
        self.digest.update(json.dumps(record, separators=(",", ":")).encode())


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    recorder: Recorder
    setup_s: List[float]
    #: reference-job times taken around the set-ups (ms)
    setup_ref_ms: List[float]
    loop_wall_s: float
    answers: int
    valid: int
    eligible: int
    answered_eligible: int
    counters: Dict[str, int]
    setup_spans: Dict[str, List[int]]
    wal_bytes_per_record: float
    #: the index's live count equals the mirror's after the loop
    consistent: bool
    notes: List[str]


def _percentile_ms(values: List[float], pct: float, cap_s: float) -> float:
    """Nearest-rank percentile; a failed call (inf) reads as the whole window."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return min(ordered[rank - 1], cap_s) * 1000.0


def end_to_end(outcome: Outcome, peak_rss_mb: float, scaled: bool = True) -> Dict[str, float]:
    """The end-to-end metrics; *scaled* puts times at nominal machine speed."""
    rec = outcome.recorder
    setup_slow = reference.slowness(outcome.setup_ref_ms) if scaled else 1.0
    local = reference.local_slowness(rec.ref_ms) if scaled else None
    latencies = {}
    for kind, values in rec.latencies.items():
        if local is None:
            latencies[kind] = values
        else:
            last = len(local) - 1
            latencies[kind] = [v / local[min(r, last)] for v, r in zip(values, rec.rounds[kind])]
    busy = {kind: sum(v for v in values if math.isfinite(v)) for kind, values in latencies.items()}
    window = outcome.loop_wall_s
    mutations_ok = sum(1 for v in latencies["mutation"] if math.isfinite(v))
    return {
        "setup_s": statistics.median(outcome.setup_s) / setup_slow,
        "qps": rec.queries / busy["query"] if busy["query"] else 0.0,
        "query_p50_ms": _percentile_ms(latencies["query"], 50, window),
        "query_p90_ms": _percentile_ms(latencies["query"], 90, window),
        "mutations_per_s": mutations_ok / busy["mutation"] if busy["mutation"] else 0.0,
        "mutation_p90_ms": _percentile_ms(latencies["mutation"], 90, window),
        "peak_rss_mb": peak_rss_mb,
        "answer_valid_ratio": outcome.valid / outcome.answers if outcome.answers else 0.0,
        "hit_rate": (
            outcome.answered_eligible / outcome.eligible if outcome.eligible else 0.0
        ),
        "ok_ratio": (rec.attempted - rec.failed) / rec.attempted if rec.attempted else 0.0,
    }


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class Embeddings:
    points: np.ndarray
    centers: np.ndarray
    pool: np.ndarray


def make_embeddings(seed: int) -> Embeddings:
    """Gaussian clusters; queries land near cluster centers (serving traffic)."""
    centers = np.random.default_rng(CORPUS_SEED).normal(size=(EMBED_CLUSTERS, EMBED_DIM)) * 2.0
    rng = np.random.default_rng([seed, 1])
    labels = rng.integers(0, EMBED_CLUSTERS, size=EMBED_POINTS)
    points = centers[labels] + rng.normal(size=(EMBED_POINTS, EMBED_DIM)) * 0.35
    pool_centers = centers[rng.integers(0, EMBED_CLUSTERS, size=QUERY_POOL)]
    pool = pool_centers + rng.normal(size=(QUERY_POOL, EMBED_DIM)) * 0.3
    return Embeddings(points, centers, pool)


def zipf_ids(rng: np.random.Generator) -> np.ndarray:
    """One batch of pool ids, heavy-tailed as in bench_engine.py."""
    return rng.zipf(ZIPF_EXPONENT, size=QUERY_BATCH) % QUERY_POOL


def new_points(rng: np.random.Generator, data: Embeddings, count: int) -> List[np.ndarray]:
    labels = rng.integers(0, EMBED_CLUSTERS, size=count)
    fresh = data.centers[labels] + rng.normal(size=(count, EMBED_DIM)) * 0.35
    return [fresh[i] for i in range(count)]


def new_sets(rng: np.random.Generator, count: int) -> List[frozenset]:
    """Joining users shaped as in bench_wal.py."""
    return [
        frozenset(int(x) for x in rng.choice(NEW_SET_ITEMS, size=rng.integers(*NEW_SET_SIZES)))
        for _ in range(count)
    ]


def pop_random(rng: np.random.Generator, live: List[int]) -> int:
    """A leaving user, uniform over the live ones as in examples/online_serving.py."""
    position = int(rng.integers(len(live)))
    victim = live[position]
    live[position] = live[-1]
    live.pop()
    return victim


def embed_spec():
    from repro import LSHSpec, SamplerSpec

    return SamplerSpec(
        "permutation", dict(EMBED_PARAMS), lsh=LSHSpec("pstable", dict(EMBED_LSH)), seed=INDEX_SEED
    )


def _counters(nn) -> Dict[str, int]:
    counters = nn.stats()[nn.primary].to_dict()
    # The engine copies this total only when a batch runs; read it at the source.
    counters["rebuilds_triggered"] = nn.tables.rebuilds_triggered
    return counters


def _delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {key: after[key] - before.get(key, 0) for key in after}


def _timed_setup(fn: Callable, setup_s: List[float], ref_ms: List[float]):
    """Time one set-up, with reference jobs just before and after it.

    The set-ups are scaled by the median of all these reference times
    together: a handful taken right after a set-up's file copies or frees
    reads the speed of that instant, not of the set-up.
    """
    ref_ms.extend(reference.ms() for _ in range(5))
    start = time.perf_counter()
    value = fn()
    setup_s.append(time.perf_counter() - start)
    ref_ms.extend(reference.ms() for _ in range(5))
    return value


def _take_setup_spans(tracer) -> Dict[str, List[int]]:
    if tracer is None:
        return {}
    spans = {name: list(tracer.durations.get(name, [])) for name in ("wal.replay", "snapshot.load")}
    tracer.reset()
    return spans


# ----------------------------------------------------------------------
# embed-read
# ----------------------------------------------------------------------
def embed_read(seed: int, seconds: float, tracer, workdir) -> Outcome:
    from repro import FairNN

    data = make_embeddings(seed)
    dataset = [data.points[i] for i in range(EMBED_POINTS)]
    setup_s: List[float] = []
    setup_ref_ms: List[float] = []
    built: list = []
    for _ in range(SETUP_REPEATS):
        if len(built) == 2:
            built.pop(0).close()
            gc.collect()
        built.append(_timed_setup(
            lambda: FairNN.from_spec(embed_spec()).serve(dataset), setup_s, setup_ref_ms
        ))
    setup_spans = _take_setup_spans(tracer)
    # The last build serves the reads and is never mutated; the one before
    # it takes one write round per read batch, so the mutation metrics
    # sample the same stretch of time as the reads.
    writer, reader = built

    truth = DenseTruth(data.points, EMBED_RADIUS)
    eligible_by_query = truth.has_neighbors(data.pool)
    writer_truth = DenseTruth(data.points, EMBED_RADIUS)
    live = list(range(EMBED_POINTS))
    rec = Recorder(tracer)
    rng = np.random.default_rng([seed, 2])
    reader.run(list(data.pool[:QUERY_BATCH]))  # first batch packs the columnar store
    if tracer is not None:
        tracer.reset()
    before = _counters(reader)
    writes_before = _counters(writer)
    log = []
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        ids = zipf_ids(rng)
        responses = rec.call("query", reader.run, [data.pool[i] for i in ids])
        answers = None if responses is FAILED else [r.index for r in responses]
        if answers is not None:
            rec.queries += len(answers)
        points = new_points(rng, data, INSERT_BATCH)
        slots = rec.call("mutation", writer.insert_many, points)
        if slots is FAILED:
            slots = None
        else:
            writer_truth.insert(slots, points)
            live.extend(slots)
        victim = pop_random(rng, live)
        if rec.call("mutation", writer.delete, victim) is FAILED:
            live.append(victim)
            victim = None
        else:
            writer_truth.delete(victim)
        if rounds < DIGEST_ROUNDS["embed-read"]:
            rec.fold([ids.tolist(), answers, slots, victim])
        log.append((ids, answers))
        rounds += 1
        rec.tick()
    wall = time.perf_counter() - start
    counters = _delta(_counters(reader), before)
    counters["rebuilds_triggered"] = _delta(_counters(writer), writes_before)["rebuilds_triggered"]
    notes = [f"writer live points: index {writer.num_live_points}, mirror {writer_truth.num_live}"]
    consistent = writer.num_live_points == writer_truth.num_live
    reader.close()
    writer.close()

    answers_n = valid = eligible = answered_eligible = 0
    for ids, answers in log:
        if answers is None:
            continue
        for qid, slot in zip(ids, answers):
            answers_n += 1
            valid += truth.valid(slot, data.pool[qid])
            if eligible_by_query[qid]:
                eligible += 1
                answered_eligible += slot is not None
    return Outcome(
        rec, setup_s, setup_ref_ms, wall, answers_n, valid, eligible, answered_eligible,
        counters, setup_spans, 0.0, consistent, notes,
    )


# ----------------------------------------------------------------------
# sets-churn
# ----------------------------------------------------------------------
def sets_churn(seed: int, seconds: float, tracer, workdir) -> Outcome:
    from repro import FairNN, LSHSpec, SamplerSpec
    from repro.data import generate_lastfm_like
    from repro.engine.requests import QueryRequest

    users = generate_lastfm_like(num_users=SET_USERS, seed=seed)
    spec = SamplerSpec("independent", dict(SET_PARAMS), lsh=LSHSpec("minhash"), seed=INDEX_SEED)
    setup_s: List[float] = []
    setup_ref_ms: List[float] = []
    nn = None
    for attempt in range(SETUP_REPEATS):
        if nn is not None:
            nn.close()
            nn = None
            gc.collect()
        data_dir = workdir / f"sets-{attempt}"
        nn = _timed_setup(
            lambda: FairNN.from_spec(spec).serve(users, data_dir=data_dir, fsync="off"),
            setup_s, setup_ref_ms,
        )
        if attempt:
            shutil.rmtree(workdir / f"sets-{attempt - 1}", ignore_errors=True)
    setup_spans = _take_setup_spans(tracer)

    sets: Dict[int, frozenset] = dict(enumerate(users))
    live = list(range(SET_USERS))
    rec = Recorder(tracer)
    rng = np.random.default_rng([seed, 3])
    nn.run([QueryRequest(query=sets[0], exclude_index=0)])  # warm-up
    if tracer is not None:
        tracer.reset()
    before = _counters(nn)
    wal_before = nn.durability()
    log = []
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        chosen = [live[int(rng.integers(len(live)))] for _ in range(SET_QUERY_BATCH)]
        requests = [QueryRequest(query=sets[s], exclude_index=s) for s in chosen]
        responses = rec.call("query", nn.run, requests)
        answers = None if responses is FAILED else [r.index for r in responses]
        if answers is not None:
            rec.queries += len(answers)
        joining = new_sets(rng, INSERT_BATCH)
        slots = rec.call("mutation", nn.insert_many, joining)
        if slots is FAILED:
            slots = None
        else:
            sets.update(zip(slots, joining))
            live.extend(slots)
        victim = pop_random(rng, live)
        if rec.call("mutation", nn.delete, victim) is FAILED:
            live.append(victim)
            victim = None
        if rounds < DIGEST_ROUNDS["sets-churn"]:
            rec.fold([chosen, answers, slots, victim])
        log.append((chosen, answers, slots, joining, victim))
        rounds += 1
        rec.tick()
    wall = time.perf_counter() - start
    counters = _delta(_counters(nn), before)
    wal_after = nn.durability()
    records = wal_after["wal_appended_records"] - wal_before["wal_appended_records"]
    wal_bytes = wal_after["wal_appended_bytes"] - wal_before["wal_appended_bytes"]
    index_live = nn.num_live_points
    nn.close()

    truth = SetTruth(users, SET_PARAMS["radius"])
    answers_n = valid = eligible = answered_eligible = 0
    for chosen, answers, slots, joining, victim in log:
        if answers is not None:
            for s, slot in zip(chosen, answers):
                answers_n += 1
                valid += truth.valid(slot, sets[s], exclude=s)
                if truth.has_neighbor(sets[s], exclude=s):
                    eligible += 1
                    answered_eligible += slot is not None
        if slots is not None:
            truth.insert(slots, joining)
        if victim is not None:
            truth.delete(victim)
    consistent = index_live == truth.num_live
    notes = [f"live points after churn: index {index_live}, mirror {truth.num_live}"]
    return Outcome(
        rec, setup_s, setup_ref_ms, wall, answers_n, valid, eligible, answered_eligible,
        counters, setup_spans, wal_bytes / records if records else 0.0, consistent, notes,
    )


# ----------------------------------------------------------------------
# http-recover
# ----------------------------------------------------------------------
def http_recover(seed: int, seconds: float, tracer, workdir) -> Outcome:
    from repro import FairNN
    from repro.server import FairNNClient, FairNNServer

    data = make_embeddings(seed)
    dataset = [data.points[i] for i in range(EMBED_POINTS)]
    rng = np.random.default_rng([seed, 4])
    truth = DenseTruth(data.points, EMBED_RADIUS)
    live = list(range(EMBED_POINTS))

    # Untimed: checkpoint-0 of the fresh index plus a fixed WAL suffix.
    prepared = workdir / "prepared"
    nn = FairNN.from_spec(embed_spec()).serve(dataset, data_dir=prepared, fsync="off")
    for _ in range(WAL_SUFFIX_ROUNDS):
        points = new_points(rng, data, INSERT_BATCH)
        slots = nn.insert_many(points)
        truth.insert(slots, points)
        live.extend(slots)
        victim = pop_random(rng, live)
        nn.delete(victim)
        truth.delete(victim)
    nn.close()
    del nn
    gc.collect()

    def boot(directory):
        server = FairNNServer.from_data_dir(directory).start()
        client = FairNNClient(server.url, retries=0)
        return server, client, client.healthz()

    setup_s: List[float] = []
    setup_ref_ms: List[float] = []
    server = None
    for attempt in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
            server.nn.close()
            server = None
            shutil.rmtree(workdir / f"boot-{attempt - 1}", ignore_errors=True)
            gc.collect()
        boot_dir = workdir / f"boot-{attempt}"
        shutil.copytree(prepared, boot_dir)
        server, client, health = _timed_setup(lambda: boot(boot_dir), setup_s, setup_ref_ms)
    setup_spans = _take_setup_spans(tracer)
    notes = [f"recovered live points: server {health['live_points']}, mirror {truth.num_live}"]
    consistent = health["live_points"] == truth.num_live

    try:
        rec = Recorder(tracer)
        client.sample_batch(list(data.pool[:QUERY_BATCH]))  # warm-up
        if tracer is not None:
            tracer.reset()
        before = _counters(server.nn)
        wal_before = server.nn.durability()
        log = []
        start = time.perf_counter()
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
            ids = zipf_ids(rng)
            reply = rec.call(
                "query", client.sample_batch, [data.pool[i] for i in ids],
                span="server.sample", inner="api.run",
            )
            answers = None if reply is FAILED else [r["index"] for r in reply["results"]]
            if answers is not None:
                rec.queries += len(answers)
            points = new_points(rng, data, INSERT_BATCH)
            reply = rec.call(
                "mutation", client.insert, points, span="server.mutate", inner="api.mutate"
            )
            slots = None if reply is FAILED else reply["indices"]
            if slots is not None:
                live.extend(slots)
            victim = pop_random(rng, live)
            reply = rec.call(
                "mutation", client.delete, victim, span="server.mutate", inner="api.mutate"
            )
            if reply is FAILED:
                live.append(victim)
                victim = None
            if rounds < DIGEST_ROUNDS["http-recover"]:
                rec.fold([ids.tolist(), answers, slots, victim])
            log.append((ids, answers, slots, points, victim))
            rounds += 1
            rec.tick()
        wall = time.perf_counter() - start
        counters = _delta(_counters(server.nn), before)
        wal_after = server.nn.durability()
        index_live = client.healthz()["live_points"]
    finally:
        server.stop()
        server.nn.close()

    records = wal_after["wal_appended_records"] - wal_before["wal_appended_records"]
    wal_bytes = wal_after["wal_appended_bytes"] - wal_before["wal_appended_bytes"]
    answers_n = valid = eligible = answered_eligible = 0
    for ids, answers, slots, points, victim in log:
        if answers is not None:
            has = truth.has_neighbors(data.pool[ids])
            for qid, slot, near in zip(ids, answers, has):
                answers_n += 1
                valid += truth.valid(slot, data.pool[qid])
                if near:
                    eligible += 1
                    answered_eligible += slot is not None
        if slots is not None:
            truth.insert(slots, points)
        if victim is not None:
            truth.delete(victim)
    consistent = consistent and index_live == truth.num_live
    notes.append(f"live points after the loop: server {index_live}, mirror {truth.num_live}")
    return Outcome(
        rec, setup_s, setup_ref_ms, wall, answers_n, valid, eligible, answered_eligible,
        counters, setup_spans, wal_bytes / records if records else 0.0, consistent, notes,
    )


WORKLOADS = {
    "embed-read": embed_read,
    "sets-churn": sets_churn,
    "http-recover": http_recover,
}
