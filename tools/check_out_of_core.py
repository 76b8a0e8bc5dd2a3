"""Out-of-core serving check: answer queries under a memory budget smaller
than the corpus.

The CI job this script drives is the executable form of the memmap tier's
promise: a format-5 snapshot can be served with ``store="memmap"`` by a
process whose *heap budget is smaller than the dataset*, because the corpus
is paged in from the snapshot files on demand instead of materialized.

Two subprocess phases (each a fresh interpreter, so limits and page caches
don't leak between them):

``build``
    Generates an out-of-budget dense corpus, builds a permutation-sampler
    engine, saves a v5 snapshot, and records the expected answers
    (indices + measure values) of a fixed query batch.

``serve``
    Caps the process heap with ``resource.setrlimit(RLIMIT_DATA, budget)``
    — ``RLIMIT_DATA`` (not ``RLIMIT_AS``) because file-backed ``np.memmap``
    pages count toward the address-space limit but not the data limit; the
    budget must bound what the process *materializes*, which is exactly
    what the out-of-core tier avoids.  Then loads the snapshot with
    ``store="memmap"`` and asserts byte-identical answers.  As a control,
    it first verifies the corpus file alone exceeds the budget, so an
    accidental eager load could not survive the limit.

Run with no arguments to execute both phases::

    PYTHONPATH=src python tools/check_out_of_core.py
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile

N_POINTS = 80_000
DIM = 384
N_QUERIES = 48
#: Heap budget for the serving phase.  The corpus alone is
#: ``N_POINTS * DIM * 8`` = ~245 MB; the budget leaves room for the
#: interpreter, numpy and the (in-RAM) bucket structures but not for a
#: materialized dataset.
BUDGET_BYTES = 200 * 1024 * 1024


def _spec():
    from repro.spec import LSHSpec, SamplerSpec

    return SamplerSpec(
        "permutation",
        {"radius": 0.7, "far_radius": 0.2, "num_hashes": 12, "num_tables": 4},
        lsh=LSHSpec("hyperplane", {"dim": DIM}),
        seed=31,
    )


def build(workdir: pathlib.Path) -> None:
    import numpy as np

    from repro.engine import BatchQueryEngine, save_engine
    from repro.engine.requests import QueryRequest

    rng = np.random.default_rng(13)
    points = rng.standard_normal((N_POINTS, DIM))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    points = np.ascontiguousarray(points)

    engine = BatchQueryEngine.build(_spec().build(), points)
    save_engine(engine, workdir / "snapshot")

    query_rows = rng.choice(N_POINTS, size=N_QUERIES, replace=False)
    queries = np.ascontiguousarray(points[query_rows])
    np.save(workdir / "queries.npy", queries)
    responses = engine.run([QueryRequest(query=q) for q in queries])
    expected = [
        {"indices": [int(i) for i in r.indices], "value": r.value} for r in responses
    ]
    (workdir / "expected.json").write_text(json.dumps(expected))
    print(f"build: saved v5 snapshot + {N_QUERIES} expected answers under {workdir}")


def serve(workdir: pathlib.Path) -> None:
    import resource

    resource.setrlimit(resource.RLIMIT_DATA, (BUDGET_BYTES, BUDGET_BYTES))

    import numpy as np

    from repro.engine import load_engine
    from repro.engine.requests import QueryRequest

    corpus_bytes = os.path.getsize(workdir / "snapshot" / "arrays" / "dataset__dense.npy")
    assert corpus_bytes > BUDGET_BYTES, (
        f"control failed: corpus ({corpus_bytes} B) fits the budget "
        f"({BUDGET_BYTES} B); the check would prove nothing"
    )

    engine = load_engine(workdir / "snapshot", store="memmap")
    queries = np.load(workdir / "queries.npy")
    responses = engine.run([QueryRequest(query=q) for q in queries])
    expected = json.loads((workdir / "expected.json").read_text())
    for index, (response, want) in enumerate(zip(responses, expected)):
        assert [int(i) for i in response.indices] == want["indices"], index
        assert response.value == want["value"], index
    print(
        f"serve: {len(expected)} answers byte-identical under a "
        f"{BUDGET_BYTES // 1024 // 1024} MB heap budget "
        f"(corpus {corpus_bytes // 1024 // 1024} MB, backend="
        f"{engine.tables.point_store.backend})"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--phase", choices=["build", "serve"])
    parser.add_argument("--workdir")
    args = parser.parse_args()

    if args.phase:
        workdir = pathlib.Path(args.workdir)
        build(workdir) if args.phase == "build" else serve(workdir)
        return 0

    with tempfile.TemporaryDirectory(prefix="out-of-core-") as tmp:
        for phase in ("build", "serve"):
            result = subprocess.run(
                [sys.executable, __file__, "--phase", phase, "--workdir", tmp],
                env={**os.environ},
            )
            if result.returncode != 0:
                print(f"{phase} phase failed", file=sys.stderr)
                return result.returncode
    print("out-of-core check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
