"""Serve fair near-neighbor samples online: batch queries, churn, snapshots.

The static samplers answer one query at a time over a frozen dataset.  This
example runs the serving stack through the :class:`~repro.api.FairNN`
facade instead:

1. declare the sampler as a :class:`~repro.spec.SamplerSpec` and promote it
   straight to a *dynamic* index over a Last.FM-like user base;
2. answer a batch of heavy-tailed (Zipf) query traffic in one call;
3. absorb churn — users leaving and joining — without refitting, and show
   the fair sampler keeps answering from the live dataset;
4. snapshot the serving setup to disk and load it back, as a server fleet
   would — the snapshot (format v5) carries the spec, so the artifact is
   self-describing.

Run with:

    PYTHONPATH=src python examples/online_serving.py
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro import FairNN, LSHSpec, SamplerSpec
from repro.data import generate_lastfm_like

RADIUS = 0.2


def main() -> None:
    rng = np.random.default_rng(0)
    users = generate_lastfm_like(num_users=400, seed=0)

    # 1. One spec + one call: dynamic LSH tables, attached fair sampler,
    #    batch engine.  The spec is the JSON-serializable source of truth.
    spec = SamplerSpec(
        "permutation",
        {"radius": RADIUS, "far_radius": 0.1, "recall": 0.95},
        lsh=LSHSpec("minhash"),
        seed=0,
    )
    nn = FairNN.from_spec(spec, name="fair").serve(users)
    sampler = nn.samplers["fair"]
    print(f"engine over {nn.num_live_points} users, L={sampler.params.l} tables")

    # 2. A batch of hot traffic: most requests hit a few popular users.
    traffic = [users[int(i) % len(users)] for i in rng.zipf(1.4, size=500)]
    responses = nn.run(traffic)
    answered = sum(response.found for response in responses)
    print(f"batch of {len(traffic)} queries: {answered} answered (by {responses[0].sampler!r})")

    # 3. Churn: 100 users leave, 100 new users join.  No refit.
    for index in rng.choice(len(users), size=100, replace=False):
        nn.delete(int(index))
    newcomers = [
        frozenset(int(x) for x in rng.choice(3000, size=int(rng.integers(5, 40))))
        for _ in range(100)
    ]
    nn.insert_many(newcomers)
    response = nn.run([newcomers[0]])[0]
    print(
        f"after churn: {nn.num_live_points} live users, "
        f"query for a new user answered: {response.found}"
    )

    # 4. Ship the index: save, load, verify the clone answers identically.
    with tempfile.TemporaryDirectory() as directory:
        nn.save(directory)
        clone = FairNN.load(directory)
        original = nn.engine().sample_batch(traffic[:50])
        loaded = clone.engine().sample_batch(traffic[:50])
        print(f"snapshot round-trip, answers identical: {original == loaded}")
        print(f"snapshot spec == serving spec: {clone.spec == nn.spec}")

    stats = nn.stats()["fair"].to_dict()
    print("serving stats:", {k: v for k, v in stats.items() if v})


if __name__ == "__main__":
    main()
