"""Spec round-trip: JSON document → build → snapshot → reload.

The declarative layer makes "which sampler over which distance with which
LSH family and parameters" a *data* question.  This example walks the full
life cycle of that data:

1. start from a JSON document (the form a config service or deployment
   manifest would store);
2. build and serve the described engine with :class:`~repro.api.FairNN`;
3. snapshot it — the spec is persisted inside the artifact (format v5);
4. reload the snapshot elsewhere and verify both the spec and the query
   answers survived byte-for-byte.

Run with:

    PYTHONPATH=src python examples/spec_roundtrip.py
"""

from __future__ import annotations

import json
import tempfile

from repro import EngineSpec, FairNN
from repro.data import generate_lastfm_like

#: What a deployment config for a fair-sampling service looks like: two
#: samplers by name — an independent fair sampler for recommendations and
#: the biased baseline for comparison dashboards — over one MinHash table
#: set, with dynamic tables for churn.
SPEC_JSON = """
{
  "samplers": {
    "recommend": {
      "sampler": "independent",
      "params": {"radius": 0.2, "far_radius": 0.1, "recall": 0.95},
      "lsh": {"family": "minhash", "params": {}},
      "distance": null,
      "seed": 7
    },
    "baseline": {
      "sampler": "standard_lsh",
      "params": {"radius": 0.2, "far_radius": 0.1, "recall": 0.95},
      "lsh": {"family": "minhash", "params": {}},
      "distance": null,
      "seed": 7
    }
  },
  "primary": "recommend",
  "dynamic": true,
  "max_tombstone_fraction": 0.25,
  "batch_hashing": true,
  "coalesce_duplicates": true
}
"""


def main() -> None:
    # 1. JSON → validated spec object (typos in names or keys fail here,
    #    with the registered alternatives listed).
    spec = EngineSpec.from_json(SPEC_JSON)
    assert EngineSpec.from_dict(json.loads(spec.to_json())) == spec
    print(f"spec: {list(spec.samplers)} over {spec.primary_spec.lsh.family!r} LSH")

    # 2. Build + serve.  Both samplers attach to one shared dynamic table
    #    set sized by the primary's parameter rule.
    users = generate_lastfm_like(num_users=300, seed=0)
    nn = FairNN.from_spec(spec).serve(users)
    query = users[42]
    print(f"serving {nn.num_live_points} users; "
          f"recommend -> {nn.sample(query)}, baseline -> {nn.sample(query, sampler='baseline')}")

    # 3/4. Snapshot, reload, verify.  The manifest carries the spec, so the
    #    loaded facade knows its own configuration.
    with tempfile.TemporaryDirectory() as directory:
        nn.save(directory)
        manifest = json.loads(open(f"{directory}/manifest.json").read())
        print(f"snapshot format v{manifest['format_version']}, "
              f"spec_kind={manifest['spec_kind']}, primary={manifest['sampler_name']!r}")

        clone = FairNN.load(directory)
        assert clone.spec == spec
        sample_queries = list(users[:40])
        original = nn.engine().sample_batch(sample_queries)
        restored = clone.engine().sample_batch(sample_queries)
        print(f"spec survived: {clone.spec == spec}; "
              f"answers identical after reload: {original == restored}")


if __name__ == "__main__":
    main()
