"""Regenerate ``references.json``, the stored fingerprints of every workload.

    python3 perfbench/make_references.py

Stores the full fingerprint for the default seed and the held-out seed,
and a digest for each of seeds 0-99 and the held-out seed.  Run it only when a change is
meant to alter simulated behaviour; a change meant only to speed the
simulator up must leave every reference as it is.
"""

from __future__ import annotations

import json
import sys

import run

DEFAULT_SEED = 0
# A seed kept out of the range the benchmark is tuned on, to re-check
# claims on inputs not used while writing a change.
HELD_OUT_SEED = 7919
DIGEST_SEEDS = range(100)


def main() -> int:
    run.import_program()
    from spans import Spans
    from workloads import WORKLOADS

    references = {"default_seed": DEFAULT_SEED,
                  "held_out_seed": HELD_OUT_SEED, "workloads": {}}
    seeds = sorted(set(DIGEST_SEEDS) | {DEFAULT_SEED, HELD_OUT_SEED})
    for workload in WORKLOADS:
        entry = {"full": {}, "digests": {}}
        for seed in seeds:
            checker = run.Checker(workload, seed, {})
            point = run.run_point(workload, seed, Spans(), checker)
            if point.error:
                print(f"{workload} seed {seed}: {point.error}",
                      file=sys.stderr)
                return 1
            digest = run.fingerprint_digest(point.fingerprint)
            if digest in entry["digests"].values():
                print(f"{workload} seed {seed}: same fingerprint as another "
                      "seed; the seed is ignored", file=sys.stderr)
                return 1
            entry["digests"][str(seed)] = digest
            if seed in (DEFAULT_SEED, HELD_OUT_SEED):
                entry["full"][str(seed)] = point.fingerprint
            print(f"{workload} seed {seed}: {digest[:16]}", flush=True)
        references["workloads"][workload] = entry
    with open(run.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
