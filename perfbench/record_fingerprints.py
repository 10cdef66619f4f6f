"""Rewrite perfbench/fingerprints.json from fresh runs at the default seed.

    python3 perfbench/record_fingerprints.py

Run it only when a change is meant to alter simulated outcomes, and say
in the change which fingerprint fields moved and why.
"""

import json
import sys
import time

from run import FINGERPRINTS, spawn
from workloads import DEFAULT_SEED, WORKLOADS, input_seeds


def main() -> int:
    fingerprints = {}
    for workload in WORKLOADS.values():
        entries = fingerprints[workload.name] = {}
        for input_seed in input_seeds(workload, DEFAULT_SEED):
            run = spawn(workload, input_seed, False, time.perf_counter() + 600.0)
            if not run.ok:
                message = f"{workload.name} input {input_seed}: {run.error}"
                print(message, file=sys.stderr)
                return 1
            entries[str(input_seed)] = run.record["fingerprint"]
    FINGERPRINTS.write_text(json.dumps(fingerprints, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
