"""Record the expected outcome of every request from the current source tree.

    python3 bench/record.py

Runs one timed pass of every workload per seed in SEEDS, requires the
outcomes to be the same for every seed, and writes `expected.json`: per
workload and request, the outcome and the report digest for each recorded
seed.  Run it only to re-baseline on purpose; the benchmark checks against
this file.
"""

from __future__ import annotations

import json

import outcome
from run import run_worker, run_stamp
from workloads import WORKLOADS

SEEDS = (0, 1)


def main():
    recorded = {}
    versions = None
    for workload in WORKLOADS:
        entries = recorded[workload] = {}
        for seed in SEEDS:
            p = run_worker(workload, seed, "timed")
            versions = p["versions"]
            for res in p["results"]:
                if "error" in res:
                    raise SystemExit(f"{workload} {res['label']}: {res['error']}")
                entry = entries.setdefault(
                    res["label"], {"outcome": res["outcome"], "digests": {}})
                if entry["outcome"] != res["outcome"]:
                    raise SystemExit(
                        f"{workload} {res['label']}: outcome differs at seed "
                        f"{seed}: {res['outcome']} != {entry['outcome']}")
                entry["digests"][str(seed)] = res["digest"]
            print(workload, "seed", seed, f"{p['wall_s']:.2f} s", flush=True)
    stamp = run_stamp(SEEDS[0], None, versions)
    with open(outcome.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump({"recorded_with": stamp, "workloads": recorded}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
