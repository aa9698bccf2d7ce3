"""Write ``reference_hashes.json``: the determinism hash of every
invocation's report, for each workload at the default sample count and
seeds 0 to 19.

    python3 perfbench/write_reference.py

Run it only on a commit whose reports are meant to be the new reference.
It refuses to write when any invocation gives the wrong answer.
"""

from __future__ import annotations

import json

from run import DEFAULT_SAMPLES, REFERENCE, check_layout, run_round, verdicts
from workloads import WHY

SEEDS = range(20)


def main():
    check_layout()
    hashes = {}
    for workload in sorted(WHY):
        seeds = [0] if workload == "exact-scenes" else SEEDS
        for seed in seeds:
            result = run_round(workload, DEFAULT_SAMPLES, seed)
            _, failed, notes, _, digests = verdicts([result], DEFAULT_SAMPLES, seed)
            if failed:
                raise SystemExit(f"{workload} seed {seed} gave wrong answers: {notes}")
            hashes.update({k: next(iter(d)) for k, d in digests.items()})
            print(f"{workload} seed {seed}: {len(digests)} hashes", flush=True)
    REFERENCE.write_text(
        json.dumps({"samples": DEFAULT_SAMPLES, "hashes": hashes}, indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {len(hashes)} hashes to {REFERENCE.name}")


if __name__ == "__main__":
    main()
