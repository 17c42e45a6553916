"""Regenerate ``pins.json``: the digests every pinned pass must reproduce.

    python3 perfbench/pin.py

Runs every pass a run can make (``sweep.MAX_PASSES``) of each pin set at
the pinned seed, serially, and writes the SHA-256 of every outcome's
``SpecOutcome.canonical_bytes()``.
Re-pin only for a deliberate, documented model change, in a change that
touches nothing but the benchmark.
"""

import json
import shutil
import sys

import sweep

#: The pinned benchmark seed.
SEED = 0


def pin(workload, passes):
    base = sweep.sweep_specs(workload)
    cache_dir = sweep.WORK / f"pin-{workload}"
    digests = []
    for index in range(passes):
        done = sweep.run_pass(workload, cache_dir,
                              sweep.pass_specs(base, SEED, index))
        if done.error is not None or not all(
                outcome is not None and outcome.verified
                for outcome in done.outcomes):
            sys.exit(f"{workload} pass {index} failed: {done.error}")
        digests.append([sweep.digest(outcome) for outcome in done.outcomes])
    shutil.rmtree(cache_dir, ignore_errors=True)
    return digests


def main():
    sweep.import_program()
    pins = {"seed": SEED,
            "digests": {workload: pin(workload, passes)
                        for workload, passes in sweep.MAX_PASSES.items()}}
    sweep.PINS_PATH.write_text(json.dumps(pins, indent=1) + "\n")


if __name__ == "__main__":
    main()
