"""The executor engine itself: serial vs persistent-pool quick-sweep timing.

Times the same quick figure sweep from cold private caches — inline and
over the persistent worker-pool engine, three times each in alternating
order, each sweep in a fresh interpreter — verifies the parallel
outcomes are **byte-identical** to the serial ones (canonical form; see
:meth:`~repro.experiments.spec.SpecOutcome.canonical_bytes`), re-primes
the warm cache to prove the cache-aware dispatch executes nothing and
spawns nobody, and records every timing plus the engine's per-spec
dispatch-overhead counters in ``results/BENCH_sweep.json``.

The gate compares the median serial sweep with the median pooled sweep:
a single pair's ratio swung from 1.23x to 1.57x between runs of one
commit, and fell to 1.03x beside other processes.  Each sweep gets its
own interpreter because, within one, every sweep after the first reuses
the memoized inputs and oracles the first built, and the ratio would
then measure which engine ran first.

The speedup gate is core-count-aware: parallel wall-clock on a
single-core runner is honestly ~1x (the engine still wins on dispatch
shape, not physics), so the assertion arms only when the runner can
actually parallelize — opt in or tune via ``REPRO_SWEEP_MIN_SPEEDUP``
(CI sets 1.5 on its multi-core runners).  The artifact always records
the measured value and which gate (if any) applied.
"""

import json
import os
import pathlib
import statistics
import subprocess
import sys

from repro.experiments.cache import ResultCache
from repro.experiments.executor import ExperimentExecutor, expand
from repro.experiments.result import environment_stamp

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Every experiment with a spec hook: the full sweep the engine dedups.
SWEEP = ["fig7", "fig8", "fig9", "fig10", "fig11", "fig12"]

#: Serial/pooled sweep pairs behind the gate; the order within a pair
#: alternates, so neither engine always runs on a warmer machine.
ROUNDS = 3


#: One sweep, run in a fresh interpreter: argv is jobs, cache dir, sweep.
_CHILD = r"""
import json, sys, time
from repro.experiments.executor import ExperimentExecutor, expand

executor = ExperimentExecutor(jobs=int(sys.argv[1]), cache_dir=sys.argv[2])
specs = expand(json.loads(sys.argv[3]), quick=True)
start = time.perf_counter()
try:
    with executor.cache_context():
        executor.prime(specs)
finally:
    elapsed = time.perf_counter() - start
    executor.close()
print(json.dumps({"elapsed": elapsed, "stats": executor.stats,
                  "counters": executor.counters.snapshot()}))
"""


def _timed_sweep(jobs, cache_dir):
    """Prime the whole sweep cold; returns (wall s, stats, counters)."""
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(jobs), str(cache_dir),
         json.dumps(SWEEP)],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["elapsed"], result["stats"], result["counters"]


def _speedup_gate():
    """The minimum serial/parallel ratio to assert, or None (record only).

    ``REPRO_SWEEP_MIN_SPEEDUP`` wins when set (CI pins 1.5); otherwise a
    multi-core runner defaults to a conservative 1.2 and a single-core
    runner records without asserting — demanding parallel speedup from
    one core would gate on noise.
    """
    override = os.environ.get("REPRO_SWEEP_MIN_SPEEDUP")
    if override:
        return float(override)
    cores = os.cpu_count() or 1
    return 1.2 if cores >= 2 else None


def test_sweep_serial_vs_persistent(tmp_path, request):
    jobs = max(4, request.config.getoption("--jobs"))
    sweeps = {"serial": [], "parallel": []}
    for round_index in range(ROUNDS):
        order = [("serial", 1), ("parallel", jobs)]
        if round_index % 2:
            order.reverse()
        for engine, engine_jobs in order:
            sweeps[engine].append(_timed_sweep(
                engine_jobs, tmp_path / f"{engine}{round_index}"
            ))
    serial_times = [elapsed for elapsed, _, _ in sweeps["serial"]]
    parallel_times = [elapsed for elapsed, _, _ in sweeps["parallel"]]
    serial_s = statistics.median(serial_times)
    parallel_s = statistics.median(parallel_times)
    serial_stats = sweeps["serial"][0][1]
    counters = sweeps["parallel"][0][2]

    # Every sweep ran everything (cold caches) over the same spec list.
    assert serial_stats["executed"] == serial_stats["expanded"] > 0
    for _, stats, _ in sweeps["serial"] + sweeps["parallel"]:
        assert stats == serial_stats

    # Worker scheduling must not leak into results: every parallel outcome
    # is byte-identical (canonical form) to its serial counterpart.
    serial_cache = ResultCache(tmp_path / "serial0")
    for round_index in range(ROUNDS):
        parallel_cache = ResultCache(tmp_path / f"parallel{round_index}")
        for spec in expand(SWEEP, quick=True):
            ours = parallel_cache.get(spec)
            theirs = serial_cache.get(spec)
            assert ours is not None and theirs is not None
            assert ours == theirs
            assert ours.canonical_bytes() == theirs.canonical_bytes()

    # Warm re-prime: the cache-aware dispatch short-circuits everything in
    # the parent — zero executions, zero workers.
    warm = ExperimentExecutor(jobs=jobs, cache_dir=tmp_path / "parallel0")
    try:
        with warm.cache_context():
            warm.prime(expand(SWEEP, quick=True))
    finally:
        warm.close()
    assert warm.stats["executed"] == 0
    assert warm.stats["reused"] == warm.stats["expanded"]
    assert warm.counters.get("workers_spawned") == 0
    assert warm.counters.get("warm_hits") == warm.stats["expanded"]

    speedup = round(serial_s / parallel_s, 3) if parallel_s else None
    gate = _speedup_gate()

    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "sweep": SWEEP,
        "quick": True,
        "specs": serial_stats["expanded"],
        "jobs": jobs,
        "cpu_count": os.cpu_count(),
        "rounds": ROUNDS,
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "serial_runs_s": [round(t, 3) for t in serial_times],
        "parallel_runs_s": [round(t, 3) for t in parallel_times],
        "speedup": speedup,
        "speedup_gate": gate,
        "pool_counters": counters,
        "dispatch_overhead_us_per_spec": (
            round(counters["dispatch_overhead_us"]
                  / counters["specs_dispatched"], 1)
            if counters.get("specs_dispatched") else None
        ),
        "environment": environment_stamp(),
    }
    (RESULTS_DIR / "BENCH_sweep.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    # Engine sanity regardless of core count: every spec was dispatched
    # and its outcome landed exactly once, nothing crashed, nothing stale.
    for _, _, pool_counters in sweeps["parallel"]:
        assert pool_counters.get("specs_dispatched") == serial_stats["expanded"]
        assert pool_counters.get("specs_completed") == serial_stats["expanded"]
        assert pool_counters.get("duplicate_results", 0) == 0
        assert pool_counters.get("worker_respawns", 0) == 0

    if gate is not None:
        assert speedup is not None and speedup >= gate, (
            f"persistent pool speedup {speedup}x below gate {gate}x "
            f"(median serial {serial_s:.2f}s of {serial_times}, median "
            f"parallel {parallel_s:.2f}s of {parallel_times}, "
            f"jobs={jobs}, cores={os.cpu_count()})"
        )
