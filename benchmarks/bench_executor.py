"""The executor engine itself: serial vs persistent-pool quick-sweep timing.

Times the same quick figure sweep from cold private caches — once inline,
once over the persistent worker-pool engine — verifies the parallel
outcomes are **byte-identical** to the serial ones (canonical form; see
:meth:`~repro.experiments.spec.SpecOutcome.canonical_bytes`), re-primes
the warm cache to prove the cache-aware dispatch executes nothing and
spawns nobody, and records both timings plus the engine's per-spec
dispatch-overhead counters in ``results/BENCH_sweep.json``.

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
import time

from repro.experiments import common
from repro.experiments.cache import ResultCache
from repro.experiments.executor import ExperimentExecutor, expand
from repro.experiments.result import environment_stamp

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Every experiment with a spec hook: the full sweep the engine dedups.
SWEEP = ["fig7", "fig8", "fig9", "fig10", "fig11", "fig12"]


def _timed_sweep(jobs, cache_dir):
    """Prime the whole sweep from scratch; returns (wall s, stats, counters)."""
    common.clear_cache()
    executor = ExperimentExecutor(jobs=jobs, cache_dir=cache_dir)
    specs = expand(SWEEP, quick=True)
    start = time.perf_counter()  # sanitizer: allow[R003] - real wall time
    try:
        with executor.cache_context():
            executor.prime(specs)
    finally:
        elapsed = time.perf_counter() - start  # sanitizer: allow[R003]
        executor.close()
    common.clear_cache()
    return elapsed, executor.stats, executor.counters.snapshot()


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
    serial_s, serial_stats, _ = _timed_sweep(1, tmp_path / "serial")
    parallel_s, parallel_stats, counters = _timed_sweep(
        jobs, tmp_path / "parallel"
    )

    # Both sweeps ran everything (cold caches) over the same spec list.
    assert serial_stats["executed"] == serial_stats["expanded"] > 0
    assert parallel_stats == serial_stats

    # Worker scheduling must not leak into results: every parallel outcome
    # is byte-identical (canonical form) to its serial counterpart.
    serial_cache = ResultCache(tmp_path / "serial")
    parallel_cache = ResultCache(tmp_path / "parallel")
    for spec in expand(SWEEP, quick=True):
        ours = parallel_cache.get(spec)
        theirs = serial_cache.get(spec)
        assert ours is not None and theirs is not None
        assert ours == theirs
        assert ours.canonical_bytes() == theirs.canonical_bytes()

    # Warm re-prime: the cache-aware dispatch short-circuits everything in
    # the parent — zero executions, zero workers.
    warm = ExperimentExecutor(jobs=jobs, cache_dir=tmp_path / "parallel")
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
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
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
    assert counters.get("specs_dispatched") == serial_stats["expanded"]
    assert counters.get("specs_completed") == serial_stats["expanded"]
    assert counters.get("duplicate_results", 0) == 0
    assert counters.get("worker_respawns", 0) == 0

    if gate is not None:
        assert speedup is not None and speedup >= gate, (
            f"persistent pool speedup {speedup}x below gate {gate}x "
            f"(serial {serial_s:.2f}s, parallel {parallel_s:.2f}s, "
            f"jobs={jobs}, cores={os.cpu_count()})"
        )
