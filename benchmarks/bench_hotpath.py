"""Hot-path engine benchmark: cold, serial quick-sweep wall clock.

Measures what the flat block-state engine is for — the host-side cost of
simulating the full quick figure sweep (59 specs) — and writes
``BENCH_hotpath.json`` at the repo root:

* **cold runs**: each sweep executes in a fresh interpreter (cold process,
  cold memoization caches, no persistent result cache), serially, exactly
  as the acceptance methodology prescribes;
* **calibration**: a fixed numpy+interpreter workload timed in the same
  child process.  Wall-clock on shared machines drifts by 2x within
  minutes, so regression checks compare the *normalized* metric
  ``sweep_s / calibration_s`` against ``hotpath_baseline.json`` (recorded
  on the pre-PR engine) rather than raw seconds;
* **throughput counters**: one instrumented run's faults/s,
  block-transitions/s and host-seconds-per-virtual-second from
  :meth:`repro.sim.tracing.TimeAccounting.throughput`;
* **transfer-ledger counters**: the sweep's copy-elision totals —
  ``transfers_elided``, ``bytes_deferred``, ``bytes_materialized``,
  ``cow_snapshots``, ``elided_fraction`` and the flush delta split
  (``flush_bytes_copied`` / ``flush_bytes_skipped``) from
  :func:`repro.hw.memory.ledger_counters` — see DESIGN.md §14;
* **kernel-numerics counters**: the deferred-engine view of one
  launch-heavy run (pns at quick size) — ``kernel_rounds_per_host_s``
  (launches whose numerics executed, per host second) and
  ``batched_fraction`` (the share that executed through a
  ``batched_fn`` — see DESIGN.md §9);
* **retry-once gate**: a regressed comparison re-measures once before
  failing, cutting machine-variance flakes on shared CI runners.

Run directly (``python benchmarks/bench_hotpath.py``) or via pytest.
``--profile PATH`` instead runs one in-process sweep under cProfile and
writes the top-25 functions by internal time — the artifact CI uploads
so future PRs can see where the hot path moved.
"""

import json
import os
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE_PATH = pathlib.Path(__file__).resolve().parent / "hotpath_baseline.json"
OUTPUT_PATH = ROOT / "BENCH_hotpath.json"

#: Cold sweeps to run; the median smooths scheduler noise between children.
DEFAULT_RUNS = 3

#: CI fails when the normalized metric regresses by more than this factor.
REGRESSION_LIMIT = 1.25

#: Armed sanitizer (model checker + race detector) may at most double a
#: run's host cost; the checkers are per-event O(blocks) observers, so
#: anything past 2x means an accidental hot-path coupling.
SANITIZER_OVERHEAD_LIMIT = 2.0

#: A no-fault run on a multi-device machine may at most double the
#: single-device host cost: ownership is a bulk-filled column, dispatch
#: stays O(1), and the watchdog only arms under an installed fault plan,
#: so anything past 2x means the topology leaked into the hot path.
FAILOVER_OVERHEAD_LIMIT = 2.0

#: Executed in a fresh interpreter per cold run.  Calibration scales with
#: the same resources the simulator burns (numpy ufunc dispatch + Python
#: bytecode), so sweep/calibration is comparable across machines.
_CHILD = r"""
import json, sys, time
import numpy as np


def calibrate_once():
    start = time.perf_counter()
    total = 0
    for i in range(2000):
        a = np.arange(4096, dtype=np.int64)
        total += int(((a * 3 + i) & 0x7FFF).sum())
    for i in range(1000000):
        total += i
    return time.perf_counter() - start


calibration_s = min(calibrate_once() for _ in range(3))

from repro.experiments.executor import expand

# Transfer-ledger counters over the whole sweep (engines predating the
# ledger — the baseline recording run reuses this child — omit the block).
try:
    from repro.hw.memory import ledger_counters, reset_ledger_counters
except ImportError:
    ledger_counters = None
else:
    reset_ledger_counters()

specs = expand(["fig7", "fig8", "fig9", "fig10", "fig11", "fig12"],
               quick=True)
start = time.perf_counter()
for spec in specs:
    spec.execute()
sweep_s = time.perf_counter() - start
transfer_ledger = ledger_counters() if ledger_counters is not None else None

from repro.workloads.vecadd import VectorAdd

# Steady-state sample: one warm-up run retires first-touch page faults and
# fills the input/reference memos, so the instrumented run measures the
# engine's per-event cost rather than one-time process warm-up.
VectorAdd().execute(mode="gmac", protocol="rolling")
result = VectorAdd().execute(mode="gmac", protocol="rolling")
accounting = result.extra["machine"].accounting
# Engines predating the throughput counters (the baseline recording run
# reuses this child against the pre-PR checkout) just omit the sample.
throughput = (
    accounting.throughput() if hasattr(accounting, "throughput") else None
)

# Sanitizer overhead: the same workload, unchecked vs with the coherence
# model checker + race detector armed.  Older engines (the baseline
# recording run reuses this child) predate the analysis package.
sanitizer_overhead = None
try:
    from repro import analysis
except ImportError:
    analysis = None
if analysis is not None:
    def sanitized_pair():
        start = time.perf_counter()
        VectorAdd(seed=11).execute(mode="gmac", protocol="rolling")
        unchecked = time.perf_counter() - start
        analysis.enable()
        try:
            start = time.perf_counter()
            VectorAdd(seed=11).execute(mode="gmac", protocol="rolling")
            checked = time.perf_counter() - start
        finally:
            analysis.disable()
        return unchecked, checked

    pairs = [sanitized_pair() for _ in range(3)]
    unchecked_s = min(pair[0] for pair in pairs)
    checked_s = min(pair[1] for pair in pairs)
    sanitizer_overhead = {
        "unchecked_s": unchecked_s,
        "checked_s": checked_s,
        "overhead_x": checked_s / unchecked_s,
    }

# Multi-device tax: the same workload, classic machine vs a 3-device one,
# no faults injected.  Older engines (the baseline recording run reuses
# this child) predate the multi-device topology and omit the sample.
failover_overhead = None
try:
    from repro.hw.machine import multi_device_system
except ImportError:
    multi_device_system = None
if multi_device_system is not None:
    def timed_vecadd(machine=None):
        start = time.perf_counter()
        VectorAdd(seed=13).execute(
            mode="gmac", protocol="rolling", machine=machine
        )
        return time.perf_counter() - start

    single_s = min(timed_vecadd() for _ in range(3))
    multi_s = min(
        timed_vecadd(multi_device_system(devices=3)) for _ in range(3)
    )
    failover_overhead = {
        "single_device_s": single_s,
        "multi_device_s": multi_s,
        "overhead_x": multi_s / single_s,
    }

from repro.util.units import MB
from repro.workloads.parboil import PARBOIL

pns = PARBOIL["pns"](n_places=(1 * MB) // 4, iterations=48, sample_interval=8)
start = time.perf_counter()
pns_result = pns.execute(mode="gmac", protocol="rolling")
pns_host_s = time.perf_counter() - start
gpu = pns_result.extra["machine"].gpu
# Engines predating the deferred-numerics counters omit the block too.
kernel_numerics = None
if hasattr(gpu, "numerics_rounds") and gpu.numerics_rounds:
    kernel_numerics = {
        "kernel_rounds_per_host_s": gpu.numerics_rounds / pns_host_s,
        "batched_fraction": gpu.batched_rounds / gpu.numerics_rounds,
        "numerics_rounds": gpu.numerics_rounds,
        "batched_rounds": gpu.batched_rounds,
        "numerics_flushes": gpu.numerics_flushes,
    }

print(json.dumps({
    "calibration_s": calibration_s,
    "sweep_s": sweep_s,
    "spec_count": len(specs),
    "throughput": throughput,
    "transfer_ledger": transfer_ledger,
    "kernel_numerics": kernel_numerics,
    "sanitizer_overhead": sanitizer_overhead,
    "failover_overhead": failover_overhead,
}))
"""


def environment_stamp():
    """Provenance stamp (see :func:`repro.experiments.result.environment_stamp`).

    The stamp itself lives with the experiment layer so every benchmark
    artifact (``BENCH_hotpath.json``, ``BENCH_sweep.json``) records the
    same configuration block.
    """
    sys.path.insert(0, str(ROOT / "src"))
    from repro.experiments.result import environment_stamp as stamp

    return stamp()


def run_cold_sweep(repo_root=ROOT):
    """One cold, serial quick sweep in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(pathlib.Path(repo_root) / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _measure(runs):
    """One measurement round: ``runs`` cold sweeps compared to baseline."""
    samples = [run_cold_sweep() for _ in range(runs)]
    sweep_s = [s["sweep_s"] for s in samples]
    calibration_s = [s["calibration_s"] for s in samples]
    median_sweep = statistics.median(sweep_s)
    median_calibration = statistics.median(calibration_s)
    normalized = median_sweep / median_calibration

    baseline = json.loads(BASELINE_PATH.read_text())
    base_normalized = baseline["normalized"]
    return {
        "spec_count": samples[0]["spec_count"],
        "runs": runs,
        "sweep_s": sweep_s,
        "sweep_s_median": median_sweep,
        "calibration_s_median": median_calibration,
        "normalized": normalized,
        "baseline": baseline,
        "speedup_vs_baseline": base_normalized / normalized,
        "regression_limit": REGRESSION_LIMIT,
        "regressed": normalized > base_normalized * REGRESSION_LIMIT,
        "throughput": samples[-1]["throughput"],
        "transfer_ledger": samples[-1].get("transfer_ledger"),
        "kernel_numerics": samples[-1].get("kernel_numerics"),
        "sanitizer_overhead": samples[-1].get("sanitizer_overhead"),
        "sanitizer_overhead_limit": SANITIZER_OVERHEAD_LIMIT,
        "failover_overhead": samples[-1].get("failover_overhead"),
        "failover_overhead_limit": FAILOVER_OVERHEAD_LIMIT,
    }


def run_benchmark(runs=DEFAULT_RUNS, output_path=OUTPUT_PATH, retries=1):
    """Run the cold sweeps, compare against the baseline, write the JSON.

    A regressed comparison is re-measured up to ``retries`` times before
    it stands: one noisy neighbour on a shared runner should not fail
    the gate when a fresh round lands back inside the limit.
    """
    report = _measure(runs)
    attempts = 1
    while report["regressed"] and attempts <= retries:
        attempts += 1
        report = _measure(runs)
    report["attempts"] = attempts
    report["environment"] = environment_stamp()
    output_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def write_profile(path, top=25):
    """cProfile one in-process quick sweep; write the ``top`` hot functions.

    Complements the regression gate: the gate says *whether* the hot
    path moved, the uploaded profile says *where to*.
    """
    import cProfile
    import io
    import pstats

    sys.path.insert(0, str(ROOT / "src"))
    from repro.experiments.executor import expand

    specs = expand(["fig7", "fig8", "fig9", "fig10", "fig11", "fig12"],
                   quick=True)
    profiler = cProfile.Profile()
    profiler.enable()
    for spec in specs:
        spec.execute()
    profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("tottime").print_stats(top)
    path = profile_artifact_path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(buffer.getvalue())
    return path


def profile_artifact_path(path):
    """Stamp the scale into a profile artifact's filename.

    A paper-scale profile is a different hot path from the default;
    uploading both as ``profile.txt`` made CI artifacts overwrite each
    other and left the configuration unrecoverable.
    """
    path = pathlib.Path(path)
    tag = environment_stamp()["scale"]
    if tag in path.stem:
        return path
    suffix = path.suffix or ".txt"
    return path.with_name(f"{path.stem}-{tag}{suffix}")


def test_hotpath_cold_sweep_vs_baseline():
    """Cold-sweep regression gate: normalized cost within the CI limit."""
    report = run_benchmark()
    assert report["spec_count"] == 59
    assert not report["regressed"], (
        f"hot-path regression: normalized {report['normalized']:.2f} vs "
        f"baseline {report['baseline']['normalized']:.2f} "
        f"(limit {REGRESSION_LIMIT}x)"
    )
    overhead = report.get("sanitizer_overhead")
    if overhead is not None:
        assert overhead["overhead_x"] <= SANITIZER_OVERHEAD_LIMIT, (
            f"sanitizer overhead {overhead['overhead_x']:.2f}x exceeds the "
            f"{SANITIZER_OVERHEAD_LIMIT}x budget"
        )
    failover = report.get("failover_overhead")
    if failover is not None:
        assert failover["overhead_x"] <= FAILOVER_OVERHEAD_LIMIT, (
            f"no-fault multi-device overhead {failover['overhead_x']:.2f}x "
            f"exceeds the {FAILOVER_OVERHEAD_LIMIT}x budget"
        )


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "--profile":
        if len(argv) != 2:
            print("usage: bench_hotpath.py [--profile PATH]", file=sys.stderr)
            return 2
        written = write_profile(argv[1])
        print(f"wrote cProfile top-25 to {written}")
        return 0
    report = run_benchmark()
    print(json.dumps(report, indent=2, sort_keys=True))
    if report["regressed"]:
        print(
            f"REGRESSION: normalized {report['normalized']:.2f} exceeds "
            f"baseline {report['baseline']['normalized']:.2f} "
            f"by more than {REGRESSION_LIMIT}x",
            file=sys.stderr,
        )
        return 1
    print(
        f"hot-path speedup vs pre-PR baseline: "
        f"{report['speedup_vs_baseline']:.2f}x "
        f"(sweep median {report['sweep_s_median']:.3f}s over "
        f"{report['spec_count']} specs)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
