"""One benchmark process: set up, then run timed passes over a workload.

``run.py`` starts this script once per measurement (and, untraced, a few
more times with ``--setup-only`` to sample set-up time).  The script

1. drops every ``REPRO_*`` variable, so the program runs its defaults;
2. imports the program from ``src/`` of the checkout it sits in;
3. expands the workload's spec list through the experiment layer and
   primes two small warm-up specs serially;
4. runs passes back to back until ``--seconds`` have elapsed (or the
   pinned passes run out): a pass is one sweep the way a user runs one,
   a fresh ``ExperimentExecutor`` on the run's result cache and one
   ``prime`` call over the whole spec list, with every constructor
   ``seed`` and every ``FaultPlan`` seed derived from ``--seed`` and the
   pass index, so every pass misses the result cache and the program's
   memos start cold for its inputs; untraced, a fixed host-speed loop
   (``HostSpeed``) is timed before the first pass and after each one;
5. checks every outcome: it must not raise, must pass its oracle
   (``verified``) and, where ``pins.json`` holds a digest for it, must
   have the pinned SHA-256 of ``SpecOutcome.canonical_bytes()``;
6. prints one JSON object as its last line.

With ``--trace 1`` every odd pass runs with the wrappers of ``layers.py``
installed and every even pass without; the output then carries the
per-layer metrics instead of the end-to-end ones.
"""

import argparse
import dataclasses
import gc
import hashlib
import json
import multiprocessing
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Working space for result caches and trace exports (git-ignored).
WORK = ROOT / ".perfbench-run"
PINS_PATH = HERE / "pins.json"

WORKLOADS = ("quick-sweep", "paper-parboil", "fault-recovery", "pool-sweep")
FIGURES = ("fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "contracts")
PAPER_FIGURES = ("fig7", "fig8", "fig10")
FAULT_EXPERIMENTS = ("chaos", "failover")

#: The workload constructors' own default seed: offset 0 is what the
#: figures run.
BASE_SEED = 7
#: Pass ``p`` of a run with ``--seed s`` uses seed offset ``s * STRIDE + p``,
#: so no two passes of one run share an input.
SEED_STRIDE = 1000
#: The warm-up uses the last offset of the seed's block; passes stop short.
WARMUP_INDEX = SEED_STRIDE - 1
WARMUP_SPECS = 2
#: Most passes one run makes, per pin set: about twice what a 20-second
#: run reaches on a 2-vCPU Xeon, and exactly the passes ``pins.json``
#: pins, so every pass of a run at the pinned seed is digest-checked.
MAX_PASSES = {"quick-sweep": 48, "fault-recovery": 96, "paper-parboil": 8}

END_TO_END_UNITS = {"sweep_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
#: What ``HostSpeed.loop_s`` takes, in seconds, on the 2-vCPU Xeon where the
#: bounds were set; ``sweep_s`` is a pass's host time at that speed.
REFERENCE_S = 0.028

#: name -> (unit, better).  Every ``*_s`` time is self time per pass.
PER_LAYER = {
    "experiments.spec_self_s": ("s", "lower"),
    "experiments.cache_s": ("s", "lower"),
    "experiments.cache_calls": ("count", "lower"),
    "experiments.dispatch_s": ("s", "lower"),
    "experiments.dispatch_us_per_spec": ("us", "lower"),
    "experiments.plane_bytes": ("B", "lower"),
    "experiments.worker_busy_frac": ("ratio", "higher"),
    "workloads.self_s": ("s", "lower"),
    "workloads.oracle_s": ("s", "lower"),
    "workloads.oracle_calls": ("count", "lower"),
    "cuda.kernel_s": ("s", "lower"),
    "cuda.kernel_calls": ("count", "lower"),
    "cuda.batched_frac": ("ratio", "higher"),
    "cuda.driver_s": ("s", "lower"),
    "cuda.driver_calls": ("count", "lower"),
    "core.call_s": ("s", "lower"),
    "core.sync_s": ("s", "lower"),
    "core.alloc_s": ("s", "lower"),
    "core.fault_s": ("s", "lower"),
    "core.faults": ("count", "lower"),
    "core.storm_ratio": ("ratio", "higher"),
    "core.host_us_per_fault": ("us", "lower"),
    "core.recovery_s": ("s", "lower"),
    "core.recovery_calls": ("count", "lower"),
    "core.transfer_retries": ("count", "lower"),
    "core.device_recoveries": ("count", "lower"),
    "core.blocks_rematerialized": ("count", "lower"),
    "os.access_s": ("s", "lower"),
    "os.access_calls": ("count", "lower"),
    "os.deliver_s": ("s", "lower"),
    "os.deliver_calls": ("count", "lower"),
    "os.mprotect_s": ("s", "lower"),
    "os.mprotect_calls": ("count", "lower"),
    "hw.h2d_s": ("s", "lower"),
    "hw.h2d_calls": ("count", "lower"),
    "hw.d2h_s": ("s", "lower"),
    "hw.d2h_calls": ("count", "lower"),
    "hw.materialize_s": ("s", "lower"),
    "hw.materialize_calls": ("count", "lower"),
    "hw.elided_frac": ("ratio", "higher"),
    "hw.bytes_materialized": ("B", "lower"),
    "hw.cow_snapshots": ("count", "lower"),
    "hw.flush_bytes_copied": ("B", "lower"),
    "hw.flush_bytes_skipped": ("B", "higher"),
    "hw.link_bytes_h2d": ("B", "lower"),
    "hw.link_bytes_d2h": ("B", "lower"),
    "sim.schedule_s": ("s", "lower"),
    "sim.schedule_calls": ("count", "lower"),
    "sim.charge_calls": ("count", "lower"),
    "sim.virtual_s": ("s", "lower"),
    "sim.host_s_per_virtual_s": ("s/s", "lower"),
    "faults.injected": ("count", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.overhead_x": ("x", "lower"),
}


def import_program():
    """Import ``repro`` from this checkout's ``src/``, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")


def nproc():
    return len(os.sched_getaffinity(0))


def workers(workload):
    """Pool size: ``nproc``, but at least 2 so the pool really runs."""
    return max(2, nproc()) if workload == "pool-sweep" else 1


def sweep_specs(workload):
    """The workload's spec list, in the executor's expansion order."""
    from repro.experiments.common import PAPER_PARAMS
    from repro.experiments.executor import expand

    if workload in ("quick-sweep", "pool-sweep"):
        return expand(FIGURES, quick=True)
    if workload == "fault-recovery":
        return expand(FAULT_EXPERIMENTS, quick=True)
    if workload == "paper-parboil":
        return [
            with_params(spec, PAPER_PARAMS[spec.workload])
            for spec in expand(PAPER_FIGURES, quick=True)
        ]
    raise KeyError(f"unknown workload {workload!r}; pick from {WORKLOADS}")


def warmup_specs():
    """The two cheapest quick-sweep specs (the same for every workload)."""
    from repro.experiments.executor import expand

    return sorted(expand(FIGURES, quick=True),
                  key=lambda spec: spec.cost_hint())[:WARMUP_SPECS]


def with_params(spec, params):
    merged = dict(spec.params)
    merged.update(params)
    return dataclasses.replace(spec, params=tuple(sorted(merged.items())))


def seeded(spec, offset):
    """``spec`` with its constructor and fault-plan seeds moved by ``offset``."""
    spec = with_params(spec, {"seed": BASE_SEED + offset})
    if spec.fault_plan is None:
        return spec
    plan = dict(spec.fault_plan)
    plan["seed"] = plan.get("seed", 0) + offset
    return dataclasses.replace(spec, fault_plan=tuple(sorted(plan.items())))


def pass_specs(base, seed, index):
    return [seeded(spec, seed * SEED_STRIDE + index) for spec in base]


def digest(outcome):
    return hashlib.sha256(outcome.canonical_bytes()).hexdigest()


def pin_set(workload):
    """The pin set a workload is checked against: the pool must reproduce
    the serial quick sweep exactly, so both share one."""
    return "quick-sweep" if workload == "pool-sweep" else workload


def load_pins(workload, seed):
    """Pinned digests per pass for ``(workload, seed)``, or None."""
    pins = json.loads(PINS_PATH.read_text())
    if seed != pins["seed"]:
        return None
    return pins["digests"][pin_set(workload)]


class Checks:
    """Per-spec verdicts over every pass of a run."""

    def __init__(self, pins):
        self.pins = pins
        self.attempted = 0
        self.raised = 0
        self.unverified = 0
        self.mismatched = 0
        self.checked = 0
        self.unchecked = 0
        self.errors = []

    @property
    def failed(self):
        return self.raised + self.unverified + self.mismatched

    def record(self, specs, outcomes, index, error):
        if error is not None:
            self.errors.append(f"pass {index}: {type(error).__name__}: "
                               f"{error}"[:300])
        pinned = None
        if self.pins is not None and index < len(self.pins):
            pinned = self.pins[index]
        for position, (spec, outcome) in enumerate(zip(specs, outcomes)):
            self.attempted += 1
            if outcome is None:
                self.raised += 1
                continue
            if not outcome.verified:
                self.unverified += 1
            if pinned is None:
                self.unchecked += 1
            else:
                self.checked += 1
                if digest(outcome) != pinned[position]:
                    self.mismatched += 1
                    self.errors.append(
                        f"pass {index} spec {position} ({spec.workload}): "
                        "digest differs from its pin")

    def summary(self):
        return {
            "attempted": self.attempted, "failed": self.failed,
            "raised": self.raised, "unverified": self.unverified,
            "mismatched": self.mismatched,
            "digests_checked": self.checked,
            "digests_unchecked": self.unchecked,
            "errors": self.errors[:5],
        }


class Tally:
    """What the traced passes did, summed: outcome totals, the executors'
    ``HostCounters`` and the transfer ledger's counter deltas."""

    def __init__(self):
        self.specs = []
        self.faults = 0
        self.injected = 0
        self.elapsed = 0.0
        self.link = {}
        self.recovery = {}
        self.counters = {}
        self.ledger = {}

    @staticmethod
    def _add(totals, values):
        for name, value in values.items():
            if isinstance(value, (int, float)):
                totals[name] = totals.get(name, 0) + value

    def record(self, specs, outcomes, counters, ledger):
        for spec, outcome in zip(specs, outcomes):
            if outcome is None:
                continue
            self.specs.append(spec)
            self.faults += outcome.faults
            self.injected += outcome.injected_faults
            self.elapsed += outcome.elapsed
            self._add(self.link, outcome.link_bytes_moved)
            self._add(self.recovery, outcome.recovery_stats)
        self._add(self.counters, counters)
        self._add(self.ledger, ledger)


def vm_hwm_mb(pid):
    """Peak resident set of ``pid`` in MiB (``VmHWM``), or None once the
    process is gone."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def peak_rss_mb():
    """Largest peak RSS of this process and its live pool workers."""
    peaks = [vm_hwm_mb(os.getpid())]
    peaks += [vm_hwm_mb(child.pid)
              for child in multiprocessing.active_children()]
    return max(peak for peak in peaks if peak is not None)


@dataclasses.dataclass
class Pass:
    wall_s: float
    outcomes: list
    error: Exception
    counters: dict


def run_pass(workload, cache_dir, specs, tracer=None, probe=None):
    """One sweep the way a user runs one, timed around ``prime`` alone.

    Like the CLI, it makes a fresh executor for the sweep, on the run's
    result cache, so on ``pool-sweep`` the parent pre-warms the pass's
    inputs and forks the workers inside the timed call.  ``probe`` runs
    after ``prime``, while the workers are still alive; closing them is
    not timed.
    """
    from repro.experiments import common
    from repro.experiments.executor import ExperimentExecutor

    executor = ExperimentExecutor(jobs=workers(workload),
                                  cache_dir=cache_dir)
    error = None
    try:
        with executor.cache_context():
            if tracer is not None:
                tracer.install()
            try:
                started = time.perf_counter()
                try:
                    executor.prime(specs)
                except Exception as exc:  # a failed spec is counted
                    error = exc
                wall = time.perf_counter() - started
            finally:
                if tracer is not None:
                    tracer.uninstall()
            if tracer is not None:
                tracer.end_pass(started, wall)
            if probe is not None:
                probe()
            outcomes = [common.peek(spec) for spec in specs]
    finally:
        executor.close()
    # Start the next pass from the heap a fresh process would have:
    # outcomes stay on disk only, and the pass's cyclic garbage, which
    # can hold arrays of 100 MiB and more, is freed now rather than at
    # a full collection many passes later.
    common.clear_cache()
    gc.collect()
    return Pass(wall, outcomes, error, executor.counters.snapshot())


def environment():
    """The environment stamp printed with every result."""
    import numpy

    from repro.experiments.result import environment_stamp

    stamp = environment_stamp()
    stamp.update(nproc=nproc(), python=platform.python_version(),
                 numpy=numpy.__version__)
    return stamp


def layer_metrics(totals, tally, busy_s, pool_workers, traced, untraced):
    """Every per-layer metric, as a per-pass mean over the traced passes."""
    n = totals.passes
    self_s = {kind: seconds / n for kind, seconds in totals.self_s.items()}
    calls = {kind: count / n for kind, count in totals.calls.items()}
    counters, ledger = tally.counters, tally.ledger
    faults = tally.faults / n
    deliveries = calls["os.deliver"]
    launches = totals.calls["cuda.kernel"] + totals.batched_launches
    completed = counters.get("specs_completed", 0)
    moved = ledger["bytes_materialized"] + ledger["flush_bytes_copied"]
    offered = (ledger["bytes_deferred"] + ledger["flush_bytes_copied"]
               + ledger["flush_bytes_skipped"])
    return {
        "experiments.spec_self_s": self_s["experiments.spec"],
        "experiments.cache_s": self_s["experiments.cache"],
        "experiments.cache_calls": calls["experiments.cache"],
        "experiments.dispatch_s": self_s["experiments.dispatch"],
        "experiments.dispatch_us_per_spec": (
            counters.get("dispatch_overhead_us", 0) / completed
            if completed else 0.0),
        "experiments.plane_bytes": counters.get("plane_bytes", 0) / n,
        "experiments.worker_busy_frac": busy_s / (pool_workers
                                                  * totals.wall_s),
        "workloads.self_s": self_s["workloads.execute"],
        "workloads.oracle_s": self_s["workloads.oracle"],
        "workloads.oracle_calls": calls["workloads.oracle"],
        "cuda.kernel_s": self_s["cuda.kernel"] + self_s["cuda.kernel_batch"],
        "cuda.kernel_calls": launches / n,
        "cuda.batched_frac": (totals.batched_launches / launches
                              if launches else 0.0),
        "cuda.driver_s": self_s["cuda.driver"],
        "cuda.driver_calls": calls["cuda.driver"],
        "core.call_s": self_s["core.call"],
        "core.sync_s": self_s["core.sync"],
        "core.alloc_s": self_s["core.alloc"],
        "core.fault_s": self_s["core.fault"],
        "core.faults": faults,
        "core.storm_ratio": faults / deliveries if deliveries else 0.0,
        "core.host_us_per_fault": (
            (self_s["os.deliver"] + self_s["core.fault"]) / faults * 1e6
            if faults else 0.0),
        "core.recovery_s": self_s["core.recovery"],
        "core.recovery_calls": calls["core.recovery"],
        "core.transfer_retries": tally.recovery.get(
            "transfer_retries", 0) / n,
        "core.device_recoveries": tally.recovery.get(
            "device_recoveries", 0) / n,
        "core.blocks_rematerialized": tally.recovery.get(
            "blocks_rematerialized", 0) / n,
        "os.access_s": self_s["os.access"],
        "os.access_calls": calls["os.access"],
        "os.deliver_s": self_s["os.deliver"],
        "os.deliver_calls": deliveries,
        "os.mprotect_s": self_s["os.mprotect"],
        "os.mprotect_calls": calls["os.mprotect"],
        "hw.h2d_s": self_s["hw.h2d"],
        "hw.h2d_calls": calls["hw.h2d"],
        "hw.d2h_s": self_s["hw.d2h"],
        "hw.d2h_calls": calls["hw.d2h"],
        "hw.materialize_s": self_s["hw.materialize"],
        "hw.materialize_calls": calls["hw.materialize"],
        "hw.elided_frac": max(0.0, 1.0 - moved / offered) if offered else 0.0,
        "hw.bytes_materialized": ledger["bytes_materialized"] / n,
        "hw.cow_snapshots": ledger["cow_snapshots"] / n,
        "hw.flush_bytes_copied": ledger["flush_bytes_copied"] / n,
        "hw.flush_bytes_skipped": ledger["flush_bytes_skipped"] / n,
        "hw.link_bytes_h2d": tally.link.get("host-to-accelerator", 0) / n,
        "hw.link_bytes_d2h": tally.link.get("accelerator-to-host", 0) / n,
        "sim.schedule_s": self_s["sim.schedule"],
        "sim.schedule_calls": calls["sim.schedule"],
        "sim.charge_calls": totals.counts.get("sim.charge", 0) / n,
        "sim.virtual_s": tally.elapsed / n,
        "sim.host_s_per_virtual_s": totals.wall_s / tally.elapsed,
        "faults.injected": tally.injected / n,
        "trace.unattributed_s": totals.unattributed_s / n,
        "trace.overhead_x": (statistics.median(traced)
                             / statistics.median(untraced)),
    }


class HostSpeed:
    """Times a fixed loop that runs nothing from the program.

    On a shared VM the host's speed drifts by tens of percent over
    minutes, for stretches of seconds; a loop timed just before and just
    after a pass sees the speed the pass ran at.  The loop is Python dict
    work and single-threaded numpy on preallocated arrays, so it neither
    allocates nor waits for a BLAS thread on the other CPU.
    """

    def __init__(self):
        import numpy

        self.numpy = numpy
        self.vector = numpy.random.default_rng(0).random(1 << 18)
        self.scratch = numpy.empty_like(self.vector)

    def loop_s(self):
        """Host seconds of one fixed mix of dict work and numpy kernels."""
        numpy = self.numpy
        started = time.perf_counter()
        table = {}
        for number in range(60000):
            key = number & 1023
            table[key] = table.get(key, 0) + number
        for _ in range(24):
            numpy.multiply(self.vector, 1.0001, out=self.scratch)
            numpy.add(self.scratch, self.vector, out=self.scratch)
            numpy.sqrt(self.scratch, out=self.scratch)
        return time.perf_counter() - started

    def speed_s(self, pass_s=None):
        """The loop's median time over enough runs to take about 3% of
        the pass just made (at least one; five before the first pass)."""
        runs = 5 if pass_s is None else max(
            1, round(0.03 * pass_s / REFERENCE_S))
        return statistics.median(self.loop_s() for _ in range(runs))


def measure_untraced(args, base, cache_dir, pins, speed, ready_loop_s):
    """Passes, each between two timings of the host-speed loop."""
    checks = Checks(pins)
    samples = []
    loops = [ready_loop_s]
    peak = []
    began = time.perf_counter()
    for index in range(MAX_PASSES[pin_set(args.workload)]):
        specs = pass_specs(base, args.seed, index)
        done = run_pass(args.workload, cache_dir, specs,
                        probe=None if peak else
                        (lambda: peak.append(peak_rss_mb())))
        loops.append(speed.speed_s(done.wall_s))
        samples.append(done.wall_s)
        checks.record(specs, done.outcomes, index, done.error)
        if time.perf_counter() - began >= args.seconds:
            break
    scaled = [wall * 2 * REFERENCE_S / (before + after)
              for wall, before, after in zip(samples, loops, loops[1:])]
    return {"passes": samples, "loop_samples": loops, "scaled": scaled,
            "peak_rss_mb": peak[0], **checks.summary()}


def measure_traced(args, base, cache_dir, pins):
    """Odd passes traced, even passes not, so that ``trace.overhead_x``
    compares passes taken over the same stretch of time."""
    from repro.experiments.cache import ResultCache
    from repro.hw.memory import ledger_counters

    from layers import Tracer

    checks = Checks(pins)
    tally = Tally()
    tracer = Tracer()
    samples = {False: [], True: []}
    restored = True
    began = time.perf_counter()
    for index in range(MAX_PASSES[pin_set(args.workload)]):
        traced = index % 2 == 1
        specs = pass_specs(base, args.seed, index)
        ledger = ledger_counters()
        done = run_pass(args.workload, cache_dir, specs,
                        tracer=tracer if traced else None)
        samples[traced].append(done.wall_s)
        checks.record(specs, done.outcomes, index, done.error)
        if traced:
            restored = restored and tracer.restored()
            tally.record(specs, done.outcomes, done.counters, {
                name: value - ledger[name]
                for name, value in ledger_counters().items()})
        if time.perf_counter() - began >= args.seconds and samples[True]:
            break
    timings = ResultCache(cache_dir).timings()
    busy_s = sum(timings.get(ResultCache.timing_key(spec), 0.0)
                 for spec in tally.specs)
    metrics = layer_metrics(tracer.totals, tally, busy_s,
                            workers(args.workload), samples[True],
                            samples[False])
    WORK.mkdir(exist_ok=True)
    trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
    trace_path.write_text(tracer.chrome_trace())
    totals = tracer.totals
    return {
        **checks.summary(),
        "passes": samples[False], "traced_passes": samples[True],
        "restored": restored, "wrapped": len(tracer.targets),
        "layer_self_s": {layer: seconds / totals.passes for
                         layer, seconds in totals.layer_self_s().items()},
        "traced_wall_s": totals.wall_s / totals.passes,
        "trace_path": str(trace_path.relative_to(ROOT)),
        "metrics": metrics,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop once set-up is done (set-up time sample)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    import_program()
    from repro.experiments import common
    from repro.experiments import pool  # noqa: F401  (import is set-up)
    from repro.experiments.executor import ExperimentExecutor

    base = sweep_specs(args.workload)
    pins = load_pins(args.workload, args.seed)
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    cache_dir = workdir / "cache"
    try:
        warmup = pass_specs(warmup_specs(), args.seed, WARMUP_INDEX)
        with ExperimentExecutor(cache_dir=cache_dir) as executor:
            with executor.cache_context():
                executor.prime(warmup)
                if not all(common.peek(spec).verified for spec in warmup):
                    sys.exit("perfbench: a warm-up spec failed its oracle")
        common.clear_cache()
        result = {"ready_at": time.monotonic(), "specs": len(base)}
        if not args.trace:
            # Host speed at the end of set-up, to scale ``setup_s`` by.
            speed = HostSpeed()
            result["ready_loop_s"] = speed.speed_s()
        if not args.setup_only:
            if args.trace:
                result.update(measure_traced(args, base, cache_dir, pins))
            else:
                result.update(measure_untraced(
                    args, base, cache_dir, pins, speed,
                    result["ready_loop_s"]))
            result["pins"] = pins is not None
            result["environment"] = environment()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
