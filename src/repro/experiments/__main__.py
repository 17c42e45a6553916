"""CLI: regenerate paper tables/figures.

Usage::

    python -m repro.experiments fig7            # one experiment
    python -m repro.experiments all             # everything
    python -m repro.experiments fig7 --quick    # shrunk sizes
    python -m repro.experiments all --jobs 4    # parallel sweep
    python -m repro.experiments all --no-cache  # ignore the result cache

The exit status is non-zero when any primed outcome fails verification
against its oracle; the failing specs are named on stderr.
"""

import argparse
import sys
import time

from repro.experiments import common
from repro.experiments.registry import REGISTRY, run_experiment
from repro.experiments.executor import ExperimentExecutor, expand


def unverified(specs):
    """The specs whose primed outcome failed oracle verification.

    A spec whose recovery gave up has no outcome and is not among them.
    """
    return [
        spec for spec in specs
        if (outcome := common.peek(spec)) is not None and not outcome.verified
    ]


def _report_unverified(specs):
    """Name every unverified outcome on stderr; the exit status."""
    failed = unverified(specs)
    if not failed:
        return 0
    print(
        f"{len(failed)} outcome(s) failed verification:", file=sys.stderr
    )
    for spec in failed:
        print(f"  {spec.key()}", file=sys.stderr)
    return 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        help=(
            f"experiment id ({', '.join(sorted(REGISTRY))}), 'all', or "
            "'report' to write a markdown reproduction report"
        ),
    )
    parser.add_argument(
        "--output",
        default="reproduction_report.md",
        help="output path for the 'report' mode",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrunk workload sizes (shape-preserving)",
    )
    parser.add_argument(
        "--scale",
        choices=("quick", "paper"),
        default=None,
        help=(
            "workload parameter preset: 'quick' (shrunk) or 'paper' (the "
            "full Parboil input sizes); overrides --quick's sizes and is "
            "inherited by worker processes via REPRO_SCALE"
        ),
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="also render figure-shaped results as ASCII log-scale charts",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the simulation sweep (default: serial)",
    )
    parser.add_argument(
        "--pool",
        choices=("persistent", "fork", "serial"),
        default="persistent",
        help=(
            "sweep engine: 'persistent' (worker pool forked once, "
            "shared-memory result plane, cost-aware dispatch), 'fork' "
            "(legacy one-shot multiprocessing.Pool baseline), or 'serial' "
            "(inline).  Engine configuration only — results and cache "
            "entries are byte-identical across all three"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore the persistent result cache (neither read nor write)",
    )
    parser.add_argument(
        "--devices",
        type=int,
        default=None,
        metavar="N",
        help=(
            "accelerator count for experiments with a device-count knob "
            "(failover); others reject the flag"
        ),
    )
    parser.add_argument(
        "--eager-transfers",
        action="store_true",
        help=(
            "disable the transfer ledger: every host<->device copy moves "
            "bytes eagerly at transfer time (the pre-ledger engine; "
            "DESIGN.md §14).  Engine configuration only — never part of a "
            "cache key; the CI byte-identity gate diffs this mode against "
            "the default lazy engine.  Same switch as "
            "REPRO_EAGER_TRANSFERS=1, which forked workers inherit"
        ),
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help=(
            "run every GMAC execution under the coherence model checker "
            "and kernel-window race detector (implies --no-cache; a "
            "violation aborts the run)"
        ),
    )
    args = parser.parse_args(argv)
    if args.scale is not None:
        # Environment, not argument threading: the spec hooks only take a
        # quick flag, and forked workers inherit the preset with the env.
        import os

        os.environ["REPRO_SCALE"] = args.scale
    from repro.util.hostalloc import retain_arena

    retain_arena()
    if args.eager_transfers:
        # Environment + module default: workers inherit the env, and Gpus
        # constructed in-process see the flipped default immediately.
        import os

        import repro.hw.gpu as gpu_module

        os.environ["REPRO_EAGER_TRANSFERS"] = "1"
        gpu_module.DEFAULT_DEFER_TRANSFERS = False
    if args.sanitize:
        # Checked results must come from checked runs, never from a cache
        # populated by unchecked ones; workers inherit the env switch.
        from repro import analysis

        analysis.enable()
        args.no_cache = True
    executor = ExperimentExecutor(
        jobs=args.jobs, use_cache=not args.no_cache, pool=args.pool,
    )
    try:
        if args.experiment == "report":
            from repro.experiments.report import SECTION_ORDER, write_report

            with executor.cache_context():
                specs = expand(SECTION_ORDER, quick=args.quick)
                executor.prime(specs)
                write_report(args.output, quick=args.quick)
                print(f"wrote {args.output}")
                return _report_unverified(specs)
        ids = (
            sorted(REGISTRY) if args.experiment == "all"
            else [args.experiment]
        )
        with executor.cache_context():
            specs = expand(ids, quick=args.quick, devices=args.devices)
            started = time.time()  # sanitizer: allow[R003]
            stats = executor.prime(specs)
            if stats["executed"]:
                print(
                    f"(primed {stats['executed']} runs "
                    f"({stats['reused']} cached) with {args.jobs} worker(s) "
                    f"in {time.time() - started:.1f}s wall)"  # sanitizer: allow[R003]
                )
                print()
            for experiment_id in ids:
                started = time.time()  # sanitizer: allow[R003]
                result = run_experiment(
                    experiment_id, quick=args.quick, devices=args.devices
                )
                print(result.render())
                if args.chart:
                    chart = result.chart()
                    if chart is not None:
                        print()
                        print(chart)
                print(f"(regenerated in {time.time() - started:.1f}s wall)")  # sanitizer: allow[R003]
                print()
            return _report_unverified(specs)
    finally:
        executor.close()


if __name__ == "__main__":
    sys.exit(main())
