"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload quick-sweep --seed 0 --seconds 20 --trace 0

Untraced (``--trace 0``) the run starts ``sweep.py`` four times with
``--setup-only`` and once to measure, each in a fresh interpreter, and
reports the end-to-end metrics:

* ``sweep_s``: median host time of one pass over the spec list, scaled
  to a reference host speed by a fixed loop timed around every pass;
* ``setup_s``: median, over the five processes, of the host time from
  process start to the end of set-up, scaled by the same loop timed
  right after set-up;
* ``peak_rss_mb``: peak resident memory after the first timed pass, the
  larger of the process and its biggest pool worker.

Traced (``--trace 1``) it starts ``sweep.py`` once and reports the
per-layer metrics.  The line before the last holds the details (pass
count, per-pass samples, digest checks, environment stamp); the last line
is ``{"correct", "attempted", "failed", "metrics"}``.  A spec fails when it
raises, fails its oracle, or has a digest other than its pin.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import layers
import sweep

#: Processes sampled for ``setup_s`` in an untraced run.
SETUP_SAMPLES = 5
#: Host seconds the whole run may take, every child process included.
DEADLINE_S = 170.0


class ChildFailed(RuntimeError):
    pass


def _group_alive(pgid):
    """True while a process of group ``pgid`` is still running.

    A zombie has ended; only its reaping is pending, and a container's
    first process may reap orphans late or never.
    """
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def _reap_group(pgid, grace_s=10.0):
    """Wait until every process of the child's process group has exited."""
    ends = time.monotonic() + grace_s
    while _group_alive(pgid) and time.monotonic() < ends:
        time.sleep(0.05)
    if _group_alive(pgid):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        ends = time.monotonic() + grace_s
        while _group_alive(pgid) and time.monotonic() < ends:
            time.sleep(0.05)


def run_child(args, deadline, setup_only=False):
    """One ``sweep.py`` process; its result with ``setup_s`` filled in."""
    command = [
        sys.executable, str(sweep.HERE / "sweep.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        command.append("--setup-only")
    spawned = time.monotonic()
    child = subprocess.Popen(command, cwd=sweep.ROOT, stdout=subprocess.PIPE,
                             start_new_session=True)
    try:
        output, _ = child.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise ChildFailed("sweep.py overran the run's deadline")
    finally:
        _reap_group(child.pid)
    if child.returncode != 0:
        raise ChildFailed(f"sweep.py exited with code {child.returncode}")
    lines = output.decode().strip().splitlines()
    if not lines:
        raise ChildFailed("sweep.py printed no result")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready_at"] - spawned
    return result


def measure(args):
    """``(detail, final)`` result objects for one run."""
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        result = run_child(args, deadline)
        metrics = {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, (unit, _) in sweep.PER_LAYER.items()
        }
        unattributed = result["metrics"]["trace.unattributed_s"]
        attributed = (abs(unattributed) <= layers.UNATTRIBUTED_TOLERANCE
                      * result["traced_wall_s"])
        correct = (result["failed"] == 0 and result["restored"]
                   and attributed)
        extra = {
            "traced_passes": result["traced_passes"],
            "restored": result["restored"],
            "wrapped": result["wrapped"],
            "unattributed_within_tolerance": attributed,
            "layer_self_s": result["layer_self_s"],
            "traced_wall_s": result["traced_wall_s"],
            "trace_path": result["trace_path"],
        }
    else:
        children = [run_child(args, deadline, setup_only=True)
                    for _ in range(SETUP_SAMPLES - 1)]
        result = run_child(args, deadline)
        children.append(result)
        setups = [child["setup_s"] for child in children]
        values = {
            "sweep_s": statistics.median(result["scaled"]),
            "setup_s": statistics.median(
                child["setup_s"] * sweep.REFERENCE_S / child["ready_loop_s"]
                for child in children),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in sweep.END_TO_END_UNITS.items()
        }
        correct = result["failed"] == 0
        extra = {
            "sweep_wall_s": statistics.median(result["passes"]),
            "host_speed_loop_samples": result["loop_samples"],
            "setup_wall_s": statistics.median(setups),
            "setup_samples": setups,
            "setup_loop_samples": [child["ready_loop_s"]
                                   for child in children],
        }
    detail = {
        "workload": args.workload, "seed": args.seed,
        "specs_per_pass": result["specs"],
        "pass_count": len(result["passes"]),
        "pass_samples": result["passes"],
        "failed_frac": result["failed"] / result["attempted"],
        "digests": ("checked against pins" if result["pins"]
                    else "not checked: no pins for this seed"),
        **{key: result[key] for key in (
            "raised", "unverified", "mismatched", "digests_checked",
            "digests_unchecked", "errors", "environment")},
        **extra,
    }
    final = {"correct": correct, "attempted": result["attempted"],
             "failed": result["failed"], "metrics": metrics}
    return detail, final


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sweep.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (sweep.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {sweep.SRC}", file=sys.stderr)
        return 2
    try:
        detail, final = measure(args)
    except ChildFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print(json.dumps(detail))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
