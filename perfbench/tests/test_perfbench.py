"""Self-tests of the benchmark.

    python3 -m pytest perfbench/tests -q

They check that the traced run accounts for all of its wall time and
that its tolerance catches a layer left unwrapped, that it leaves every
wrapped callable as it found it (pool workers included), that tracing and
the pool leave every outcome digest unchanged, and that a minimum-length
run of each workload passes with no failed spec.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import sweep  # noqa: E402

sweep.import_program()

#: A non-default seed: nothing here leans on the pins.
SEED = 5


def small_specs():
    """A few specs covering every layer: cuda and gmac quick-sweep runs
    under each protocol, a multi-device failover and a faulty transfer."""
    quick = sweep.sweep_specs("quick-sweep")
    faulty = sweep.sweep_specs("fault-recovery")
    picked = [quick[0], quick[1], quick[2], quick[3], quick[-1]]
    picked += [spec for spec in faulty if spec.devices > 1][1:2]
    picked += [spec for spec in faulty if spec.fault_plan is not None][:1]
    return sweep.pass_specs(picked, SEED, 0)


@pytest.fixture(scope="module", autouse=True)
def warm_up(tmp_path_factory):
    """One untraced pass first, as the benchmark's set-up does, so no
    traced pass pays this process's one-time costs."""
    run_pass(sweep.pass_specs(small_specs(), SEED, sweep.WARMUP_INDEX),
             tmp_path_factory.mktemp("warm-up"))


def run_pass(specs, cache_dir, workload="quick-sweep", tracer=None):
    done = sweep.run_pass(workload, cache_dir, specs, tracer=tracer)
    assert done.error is None, done.error
    return done.outcomes, done.wall_s


def traced_pass(specs, cache_dir, workload="quick-sweep"):
    tracer = layers.Tracer()
    outcomes, wall = run_pass(specs, cache_dir, workload, tracer=tracer)
    assert tracer.restored()
    return tracer, outcomes, wall


def test_self_times_and_unattributed_sum_to_traced_wall(tmp_path):
    tracer, outcomes, wall = traced_pass(small_specs(), tmp_path)
    totals = tracer.totals
    layer_self = totals.layer_self_s()
    assert min(totals.self_s.values()) >= -1e-9, totals.self_s
    assert sum(layer_self.values()) + totals.unattributed_s == pytest.approx(
        wall, rel=1e-9)
    assert 0.0 < totals.unattributed_s <= (
        layers.UNATTRIBUTED_TOLERANCE * wall)
    # Every layer the specs run is seen, and the wrappers see every fault.
    assert all(seconds > 0 for seconds in layer_self.values()), layer_self
    assert totals.calls["core.fault"] == sum(o.faults for o in outcomes)
    assert totals.calls["core.recovery"] > 0
    assert tracer.first_pass and json.loads(tracer.chrome_trace())


def test_pool_pass_attributes_the_parent_time(tmp_path):
    tracer, outcomes, wall = traced_pass(small_specs(), tmp_path,
                                         workload="pool-sweep")
    totals = tracer.totals
    assert all(outcome.verified for outcome in outcomes)
    assert 0.0 < totals.unattributed_s <= (
        layers.UNATTRIBUTED_TOLERANCE * wall)
    assert totals.self_s["experiments.dispatch"] > 0.5 * wall
    # Specs ran in the workers, whose spans are out of scope.
    assert totals.calls["experiments.spec"] == 0


def test_an_unwrapped_layer_exceeds_the_tolerance(tmp_path, monkeypatch):
    targets = layers.span_targets
    monkeypatch.setattr(layers, "span_targets", lambda: [
        target for target in targets()
        if target[0] != "experiments.spec"])
    tracer, _, wall = traced_pass(small_specs(), tmp_path)
    assert tracer.totals.unattributed_s > (
        layers.UNATTRIBUTED_TOLERANCE * wall)


def test_wrapped_callables_are_restored(tmp_path):
    targets = [(owner, name) for _, owner, name, _ in layers.span_targets()]
    targets += [(owner, name) for _, owner, name in layers.count_targets()]
    assert len(set(targets)) == len(targets), "a callable is wrapped twice"
    before = [vars(owner)[name] for owner, name in targets]
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert all(vars(owner)[name] is not original for (owner, name),
                   original in zip(targets, before))
        child = os.fork()
        if child == 0:
            os._exit(0 if tracer.restored() else 1)
        _, status = os.waitpid(child, 0)
        assert os.waitstatus_to_exitcode(status) == 0, (
            "a forked worker kept the wrappers")
    finally:
        tracer.uninstall()
    assert all(vars(owner)[name] is original for (owner, name), original
               in zip(targets, before))
    run_pass(small_specs()[:2], tmp_path, tracer=tracer)
    assert tracer.restored() and tracer.totals.passes == 1


def test_tracing_and_pool_keep_every_digest(tmp_path):
    specs = small_specs()
    serial, _ = run_pass(specs, tmp_path / "serial")
    _, traced, _ = traced_pass(specs, tmp_path / "traced")
    pooled, _ = run_pass(specs, tmp_path / "pool", workload="pool-sweep")
    digests = [sweep.digest(outcome) for outcome in serial]
    assert all(outcome.verified for outcome in serial)
    assert [sweep.digest(outcome) for outcome in traced] == digests
    assert [sweep.digest(outcome) for outcome in pooled] == digests


def test_pins_cover_every_pass_a_run_makes():
    pins = json.loads(sweep.PINS_PATH.read_text())
    assert pins["seed"] == 0
    for workload in sweep.WORKLOADS:
        passes = pins["digests"][sweep.pin_set(workload)]
        specs = len(sweep.sweep_specs(workload))
        assert len(passes) == sweep.MAX_PASSES[sweep.pin_set(workload)]
        assert all(len(digests) == specs for digests in passes)


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(sweep.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        sweep.END_TO_END_UNITS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == sweep.PER_LAYER


def run_benchmark(*args, cwd=BENCH.parent):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("workload", sweep.WORKLOADS)
def test_minimum_run_has_no_failed_spec(workload):
    done = run_benchmark("--workload", workload, "--seed", "0",
                         "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    detail, final = (json.loads(line)
                     for line in done.stdout.strip().splitlines()[-2:])
    assert final["correct"] and final["failed"] == 0
    assert final["attempted"] == detail["pass_count"] * len(
        sweep.sweep_specs(workload))
    assert detail["failed_frac"] == 0.0 and detail["digests_checked"] > 0
    assert set(final["metrics"]) == set(sweep.END_TO_END_UNITS)


def test_minimum_traced_run_reports_every_layer_metric():
    done = run_benchmark("--workload", "fault-recovery", "--seed", str(SEED),
                         "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    detail, final = (json.loads(line)
                     for line in done.stdout.strip().splitlines()[-2:])
    assert final["correct"] and final["failed"] == 0
    assert set(final["metrics"]) == set(sweep.PER_LAYER)
    assert detail["restored"] and detail["unattributed_within_tolerance"]
    assert detail["digests"].startswith("not checked")
    assert final["metrics"]["faults.injected"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark("--workload", "quick-sweep", "--seed", "0",
                         "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
