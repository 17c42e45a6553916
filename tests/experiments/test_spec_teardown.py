"""A run's machine is freed by the time :meth:`RunSpec.execute` returns.

The simulated machine's object graph is cyclic, so it is freed only by a
garbage collection, and one that leaves the graph reachable promotes it
to the old generation, where it waits for a full collection.  Each test
starts from a full collection (every generation count at zero), runs one
spec, and checks a weak reference to its machine with no collection in
between.
"""

import gc
import weakref

import pytest

from repro import analysis
from repro.experiments import chaos, common, failover
from repro.experiments.spec import RunSpec
from repro.util.errors import RecoveryExhausted

VECADD = dict(elements=64 * 1024)

SPECS = {
    "cuda": RunSpec.make("vecadd", VECADD, mode="cuda"),
    "gmac": RunSpec.make("vecadd", VECADD),
    "chaos-device-lost": chaos._spec(
        "vecadd", VECADD, dict(device_lost_at_launch=1), None
    ),
    "failover-3dev": failover._spec(
        "vecadd", VECADD, "rolling", dict(device_lost_at_launch=1), None, 3
    ),
}

EXHAUSTED = failover._spec(
    "vecadd", VECADD, *failover.EXHAUSTED[1:], failover.DEFAULT_DEVICES
)


@pytest.fixture
def machines(monkeypatch):
    """Weak references to every machine a spec builds, in build order."""
    built = []
    build = RunSpec._build_machine

    def capture(spec):
        machine = build(spec)
        built.append(weakref.ref(machine))
        return machine

    monkeypatch.setattr(RunSpec, "_build_machine", capture)
    return built


@pytest.mark.parametrize(
    "name,sanitize",
    [(name, False) for name in SPECS] + [("failover-3dev", True)],
    ids=list(SPECS) + ["failover-3dev-sanitized"],
)
def test_machine_is_freed_when_execute_returns(
    name, sanitize, machines, monkeypatch
):
    if sanitize:
        monkeypatch.setenv(analysis.ENABLE_ENV, "1")
    gc.collect()
    outcome = SPECS[name].execute()
    assert [ref() for ref in machines] == [None]
    assert outcome.verified
    if SPECS[name].fault_plan is not None:
        assert outcome.recovery_stats["device_recoveries"] == 1


def test_gave_up_run_frees_its_machine(machines):
    gc.collect()
    error = common.attempt(EXHAUSTED)
    assert [ref() for ref in machines] == [None]
    assert isinstance(error, RecoveryExhausted)
    assert error.attempts == 3
    # The same plain-data form a pool worker hands back.
    assert error.last_error is None
    assert error.__cause__ is None and error.__context__ is None


def test_gave_up_run_spec_raises_without_pinning_its_machine(machines):
    gc.collect()
    with pytest.raises(RecoveryExhausted) as excinfo:
        common.run_spec(EXHAUSTED)
    assert [ref() for ref in machines] == [None]
    assert excinfo.value.last_error is None
