"""Multi-device failover: re-homing, watchdog escalation, readmission.

The scenarios the ISSUE's acceptance criteria name: device loss at a
kernel launch fails the lost device's regions over onto survivors
(byte-identically, from host-canonical state); a wedged transfer trips
the watchdog's deadline and escalates to declare-device-lost after
salvaging device-only bytes; flapping devices readmit after quarantine
and the rebalancer migrates load back; and recovery exhaustion raises
the typed, pickle-safe :class:`RecoveryExhausted`.
"""

import pickle

import numpy as np
import pytest

from repro.util.errors import (
    RecoveryExhausted,
    RetryExhaustedError,
    TransferError,
)
from repro.util.units import KB, MB
from repro.faults import FaultPlan
from repro.hw.machine import multi_device_system
from repro.workloads.base import Application
from repro.core.recovery import RecoveryPolicy


@pytest.fixture
def multi_machine():
    return multi_device_system(devices=3)


@pytest.fixture
def multi_app(multi_machine):
    return Application(multi_machine)


@pytest.fixture
def multi_gmac_factory(multi_app):
    def build(protocol="rolling", **kwargs):
        kwargs.setdefault("layer", "driver")
        return multi_app.gmac(protocol=protocol, **kwargs)

    return build


def _device_bytes(gmac, region):
    context = gmac.layer.context_for(region.owner)
    return np.array(
        context.gpu.memory.view(region.device_start, "u1", region.mapped_size)
    )


class TestMultiDevicePlacement:
    def test_round_robin_spreads_ownership(self, multi_gmac_factory):
        gmac = multi_gmac_factory()
        ptrs = [gmac.alloc(256 * KB, name=f"r{i}") for i in range(3)]
        assert [ptr.region.owner for ptr in ptrs] == [0, 1, 2]

    def test_kernel_consolidates_regions_over_peer_dma(
            self, multi_gmac_factory, add_kernel):
        gmac = multi_gmac_factory()
        n = (256 * KB) // 4
        a = gmac.alloc(256 * KB, name="a")
        b = gmac.alloc(256 * KB, name="b")
        c = gmac.alloc(256 * KB, name="c")
        a.write_array(np.full(n, 2.0, dtype=np.float32))
        b.write_array(np.full(n, 3.0, dtype=np.float32))
        gmac.call(add_kernel, a=a, b=b, c=c, n=n)
        gmac.sync()
        owners = {ptr.region.owner for ptr in (a, b, c)}
        assert len(owners) == 1, "all operands co-located for the launch"
        assert gmac.manager.peer_bytes > 0
        assert np.allclose(c.read_array("f4", n), 5.0)


class TestDeviceLossFailover:
    def test_lost_regions_rehome_onto_survivors(
            self, multi_machine, multi_gmac_factory, add_kernel):
        multi_machine.install_faults(
            FaultPlan(seed=17, device_lost_at_launch=1)
        )
        gmac = multi_gmac_factory()
        n = (256 * KB) // 4
        a = gmac.alloc(256 * KB, name="a")
        b = gmac.alloc(256 * KB, name="b")
        c = gmac.alloc(256 * KB, name="c")
        a.write_array(np.full(n, 2.0, dtype=np.float32))
        b.write_array(np.full(n, 3.0, dtype=np.float32))
        gmac.call(add_kernel, a=a, b=b, c=c, n=n)
        gmac.sync()
        stats = gmac.recovery.stats
        assert stats["failovers"] == 1
        assert stats["device_recoveries"] == 1
        lost = next(iter(gmac.placement.dead))
        for ptr in (a, b, c):
            assert ptr.region.owner != lost
        assert np.allclose(c.read_array("f4", n), 5.0)

    def test_rematerialisation_is_byte_identical(
            self, multi_machine, multi_gmac_factory, scale_kernel):
        multi_machine.install_faults(
            FaultPlan(seed=17, device_lost_at_launch=1)
        )
        gmac = multi_gmac_factory()
        n = (512 * KB) // 4
        data = gmac.alloc(512 * KB, name="data")
        pattern = np.arange(n, dtype=np.float32)
        data.write_array(pattern)
        gmac.call(scale_kernel, data=data, n=n, factor=2.0)
        gmac.sync()
        # The survivor's device copy matches the oracle exactly: the
        # host checkpoint re-materialised every byte.
        got = _device_bytes(gmac, data.region)[:4 * n].view(np.float32)
        assert np.array_equal(got, pattern * np.float32(2.0))
        assert np.array_equal(data.read_array("f4", n),
                              pattern * np.float32(2.0))

    def test_single_device_machine_still_revives_in_place(
            self, app, gmac_factory, scale_kernel):
        app.machine.install_faults(
            FaultPlan(seed=17, device_lost_at_launch=1)
        )
        gmac = gmac_factory()
        data = gmac.alloc(256 * KB, name="data")
        n = (256 * KB) // 4
        data.write_array(np.ones(n, dtype=np.float32))
        gmac.call(scale_kernel, data=data, n=n, factor=3.0)
        gmac.sync()
        assert gmac.recovery.stats["device_recoveries"] == 1
        assert gmac.recovery.stats["failovers"] == 0
        assert np.allclose(data.read_array("f4", n), 3.0)


class TestWatchdogEscalation:
    def test_wedged_transfer_escalates_to_device_lost(
            self, multi_machine, multi_gmac_factory, scale_kernel):
        multi_machine.install_faults(
            FaultPlan(seed=17, transfer_burst=(1, 10))
        )
        # 4 ms: the cumulative backoff (20 us doubling) crosses it on the
        # ~8th failure — before retry exhaustion — while the burst's one
        # or two leftover faults retry cleanly under a fresh deadline
        # during the recovery flushes.
        gmac = multi_gmac_factory(
            protocol="lazy",
            recovery=RecoveryPolicy(transfer_deadline_s=4e-3),
        )
        data = gmac.alloc(1 * MB, name="data")
        n = (1 * MB) // 4
        data.write_array(np.ones(n, dtype=np.float32))
        gmac.call(scale_kernel, data=data, n=n, factor=2.0)
        gmac.sync()
        stats = gmac.recovery.stats
        trips = stats["watchdog_trips"]
        assert [t["action"] for t in trips] == ["declare-device-lost"]
        assert trips[0]["tripped_at"] >= trips[0]["expires_at"]
        assert stats["failovers"] == 1
        assert np.allclose(data.read_array("f4", n), 2.0)

    def test_loss_during_failover_fails_over_again(
            self, multi_machine, multi_gmac_factory, scale_kernel):
        # At 8 MiB each recovery flush is still inside the burst and
        # outlasts its own 4 ms deadline, so each survivor is declared
        # lost mid-recovery: the next rung of the same ladder.  Two
        # failovers use up the survivors; the last device revives in
        # place, and the burst is over by then.
        multi_machine.install_faults(
            FaultPlan(seed=17, transfer_burst=(1, 10))
        )
        gmac = multi_gmac_factory(
            protocol="lazy",
            recovery=RecoveryPolicy(transfer_deadline_s=4e-3),
        )
        data = gmac.alloc(8 * MB, name="data")
        n = (8 * MB) // 4
        data.write_array(np.arange(n, dtype=np.float32))
        gmac.call(scale_kernel, data=data, n=n, factor=2.0)
        gmac.sync()
        stats = gmac.recovery.stats
        assert [t["action"] for t in stats["watchdog_trips"]] == [
            "declare-device-lost"] * 3
        assert stats["failovers"] == 2
        assert stats["device_recoveries"] == 3
        # Both failed-over devices sit out a quarantine, readmittable
        # later, although a loss cut each of their failovers short.
        assert len(gmac.placement.dead) == 2
        assert sorted(gmac.recovery._lost) == sorted(gmac.placement.dead)
        assert data.region.owner not in gmac.placement.dead
        expected = np.arange(n, dtype=np.float32) * np.float32(2.0)
        assert np.array_equal(data.read_array("f4", n), expected)

    def test_salvage_pulls_device_only_blocks_home(
            self, multi_machine, multi_gmac_factory, scale_kernel):
        # Never fires: the plan only arms the recovery machinery.
        multi_machine.install_faults(
            FaultPlan(seed=17, device_lost_at_launch=999)
        )
        gmac = multi_gmac_factory()
        data = gmac.alloc(256 * KB, name="data")
        n = (256 * KB) // 4
        data.write_array(np.ones(n, dtype=np.float32))
        gmac.call(scale_kernel, data=data, n=n, factor=5.0)
        gmac.sync()
        region = data.region
        from repro.core.blocks import BlockState

        assert list(region.table.indices_in(BlockState.INVALID)), (
            "the kernel output must live only on the device for this test"
        )
        recovery = gmac.recovery
        recovery._salvage(gmac.layer.context_for(region.owner))
        assert recovery.stats["blocks_salvaged"] > 0
        host = gmac.process.address_space.view(
            region.host_start, "f4", n
        )
        assert np.allclose(np.array(host), 5.0)


class TestFlappingAndReadmission:
    def test_flapping_device_readmits_and_rebalances(
            self, multi_machine, multi_gmac_factory, add_kernel):
        multi_machine.install_faults(
            FaultPlan(seed=17, device_lost_at_launches=(1, 3))
        )
        gmac = multi_gmac_factory(
            recovery=RecoveryPolicy(readmit_after_s=1e-3)
        )
        n = (256 * KB) // 4
        a = gmac.alloc(256 * KB, name="a")
        b = gmac.alloc(256 * KB, name="b")
        c = gmac.alloc(256 * KB, name="c")
        a.write_array(np.full(n, 1.0, dtype=np.float32))
        b.write_array(np.full(n, 1.0, dtype=np.float32))
        for _ in range(6):
            gmac.call(add_kernel, a=a, b=b, c=c, n=n)
            gmac.sync()
        stats = gmac.recovery.stats
        assert stats["failovers"] == 2
        assert stats["readmissions"] == 2
        assert stats["rebalances"] >= 1
        assert not gmac.placement.dead
        assert np.allclose(c.read_array("f4", n), 2.0)


class TestRecoveryExhaustion:
    def test_too_many_losses_raise_recovery_exhausted(
            self, multi_machine, multi_gmac_factory, scale_kernel):
        multi_machine.install_faults(
            FaultPlan(seed=17, device_lost_at_launches=(1, 2, 3))
        )
        gmac = multi_gmac_factory(
            recovery=RecoveryPolicy(max_device_recoveries=2)
        )
        data = gmac.alloc(256 * KB, name="data")
        n = (256 * KB) // 4
        data.write_array(np.ones(n, dtype=np.float32))
        with pytest.raises(RecoveryExhausted) as excinfo:
            gmac.call(scale_kernel, data=data, n=n, factor=2.0)
        assert excinfo.value.attempts == 3
        # Existing handlers that catch the base class keep working.
        assert isinstance(excinfo.value, RetryExhaustedError)

    def test_recovery_exhausted_is_pickle_safe(self):
        class Unpicklable:
            def __reduce__(self):
                raise TypeError("live simulator object")

        error = RecoveryExhausted(
            "gave up", attempts=4,
            last_error=TransferError("dma", timestamp=1.0),
            timestamp=2.5, resource="NVIDIA G280",
        )
        error.last_error.context = Unpicklable()  # a live object chain
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, RecoveryExhausted)
        assert str(clone) == "gave up"
        assert clone.attempts == 4
        assert clone.timestamp == 2.5
        assert clone.resource == "NVIDIA G280"
        assert clone.last_error is None  # dropped by design


class TestSeededDeterminism:
    """Satellite: burst/loss plans replay identically across a fork pool."""

    def _burst_spec(self, workload="vecadd"):
        from repro.experiments.spec import RunSpec

        return RunSpec.make(
            workload=workload,
            params=dict(elements=64 * 1024),
            protocol="lazy",
            layer="driver",
            fault_plan=dict(seed=17, transfer_burst=(1, 10)),
            recovery=dict(transfer_deadline_s=4e-3),
            devices=3,
        )

    def _loss_spec(self):
        from repro.experiments.spec import RunSpec

        return RunSpec.make(
            workload="vecadd",
            params=dict(elements=64 * 1024),
            protocol="rolling",
            layer="driver",
            fault_plan=dict(seed=17, device_lost_at_launches=(1,)),
            devices=3,
        )

    def test_fork_pool_outcomes_match_serial(self):
        from repro.experiments import common
        from repro.experiments.executor import ExperimentExecutor

        specs = [self._burst_spec(), self._loss_spec()]
        serial = [spec.execute() for spec in specs]
        executor = ExperimentExecutor(jobs=2, use_cache=False)
        try:
            with executor.cache_context():
                common.clear_cache()
                executor.prime(specs)
                pooled = [common.peek(spec) for spec in specs]
        finally:
            common.clear_cache()
        assert executor.stats["executed"] == 2
        for mine, theirs in zip(serial, pooled):
            assert theirs is not None
            assert theirs.elapsed == mine.elapsed
            assert theirs.breakdown == mine.breakdown
            assert theirs.verified and mine.verified
            assert theirs.recovery_stats == mine.recovery_stats
            assert theirs.injected_faults == mine.injected_faults

    def test_same_spec_executes_identically_twice(self):
        spec = self._burst_spec()
        first = spec.execute()
        second = spec.execute()
        assert first.elapsed == second.elapsed
        assert first.breakdown == second.breakdown
        assert first.recovery_stats == second.recovery_stats
