"""Layer-level fault injection: driver, interconnect, filesystem.

These tests bypass GMAC and poke the injection points directly, so each
failure mode is checked in isolation; recovery is covered separately in
test_recovery.py.
"""

import numpy as np
import pytest

from repro.util.errors import (
    CudaOutOfMemoryError,
    DeviceLostError,
    LaunchError,
    TransferError,
)
from repro.util.units import MB
from repro.faults import FaultPlan
from repro.hw.machine import integrated_system, reference_system
from repro.hw.interconnect import Direction
from repro.cuda.driver import DriverContext
from repro.cuda.kernels import Kernel
from repro.workloads.base import Application
from repro.workloads.vecadd import VectorAdd


def _double_fn(gpu, data, n):
    gpu.view(data, "f4", n)[:] *= np.float32(2.0)


DOUBLE = Kernel("double", _double_fn, cost=lambda data, n: (n, 8 * n))


@pytest.fixture
def ctx(app):
    return DriverContext(app.machine, app.process)


class TestTransferInjection:
    def test_h2d_fault_raises_stamped_transfer_error(self, app, ctx):
        app.machine.install_faults(FaultPlan(transfer_fault_rate=1.0))
        host = app.process.malloc(MB)
        dev = ctx.mem_alloc(MB)
        with pytest.raises(TransferError) as excinfo:
            ctx.memcpy_h2d(dev, int(host), MB)
        error = excinfo.value
        assert error.transient
        assert error.direction is Direction.H2D
        assert error.size == MB
        assert error.timestamp == app.machine.clock.now
        assert "PCIe" in error.resource

    def test_failed_dma_occupies_the_link_full_duration(self, app, ctx):
        """The engine only reports the error at completion time, so a
        failed attempt costs as much wall-clock as a successful one."""
        app.machine.install_faults(FaultPlan(transfer_fault_rate=1.0))
        host = app.process.malloc(MB)
        dev = ctx.mem_alloc(MB)
        before = app.machine.clock.now
        with pytest.raises(TransferError):
            ctx.memcpy_h2d(dev, int(host), MB)
        elapsed = app.machine.clock.now - before
        assert elapsed >= app.machine.link.spec.transfer_seconds(MB)

    def test_failed_dma_counts_separately_from_figure8_bytes(self, app, ctx):
        app.machine.install_faults(FaultPlan(transfer_fault_rate=1.0))
        host = app.process.malloc(MB)
        dev = ctx.mem_alloc(MB)
        with pytest.raises(TransferError):
            ctx.memcpy_h2d(dev, int(host), MB)
        link = app.machine.link
        assert link.faulted_bytes[Direction.H2D] == MB
        assert link.faulted_count[Direction.H2D] == 1
        assert link.bytes_moved[Direction.H2D] == 0

    def test_failed_h2d_leaves_device_memory_untouched(self, app, ctx):
        app.machine.install_faults(FaultPlan(transfer_fault_rate=1.0))
        host = app.process.malloc(64)
        host.write_bytes(b"x" * 64)
        dev = ctx.mem_alloc(64)
        before = bytes(ctx.gpu.memory.read(dev, 64))
        with pytest.raises(TransferError):
            ctx.memcpy_h2d(dev, int(host), 64)
        assert bytes(ctx.gpu.memory.read(dev, 64)) == before

    def test_d2h_uses_its_own_site(self, app, ctx):
        plan = app.machine.install_faults(FaultPlan(transfer_fault_rate=1.0))
        host = app.process.malloc(64)
        dev = ctx.mem_alloc(64)
        with pytest.raises(TransferError) as excinfo:
            ctx.memcpy_d2h(int(host), dev, 64)
        assert excinfo.value.direction is Direction.D2H
        assert plan.injected["transfer.d2h"] == 1
        assert plan.injected["transfer.h2d"] == 0

    def test_integrated_machine_has_no_dma_to_fault(self):
        machine = integrated_system()
        machine.install_faults(FaultPlan(transfer_fault_rate=1.0))
        app = Application(machine)
        ctx = DriverContext(machine, app.process)
        host = app.process.malloc(64)
        dev = ctx.mem_alloc(64)
        ctx.memcpy_h2d(dev, int(host), 64)  # must not raise
        assert machine.faults.attempts["transfer.h2d"] == 0


class TestMallocInjection:
    def test_injected_oom_is_transient(self, app, ctx):
        app.machine.install_faults(FaultPlan(oom_at_mallocs=(1,)))
        with pytest.raises(CudaOutOfMemoryError) as excinfo:
            ctx.mem_alloc(4096)
        assert excinfo.value.transient
        # The schedule named only the first attempt; the next one works.
        assert ctx.mem_alloc(4096) is not None


class TestLaunchInjection:
    def test_transient_rejection_has_no_device_effect(self, app, ctx):
        app.machine.install_faults(FaultPlan(launch_fault_rate=1.0))
        dev = ctx.mem_alloc(64)
        ctx.gpu.memory.view(dev, "f4", 16)[:] = 3.0
        with pytest.raises(LaunchError) as excinfo:
            ctx.launch(DOUBLE, {"data": dev, "n": 16})
        assert excinfo.value.kernel == "double"
        assert np.allclose(ctx.gpu.memory.view(dev, "f4", 16), 3.0)

    def test_device_lost_kills_the_context(self, app, ctx):
        app.machine.install_faults(FaultPlan(device_lost_at_launch=1))
        dev = ctx.mem_alloc(64)
        with pytest.raises(DeviceLostError):
            ctx.launch(DOUBLE, {"data": dev, "n": 16})
        assert not ctx.alive
        # Every subsequent operation fails until the device is revived.
        with pytest.raises(DeviceLostError):
            ctx.mem_alloc(64)
        with pytest.raises(DeviceLostError):
            ctx.memcpy_h2d(dev, 0, 64)

    def test_revive_resets_device_and_allocations(self, app, ctx):
        app.machine.install_faults(FaultPlan(device_lost_at_launch=1))
        dev = ctx.mem_alloc(4096)
        with pytest.raises(DeviceLostError):
            ctx.launch(DOUBLE, {"data": dev, "n": 16})
        ctx.revive()
        assert ctx.alive
        assert ctx.allocations == {}
        restored = ctx.restore_allocation(dev, 4096)
        assert restored == dev
        # The fault plan's device loss fired; later launches succeed.
        ctx.launch(DOUBLE, {"data": dev, "n": 16})


class TestDiskInjection:
    def test_short_read_delivers_prefix_and_keeps_position(self, app):
        app.machine.install_faults(FaultPlan(seed=1, short_read_rate=1.0))
        app.fs.create("f", bytes(range(200)))
        with app.fs.open("f") as handle:
            first = handle.read(100)
            assert 1 <= len(first) < 100
            # The undelivered tail is still in the file, at the position.
            second = handle.read(200 - len(first))
            assert (first + second).startswith(bytes(range(len(first))))

    def test_no_plan_reads_are_exact(self, app):
        app.fs.create("f", bytes(range(200)))
        with app.fs.open("f") as handle:
            assert len(handle.read(100)) == 100


class TestZeroCost:
    """With a default FaultPlan() every run is byte-identical to no plan."""

    def test_disabled_plan_never_consulted(self, app, ctx):
        plan = app.machine.install_faults(FaultPlan())
        host = app.process.malloc(MB)
        dev = ctx.mem_alloc(MB)
        ctx.memcpy_h2d(dev, int(host), MB)
        ctx.launch(DOUBLE, {"data": dev, "n": 16})
        assert sum(plan.attempts.values()) == 0

    def test_vecadd_identical_with_and_without_none_plan(self):
        workload = VectorAdd(elements=64 * 1024)
        plain = workload.execute(mode="gmac", protocol="rolling",
                                 gmac_options={"layer": "driver"})
        machine = reference_system()
        machine.install_faults(FaultPlan())
        nulled = workload.execute(mode="gmac", protocol="rolling",
                                  machine=machine,
                                  gmac_options={"layer": "driver"})
        assert nulled.verified and plain.verified
        assert nulled.elapsed == plain.elapsed
        assert nulled.breakdown == plain.breakdown
        assert nulled.bytes_to_accelerator == plain.bytes_to_accelerator
        assert nulled.bytes_to_host == plain.bytes_to_host
        assert nulled.faults == plain.faults
        # A disabled plan must not even arm the recovery machinery.
        assert nulled.extra["gmac"].recovery is None
