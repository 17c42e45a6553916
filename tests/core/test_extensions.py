"""The paper's suggested extensions: accelerator virtual memory (Section
4.2's "good solution") and hardware peer DMA (Section 7)."""

import numpy as np
import pytest

from repro.util.errors import AllocationError, CudaError, GmacError
from repro.os.paging import PAGE_SIZE
from repro.hw.machine import Machine
from repro.hw.specs import FERMI
from repro.workloads.base import Application
from repro.core.blocks import BlockState


@pytest.fixture
def vm_machine():
    return Machine(gpu_spec=FERMI, gpu_count=2)


@pytest.fixture
def vm_app(vm_machine):
    return Application(vm_machine)


class TestDeviceVirtualMemory:
    def test_alloc_at_carves_exact_range(self):
        from repro.hw.memory import DeviceMemory, DEVICE_BASE

        memory = DeviceMemory(1 << 20)
        address = memory.alloc_at(DEVICE_BASE + 8 * PAGE_SIZE, PAGE_SIZE)
        assert address == DEVICE_BASE + 8 * PAGE_SIZE
        memory.check_invariants()
        with pytest.raises(AllocationError):
            memory.alloc_at(DEVICE_BASE + 8 * PAGE_SIZE, PAGE_SIZE)
        memory.free(address)
        memory.check_invariants()
        assert memory.bytes_in_use == 0

    def test_alloc_at_unaligned_rejected(self):
        from repro.hw.memory import DeviceMemory, DEVICE_BASE

        memory = DeviceMemory(1 << 20)
        with pytest.raises(AllocationError):
            memory.alloc_at(DEVICE_BASE + 5, PAGE_SIZE)

    def test_non_vm_gpu_rejects_placement(self, app):
        from repro.cuda.driver import DriverContext
        from repro.hw.memory import DEVICE_BASE

        ctx = DriverContext(app.machine, app.process)
        with pytest.raises(CudaError):
            ctx.mem_alloc_at(DEVICE_BASE, PAGE_SIZE)

    def test_two_vm_gpus_no_collision_no_safe_alloc(self, vm_machine, vm_app):
        """The multi-accelerator case that forces adsmSafeAlloc on
        VM-less GPUs just works with accelerator virtual memory."""
        first = vm_app.gmac(protocol="rolling", layer="driver",
                            gpu=vm_machine.gpus[0], interpose=False)
        second = vm_app.gmac(protocol="rolling", layer="driver",
                             gpu=vm_machine.gpus[1], interpose=False)
        a = first.alloc(4 * PAGE_SIZE)
        b = second.alloc(4 * PAGE_SIZE)  # would raise GmacError without VM
        assert int(a) != int(b)
        assert first.manager.region_at(int(a)).is_aliased
        assert second.manager.region_at(int(b)).is_aliased
        a.write_bytes(b"gpu0")
        b.write_bytes(b"gpu1")
        assert a.read_bytes(4) == b"gpu0"
        assert b.read_bytes(4) == b"gpu1"

    def test_vm_allocation_skips_host_conflicts(self, vm_machine, vm_app):
        gmac = vm_app.gmac(protocol="rolling", layer="driver",
                           gpu=vm_machine.gpus[0], interpose=False)
        probe = gmac.alloc(PAGE_SIZE)
        # Occupy the next device-range addresses on the host side.
        vm_app.process.address_space.mmap(
            4 * PAGE_SIZE, fixed_address=int(probe) + PAGE_SIZE
        )
        ptr = gmac.alloc(2 * PAGE_SIZE)  # must route around the conflict
        assert int(ptr) >= int(probe) + 5 * PAGE_SIZE
        ptr.write_bytes(b"routed")
        assert ptr.read_bytes(6) == b"routed"

    def test_vm_roundtrip_through_kernel(self, vm_machine, vm_app,
                                         scale_kernel):
        gmac = vm_app.gmac(protocol="rolling", layer="driver",
                           gpu=vm_machine.gpus[0])
        ptr = gmac.alloc(64)
        ptr.write_array(np.full(16, 4.0, dtype=np.float32))
        gmac.call(scale_kernel, data=ptr, n=16, factor=0.5)
        gmac.sync()
        assert np.allclose(ptr.read_array("f4", 16), 2.0)


class TestPeerDma:
    @pytest.fixture
    def peer_gmac(self, app):
        return app.gmac(
            protocol="rolling", layer="driver", peer_dma=True,
            protocol_options={"block_size": PAGE_SIZE},
        )

    def test_peer_read_lands_on_device_without_faults(self, app, peer_gmac):
        payload = bytes(range(256)) * (2 * PAGE_SIZE // 256)
        app.fs.create("in.bin", payload)
        ptr = peer_gmac.alloc(2 * PAGE_SIZE)
        before = app.process.signals.delivered
        with app.fs.open("in.bin") as handle:
            assert app.libc.read(handle, int(ptr), 2 * PAGE_SIZE) == (
                2 * PAGE_SIZE
            )
        assert app.process.signals.delivered == before  # no page faults
        region = peer_gmac.manager.region_at(int(ptr))
        assert all(b.state is BlockState.INVALID for b in region.blocks)
        assert peer_gmac.layer.driver.gpu.memory.read(
            region.device_start, len(payload)
        ) == payload
        # The CPU still sees the data, via normal on-demand fetching.
        assert ptr.read_bytes(16) == payload[:16]

    def test_peer_write_streams_from_device(self, app, peer_gmac,
                                            scale_kernel):
        n = 2 * PAGE_SIZE // 4
        ptr = peer_gmac.alloc(2 * PAGE_SIZE)
        ptr.write_array(np.full(n, 3.0, dtype=np.float32))
        peer_gmac.call(scale_kernel, data=ptr, n=n, factor=2.0)
        peer_gmac.sync()
        before = peer_gmac.bytes_to_host
        with app.fs.open("out.bin", "w") as handle:
            app.libc.write(handle, int(ptr), 2 * PAGE_SIZE)
        # Nothing was fetched into system memory.
        assert peer_gmac.bytes_to_host == before
        written = np.frombuffer(app.fs.data_of("out.bin"), dtype=np.float32)
        assert np.allclose(written, 6.0)

    def test_peer_dma_speeds_up_io_heavy_workload(self):
        """mri-fhd — the benchmark the paper says 'would benefit from
        hardware that supports peer DMA' — gets faster with it."""
        from repro.workloads.parboil import MriFhd

        def run(peer_dma):
            workload = MriFhd(n_samples=8192, n_voxels=64)
            result = workload.execute(
                mode="gmac", protocol="rolling",
                gmac_options={"layer": "driver", "peer_dma": peer_dma},
            )
            assert result.verified
            return result.elapsed

        assert run(True) < run(False)

    def test_partial_block_reads_fall_back(self, app, peer_gmac):
        app.fs.create("in.bin", b"Z" * 100)
        ptr = peer_gmac.alloc(PAGE_SIZE)
        with app.fs.open("in.bin") as handle:
            app.libc.read(handle, int(ptr) + 8, 100)
        assert ptr.read_bytes(100, offset=8) == b"Z" * 100
