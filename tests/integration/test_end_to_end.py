"""Cross-layer integration scenarios."""

import numpy as np
import pytest

from repro.util.errors import GmacError
from repro.util.units import KB
from repro.os.paging import PAGE_SIZE
from repro.hw.machine import reference_system
from repro.workloads.base import Application
from repro.cuda.kernels import Kernel


def _sum_fn(gpu, data, out, n):
    gpu.view(out, "f8", 1)[0] = gpu.view(data, "f4", n).sum(dtype=np.float64)


SUM = Kernel("sum", _sum_fn, cost=lambda data, out, n: (n, 4 * n),
             writes=("out",))


class TestApplicationLifecycle:
    def test_alloc_free_realloc_cycles(self, gmac_factory):
        gmac = gmac_factory("rolling")
        for cycle in range(5):
            ptr = gmac.alloc(64 * KB, name=f"cycle{cycle}")
            ptr.write_bytes(bytes([cycle]) * 64)
            assert ptr.read_bytes(64) == bytes([cycle]) * 64
            gmac.free(ptr)
        assert gmac.manager.block_count == 0

    def test_many_regions_fault_dispatch(self, gmac_factory, scale_kernel):
        gmac = gmac_factory(
            "rolling", protocol_options={"block_size": PAGE_SIZE}
        )
        ptrs = [gmac.alloc(2 * PAGE_SIZE, name=f"r{i}") for i in range(8)]
        for index, ptr in enumerate(ptrs):
            ptr.write_array(np.full(8, float(index), dtype=np.float32))
        gmac.call(scale_kernel, data=ptrs[3], n=8, factor=2.0)
        gmac.sync()
        for index, ptr in enumerate(ptrs):
            expected = float(index) * (2.0 if index == 3 else 1.0)
            assert np.allclose(ptr.read_array("f4", 8), expected)

    def test_interleaved_host_and_shared_memory(self, app, gmac_factory):
        gmac = gmac_factory("rolling")
        shared = gmac.alloc(PAGE_SIZE)
        plain = app.process.malloc(PAGE_SIZE)
        shared.write_bytes(b"s" * 64)
        plain.write_bytes(b"p" * 64)
        app.libc.memcpy(int(plain), int(shared), 64)
        assert plain.read_bytes(64) == b"s" * 64

    def test_two_gmac_kernels_chained(self, gmac_factory, scale_kernel):
        gmac = gmac_factory("lazy")
        data = gmac.alloc(256)
        out = gmac.alloc(PAGE_SIZE)
        values = np.arange(64, dtype=np.float32)
        data.write_array(values)
        gmac.call(scale_kernel, data=data, n=64, factor=3.0)
        gmac.sync()
        gmac.call(SUM, data=data, out=out, n=64)
        gmac.sync()
        assert out.read_array("f8", 1)[0] == pytest.approx(
            float(values.sum()) * 3.0
        )


class TestMultiGpu:
    def test_second_gpu_collides_and_safe_alloc_recovers(self):
        machine = reference_system(gpu_count=2)
        app = Application(machine)
        first = app.gmac(protocol="rolling", layer="driver",
                         gpu=machine.gpus[0])
        second = app.gmac(protocol="rolling", layer="driver",
                          gpu=machine.gpus[1])
        ptr = first.alloc(PAGE_SIZE)
        # Both GPUs hand out the same device addresses; the second fixed
        # mapping collides in the single host address space.
        with pytest.raises(GmacError):
            second.alloc(PAGE_SIZE)
        safe = second.safe_alloc(PAGE_SIZE)
        assert int(safe) != second.safe(safe)
        safe.write_bytes(b"second gpu")
        assert safe.read_bytes(10) == b"second gpu"

    def test_fault_routing_between_instances(self):
        machine = reference_system(gpu_count=2)
        app = Application(machine)
        first = app.gmac(protocol="rolling", layer="driver",
                         gpu=machine.gpus[0], interpose=False)
        second = app.gmac(protocol="rolling", layer="driver",
                          gpu=machine.gpus[1], interpose=False)
        a = first.alloc(PAGE_SIZE)
        b = second.safe_alloc(PAGE_SIZE)
        a.write_bytes(b"one")
        b.write_bytes(b"two")
        assert first.fault_count == 1
        assert second.fault_count == 1


class TestDeviceMemoryPressure:
    def test_alloc_failure_propagates_cleanly(self, gmac_factory):
        gmac = gmac_factory("rolling")
        capacity = gmac.layer.driver.gpu.memory.capacity
        from repro.util.errors import AllocationError

        with pytest.raises(AllocationError):
            gmac.alloc(capacity + PAGE_SIZE)
        # The failure left no partial state behind.
        assert gmac.manager.block_count == 0

    def test_fill_and_release_device_memory(self, gmac_factory):
        gmac = gmac_factory("rolling")
        chunk = 64 * 1024 * 1024
        ptrs = [gmac.alloc(chunk) for _ in range(3)]
        for ptr in ptrs:
            gmac.free(ptr)
        assert gmac.layer.driver.gpu.memory.bytes_in_use == 0


class TestTimingConsistency:
    def test_clock_never_regresses(self, app, gmac_factory, scale_kernel):
        gmac = gmac_factory("rolling")
        timestamps = [app.machine.clock.now]
        ptr = gmac.alloc(1 << 20)
        timestamps.append(app.machine.clock.now)
        ptr.write_bytes(b"x" * (1 << 20))
        timestamps.append(app.machine.clock.now)
        gmac.call(scale_kernel, data=ptr, n=1 << 18, factor=1.0)
        timestamps.append(app.machine.clock.now)
        gmac.sync()
        timestamps.append(app.machine.clock.now)
        assert timestamps == sorted(timestamps)

    def test_eager_overlap_beats_synchronous_flush(self):
        """Rolling-update's eager eviction overlaps transfers with CPU
        production; the total must beat lazy-update's synchronous flush of
        the same data at call time when CPU production is slow."""
        results = {}
        for protocol in ("lazy", "rolling"):
            machine = reference_system()
            app = Application(machine)
            gmac = app.gmac(
                protocol=protocol, layer="driver",
                protocol_options=(
                    {"block_size": 256 * KB, "rolling_size": 2}
                    if protocol == "rolling" else None
                ),
            )
            ptr = gmac.alloc(4 << 20)
            for offset in range(0, 4 << 20, 64 * KB):
                machine.cpu.stream(64 * KB, 1.5e9)
                ptr.write_bytes(b"\x01" * (64 * KB), offset=offset)
            gmac.call(SUM, data=ptr, out=gmac.alloc(PAGE_SIZE), n=16)
            gmac.sync()
            results[protocol] = machine.clock.now
        assert results["rolling"] < results["lazy"]
