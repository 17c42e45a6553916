"""GPU, CPU and disk cost models."""

import pytest

from repro.sim.clock import SimClock
from repro.sim.tracing import TimeAccounting, Category
from repro.hw.specs import GTX280, OPTERON_2222, COMMODITY_DISK
from repro.cuda.kernels import Kernel
from repro.hw.gpu import Gpu
from repro.hw.cpu import Cpu
from repro.hw.disk import Disk


@pytest.fixture
def clock():
    return SimClock()


class TestGpu:
    def test_launch_is_async(self, clock):
        gpu = Gpu(GTX280, clock)
        completion = gpu.launch(1e-3)
        assert completion.finish == pytest.approx(
            GTX280.issue_overhead_s + 1e-3
        )
        assert clock.now == 0.0

    def test_launches_serialize(self, clock):
        gpu = Gpu(GTX280, clock)
        first = gpu.launch(1e-3)
        second = gpu.launch(1e-3)
        assert second.start == first.finish

    def test_synchronize(self, clock):
        gpu = Gpu(GTX280, clock)
        gpu.launch(2e-3)
        gpu.synchronize()
        assert clock.now == pytest.approx(GTX280.issue_overhead_s + 2e-3)

    def test_kernel_seconds_compute_bound(self):
        gpu = Gpu(GTX280, SimClock())
        assert gpu.kernel_seconds(500e9, 0) == pytest.approx(1.0)

    def test_kernel_seconds_memory_bound(self):
        gpu = Gpu(GTX280, SimClock())
        seconds = gpu.kernel_seconds(1, GTX280.memory_bandwidth_bytes_per_s)
        assert seconds == pytest.approx(1.0)

    def test_kernel_count(self, clock):
        gpu = Gpu(GTX280, clock)
        gpu.launch(1e-6)
        gpu.launch(1e-6)
        assert gpu.kernels_launched == 2

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            GTX280.kernel_seconds(-1, 0)

    def test_device_memory_view(self, clock):
        gpu = Gpu(GTX280, clock)
        addr = gpu.memory.alloc(16)
        gpu.view(addr, "i4", 4)[:] = [1, 2, 3, 4]
        assert gpu.view(addr, "i4", 4).tolist() == [1, 2, 3, 4]

    @pytest.mark.parametrize("defer", [True, False],
                             ids=["deferred", "eager"])
    def test_undeclared_kernel_write_raises(self, clock, defer):
        gpu = Gpu(GTX280, clock, defer_numerics=defer)
        src = gpu.memory.alloc(64)
        dst = gpu.memory.alloc(64)

        def scribble(gpu, src, dst, n):
            gpu.view(dst, "f4", n)[:] = gpu.view(src, "f4", n)
            gpu.view(src, "f4", n)[:] = 1.0  # src is not in ``writes``

        kernel = Kernel("scribble", scribble,
                        cost=lambda src, dst, n: (n, n), writes=("dst",))
        with pytest.raises(ValueError, match="read-only"):
            gpu.enqueue_numerics(kernel, dict(src=src, dst=dst, n=16))
            gpu.materialize()
        # The replay state is cleared: views outside kernels stay writable.
        gpu.view(src, "f4", 16)[:] = 2.0
        assert gpu.view(src, "f4", 16).tolist() == [2.0] * 16

    @pytest.mark.parametrize("defer", [True, False],
                             ids=["deferred", "eager"])
    def test_kernel_without_writes_keeps_writable_views(self, clock, defer):
        gpu = Gpu(GTX280, clock, defer_numerics=defer)
        data = gpu.memory.alloc(64)
        kernel = Kernel(
            "fill", lambda gpu, data, n: gpu.view(data, "f4", n).fill(3.0),
            cost=lambda data, n: (n, n),
        )
        gpu.enqueue_numerics(kernel, dict(data=data, n=16))
        assert gpu.view(data, "f4", 16).tolist() == [3.0] * 16


class TestCpu:
    def test_stream_custom_rate(self, clock):
        cpu = Cpu(OPTERON_2222, clock)
        cpu.stream(2e9, 2e9)
        assert clock.now == pytest.approx(1.0)

    def test_stream_bad_rate(self, clock):
        with pytest.raises(ValueError):
            Cpu(OPTERON_2222, clock).stream(10, 0)

    def test_charges_cpu_category(self, clock):
        accounting = TimeAccounting(clock)
        cpu = Cpu(OPTERON_2222, clock, accounting=accounting)
        cpu.stream(2e9, 2e9)
        assert accounting.totals[Category.CPU] == pytest.approx(1.0)

    def test_counters(self, clock):
        cpu = Cpu(OPTERON_2222, clock)
        cpu.stream(50, 1e9)
        cpu.stream(25, 1e9)
        assert cpu.bytes_touched == 75


class TestDisk:
    def test_read_time(self, clock):
        disk = Disk(COMMODITY_DISK, clock)
        disk.read(COMMODITY_DISK.read_bytes_per_s)
        assert clock.now == pytest.approx(1.0 + COMMODITY_DISK.latency_s)

    def test_write_time(self, clock):
        disk = Disk(COMMODITY_DISK, clock)
        disk.write(COMMODITY_DISK.write_bytes_per_s)
        assert clock.now == pytest.approx(1.0 + COMMODITY_DISK.latency_s)

    def test_operations_serialize(self, clock):
        disk = Disk(COMMODITY_DISK, clock)
        disk.read(1024)
        first_done = clock.now
        disk.write(1024)
        assert clock.now > first_done

    def test_byte_counters(self, clock):
        disk = Disk(COMMODITY_DISK, clock)
        disk.read(100)
        disk.write(200)
        assert disk.bytes_read == 100
        assert disk.bytes_written == 200

    def test_zero_size_free(self):
        assert COMMODITY_DISK.read_seconds(0) == 0.0
        assert COMMODITY_DISK.write_seconds(0) == 0.0
