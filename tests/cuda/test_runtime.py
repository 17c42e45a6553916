"""The runtime API: lazy init, accounting, synchronization."""

import numpy as np
import pytest

from repro.sim.tracing import Category
from repro.cuda.kernels import Kernel
from repro.cuda.runtime import CudaRuntime


def _inc_fn(gpu, data, n):
    gpu.view(data, "i4", n)[:] += 1


INC = Kernel("inc", _inc_fn, cost=lambda data, n: (n, 8 * n))


@pytest.fixture
def cuda(app):
    return app.cuda()


class TestLazyInit:
    def test_first_call_pays_init(self, app, cuda):
        cuda.cuda_malloc(4096)
        assert app.machine.clock.now >= cuda.init_cost_s

    def test_init_paid_once(self, app, cuda):
        cuda.cuda_malloc(4096)
        after_first = app.machine.clock.now
        cuda.cuda_malloc(4096)
        assert app.machine.clock.now - after_first < cuda.init_cost_s

    def test_init_charged_to_cuda_malloc(self, app, cuda):
        cuda.cuda_malloc(4096)
        assert app.machine.accounting.totals[Category.CUDA_MALLOC] >= (
            cuda.init_cost_s
        )

    def test_custom_init_cost(self, app):
        cuda = app.cuda(init_cost_s=0.5)
        cuda.cuda_malloc(4096)
        assert app.machine.clock.now >= 0.5


class TestAccounting:
    def test_memcpy_charged_as_copy(self, app, cuda):
        host = app.process.malloc(1 << 20)
        dev = cuda.cuda_malloc(1 << 20)
        cuda.cuda_memcpy_h2d(dev, host, 1 << 20)
        assert app.machine.accounting.totals[Category.COPY] > 0

    def test_launch_charged_as_cuda_launch(self, app, cuda):
        dev = cuda.cuda_malloc(64)
        cuda.launch(INC, data=dev, n=4)
        assert app.machine.accounting.totals[Category.CUDA_LAUNCH] > 0

    def test_sync_wait_charged_as_gpu(self, app, cuda):
        dev = cuda.cuda_malloc(1 << 20)
        cuda.launch(INC, data=dev, n=1 << 18)
        cuda.cuda_thread_synchronize()
        assert app.machine.accounting.totals[Category.GPU] > 0


class TestSemantics:
    def test_full_pipeline(self, app, cuda):
        n = 1024
        host = app.process.malloc(4 * n)
        host.write_array(np.zeros(n, dtype=np.int32))
        dev = cuda.cuda_malloc(4 * n)
        cuda.cuda_memcpy_h2d(dev, host, 4 * n)
        cuda.launch(INC, data=dev, n=n)
        cuda.cuda_thread_synchronize()
        cuda.cuda_memcpy_d2h(host, dev, 4 * n)
        assert np.array_equal(
            host.read_array("i4", n), np.ones(n, dtype=np.int32)
        )

    def test_cuda_memset(self, cuda):
        dev = cuda.cuda_malloc(64)
        cuda.cuda_memset(dev, 0x11, 64)
        assert cuda.driver.gpu.memory.read(dev, 4) == b"\x11" * 4

    def test_async_memcpy_with_stream(self, app, cuda):
        from repro.cuda.driver import Stream

        stream = Stream()
        host = app.process.malloc(1 << 20)
        dev = cuda.cuda_malloc(1 << 20)
        completion = cuda.cuda_memcpy_h2d_async(dev, host, 1 << 20, stream)
        assert completion.finish > app.machine.clock.now
        cuda.cuda_thread_synchronize()
        assert app.machine.clock.now >= completion.finish

    def test_sync_returns_waited_time(self, cuda):
        dev = cuda.cuda_malloc(64)
        cuda.launch(INC, data=dev, n=16)
        waited = cuda.cuda_thread_synchronize()
        assert waited > 0
        # A second sync only pays the driver-call overhead, no GPU wait.
        assert cuda.cuda_thread_synchronize() == pytest.approx(
            cuda.driver.CALL_OVERHEAD_S, abs=1e-6
        )


class TestKernelObject:
    def test_bad_kernel_rejected(self):
        from repro.util.errors import CudaError

        with pytest.raises(CudaError):
            Kernel("bad", None, cost=lambda: (0, 0))

    def test_negative_cost_rejected(self, app, cuda):
        from repro.util.errors import CudaError

        bad = Kernel("neg", _inc_fn, cost=lambda data, n: (-1, 0))
        dev = cuda.cuda_malloc(64)
        with pytest.raises(CudaError):
            cuda.launch(bad, data=dev, n=4)

    def test_writes_annotation_stored(self):
        kernel = Kernel("k", _inc_fn, cost=lambda data, n: (0, 0),
                        writes=("data",))
        assert kernel.writes == frozenset({"data"})

    def test_repr(self):
        assert "inc" in repr(INC)
