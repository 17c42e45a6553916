"""The high-level (runtime) accelerator API.

Mirrors the CUDA runtime API the paper's baseline applications use
directly: ``cudaMalloc``, ``cudaFree``, ``cudaMemcpy`` (+Async),
``cudaMemset``, kernel launch and ``cudaThreadSynchronize``.  Two things
distinguish it from the driver layer:

* **lazy initialisation** — the first runtime call pays a context-creation
  cost, which is why the paper uses the *runtime* abstraction layer when
  comparing GMAC against CUDA (both pay it) and the *driver* layer when
  extracting break-downs (Section 5);
* **accounting** — every call charges its Figure 10 category
  (cudaMalloc / cudaFree / cudaLaunch, copies under Copy, waits under GPU).
"""

from repro.sim.tracing import Category
from repro.cuda.driver import DriverContext


class CudaRuntime:
    """cudaMalloc/cudaMemcpy/cudaLaunch-style API with accounting."""

    #: One-time context creation charged at the first runtime call.  The
    #: real CUDA 2.2 cost is tens of milliseconds; it is scaled down with
    #: the workloads so that, as in the paper, it stays small relative to
    #: application run time (the driver layer discards it entirely).
    INIT_COST_S = 1.0e-3

    #: CPU-side cost of a runtime API call on top of the driver call.
    CALL_OVERHEAD_S = 1.0e-6

    def __init__(self, machine, process, gpu=None, init_cost_s=None):
        self.machine = machine
        self.process = process
        self.accounting = machine.accounting
        self.driver = DriverContext(machine, process, gpu=gpu)
        self.init_cost_s = self.INIT_COST_S if init_cost_s is None else init_cost_s
        self._initialized = False
        self._pending_kernels = []

    def _ensure_initialized(self):
        """Pay the lazy context-creation cost once."""
        if not self._initialized:
            self._initialized = True
            self.machine.clock.advance(self.init_cost_s)
            self.accounting.charge(
                Category.CUDA_MALLOC, self.init_cost_s, label="cuda-init"
            )

    def _call_overhead(self):
        self.machine.clock.advance(self.CALL_OVERHEAD_S)

    # -- memory ------------------------------------------------------------------

    def cuda_malloc(self, size):
        self._ensure_initialized()
        with self.accounting.measure(Category.CUDA_MALLOC, label="cudaMalloc"):
            self._call_overhead()
            return self.driver.mem_alloc(size)

    # -- transfers ---------------------------------------------------------------

    def cuda_memcpy_h2d(self, device, host, size):
        self._ensure_initialized()
        with self.accounting.measure(Category.COPY, label="cudaMemcpy H2D"):
            self._call_overhead()
            return self.driver.memcpy_h2d(device, int(host), size, sync=True)

    def cuda_memcpy_d2h(self, host, device, size):
        self._ensure_initialized()
        with self.accounting.measure(Category.COPY, label="cudaMemcpy D2H"):
            self._call_overhead()
            return self.driver.memcpy_d2h(int(host), device, size, sync=True)

    def cuda_memcpy_h2d_async(self, device, host, size, stream):
        """Asynchronous copy: the CPU pays only the issue cost."""
        self._ensure_initialized()
        self._call_overhead()
        return self.driver.memcpy_h2d(
            device, int(host), size, stream=stream, sync=False
        )

    def cuda_memset(self, device, value, size):
        self._ensure_initialized()
        with self.accounting.measure(Category.COPY, label="cudaMemset"):
            self._call_overhead()
            return self.driver.memset_d8(device, value, size)

    # -- execution ----------------------------------------------------------------

    def launch(self, kernel, stream=None, earliest=None, **args):
        """Launch a kernel; returns its Completion (asynchronous)."""
        self._ensure_initialized()
        with self.accounting.measure(Category.CUDA_LAUNCH, label=kernel.name):
            self._call_overhead()
            completion = self.driver.launch(
                kernel, args, stream=stream, earliest=earliest
            )
        self._pending_kernels.append(completion)
        return completion

    def cuda_thread_synchronize(self):
        """Wait for all outstanding work, charging the wait to GPU time.

        This observes virtual time only (kernel completions): deferred
        kernel *numerics* stay queued across it, and are replayed by the
        first device-byte access — typically the ``cudaMemcpy`` D2H the
        application issues next.
        """
        self._ensure_initialized()
        self._call_overhead()
        wait_start = self.machine.clock.now
        self.driver.synchronize()
        waited = self.machine.clock.now - wait_start
        self.accounting.charge(Category.GPU, waited, label="sync-wait")
        self._pending_kernels.clear()
        return waited
