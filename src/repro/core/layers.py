"""The accelerator abstraction layers of Figure 5.

GMAC talks to the accelerator through one of two layers, selected at
construction time (the paper selects at application load time):

* the **runtime layer** mirrors going through the CUDA run-time: it pays
  the lazy context-initialisation cost, which is the configuration the
  paper uses when comparing GMAC against CUDA (both sides pay it);
* the **driver layer** mirrors the low-level CUDA driver API: full control
  and no initialisation cost, the configuration used to extract the
  Figure 10 execution-time break-downs.

Both layers charge the Figure 10 ``cudaMalloc``/``cudaFree``/``cudaLaunch``
categories.  Data transfers are *not* charged here — the shared-memory
manager accounts them as ``Copy`` (or leaves them overlapped when
asynchronous), so no virtual second is counted twice.
"""

from repro.sim.tracing import Category
from repro.hw.interconnect import Direction
from repro.cuda.driver import DriverContext


class AcceleratorLayer:
    """GMAC's view of the accelerator: allocation, DMA, launch, sync."""

    RUNTIME_INIT_COST_S = 1.0e-3

    def __init__(self, machine, process, gpu=None, flavour="driver",
                 init_cost_s=None):
        if flavour not in ("driver", "runtime"):
            raise ValueError(f"unknown abstraction layer flavour {flavour!r}")
        self.machine = machine
        self.flavour = flavour
        self.accounting = machine.accounting
        self.driver = DriverContext(machine, process, gpu=gpu)
        #: One context per device on multi-device machines; every owner
        #: routes through :meth:`context_for`.  Legacy machines keep the
        #: single primary context, so owner-less calls are byte-identical
        #: to the pre-multi-device layer.
        if getattr(machine, "multi_device", False):
            self.contexts = [
                self.driver if candidate is self.driver.gpu
                else DriverContext(machine, process, gpu=candidate)
                for candidate in machine.gpus
            ]
        else:
            self.contexts = [self.driver]
        self.init_cost_s = (
            self.RUNTIME_INIT_COST_S if init_cost_s is None else init_cost_s
        )
        self._initialized = flavour == "driver"

    @property
    def gpu(self):
        return self.driver.gpu

    def context_for(self, owner):
        """The driver context owning device ``owner`` (None = primary)."""
        if owner is None:
            return self.driver
        contexts = self.contexts
        if owner >= len(contexts):
            return self.driver
        return contexts[owner]

    def gpu_for(self, owner):
        return self.context_for(owner).gpu

    def _ensure_initialized(self):
        if not self._initialized:
            self._initialized = True
            self.machine.clock.advance(self.init_cost_s)
            self.accounting.charge(
                Category.CUDA_MALLOC, self.init_cost_s, label="cuda-init"
            )

    # -- memory ---------------------------------------------------------------

    def alloc(self, size, owner=None):
        self._ensure_initialized()
        with self.accounting.measure(Category.CUDA_MALLOC, label="cudaMalloc"):
            return self.context_for(owner).mem_alloc(size)

    def alloc_at(self, address, size, owner=None):
        """Placement allocation for virtual-memory accelerators."""
        self._ensure_initialized()
        with self.accounting.measure(Category.CUDA_MALLOC, label="cudaMalloc"):
            return self.context_for(owner).mem_alloc_at(address, size)

    def free(self, address, owner=None):
        with self.accounting.measure(Category.CUDA_FREE, label="cudaFree"):
            self.context_for(owner).mem_free(address)

    # -- DMA (un-accounted; the manager charges Copy where appropriate) --------

    def to_device(self, device, host, size, sync=True, owner=None):
        return self.context_for(owner).memcpy_h2d(device, host, size, sync=sync)

    def to_host(self, host, device, size, sync=True, owner=None):
        return self.context_for(owner).memcpy_d2h(host, device, size, sync=sync)

    def device_memset(self, device, value, size, owner=None):
        return self.context_for(owner).memset_d8(device, value, size)

    def device_memcpy(self, destination, source, size, owner=None):
        return self.context_for(owner).memcpy_d2d(destination, source, size)

    def pending_h2d(self):
        """When the last queued host-to-device transfer will finish."""
        if len(self.contexts) == 1:
            return self.machine.link.resource(Direction.H2D).available_at
        return max(
            context.link.resource(Direction.H2D).available_at
            for context in self.contexts
        )

    # -- execution ---------------------------------------------------------------

    def launch(self, kernel, args, earliest=None, owner=None):
        self._ensure_initialized()
        with self.accounting.measure(Category.CUDA_LAUNCH, label=kernel.name):
            return self.context_for(owner).launch(
                kernel, args, earliest=earliest
            )

    def synchronize(self):
        """Drain the GPU/link timelines (virtual time only).

        Deferred kernel numerics survive a synchronize — adsmSync observes
        completions, not device bytes.  They replay on the next byte
        access (a coherence fetch, a DMA, a memset, or a kernel view).
        """
        now = self.driver.synchronize()
        for context in self.contexts:
            if context is not self.driver and context.alive:
                now = context.synchronize()
        return now

    def materialize_numerics(self):
        """Force pending deferred kernel numerics to execute now.

        Recovery uses this to pin down device bytes at a known point;
        normal coherence traffic never needs it (every byte observer
        flushes through the device memory's observation barrier, and the
        host replays the launches a ledger record names before reading
        it).
        """
        for context in self.contexts:
            context.gpu.materialize()
