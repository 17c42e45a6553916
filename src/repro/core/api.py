"""The GMAC public API: Table 1 plus the Section 4.2 safe variants.

=================  ==========================================================
Call               Paper description
=================  ==========================================================
``adsmAlloc``      allocate shared memory, return one pointer for CPU + GPU
``adsmFree``       release a shared region
``adsmCall``       launch a kernel on the accelerator (releases objects)
``adsmSync``       wait for the accelerator (re-acquires objects)
``adsmSafeAlloc``  collision-safe allocation: the pointer is CPU-only
``adsmSafe``       translate a CPU pointer to its accelerator twin
=================  ==========================================================

The consistency model is release consistency with implicit primitives:
objects are released at ``adsmCall`` and acquired at ``adsmSync``
(Section 3.3) — no explicit ``cudaMemcpy`` anywhere in application code.
"""

from repro.util.errors import GmacError
from repro.sim.tracing import Category
from repro.os.process import Ptr
from repro.core.costs import GmacCostModel
from repro.core.layers import AcceleratorLayer
from repro.core.manager import Manager
from repro.core.protocols import PROTOCOLS
from repro.core.interpose import GmacInterposer
from repro.core.placement import PLACEMENTS, PlacementPolicy
from repro.core.recovery import RecoveryPolicy


class SharedPtr(Ptr):
    """A pointer into a shared region, usable by CPU code and kernels.

    CPU-side reads/writes go through the protection-checked process path
    (driving the coherence protocol); passing it to :meth:`Gmac.call`
    hands the kernel the accelerator-side address.
    """

    __slots__ = ("gmac",)

    def __init__(self, gmac, addr):
        super().__init__(gmac.process, addr)
        self.gmac = gmac

    def __add__(self, offset):
        return SharedPtr(self.gmac, self.addr + offset)

    @property
    def device_addr(self):
        return self.gmac.manager.translate(self.addr)

    @property
    def region(self):
        return self.gmac.manager.region_at(self.addr)


class Gmac:
    """One GMAC instance: a protocol, an abstraction layer, a manager.

    ``protocol`` is one of ``"batch"``, ``"lazy"``, ``"rolling"`` —
    selected at construction, as the paper selects at application load
    time.  ``layer`` is ``"runtime"`` (pays CUDA initialisation; used when
    comparing against CUDA) or ``"driver"`` (no init; used for
    break-downs).  ``protocol_options`` forwards to the protocol, e.g.
    ``{"block_size": 1 << 20, "rolling_size": 4}`` for rolling-update.
    """

    def __init__(
        self,
        machine,
        process,
        libc=None,
        protocol="rolling",
        layer="runtime",
        protocol_options=None,
        cost_model=None,
        interpose=True,
        gpu=None,
        peer_dma=False,
        recovery=None,
        placement=None,
    ):
        if protocol not in PROTOCOLS:
            raise GmacError(
                f"unknown protocol {protocol!r}; pick one of {sorted(PROTOCOLS)}"
            )
        self.machine = machine
        self.process = process
        self.accounting = machine.accounting
        self.costs = cost_model or GmacCostModel()
        self.layer = AcceleratorLayer(machine, process, gpu=gpu, flavour=layer)
        self.manager = Manager(
            machine, process, self.layer, cost_model=self.costs
        )
        self.protocol = PROTOCOLS[protocol](
            self.manager, **(protocol_options or {})
        )
        self.manager.protocol = self.protocol
        #: Placement policy: only meaningful on multi-device machines,
        #: where regions spread over devices and kernels chase their
        #: operands.  Accepts a PLACEMENTS name or a PlacementPolicy
        #: instance; single-device machines ignore it entirely.
        self.placement = None
        if getattr(machine, "multi_device", False):
            if placement is None:
                placement = "round-robin"
            if isinstance(placement, str):
                if placement not in PLACEMENTS:
                    raise GmacError(
                        f"unknown placement policy {placement!r}; "
                        f"pick one of {sorted(PLACEMENTS)}"
                    )
                placement = PLACEMENTS[placement](machine)
            elif not isinstance(placement, PlacementPolicy):
                raise GmacError(
                    "placement must be a policy name or a PlacementPolicy"
                )
            self.placement = placement
            self.manager.placement = placement
        elif placement is not None and not isinstance(placement, str):
            raise GmacError(
                "placement policies need a multi-device machine"
            )
        #: Fault recovery: armed explicitly via ``recovery=`` or
        #: automatically when the machine carries an enabled fault plan.
        #: Stays None on fault-free machines, so every hot path below is
        #: byte-identical to a build without fault injection.
        if recovery is None and machine.faults is not None and machine.faults.enabled:
            recovery = RecoveryPolicy()
        self.recovery = recovery
        if self.recovery is not None:
            self.recovery.attach(self)
            self.manager.recovery = self.recovery
        #: Hardware peer DMA (the paper's Section 7 suggestion): I/O moves
        #: directly between the device and accelerator memory, skipping the
        #: intermediate system-memory copy the software-only GMAC needs.
        self.peer_dma = peer_dma
        self.libc = libc
        self.interposer = None
        if interpose and libc is not None:
            self.interposer = GmacInterposer(self)
            self.interposer.install(libc)
        self._pending = []
        self.kernel_calls = 0
        #: Optional kernel-window race monitor (see
        #: :class:`repro.analysis.races.RaceDetector`); None — the default —
        #: keeps every boundary below a single attribute test.
        self.monitor = None
        #: Optional launch-time declaration checker (see
        #: :class:`repro.analysis.contracts.ContractMonitor`), armed by the
        #: sanitizer when the active protocol carries declared modes.
        self.contract_monitor = None

    # -- Table 1 -------------------------------------------------------------------

    def alloc(self, size, name=None):
        """adsmAlloc: one pointer valid on both processors."""
        region = self.manager.alloc(size, name=name, safe=False)
        return SharedPtr(self, region.host_start)

    def free(self, ptr):
        """adsmFree."""
        self.manager.free(int(ptr))

    def call(self, kernel, writes=None, **args):
        """adsmCall: release shared objects and launch ``kernel``.

        Keyword arguments are passed to the kernel; :class:`SharedPtr`
        values are translated to accelerator addresses.  Ordinary host
        pointers are rejected — accelerators cannot reach host memory
        (the ADSM asymmetry).  ``writes`` optionally lists the shared
        pointers the kernel writes (the Section 4.3 annotation hook);
        unlisted objects then stay valid on the host.

        With recovery armed (faulty machine), the launch runs under
        :meth:`RecoveryPolicy.run_call`: transient launch rejections are
        retried with backoff, and a device-lost event re-materialises
        accelerator memory from the host-canonical copies before the call
        sequence is re-issued.
        """
        written = None
        if writes is not None:
            written = {self.manager.region_at(int(ptr)) for ptr in writes}
            if None in written:
                raise GmacError("writes annotation names a non-shared pointer")
        # Declaration-driven protocols resolve an unannotated launch from
        # their per-object modes (a no-op for the Figure 6 protocols).
        written = self.protocol.call_written(written)
        if self.recovery is not None:
            return self.recovery.run_call(self, kernel, written, args)
        return self._issue_call(kernel, written, args)

    def _issue_call(self, kernel, written, args):
        """One attempt at the release+launch sequence (no recovery)."""
        contract_monitor = self.contract_monitor
        if contract_monitor is not None:
            contract_monitor.on_launch(kernel, {
                key: value.region
                for key, value in args.items()
                if isinstance(value, SharedPtr)
            })
        monitor = self.monitor
        if monitor is not None:
            monitor.enter_internal()
        try:
            with self.accounting.measure(Category.LAUNCH, label=kernel.name):
                self.machine.clock.advance(self.costs.api_call_s)
                # Multi-device: pick the executing device and migrate any
                # operand owned elsewhere onto it (peer DMA) BEFORE the
                # release, so dirty host blocks flush to the right device.
                owner = self._select_exec_device(written, args)
                earliest = self.manager.release_for_call(written=written)
                device_args = {}
                for key, value in args.items():
                    if isinstance(value, SharedPtr):
                        device_args[key] = value.device_addr
                    elif isinstance(value, Ptr):
                        raise GmacError(
                            f"kernel argument {key!r} is a host pointer; "
                            "accelerators cannot access host memory"
                        )
                    else:
                        device_args[key] = value
                completion = self.layer.launch(
                    kernel, device_args, earliest=earliest, owner=owner
                )
                self._pending.append(completion)
                self.kernel_calls += 1
        finally:
            if monitor is not None:
                monitor.exit_internal()
        # Only a *successful* launch releases objects to an in-flight
        # kernel: failed launches raise above, enqueue no numerics, and
        # open no race window.
        self.manager.note_coherence(
            "call", detail="*" if written is None else ",".join(
                sorted(region.name for region in written)
            ),
        )
        if monitor is not None:
            monitor.on_call(self.manager.regions(), written, kernel.name)
        return completion

    def _select_exec_device(self, written, args):
        """The device a call executes on (None = primary, single-device).

        The kernel runs where its first operand lives (written regions
        first, name-sorted for determinism, then pointer arguments in
        keyword order); every other operand owned elsewhere migrates to
        that device over peer DMA first, so a kernel never reads remote
        accelerator memory.
        """
        if self.placement is None:
            return None
        ordered = []
        if written:
            ordered.extend(sorted(written, key=lambda region: region.name))
        for value in args.values():
            if isinstance(value, SharedPtr):
                region = value.region
                if region is not None:
                    ordered.append(region)
        regions = []
        seen = set()
        for region in ordered:
            if id(region) not in seen:
                seen.add(id(region))
                regions.append(region)
        if not regions:
            return None
        target = regions[0].owner
        if target in self.placement.dead:
            # The anchor operand sits on a lost device (possible between
            # the loss and its recovery); re-place it first.
            target = self.placement.place(regions[0].size)
            self.manager.migrate_region(regions[0], target)
        for region in regions[1:]:
            self.manager.migrate_region(region, target)
        return target

    def sync(self):
        """adsmSync: wait for the accelerator and re-acquire objects.

        Re-acquisition is a *protection/state* action: batch-update
        fetches whole objects here (ledger records that name the launch
        count, so deferred kernel numerics replay only when the host reads
        them), while lazy/rolling merely invalidate mappings and defer the
        fetch to the first host fault.  The sync
        wait itself observes only completions — virtual time — so with
        lazy/rolling a call/sync loop accumulates a batchable queue of
        kernel numerics (see DESIGN.md §9).
        """
        monitor = self.monitor
        if monitor is not None:
            monitor.enter_internal()
        try:
            with self.accounting.measure(Category.SYNC, label="adsmSync"):
                self.machine.clock.advance(self.costs.api_call_s)
                wait_start = self.machine.clock.now
                for completion in self._pending:
                    completion.wait()
                self._pending.clear()
                waited = self.machine.clock.now - wait_start
                if waited > 0:
                    self.accounting.charge(
                        Category.GPU, waited, label="kernel-wait"
                    )
                self.manager.acquire_after_return()
        finally:
            if monitor is not None:
                monitor.exit_internal()
        self.manager.note_coherence("sync")
        if self.recovery is not None:
            self.recovery.note_sync()
        if monitor is not None:
            monitor.on_sync()

    # -- Section 4.2 safe variants ------------------------------------------------------

    def safe_alloc(self, size, name=None):
        """adsmSafeAlloc: CPU-only pointer, safe under address collisions."""
        region = self.manager.alloc(size, name=name, safe=True)
        return SharedPtr(self, region.host_start)

    def safe(self, ptr):
        """adsmSafe: CPU pointer -> accelerator pointer."""
        return self.manager.translate(int(ptr))

    # -- bulk memory convenience (interposed when a libc is attached) ---------------------

    def memset(self, ptr, value, size):
        """memset over (possibly shared) memory, via the interposed libc."""
        if self.libc is not None:
            return self.libc.memset(int(ptr), value, size)
        self.process.fill(int(ptr), value, size)
        return int(ptr)

    def memcpy(self, destination, source, size):
        """memcpy over (possibly shared) memory, via the interposed libc."""
        if self.libc is not None:
            return self.libc.memcpy(int(destination), int(source), size)
        self.process.write(int(destination), self.process.read(int(source), size))
        return int(destination)

    # -- paper-style aliases --------------------------------------------------------------

    adsmAlloc = alloc
    adsmFree = free
    adsmCall = call
    adsmSync = sync
    adsmSafeAlloc = safe_alloc
    adsmSafe = safe

    # -- statistics --------------------------------------------------------------------------

    @property
    def bytes_to_accelerator(self):
        return self.manager.bytes_to_accelerator

    @property
    def bytes_to_host(self):
        return self.manager.bytes_to_host

    @property
    def fault_count(self):
        return self.manager.fault_count

    def shutdown(self):
        """Free all regions and uninstall interposition (teardown helper)."""
        if self._pending:
            self.sync()
        self.manager.free_all()
        if self.interposer is not None:
            self.interposer.uninstall()
            self.interposer = None
