"""The low-level (driver) accelerator API.

Mirrors the CUDA driver API surface GMAC's *CUDA Driver Layer* uses:
device-memory allocation, synchronous and asynchronous copies in both
directions, 8-bit memset, stream-ordered kernel launches, and context
synchronization.  Data moves eagerly (byte-accurate snapshots at issue
time); timing occupies the link and GPU resources, so asynchronous copies
genuinely overlap CPU work on the virtual clock.

Host-side buffers are accessed with privileged ``peek``/``poke`` — DMA
engines ignore page protections, which is exactly why GMAC can keep shared
pages protected while transferring them.
"""

from repro.util.errors import (
    AllocationError,
    CudaError,
    CudaOutOfMemoryError,
    DeviceLostError,
    InvalidDeviceAddressError,
    LaunchError,
    TransferError,
)
from repro.hw.interconnect import Direction
from repro.hw import memory as device_memory


class Event:
    """A CUDA-style timing event.

    Recording an event into a stream captures the virtual time at which
    the stream's work issued so far will have completed; applications use
    pairs of events to time GPU-side phases without blocking the CPU
    (the standard cudaEventRecord / cudaEventElapsedTime pattern).
    """

    def __init__(self, name="event"):
        self.name = name
        self.timestamp = None

    @property
    def recorded(self):
        return self.timestamp is not None

    def record(self, clock, stream=None):
        """Capture the completion time of work issued so far."""
        if stream is not None and stream.earliest_next is not None:
            self.timestamp = stream.earliest_next
        else:
            self.timestamp = clock.now
        return self.timestamp

    def synchronize(self, clock):
        """Block the CPU until the event's captured point in time."""
        if not self.recorded:
            raise CudaError(f"event {self.name!r} was never recorded")
        clock.advance_to(self.timestamp)
        return clock.now

    def elapsed_since(self, earlier):
        """Milliseconds between two recorded events (cudaEventElapsedTime)."""
        if not self.recorded or not earlier.recorded:
            raise CudaError("both events must be recorded")
        return (self.timestamp - earlier.timestamp) * 1e3


class Stream:
    """An in-order work queue: each operation starts after the previous."""

    def __init__(self, name="stream"):
        self.name = name
        self.last = None  # most recent Completion in this stream

    def chain(self, completion):
        self.last = completion
        return completion

    @property
    def earliest_next(self):
        return self.last.finish if self.last is not None else None

    def synchronize(self, clock):
        if self.last is not None:
            clock.advance_to(self.last.finish)
        return clock.now


class DriverContext:
    """One context on one GPU of one machine."""

    #: CPU-side cost of trapping into the driver for any call.
    CALL_OVERHEAD_S = 4.0e-6

    def __init__(self, machine, process, gpu=None):
        self.machine = machine
        self.process = process
        self.gpu = gpu if gpu is not None else machine.gpu
        #: This device's index on the machine and the link carrying its DMA
        #: traffic (``links[0]`` on legacy single-link machines).
        self.device_index = machine.device_index(self.gpu)
        self.link = machine.link_for(self.gpu)
        self.clock = machine.clock
        self.default_stream = Stream("default")
        self.allocations = {}
        #: False after a device-lost event: the context is dead and every
        #: operation on it fails until :meth:`revive` resets the device.
        self.alive = True

    def _driver_call(self):
        self.clock.advance(self.CALL_OVERHEAD_S)

    # -- fault injection and context liveness -------------------------------------

    @property
    def faults(self):
        """The machine's installed fault plan (None = no injection)."""
        return self.machine.faults

    def _check_alive(self):
        if not self.alive:
            raise DeviceLostError(
                f"operation on dead context: {self.gpu.spec.name} was lost",
                timestamp=self.clock.now, resource=self.gpu.spec.name,
                device=self.device_index,
            )

    def _maybe_fail_transfer(self, direction, size):
        """Consult the fault plan before a DMA; transient faults occupy the
        link for the attempt's full duration before surfacing (the engine
        reports the error at completion time)."""
        plan = self.faults
        if plan is None or not plan.enabled or self.machine.integrated:
            return
        if plan.transfer_fault(d2h=direction is Direction.D2H) is None:
            return
        completion = self.link.faulted_transfer(size, direction)
        completion.wait()
        raise TransferError(
            f"DMA of {size} bytes {direction} failed (transient)",
            direction=direction, size=size,
            timestamp=self.clock.now,
            resource=f"{self.link.spec.name} {direction}",
        )

    def _maybe_fail_malloc(self, size):
        plan = self.faults
        if plan is None or not plan.enabled:
            return
        if plan.malloc_fault():
            raise CudaOutOfMemoryError(
                f"cuMemAlloc of {size} bytes failed (injected OOM)",
                size=size, timestamp=self.clock.now,
                resource=self.gpu.spec.name, transient=True,
            )

    def _maybe_fail_launch(self, kernel):
        plan = self.faults
        if plan is None or not plan.enabled:
            return
        outcome = plan.launch_fault()
        if outcome is None:
            return
        from repro.faults.plan import DEVICE_LOST

        if outcome == DEVICE_LOST:
            self.alive = False
            raise DeviceLostError(
                f"device lost launching {kernel.name!r}",
                timestamp=self.clock.now, resource=self.gpu.spec.name,
                device=self.device_index,
            )
        raise LaunchError(
            f"launch of {kernel.name!r} rejected by the driver (transient)",
            kernel=kernel.name, timestamp=self.clock.now,
            resource=self.gpu.spec.name,
        )

    def revive(self):
        """Driver-level device reset after a device-lost event.

        The device comes back empty: memory contents and allocations are
        gone and must be replayed through :meth:`restore_allocation`.  Only
        meaningful for recovery code — see
        :meth:`repro.core.recovery.RecoveryPolicy.recover_device_loss`.
        """
        self.gpu.reset()
        self.allocations = {}
        self.default_stream = Stream("default")
        self.alive = True

    def restore_allocation(self, address, size):
        """Replay one allocation at its pre-reset address.

        Placement allocation is always possible here (unlike
        :meth:`mem_alloc_at`, which needs accelerator virtual memory):
        the device heap is empty after a reset, so the old first-fit
        layout is free by construction.
        """
        self._driver_call()
        self._check_alive()
        result = self.gpu.memory.alloc_at(address, size)
        self.allocations[result] = size
        return result

    # -- memory management --------------------------------------------------------

    def mem_alloc(self, size):
        """cuMemAlloc: returns a device address."""
        self._driver_call()
        self._check_alive()
        self._maybe_fail_malloc(size)
        try:
            address = self.gpu.memory.alloc(size)
        except AllocationError as exc:
            raise CudaOutOfMemoryError(
                f"cuMemAlloc of {size} bytes failed: {exc}",
                size=size, timestamp=self.clock.now,
                resource=self.gpu.spec.name,
            ) from exc
        self.allocations[address] = size
        return address

    def mem_alloc_at(self, address, size):
        """cuMemAlloc at a chosen virtual address (VM accelerators only)."""
        self._driver_call()
        self._check_alive()
        if not self.gpu.spec.virtual_memory:
            raise CudaError(
                f"{self.gpu.spec.name} has no virtual memory; "
                "placement allocation is unsupported"
            )
        result = self.gpu.memory.alloc_at(address, size)
        self.allocations[result] = size
        return result

    def mem_free(self, address):
        """cuMemFree.

        Unknown addresses — including a second free of the same address —
        raise :class:`InvalidDeviceAddressError`, never ``KeyError``.
        """
        self._driver_call()
        if address not in self.allocations:
            raise InvalidDeviceAddressError(
                f"cuMemFree of unknown or already-freed device address "
                f"{address:#x}",
                address=address, timestamp=self.clock.now,
                resource=self.gpu.spec.name,
            )
        del self.allocations[address]
        self.gpu.memory.free(address)

    # -- data transfer --------------------------------------------------------------

    def memcpy_h2d(self, device, host, size, stream=None, sync=True):
        """Copy host -> device.  Returns the transfer Completion.

        An injected PCIe fault fires *before* any bytes (or ledger
        metadata) change: deferred transfers fault at charge time, exactly
        like their eager equivalents.  The byte movement itself goes
        through the ledger entry point — in deferred mode only the
        host-dirty / unsynced delta is copied; the link is charged for the
        full ``size`` either way (DMA ignores host page protections).
        """
        self._driver_call()
        self._check_alive()
        self._maybe_fail_transfer(Direction.H2D, size)
        mapping = self.process.address_space.resolve(host, size)
        copied = device_memory.copy_h2d(
            self.gpu.memory, device, mapping, host, size,
            deferred=self.gpu.defer_transfers,
        )
        completion = self._schedule_transfer(
            size, Direction.H2D, stream, deferred=size - copied
        )
        if sync:
            completion.wait()
        return completion

    def memcpy_d2h(self, host, device, size, stream=None, sync=True):
        """Copy device -> host.  Returns the transfer Completion.

        In deferred mode this records a ledger extent against the
        destination mapping instead of copying; the extent names the GPU's
        launch count, and its bytes materialize, after the launches it
        names replay, when the host range is observed.  Faults fire at
        charge time and the link is charged for the full ``size``, so the
        event stream is identical to an eager copy's; only the eager copy
        replays queued kernel numerics here.
        """
        self._driver_call()
        self._check_alive()
        self._maybe_fail_transfer(Direction.D2H, size)
        mapping = self.process.address_space.resolve(host, size)
        copied = device_memory.copy_d2h(
            self.gpu.memory, device, mapping, host, size,
            deferred=self.gpu.defer_transfers,
        )
        completion = self._schedule_transfer(
            size, Direction.D2H, stream, deferred=size - copied
        )
        if sync:
            completion.wait()
        return completion

    def memcpy_d2d(self, destination, source, size):
        """Copy device -> device over the GPU's own memory (fast path)."""
        self._driver_call()
        self._check_alive()
        data = self.gpu.memory.read(source, size)
        self.gpu.memory.write(destination, data)
        duration = 2 * size / self.gpu.spec.memory_bandwidth_bytes_per_s
        return self.gpu.engine.execute(duration, label="d2d")

    def memset_d8(self, device, value, size):
        """8-bit device memset, timed against device memory bandwidth."""
        self._driver_call()
        self._check_alive()
        self.gpu.memory.fill(device, value, size)
        duration = size / self.gpu.spec.memory_bandwidth_bytes_per_s
        return self.gpu.engine.execute(duration, label="memset")

    def _schedule_transfer(self, size, direction, stream, deferred=0):
        if self.machine.integrated:
            # CPU and accelerator share physical memory: the "transfer" is
            # a no-op aside from the driver call (Section 3.1's low-cost
            # system).  Bytes are still counted as zero moved on the link.
            return self.link.resource(direction).schedule(0.0, label="no-op")
        earliest = stream.earliest_next if stream is not None else None
        completion = self.link.transfer(
            size, direction, label=str(direction), earliest=earliest,
            deferred=deferred,
        )
        if stream is not None:
            stream.chain(completion)
        return completion

    # -- execution -------------------------------------------------------------------

    def launch(self, kernel, args, stream=None, earliest=None):
        """Launch a kernel asynchronously; returns its Completion.

        ``earliest`` lets callers thread data dependencies (e.g. "after all
        pending host-to-device evictions"), on top of stream ordering.

        Launching on a dead context raises :class:`DeviceLostError`; an
        injected transient rejection raises :class:`LaunchError` *before*
        the kernel has any effect on device memory — in particular before
        the numerics are enqueued, so a rejected launch never reaches the
        deferred queue.
        """
        self._driver_call()
        self._check_alive()
        self._maybe_fail_launch(kernel)
        duration = kernel.duration_on(self.gpu, args)
        self.gpu.enqueue_numerics(kernel, args)
        dependency = earliest
        if stream is not None and stream.earliest_next is not None:
            dependency = max(
                stream.earliest_next,
                earliest if earliest is not None else 0.0,
            )
        completion = self.gpu.launch(
            duration, label=kernel.name, earliest=dependency
        )
        if stream is not None:
            stream.chain(completion)
        return completion

    def synchronize(self):
        """Wait for everything: kernels and transfers."""
        self._driver_call()
        self.gpu.synchronize()
        self.link.drain()
        return self.clock.now
