"""The accelerator model.

A :class:`Gpu` owns its device memory and a single execution timeline
(kernels from one application serialize, as on the paper's G280).  Kernel
launches are asynchronous: the launch returns immediately with a
:class:`~repro.sim.resource.Completion` and the host pays the wait at
synchronization time — the behaviour `adsmSync`/`cudaThreadSynchronize`
relies on.

Asymmetry (the core ADSM premise) is enforced here: kernels receive numpy
views of *device* memory only; there is no path from device code to host
mappings.

**Deferred kernel numerics.**  Virtual time is charged per launch (in
:meth:`launch`, exactly as before), but the numpy evaluation of a kernel is
queued by :meth:`enqueue_numerics` and only replayed when something reads
or writes device-memory *bytes* — the
:class:`~repro.hw.memory.DeviceMemory` ``on_observe`` hook fires
:meth:`materialize` — or when the host reads a transfer-ledger entry that
names a launch not yet replayed.  Launches are numbered: a ledger record
names the launch count (its *version*) instead of replaying.  Consecutive
queued launches of one kernel whose only differing arguments are in its
``batch_by`` set are evaluated in a single ``batched_fn`` pass, split at
every version a live ledger entry of a written allocation names.  Because
kernel functions are pure functions of device bytes (they never touch the
clock), deferral cannot change any figure, trace, or chaos outcome; it
only changes *when* the host-side numpy work happens.  See DESIGN.md §9.
"""

from repro.sim.resource import Resource
from repro.hw.memory import DeviceMemory

#: Default for deferred kernel numerics.  The eager engine (False) is a
#: test reference only: the equivalence suites and the CI byte-identity
#: gate set it to compare against.
DEFAULT_DEFER_NUMERICS = True

#: Default for the transfer ledger (DESIGN.md §14).  Eager byte-copying
#: transfers (False) are a test reference, as above; engine configuration
#: only, never part of a result cache key.
DEFAULT_DEFER_TRANSFERS = True


class Gpu:
    """An accelerator: device memory + serialized execution engine."""

    def __init__(self, spec, clock, memory_base=None, trace=False,
                 defer_numerics=None, defer_transfers=None):
        self.spec = spec
        self.clock = clock
        if memory_base is None:
            memory = DeviceMemory(spec.memory_bytes)
        else:
            memory = DeviceMemory(spec.memory_bytes, base=memory_base)
        self._attach_memory(memory)
        self.engine = Resource(f"{spec.name} engine", clock, trace=trace)
        self.kernels_launched = 0
        if defer_numerics is None:
            defer_numerics = DEFAULT_DEFER_NUMERICS
        self.defer_numerics = defer_numerics
        if defer_transfers is None:
            defer_transfers = DEFAULT_DEFER_TRANSFERS
        #: Transfer-ledger mode: when True, D2H copies into bound shared
        #: mappings record ledger entries and H2D copies flush deltas
        #: (DESIGN.md §14).  When False every copy moves bytes eagerly and
        #: no plane is ever created, byte- and trace-identical to the
        #: pre-ledger engine.
        self.defer_transfers = defer_transfers
        #: Pending (version, kernel, args) numerics in launch order.
        self._queue = []
        #: Launches enqueued so far.  A launch's version is its ordinal, and
        #: a ledger record names the count at record time.
        self.launches = 0
        #: True while replaying the queue (or running an eager kernel), so
        #: the kernel's own device views do not recursively re-materialize.
        self._replaying = False
        #: Version of the first launch of the run being replayed, or None:
        #: a write through its views snapshots only ledger entries that
        #: name an older version (``DeviceMemory._device_write``).
        self.running = None
        #: Device addresses the running kernel declares it writes, or None
        #: when every view is writable (no kernel running, or one without
        #: ``writes``).  See :meth:`view`.
        self._writable = None
        #: Throughput counters (see bench_hotpath's kernel_numerics block):
        #: launches whose numerics have executed, the subset that executed
        #: through a ``batched_fn``, and the number of materialization
        #: flush events.
        self.numerics_rounds = 0
        self.batched_rounds = 0
        self.numerics_flushes = 0

    #: Optional sanitizer hook, called (no arguments) whenever device bytes
    #: are observed outside a numerics replay — *before* materialization,
    #: so the kernel-window race detector sees the observation even if the
    #: materialization barrier itself were broken.  A ledger record and a
    #: byte-free flush call it too, although they replay nothing.  Lives
    #: on the Gpu (not the DeviceMemory) because device resets attach a
    #: fresh memory.
    observe_hook = None

    #: Optional sanitizer hook, called with the number of launches missed
    #: when the host reads a ledger entry naming a version the queue has
    #: still not replayed after the barrier ran: the barrier was bypassed.
    unreplayed_hook = None

    def _attach_memory(self, memory):
        """Install ``memory`` and wire its observation barrier to us."""
        memory.on_observe = self._memory_observed
        memory.gpu = self
        self.memory = memory

    def _memory_observed(self, device=True):
        """The replay barrier.  ``device`` is False when the host reads
        ledger bytes, which observes no device memory, so the sanitizer's
        ``observe_hook`` is not told."""
        if self._replaying:
            return
        if device and self.observe_hook is not None:
            self.observe_hook()
        if self._queue:
            self.materialize()

    def observe_version(self):
        """A ledger record or a byte-free flush: device bytes are named,
        not read.  ``observe_hook`` sees the observation, nothing replays,
        and the launch count is returned as the version the bytes hold."""
        if self.observe_hook is not None and not self._replaying:
            self.observe_hook()
        return self.launches

    @property
    def replayed(self):
        """Version of the last launch whose numerics have run."""
        return self._queue[0][0] - 1 if self._queue else self.launches

    def replay_to(self, version):
        """The host is about to read ledger bytes naming ``version``:
        replay through the barrier if the queue has not reached it."""
        if version <= self.replayed:
            return
        self._memory_observed(device=False)
        missed = version - self.replayed
        if missed > 0 and self.unreplayed_hook is not None:
            self.unreplayed_hook(missed)

    def queued_writer(self, allocation):
        """Version of the last queued launch that writes ``allocation``,
        or 0 when none is queued."""
        writer = allocation.writer
        queue = self._queue
        return writer if queue and writer >= queue[0][0] else 0

    def fetch_pending(self, address, size):
        """The fetch event's barrier sample, taken just after a fetch of
        device ``[address, +size)``: the queued writers of its allocation
        that the fetched host bytes do not account for.  A ledger record
        names the latest version and an eager copy replayed the queue, so
        both read 0; a copy around the ledger misses every queued writer.
        """
        allocation = self.memory._find(address)
        writer = self.queued_writer(allocation) if allocation else 0
        if not writer:
            return 0
        named = self.memory.recorded_version(address, size)
        if named is None:
            named = self.replayed
        if named >= writer:
            return 0
        return sum(
            1 for version, kernel, args in self._queue
            if version > named and allocation in self._targets(kernel, args)
        )

    def reset(self):
        """Device reset after a device-lost event.

        All on-board memory contents and allocations are gone; the caller
        (driver/recovery machinery) is responsible for replaying the
        allocations and re-materialising data from host-canonical state.
        The execution timeline survives — a reset does not rewrite history.

        Numerics queued before the loss replay against the *old* memory
        first: in the eager engine they had already executed at launch
        time, and recovery's host-canonical snapshot must not depend on
        the engine mode.
        """
        self.materialize()
        self._attach_memory(
            DeviceMemory(self.spec.memory_bytes, base=self.memory.base)
        )

    # -- numerics -----------------------------------------------------------

    @property
    def pending_numerics(self):
        """Number of launches whose numerics have not yet executed."""
        return len(self._queue)

    def _targets(self, kernel, args):
        """The allocations one launch writes (every one without
        ``writes``)."""
        memory = self.memory
        if not kernel.writes:
            return list(memory._allocations.values())
        targets = []
        for name in kernel.writes:
            if name in args:
                allocation = memory._find(args[name])
                if allocation is not None:
                    targets.append(allocation)
        return targets

    def enqueue_numerics(self, kernel, args):
        """Queue (or, in eager mode, run) one launch's numpy evaluation."""
        self.launches += 1
        if self.defer_numerics:
            for allocation in self._targets(kernel, args):
                allocation.writer = self.launches
            self._queue.append((self.launches, kernel, args))
            return
        self._replaying = True
        try:
            self._writable = _written_addresses(kernel, (args,))
            kernel.execute(self, args)
        finally:
            self._replaying = False
            self._writable = None
        self.numerics_rounds += 1

    def materialize(self):
        """Replay all pending numerics, batching compatible runs.

        A run stops at every version a live ledger entry of an allocation
        it writes names, so that entry's bytes exist when the next launch
        snapshots it.  Afterwards the entries still sourced from a written
        allocation hold its current bytes and re-claim ``synced``.
        """
        if not self._queue:
            return
        queue, self._queue = self._queue, []
        self.numerics_flushes += 1
        self._replaying = True
        written = set()
        try:
            index, count = 0, len(queue)
            while index < count:
                version, kernel, args = queue[index]
                targets = self._targets(kernel, args)
                written.update(targets)
                upto = index + 1
                if kernel.batched_fn is not None:
                    cuts = self.memory.entry_versions(targets)
                    while (
                        upto < count
                        and queue[upto - 1][0] not in cuts
                        and queue[upto][1] is kernel
                        and kernel.batch_compatible(args, queue[upto][2])
                    ):
                        upto += 1
                    launches = [entry[2] for entry in queue[index:upto]]
                    self._writable = _written_addresses(kernel, launches)
                    self.running = version
                    kernel.execute_batch(self, launches)
                    self.batched_rounds += upto - index
                else:
                    self._writable = _written_addresses(kernel, (args,))
                    self.running = version
                    kernel.execute(self, args)
                self.numerics_rounds += upto - index
                index = upto
        finally:
            self._replaying = False
            self._writable = None
            self.running = None
        self.memory.resync(written)

    # -- timing -------------------------------------------------------------

    def launch(self, duration, label="kernel", earliest=None):
        """Schedule kernel execution time; returns a Completion."""
        self.kernels_launched += 1
        issue = self.spec.issue_overhead_s
        return self.engine.schedule(
            issue + duration, label=label, earliest=earliest
        )

    def kernel_seconds(self, work_units, bytes_touched=0):
        return self.spec.kernel_seconds(work_units, bytes_touched)

    def synchronize(self):
        """Block the host until all launched kernels have finished.

        Synchronization observes *completions* (virtual time), never device
        bytes, so it deliberately does **not** materialize pending
        numerics — that is what lets back-to-back launch/sync loops (pns)
        accumulate batchable queues.  Any actual byte access after the
        sync still flushes via the memory observation barrier.
        """
        return self.engine.drain()

    def view(self, address, dtype, count):
        """Device-memory numpy view handed to kernel functions.

        While a kernel that declares ``writes`` runs, a view of any
        address it does not declare is read-only: numpy rejects an
        undeclared write, and the view takes no copy-on-write snapshot
        and leaves bound host mappings synced (DESIGN.md §14).
        """
        writable = self._writable is None or address in self._writable
        return self.memory.view(address, dtype, count, writable=writable)


def _written_addresses(kernel, launches):
    """The addresses ``launches`` of ``kernel`` may write, or None when
    the kernel declares no ``writes`` (every view stays writable)."""
    if not kernel.writes:
        return None
    return {
        args[name] for args in launches for name in kernel.writes
        if name in args
    }
