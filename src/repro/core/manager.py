"""The shared memory manager (Figure 5's central box).

The manager owns every shared region, builds the shared address space
(Section 4.2), dispatches page-fault signals to the active coherence
protocol, and performs every data transfer — all on the CPU, never on the
accelerator: the asymmetry that gives ADSM its name.

Fault dispatch is flat: the faulting *region* comes from the ordered region
map (one bisect), and the faulting block index is shift/mask arithmetic on
the region's :class:`~repro.core.blocks.BlockTable` — blocks are fixed-size
inside a region, so no per-block search structure is consulted.  The paper's
Section 5.2 balanced tree ("GMAC keeps memory blocks in a balanced binary
tree, which requires O(log2(n)) operations to locate a given block") is
retained purely as the *cost oracle*: it is maintained at alloc/free time
and its exact per-lookup comparison counts are sampled into flat per-region
arrays, so every fault charges the identical virtual time the tree search
would have cost while the dispatch itself is O(1).
"""

import numpy as np

from repro.util.errors import AllocationError, GmacError
from repro.util.intervals import RangeMap
from repro.hw.interconnect import Direction
from repro.hw.memory import ledger_bind, ledger_release, ledger_unbind
from repro.util.avltree import AvlTree
from repro.sim.tracing import Category, CoherenceEvent
from repro.core.blocks import (
    Block, BlockState, DIRTY_CODE, INVALID_CODE, index_runs,
)
from repro.core.region import SharedRegion
from repro.core.costs import GmacCostModel


class Manager:
    """Bookkeeping, fault dispatch and data movement for shared regions."""

    def __init__(self, machine, process, layer, cost_model=None):
        self.machine = machine
        self.process = process
        self.layer = layer
        self.costs = cost_model or GmacCostModel()
        self.accounting = machine.accounting
        self.clock = machine.clock
        self.protocol = None  # installed by Gmac after construction
        #: Optional RecoveryPolicy (installed by Gmac when the machine has
        #: an enabled fault plan).  None keeps every path unchanged.
        self.recovery = None
        #: Optional PlacementPolicy (installed by Gmac on multi-device
        #: machines).  None places every region on device 0, which is the
        #: entire legacy behaviour.
        self.placement = None
        #: Optional kernel-window race monitor (shared with the owning
        #: Gmac); used only to mark fault-driven coherence work as
        #: GMAC-internal so its device-byte traffic is not misattributed
        #: to the application.
        self.monitor = None
        self._regions = RangeMap()
        #: The Section 5.2 balanced tree, kept as the fault-cost oracle:
        #: mutated only at alloc/free, never searched on the fault path.
        self._cost_tree = AvlTree()
        #: Bumped on every cost-tree mutation; invalidates the per-region
        #: fault-step caches.
        self._steps_epoch = 0
        self._allocation_counter = 0
        # Figure 8's byte counters, split by direction and by cause.
        self.bytes_to_accelerator = 0
        self.bytes_to_host = 0
        self.eager_bytes_to_accelerator = 0
        #: Bytes moved device-to-device over peer DMA (region migrations).
        self.peer_bytes = 0
        self.fault_count = 0
        self.process.signals.register(self._on_segv)

    # -- shared address space (Section 4.2) -------------------------------------

    def alloc(self, size, name=None, safe=False):
        """Allocate a shared region; the core of adsmAlloc/adsmSafeAlloc.

        The normal path allocates accelerator memory first and then asks
        the OS for an anonymous mapping at the *same* virtual range, so a
        single pointer serves both processors.  When that mapping collides
        (multi-accelerator systems) the normal path raises; the ``safe``
        path instead places the host mapping anywhere and records the
        translation for ``adsmSafe()``.
        """
        if size <= 0:
            raise GmacError(f"adsmAlloc size must be positive, got {size}")
        if name is None:
            name = f"region{self._allocation_counter}"
        self._allocation_counter += 1
        owner = (
            self.placement.place(size) if self.placement is not None else 0
        )
        space = self.process.address_space
        with self.accounting.measure(Category.MALLOC, label=name):
            self.clock.advance(self.costs.api_call_s)
            if safe:
                device_start = self._device_alloc(
                    lambda: self.layer.alloc(size, owner=owner)
                )
                self.clock.advance(self.costs.mmap_s)
                mapping = space.mmap(size)
            elif self.layer.gpu_for(owner).spec.virtual_memory:
                # Section 4.2's collision-free path: with accelerator
                # virtual memory, negotiate one virtual range free on BOTH
                # processors and map it on each side.
                device_start = self._device_alloc(
                    lambda: self._alloc_common_range(name, size, owner)
                )
                self.clock.advance(self.costs.mmap_s)
                mapping = space.mmap(size, fixed_address=device_start)
            else:
                device_start = self._device_alloc(
                    lambda: self.layer.alloc(size, owner=owner)
                )
                self.clock.advance(self.costs.mmap_s)
                try:
                    mapping = space.mmap(size, fixed_address=device_start)
                except AllocationError as exc:
                    self.layer.free(device_start, owner=owner)
                    raise GmacError(
                        f"shared mapping collision for {name}: {exc}; "
                        "use adsmSafeAlloc on this system"
                    ) from exc
            region = SharedRegion(
                name, mapping.start, device_start, size,
                self.protocol.block_size_for(size),
            )
            region.set_owner(owner)
            table = region.table
            # The mapping's protections become a view of the block states
            # under the active protocol: no page bits, no mprotect.
            table.manager = self
            mapping.guard = table
            self._regions.add(region.interval, region)
            for index in range(table.n_blocks):
                self._cost_tree.insert(table.start_of(index), None)
            self._steps_epoch += 1
            self.clock.advance(self.costs.block_setup_s * table.n_blocks)
            self.note_coherence(
                "alloc", region.name, 0, table.n_blocks - 1,
                detail=f"size={size}",
            )
            self._bind_transfer_plane(region, mapping)
            self.protocol.on_alloc(region)
        return region

    def _device_alloc(self, thunk):
        """One device allocation; device OOM triggers forced eviction and a
        bounded retry when recovery is armed (see RecoveryPolicy.retry_alloc)."""
        if self.recovery is not None:
            return self.recovery.retry_alloc(thunk, self.protocol)
        return thunk()

    def _alloc_common_range(self, name, size, owner=0):
        """Find and claim a virtual range free on the host AND the device.

        Walks the accelerator's free holes; inside each, skips past any
        conflicting host mappings page by mapping until a window of
        ``size`` bytes is free on both sides, then performs the placement
        allocation.  With 47-bit address spaces this effectively always
        succeeds — the point of accelerator virtual memory.
        """
        from repro.os.paging import page_ceil

        space = self.process.address_space
        padded = page_ceil(size)
        for hole in self.layer.gpu_for(owner).memory.free_holes():
            candidate = page_ceil(hole.start)
            while candidate + padded <= hole.end:
                conflict = space.conflict_at(candidate, padded)
                if conflict is None:
                    return self.layer.alloc_at(candidate, padded, owner=owner)
                candidate = page_ceil(conflict.end)
        raise GmacError(
            f"no common free virtual range of {size} bytes for {name}"
        )

    def free(self, host_start):
        """Release a shared region; the core of adsmFree."""
        found = self._regions.find_exact(host_start)
        if found is None:
            raise GmacError(f"adsmFree of unknown pointer {host_start:#x}")
        region = found[1]
        with self.accounting.measure(Category.FREE, label=region.name):
            self.clock.advance(self.costs.api_call_s)
            self.note_coherence(
                "free", region.name, 0, region.table.n_blocks - 1
            )
            self.protocol.on_free(region)
            table = region.table
            for index in range(table.n_blocks):
                self._cost_tree.delete(table.start_of(index))
            self._steps_epoch += 1
            self._regions.remove(host_start)
            self.clock.advance(self.costs.mmap_s)
            self._unbind_transfer_plane(region)
            self.process.address_space.munmap(region.host_start)
            self.layer.free(region.device_start, owner=region.owner)
        return region

    def free_all(self):
        """Release every region (used at application teardown)."""
        for start in [region.host_start for region in self.regions()]:
            self.free(start)

    # -- lookups ------------------------------------------------------------------

    def regions(self):
        return list(self._regions.values())

    def region_at(self, host_address):
        found = self._regions.find(host_address)
        return found[1] if found else None

    def region_starting_at(self, host_start):
        found = self._regions.find_exact(host_start)
        return found[1] if found else None

    def translate(self, host_address):
        """Host pointer -> device pointer; the core of adsmSafe()."""
        region = self.region_at(host_address)
        if region is None:
            raise GmacError(f"{host_address:#x} is not a shared address")
        return region.device_address_of(host_address)

    def shared_overlaps(self, interval):
        """(interval, region) pairs of shared memory overlapping a range."""
        return self._regions.overlapping(interval)

    @property
    def block_count(self):
        return len(self._cost_tree)

    # -- coherence event stream (consumed by repro.analysis) ----------------------

    def note_coherence(self, kind, region="", first=-1, last=-1, state="",
                       detail=""):
        """Emit one :class:`~repro.sim.tracing.CoherenceEvent`.

        A no-op (one attribute test) unless a sink is installed on the
        accounting — the sanitizer's model checker consumes the stream.
        """
        sink = self.accounting.coherence
        if sink is not None:
            sink.record(CoherenceEvent(
                kind, self.clock.now, region=region, first=first, last=last,
                state=state, detail=detail,
            ))

    def _note_transition(self, region, first, last, state, detail=""):
        sink = self.accounting.coherence
        if sink is not None:
            sink.record(CoherenceEvent(
                "transition", self.clock.now, region=region.name,
                first=first, last=last, state=state.value, detail=detail,
            ))

    # -- protection and state ---------------------------------------------------------
    #
    # A shared mapping's protections are a view of its block states (the
    # table is bound as the mapping's guard at alloc), so a transition is
    # one table store.  The ``set_*`` transitions still charge the one
    # mprotect call per contiguous run that GMAC makes (``mprotect_s``).

    def set_block(self, block, state):
        index = block.index
        block.region.table.states[index] = state.code
        self.accounting.count_transitions(1)
        self._note_transition(block.region, index, index, state)
        self.clock.advance(self.costs.mprotect_s)

    def set_region_blocks(self, region, state, detail=""):
        """Bulk state+protection change for a whole region (one mprotect).

        ``detail`` tags the transition event (e.g. ``wo-release`` for a
        declared write-only release, which the checker treats specially).
        """
        region.table.fill(state)
        self.accounting.count_transitions(region.table.n_blocks)
        self._note_transition(
            region, 0, region.table.n_blocks - 1, state, detail
        )
        self.clock.advance(self.costs.mprotect_s)

    def set_blocks_range(self, blocks, state):
        """Bulk state+protection change for a contiguous run of blocks.

        The run must be address-adjacent (as produced by walking a region
        in order); it charges a single mprotect, so n adjacent transitions
        cost one syscall instead of n.
        """
        self.set_index_range(
            blocks[0].region, blocks[0].index, blocks[-1].index, state
        )

    def set_index_range(self, region, first, last, state):
        """Vectorized state+protection change over an inclusive index run."""
        region.table.fill_range(first, last, state)
        self.accounting.count_transitions(last - first + 1)
        self._note_transition(region, first, last, state)
        self.clock.advance(self.costs.mprotect_s)

    def set_states_only(self, region, state):
        """Whole-region state bookkeeping that charges no mprotect.

        The batch protocol runs with no memory protections, so its bulk
        transitions are pure table fills; routing them here keeps the
        transition counters and the coherence event stream complete.
        """
        region.table.fill(state)
        self.accounting.count_transitions(region.table.n_blocks)
        self._note_transition(region, 0, region.table.n_blocks - 1, state)

    def mark_state(self, region, index, state):
        """Single-block state bookkeeping that charges no mprotect.

        Used by protocols for transitions whose protection change another
        call charges (rolling-update's call-time demotion of its dirty
        FIFO, which the region-wide release right after re-protects).
        """
        region.table.states[index] = state.code
        self.accounting.count_transitions(1)
        self._note_transition(region, index, index, state)

    # -- data movement ------------------------------------------------------------------

    def _attempt_transfer(self, thunk, label, device=None):
        """One logical transfer; retried with backoff under a fault plan.

        Runs inside the caller's Copy measurement, so backoff time (an
        inner Retry charge) is subtracted from Copy and the break-down
        keeps recovery overhead as its own category.  ``device`` names the
        device the transfer targets so watchdog escalation can declare the
        right context lost.
        """
        if self.recovery is not None:
            return self.recovery.retry_transfer(
                thunk, label=label, device=device
            )
        return thunk()

    def flush_to_device(self, block, sync=True):
        """Copy a block's host bytes to accelerator memory.

        Synchronous flushes (lazy-update on adsmCall, batch-update) charge
        Copy; asynchronous ones (rolling-update's eager eviction) cost the
        CPU only the issue overhead and overlap with whatever it does next.
        """
        return self.flush_index(
            block.region, block.index, sync=sync
        )

    def flush_index(self, region, index, sync=True):
        """Flush one block by (region, index) — no façade materialized."""
        table = region.table
        host_start = table.start_of(index)
        size = table.end_of(index) - host_start
        device_start = region.device_start + (host_start - region.host_start)
        self.bytes_to_accelerator += size
        self.note_coherence(
            "flush", region.name, index, index,
            detail="sync" if sync else "eager",
        )
        if sync:
            with self.accounting.measure(Category.COPY, label=region.flush_label):
                if self.recovery is None:
                    return self.layer.to_device(
                        device_start, host_start, size, sync=True,
                        owner=region.owner,
                    )
                return self._attempt_transfer(
                    lambda: self.layer.to_device(
                        device_start, host_start, size, sync=True,
                        owner=region.owner,
                    ),
                    label=region.flush_label,
                    device=region.owner,
                )
        self.eager_bytes_to_accelerator += size
        with self.accounting.measure(Category.COPY, label=region.eager_label):
            # Only the issue cost lands on the CPU; the DMA itself overlaps.
            if self.recovery is None:
                return self.layer.to_device(
                    device_start, host_start, size, sync=False,
                    owner=region.owner,
                )
            return self._attempt_transfer(
                lambda: self.layer.to_device(
                    device_start, host_start, size, sync=False,
                    owner=region.owner,
                ),
                label=region.eager_label,
                device=region.owner,
            )

    def fetch_to_host(self, block):
        """Copy a block's accelerator bytes back to the host (synchronous)."""
        return self.fetch_index(block.region, block.index)

    def fetch_index(self, region, index):
        """Fetch one block by (region, index) — no façade materialized.

        A deferred fetch records a ledger entry naming the owning Gpu's
        launch count and replays no queued kernel; the host replays that
        far when it reads the block (DESIGN.md §14).  An eager fetch reads
        device bytes, so the observation barrier replays first.  Either
        way a host fault that lands here sees post-kernel data, exactly as
        with the old eager engine.
        """
        table = region.table
        host_start = table.start_of(index)
        size = table.end_of(index) - host_start
        device_start = region.device_start + (host_start - region.host_start)
        self.bytes_to_host += size
        with self.accounting.measure(Category.COPY, label=region.fetch_label):
            if self.recovery is None:
                result = self.layer.to_host(
                    host_start, device_start, size, sync=True,
                    owner=region.owner,
                )
            else:
                result = self._attempt_transfer(
                    lambda: self.layer.to_host(
                        host_start, device_start, size, sync=True,
                        owner=region.owner,
                    ),
                    label=region.fetch_label,
                    device=region.owner,
                )
        # Sampled *after* the transfer, and only for a sanitizer: a
        # non-zero count means the fetched host bytes miss queued kernel
        # writes, i.e. the copy went around both the ledger and the barrier.
        if self.accounting.coherence is not None:
            pending = self.layer.gpu_for(region.owner).fetch_pending(
                device_start, size
            )
            self.note_coherence(
                "fetch", region.name, index, index, detail=f"pending={pending}"
            )
        return result

    def _bind_transfer_plane(self, region, mapping):
        """Bind the region's mapping to its device range for the transfer
        ledger (DESIGN.md §14); a no-op in eager-transfer mode, where no
        plane is ever created.  A fresh pairing is synced by construction —
        the device buffer and the anonymous mapping are both zeros — so the
        first flush of an untouched block already collapses to an empty
        delta.  Rebinding after migration or device recovery is
        self-healing inside the copy entry points, so this is only needed
        here at birth."""
        gpu = self.layer.gpu_for(region.owner)
        if not gpu.defer_transfers:
            return
        ledger_bind(
            gpu.memory, region.device_start, mapping, region.host_start,
            region.mapped_size, synced=True,
        )

    def _unbind_transfer_plane(self, region):
        """Drop ledger state before the region's mapping is unmapped.
        Outstanding entries die unread (their host bytes become
        unobservable), which counts them as fully elided transfers."""
        mapping = self.process.address_space.mapping_at(region.host_start)
        if mapping is None or mapping.plane is None:
            return
        gpu = self.layer.gpu_for(region.owner)
        ledger_unbind(gpu.memory, region.device_start, mapping)
        ledger_release(mapping)

    def ensure_device_canonical(self, region, interval):
        """Make the accelerator copy of ``interval`` valid.

        Dirty blocks are flushed (and demoted to read-only); read-only
        blocks already match; invalid blocks are device-canonical by
        definition.  Used by bulk-operation interposition before
        device-side copies.  Dirty blocks are found with one vectorized
        scan and demote as contiguous runs — one charged mprotect per run,
        not per block.
        """
        span = region.block_range(interval)
        if span is None:
            return
        first, last = span
        window = region.table.states[first:last + 1]
        dirty = np.flatnonzero(window == DIRTY_CODE) + first
        for run_first, run_last in index_runs(dirty):
            for index in range(run_first, run_last + 1):
                self.flush_index(region, index, sync=True)
            self.protocol.demote_clean_range(
                region.blocks[run_first:run_last + 1]
            )

    def ensure_host_canonical(self, region, interval):
        """Make the host copy of ``interval`` valid (fetch invalid blocks).

        Each invalid block still fetches individually (transfers are
        per-block), but the invalid set is found with one vectorized scan
        and adjacent fetched blocks turn read-only together, charging one
        range mprotect per run.
        """
        span = region.block_range(interval)
        if span is None:
            return
        first, last = span
        window = region.table.states[first:last + 1]
        invalid = np.flatnonzero(window == INVALID_CODE) + first
        for run_first, run_last in index_runs(invalid):
            for index in range(run_first, run_last + 1):
                self.fetch_index(region, index)
            self.set_index_range(
                region, run_first, run_last, BlockState.READ_ONLY
            )

    def migrate_region(self, region, target, reason="kernel"):
        """Move a region's device residence to ``target`` (peer DMA).

        Used when a kernel executes on a device that does not own one of
        its operands, and when readmission rebalances load back onto a
        recovered device.  The fast path is a device-to-device peer copy
        timed on BOTH links (D2H on the source's, H2D on the target's — a
        host-staged peer DMA, the conservative non-P2P model); when the
        source context is dead the host copy is canonical (the ADSM
        invariant) and the region re-materializes from host bytes instead.
        """
        source = region.owner
        if source == target:
            return
        with self.accounting.measure(Category.COPY, label=region.peer_label):
            size = region.size
            new_start = self._device_alloc(
                lambda: self.layer.alloc(size, owner=target)
            )
            src_ctx = self.layer.context_for(source)
            dst_ctx = self.layer.context_for(target)
            if src_ctx.alive:
                # The views are observation barriers: any deferred kernel
                # numerics on either device replay before bytes move.
                data = src_ctx.gpu.memory.view(
                    region.device_start, "u1", region.mapped_size,
                    writable=False,
                )
                dst_ctx.gpu.memory.view(
                    new_start, "u1", region.mapped_size
                )[:] = data
                d2h = src_ctx.link.transfer(
                    size, Direction.D2H, label=region.peer_label
                )
                h2d = dst_ctx.link.transfer(
                    size, Direction.H2D, label=region.peer_label
                )
                d2h.wait()
                h2d.wait()
                self.peer_bytes += size
                src_ctx.mem_free(region.device_start)
                region.rehome(new_start, target)
                detail = f"dma:{source}->{target}"
            else:
                # Dead source: every block's canonical bytes live on the
                # host (ADSM keeps the directory and the data there), so
                # re-route through host memory and reset coherence state.
                region.rehome(new_start, target)
                for index in range(region.table.n_blocks):
                    self.flush_index(region, index, sync=True)
                self.protocol.after_device_recovery([region])
                detail = f"host:{source}->{target}"
            self.note_coherence(
                "peer", region.name, 0, region.table.n_blocks - 1,
                detail=detail,
            )

    # -- fault dispatch -----------------------------------------------------------------

    def _fault_steps_for(self, region):
        """Per-block fault search costs, sampled from the cost oracle.

        For any address inside a block, the Section 5.2 tree search visits
        a fixed node path that depends only on whether the address *is* the
        block's start key or lies strictly inside the block.  Both step
        counts are sampled once per (region, tree epoch) into flat int32
        arrays, so the fault path charges the exact tree cost with one
        array read.
        """
        cached = region.fault_steps
        if cached is not None and cached[0] == self._steps_epoch:
            return cached
        table = region.table
        n = table.n_blocks
        eq_steps = np.zeros(n, dtype=np.int32)
        in_steps = np.zeros(n, dtype=np.int32)
        for index in range(n):
            key = table.start_of(index)
            eq_steps[index] = self._cost_tree.floor_steps(key)[1]
            in_steps[index] = self._cost_tree.floor_steps(key + 1)[1]
        cached = (self._steps_epoch, eq_steps, in_steps)
        region.fault_steps = cached
        return cached

    def _on_segv(self, info):
        """The SIGSEGV handler GMAC registers (Section 4.3).

        Locates the faulting region via the ordered region map and the
        faulting block by shift/mask arithmetic, charging the paper's
        O(log n) balanced-tree search cost from the sampled cost oracle,
        then lets the protocol apply the Figure 6 state transition.
        Returns False for addresses outside any shared region so unrelated
        faults still crash the application.  One delivery repairs one
        block: an access that reaches past it faults again at the next
        block's start.
        """
        with self.accounting.measure(Category.SIGNAL, label="segv"):
            address = info.address
            found = self._regions.find(address)
            if found is None:
                # Miss: charge exactly what the tree search for a
                # non-shared address would have cost, then decline.
                _, steps = self._cost_tree.floor_steps(address)
                self.clock.advance(
                    self.costs.signal_base_s
                    + steps * self.costs.signal_per_step_s
                )
                return False
            region = found[1]
            table = region.table
            index = table.index_of(address)
            _, eq_steps, in_steps = self._fault_steps_for(region)
            # Plain int: a numpy scalar here would poison the virtual clock
            # (np.float64 reprs leak into every downstream figure).
            steps = int(
                eq_steps[index] if address == table.start_of(index)
                else in_steps[index]
            )
            self.clock.advance(
                self.costs.signal_base_s + steps * self.costs.signal_per_step_s
            )
            self.fault_count += 1
            self.accounting.count_fault()
            monitor = self.monitor
            if monitor is None:
                self.protocol.on_fault(region.blocks[index], info.access)
            else:
                # The fault itself was already judged by the race monitor's
                # own signal handler (it runs first); the coherence work it
                # triggers is GMAC-internal data movement.
                monitor.enter_internal()
                try:
                    self.protocol.on_fault(region.blocks[index], info.access)
                finally:
                    monitor.exit_internal()
        return True

    # -- call/return boundaries (the consistency model, Section 3.3) ---------------------

    def release_for_call(self, written=None):
        """Release shared objects to the accelerator; returns the earliest
        time a kernel may start (after all pending flushes)."""
        self.protocol.pre_call(self.regions(), written=written)
        return self.layer.pending_h2d()

    def acquire_after_return(self):
        """Re-acquire shared objects for the CPU after kernel return."""
        self.protocol.post_sync(self.regions())

    def reset_counters(self):
        self.bytes_to_accelerator = 0
        self.bytes_to_host = 0
        self.eager_bytes_to_accelerator = 0
        self.peer_bytes = 0
        self.fault_count = 0
