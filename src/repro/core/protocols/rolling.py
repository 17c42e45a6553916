"""Rolling-update: the hybrid write-update/write-invalidate protocol.

Figure 6(b) with the dotted eager-eviction edge.  Shared objects are
divided into fixed-size memory blocks; at most *rolling size* blocks may be
dirty on the CPU at once.  When a write fault would exceed the limit, the
oldest dirty block is **asynchronously** transferred to the accelerator and
demoted to read-only — eagerly overlapping data transfer with the CPU code
that is still producing the remaining input (Section 4.3).  Reads of
invalid data fetch only the faulting block, so scattered output reads stop
paying for whole objects.

The rolling size is adaptive by default: "every time a new memory structure
is allocated (adsmAlloc()), the rolling size is increased by a fixed factor
(with a default value of 2 blocks)".  Figure 12's experiments pin it to
fixed values (1, 2, 4) instead, which is supported via ``rolling_size``.

Eager evictions flush through the same manager path as lazy's release,
so the transfer ledger's delta tracker (DESIGN.md §14) trims each evicted
block to its host-dirty runs; the virtual transfer still charges the full
block (the paper's staging-buffer DMA moves whole blocks), keeping the
Figure 11/12 timelines byte-identical to the eager engine.
"""

from collections import deque

from repro.util.units import KB
from repro.sim.tracing import Category
from repro.os.paging import AccessKind, PAGE_SIZE, page_ceil
from repro.core.blocks import BlockState, index_runs
from repro.core.protocols.base import Protocol

#: Default memory-block size.  Figure 11 finds the PCIe bandwidth sweet
#: spot in the 256KB-1MB range; GMAC defaults to the lower end of it.
DEFAULT_BLOCK_SIZE = 256 * KB

#: "the rolling size is increased by a fixed factor (with a default value
#: of 2 blocks)"
DEFAULT_ADAPT_INCREMENT = 2


class RollingUpdate(Protocol):
    name = "rolling"

    def __init__(self, manager, block_size=DEFAULT_BLOCK_SIZE,
                 rolling_size=None, adapt_increment=DEFAULT_ADAPT_INCREMENT):
        super().__init__(manager)
        block_size = page_ceil(max(int(block_size), PAGE_SIZE))
        self.block_size = block_size
        self.adaptive = rolling_size is None
        self.rolling_size = 0 if self.adaptive else int(rolling_size)
        if not self.adaptive and self.rolling_size < 1:
            raise ValueError("a fixed rolling size must be at least 1 block")
        self.adapt_increment = adapt_increment
        #: FIFO of dirty blocks, oldest first (the "memory block cache").
        #: Ordering lives here; *membership* is the per-region
        #: ``table.dirty_bits`` index bitmap, so the is-it-queued checks on
        #: demote/discard are O(1) bitmap reads instead of list scans.
        self._dirty = deque()
        #: The in-flight eager transfer; evictions stage through a single
        #: host buffer, so issuing a new one waits for the previous DMA.
        self._last_eviction = None
        self.evictions = 0
        self.eviction_stall_s = 0.0

    def block_size_for(self, region_size):
        return self.block_size

    # -- state machine -------------------------------------------------------------

    def on_alloc(self, region):
        self.manager.set_region_blocks(region, BlockState.READ_ONLY)
        if self.adaptive:
            # Tie the dirty-block budget to the number of live objects so
            # every object can keep at least one block dirty (Section 4.3).
            self.rolling_size += self.adapt_increment
        self.manager.note_coherence("limit", detail=str(self.rolling_size))

    def on_free(self, region):
        region.table.dirty_bits[:] = False
        self._dirty = deque(
            block for block in self._dirty if block.region is not region
        )

    def on_fault(self, block, access):
        manager = self.manager
        if block.state is BlockState.READ_ONLY:
            if access is not AccessKind.WRITE:
                raise AssertionError(f"read fault on readable block {block!r}")
            self._mark_dirty(block)
        elif block.state is BlockState.INVALID:
            # Fetch only the faulting block (the scattered-read win).
            manager.fetch_to_host(block)
            if access is AccessKind.WRITE:
                self._mark_dirty(block)
            else:
                manager.set_block(block, BlockState.READ_ONLY)
        else:
            raise AssertionError(f"fault on dirty (RW) block {block!r}")

    def _mark_dirty(self, block):
        self.manager.set_block(block, BlockState.DIRTY)
        block.region.table.dirty_bits[block.index] = True
        self._dirty.append(block)
        while len(self._dirty) > max(self.rolling_size, 1):
            self._evict(self._dirty.popleft())

    def _evict(self, block):
        """Eagerly push the oldest dirty block to the accelerator.

        The transfer is asynchronous (the dotted edge in Figure 6(b)): the
        CPU pays only the issue cost and keeps computing while the DMA is
        in flight, which is the overlap Figure 11's 64KB anomaly comes
        from.  The block is demoted to read-only; a later write re-dirties
        it (and re-transfers it — the Figure 12 pathology when the rolling
        size is too small for multi-pass initialisation).
        """
        self.evictions += 1
        block.region.table.dirty_bits[block.index] = False
        self.manager.note_coherence(
            "evict", block.region.name, block.index, block.index
        )
        self._await_staging_buffer()
        self._last_eviction = self.manager.flush_to_device(block, sync=False)
        self.manager.set_block(block, BlockState.READ_ONLY)

    def _await_staging_buffer(self):
        """Wait for the previous eager transfer's staging buffer.

        GMAC stages each eviction through one bounce buffer, so back-to-back
        evictions serialize on the DMA: when a block's transfer time exceeds
        the CPU time to produce the next block, "evictions must wait for the
        previous transfer to finish" — the Figure 11 64KB->128KB anomaly.
        """
        last = self._last_eviction
        clock = self.manager.clock
        if last is not None and last.finish > clock.now:
            stall = last.finish - clock.now
            clock.advance_to(last.finish)
            self.eviction_stall_s += stall
            self.manager.accounting.charge(
                Category.COPY, stall, label="eviction-stall"
            )

    # -- call/return boundaries -------------------------------------------------------

    def pre_call(self, regions, written=None):
        # Flush the remaining dirty blocks asynchronously; the kernel's
        # start time already waits for the H2D queue to drain (the manager
        # threads link.pending through to the launch).
        while self._dirty:
            block = self._dirty.popleft()
            block.region.table.dirty_bits[block.index] = False
            self.manager.flush_to_device(block, sync=False)
            self.manager.mark_state(
                block.region, block.index, BlockState.READ_ONLY
            )
        for region in regions:
            if written is not None and region not in written:
                # Kernel-output annotation (Section 4.3's interprocedural
                # pointer analysis hook): objects the kernel does not write
                # stay valid on the host, avoiding the needless read-back.
                # Blocks still invalid from an earlier kernel must *stay*
                # invalid — their host bytes are stale, and promoting them
                # would let the CPU silently read pre-kernel data.
                table = region.table
                for first, last in index_runs(
                    table.indices_not_in(BlockState.INVALID)
                ):
                    self.manager.set_index_range(
                        region, int(first), int(last), BlockState.READ_ONLY
                    )
            else:
                self.manager.set_region_blocks(region, BlockState.INVALID)

    def post_sync(self, regions):
        # Blocks return on demand, one fault and one block at a time.
        pass

    def _unqueue(self, block):
        """Drop ``block`` from the dirty FIFO if queued (O(1) bitmap test)."""
        bits = block.region.table.dirty_bits
        if bits[block.index]:
            bits[block.index] = False
            self._dirty.remove(block)

    def demote_clean_range(self, blocks):
        for block in blocks:
            self._unqueue(block)
        super().demote_clean_range(blocks)

    def discard_block(self, block):
        self._unqueue(block)
        super().discard_block(block)

    # -- fault recovery hooks ---------------------------------------------------

    def force_evict(self):
        """OOM relief: flush the whole dirty FIFO synchronously and halve
        the rolling size, so fewer blocks are staged toward the device at
        once while memory stays scarce."""
        evicted = 0
        while self._dirty:
            block = self._dirty.popleft()
            block.region.table.dirty_bits[block.index] = False
            self.manager.note_coherence(
                "evict", block.region.name, block.index, block.index,
                detail="forced",
            )
            self.manager.flush_to_device(block, sync=True)
            self.manager.set_block(block, BlockState.READ_ONLY)
            evicted += 1
        self.rolling_size = max(1, self.rolling_size // 2)
        self.manager.note_coherence("limit", detail=str(self.rolling_size))
        return evicted

    def after_device_recovery(self, regions):
        # The eviction pipeline died with the device: every staged block
        # was re-flushed by the recovery replay, so the FIFO starts empty.
        for block in self._dirty:
            block.region.table.dirty_bits[block.index] = False
        self._dirty.clear()
        self._last_eviction = None
        super().after_device_recovery(regions)
