"""Lazy-update: fault-driven coherence at whole-object granularity.

Figure 6(b), without the rolling refinement.  Protection hardware detects
CPU writes to read-only objects and any access to invalid objects; on a
kernel call only *dirty* objects travel to the accelerator, and after
return objects come back *on demand*, when (and only when) the CPU touches
them.  The two benefits named in Section 4.3: only CPU-modified data moves
host-to-accelerator, and only CPU-read data moves back.

Flushes and fetches go through the manager to the transfer ledger
(DESIGN.md §14): a flush of a dirty object copies only the host-dirty /
unsynced delta, and a fetch records a versioned extent instead of moving
bytes.  Because lazy fetches happen on an actual CPU access, the faulting
bytes materialize almost immediately — lazy's win is the delta flush, not
elision, and that is expected (see the transfer-equivalence suite).
"""

from repro.os.paging import AccessKind
from repro.core.blocks import BlockState, INVALID_CODE
from repro.core.protocols.base import Protocol


class LazyUpdate(Protocol):
    name = "lazy"

    def block_size_for(self, region_size):
        # Whole-object granularity: one block per region.
        return max(region_size, 1)

    def on_alloc(self, region):
        # "Shared data structures are initialized to a read-only state when
        # they are allocated, so read accesses do not trigger a page fault."
        self.manager.set_region_blocks(region, BlockState.READ_ONLY)

    def on_fault(self, block, access):
        manager = self.manager
        if block.state is BlockState.READ_ONLY:
            if access is not AccessKind.WRITE:
                raise AssertionError(
                    f"read fault on readable block {block!r}"
                )
            manager.set_block(block, BlockState.DIRTY)
        elif block.state is BlockState.INVALID:
            # Transfer the whole object back before the access proceeds.
            manager.fetch_to_host(block)
            if access is AccessKind.WRITE:
                manager.set_block(block, BlockState.DIRTY)
            else:
                manager.set_block(block, BlockState.READ_ONLY)
        else:
            raise AssertionError(f"fault on dirty (RW) block {block!r}")

    def pre_call(self, regions, written=None):
        # Dirty objects travel; then everything is invalidated and fenced.
        # The dirty set comes from one vectorized scan of the state table
        # rather than a per-block Python loop.
        for region in regions:
            for index in region.table.indices_in(BlockState.DIRTY):
                self.manager.flush_index(region, int(index), sync=True)
            if written is not None and region not in written:
                # Annotated as read-only for the kernel: a just-flushed (or
                # already matching) host copy stays valid, avoiding the
                # read-back later.  An *invalid* object must stay invalid —
                # its host bytes are stale from an earlier kernel, and
                # promoting them to READ_ONLY would let the CPU silently
                # read pre-kernel data (caught by the coherence checker).
                if region.table.states[0] != INVALID_CODE:
                    self.manager.set_region_blocks(region, BlockState.READ_ONLY)
            else:
                self.manager.set_region_blocks(region, BlockState.INVALID)

    def post_sync(self, regions):
        # Nothing moves at return time; objects fault back on first use.
        pass
