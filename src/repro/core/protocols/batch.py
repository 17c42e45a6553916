"""Batch-update: the pure write-invalidate baseline.

Figure 6(a).  "On a kernel invocation (adsmCall()) the CPU invalidates all
shared objects, whether or not they are accessed by the accelerator.  On
method return (adsmSync()), all shared objects are transferred from
accelerator memory to system memory and marked as dirty."  No fault
detection is used at all — pages stay read/write and every object crosses
the bus twice per kernel call.  This mimics what programmers tend to
hand-write first, and is the protocol behind the 65.18x (pns) and 18.61x
(rpes) slow-downs in Figure 7.
"""

import numpy as np

from repro.os.paging import AccessKind
from repro.core.blocks import BlockState
from repro.core.protocols.base import Protocol


class BatchUpdate(Protocol):
    name = "batch"

    # Without fault detection a discarded host copy could never be
    # refetched on demand, so bulk ops must stay on the host path.
    supports_device_bulk = False

    # No protections: a block in any state takes reads and writes.
    access = {kind: np.ones(3, dtype=bool) for kind in AccessKind}

    def block_size_for(self, region_size):
        # Whole-object granularity: one block per region.
        return max(region_size, 1)

    def on_alloc(self, region):
        # The CPU owns fresh objects; no access detection is installed.
        self.manager.set_region_blocks(region, BlockState.DIRTY)

    def on_fault(self, block, access):
        raise AssertionError(
            "batch-update installs no protections; a fault here is a bug"
        )

    def pre_call(self, regions, written=None):
        # Everything to the accelerator, needed or not; batch-update is the
        # naive baseline, so the annotation is deliberately ignored.  The
        # only exception is a host copy already invalidated by an earlier
        # back-to-back call: there is nothing newer to transfer.  The
        # non-invalid set comes from one vectorized table scan.
        for region in regions:
            table = region.table
            for index in table.indices_not_in(BlockState.INVALID):
                self.manager.flush_index(region, int(index), sync=True)
            self.manager.set_states_only(region, BlockState.INVALID)

    def post_sync(self, regions):
        # Everything back, implicitly invalidating the accelerator copy.
        for region in regions:
            for index in range(region.table.n_blocks):
                self.manager.fetch_index(region, index)
            self.manager.set_states_only(region, BlockState.DIRTY)

    def after_device_recovery(self, regions):
        # Batch runs unprotected with host copies always writable; the
        # recovery flush made both sides match, so DIRTY is the resting
        # state (a redundant re-flush at the next call is batch's nature).
        for region in regions:
            self.manager.set_region_blocks(region, BlockState.DIRTY)
