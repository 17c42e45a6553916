"""The coherence-protocol interface.

GMAC's layered architecture "allows multiple memory coherence protocols to
coexist and enables programmers to select the most appropriate protocol at
application load time" (Section 4.3).  A protocol owns the per-block state
machine; the manager owns the data structures and the transfers.  Protocols
are defined from the CPU's perspective only.
"""

import abc

import numpy as np

from repro.os.paging import AccessKind
from repro.core.blocks import BlockState


class Protocol(abc.ABC):
    """State-machine policy for one :class:`~repro.core.manager.Manager`."""

    #: Load-time selection key (see PROTOCOLS in the package __init__).
    name = "abstract"

    #: Section 4.3's protections as a view of block state: per access kind,
    #: whether a block in each state allows it, indexed by state code
    #: (INVALID, DIRTY, READ_ONLY).  Invalid blocks take no access,
    #: read-only blocks take reads and dirty blocks take both.  The MMU
    #: reads it, through the region's block table, on every check.
    access = {
        AccessKind.READ: np.array([False, True, True]),
        AccessKind.WRITE: np.array([False, True, False]),
    }

    def __init__(self, manager):
        self.manager = manager

    @abc.abstractmethod
    def block_size_for(self, region_size):
        """The coherence granularity for a new region of ``region_size``."""

    @abc.abstractmethod
    def on_alloc(self, region):
        """Initialise block states and protections for a fresh region."""

    def on_free(self, region):
        """Forget any protocol-private state about ``region``."""

    @abc.abstractmethod
    def on_fault(self, block, access):
        """Apply the Figure 6 transition for a CPU access fault."""

    @abc.abstractmethod
    def pre_call(self, regions, written=None):
        """Release shared objects before a kernel call (adsmCall).

        ``written``, when given, is the set of regions the kernel is
        annotated to write (Section 4.3's pointer-analysis hook); regions
        outside it may stay host-valid.  ``None`` means no annotation: all
        regions must be treated as potentially written.
        """

    @abc.abstractmethod
    def post_sync(self, regions):
        """Re-acquire shared objects after kernel return (adsmSync)."""

    def call_written(self, written):
        """Resolve the effective written-region set for one launch.

        ``written`` is the caller's ``writes=`` annotation (None when
        unannotated).  Declaration-driven protocols refine an unannotated
        launch from their per-object modes so the release, the coherence
        event stream and the race detector all agree on what the kernel
        may write; the default trusts the caller's annotation as-is.
        """
        return written

    #: Whether bulk memory operations on shared data may be routed to
    #: device-side calls (cudaMemset/cudaMemcpy).  Requires fault-driven
    #: refetching, so batch-update opts out.
    supports_device_bulk = True

    def demote_clean(self, block):
        """A dirty block was flushed outside the call boundary: both copies
        now match, so it becomes read-only."""
        self.manager.set_block(block, BlockState.READ_ONLY)

    def demote_clean_range(self, blocks):
        """A contiguous run of flushed dirty blocks demotes together: one
        charged range mprotect instead of one per block."""
        self.manager.set_blocks_range(blocks, BlockState.READ_ONLY)

    def discard_block(self, block):
        """Drop the host copy of one block: the device copy just became
        canonical (after a device-side memset/memcpy)."""
        self.manager.set_block(block, BlockState.INVALID)

    def invalidate_region(self, region):
        """Discard the host copy of a region (used by bulk-op interposition
        after device-side memset/memcpy made the accelerator canonical)."""
        self.manager.set_region_blocks(region, BlockState.INVALID)

    # -- fault recovery hooks (see repro.core.recovery) --------------------------

    def force_evict(self):
        """Relieve device-memory pressure after a cudaMalloc OOM.

        Protocols with device-side staging state override this (rolling:
        drain the dirty FIFO, shrink the rolling size).  Returns the number
        of blocks evicted; the stateless default has nothing to give back.
        """
        return 0

    def after_device_recovery(self, regions):
        """Reset resting states after device loss re-materialisation.

        Every block was just flushed, so both copies match: READ_ONLY
        (readable, write-faulting) lets fault-driven protocols resume
        precisely.  Batch-update overrides (it runs without protections).
        """
        for region in regions:
            self.manager.set_region_blocks(region, BlockState.READ_ONLY)
