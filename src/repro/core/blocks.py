"""Memory blocks, their coherence states, and the flat block-state table.

Figure 6 of the paper defines three states for a shared memory range, all
maintained by the CPU (the asymmetry: accelerators perform no coherence
actions):

* **INVALID** -- the up-to-date copy lives only in accelerator memory; any
  CPU access must transfer it back first,
* **DIRTY** -- the CPU holds an updated copy that must be flushed to the
  accelerator before the next kernel call,
* **READ_ONLY** -- both copies match; no transfer is needed either way.

Batch- and lazy-update track whole objects (one block per region);
rolling-update divides objects into fixed-size blocks.

Since blocks within a region are fixed-size, per-region state lives in a
flat numpy ``uint8`` array (:class:`BlockTable`): address-to-index is
shift/mask arithmetic (or one integer division for non-power-of-two block
sizes) and bulk state transitions are single vectorized stores.  The
:class:`Block` class remains as a thin façade over one table slot so
reprs, tests and protocol single-block transitions keep their object view.
"""

import enum

import numpy as np


class BlockState(enum.Enum):
    INVALID = "invalid"
    DIRTY = "dirty"
    READ_ONLY = "read-only"

    def __str__(self):
        return self.value


#: Stable uint8 codes for the flat state arrays.
INVALID_CODE = 0
DIRTY_CODE = 1
READ_ONLY_CODE = 2

#: code -> BlockState (index with an int code).
CODE_STATES = (BlockState.INVALID, BlockState.DIRTY, BlockState.READ_ONLY)

# Attach the code to each member so hot paths avoid a dict lookup.
BlockState.INVALID.code = INVALID_CODE
BlockState.DIRTY.code = DIRTY_CODE
BlockState.READ_ONLY.code = READ_ONLY_CODE


class BlockTable:
    """Flat array-backed block bookkeeping for one region.

    One ``uint8`` per block holds the Figure 6 state; a parallel boolean
    array marks membership in rolling-update's dirty FIFO (so membership
    tests are O(1) bitmap reads instead of list scans).  Blocks are
    fixed-size within a region, so locating the block for an address is
    a shift (power-of-two block sizes) or one integer division — the
    Section 5.2 balanced tree is only needed to locate the *region*.
    """

    __slots__ = (
        "base", "size", "block_size", "n_blocks", "states", "dirty_bits",
        "owners", "_shift", "manager",
    )

    def __init__(self, base, size, block_size):
        if block_size <= 0:
            raise ValueError(f"block size must be positive, got {block_size}")
        self.base = base
        self.size = size
        self.block_size = block_size
        self.n_blocks = -(-size // block_size)
        self.states = np.full(self.n_blocks, READ_ONLY_CODE, dtype=np.uint8)
        self.dirty_bits = np.zeros(self.n_blocks, dtype=bool)
        # Owner-device column: which accelerator holds each block's device
        # copy.  Regions migrate whole (blocks share one device range), so
        # the column is bulk-filled at placement/rehome time and dispatch
        # stays O(1) — no per-block owner search ever happens.
        self.owners = np.zeros(self.n_blocks, dtype=np.int16)
        # Power-of-two block sizes (the common case: pages, 256KB rolling
        # blocks, every Figure 11 sweep point) resolve by shift instead of
        # division.
        self._shift = (
            block_size.bit_length() - 1
            if block_size & (block_size - 1) == 0 else None
        )
        #: The manager whose protocol judges accesses to the region's
        #: mapping (see :meth:`access`); set when the region is allocated.
        self.manager = None

    def index_of(self, address):
        """Block index containing ``address`` (no bounds check)."""
        offset = address - self.base
        if self._shift is not None:
            return offset >> self._shift
        return offset // self.block_size

    def start_of(self, index):
        return self.base + index * self.block_size

    def end_of(self, index):
        """Exclusive end of block ``index`` (last block may be short)."""
        return min(self.base + (index + 1) * self.block_size,
                   self.base + self.size)

    def range_of(self, start, end):
        """Inclusive (first, last) block indices overlapping [start, end)."""
        return self.index_of(start), self.index_of(end - 1)

    def access(self, kind):
        """Whether a block in each state (indexed by code) allows ``kind``.

        The region's mapping is bound to this table as its ``guard``, so
        the MMU asks here on every check: the protections are a view of
        the block states.  The active protocol's table is read per call,
        because recovery can switch the protocol mid-run.
        """
        return self.manager.protocol.access[kind]

    def state_of(self, index):
        return CODE_STATES[self.states[index]]

    def set_state(self, index, state):
        self.states[index] = state.code

    def fill(self, state):
        """Vectorized whole-table transition."""
        self.states[:] = state.code

    def fill_range(self, first, last, state):
        """Vectorized transition over the inclusive index run [first, last]."""
        self.states[first:last + 1] = state.code

    def indices_in(self, state, first=0, last=None):
        """Ascending indices in ``state`` within the inclusive run."""
        if last is None:
            last = self.n_blocks - 1
        window = self.states[first:last + 1]
        return np.flatnonzero(window == state.code) + first

    def indices_not_in(self, state):
        """Ascending indices whose state differs from ``state``."""
        return np.flatnonzero(self.states != state.code)

    def count_in(self, state):
        return int(np.count_nonzero(self.states == state.code))


def index_runs(indices):
    """Group an ascending index array into inclusive (first, last) runs.

    Run-length grouping turns per-block transitions into contiguous range
    operations: n adjacent blocks change state with one vectorized store
    and charge one ``mprotect`` instead of n.
    """
    if len(indices) == 0:
        return []
    breaks = np.flatnonzero(np.diff(indices) > 1)
    firsts = np.concatenate(([0], breaks + 1))
    lasts = np.concatenate((breaks, [len(indices) - 1]))
    return [
        (int(indices[f]), int(indices[l])) for f, l in zip(firsts, lasts)
    ]


class Block:
    """One coherence unit of a shared region — a façade over a table slot.

    State reads/writes delegate to the region's :class:`BlockTable`, so a
    façade is never stale; two façades for the same slot compare equal.
    """

    __slots__ = ("region", "index")

    def __init__(self, region, index, interval=None, state=None):
        self.region = region
        self.index = index
        if state is not None:
            region.table.set_state(index, state)

    @property
    def interval(self):
        from repro.util.intervals import Interval

        table = self.region.table
        return Interval(table.start_of(self.index), table.end_of(self.index))

    @property
    def state(self):
        return CODE_STATES[self.region.table.states[self.index]]

    @state.setter
    def state(self, value):
        self.region.table.states[self.index] = value.code

    @property
    def host_start(self):
        return self.region.table.start_of(self.index)

    @property
    def size(self):
        table = self.region.table
        return table.end_of(self.index) - table.start_of(self.index)

    @property
    def device_start(self):
        """Where this block's bytes live in accelerator memory."""
        return self.region.device_start + (
            self.host_start - self.region.host_start
        )

    def __eq__(self, other):
        return (
            isinstance(other, Block)
            and other.region is self.region
            and other.index == self.index
        )

    def __hash__(self):
        return hash((id(self.region), self.index))

    def __repr__(self):
        return (
            f"Block(#{self.index} {self.interval} {self.state} "
            f"of {self.region.name})"
        )
