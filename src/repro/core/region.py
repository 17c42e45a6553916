"""Shared regions: one ``adsmAlloc`` allocation each.

A region records the host virtual range, the device range backing it, and
the flat :class:`~repro.core.blocks.BlockTable` it is divided into.  In the
common case the host and device start addresses are *equal* — the Section
4.2 trick of mmap-ing system memory at the exact range ``cudaMalloc``
returned, so one pointer works on both processors.  Regions created by
``adsmSafeAlloc`` (the multi-accelerator fallback) carry different
addresses, and ``adsmSafe()`` performs the translation.
"""

from repro.util.intervals import Interval
from repro.os.paging import page_ceil
from repro.core.blocks import Block, BlockTable


class SharedRegion:
    """One shared data object and its coherence blocks."""

    def __init__(self, name, host_start, device_start, size, block_size):
        if block_size <= 0:
            raise ValueError(f"block size must be positive, got {block_size}")
        self.name = name
        self.host_start = host_start
        self.device_start = device_start
        self.size = size
        #: Blocks cover the whole *mapped* (page-rounded) range so that
        #: protection changes are always page aligned; block sizes are
        #: rounded up to pages for the same reason (a "whole object" block
        #: for a 4-byte region is still one page).
        self.mapped_size = page_ceil(size)
        self.block_size = min(page_ceil(block_size), self.mapped_size)
        self.interval = Interval.sized(host_start, self.mapped_size)
        self.table = BlockTable(host_start, self.mapped_size, self.block_size)
        #: Owning device index: where the region's device range lives.
        #: Always 0 on single-device machines; multi-device placement (and
        #: failover rehoming) keeps this and the table's owner column in
        #: sync via :meth:`set_owner`/:meth:`rehome`.
        self.owner = 0
        self._blocks = None
        #: Cached (epoch, eq_steps, in_steps) fault-cost arrays; owned by
        #: the manager (see Manager._fault_steps_for).
        self.fault_steps = None
        #: Transfer trace labels, prebuilt once: the manager attaches one to
        #: every copy, and the f-string showed up in fault-heavy profiles.
        self.flush_label = f"flush:{name}"
        self.eager_label = f"eager:{name}"
        self.fetch_label = f"fetch:{name}"
        self.peer_label = f"peer:{name}"

    def set_owner(self, owner):
        """Record the owning device (attribute + table column together)."""
        self.owner = owner
        self.table.owners[:] = owner

    def rehome(self, device_start, owner):
        """Move the region's device residence (migration or failover).

        The host range never moves — only the device twin does, so a
        rehomed region simply stops being address-aliased, exactly like a
        region born via ``adsmSafeAlloc``.
        """
        self.device_start = device_start
        self.set_owner(owner)

    @property
    def blocks(self):
        """Block façades, built lazily: hot paths work on the table arrays
        and never materialize these."""
        if self._blocks is None:
            self._blocks = [
                Block(self, index) for index in range(self.table.n_blocks)
            ]
        return self._blocks

    @property
    def is_aliased(self):
        """True when host and device use the same numeric addresses."""
        return self.host_start == self.device_start

    def device_address_of(self, host_address):
        """Translate a host address inside this region to its device twin."""
        if not self.interval.contains(host_address) and host_address != self.interval.end:
            raise ValueError(
                f"address {host_address:#x} not inside region {self.name}"
            )
        return self.device_start + (host_address - self.host_start)

    def block_range(self, interval):
        """Inclusive (first, last) block indices under ``interval``, or
        None when the intersection with the region is empty."""
        span = self.interval.intersection(interval)
        if not span:
            return None
        return self.table.range_of(span.start, span.end)

    def blocks_overlapping(self, interval):
        """All blocks intersecting ``interval`` (host addressing)."""
        indices = self.block_range(interval)
        if indices is None:
            return []
        first, last = indices
        return self.blocks[first:last + 1]

    def __repr__(self):
        return (
            f"SharedRegion({self.name!r}, host={self.host_start:#x}, "
            f"device={self.device_start:#x}, size={self.size}, "
            f"blocks={self.table.n_blocks})"
        )
