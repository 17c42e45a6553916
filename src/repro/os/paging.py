"""Pages, protection bits and access kinds.

The simulated MMU works at 4KB page granularity, like the x86 hosts in the
paper's testbed.  Plain mappings carry :class:`Prot` bits per page, set
through ``mprotect``.  A GMAC shared region's protections are instead a
view of its block states: lazy-update protects whole objects and
rolling-update fixed-size, page-aligned blocks, so every protection
boundary still falls on a page boundary.
"""

import enum

#: 4KB, the x86 base page size and the smallest block size in Figure 11.
PAGE_SIZE = 4096


class Prot(enum.IntFlag):
    """mprotect-style protection bits."""

    NONE = 0
    READ = 1
    WRITE = 2
    RW = READ | WRITE


class AccessKind(enum.Enum):
    """What a faulting access was trying to do."""

    READ = "read"
    WRITE = "write"

    # Members are singletons; the identity hash skips Enum's name-based
    # hashing on the access-check fast path (access-table dict lookups).
    __hash__ = object.__hash__

    @property
    def required_prot(self):
        if self is AccessKind.READ:
            return Prot.READ
        return Prot.WRITE

    def __str__(self):
        return self.value


def page_floor(address):
    """Round an address down to its page boundary."""
    return address - (address % PAGE_SIZE)


def page_ceil(address):
    """Round an address up to the next page boundary."""
    return -(-address // PAGE_SIZE) * PAGE_SIZE


def page_index(base, address):
    """Index of the page containing ``address`` within a mapping at ``base``."""
    return (address - base) // PAGE_SIZE
