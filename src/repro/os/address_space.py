"""Page-granular virtual address space with a software MMU.

A :class:`Mapping` is an anonymous memory region with per-page protection
bits and a byte-accurate backing store.  :class:`AddressSpace` keeps
mappings disjoint and implements the three system interfaces GMAC's shared
address space needs (Section 4.2 of the paper):

* ``mmap`` with an optional *fixed* address — how GMAC places system memory
  at the exact virtual range ``cudaMalloc`` returned,
* ``munmap``,
* ``mprotect`` — how lazy- and rolling-update arm fault detection.

The MMU itself is the :meth:`AddressSpace.check` method: given an access,
it returns the first page-protection violation, which the process layer
converts into a SIGSEGV.  ``peek``/``poke`` bypass protections; they model
the library's own privileged access to memory it manages.
"""

import numpy as np

from repro.util.buffers import as_byte_array
from repro.util.errors import AddressError, AllocationError, ProtectionError
from repro.util.intervals import Interval, RangeMap
from repro.os.paging import PAGE_SIZE, AccessKind, Prot, page_ceil

#: AccessKind -> required protection bits, flattened to plain ints once:
#: the MMU consults this on every access check, and the enum property +
#: IntFlag conversion were measurable there.
_REQUIRED_PROT = {
    AccessKind.READ: int(Prot.READ),
    AccessKind.WRITE: int(Prot.WRITE),
}

#: Where non-fixed mmaps are placed, loosely mimicking the Linux x86-64
#: mmap area.  The device heap (DEVICE_BASE) sits far above this, which is
#: why fixed mappings at cudaMalloc addresses normally succeed.
MMAP_BASE = 0x2AAA_0000_0000

#: Upper bound of the simulated user address space (47-bit, as on x86-64).
USER_TOP = 1 << 47


class Mapping:
    """One anonymous mapping: backing bytes + per-page protections."""

    #: Transfer-ledger plane (:class:`repro.hw.memory.MappingPlane`), bound
    #: when this mapping backs a shared region on a deferred-transfer GPU;
    #: None for plain mappings and in eager mode.  The access paths below
    #: consult it duck-typed — :mod:`repro.os` never imports :mod:`repro.hw`.
    plane = None

    def __init__(self, start, size, prot):
        if start % PAGE_SIZE != 0 or size % PAGE_SIZE != 0:
            raise AddressError(
                f"mapping [{start:#x}, +{size:#x}) is not page aligned"
            )
        self.interval = Interval.sized(start, size)
        self.backing = np.zeros(size, dtype=np.uint8)
        self.page_prots = np.full(size // PAGE_SIZE, int(prot), dtype=np.uint8)

    @property
    def start(self):
        return self.interval.start

    @property
    def end(self):
        return self.interval.end

    @property
    def size(self):
        return self.interval.size

    def _page_range(self, interval):
        first = (interval.start - self.start) // PAGE_SIZE
        last = (page_ceil(interval.end) - self.start) // PAGE_SIZE
        return first, last

    def set_prot(self, interval, prot):
        first, last = self._page_range(interval)
        self.page_prots[first:last] = int(prot)

    def set_prot_span(self, address, size, prot):
        """Like :meth:`set_prot` for a page-aligned span (hot path)."""
        first = (address - self.interval.start) // PAGE_SIZE
        self.page_prots[first:first + size // PAGE_SIZE] = int(prot)

    def prot_of(self, address):
        return Prot(int(self.page_prots[(address - self.start) // PAGE_SIZE]))

    def first_violation(self, interval, kind):
        """Address of the first page lacking ``kind``'s required bit."""
        return self.first_violation_at(
            interval.start, interval.end - interval.start, kind
        )

    def first_violation_at(self, address, size, kind):
        """Like :meth:`first_violation` without an Interval (hot path)."""
        start = self.interval.start
        first = (address - start) // PAGE_SIZE
        last = (page_ceil(address + size) - start) // PAGE_SIZE
        required = _REQUIRED_PROT[kind]
        prots = self.page_prots
        # Faults overwhelmingly land on an access's first page (the retry
        # loop re-enters exactly where it stopped), so a scalar test there
        # skips building the vector mask for wide spans.
        if prots[first] & required != required:
            return max(start + first * PAGE_SIZE, address)
        violations = (prots[first:last] & required) != required
        index = int(np.argmax(violations)) if violations.any() else -1
        if index < 0:
            return None
        page_start = start + (first + index) * PAGE_SIZE
        return max(page_start, address)

    def slice(self, interval):
        """Writable numpy view of the backing bytes for ``interval``."""
        lo = interval.start - self.start
        hi = interval.end - self.start
        return self.backing[lo:hi]

    def slice_at(self, address, size):
        """Like :meth:`slice` without materializing an Interval (hot path)."""
        lo = address - self.start
        return self.backing[lo:lo + size]


class AddressSpace:
    """All mappings of one process, plus the software MMU.

    The MMU keeps a one-entry-per-:class:`~repro.os.paging.AccessKind`
    **soft TLB**: the maximal run of pages around the last successful
    access check whose protections permit that kind.  Sequential bulk
    accesses (the common workload pattern) then resolve by two integer
    compares instead of a mapping lookup plus a page-bit scan.
    ``mmap``/``munmap`` bump a generation counter that invalidates every
    cached run at once; ``mprotect`` invalidates surgically — only a change
    that revokes a kind's required bit inside that kind's cached run can
    shrink the run, so grants (the fault-handling path) keep runs alive.
    """

    def __init__(self):
        self._mappings = RangeMap()
        self._generation = 0
        self._tlb = {}
        #: Last mapping a lookup resolved — accesses are strongly local, so
        #: most lookups skip the range-map bisect.  Only mmap/munmap change
        #: the mapping *set* (mprotect does not), hence the separate
        #: generation counter.
        self._map_generation = 0
        self._last_mapping = None

    def __len__(self):
        return len(self._mappings)

    def mappings(self):
        return self._mappings.values()

    # -- mmap / munmap / mprotect -------------------------------------------

    def mmap(self, size, prot=Prot.RW, fixed_address=None):
        """Create an anonymous mapping; returns the :class:`Mapping`.

        With ``fixed_address`` the mapping must land exactly there
        (MAP_FIXED_NOREPLACE semantics): any overlap raises
        :class:`AllocationError`, which is the address-collision failure
        mode Section 4.2 discusses for multi-accelerator systems.
        """
        if size <= 0:
            raise AllocationError(f"mmap size must be positive, got {size}")
        size = page_ceil(size)
        if fixed_address is not None:
            if fixed_address % PAGE_SIZE != 0:
                raise AddressError(
                    f"fixed mmap address {fixed_address:#x} is not page aligned"
                )
            interval = Interval.sized(fixed_address, size)
            overlaps = self._mappings.overlapping(interval)
            if overlaps:
                raise AllocationError(
                    f"fixed mmap at {interval} collides with {overlaps[0][0]}"
                )
        else:
            interval = self._mappings.find_gap(
                size, MMAP_BASE, USER_TOP, alignment=PAGE_SIZE
            )
            if interval is None:
                raise AllocationError(f"address space exhausted for {size} bytes")
        mapping = Mapping(interval.start, size, prot)
        self._mappings.add(interval, mapping)
        self._generation += 1
        self._map_generation += 1
        return mapping

    def conflict_at(self, start, size):
        """The first existing mapping overlapping [start, start+size), or
        None when the range is free (used to negotiate a common virtual
        range with a virtual-memory accelerator)."""
        overlaps = self._mappings.overlapping(Interval.sized(start, size))
        return overlaps[0][0] if overlaps else None

    def munmap(self, start):
        """Remove the mapping starting at ``start``."""
        _, mapping = self._mappings.remove(start)
        self._generation += 1
        self._map_generation += 1
        self._last_mapping = None
        return mapping

    def mprotect(self, address, size, prot):
        """Change protections over ``[address, address+size)``.

        The range must be page aligned and fall inside a single mapping —
        the only pattern GMAC uses (a block never spans mappings).
        """
        if address % PAGE_SIZE != 0:
            raise ProtectionError(f"mprotect address {address:#x} not page aligned")
        size = page_ceil(size)
        mapping = self.mapping_at(address)
        if mapping is None or address + size > mapping.interval.end:
            raise ProtectionError(
                f"mprotect range {Interval.sized(address, size)} is not mapped"
            )
        mapping.set_prot_span(address, size, prot)
        # Surgical soft-TLB invalidation: granting a bit can never shrink an
        # accessible run, so only a change that *revokes* a kind's required
        # bit inside that kind's cached run drops the entry.  Fault handling
        # mprotects to grant access, so cached runs survive the per-block
        # faults that follow a kernel; revocations (block demotion and
        # invalidation) still invalidate exactly the runs they can affect.
        prot_int = int(prot)
        end = address + size
        for kind in tuple(self._tlb):
            required = _REQUIRED_PROT[kind]
            if prot_int & required == required:
                continue
            entry = self._tlb[kind]
            if address < entry[2] and end > entry[1]:
                del self._tlb[kind]

    # -- the software MMU -----------------------------------------------------

    def mapping_at(self, address):
        """The mapping containing ``address`` or None."""
        cached = self._last_mapping
        if (
            cached is not None
            and cached[0] == self._map_generation
            and cached[1].interval.start <= address < cached[1].interval.end
        ):
            return cached[1]
        found = self._mappings.find(address)
        if found is None:
            return None
        self._last_mapping = (self._map_generation, found[1])
        return found[1]

    def check(self, address, size, kind):
        """Return the first faulting address for an access, or None.

        Unmapped addresses fault at the first unmapped byte; mapped pages
        fault where protection bits are missing.
        """
        if size <= 0:
            raise ValueError(f"access size must be positive, got {size}")
        cursor = address
        end = address + size
        while cursor < end:
            mapping = self.mapping_at(cursor)
            if mapping is None:
                return cursor
            span_end = mapping.interval.end
            if span_end > end:
                span_end = end
            violation = mapping.first_violation_at(
                cursor, span_end - cursor, kind
            )
            if violation is not None:
                return violation
            cursor = span_end
        return None

    def accessible_mapping(self, address, size, kind):
        """The mapping behind a fully TLB-covered access, or None.

        A soft-TLB hit guarantees the whole range is accessible for
        ``kind`` *and* lies inside one mapping (only single-mapping runs
        are cached), so bulk access paths can commit in one slice copy
        without the prefix walk or a per-chunk closure.
        """
        entry = self._tlb.get(kind)
        if (
            entry is not None
            and entry[0] == self._generation
            and entry[1] <= address
            and address + size <= entry[2]
        ):
            return self.mapping_at(address)
        return None

    def writable_prefix(self, address, size, kind):
        """Byte count from ``address`` accessible for ``kind`` (maybe 0).

        The process access loop uses this to commit the accessible prefix
        of a large access before faulting on the rest — matching how real
        hardware retires stores up to the faulting instruction.  A soft-TLB
        hit (the access falls inside the cached accessible run for this
        kind, and no protection change happened since) skips the walk.
        """
        entry = self._tlb.get(kind)
        if (
            entry is not None
            and entry[0] == self._generation
            and entry[1] <= address
            and address + size <= entry[2]
        ):
            return size
        fault = self.check(address, size, kind)
        if fault is None:
            self._cache_accessible_run(address, size, kind)
            return size
        return fault - address

    def _cache_accessible_run(self, address, size, kind):
        """Cache the maximal ``kind``-accessible page run around an access.

        Only single-mapping accesses are cached (GMAC blocks never span
        mappings); the run extends left and right from the access until a
        page lacks the required bit or the mapping ends.
        """
        mapping = self.mapping_at(address)
        if mapping is None or address + size > mapping.end:
            return
        required = _REQUIRED_PROT[kind]
        ok = (mapping.page_prots & required) == required
        first = (address - mapping.start) // PAGE_SIZE
        last = (address + size - 1 - mapping.start) // PAGE_SIZE
        blocked_before = np.flatnonzero(~ok[:first])
        lo_page = int(blocked_before[-1]) + 1 if len(blocked_before) else 0
        blocked_after = np.flatnonzero(~ok[last + 1:])
        hi_page = (
            last + 1 + int(blocked_after[0]) if len(blocked_after) else len(ok)
        )
        self._tlb[kind] = (
            self._generation,
            mapping.start + lo_page * PAGE_SIZE,
            mapping.start + hi_page * PAGE_SIZE,
        )

    # -- privileged data access (no protection checks) ------------------------

    def _require_mapped(self, address, size):
        mapping = self.mapping_at(address)
        if mapping is None or address + size > mapping.end:
            raise AddressError(
                f"access [{address:#x}, +{size:#x}) crosses unmapped memory"
            )
        return mapping

    def resolve(self, address, size):
        """The mapping wholly containing ``[address, +size)``.

        Public counterpart of the privileged access helpers for callers —
        the driver's DMA entry points — that hand the mapping itself to
        :func:`repro.hw.memory.copy_h2d`/``copy_d2h``.  Raises
        :class:`AddressError` when the range crosses unmapped memory.
        """
        return self._require_mapped(address, size)

    def peek(self, address, size):
        """Read bytes ignoring protections (library-internal access)."""
        mapping = self._require_mapped(address, size)
        plane = mapping.plane
        if plane is not None:
            plane.host_read(address - mapping.start, size)
        return bytes(mapping.slice_at(address, size))

    def peek_view(self, address, size):
        """Borrow the backing bytes ignoring protections — zero-copy.

        The returned read-only view aliases the mapping's backing store:
        it is only valid until the mapping is unmapped, and it tracks later
        writes.  Callers that need a stable snapshot use :meth:`peek`.
        """
        mapping = self._require_mapped(address, size)
        plane = mapping.plane
        if plane is not None:
            plane.host_read(address - mapping.start, size)
        return memoryview(mapping.slice_at(address, size)).toreadonly()

    def poke(self, address, data):
        """Write a bytes-like buffer ignoring protections — zero-copy.

        Accepts any C-contiguous buffer (bytes, memoryview, numpy array);
        the payload is viewed, not copied, on its way into the backing.
        """
        data = as_byte_array(data)
        mapping = self._require_mapped(address, len(data))
        plane = mapping.plane
        if plane is not None:
            plane.host_write(address - mapping.start, len(data))
        mapping.slice_at(address, len(data))[:] = data

    def poke_fill(self, address, value, size):
        """memset ignoring protections."""
        mapping = self._require_mapped(address, size)
        plane = mapping.plane
        if plane is not None:
            plane.host_write(address - mapping.start, size)
        mapping.slice_at(address, size)[:] = value & 0xFF

    def view(self, address, dtype, count):
        """Writable numpy view (privileged; used by oracles and the library)."""
        dtype = np.dtype(dtype)
        size = dtype.itemsize * count
        mapping = self._require_mapped(address, size)
        plane = mapping.plane
        if plane is not None:
            # The view is writable and escapes: fold pending entries in
            # (read) and mark the range dirty (write), conservatively.
            lo = address - mapping.start
            plane.host_read(lo, size)
            plane.host_write(lo, size)
        return mapping.slice_at(address, size).view(dtype)
