"""Page-granular virtual address space with a software MMU.

A :class:`Mapping` is an anonymous memory region with a byte-accurate
backing store.  :class:`AddressSpace` keeps mappings disjoint and
implements the three system interfaces GMAC's shared address space needs
(Section 4.2 of the paper):

* ``mmap`` with an optional *fixed* address — how GMAC places system memory
  at the exact virtual range ``cudaMalloc`` returned,
* ``munmap``,
* ``mprotect`` — per-page protection bits of a plain mapping.

A mapping takes its protections from one of two sources.  A plain mapping
keeps per-page protection bits, which ``mprotect`` sets.  A mapping that
backs a GMAC shared region is bound to the region's block table (its
``guard``): its protections are a view of the block states under the
active protocol's access table (Section 4.3 — invalid blocks take no
access, read-only blocks take reads, dirty blocks take both), so the
state machine is their one source of truth and ``mprotect`` refuses it.

The MMU itself is the :meth:`AddressSpace.check` method: given an access,
it returns the first protection violation, which the process layer
converts into a SIGSEGV.  ``peek``/``poke`` bypass protections; they model
the library's own privileged access to memory it manages.
"""

import numpy as np

from repro.util.buffers import as_byte_array
from repro.util.errors import AddressError, AllocationError, ProtectionError
from repro.util.intervals import Interval, RangeMap
from repro.os.paging import PAGE_SIZE, AccessKind, Prot, page_ceil

#: AccessKind -> whether a page with each protection code (the
#: :class:`Prot` bits, 0-3) allows that kind; the MMU indexes it with a
#: plain mapping's page codes.
_PAGE_ACCESS = {
    kind: np.array([bool(code & kind.required_prot) for code in range(4)])
    for kind in AccessKind
}

#: Where non-fixed mmaps are placed, loosely mimicking the Linux x86-64
#: mmap area.  The device heap (DEVICE_BASE) sits far above this, which is
#: why fixed mappings at cudaMalloc addresses normally succeed.
MMAP_BASE = 0x2AAA_0000_0000

#: Upper bound of the simulated user address space (47-bit, as on x86-64).
USER_TOP = 1 << 47


class Mapping:
    """One anonymous mapping: backing bytes + its protection source."""

    #: Transfer-ledger plane (:class:`repro.hw.memory.MappingPlane`), bound
    #: when this mapping backs a shared region on a deferred-transfer GPU;
    #: None for plain mappings and in eager mode.  The access paths below
    #: consult it duck-typed — :mod:`repro.os` never imports :mod:`repro.hw`.
    plane = None

    #: Protection source of a mapping that backs a shared region: the
    #: region's block table, bound duck-typed like :attr:`plane`
    #: (``states``, one code per block; ``block_size``; ``access(kind)``, a
    #: boolean array indexed by code).  None for plain mappings, whose
    #: protections are the per-page bits in ``page_prots``.
    guard = None

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

    def set_prot_span(self, address, size, prot):
        """Set the protection bits of a page-aligned span."""
        first = (address - self.interval.start) // PAGE_SIZE
        self.page_prots[first:first + size // PAGE_SIZE] = int(prot)

    def prot_of(self, address):
        """The protection bits in force at ``address``, from either source."""
        return Prot(sum(
            kind.required_prot for kind in AccessKind
            if self.first_violation_at(address, 1, kind) is None
        ))

    def first_violation_at(self, address, size, kind):
        """First address in ``[address, +size)`` that ``kind`` may not
        access, or None.

        Both protection sources are one code per granule — a page's bits,
        or a shared region's block state — judged by a per-kind table
        indexed by code, so one check serves both kinds of mapping.
        """
        guard = self.guard
        if guard is None:
            codes, granule = self.page_prots, PAGE_SIZE
            allowed = _PAGE_ACCESS[kind]
        else:
            codes, granule = guard.states, guard.block_size
            allowed = guard.access(kind)
        start = self.interval.start
        first = (address - start) // granule
        # Faults overwhelmingly land on an access's first granule (the retry
        # loop re-enters exactly where it stopped), so a scalar test there
        # skips building the vector mask for wide spans.
        if not allowed[codes[first]]:
            return address
        last = (address + size - 1 - start) // granule
        if last == first:
            return None
        ok = allowed[codes[first + 1:last + 1]]
        if ok.all():
            return None
        return start + (first + 1 + int(np.argmin(ok))) * granule

    def slice_at(self, address, size):
        """Writable numpy view of the backing bytes of ``[address, +size)``."""
        lo = address - self.start
        return self.backing[lo:lo + size]


class AddressSpace:
    """All mappings of one process, plus the software MMU."""

    def __init__(self):
        self._mappings = RangeMap()
        #: Last mapping a lookup resolved — accesses are strongly local, so
        #: most lookups skip the range-map bisect.  Adding a mapping cannot
        #: invalidate it; removing one clears it.
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
        self._last_mapping = None
        return mapping

    def mprotect(self, address, size, prot):
        """Change a plain mapping's protections over ``[address, +size)``.

        The range must be page aligned and fall inside a single mapping.
        A mapping bound to a shared region's block table takes its
        protections from the block states, so it refuses ``mprotect``.
        """
        if address % PAGE_SIZE != 0:
            raise ProtectionError(f"mprotect address {address:#x} not page aligned")
        size = page_ceil(size)
        mapping = self.mapping_at(address)
        if mapping is None or address + size > mapping.interval.end:
            raise ProtectionError(
                f"mprotect range {Interval.sized(address, size)} is not mapped"
            )
        if mapping.guard is not None:
            raise ProtectionError(
                f"mprotect of {Interval.sized(address, size)}: a shared "
                "region's block states own its protections"
            )
        mapping.set_prot_span(address, size, prot)

    # -- the software MMU -----------------------------------------------------

    def mapping_at(self, address):
        """The mapping containing ``address`` or None."""
        cached = self._last_mapping
        if (
            cached is not None
            and cached.interval.start <= address < cached.interval.end
        ):
            return cached
        found = self._mappings.find(address)
        if found is None:
            return None
        self._last_mapping = found[1]
        return found[1]

    def check(self, address, size, kind):
        """Return the first faulting address for an access, or None.

        Unmapped addresses fault at the first unmapped byte; mapped memory
        faults where its protections deny ``kind``.
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
        """The one mapping holding ``[address, +size)`` when ``kind`` may
        access all of it, else None.

        Bulk access paths then commit in one slice copy without the prefix
        walk or a per-chunk closure.
        """
        mapping = self.mapping_at(address)
        if (
            mapping is not None
            and address + size <= mapping.interval.end
            and mapping.first_violation_at(address, size, kind) is None
        ):
            return mapping
        return None

    def writable_prefix(self, address, size, kind):
        """Byte count from ``address`` accessible for ``kind`` (maybe 0).

        The process access loop uses this to commit the accessible prefix
        of a large access before faulting on the rest — matching how real
        hardware retires stores up to the faulting instruction.
        """
        fault = self.check(address, size, kind)
        return size if fault is None else fault - address

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
