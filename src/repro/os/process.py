"""Processes: the CPU-side access path every load and store goes through.

On real hardware a store to a protected page traps, the handler repairs the
page, and the store retries.  :meth:`Process.write`/:meth:`Process.read`
model that loop for bulk accesses: the accessible prefix commits, the first
violation raises a SIGSEGV through the dispatcher, and the access resumes
where it faulted.  Committing the prefix (rather than re-checking the whole
range) is essential: rolling-update may demote an *earlier* block to
read-only while handling a fault on a *later* one, and sequential CPU code
must not re-trip on the demoted block.

A fault the handler fails to repair (the page is still inaccessible on
retry) is a crash, raised as :class:`SegmentationFault`.
"""

import numpy as np

from repro.util.buffers import as_byte_view
from repro.util.errors import AddressError, SegmentationFault
from repro.os.paging import AccessKind
from repro.os.address_space import AddressSpace
from repro.os.signals import SegvInfo, SignalDispatcher


class Process:
    """One simulated process: address space + signal handling + heap."""

    def __init__(self, machine):
        self.machine = machine
        self.address_space = AddressSpace()
        self.signals = SignalDispatcher(
            machine.clock, accounting=machine.accounting
        )

    # -- heap ------------------------------------------------------------------

    def malloc(self, size):
        """Allocate ordinary (non-shared) memory; returns a :class:`Ptr`."""
        mapping = self.address_space.mmap(max(size, 1))
        return Ptr(self, mapping.start)

    # -- the fault/retry access loop --------------------------------------------

    def _advance_through(self, address, size, kind, commit=None):
        """Walk an access range, committing prefixes and faulting as needed.

        ``commit(offset, length)`` is invoked for each accessible chunk, in
        order.  Returns only when the whole range has been covered.
        """
        # Bound methods hoisted out of the loop: this runs once per chunk of
        # every simulated load/store, and the prefix check (a cached mapping
        # lookup plus a state-code test) is cheap enough for the lookups to
        # show.
        writable_prefix = self.address_space.writable_prefix
        deliver = self.signals.deliver
        offset = 0
        while offset < size:
            cursor = address + offset
            remaining = size - offset
            accessible = writable_prefix(cursor, remaining, kind)
            if accessible > 0:
                if commit is not None:
                    commit(offset, accessible)
                offset += accessible
                continue
            fault_address = cursor
            deliver(SegvInfo(fault_address, kind))
            # The handler must have repaired the faulting page; a second
            # fault at the same byte means it did not.
            if writable_prefix(cursor, remaining, kind) == 0:
                raise SegmentationFault(
                    fault_address,
                    kind,
                    message=f"unrepaired {kind} fault at {fault_address:#x}",
                )

    def touch(self, address, size, kind):
        """Fault in a range without moving data (pre-faulting)."""
        self._advance_through(address, size, kind)

    def read(self, address, size):
        """Protection-checked bulk read; returns bytes (one copy, at join)."""
        chunks = []

        def commit(offset, length):
            chunks.append(
                self.address_space.peek_view(address + offset, length)
            )

        self._advance_through(address, size, AccessKind.READ, commit)
        if len(chunks) == 1:
            return bytes(chunks[0])  # sanitizer: allow[R002]
        return b"".join(chunks)

    def read_view(self, address, size):
        """Protection-checked zero-copy read; returns a read-only view.

        The fast path borrows the mapping's backing store directly (no
        copy); an access spanning mappings falls back to a copying read.
        Like :meth:`~repro.os.address_space.AddressSpace.peek_view`, the
        borrowed view tracks later writes to the range.
        """
        self.touch(address, size, AccessKind.READ)
        try:
            return self.address_space.peek_view(address, size)
        except AddressError:
            return memoryview(self.read(address, size))

    def read_into(self, address, out):
        """Protection-checked read into a caller-provided writable buffer.

        Fills ``out`` (any C-contiguous writable buffer) without any
        intermediate allocation; returns the byte count read.
        """
        out = np.frombuffer(out, dtype=np.uint8)
        space = self.address_space
        size = len(out)
        # The whole range is readable inside one mapping: one slice copy
        # replaces the prefix walk and per-chunk closures.
        mapping = space.accessible_mapping(address, size, AccessKind.READ)
        if mapping is not None:
            lo = address - mapping.interval.start
            plane = mapping.plane
            if plane is not None:
                plane.host_read(lo, size)
            out[:size] = mapping.backing[lo:lo + size]
            return size

        def commit(offset, length):
            out[offset:offset + length] = np.frombuffer(
                space.peek_view(address + offset, length), dtype=np.uint8
            )

        self._advance_through(address, size, AccessKind.READ, commit)
        return size

    def write(self, address, data):
        """Protection-checked bulk write, committing progressively.

        ``data`` may be any C-contiguous buffer (bytes, memoryview, numpy
        array); it is viewed, never copied, on its way to the backing.
        """
        view = as_byte_view(data)
        size = len(view)
        space = self.address_space
        mapping = space.accessible_mapping(address, size, AccessKind.WRITE)
        if mapping is not None and size:
            lo = address - mapping.interval.start
            plane = mapping.plane
            if plane is not None:
                plane.host_write(lo, size)
            mapping.backing[lo:lo + size] = np.frombuffer(view, dtype=np.uint8)
            return

        def commit(offset, length):
            space.poke(address + offset, view[offset:offset + length])

        self._advance_through(address, size, AccessKind.WRITE, commit)

    def fill(self, address, value, size):
        """Protection-checked memset."""

        def commit(offset, length):
            self.address_space.poke_fill(address + offset, value, length)

        self._advance_through(address, size, AccessKind.WRITE, commit)

    # -- typed helpers -----------------------------------------------------------

    def read_array(self, address, dtype, count):
        """Protection-checked read returning a numpy array (one copy)."""
        dtype = np.dtype(dtype)
        out = np.empty(count, dtype=dtype)
        if count:
            self.read_into(address, out.view(np.uint8))
        return out

    def write_array(self, address, array):
        """Protection-checked write of a numpy array's bytes (no copy)."""
        array = np.ascontiguousarray(array)
        if array.nbytes:
            self.write(address, array.reshape(-1).view(np.uint8))


class Ptr:
    """A typed-pointer convenience over a process address.

    Workloads manipulate simulated memory exclusively through these, so all
    of their accesses flow through the protection-checked path and drive
    GMAC's fault-based protocols.
    """

    __slots__ = ("process", "addr")

    def __init__(self, process, addr):
        self.process = process
        self.addr = addr

    def __int__(self):
        return self.addr

    def __add__(self, offset):
        return type(self)(self.process, self.addr + offset)

    def __repr__(self):
        return f"{type(self).__name__}({self.addr:#x})"

    def read_bytes(self, size, offset=0):
        return self.process.read(self.addr + offset, size)

    def read_into(self, out, offset=0):
        """Read into a caller buffer; see :meth:`Process.read_into`."""
        return self.process.read_into(self.addr + offset, out)

    def write_bytes(self, data, offset=0):
        self.process.write(self.addr + offset, data)

    def read_array(self, dtype, count, offset=0):
        return self.process.read_array(self.addr + offset, dtype, count)

    def write_array(self, array, offset=0):
        self.process.write_array(self.addr + offset, array)
