"""Byte-accurate device memory with a real allocator, plus the transfer ledger.

The accelerator's on-board memory is a flat physical address space starting
at :data:`DEVICE_BASE`.  ``cudaMalloc`` allocates out of it with a
first-fit, coalescing free-list allocator (the classic design); each
allocation is backed lazily by its own zeroed numpy buffer, so a 1GB device
costs host RAM only for the bytes actually allocated.  Kernels obtain numpy
views directly into the backing buffers, so kernel numerics are exact while
allocation behaviour (address reuse, fragmentation, collisions with host
addresses in multi-GPU setups) stays realistic.

This module is also the home of the **transfer ledger** (DESIGN.md §14):
the only two host<->device byte-copy entry points in the repository are
:func:`copy_h2d` and :func:`copy_d2h` (lint rule R006 enforces this).  In
the default lazy mode a device->host transfer records an extent entry
against the destination mapping instead of copying — the virtual ``Link``
cost is charged by the caller exactly as before — and the bytes
materialize only when the host range is actually observed.  An entry names
the owning Gpu's launch count at record time, its *version*: it stands for
the source bytes after every launch queued before it, so recording
replays no deferred kernel (DESIGN.md §9).  Host->device transfers stay
eager (the device side has no fault hook) but copy only the *delta*:
host-dirty runs plus runs not known to already match the device.  Sources
of outstanding entries are protected by copy-on-write, so the ledger
changes *when* bytes move, never *what* bytes are observed.
"""

import bisect
import itertools

import numpy as np

from repro.util.buffers import as_byte_array
from repro.util.errors import AddressError, AllocationError
from repro.util.intervals import Interval

#: Device allocations start here.  On the paper's single-GPU testbed the
#: range returned by cudaMalloc happens to be free in the host address space
#: (outside the ELF sections), which is what makes the mmap-at-same-address
#: trick work; we model that by placing the device heap high.
DEVICE_BASE = 0x7F00_0000_0000

#: Module-wide transfer-ledger counters (reported in BENCH_hotpath.json).
#: ``transfers_elided`` counts recorded transfers whose entry died whole
#: without ever being read; ``bytes_deferred`` counts bytes recorded instead
#: of copied at D2H time; ``bytes_materialized`` counts entry bytes that did
#: end up copied to the host; ``cow_snapshots`` counts entries snapshotted
#: because a device write overlapped their source; ``flush_bytes_copied`` /
#: ``flush_bytes_skipped`` split every deferred-mode H2D flush into the
#: delta that moved and the synced remainder that provably matched.
_LEDGER_COUNTERS = {
    "transfers_elided": 0,
    "bytes_deferred": 0,
    "bytes_materialized": 0,
    "cow_snapshots": 0,
    "flush_bytes_copied": 0,
    "flush_bytes_skipped": 0,
}

def reset_ledger_counters():
    for key in _LEDGER_COUNTERS:
        _LEDGER_COUNTERS[key] = 0


def ledger_counters():
    """A snapshot of the ledger counters plus the derived elision ratio.

    ``elided_fraction`` is the share of bytes *offered* to the data plane
    (deferred D2H records + every byte a deferred flush considered) that
    never physically moved: ``1 - moved/offered`` where ``moved`` is
    materialized entry bytes plus flush delta bytes.
    """
    counters = dict(_LEDGER_COUNTERS)
    moved = counters["bytes_materialized"] + counters["flush_bytes_copied"]
    offered = (
        counters["bytes_deferred"]
        + counters["flush_bytes_copied"]
        + counters["flush_bytes_skipped"]
    )
    counters["elided_fraction"] = (
        max(0.0, 1.0 - moved / offered) if offered else 0.0
    )
    return counters


class RunSet:
    """Sorted, disjoint, half-open ``[lo, hi)`` integer runs.

    The ledger's bookkeeping primitive: host-dirty runs and
    synced-with-device runs are both RunSets over mapping offsets.  Stored
    as a flat sorted edge list (``[lo0, hi0, lo1, hi1, ...]``) where index
    parity distinguishes starts from ends, so every operation is a bisect
    plus one splice.  ``add`` coalesces touching runs.
    """

    __slots__ = ("_edges",)

    def __init__(self):
        self._edges = []

    def add(self, lo, hi):
        if hi <= lo:
            return
        edges = self._edges
        left = bisect.bisect_left(edges, lo)
        right = bisect.bisect_right(edges, hi)
        insert = []
        if left % 2 == 0:
            insert.append(lo)
        if right % 2 == 0:
            insert.append(hi)
        edges[left:right] = insert

    def discard(self, lo, hi):
        if hi <= lo:
            return
        edges = self._edges
        left = bisect.bisect_left(edges, lo)
        right = bisect.bisect_right(edges, hi)
        insert = []
        if left % 2 == 1:
            insert.append(lo)
        if right % 2 == 1:
            insert.append(hi)
        edges[left:right] = insert

    def runs_in(self, lo, hi):
        """Runs clipped to ``[lo, hi)`` as ``(run_lo, run_hi)`` pairs."""
        edges = self._edges
        out = []
        index = bisect.bisect_right(edges, lo)
        if index % 2 == 1:
            index -= 1
        while index < len(edges) and edges[index] < hi:
            run_lo = edges[index] if edges[index] > lo else lo
            run_hi = edges[index + 1] if edges[index + 1] < hi else hi
            if run_hi > run_lo:
                out.append((run_lo, run_hi))
            index += 2
        return out

    def clear(self):
        self._edges.clear()

    def __bool__(self):
        return bool(self._edges)

    def __iter__(self):
        edges = self._edges
        return iter(zip(edges[0::2], edges[1::2]))

    def total(self):
        return sum(hi - lo for lo, hi in self)


def _delta_runs(lo, hi, synced, dirty):
    """Runs inside ``[lo, hi)`` a deferred flush must write:
    ``(not synced) | dirty``."""
    need = RunSet()
    need.add(lo, hi)
    for run_lo, run_hi in synced.runs_in(lo, hi):
        need.discard(run_lo, run_hi)
    for run_lo, run_hi in dirty.runs_in(lo, hi):
        need.add(run_lo, run_hi)
    return need.runs_in(lo, hi)


class _LedgerEntry:
    """One recorded — not yet copied — device->host transfer extent.

    ``buffer``/``buf_offset`` name the source bytes: initially a direct
    reference into the device allocation's backing array (zero-copy), or a
    private snapshot after a copy-on-write.  Holding the numpy array object
    itself (never the owning DeviceMemory) makes entries immune to frees,
    device resets and migrations: the array stays alive for exactly as
    long as some entry still needs it.  ``deps`` points back at the source
    allocation's dependent list so entries created by a split can register
    themselves for COW; a snapshot clears it.  ``version`` is ``gpu``'s
    launch count at record time: the entry holds the source bytes after
    every launch queued before it, and the host may read a zero-copy entry
    only once ``gpu`` has replayed that far (``gpu`` is None for a memory
    no Gpu owns).
    """

    __slots__ = (
        "host_lo", "host_hi", "buffer", "buf_offset", "version", "dead",
        "deps", "gpu",
    )

    def __init__(self, host_lo, host_hi, buffer, buf_offset, version, deps,
                 gpu):
        self.host_lo = host_lo
        self.host_hi = host_hi
        self.buffer = buffer
        self.buf_offset = buf_offset
        self.version = version
        self.dead = False
        self.deps = deps
        self.gpu = gpu


def _replay_for(entry):
    """The host is about to read ``entry``'s bytes: the launches it names
    replay first (a snapshot already holds its bytes)."""
    if entry.gpu is not None and entry.deps is not None:
        entry.gpu.replay_to(entry.version)


class MappingPlane:
    """Transfer-ledger state for one host mapping bound to a device range.

    Attached to :class:`~repro.os.address_space.Mapping` objects as
    ``mapping.plane`` by :func:`ledger_bind`; the host-side access layers
    call :meth:`host_read` / :meth:`host_write` duck-typed, so :mod:`repro.os`
    never imports :mod:`repro.hw`.
    """

    __slots__ = ("mapping", "entries", "dirty", "synced", "synced_token")

    def __init__(self, mapping):
        self.mapping = mapping
        #: Live entries, sorted by ``host_lo``, pairwise disjoint.
        self.entries = []
        #: Host-written runs not yet flushed to the device.
        self.dirty = RunSet()
        #: Runs whose device bytes equal the host's *logical* bytes
        #: (backing overlaid with entries) — a flush may skip them.
        self.synced = RunSet()
        #: ``synced`` is only meaningful against one device-memory
        #: incarnation; a ``Gpu.reset`` mints a new token and implicitly
        #: empties it (without retaining the dead DeviceMemory object).
        self.synced_token = None

    def sync_runs(self, token):
        """The synced RunSet, validated against incarnation ``token``."""
        if self.synced_token != token:
            self.synced.clear()
            self.synced_token = token
        return self.synced

    # -- host-side observation hooks ----------------------------------------

    def host_read(self, lo, size):
        """The host is about to observe ``[lo, lo+size)``: materialize any
        overlapping entries (whole — entries are block-sized and splitting
        on read would only re-copy the remainder later), replaying the
        launches an entry names first when its Gpu has not yet."""
        entries = self.entries
        if not entries:
            return
        hi = lo + size
        keep = []
        backing = self.mapping.backing
        for entry in entries:
            if entry.host_hi <= lo or entry.host_lo >= hi:
                keep.append(entry)
                continue
            _replay_for(entry)
            length = entry.host_hi - entry.host_lo
            backing[entry.host_lo:entry.host_hi] = entry.buffer[
                entry.buf_offset:entry.buf_offset + length
            ]
            _LEDGER_COUNTERS["bytes_materialized"] += length
            entry.dead = True
        if len(keep) != len(entries):
            self.entries = keep

    def host_write(self, lo, size):
        """The host is about to overwrite ``[lo, lo+size)``: overlapping
        entry portions die unread (their bytes were never needed) and the
        range joins the dirty set for the next delta flush."""
        hi = lo + size
        if self.entries:
            self._kill_range(lo, hi)
        self.dirty.add(lo, hi)

    # -- internals ----------------------------------------------------------

    def _overlapping(self, lo, hi):
        return [
            entry for entry in self.entries
            if entry.host_lo < hi and entry.host_hi > lo
        ]

    def _kill_range(self, lo, hi):
        """Destroy entry coverage of ``[lo, hi)`` without copying a byte.

        Partial overlaps split: the surviving head/tail keeps the source
        reference (adjusted offset) and version, and re-registers with the
        source allocation's dependent list so later device writes still
        COW it.
        """
        entries = self.entries
        keep = []
        changed = False
        for entry in entries:
            e_lo = entry.host_lo
            e_hi = entry.host_hi
            if e_hi <= lo or e_lo >= hi:
                keep.append(entry)
                continue
            changed = True
            if lo <= e_lo and e_hi <= hi:
                entry.dead = True
                _LEDGER_COUNTERS["transfers_elided"] += 1
                continue
            if e_lo < lo and e_hi > hi:
                tail = _LedgerEntry(
                    hi, e_hi, entry.buffer,
                    entry.buf_offset + (hi - e_lo), entry.version, entry.deps,
                    entry.gpu,
                )
                if entry.deps is not None:
                    entry.deps.append(tail)
                entry.host_hi = lo
                keep.append(entry)
                keep.append(tail)
            elif e_lo < lo:
                entry.host_hi = lo
                keep.append(entry)
            else:
                entry.buf_offset += hi - e_lo
                entry.host_lo = hi
                keep.append(entry)
        if changed:
            self.entries = keep


class DevicePlane:
    """Transfer-ledger state for one device allocation."""

    __slots__ = ("dependents", "bindings")

    def __init__(self):
        #: Entries whose source bytes live in this allocation's buffer;
        #: a write into their range snapshots them (copy-on-write).
        self.dependents = []
        #: ``(alloc_lo, alloc_hi, MappingPlane, delta)`` — host mappings
        #: whose ``synced`` runs shadow this allocation; ``delta`` converts
        #: an allocation offset into a mapping offset.  A device write
        #: un-syncs the overlap so the next flush re-copies it.
        self.bindings = []


def _segments(lo, hi, entries):
    """Partition ``[lo, hi)`` into ``(seg_lo, seg_hi, entry-or-None)``
    pieces against a sorted, disjoint entry list."""
    out = []
    cursor = lo
    for entry in entries:
        if entry.host_hi <= lo:
            continue
        if entry.host_lo >= hi:
            break
        e_lo = entry.host_lo if entry.host_lo > cursor else cursor
        if e_lo > cursor:
            out.append((cursor, e_lo, None))
        e_hi = entry.host_hi if entry.host_hi < hi else hi
        if e_hi > e_lo:
            out.append((e_lo, e_hi, entry))
        if e_hi > cursor:
            cursor = e_hi
    if cursor < hi:
        out.append((cursor, hi, None))
    return out


class _Allocation:
    __slots__ = ("interval", "buffer", "plane", "writer")

    def __init__(self, interval):
        self.interval = interval
        self.buffer = np.zeros(interval.size, dtype=np.uint8)
        self.plane = None
        #: Version of the last launch queued to write this allocation
        #: (``Kernel.writes``; a kernel without it writes every
        #: allocation); set by the owning Gpu.
        self.writer = 0


class DeviceMemory:
    """A device physical memory: free-list allocator + per-allocation bytes."""

    #: cudaMalloc-style allocations are page aligned, which is what lets
    #: GMAC mmap host memory at the exact device address (Section 4.2).
    DEFAULT_ALIGNMENT = 4096

    #: Observation hook: called (no arguments) before any byte-level access
    #: — ``read``/``write``/``fill``/``view``/``expose`` — before ``free``
    #: drops an allocation's buffer, and before a delta flush writes its
    #: first byte.  The owning :class:`~repro.hw.gpu.Gpu` installs its
    #: numerics-materialization barrier here, so every path that reads or
    #: writes device bytes (eager copies, peer DMA, kernel views, direct
    #: test access) flushes deferred kernels first.  A ledger record reads
    #: no byte: it names a launch version instead, and the host replays up
    #: to it when it reads the entry.  Allocator metadata operations
    #: (``alloc``/``alloc_at``) observe no bytes and do not fire the hook.
    on_observe = None

    #: The owning :class:`~repro.hw.gpu.Gpu`, or None: the source of the
    #: launch versions ledger records name and of the queued writers a
    #: flush and a copy-on-write consult.
    gpu = None

    #: Incarnation tokens: a fresh DeviceMemory (initial attach or a
    #: ``Gpu.reset``) gets a new one, which is how mapping planes learn
    #: their ``synced`` knowledge went stale without holding a reference
    #: to the dead memory.
    _tokens = itertools.count(1)

    def __init__(self, capacity, base=DEVICE_BASE, alignment=DEFAULT_ALIGNMENT):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if alignment <= 0 or (alignment & (alignment - 1)) != 0:
            raise ValueError(f"alignment must be a power of two, got {alignment}")
        self.capacity = capacity
        self.base = base
        self.alignment = alignment
        self.token = next(DeviceMemory._tokens)
        # Free list of address-ordered, disjoint, coalesced intervals.
        self._free = [Interval.sized(base, capacity)]
        self._alloc_starts = []   # sorted allocation start addresses
        self._allocations = {}    # start address -> _Allocation
        self.bytes_in_use = 0

    # -- allocation ---------------------------------------------------------

    def alloc(self, size):
        """First-fit allocation; returns the device address."""
        if size <= 0:
            raise AllocationError(f"allocation size must be positive, got {size}")
        padded = -(-size // self.alignment) * self.alignment
        for index, hole in enumerate(self._free):
            if hole.size >= padded:
                allocated = Interval.sized(hole.start, padded)
                remainder = Interval(allocated.end, hole.end)
                if remainder:
                    self._free[index] = remainder
                else:
                    self._free.pop(index)
                self._allocations[allocated.start] = _Allocation(allocated)
                bisect.insort(self._alloc_starts, allocated.start)
                self.bytes_in_use += padded
                return allocated.start
        raise AllocationError(
            f"device memory exhausted: {size} bytes requested, "
            f"{self.bytes_free} free (fragmented into {len(self._free)} holes)"
        )

    def alloc_at(self, address, size):
        """Allocate at an exact address (virtual-memory accelerators only).

        Section 4.2's collision-free path: with virtual memory on the
        accelerator, adsmAlloc picks one virtual range free on *both*
        processors and maps it on each.  Raises AllocationError when the
        range is not wholly inside a free hole.
        """
        if size <= 0:
            raise AllocationError(f"allocation size must be positive, got {size}")
        padded = -(-size // self.alignment) * self.alignment
        if address % self.alignment != 0:
            raise AllocationError(
                f"device address {address:#x} not {self.alignment}-aligned"
            )
        wanted = Interval.sized(address, padded)
        for index, hole in enumerate(self._free):
            if hole.contains_interval(wanted):
                before = Interval(hole.start, wanted.start)
                after = Interval(wanted.end, hole.end)
                replacement = [piece for piece in (before, after) if piece]
                self._free[index:index + 1] = replacement
                self._allocations[wanted.start] = _Allocation(wanted)
                bisect.insort(self._alloc_starts, wanted.start)
                self.bytes_in_use += padded
                return wanted.start
        raise AllocationError(
            f"device range [{address:#x}, +{padded:#x}) is not free"
        )

    def free_holes(self):
        """The current free intervals (used to search for common ranges)."""
        return list(self._free)

    def free(self, address):
        """Release an allocation, coalescing with free neighbours.

        Outstanding ledger entries sourced here keep the backing *array*
        alive through their own references; only the allocator record is
        dropped.
        """
        if self.on_observe is not None:
            # A deferred kernel may still have to write this allocation;
            # its bytes become unobservable once the buffer is dropped.
            self.on_observe()
        allocation = self._allocations.pop(address, None)
        if allocation is None:
            raise AllocationError(f"free of unallocated device address {address:#x}")
        self._alloc_starts.remove(address)
        self.bytes_in_use -= allocation.interval.size
        self._insert_free(allocation.interval)

    def _insert_free(self, interval):
        lo = bisect.bisect_left([hole.start for hole in self._free], interval.start)
        self._free.insert(lo, interval)
        # Coalesce with the next hole, then the previous one.
        if lo + 1 < len(self._free) and self._free[lo].end == self._free[lo + 1].start:
            merged = Interval(self._free[lo].start, self._free[lo + 1].end)
            self._free[lo:lo + 2] = [merged]
        if lo > 0 and self._free[lo - 1].end == self._free[lo].start:
            merged = Interval(self._free[lo - 1].start, self._free[lo].end)
            self._free[lo - 1:lo + 1] = [merged]

    @property
    def bytes_free(self):
        return sum(hole.size for hole in self._free)

    def _find(self, address):
        index = bisect.bisect_right(self._alloc_starts, address)
        if index == 0:
            return None
        allocation = self._allocations[self._alloc_starts[index - 1]]
        if allocation.interval.contains(address):
            return allocation
        return None

    def check_invariants(self):
        """Free list is sorted, disjoint, coalesced and complements allocs."""
        previous = None
        for hole in self._free:
            if previous is not None:
                if hole.start < previous.end:
                    raise AssertionError("free list overlaps")
                if hole.start == previous.end:
                    raise AssertionError("free list not coalesced")
            previous = hole
        total = self.bytes_free + sum(
            allocation.interval.size for allocation in self._allocations.values()
        )
        if total != self.capacity:
            raise AssertionError(
                f"allocator leaked: free+used={total}, capacity={self.capacity}"
            )

    # -- data access --------------------------------------------------------

    def _locate(self, address, size):
        allocation = self._find(address)
        if allocation is None or address + size > allocation.interval.end:
            raise AddressError(
                f"device access [{address:#x}, +{size:#x}) outside any allocation"
            )
        return allocation, address - allocation.interval.start

    def expose(self, address, size):
        """Fire the observation barrier, then locate ``address``.

        The eager-transfer paths of the ledger entry points go through
        this, since they copy bytes at once.  A deferred record does not:
        it names the launch version instead, and its bytes replay when the
        host reads them.  The sanitizer's ``Gpu.observe_hook`` fires for
        both, so the race detector sees the same device observations in
        both transfer modes.
        """
        if self.on_observe is not None:
            self.on_observe()
        return self._locate(address, size)

    def _device_write(self, allocation, offset, size):
        """Pre-write hook for every device byte mutation.

        Copy-on-write: outstanding ledger entries sourced from the written
        range snapshot their bytes first.  During a replay only entries
        recorded before the replaying launch do; a later record names the
        bytes that launch produces (the Gpu splits a batched run at every
        version a live entry names, so none falls inside it).  Bound host
        mappings un-sync the overlap, so the next delta flush re-copies it.
        """
        plane = allocation.plane
        if plane is None:
            return
        end = offset + size
        deps = plane.dependents
        if deps:
            buffer = allocation.buffer
            running = self.gpu.running if self.gpu is not None else None
            keep = []
            for entry in deps:
                if entry.dead or entry.buffer is not buffer:
                    continue
                e_lo = entry.buf_offset
                e_hi = e_lo + (entry.host_hi - entry.host_lo)
                if (e_lo < end and e_hi > offset
                        and (running is None or entry.version < running)):
                    entry.buffer = buffer[e_lo:e_hi].copy()
                    entry.buf_offset = 0
                    entry.deps = None
                    _LEDGER_COUNTERS["cow_snapshots"] += 1
                    continue
                keep.append(entry)
            if len(keep) != len(deps):
                deps[:] = keep
        for bind_lo, bind_hi, mplane, delta in plane.bindings:
            if bind_lo < end and bind_hi > offset:
                run_lo = bind_lo if bind_lo > offset else offset
                run_hi = bind_hi if bind_hi < end else end
                mplane.sync_runs(self.token).discard(
                    run_lo + delta, run_hi + delta
                )

    def read(self, address, size):
        """Copy ``size`` bytes out of device memory."""
        if self.on_observe is not None:
            self.on_observe()
        allocation, offset = self._locate(address, size)
        return bytes(allocation.buffer[offset:offset + size])  # sanitizer: allow[R002]

    def write(self, address, data):
        """Copy a bytes-like buffer into device memory (source not copied)."""
        if self.on_observe is not None:
            self.on_observe()
        data = as_byte_array(data)
        allocation, offset = self._locate(address, len(data))
        self._device_write(allocation, offset, len(data))
        allocation.buffer[offset:offset + len(data)] = data

    def fill(self, address, value, size):
        """memset-style fill."""
        if self.on_observe is not None:
            self.on_observe()
        allocation, offset = self._locate(address, size)
        self._device_write(allocation, offset, size)
        allocation.buffer[offset:offset + size] = value & 0xFF

    def view(self, address, dtype, count, writable=True):
        """A numpy view into device memory (what kernels use).

        A writable view escapes, so it counts as a write of its whole
        range up front (:meth:`_device_write`).  ``writable=False`` hands
        out a read-only view instead, which leaves outstanding ledger
        entries unsnapshotted and bound mappings synced: nothing can
        change the bytes through it.
        """
        if self.on_observe is not None:
            self.on_observe()
        dtype = np.dtype(dtype)
        size = dtype.itemsize * count
        allocation, offset = self._locate(address, size)
        view = allocation.buffer[offset:offset + size].view(dtype)
        if writable:
            self._device_write(allocation, offset, size)
        else:
            view.flags.writeable = False
        return view

    # -- launch versions ----------------------------------------------------

    @staticmethod
    def entry_versions(allocations):
        """Versions named by live zero-copy entries sourced from
        ``allocations``: a batched replay writing them must end at each."""
        versions = set()
        for allocation in allocations:
            plane = allocation.plane
            if plane is None:
                continue
            buffer = allocation.buffer
            versions.update(
                entry.version for entry in plane.dependents
                if not entry.dead and entry.buffer is buffer
            )
        return versions

    def resync(self, allocations):
        """After a replay wrote ``allocations``: a live zero-copy entry
        still sourced there holds the allocation's current bytes (an older
        one was snapshotted), so its host range matches the device again
        where it is bound to that very range."""
        for allocation in allocations:
            plane = allocation.plane
            if plane is None or not plane.dependents:
                continue
            buffer = allocation.buffer
            for _, _, mplane, delta in plane.bindings:
                synced = mplane.sync_runs(self.token)
                for entry in mplane.entries:
                    if (entry.buffer is buffer
                            and entry.buf_offset - entry.host_lo == -delta):
                        synced.add(entry.host_lo, entry.host_hi)

    def recorded_version(self, address, size):
        """The version a fetch of ``[address, +size)`` that recorded a
        ledger entry named, sampled just after it: that record is the
        newest entry sourced from the allocation.  None when the fetch
        recorded nothing there."""
        allocation = self._find(address)
        plane = allocation.plane if allocation is not None else None
        if plane is None or not plane.dependents:
            return None
        entry = plane.dependents[-1]
        if (entry.dead or entry.buffer is not allocation.buffer
                or entry.buf_offset != address - allocation.interval.start
                or entry.host_hi - entry.host_lo != size):
            return None
        return entry.version


# -- transfer ledger entry points -------------------------------------------


def _ensure_binding(allocation, dplane, mplane, delta):
    """Register (idempotently) that ``mplane`` shadows this allocation.

    The binding spans the whole consistent overlap, so one record per
    (mapping, delta) pair covers every block of a region; rebinding is
    self-healing — a flush or record after a migration/recovery simply
    re-registers against the fresh allocation.
    """
    for binding in dplane.bindings:
        if binding[2] is mplane and binding[3] == delta:
            return
    alloc_size = allocation.interval.size
    lo = -delta if delta < 0 else 0
    hi = min(alloc_size, mplane.mapping.size - delta)
    if hi > lo:
        dplane.bindings.append((lo, hi, mplane, delta))


def _plane_for(mapping):
    plane = mapping.plane
    if plane is None:
        plane = mapping.plane = MappingPlane(mapping)
    return plane


def _device_plane(allocation):
    dplane = allocation.plane
    if dplane is None:
        dplane = allocation.plane = DevicePlane()
    return dplane


def _insert_entry(plane, entry):
    entries = plane.entries
    index = len(entries)
    while index and entries[index - 1].host_lo > entry.host_lo:
        index -= 1
    entries.insert(index, entry)


def ledger_bind(memory, device_start, mapping, host_start, size, synced=False):
    """Associate ``[device_start, +size)`` with ``[host_start, +size)``.

    Called when a shared region is created (and, self-healingly, by every
    deferred record/flush).  ``synced=True`` asserts both sides currently
    hold identical bytes — true at allocation, where the device buffer and
    the fresh mmap are both zeros, which is what makes the *first* flush
    of an untouched block free.
    """
    allocation, dev_off = memory._locate(device_start, size)
    plane = _plane_for(mapping)
    host_lo = host_start - mapping.start
    _ensure_binding(allocation, _device_plane(allocation), plane,
                    host_lo - dev_off)
    if synced:
        plane.sync_runs(memory.token).add(host_lo, host_lo + size)


def ledger_unbind(memory, device_start, mapping):
    """Drop the device-side binding for ``mapping`` (region free)."""
    plane = mapping.plane
    if plane is None:
        return
    try:
        allocation, _ = memory._locate(device_start, 1)
    except AddressError:
        # Device side already gone (reset mid-free); nothing to unhook.
        return
    dplane = allocation.plane
    if dplane is not None and dplane.bindings:
        dplane.bindings = [
            binding for binding in dplane.bindings if binding[2] is not plane
        ]


def ledger_release(mapping):
    """Drop all ledger state for ``mapping`` (before munmap).

    Outstanding entries die unread — a freed region's host bytes are
    unobservable, so their transfers were fully elided.
    """
    plane = mapping.plane
    if plane is None:
        return
    for entry in plane.entries:
        entry.dead = True
        _LEDGER_COUNTERS["transfers_elided"] += 1
    mapping.plane = None


def copy_d2h(memory, device, mapping, host, size, deferred=False):
    """Device->host copy entry point (one of the only two; lint rule R006).

    Returns the number of bytes physically copied now — 0 for a recorded
    (deferred) transfer.  Callers charge the virtual link cost for the
    full ``size`` either way: the ledger changes when bytes move, never
    what the timeline sees.  A record replays no queued kernel: it names
    the owning Gpu's launch count, and the host replays that far when it
    reads the entry.
    """
    lo = host - mapping.start
    hi = lo + size
    plane = mapping.plane
    if deferred and plane is not None:
        if plane.entries:
            # This fetch supersedes any older entries over the range.
            plane._kill_range(lo, hi)
        allocation, offset = memory._locate(device, size)
        gpu = memory.gpu
        version = gpu.observe_version() if gpu is not None else 0
        dplane = _device_plane(allocation)
        deps = dplane.dependents
        # Only a device write prunes the list otherwise, and a read-only
        # operand is never device-written.  Order stays: the newest entry
        # is last (``recorded_version``).
        deps[:] = [dep for dep in deps if not dep.dead]
        entry = _LedgerEntry(
            lo, hi, allocation.buffer, offset, version, deps, gpu,
        )
        deps.append(entry)
        _insert_entry(plane, entry)
        _ensure_binding(allocation, dplane, plane, lo - offset)
        # The recorded bytes *are* the device bytes: host-logical == device
        # over the range, and any host scribbles below it are moot now.
        plane.sync_runs(memory.token).add(lo, hi)
        plane.dirty.discard(lo, hi)
        _LEDGER_COUNTERS["bytes_deferred"] += size
        return 0
    allocation, offset = memory.expose(device, size)
    if plane is not None and plane.entries:
        plane._kill_range(lo, hi)
    mapping.backing[lo:hi] = allocation.buffer[offset:offset + size]
    if plane is not None:
        plane.sync_runs(memory.token).add(lo, hi)
        plane.dirty.discard(lo, hi)
    return size


def copy_h2d(memory, device, mapping, host, size, deferred=False):
    """Host->device copy entry point (one of the only two; lint rule R006).

    Always leaves the device holding the host's logical bytes — kernels
    have no fault hook, so flushes cannot defer — but in deferred mode
    only the *delta* moves: runs that are host-dirty or not known synced.
    Live same-source entry runs are skipped outright (the device already
    holds those very bytes).  Queued kernels replay before the first
    device byte is written; a flush with an empty delta writes none and
    is no barrier.  Returns bytes physically copied.
    """
    lo = host - mapping.start
    hi = lo + size
    plane = mapping.plane
    if not deferred or plane is None:
        allocation, offset = memory.expose(device, size)
        if plane is not None and plane.entries:
            # Entries are part of the host-logical bytes; fold them into
            # the backing store before the whole-range copy below.
            plane.host_read(lo, size)
        memory._device_write(allocation, offset, size)
        allocation.buffer[offset:offset + size] = mapping.backing[lo:hi]
        if plane is not None:
            plane.sync_runs(memory.token).add(lo, hi)
            plane.dirty.discard(lo, hi)
        return size
    allocation, offset = memory._locate(device, size)
    delta = lo - offset
    _ensure_binding(allocation, _device_plane(allocation), plane, delta)
    synced = plane.sync_runs(memory.token)
    gpu = memory.gpu
    writer = gpu.queued_writer(allocation) if gpu is not None else 0
    segments = _flush_segments(
        plane, synced, lo, hi, allocation, delta, writer
    )
    if segments:
        # Queued kernels consume the device bytes of their launch time, so
        # they replay before the first byte lands.
        if memory.on_observe is not None:
            memory.on_observe()
        if writer:
            # The replay rewrote the destination: recompute the delta
            # against the synced runs it left.
            segments = _flush_segments(
                plane, synced, lo, hi, allocation, delta, 0
            )
    elif gpu is not None:
        gpu.observe_version()
    buffer = allocation.buffer
    backing = mapping.backing
    copied = 0
    for seg_lo, seg_hi, entry in segments:
        length = seg_hi - seg_lo
        memory._device_write(allocation, seg_lo - delta, length)
        if entry is None:
            buffer[seg_lo - delta:seg_hi - delta] = backing[seg_lo:seg_hi]
        else:
            _replay_for(entry)
            e_off = entry.buf_offset + (seg_lo - entry.host_lo)
            buffer[seg_lo - delta:seg_hi - delta] = entry.buffer[
                e_off:e_off + length
            ]
        copied += length
    synced.add(lo, hi)
    plane.dirty.discard(lo, hi)
    _LEDGER_COUNTERS["flush_bytes_copied"] += copied
    _LEDGER_COUNTERS["flush_bytes_skipped"] += size - copied
    return copied


def _flush_segments(plane, synced, lo, hi, allocation, delta, writer):
    """``(seg_lo, seg_hi, entry-or-None)`` pieces of ``[lo, hi)`` a delta
    flush must write into ``allocation``.

    A live entry sourced from this very device range is skipped: the
    device already holds its bytes.  While a launch writing the
    destination is queued (``writer`` is its version), ``synced`` may be
    stale there, so the whole range is considered and only entries that
    name ``writer`` or a later version are skipped.
    """
    need = [(lo, hi)] if writer else _delta_runs(lo, hi, synced, plane.dirty)
    if not need:
        return []
    buffer = allocation.buffer
    entries = plane._overlapping(lo, hi)
    out = []
    for run_lo, run_hi in need:
        for seg_lo, seg_hi, entry in _segments(run_lo, run_hi, entries):
            if (entry is not None and entry.buffer is buffer
                    and entry.buf_offset - entry.host_lo == -delta
                    and entry.version >= writer):
                continue
            out.append((seg_lo, seg_hi, entry))
    return out
