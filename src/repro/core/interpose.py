"""Library interposition of I/O and bulk memory operations (Section 4.4).

Two problems, two fixes:

* **I/O.**  ``read()`` into a shared object faults block by block as the
  kernel's copy loop crosses protection boundaries, and once any bytes have
  moved the call cannot be restarted.  GMAC therefore "overloads I/O calls
  to perform any I/O read and write operations affecting shared data
  objects in block sized memory chunks": each chunk is pre-faulted (so its
  block is accessible) before the un-restartable copy touches it.

* **Bulk memory.**  ``memset``/``memcpy`` over shared objects are routed to
  accelerator-specific calls (``cudaMemset``/``cudaMemcpy``) for the fully
  covered blocks — avoiding page faults and intermediate host copies — and
  fall back to the protection-checked host path for partial block edges and
  non-shared ranges.

The overloads receive the default libc implementation and forward
non-shared ranges to it unchanged, like an ``LD_PRELOAD`` shim calling
``dlsym(RTLD_NEXT)``.
"""

import numpy as np

from repro.util.intervals import Interval
from repro.core.blocks import BlockState
from repro.os.paging import AccessKind


def split_shared(manager, interval):
    """Cut ``interval`` into (piece, region-or-None) segments, in order."""
    segments = []
    cursor = interval.start
    for region_interval, region in manager.shared_overlaps(interval):
        piece = region_interval.intersection(interval)
        if cursor < piece.start:
            segments.append((Interval(cursor, piece.start), None))
        segments.append((piece, region))
        cursor = piece.end
    if cursor < interval.end:
        segments.append((Interval(cursor, interval.end), None))
    return segments


def block_pieces(region, interval):
    """Yield (block, piece, fully_covered) for blocks under ``interval``."""
    for block in region.blocks_overlapping(interval):
        piece = block.interval.intersection(interval)
        yield block, piece, piece == block.interval


class GmacInterposer:
    """Installs GMAC's overloads into a process's libc."""

    def __init__(self, gmac):
        self.gmac = gmac
        self._installed = []

    @property
    def manager(self):
        return self.gmac.manager

    @property
    def process(self):
        return self.gmac.process

    def _guard(self, kind, access, address, size, extra=None):
        """Race-monitor bookkeeping for one interposed libc call.

        Judges the application-visible access against any open kernel
        windows *before* the work happens, then marks the call internal so
        the coherence traffic it triggers (pre-faults, device-side bulk
        ops, peer DMA) is not misattributed.  Returns a context token for
        :meth:`_unguard`, or None when no monitor is attached.
        """
        monitor = self.gmac.monitor
        if monitor is None:
            return None
        monitor.notify_io(kind, access, Interval.sized(address, size))
        if extra is not None:
            monitor.notify_io(kind, extra[0], extra[1])
        monitor.enter_internal()
        return monitor

    @staticmethod
    def _unguard(monitor):
        if monitor is not None:
            monitor.exit_internal()

    def _note_bulk(self, region, index, detail):
        self.manager.note_coherence("bulk", region.name, index, index,
                                    detail=detail)

    def install(self, libc):
        """Interpose read/write/memset/memcpy on ``libc``."""
        for name, factory in (
            ("read", self._make_read),
            ("write", self._make_write),
            ("memset", self._make_memset),
            ("memcpy", self._make_memcpy),
        ):
            previous = libc.interpose(name, factory)
            self._installed.append((libc, name, previous))

    def uninstall(self):
        for libc, name, previous in reversed(self._installed):
            libc.restore(name, previous)
        self._installed.clear()

    # -- I/O ----------------------------------------------------------------------

    def _make_read(self, default):
        def read(handle, address, size):
            token = self._guard("read", AccessKind.WRITE, address, size)
            try:
                return self._read(default, handle, address, size)
            finally:
                self._unguard(token)

        return read

    def _read(self, default, handle, address, size):
        total = 0
        for piece, region in split_shared(
            self.manager, Interval.sized(address, size)
        ):
            if region is None:
                # Plain memory cannot fault, but a faulty disk can still
                # deliver short; keep the POSIX resume loop here too.
                total += self._read_fully(
                    default, handle, piece.start, piece.size
                )
                continue
            for block, chunk, full in block_pieces(region, piece):
                if full and self.gmac.peer_dma:
                    total += self._peer_read(handle, block)
                    continue
                # Pre-fault the chunk's block so the (un-restartable)
                # copy below cannot trip over a protection boundary.
                self.process.touch(chunk.start, chunk.size, AccessKind.WRITE)
                total += self._read_fully(
                    default, handle, chunk.start, chunk.size
                )
        return total

    def _read_fully(self, default, handle, start, size):
        """Resume short reads until the chunk is full or EOF.

        POSIX read() may deliver a prefix (and a faulty disk will); because
        the chunk's block is already pre-faulted, re-issuing the call for
        the remainder is safe — unlike the un-interposed path, where a
        partial read that then faults is not restartable (Section 4.4).
        """
        total = int(default(handle, start, size))
        while 0 < total < size:
            got = int(default(handle, start + total, size - total))
            if got == 0:
                break  # genuine end of file, not a short delivery
            total += got
            recovery = self.gmac.manager.recovery
            if recovery is not None:
                recovery.note_short_read_resume()
        return total

    def _peer_read(self, handle, block):
        """Hardware peer DMA: file data lands straight in device memory.

        No intermediate system-memory copy, no page fault, no later flush;
        the accelerator copy becomes canonical.  This is the Section 7
        "hardware supported peer DMA" the paper argues for; GMAC's
        software-only implementation "still requires intermediate copies".

        ``memory.write`` runs the device-write hook (DESIGN.md §14):
        outstanding ledger extents sourced from the overwritten range are
        COW-snapshotted and any synced-run claims over it drop, so a
        later flush knows the device bytes changed underneath it.
        """
        from repro.sim.tracing import Category
        from repro.hw.interconnect import Direction

        with self.gmac.accounting.measure(Category.IO_READ, label="peer-dma"):
            data = handle.read(block.size)
            if not data:
                return 0
            context = self.gmac.layer.context_for(block.region.owner)
            context.gpu.memory.write(block.device_start, data)
            self.manager.bytes_to_accelerator += len(data)
            context.link.transfer(
                len(data), Direction.H2D, label="peer-dma"
            )
            self._note_bulk(block.region, block.index, "peer-dma")
            self.gmac.protocol.discard_block(block)
            return len(data)

    def _make_write(self, default):
        def write(handle, address, size):
            token = self._guard("write", AccessKind.READ, address, size)
            try:
                return self._write(default, handle, address, size)
            finally:
                self._unguard(token)

        return write

    def _write(self, default, handle, address, size):
        total = 0
        for piece, region in split_shared(
            self.manager, Interval.sized(address, size)
        ):
            if region is None:
                total += default(handle, piece.start, piece.size)
                continue
            for block, chunk, full in block_pieces(region, piece):
                if (full and self.gmac.peer_dma
                        and block.state is BlockState.INVALID):
                    total += self._peer_write(handle, block)
                    continue
                # Reading invalid data faults it back one block at a
                # time; pre-faulting keeps the write() copy whole.
                self.process.touch(chunk.start, chunk.size, AccessKind.READ)
                total += default(handle, chunk.start, chunk.size)
        return total

    def _peer_write(self, handle, block):
        """Peer DMA outbound: device memory streams straight to the file,
        without faulting the block back into system memory."""
        from repro.sim.tracing import Category
        from repro.hw.interconnect import Direction

        with self.gmac.accounting.measure(Category.IO_WRITE, label="peer-dma"):
            # Borrow the device bytes; the file write is the only copy.
            context = self.gmac.layer.context_for(block.region.owner)
            data = context.gpu.memory.view(
                block.device_start, np.uint8, block.size, writable=False
            )
            context.link.transfer(
                len(data), Direction.D2H, label="peer-dma"
            )
            return handle.write(data)

    # -- bulk memory -----------------------------------------------------------------

    def _make_memset(self, default):
        def memset(address, value, size):
            token = self._guard("memset", AccessKind.WRITE, address, size)
            try:
                return self._memset(default, address, value, size)
            finally:
                self._unguard(token)

        return memset

    def _memset(self, default, address, value, size):
        protocol = self.gmac.protocol
        for piece, region in split_shared(
            self.manager, Interval.sized(address, size)
        ):
            if region is None or not protocol.supports_device_bulk:
                default(piece.start, value, piece.size)
                continue
            for block, chunk, full in block_pieces(region, piece):
                if full:
                    # Device-side fill; the device copy becomes
                    # canonical and the host copy is discarded.
                    self.gmac.layer.device_memset(
                        block.device_start, value, block.size,
                        owner=region.owner,
                    )
                    self._note_bulk(region, block.index, "memset")
                    protocol.discard_block(block)
                else:
                    default(chunk.start, value, chunk.size)
        return address

    def _make_memcpy(self, default):
        def memcpy(destination, source, size):
            token = self._guard(
                "memcpy", AccessKind.WRITE, destination, size,
                extra=(AccessKind.READ, Interval.sized(source, size)),
            )
            try:
                return self._memcpy(default, destination, source, size)
            finally:
                self._unguard(token)

        return memcpy

    def _memcpy(self, default, destination, source, size):
        protocol = self.gmac.protocol
        if not protocol.supports_device_bulk:
            return default(destination, source, size)
        for piece, dst_region in split_shared(
            self.manager, Interval.sized(destination, size)
        ):
            src_start = source + (piece.start - destination)
            if dst_region is None:
                self._copy_to_plain(piece, src_start, default)
            else:
                self._copy_to_shared(
                    dst_region, piece, src_start, default
                )
        return destination

    def _copy_to_plain(self, dst_piece, src_start, default):
        """Destination is ordinary memory; source may still be shared."""
        manager = self.manager
        for src_piece, src_region in split_shared(
            manager, Interval.sized(src_start, dst_piece.size)
        ):
            dst_start = dst_piece.start + (src_piece.start - src_start)
            if src_region is None:
                default(dst_start, src_piece.start, src_piece.size)
                continue
            for block, chunk, _ in block_pieces(src_region, src_piece):
                if block.state is BlockState.INVALID:
                    # Stream straight from accelerator memory into the
                    # destination buffer, never faulting the block in.
                    device = src_region.device_address_of(chunk.start)
                    manager.bytes_to_host += chunk.size
                    host = dst_start + (chunk.start - src_piece.start)
                    manager._attempt_transfer(
                        lambda: self.gmac.layer.to_host(
                            host, device, chunk.size, sync=True,
                            owner=src_region.owner,
                        ),
                        label="memcpy:d2h",
                        device=src_region.owner,
                    )
                else:
                    default(
                        dst_start + (chunk.start - src_piece.start),
                        chunk.start,
                        chunk.size,
                    )

    def _copy_to_shared(self, dst_region, dst_piece, src_start, default):
        """Destination is shared; route full blocks through the device."""
        manager = self.manager
        protocol = self.gmac.protocol
        for block, chunk, full in block_pieces(dst_region, dst_piece):
            chunk_src = src_start + (chunk.start - dst_piece.start)
            if not full:
                default(chunk.start, chunk_src, chunk.size)
                continue
            src_region = manager.region_at(chunk_src)
            device_dst = dst_region.device_address_of(chunk.start)
            if src_region is not None and manager.region_at(
                chunk_src + chunk.size - 1
            ) is src_region:
                if src_region.owner != dst_region.owner:
                    # Cross-device shared -> shared: the d2d fast path only
                    # exists within one device's memory; stage via host.
                    default(chunk.start, chunk_src, chunk.size)
                    continue
                # Shared -> shared: flush the source, then device-to-device.
                src_span = Interval.sized(chunk_src, chunk.size)
                manager.ensure_device_canonical(src_region, src_span)
                self.gmac.layer.device_memcpy(
                    device_dst,
                    src_region.device_address_of(chunk_src),
                    chunk.size,
                    owner=dst_region.owner,
                )
            elif src_region is None:
                # Plain -> shared: one DMA instead of fault-by-fault writes.
                manager.bytes_to_accelerator += chunk.size
                manager._attempt_transfer(
                    lambda: self.gmac.layer.to_device(
                        device_dst, chunk_src, chunk.size, sync=True,
                        owner=dst_region.owner,
                    ),
                    label="memcpy:h2d",
                    device=dst_region.owner,
                )
            else:
                # The source straddles a shared boundary; keep it simple.
                default(chunk.start, chunk_src, chunk.size)
                continue
            self._note_bulk(dst_region, block.index, "memcpy")
            protocol.discard_block(block)
