"""The CPU<->accelerator interconnect.

A :class:`Link` owns two independent :class:`~repro.sim.resource.Resource`
timelines, one per direction (PCIe is full duplex), and converts transfer
sizes to durations through its :class:`~repro.hw.specs.LinkSpec`.  Byte
counters per direction feed Figure 8 (transferred data) and Figure 11
(effective bandwidth vs block size).
"""

import enum

from repro.sim.resource import Resource


class Direction(enum.Enum):
    H2D = "host-to-accelerator"
    D2H = "accelerator-to-host"

    # Identity hash: per-direction byte counters are bumped on every
    # transfer, and Enum's name-based hash was visible in profiles.
    __hash__ = object.__hash__

    def __str__(self):
        return self.value


class Link:
    """A full-duplex link between system memory and accelerator memory."""

    def __init__(self, spec, clock, trace=False):
        self.spec = spec
        self.clock = clock
        self._resources = {
            Direction.H2D: Resource(f"{spec.name} H2D", clock, trace=trace),
            Direction.D2H: Resource(f"{spec.name} D2H", clock, trace=trace),
        }
        self.bytes_moved = {Direction.H2D: 0, Direction.D2H: 0}
        self.transfer_count = {Direction.H2D: 0, Direction.D2H: 0}
        # Aborted DMA attempts (fault injection), counted separately so the
        # Figure 8/11 counters keep reflecting *logical* data movement.
        self.faulted_bytes = {Direction.H2D: 0, Direction.D2H: 0}
        self.faulted_count = {Direction.H2D: 0, Direction.D2H: 0}
        # Bytes the transfer ledger did NOT physically copy at issue time
        # (recorded D2H extents, flush-delta skips).  They remain part of
        # ``bytes_moved`` — the link was charged and Figures 8/11 reflect
        # logical movement — this counter just sizes the elision.
        self.deferred_bytes = {Direction.H2D: 0, Direction.D2H: 0}

    def resource(self, direction):
        return self._resources[direction]

    def transfer_seconds(self, size, direction):
        return self.spec.transfer_seconds(size, d2h=direction is Direction.D2H)

    def transfer(self, size, direction, label="dma", earliest=None,
                 deferred=0):
        """Schedule a DMA of ``size`` bytes; returns a Completion (async).

        ``deferred`` reports how many of the bytes were *not* physically
        copied by the caller (the transfer ledger's elision); timing and
        the Figure 8/11 counters are identical either way.
        """
        duration = self.transfer_seconds(size, direction)
        self.bytes_moved[direction] += size
        self.transfer_count[direction] += 1
        if deferred:
            self.deferred_bytes[direction] += deferred
        return self._resources[direction].schedule(
            duration, label=label, earliest=earliest
        )

    def transfer_many(self, sizes, direction, label="dma", earliest=None,
                      deferred=0):
        """Schedule a burst of DMAs; returns their Completions (async).

        Equivalent to calling :meth:`transfer` per size with no clock
        movement in between, but the byte/count bookkeeping and resource
        updates are amortized over the burst (streaming pipelines issue
        dozens of chunks at one instant).  ``deferred`` as in
        :meth:`transfer`, totalled over the burst.
        """
        durations = [self.transfer_seconds(size, direction) for size in sizes]
        self.bytes_moved[direction] += sum(sizes)
        self.transfer_count[direction] += len(durations)
        if deferred:
            self.deferred_bytes[direction] += deferred
        return self._resources[direction].schedule_many(
            durations, label=label, earliest=earliest
        )

    def faulted_transfer(self, size, direction, label="dma-faulted"):
        """Schedule a DMA attempt that will fail at completion time.

        The aborted attempt still holds the direction's timeline for its
        full duration — the DMA engine only reports the error when the
        transfer would have completed — so retries are genuinely charged
        to the PCIe resource and Figure 10-style accounting stays honest
        under fault injection.  The bytes are *not* added to
        ``bytes_moved`` (no data arrived); they land in ``faulted_bytes``.
        """
        duration = self.transfer_seconds(size, direction)
        self.faulted_bytes[direction] += size
        self.faulted_count[direction] += 1
        return self._resources[direction].schedule(duration, label=label)

    def drain(self):
        """Wait for all in-flight transfers in both directions."""
        for resource in self._resources.values():
            resource.drain()
        return self.clock.now
