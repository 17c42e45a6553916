"""Placement policies for multi-accelerator machines.

On a :func:`~repro.hw.machine.multi_device_system` every ``adsmAlloc``
must pick an owning device; the policy is pluggable (the Gmac constructor
accepts a name or an instance).  Policies also pick failover *survivors*
when a device is lost, and track device liveness so neither placement nor
failover ever targets a dead device.

All decisions are deterministic functions of allocation order and device
state — no wall clock, no RNG — so multi-device runs replay identically.
"""

import abc

from repro.util.errors import GmacError


class PlacementPolicy(abc.ABC):
    """Chooses owning devices for new regions and failover survivors."""

    name = "abstract"

    def __init__(self, machine):
        self.machine = machine
        self.dead = set()

    @property
    def device_count(self):
        return len(self.machine.gpus)

    def alive_devices(self):
        return [
            index for index in range(self.device_count)
            if index not in self.dead
        ]

    def mark_dead(self, device):
        self.dead.add(device)

    def mark_alive(self, device):
        self.dead.discard(device)

    def place(self, size):
        """Owning device for a new ``size``-byte region."""
        alive = self.alive_devices()
        if not alive:
            raise GmacError("no alive device to place a shared region on")
        return self._choose(alive, size)

    def pick_survivor(self, lost, size):
        """Survivor device to re-home a ``size``-byte region onto, or None."""
        candidates = [
            index for index in self.alive_devices() if index != lost
        ]
        if not candidates:
            return None
        return self._choose(candidates, size)

    @abc.abstractmethod
    def _choose(self, candidates, size):
        """The device, among ``candidates``, for a ``size``-byte region."""


class RoundRobin(PlacementPolicy):
    """Cycle allocations over the alive devices in index order."""

    name = "round-robin"

    def __init__(self, machine):
        super().__init__(machine)
        self._next = 0

    def _choose(self, candidates, size):
        choice = candidates[self._next % len(candidates)]
        self._next += 1
        return choice


PLACEMENTS = {
    RoundRobin.name: RoundRobin,
}
