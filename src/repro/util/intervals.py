"""Half-open address intervals and an ordered, non-overlapping range map.

Addresses in the simulated machine are plain integers.  ``Interval(a, b)``
covers ``[a, b)``; the :class:`RangeMap` keeps disjoint intervals sorted by
start address and answers "which mapping contains address X" queries, which
is what the simulated OS needs for its region table and what GMAC needs for
its shared-object list.
"""

import bisect
from dataclasses import dataclass

from repro.util.errors import AddressError


@dataclass(frozen=True, order=True)
class Interval:
    """A half-open interval ``[start, end)`` of integer addresses."""

    start: int
    end: int

    def __post_init__(self):
        if self.end < self.start:
            raise ValueError(f"interval end {self.end:#x} < start {self.start:#x}")

    @classmethod
    def sized(cls, start, size):
        """Build an interval from a start address and a byte size."""
        return cls(start, start + size)

    @property
    def size(self):
        return self.end - self.start

    def __bool__(self):
        return self.end > self.start

    def contains(self, address):
        return self.start <= address < self.end

    def contains_interval(self, other):
        return self.start <= other.start and other.end <= self.end

    def overlaps(self, other):
        return self.start < other.end and other.start < self.end

    def intersection(self, other):
        """The overlapping part of two intervals, or an empty interval."""
        start = max(self.start, other.start)
        end = min(self.end, other.end)
        if end <= start:
            return Interval(start, start)
        return Interval(start, end)

    def __str__(self):
        return f"[{self.start:#x}, {self.end:#x})"


class RangeMap:
    """Disjoint intervals sorted by start address, each carrying a value.

    Supports O(log n) insertion, deletion and containing-interval lookup.
    Raises :class:`AddressError` on overlapping insertions so bugs in the
    allocators surface immediately instead of silently corrupting state.
    """

    def __init__(self):
        self._starts = []
        self._entries = []  # parallel list of (Interval, value)

    def values(self):
        return [value for _, value in self._entries]

    def add(self, interval, value):
        """Insert ``interval -> value``; the interval must not overlap."""
        if not interval:
            raise ValueError("cannot add an empty interval")
        index = bisect.bisect_right(self._starts, interval.start)
        if index > 0 and self._entries[index - 1][0].overlaps(interval):
            raise AddressError(
                f"interval {interval} overlaps {self._entries[index - 1][0]}"
            )
        if index < len(self._entries) and self._entries[index][0].overlaps(interval):
            raise AddressError(
                f"interval {interval} overlaps {self._entries[index][0]}"
            )
        self._starts.insert(index, interval.start)
        self._entries.insert(index, (interval, value))

    def remove(self, start):
        """Remove and return the (interval, value) starting at ``start``."""
        index = bisect.bisect_left(self._starts, start)
        if index == len(self._starts) or self._starts[index] != start:
            raise AddressError(f"no interval starts at {start:#x}")
        self._starts.pop(index)
        return self._entries.pop(index)

    def find(self, address):
        """Return the (interval, value) containing ``address`` or None."""
        index = bisect.bisect_right(self._starts, address)
        if index == 0:
            return None
        interval, value = self._entries[index - 1]
        if interval.contains(address):
            return (interval, value)
        return None

    def find_exact(self, start):
        """Return the (interval, value) starting exactly at ``start``."""
        index = bisect.bisect_left(self._starts, start)
        if index == len(self._starts) or self._starts[index] != start:
            return None
        return self._entries[index]

    def overlapping(self, interval):
        """Return all (interval, value) pairs overlapping ``interval``."""
        if not interval:
            return []
        index = bisect.bisect_right(self._starts, interval.start)
        if index > 0:
            index -= 1
        result = []
        while index < len(self._entries):
            candidate, value = self._entries[index]
            if candidate.start >= interval.end:
                break
            if candidate.overlaps(interval):
                result.append((candidate, value))
            index += 1
        return result

    def find_gap(self, size, low, high, alignment=1):
        """Find the lowest aligned free range of ``size`` inside [low, high).

        Used by the simulated OS to place non-fixed mmaps and by the device
        memory allocator tests as an oracle.
        """
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")

        def align_up(value):
            return (value + alignment - 1) // alignment * alignment

        cursor = align_up(low)
        for interval, _ in self._entries:
            if interval.end <= cursor:
                continue
            if interval.start >= high:
                break
            if interval.start - cursor >= size:
                return Interval.sized(cursor, size)
            cursor = max(cursor, align_up(interval.end))
        if high - cursor >= size:
            return Interval.sized(cursor, size)
        return None
