"""Per-category time accounting and event tracing.

Figure 10 of the paper breaks application execution time down into thirteen
categories (Copy, Malloc, Free, Launch, Sync, Signal, cudaMalloc, cudaFree,
cudaLaunch, GPU, IORead, IOWrite, CPU).  :class:`TimeAccounting` charges
virtual-time intervals to those categories; GMAC, the CUDA layer, the OS
and the workloads all charge into the same accounting object so the
break-down is regenerated from actual execution rather than estimated.
"""

import enum
import time
from dataclasses import dataclass


class Category(enum.Enum):
    """Execution-time categories, named after Figure 10's legend."""

    COPY = "Copy"                  # GMAC-initiated data transfers
    MALLOC = "Malloc"              # adsmAlloc bookkeeping (incl. mmap)
    FREE = "Free"                  # adsmFree bookkeeping
    LAUNCH = "Launch"              # adsmCall (minus the cudaLaunch part)
    SYNC = "Sync"                  # adsmSync wait time
    SIGNAL = "Signal"              # page-fault signal handling
    CUDA_MALLOC = "cudaMalloc"
    CUDA_FREE = "cudaFree"
    CUDA_LAUNCH = "cudaLaunch"
    GPU = "GPU"                    # kernel execution the CPU waits for
    IO_READ = "IORead"
    IO_WRITE = "IOWrite"
    CPU = "CPU"                    # application compute on the CPU
    RETRY = "Retry"                # fault-recovery backoff + device resets

    # Identity hash: every charge/measure indexes totals and counts by
    # category, and Enum's name-based hash was visible in profiles.
    __hash__ = object.__hash__

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event: a charged interval with a label."""

    category: Category
    label: str
    start: float
    duration: float


@dataclass(frozen=True)
class CoherenceEvent:
    """One structured coherence-protocol event.

    The manager, the protocols and the GMAC API emit these into the
    accounting's optional ``coherence`` sink (see
    :class:`~repro.analysis.checker.CoherenceModelChecker`), forming an
    ordered stream from which the whole Figure 6 state machine can be
    replayed and checked.  ``kind`` is one of:

    * ``alloc`` / ``free`` — region lifetime (``first``/``last`` span all
      blocks at alloc time);
    * ``transition`` — blocks ``first..last`` of ``region`` entered
      ``state`` (the Figure 6 edge itself);
    * ``flush`` / ``fetch`` — per-block data movement (``detail`` carries
      ``sync``/``eager`` for flushes and, for fetches, ``pending=`` the
      queued kernel writers of the block the fetched host bytes miss);
    * ``materialize`` — the host read ledger bytes naming kernel launches
      that never replayed (``detail`` is ``pending=`` their count; sent
      by the sanitizer only);
    * ``evict`` — rolling-update eagerly evicted block ``first``;
    * ``limit`` — the rolling size changed (``detail`` = new limit);
    * ``bulk`` — a device-side memset/memcpy/peer-DMA made the device
      copy of blocks ``first..last`` canonical;
    * ``call`` / ``sync`` — the release/acquire boundaries (``detail`` on
      ``call`` is ``*`` for unannotated launches or the comma-joined
      written region names);
    * ``protocol`` — the active protocol changed (recovery degradation);
    * ``peer`` — a region migrated between devices (``detail`` is
      ``dma:src->dst`` for a device-to-device copy or ``host:src->dst``
      for a re-route from host-canonical bytes after a device loss).
    """

    kind: str
    time: float
    region: str = ""
    first: int = -1
    last: int = -1
    state: str = ""
    detail: str = ""


class TraceLog:
    """An optional append-only log of charged intervals."""

    def __init__(self):
        self.events = []

    def record(self, event):
        self.events.append(event)

    def by_category(self, category):
        return [event for event in self.events if event.category is category]

    def __len__(self):
        return len(self.events)


class HostCounters:
    """Named host-side event counters for engine diagnostics.

    The executor's worker-pool engine counts what the *host* machinery did
    — specs dispatched, control messages exchanged, outcome bytes the
    workers returned, crashed workers respawned — the same way
    :class:`TimeAccounting` keeps its host-side throughput counters: these
    values never feed virtual time and never become part of an experiment
    outcome, so a pooled sweep stays byte-identical to a serial one.  They
    surface in ``BENCH_sweep.json`` for regression tracking.
    """

    def __init__(self):
        self._counts = {}

    def increment(self, name, n=1):
        self._counts[name] = self._counts.get(name, 0) + n

    def get(self, name, default=0):
        return self._counts.get(name, default)

    def snapshot(self):
        """A plain sorted dict copy (for JSON artifacts and assertions)."""
        return {name: self._counts[name] for name in sorted(self._counts)}


class TimeAccounting:
    """Charges virtual-time durations to Figure 10 categories.

    Two charging styles exist:

    * ``charge(category, seconds)`` for durations known a priori (a resource
      completion's duration, an async transfer the CPU never waits for),
    * ``measure(category)`` as a context manager that charges the clock
      delta across a code region (fault handlers, bookkeeping).

    ``measure`` regions may nest; inner regions subtract their time from the
    enclosing region so each virtual second is charged exactly once, which
    keeps the break-down summing to total execution time.
    """

    def __init__(self, clock, trace=None):
        self.clock = clock
        self.totals = {category: 0.0 for category in Category}
        self.counts = {category: 0 for category in Category}
        self.trace = trace
        #: Optional sink for :class:`CoherenceEvent` values (an object with
        #: a ``record(event)`` method).  None — the default — keeps every
        #: emission site a single attribute test; the sanitizer installs
        #: its model checker here.
        self.coherence = None
        self._stack = []
        # Host-side throughput counters (never charged to virtual time, and
        # never part of an experiment outcome): how much simulator work this
        # accounting observed, and how long the host took to simulate it.
        self.fault_events = 0
        self.block_transitions = 0
        self._host_started = time.perf_counter()  # sanitizer: allow[R003]

    def charge(self, category, seconds, label=""):
        if seconds < 0:
            raise ValueError(f"cannot charge negative time {seconds}")
        self.totals[category] += seconds
        self.counts[category] += 1
        if self._stack:
            # Time explicitly charged inside a measured region should not be
            # double counted against the enclosing category.
            self._stack[-1][1] += seconds
        if self.trace is not None:
            self.trace.record(
                TraceEvent(category, label, self.clock.now, seconds)
            )

    def measure(self, category, label=""):
        """Context manager charging the clock delta across a code region.

        A plain object with ``__enter__``/``__exit__`` rather than a
        generator-based ``@contextmanager``: this runs on every fault,
        transfer and API call, and the generator machinery was a measurable
        slice of hot-path host time.
        """
        return _Measure(self, category, label)

    # -- throughput counters (host-side only) ---------------------------------

    def count_fault(self):
        self.fault_events += 1

    def count_transitions(self, n):
        self.block_transitions += n

    def throughput(self):
        """Simulator throughput: events per *host* second, plus the
        host-seconds each virtual second costs.  Diagnostic only — host
        wall-clock never feeds virtual time or experiment outcomes."""
        host_s = max(time.perf_counter() - self._host_started, 1e-9)  # sanitizer: allow[R003]
        virtual_s = self.clock.now
        return {
            "host_s": host_s,
            "virtual_s": virtual_s,
            "faults_per_host_s": self.fault_events / host_s,
            "block_transitions_per_host_s": self.block_transitions / host_s,
            "host_s_per_virtual_s": (
                host_s / virtual_s if virtual_s > 0 else None
            ),
        }

    def total(self):
        return sum(self.totals.values())

    def fractions(self):
        """Per-category fraction of the accounted time (Figure 10's y-axis)."""
        total = self.total()
        if total <= 0:
            return {category: 0.0 for category in Category}
        return {
            category: value / total for category, value in self.totals.items()
        }

    def breakdown(self):
        """A plain dict (category-name -> seconds) for reports and tests."""
        return {str(category): value for category, value in self.totals.items()}


class _Measure:
    """One measured region; see :meth:`TimeAccounting.measure`."""

    __slots__ = ("accounting", "category", "label", "frame")

    def __init__(self, accounting, category, label):
        self.accounting = accounting
        self.category = category
        self.label = label

    def __enter__(self):
        # [start, time claimed by inner scopes]
        self.frame = [self.accounting.clock.now, 0.0]
        self.accounting._stack.append(self.frame)
        return self

    def __exit__(self, exc_type, exc, tb):
        accounting = self.accounting
        frame = self.frame
        accounting._stack.pop()
        elapsed = accounting.clock.now - frame[0]
        inner = frame[1]
        charged = elapsed - inner if elapsed > inner else 0.0
        accounting.totals[self.category] += charged
        accounting.counts[self.category] += 1
        if accounting._stack:
            accounting._stack[-1][1] += elapsed
        if accounting.trace is not None:
            accounting.trace.record(
                TraceEvent(self.category, self.label, frame[0], charged)
            )
        return False
