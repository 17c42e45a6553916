"""Serialized device timelines.

A :class:`Resource` models a device that processes one operation at a time
in FIFO order: one direction of the PCIe link, the GPU execution engine, or
the disk.  Scheduling an operation returns a :class:`Completion` carrying
the operation's start and finish timestamps; the issuing CPU thread decides
whether to block (synchronous transfer) or continue (asynchronous eager
eviction, kernel launch) and only pays the wait when it synchronizes.

This is the mechanism behind every overlap effect in the paper's
evaluation: rolling-update's eager transfers (Figure 11's 64KB anomaly),
kernel launch asynchrony, and double-buffering behaviour.
"""

class Completion:
    """The outcome of an operation scheduled on a resource.

    A plain ``__slots__`` class rather than a frozen dataclass: one is
    created for every scheduled operation (millions per sweep), and the
    frozen-dataclass ``__init__`` (five ``object.__setattr__`` calls) was
    a measurable slice of schedule time.
    """

    __slots__ = ("resource", "label", "issued_at", "start", "finish")

    def __init__(self, resource, label, issued_at, start, finish):
        self.resource = resource
        self.label = label
        self.issued_at = issued_at
        self.start = start
        self.finish = finish

    @property
    def duration(self):
        return self.finish - self.start

    def wait(self):
        """Block the issuing thread (advance the clock) until completion."""
        self.resource.clock.advance_to(self.finish)
        return self.finish


class Resource:
    """A FIFO device timeline attached to a :class:`SimClock`."""

    __slots__ = (
        "name", "clock", "_available_at", "busy_time", "operation_count",
        "completions",
    )

    def __init__(self, name, clock, trace=False):
        self.name = name
        self.clock = clock
        self._available_at = clock.now
        self.busy_time = 0.0
        self.operation_count = 0
        #: Per-operation history.  ``None`` (the default) records nothing:
        #: a long experiment sweep schedules millions of operations, and an
        #: always-on list grows without bound.  Traced machines (and tests,
        #: via :meth:`record_history`) opt in.
        self.completions = [] if trace else None

    @property
    def available_at(self):
        return self._available_at

    def record_history(self):
        """Start recording every completion (used by tests/experiments)."""
        self.completions = []

    def schedule(self, duration, label="op", earliest=None):
        """Schedule an operation of ``duration`` seconds; do not block.

        ``earliest`` lets callers express data dependencies: a kernel cannot
        start before the transfers it depends on have finished, even if the
        GPU itself is idle.
        """
        if duration < 0:
            raise ValueError(f"negative duration {duration} for {label}")
        issued_at = self.clock.now
        start = max(issued_at, self._available_at)
        if earliest is not None:
            start = max(start, earliest)
        finish = start + duration
        self._available_at = finish
        self.busy_time += duration
        self.operation_count += 1
        completion = Completion(
            resource=self,
            label=label,
            issued_at=issued_at,
            start=start,
            finish=finish,
        )
        if self.completions is not None:
            self.completions.append(completion)
        return completion

    def schedule_many(self, durations, label="op", earliest=None):
        """Schedule a burst of back-to-back operations; do not block.

        Completion-for-completion equivalent to calling :meth:`schedule`
        in a loop with no intervening clock movement — same timestamps,
        ``busy_time`` accumulation order, ``operation_count`` and trace
        rows — while paying the clock lookup and history append once per
        burst instead of once per operation.  ``label`` and ``earliest``
        may be scalars (shared by every operation) or sequences indexed
        per operation.  A negative duration raises after the preceding
        prefix has been applied, exactly as the loop would leave the
        resource (a burst interrupted by a fault keeps its prefix).
        """
        issued_at = self.clock.now
        available_at = self._available_at
        busy_time = self.busy_time
        shared_label = isinstance(label, str) or label is None
        shared_earliest = earliest is None or not hasattr(earliest, "__len__")
        scheduled = []
        bad = None
        for index, duration in enumerate(durations):
            if duration < 0:
                bad = duration
                break
            start = max(issued_at, available_at)
            bound = earliest if shared_earliest else earliest[index]
            if bound is not None:
                start = max(start, bound)
            finish = start + duration
            available_at = finish
            busy_time += duration
            scheduled.append(Completion(
                resource=self,
                label=label if shared_label else label[index],
                issued_at=issued_at,
                start=start,
                finish=finish,
            ))
        self._available_at = available_at
        self.busy_time = busy_time
        self.operation_count += len(scheduled)
        if self.completions is not None:
            self.completions.extend(scheduled)
        if bad is not None:
            raise ValueError(f"negative duration {bad} for {label}")
        return scheduled

    def execute(self, duration, label="op", earliest=None):
        """Schedule an operation and block until it finishes."""
        completion = self.schedule(duration, label=label, earliest=earliest)
        completion.wait()
        return completion

    def drain(self):
        """Block until every scheduled operation has finished."""
        self.clock.advance_to(self._available_at)
        return self.clock.now

    def __repr__(self):
        return (
            f"Resource({self.name!r}, available_at={self._available_at:.9f}, "
            f"ops={self.operation_count})"
        )
