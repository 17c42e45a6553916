"""Per-layer host-time tracing, installed from outside the program.

The traced run wraps the public calls into each of the simulator's layers
(the modules under ``src/repro``) with timing wrappers that live here, so
nothing in the program changes.  Each wrapper records one span in memory:
its kind, start, end, parent span and spec id.  Self time is a span's
duration minus its child spans, so every host second inside a root span is
charged to exactly one kind, and

    sum of self times + unattributed = traced wall time

where "unattributed" is the part of each pass that no root span covers.
The roots are the calls ``ExperimentExecutor.prime`` makes: each spec's
``RunSpec.execute``, the result-cache calls and, on the pool, the parent's
input pre-warm, worker start and dispatch.  What is left is the
executor's own work between them, which should stay small; a share above
``UNATTRIBUTED_TOLERANCE`` means a layer is no longer wrapped.

:meth:`Tracer.uninstall` puts every original callable object back, and a
process forked while the wrappers are installed (a pool worker) drops
them at once: spans inside workers are out of scope.
"""

import inspect
import json
import os
import sys
import time

#: Span kinds, one per wrapped boundary, grouped by layer (the part before
#: the dot).  Each kind's self time lands in exactly one per-layer metric.
SPAN_KINDS = (
    "experiments.spec",
    "experiments.cache",
    "experiments.dispatch",
    "workloads.execute",
    "workloads.oracle",
    "cuda.kernel",
    "cuda.kernel_batch",
    "cuda.driver",
    "core.call",
    "core.sync",
    "core.alloc",
    "core.fault",
    "core.recovery",
    "os.access",
    "os.deliver",
    "os.mprotect",
    "hw.h2d",
    "hw.d2h",
    "hw.materialize",
    "sim.schedule",
)

#: Layers in lane order for the Chrome trace export.
LAYERS = tuple(dict.fromkeys(kind.split(".")[0] for kind in SPAN_KINDS))

#: ``trace.unattributed_s`` may be at most this share of the traced wall
#: time: the executor's own loops between the wrapped calls are all it
#: may hold.
UNATTRIBUTED_TOLERANCE = 0.01


def _concrete(base, name):
    """``base`` and its loaded subclasses that define ``name`` themselves."""
    found = []
    pending = [base]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        function = cls.__dict__.get(name)
        if inspect.isfunction(function) and not getattr(
                function, "__isabstractmethod__", False):
            found.append(cls)
    return sorted(found, key=lambda cls: (cls.__module__, cls.__qualname__))


def _bindings(function):
    """Every ``(module, name)`` in the program bound to ``function``.

    A module that did ``from repro.hw.memory import copy_d2h`` holds its
    own reference, which a patch of the defining module would miss.
    """
    return [
        (module, name)
        for module_name, module in sorted(sys.modules.items())
        if module_name.split(".")[0] == "repro" and module is not None
        for name, value in sorted(vars(module).items())
        if value is function
    ]


def span_targets():
    """``(kind, owner, attribute, spec_arg)`` for every wrapped callable.

    ``spec_arg`` is the positional index of the call's RunSpec, or None
    when the span inherits its parent's spec id.
    """
    from repro.core.api import Gmac
    from repro.core.protocols.base import Protocol
    from repro.core.recovery import RecoveryPolicy
    from repro.cuda.driver import DriverContext
    from repro.cuda.kernels import Kernel
    from repro.experiments import pool as pool_module
    from repro.experiments.cache import ResultCache
    from repro.experiments.spec import RunSpec
    from repro.hw import memory as memory_module
    from repro.hw.gpu import Gpu
    from repro.os.address_space import AddressSpace
    from repro.os.process import Process
    from repro.os.signals import SignalDispatcher
    from repro.sim.resource import Resource
    from repro.workloads.base import Workload

    targets = [("experiments.spec", RunSpec, "execute", 0)]
    targets += [
        ("experiments.cache", ResultCache, name, 1)
        for name in ("get", "put")
    ]
    targets.append(("experiments.cache", ResultCache, "timing_key", 0))
    targets += [
        ("experiments.cache", ResultCache, name, None)
        for name in ("record_timings", "timings")
    ]
    targets += [
        ("experiments.dispatch", module, name, None)
        for module, name in _bindings(pool_module.rebuild_memoized_inputs)
    ]
    targets += [
        ("experiments.dispatch", pool_module.PersistentWorkerPool, name, None)
        for name in ("start", "run")
    ]
    targets.append(("workloads.execute", Workload, "execute", None))
    targets += [
        ("workloads.oracle", cls, "reference", None)
        for cls in _concrete(Workload, "reference")
    ]
    targets.append(("cuda.kernel", Kernel, "execute", None))
    targets.append(("cuda.kernel_batch", Kernel, "execute_batch", None))
    targets += [
        ("cuda.driver", DriverContext, name, None)
        for name in ("launch", "memcpy_h2d", "memcpy_d2h")
    ]
    targets += [
        ("core.call", Gmac, "call", None),
        ("core.sync", Gmac, "sync", None),
        ("core.alloc", Gmac, "alloc", None),
        ("core.alloc", Gmac, "free", None),
    ]
    targets += [
        ("core.fault", cls, "on_fault", None)
        for cls in _concrete(Protocol, "on_fault")
    ]
    targets += [
        ("core.recovery", RecoveryPolicy, name, None)
        for name, value in sorted(vars(RecoveryPolicy).items())
        if not name.startswith("_") and inspect.isfunction(value)
    ]
    targets += [
        ("os.access", Process, name, None)
        for name in ("read", "read_view", "read_into", "write", "fill",
                     "touch")
    ]
    targets.append(("os.deliver", SignalDispatcher, "deliver", None))
    targets.append(("os.mprotect", AddressSpace, "mprotect", None))
    targets += [
        ("hw.h2d", module, name, None)
        for module, name in _bindings(memory_module.copy_h2d)
    ]
    targets += [
        ("hw.d2h", module, name, None)
        for module, name in _bindings(memory_module.copy_d2h)
    ]
    targets.append(("hw.materialize", Gpu, "materialize", None))
    targets += [
        ("sim.schedule", Resource, name, None)
        for name in ("schedule", "schedule_many", "drain")
    ]
    return targets


def count_targets():
    """``(kind, owner, attribute)`` for calls that are counted, not timed."""
    from repro.sim.tracing import TimeAccounting

    return [("sim.charge", TimeAccounting, "charge")]


class PassTotals:
    """Self seconds, calls and launches per span kind, summed over passes."""

    def __init__(self):
        self.passes = 0
        self.wall_s = 0.0
        self.root_s = 0.0
        self.self_s = dict.fromkeys(SPAN_KINDS, 0.0)
        self.calls = dict.fromkeys(SPAN_KINDS, 0)
        self.counts = {}
        self.batched_launches = 0

    def layer_self_s(self):
        """Self seconds per layer (the sum over the layer's span kinds)."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for kind, seconds in self.self_s.items():
            totals[kind.split(".")[0]] += seconds
        return totals

    @property
    def unattributed_s(self):
        return self.wall_s - self.root_s


class Tracer:
    """Installs the wrappers, records spans, folds them per pass."""

    def __init__(self):
        self.records = []
        self.spec_ids = {}
        self.totals = PassTotals()
        #: Records of the first traced pass, kept for the Chrome export.
        self.first_pass = None
        self._stack = []
        self._counts = {}
        self._batched = [0]
        self._saved = []
        #: ``(owner, name, original)`` of every callable ever wrapped.
        self.targets = []
        self._wrappers = None

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every target; the wrappers are built once and reused."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        if self._wrappers is None:
            self._wrappers = self._build()
            os.register_at_fork(after_in_child=self.uninstall)
        for (owner, name, _), wrapper in zip(self.targets, self._wrappers):
            self._saved.append((owner, name, vars(owner)[name]))
            setattr(owner, name, wrapper)

    def _build(self):
        wrappers = []
        for kind, owner, name, spec_arg in span_targets():
            original = vars(owner)[name]
            self.targets.append((owner, name, original))
            static = isinstance(original, staticmethod)
            wrapper = self._span_wrapper(
                SPAN_KINDS.index(kind),
                original.__func__ if static else original, spec_arg,
                batched=(kind == "cuda.kernel_batch"),
            )
            wrappers.append(staticmethod(wrapper) if static else wrapper)
        for kind, owner, name in count_targets():
            original = vars(owner)[name]
            self.targets.append((owner, name, original))
            self._counts.setdefault(kind, 0)
            wrappers.append(self._count_wrapper(kind, original))
        return wrappers

    def uninstall(self):
        """Put every original callable back, last patched first."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def restored(self):
        """True when every wrapped attribute holds its original again."""
        return all(vars(owner)[name] is original
                   for owner, name, original in self.targets)

    # -- wrappers ---------------------------------------------------------------

    def _span_wrapper(self, kind_id, original, spec_arg, batched):
        records = self.records
        stack = self._stack
        spec_ids = self.spec_ids
        batched_launches = self._batched
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if stack:
                parent, spec = stack[-1]
            else:
                parent, spec = -1, -1
            if spec_arg is not None:
                spec = spec_ids.setdefault(args[spec_arg], len(spec_ids))
            if batched:
                batched_launches[0] += len(args[2])
            index = len(records)
            records.append(None)
            stack.append((index, spec))
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                records[index] = (kind_id, start, end, parent, spec)

        traced.__wrapped__ = original
        return traced

    def _count_wrapper(self, kind, original):
        counts = self._counts

        def counted(*args, **kwargs):
            counts[kind] += 1
            return original(*args, **kwargs)

        counted.__wrapped__ = original
        return counted

    # -- per-pass folding --------------------------------------------------------

    def end_pass(self, start, wall_s):
        """Fold the records of one pass (``start``..now) into the totals.

        The first pass's records are kept, rebased to ``start``, for
        :meth:`chrome_trace`; later ones are dropped once folded.
        """
        if self._stack:
            raise RuntimeError("a span is still open at the end of a pass")
        records = self.records
        children = [0.0] * len(records)
        for kind_id, begin, end, parent, _ in records:
            if parent >= 0:
                children[parent] += end - begin
        totals = self.totals
        for index, (kind_id, begin, end, parent, _) in enumerate(records):
            kind = SPAN_KINDS[kind_id]
            totals.self_s[kind] += (end - begin) - children[index]
            totals.calls[kind] += 1
            if parent < 0:
                totals.root_s += end - begin
        totals.passes += 1
        totals.wall_s += wall_s
        for kind, count in self._counts.items():
            totals.counts[kind] = totals.counts.get(kind, 0) + count
            self._counts[kind] = 0
        totals.batched_launches += self._batched[0]
        self._batched[0] = 0
        if self.first_pass is None:
            self.first_pass = [
                (kind_id, begin - start, end - start, parent, spec)
                for kind_id, begin, end, parent, spec in records
            ]
        records.clear()

    # -- export --------------------------------------------------------------------

    def chrome_trace(self):
        """The first traced pass as a Chrome trace-event JSON document.

        One lane (``tid``) per layer; every span carries its spec id, and
        ``otherData.specs`` maps each id to the spec's canonical key.
        """
        lanes = {layer: lane for lane, layer in enumerate(LAYERS, start=1)}
        events = [{"name": "process_name", "ph": "M", "pid": 1,
                   "args": {"name": "perfbench traced pass"}}]
        events += [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": lane,
             "args": {"name": layer}}
            for layer, lane in lanes.items()
        ]
        for index, (kind_id, begin, end, parent, spec) in enumerate(
                self.first_pass or ()):
            kind = SPAN_KINDS[kind_id]
            events.append({
                "name": kind, "cat": kind.split(".")[0], "ph": "X",
                "pid": 1, "tid": lanes[kind.split(".")[0]],
                "ts": round(begin * 1e6, 3),
                "dur": round((end - begin) * 1e6, 3),
                "id": spec,
                "args": {"span": index, "parent": parent, "spec": spec},
            })
        used = {record[4] for record in self.first_pass or ()}
        keys = {str(spec_id): spec.key()
                for spec, spec_id in self.spec_ids.items() if spec_id in used}
        return json.dumps({
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"specs": keys},
        })
