"""Kernel objects: real numerics plus a virtual-time cost model.

A kernel is a Python function that computes over numpy views of *device*
memory (the asymmetry: kernels never see host mappings) together with a
cost function mapping the launch arguments to abstract work units and bytes
touched.  The GPU spec converts those into execution seconds.

Timing is charged at launch (so launches stay asynchronous on the virtual
clock), but the numerics are *deferred*: the GPU queues them and replays
the queue the first time anything observes device-memory bytes (see
``hw/gpu.py``).  A kernel may provide ``batched_fn`` to evaluate a run of
consecutive queued launches in one vectorized pass; ``batch_by`` names the
scalar arguments allowed to vary inside such a run.
"""

from repro.util.errors import CudaError


class Kernel:
    """A device kernel: ``fn(gpu, **args)`` + ``cost(**args)``.

    ``cost`` must return ``(work_units, bytes_touched)``; either may be
    zero.  ``writes`` optionally names the pointer arguments the kernel
    writes — the hook Section 4.3 suggests for compiler/programmer
    annotations that avoid needless transfers (used by the annotation
    ablation, not by the core protocols).  It is enforced: while a kernel
    that declares ``writes`` runs, its device views of every other
    pointer argument are read-only, so an undeclared write raises.

    ``batched_fn(gpu, args_list)`` optionally evaluates a run of
    consecutive deferred launches in one pass; it must produce device
    bytes identical to calling ``fn`` once per element in queue order.
    ``batch_by`` names the arguments permitted to differ between launches
    of one batch (everything else must compare equal).
    """

    def __init__(self, name, fn, cost, writes=None, batched_fn=None,
                 batch_by=()):
        if not callable(fn) or not callable(cost):
            raise CudaError(f"kernel {name!r} needs callable fn and cost")
        if batched_fn is not None and not callable(batched_fn):
            raise CudaError(f"kernel {name!r} batched_fn must be callable")
        if batch_by and batched_fn is None:
            raise CudaError(
                f"kernel {name!r} declares batch_by without a batched_fn"
            )
        self.name = name
        self.fn = fn
        self.cost = cost
        self.writes = frozenset(writes or ())
        self.batched_fn = batched_fn
        self.batch_by = frozenset(batch_by)

    def duration_on(self, gpu, args):
        """Execution seconds of this kernel on ``gpu`` for ``args``."""
        work_units, bytes_touched = self.cost(**args)
        if work_units < 0 or bytes_touched < 0:
            raise CudaError(
                f"kernel {self.name!r} cost model returned negative values"
            )
        return gpu.kernel_seconds(work_units, bytes_touched)

    def execute(self, gpu, args):
        """Run the numerics against device memory (no timing)."""
        self.fn(gpu, **args)

    def batch_compatible(self, args_a, args_b):
        """True when two queued launches may share one batched pass."""
        if self.batched_fn is None:
            return False
        if args_a.keys() != args_b.keys():
            return False
        return all(
            args_a[key] == args_b[key]
            for key in args_a
            if key not in self.batch_by
        )

    def execute_batch(self, gpu, args_list):
        """Run the numerics of a run of queued launches in one pass."""
        self.batched_fn(gpu, args_list)

    def __repr__(self):
        return f"Kernel({self.name!r})"
