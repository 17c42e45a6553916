"""The CPU cost model.

Workloads run their control code in real Python but charge virtual time
for the work the *modelled* CPU would do: ``stream(nbytes, rate)`` for
producing or consuming data.  The costs advance the shared clock
directly, so CPU phases naturally overlap with any in-flight asynchronous
DMA or kernel execution.
"""

from repro.sim.tracing import Category


class Cpu:
    """A general-purpose CPU advancing the virtual clock."""

    def __init__(self, spec, clock, accounting=None):
        self.spec = spec
        self.clock = clock
        self.accounting = accounting
        self.bytes_touched = 0

    def stream(self, nbytes, bytes_per_s, label="stream"):
        """Charge time for producing/consuming ``nbytes`` at a custom rate.

        Workloads with cache-resident inner loops (vector initialisation,
        element-wise post-processing) stream far faster than the spec's
        memory-touch rate; they model that with an explicit rate.
        """
        if bytes_per_s <= 0:
            raise ValueError(f"stream rate must be positive, got {bytes_per_s}")
        self.bytes_touched += nbytes
        seconds = nbytes / bytes_per_s
        self.clock.advance(seconds)
        if self.accounting is not None:
            self.accounting.charge(Category.CPU, seconds, label=label)
        return seconds
