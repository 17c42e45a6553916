"""Assembly of the heterogeneous machine.

:func:`reference_system` builds the paper's Figure 1 architecture (separate
CPU and accelerator memories joined by PCIe); :func:`integrated_system`
builds the low-cost variant of Section 3.1 where CPU and accelerator share
one physical memory, which lets the same ADSM program run with zero copies
— the architecture-independence benefit the paper claims for the
data-centric model.
"""

from repro.sim.clock import SimClock
from repro.sim.tracing import TimeAccounting, TraceLog
from repro.hw.specs import (
    PCIE_2_0_X16,
    HYPERTRANSPORT,
    GTX280,
    OPTERON_2222,
    COMMODITY_DISK,
)
from repro.hw.interconnect import Link
from repro.hw.gpu import Gpu
from repro.hw.memory import DEVICE_BASE
from repro.hw.cpu import Cpu
from repro.hw.disk import Disk

#: Device-heap spacing for multi-device machines: 64GB per device keeps
#: every heap disjoint (device memories are ~1GB) while staying well inside
#: the 47-bit shared virtual address space of Section 4.2.
DEVICE_BASE_STRIDE = 0x10_0000_0000


class Machine:
    """One simulated heterogeneous node: clock, CPU, GPU(s), link(s), disk."""

    def __init__(
        self,
        cpu_spec=OPTERON_2222,
        gpu_spec=GTX280,
        link_spec=PCIE_2_0_X16,
        disk_spec=COMMODITY_DISK,
        gpu_count=1,
        integrated=False,
        trace=False,
        defer_numerics=None,
        defer_transfers=None,
        link_specs=None,
        multi_device=False,
    ):
        self.clock = SimClock()
        self.trace = TraceLog() if trace else None
        self.accounting = TimeAccounting(self.clock, trace=self.trace)
        self.cpu = Cpu(cpu_spec, self.clock, accounting=self.accounting)
        self.disk = Disk(disk_spec, self.clock, trace=trace)
        self.integrated = integrated
        #: True for machines built by :func:`multi_device_system`: every
        #: device gets a disjoint heap and its own link, and GMAC places,
        #: migrates and fails objects over across devices.  False keeps
        #: the legacy topology (shared link, overlapping device heaps).
        self.multi_device = bool(multi_device)
        #: Fault-injection plan (None = no injection, zero-cost no-ops).
        #: Driver contexts consult this dynamically; the disk gets its own
        #: reference because the filesystem only sees the disk.
        self.faults = None
        if integrated:
            # CPU and accelerator share physical memory: a "transfer" is a
            # zero-cost no-op that still snapshots bytes at issue time, so
            # there is nothing for the ledger to defer.  Force eager.
            defer_transfers = False
        specs = list(link_specs) if link_specs else [link_spec] * gpu_count
        if len(specs) != gpu_count:
            raise ValueError(
                f"{len(specs)} link specs for {gpu_count} GPUs; "
                "give one per device (asymmetric bandwidths allowed)"
            )
        self.gpus = []
        #: One Link per GPU.  Legacy machines route everything over
        #: ``links[0]`` (the :attr:`link` property); multi-device machines
        #: route per-owner via :meth:`link_for`.
        self.links = []
        for index in range(gpu_count):
            if self.multi_device:
                base = DEVICE_BASE + index * DEVICE_BASE_STRIDE
                gpu = Gpu(gpu_spec, self.clock, memory_base=base,
                          trace=trace, defer_numerics=defer_numerics,
                          defer_transfers=defer_transfers)
            else:
                # Multiple GPUs get overlapping device address ranges,
                # exactly the collision hazard Section 4.2 describes;
                # adsmSafeAlloc is the software fallback exercised against
                # gpu_count > 1.
                gpu = Gpu(gpu_spec, self.clock, trace=trace,
                          defer_numerics=defer_numerics,
                          defer_transfers=defer_transfers)
            self.gpus.append(gpu)
            self.links.append(Link(specs[index], self.clock, trace=trace))
        if not self.gpus:
            raise ValueError("a heterogeneous machine needs at least one GPU")

    @property
    def gpu(self):
        return self.gpus[0]

    @property
    def link(self):
        """The primary link (device 0); the whole link on legacy machines."""
        return self.links[0]

    def device_index(self, gpu):
        """Index of ``gpu`` on this machine (0 for foreign/test GPUs)."""
        for index, candidate in enumerate(self.gpus):
            if candidate is gpu:
                return min(index, len(self.links) - 1)
        return 0

    def link_for(self, gpu):
        """The link that carries DMA traffic for ``gpu``."""
        return self.links[self.device_index(gpu)]

    def install_faults(self, plan):
        """Install a :class:`~repro.faults.FaultPlan` across all layers.

        The driver, interconnect and filesystem consult the plan at their
        injection points; passing ``None`` uninstalls.  A GMAC instance
        created on a machine with an *enabled* plan automatically arms its
        recovery machinery (see :class:`repro.core.recovery.RecoveryPolicy`).
        """
        self.faults = plan
        self.disk.faults = plan
        return plan


def reference_system(trace=False, gpu_count=1, defer_numerics=None,
                     defer_transfers=None):
    """The Figure 1 reference architecture (the Section 5 testbed)."""
    return Machine(trace=trace, gpu_count=gpu_count,
                   defer_numerics=defer_numerics,
                   defer_transfers=defer_transfers)


def multi_device_system(devices=2, link_specs=None, trace=False,
                        defer_numerics=None, defer_transfers=None):
    """N accelerators with per-device links and disjoint device heaps.

    The survivable-topology variant: each device gets its own
    :class:`~repro.hw.interconnect.Link` (``link_specs`` may list one
    spec per device for asymmetric bandwidths) and a disjoint device
    address range, so shared mappings never collide and GMAC can place,
    peer-migrate and fail objects over between devices.
    """
    if devices < 1:
        raise ValueError(f"a multi-device system needs >= 1 device, got {devices}")
    return Machine(trace=trace, gpu_count=devices, link_specs=link_specs,
                   multi_device=True, defer_numerics=defer_numerics,
                   defer_transfers=defer_transfers)


def integrated_system(trace=False):
    """A low-cost system where CPU and accelerator share physical memory.

    The link is replaced by the memory-controller path (HyperTransport-like
    in the paper's footnote) and GMAC performs no copies at all on it.
    """
    return Machine(link_spec=HYPERTRANSPORT, integrated=True, trace=trace)
