"""Hardware parameter presets.

Numbers are taken from the paper where it states them (PCIe 2.0 16X bus,
NVIDIA G280 with 1GB of device memory, 3GHz dual-core Opterons, 8GB RAM)
and from public datasheets of the named parts otherwise.  Absolute values
matter less than their ratios: the evaluation reproduces slow-downs and
crossovers, not seconds (see DESIGN.md section 2).
"""

from dataclasses import dataclass

from repro.util.units import GB, MB, KB


@dataclass(frozen=True)
class LinkSpec:
    """A point-to-point interconnect: per-transfer latency + peak bandwidth.

    Effective bandwidth for a transfer of ``size`` bytes is
    ``size / (latency + size / peak)``; small transfers are latency-bound,
    which is exactly the effect Figure 11 sweeps across block sizes.
    """

    name: str
    latency_s: float
    h2d_bytes_per_s: float
    d2h_bytes_per_s: float

    def transfer_seconds(self, size, d2h=False):
        if size < 0:
            raise ValueError(f"negative transfer size {size}")
        if size == 0:
            return 0.0
        peak = self.d2h_bytes_per_s if d2h else self.h2d_bytes_per_s
        return self.latency_s + size / peak

    def effective_bandwidth(self, size, d2h=False):
        seconds = self.transfer_seconds(size, d2h=d2h)
        if seconds == 0:
            return 0.0
        return size / seconds


@dataclass(frozen=True)
class GpuSpec:
    """An accelerator: device-memory capacity plus a kernel cost model.

    ``issue_overhead_s`` is the fixed per-launch cost; each kernel then
    charges work through :meth:`kernel_seconds` based on the number of
    abstract work units it performs and the GPU's throughput.
    """

    name: str
    memory_bytes: int
    memory_bandwidth_bytes_per_s: float
    work_units_per_s: float
    issue_overhead_s: float
    #: Whether the accelerator implements virtual memory (Section 4.2:
    #: "Virtual memory mechanisms are implemented in latest GPUs, but not
    #: available to programmers" -- e.g. NVIDIA Fermi's 40-bit VA).  With
    #: it, adsmAlloc can always place host and device mappings at the same
    #: virtual address, even on multi-accelerator systems.
    virtual_memory: bool = False

    def kernel_seconds(self, work_units, bytes_touched=0):
        """Kernel duration: max of compute-bound and memory-bound time."""
        if work_units < 0 or bytes_touched < 0:
            raise ValueError("negative kernel cost inputs")
        compute = work_units / self.work_units_per_s
        memory = bytes_touched / self.memory_bandwidth_bytes_per_s
        return max(compute, memory)


@dataclass(frozen=True)
class CpuSpec:
    """A general-purpose CPU: clock, IPC, and memory touch costs."""

    name: str
    clock_hz: float
    ipc: float
    touch_bytes_per_s: float

    def touch_seconds(self, nbytes):
        if nbytes < 0:
            raise ValueError(f"negative byte count {nbytes}")
        return nbytes / self.touch_bytes_per_s


@dataclass(frozen=True)
class DiskSpec:
    """A disk: per-operation latency plus streaming bandwidth."""

    name: str
    latency_s: float
    read_bytes_per_s: float
    write_bytes_per_s: float

    def read_seconds(self, size):
        if size < 0:
            raise ValueError(f"negative read size {size}")
        if size == 0:
            return 0.0
        return self.latency_s + size / self.read_bytes_per_s

    def write_seconds(self, size):
        if size < 0:
            raise ValueError(f"negative write size {size}")
        if size == 0:
            return 0.0
        return self.latency_s + size / self.write_bytes_per_s


# ---------------------------------------------------------------------------
# Interconnect presets (Figure 2's horizontal capacity lines, Figure 11's bus)
# ---------------------------------------------------------------------------

#: PCIe 2.0 x16: 8GB/s raw per direction; DMA setup latency dominates small
#: transfers.  The measured asymptotic bandwidth in Figure 11 approaches the
#: bus peak only at ~32MB blocks, which the latency term reproduces.
PCIE_2_0_X16 = LinkSpec(
    name="PCIe 2.0 x16",
    latency_s=18e-6,
    h2d_bytes_per_s=5.6 * GB,
    d2h_bytes_per_s=5.2 * GB,
)

#: HyperTransport 3.0 (the paper's footnote: a shared memory controller
#: would look like HyperTransport bandwidth to the accelerator).
HYPERTRANSPORT = LinkSpec(
    name="HyperTransport",
    latency_s=0.4e-6,
    h2d_bytes_per_s=10.4 * GB,
    d2h_bytes_per_s=10.4 * GB,
)

#: Intel QuickPath Interconnect.
QPI = LinkSpec(
    name="QPI",
    latency_s=0.3e-6,
    h2d_bytes_per_s=12.8 * GB,
    d2h_bytes_per_s=12.8 * GB,
)

#: On-board GDDR3 bandwidth of the NVIDIA GTX295 (Figure 2's top line).
GTX295_MEMORY = LinkSpec(
    name="NVIDIA GTX295 Memory",
    latency_s=0.05e-6,
    h2d_bytes_per_s=111.9 * GB,
    d2h_bytes_per_s=111.9 * GB,
)

# ---------------------------------------------------------------------------
# Device presets (the Section 5 testbed)
# ---------------------------------------------------------------------------

GTX280 = GpuSpec(
    name="NVIDIA G280",
    memory_bytes=1 * GB,
    memory_bandwidth_bytes_per_s=141.7 * GB,
    work_units_per_s=500e9,
    issue_overhead_s=8e-6,
)

#: A Fermi-generation accelerator with virtual memory (the Section 4.2
#: "good solution to the problem of conflicting address ranges").
FERMI = GpuSpec(
    name="NVIDIA Fermi",
    memory_bytes=1 * GB,
    memory_bandwidth_bytes_per_s=144 * GB,
    work_units_per_s=1000e9,
    issue_overhead_s=6e-6,
    virtual_memory=True,
)

OPTERON_2222 = CpuSpec(
    name="AMD Opteron 2222",
    clock_hz=3.0e9,
    ipc=1.0,
    touch_bytes_per_s=4.0 * GB,
)

COMMODITY_DISK = DiskSpec(
    name="SATA disk",
    latency_s=80e-6,
    read_bytes_per_s=250 * MB,
    write_bytes_per_s=220 * MB,
)

#: The simulated OS page size; also the smallest block size in Figure 11.
PAGE_SIZE = 4 * KB
