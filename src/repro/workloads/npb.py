"""The NAS Parallel Benchmarks model behind Figure 2 and Section 2.2.

The paper motivates ADSM with two trace-derived observations:

* "execution traces show that about 99% of read and write accesses to the
  main data structures in the NASA Parallel Benchmarks occur inside
  computationally intensive kernels",
* Figure 2: the memory bandwidth the kernels of bt/ep/lu/mg/ua would
  require at a given IPC (800MHz clock), against the capacity of PCIe,
  QPI, HyperTransport and GTX295 on-board memory — concluding that PCIe
  caps bt at IPC ≈ 50 and ua at IPC ≈ 5.

We regenerate both from synthetic instruction traces whose per-benchmark
instruction mixes are calibrated to the paper's stated break-points.
"""

from dataclasses import dataclass

import numpy as np

#: Figure 2's clock assumption.
NPB_CLOCK_HZ = 800e6


@dataclass(frozen=True)
class NpbKernelSpec:
    """The instruction mix of one benchmark's computational kernels."""

    name: str
    #: Fraction of kernel instructions that access memory.
    memory_fraction: float
    #: Bytes moved per memory access (double-precision NPB codes).
    bytes_per_access: int = 8
    #: Share of main-data-structure accesses that happen inside kernels
    #: (the Section 2.2 "about 99%" observation).
    kernel_access_share: float = 0.99

    @property
    def bytes_per_instruction(self):
        return self.memory_fraction * self.bytes_per_access

    def required_bandwidth(self, ipc, clock_hz=NPB_CLOCK_HZ):
        """Bandwidth the kernels need to sustain ``ipc`` at ``clock_hz``."""
        if ipc < 0:
            raise ValueError(f"negative IPC {ipc}")
        return self.bytes_per_instruction * ipc * clock_hz

    def max_ipc(self, bandwidth_bytes_per_s, clock_hz=NPB_CLOCK_HZ):
        """The highest IPC a link of the given bandwidth can sustain."""
        denominator = self.bytes_per_instruction * clock_hz
        if denominator == 0:
            return float("inf")
        return bandwidth_bytes_per_s / denominator


#: Instruction mixes calibrated so PCIe 2.0 x16 (5.6GB/s sustained) caps
#: bt at IPC 50 and ua at IPC 5, the paper's stated break-points.
NPB_KERNELS = {
    "bt": NpbKernelSpec("bt", memory_fraction=0.0175),
    "ep": NpbKernelSpec("ep", memory_fraction=0.004),
    "lu": NpbKernelSpec("lu", memory_fraction=0.056),
    "mg": NpbKernelSpec("mg", memory_fraction=0.10),
    "ua": NpbKernelSpec("ua", memory_fraction=0.175),
}


@dataclass(frozen=True)
class TraceSummary:
    """What trace analysis extracts from one synthetic execution trace."""

    name: str
    instructions: int
    memory_accesses: int
    kernel_accesses: int
    bytes_accessed: int

    @property
    def bytes_per_instruction(self):
        return self.bytes_accessed / self.instructions

    @property
    def kernel_access_fraction(self):
        if self.memory_accesses == 0:
            return 0.0
        return self.kernel_accesses / self.memory_accesses


def generate_trace(spec, instructions=200_000, seed=0):
    """Synthesize an execution trace for one benchmark.

    Returns (is_memory, in_kernel) boolean arrays over instructions:
    which instructions access the main data structures, and whether that
    access happens inside a computational kernel.
    """
    if instructions <= 0:
        raise ValueError(f"instruction count must be positive: {instructions}")
    rng = np.random.default_rng(seed)
    is_memory = rng.random(instructions) < spec.memory_fraction
    in_kernel = rng.random(instructions) < spec.kernel_access_share
    return is_memory, is_memory & in_kernel


def analyze_trace(spec, is_memory, in_kernel):
    """Reduce a trace to the Figure 2 / Section 2.2 inputs."""
    memory_accesses = int(is_memory.sum())
    return TraceSummary(
        name=spec.name,
        instructions=len(is_memory),
        memory_accesses=memory_accesses,
        kernel_accesses=int(in_kernel.sum()),
        bytes_accessed=memory_accesses * spec.bytes_per_access,
    )


def trace_summary(name, instructions=200_000, seed=0):
    """Generate-and-analyze convenience for one benchmark name."""
    spec = NPB_KERNELS[name]
    is_memory, in_kernel = generate_trace(spec, instructions, seed)
    return analyze_trace(spec, is_memory, in_kernel)
