"""The NPB trace/bandwidth model (Figure 2 + Section 2.2)."""

import pytest

from repro.util.units import GB
from repro.hw.specs import PCIE_2_0_X16, GTX295_MEMORY
from repro.workloads.npb import (
    NPB_KERNELS,
    NPB_CLOCK_HZ,
    generate_trace,
    analyze_trace,
    trace_summary,
)


class TestSpecs:
    def test_all_five_benchmarks_present(self):
        assert set(NPB_KERNELS) == {"bt", "ep", "lu", "mg", "ua"}

    def test_required_bandwidth_scales_linearly(self):
        spec = NPB_KERNELS["bt"]
        assert spec.required_bandwidth(20) == pytest.approx(
            2 * spec.required_bandwidth(10)
        )

    def test_negative_ipc_rejected(self):
        with pytest.raises(ValueError):
            NPB_KERNELS["bt"].required_bandwidth(-1)

    def test_paper_breakpoints(self):
        """PCIe caps bt at IPC~50 and ua at IPC~5 (Section 2.2)."""
        pcie = PCIE_2_0_X16.h2d_bytes_per_s
        assert NPB_KERNELS["bt"].max_ipc(pcie) == pytest.approx(50, rel=0.15)
        assert NPB_KERNELS["ua"].max_ipc(pcie) == pytest.approx(5, rel=0.15)

    def test_gpu_memory_sustains_far_higher_ipc(self):
        for spec in NPB_KERNELS.values():
            gpu = spec.max_ipc(GTX295_MEMORY.h2d_bytes_per_s)
            pcie = spec.max_ipc(PCIE_2_0_X16.h2d_bytes_per_s)
            assert gpu > 10 * pcie

    def test_ordering_matches_memory_intensity(self):
        ordered = sorted(
            NPB_KERNELS.values(), key=lambda s: s.bytes_per_instruction
        )
        assert [s.name for s in ordered] == ["ep", "bt", "lu", "mg", "ua"]


class TestTraces:
    def test_trace_is_deterministic(self):
        spec = NPB_KERNELS["mg"]
        first = generate_trace(spec, 10_000, seed=3)
        second = generate_trace(spec, 10_000, seed=3)
        assert (first[0] == second[0]).all()
        assert (first[1] == second[1]).all()

    def test_kernel_accesses_subset_of_memory_accesses(self):
        spec = NPB_KERNELS["ua"]
        is_memory, in_kernel = generate_trace(spec, 50_000, seed=1)
        assert (in_kernel & ~is_memory).sum() == 0

    def test_measured_bpi_near_spec(self):
        for name, spec in NPB_KERNELS.items():
            summary = trace_summary(name, instructions=300_000, seed=2)
            assert summary.bytes_per_instruction == pytest.approx(
                spec.bytes_per_instruction, rel=0.2
            )

    def test_motivation_99_percent(self):
        for name in NPB_KERNELS:
            summary = trace_summary(name, instructions=300_000, seed=4)
            assert summary.kernel_access_fraction == pytest.approx(
                0.99, abs=0.02
            )

    def test_bad_instruction_count(self):
        with pytest.raises(ValueError):
            generate_trace(NPB_KERNELS["bt"], 0)

    def test_empty_memory_fraction_summary(self):
        spec = NPB_KERNELS["bt"]
        import numpy as np

        summary = analyze_trace(
            spec, np.zeros(10, dtype=bool), np.zeros(10, dtype=bool)
        )
        assert summary.kernel_access_fraction == 0.0
        assert summary.bytes_per_instruction == 0.0


class TestSeries:
    def test_ua_at_ipc5_matches_pcie_scale(self):
        # ua at IPC 5 needs roughly PCIe-class bandwidth (Figure 2).
        needed = NPB_KERNELS["ua"].required_bandwidth(5)
        assert needed == pytest.approx(PCIE_2_0_X16.h2d_bytes_per_s, rel=0.2)

    def test_clock_assumption(self):
        assert NPB_CLOCK_HZ == 800e6
