"""Hardware preset sanity: the Section 5 testbed and Figure 2 lines."""

import pytest

from repro.util.units import GB, MB
from repro.hw.specs import (
    PCIE_2_0_X16,
    HYPERTRANSPORT,
    QPI,
    GTX295_MEMORY,
    GTX280,
    OPTERON_2222,
    COMMODITY_DISK,
    CpuSpec,
    GpuSpec,
    DiskSpec,
)


class TestTestbed:
    def test_gpu_is_the_papers_g280(self):
        assert GTX280.memory_bytes == 1 * GB  # "1GB of device memory"
        assert "G280" in GTX280.name

    def test_cpu_is_a_3ghz_opteron(self):
        assert OPTERON_2222.clock_hz == 3.0e9

    def test_figure2_capacity_ordering(self):
        # PCIe < HyperTransport < QPI << on-board GDDR, as drawn.
        assert (
            PCIE_2_0_X16.h2d_bytes_per_s
            < HYPERTRANSPORT.h2d_bytes_per_s
            < QPI.h2d_bytes_per_s
            < GTX295_MEMORY.h2d_bytes_per_s
        )

    def test_gpu_memory_bandwidth_dwarfs_pcie(self):
        # The Section 2.2 argument for hosting data on the accelerator.
        assert GTX280.memory_bandwidth_bytes_per_s > (
            20 * PCIE_2_0_X16.h2d_bytes_per_s
        )

    def test_pcie_latency_dominates_page_transfers(self):
        four_kb = PCIE_2_0_X16.transfer_seconds(4096)
        assert four_kb > 0.9 * PCIE_2_0_X16.latency_s


class TestSpecValidation:
    def test_cpu_negative_inputs(self):
        with pytest.raises(ValueError):
            OPTERON_2222.touch_seconds(-1)

    def test_gpu_kernel_model_max_rule(self):
        compute_bound = GTX280.kernel_seconds(GTX280.work_units_per_s, 0)
        memory_bound = GTX280.kernel_seconds(
            0, GTX280.memory_bandwidth_bytes_per_s
        )
        both = GTX280.kernel_seconds(
            GTX280.work_units_per_s, GTX280.memory_bandwidth_bytes_per_s
        )
        assert both == pytest.approx(max(compute_bound, memory_bound))

    def test_disk_negative_inputs(self):
        with pytest.raises(ValueError):
            COMMODITY_DISK.read_seconds(-1)
        with pytest.raises(ValueError):
            COMMODITY_DISK.write_seconds(-1)

    def test_disk_latency_floor(self):
        assert COMMODITY_DISK.read_seconds(1) > COMMODITY_DISK.latency_s

    def test_specs_are_frozen(self):
        with pytest.raises(Exception):
            GTX280.memory_bytes = 0
