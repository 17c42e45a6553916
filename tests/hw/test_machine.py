"""Machine assembly: the Figure 1 reference system and variants."""

import pytest

from repro.util.units import GB
from repro.hw.machine import Machine, reference_system, integrated_system
from repro.hw.specs import GTX280, PCIE_2_0_X16, HYPERTRANSPORT


class TestReferenceSystem:
    def test_components_share_one_clock(self):
        machine = reference_system()
        assert machine.cpu.clock is machine.clock
        assert machine.gpu.clock is machine.clock
        assert machine.link.clock is machine.clock
        assert machine.disk.clock is machine.clock

    def test_testbed_specs(self):
        machine = reference_system()
        assert machine.gpu.spec is GTX280
        assert machine.gpu.memory.capacity == 1 * GB
        assert machine.link.spec is PCIE_2_0_X16
        assert machine.cpu.spec.clock_hz == 3.0e9

    def test_not_integrated(self):
        assert reference_system().integrated is False

    def test_multi_gpu(self):
        machine = reference_system(gpu_count=2)
        assert len(machine.gpus) == 2
        # Both GPUs expose the same (overlapping) device address range --
        # the Section 4.2 collision hazard.
        assert machine.gpus[0].memory.base == machine.gpus[1].memory.base

    def test_zero_gpus_rejected(self):
        with pytest.raises(ValueError):
            Machine(gpu_count=0)

    def test_trace_flag(self):
        assert reference_system(trace=True).trace is not None
        assert reference_system().trace is None


class TestIntegratedSystem:
    def test_flag_and_link(self):
        machine = integrated_system()
        assert machine.integrated is True
        assert machine.link.spec is HYPERTRANSPORT
