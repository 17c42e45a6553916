"""The link model: per-direction timelines, byte counters, bandwidth."""

import pytest

from repro.util.units import KB, MB, GB
from repro.sim.clock import SimClock
from repro.hw.specs import PCIE_2_0_X16, LinkSpec
from repro.hw.interconnect import Link, Direction


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def link(clock):
    return Link(PCIE_2_0_X16, clock)


class TestLinkSpec:
    def test_transfer_time_has_latency_floor(self):
        assert PCIE_2_0_X16.transfer_seconds(1) > PCIE_2_0_X16.latency_s

    def test_zero_size_is_free(self):
        assert PCIE_2_0_X16.transfer_seconds(0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PCIE_2_0_X16.transfer_seconds(-1)

    def test_effective_bandwidth_monotone_in_size(self):
        sizes = [4 * KB, 64 * KB, 1 * MB, 32 * MB]
        bandwidths = [PCIE_2_0_X16.effective_bandwidth(s) for s in sizes]
        assert bandwidths == sorted(bandwidths)

    def test_effective_bandwidth_approaches_peak(self):
        bw = PCIE_2_0_X16.effective_bandwidth(512 * MB)
        assert bw == pytest.approx(PCIE_2_0_X16.h2d_bytes_per_s, rel=0.05)

    def test_small_transfers_are_latency_bound(self):
        bw = PCIE_2_0_X16.effective_bandwidth(4 * KB)
        assert bw < 0.1 * PCIE_2_0_X16.h2d_bytes_per_s

    def test_directional_asymmetry(self):
        assert PCIE_2_0_X16.transfer_seconds(MB, d2h=True) > (
            PCIE_2_0_X16.transfer_seconds(MB, d2h=False)
        )


class TestLink:
    def test_directions_are_independent(self, clock, link):
        up = link.transfer(MB, Direction.H2D)
        down = link.transfer(MB, Direction.D2H)
        # Full duplex: both start immediately.
        assert up.start == 0.0
        assert down.start == 0.0

    def test_same_direction_serializes(self, link):
        first = link.transfer(MB, Direction.H2D)
        second = link.transfer(MB, Direction.H2D)
        assert second.start == first.finish

    def test_byte_counters(self, link):
        link.transfer(100, Direction.H2D)
        link.transfer(200, Direction.H2D)
        link.transfer(300, Direction.D2H)
        assert link.bytes_moved[Direction.H2D] == 300
        assert link.bytes_moved[Direction.D2H] == 300
        assert link.transfer_count[Direction.H2D] == 2

    def test_drain(self, clock, link):
        link.transfer(MB, Direction.H2D)
        link.transfer(2 * MB, Direction.D2H)
        link.drain()
        assert clock.now == pytest.approx(
            PCIE_2_0_X16.transfer_seconds(2 * MB, d2h=True)
        )

    def test_many_small_slower_than_one_big(self, clock):
        spec = LinkSpec("test", 10e-6, 1 * GB, 1 * GB)
        chunks = Link(spec, SimClock())
        for _ in range(64):
            chunks.transfer(MB // 64, Direction.H2D)
        chunked_time = chunks.drain()
        single = Link(spec, SimClock())
        single.transfer(MB, Direction.H2D)
        assert chunked_time > single.drain()
