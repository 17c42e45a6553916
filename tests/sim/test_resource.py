"""Resource timelines: FIFO scheduling, overlap, data dependencies."""

import pytest

from repro.sim.clock import SimClock
from repro.sim.resource import Resource


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def resource(clock):
    return Resource("dma", clock)


class TestScheduling:
    def test_immediate_start_when_idle(self, clock, resource):
        completion = resource.schedule(2.0)
        assert completion.start == 0.0
        assert completion.finish == 2.0
        assert clock.now == 0.0  # asynchronous: the issuer did not wait

    def test_fifo_queueing(self, resource):
        first = resource.schedule(2.0)
        second = resource.schedule(3.0)
        assert second.start == first.finish
        assert second.finish == 5.0

    def test_execute_blocks(self, clock, resource):
        resource.execute(1.5)
        assert clock.now == 1.5

    def test_wait_advances_clock(self, clock, resource):
        completion = resource.schedule(2.0)
        completion.wait()
        assert clock.now == 2.0

    def test_wait_after_finish_is_noop(self, clock, resource):
        completion = resource.schedule(1.0)
        clock.advance(5.0)
        completion.wait()
        assert clock.now == 5.0

    def test_overlap_with_cpu_work(self, clock, resource):
        completion = resource.schedule(2.0)
        clock.advance(1.5)  # CPU computes while the DMA flies
        completion.wait()
        assert clock.now == 2.0  # only the residual wait is paid

    def test_cpu_slower_than_transfer(self, clock, resource):
        completion = resource.schedule(1.0)
        clock.advance(3.0)
        completion.wait()
        assert clock.now == 3.0

    def test_earliest_dependency(self, resource):
        completion = resource.schedule(1.0, earliest=10.0)
        assert completion.start == 10.0
        assert completion.finish == 11.0

    def test_negative_duration_rejected(self, resource):
        with pytest.raises(ValueError):
            resource.schedule(-1.0)

    def test_zero_duration(self, resource):
        completion = resource.schedule(0.0)
        assert completion.duration == 0.0


class TestDrainAndStats:
    def test_drain_waits_for_everything(self, clock, resource):
        resource.schedule(1.0)
        resource.schedule(2.0)
        resource.drain()
        assert clock.now == 3.0

    def test_drain_idle_is_noop(self, clock, resource):
        resource.drain()
        assert clock.now == 0.0

    def test_busy_time_and_count(self, resource):
        resource.schedule(1.0)
        resource.schedule(2.5)
        assert resource.busy_time == 3.5
        assert resource.operation_count == 2

    def test_history_recording(self, resource):
        resource.record_history()
        resource.schedule(1.0, label="x")
        assert len(resource.completions) == 1
        assert resource.completions[0].label == "x"
