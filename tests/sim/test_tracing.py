"""Time accounting: the machinery behind the Figure 10 break-down."""

import pytest

from repro.sim.clock import SimClock
from repro.sim.tracing import TimeAccounting, Category, TraceLog


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def accounting(clock):
    return TimeAccounting(clock)


class TestCharge:
    def test_simple_charge(self, accounting):
        accounting.charge(Category.COPY, 1.5)
        assert accounting.totals[Category.COPY] == 1.5
        assert accounting.counts[Category.COPY] == 1

    def test_negative_rejected(self, accounting):
        with pytest.raises(ValueError):
            accounting.charge(Category.CPU, -1.0)

    def test_total(self, accounting):
        accounting.charge(Category.COPY, 1.0)
        accounting.charge(Category.GPU, 2.0)
        assert accounting.total() == 3.0

    def test_fractions(self, accounting):
        accounting.charge(Category.COPY, 1.0)
        accounting.charge(Category.GPU, 3.0)
        fractions = accounting.fractions()
        assert fractions[Category.COPY] == pytest.approx(0.25)
        assert fractions[Category.GPU] == pytest.approx(0.75)

    def test_fractions_empty(self, accounting):
        assert all(v == 0.0 for v in accounting.fractions().values())


class TestMeasure:
    def test_measures_clock_delta(self, clock, accounting):
        with accounting.measure(Category.CPU):
            clock.advance(2.0)
        assert accounting.totals[Category.CPU] == 2.0

    def test_nested_measures_do_not_double_count(self, clock, accounting):
        with accounting.measure(Category.SIGNAL):
            clock.advance(1.0)
            with accounting.measure(Category.COPY):
                clock.advance(3.0)
            clock.advance(0.5)
        assert accounting.totals[Category.COPY] == 3.0
        assert accounting.totals[Category.SIGNAL] == pytest.approx(1.5)
        assert accounting.total() == pytest.approx(4.5)

    def test_charge_inside_measure_subtracts(self, clock, accounting):
        with accounting.measure(Category.SYNC):
            clock.advance(5.0)
            accounting.charge(Category.GPU, 4.0)
        assert accounting.totals[Category.GPU] == 4.0
        assert accounting.totals[Category.SYNC] == pytest.approx(1.0)

    def test_deeply_nested(self, clock, accounting):
        with accounting.measure(Category.LAUNCH):
            with accounting.measure(Category.COPY):
                with accounting.measure(Category.SIGNAL):
                    clock.advance(1.0)
                clock.advance(1.0)
            clock.advance(1.0)
        assert accounting.totals[Category.SIGNAL] == 1.0
        assert accounting.totals[Category.COPY] == pytest.approx(1.0)
        assert accounting.totals[Category.LAUNCH] == pytest.approx(1.0)

    def test_breakdown_sums_to_total(self, clock, accounting):
        with accounting.measure(Category.CPU):
            clock.advance(1.25)
        accounting.charge(Category.GPU, 2.0)
        assert sum(accounting.breakdown().values()) == pytest.approx(
            accounting.total()
        )

    def test_measure_with_no_elapsed_time(self, accounting):
        with accounting.measure(Category.FREE):
            pass
        assert accounting.totals[Category.FREE] == 0.0
        assert accounting.counts[Category.FREE] == 1


class TestTraceAndMerge:
    def test_trace_records_events(self, clock):
        trace = TraceLog()
        accounting = TimeAccounting(clock, trace=trace)
        accounting.charge(Category.COPY, 1.0, label="dma")
        with accounting.measure(Category.CPU, label="phase"):
            clock.advance(1.0)
        assert len(trace) == 2
        assert trace.by_category(Category.COPY)[0].label == "dma"

    def test_category_names_match_figure10(self):
        assert str(Category.CUDA_MALLOC) == "cudaMalloc"
        assert str(Category.IO_READ) == "IORead"
        assert str(Category.COPY) == "Copy"
        assert str(Category.RETRY) == "Retry"
        # Figure 10's 12 categories + CPU + the fault-recovery Retry bucket.
        assert len(list(Category)) == 14
