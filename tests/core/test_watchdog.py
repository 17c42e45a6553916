"""Watchdog deadlines: virtual-time arming, expiry, the never-early law."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.clock import SimClock
from repro.core.watchdog import Watchdog


def make_watchdog(on_trip=None):
    clock = SimClock()
    return clock, Watchdog(clock, on_trip=on_trip)


class TestArming:
    def test_arm_sets_expiry_from_now(self):
        clock, watchdog = make_watchdog()
        clock.advance(2.0)
        deadline = watchdog.arm("transfer", 0.5, label="flush:a")
        assert deadline.armed_at == pytest.approx(2.0)
        assert deadline.expires_at == pytest.approx(2.5)
        assert deadline.armed

    @pytest.mark.parametrize("budget", [0.0, -1e-6])
    def test_non_positive_budget_rejected(self, budget):
        _, watchdog = make_watchdog()
        with pytest.raises(ValueError):
            watchdog.arm("transfer", budget)

    def test_expired_tracks_the_clock(self):
        clock, watchdog = make_watchdog()
        deadline = watchdog.arm("kernel-window", 1.0)
        assert not watchdog.expired(deadline)
        clock.advance(0.999)
        assert not watchdog.expired(deadline)
        clock.advance(0.001)
        assert watchdog.expired(deadline)

    def test_disarmed_deadline_never_expires(self):
        clock, watchdog = make_watchdog()
        deadline = watchdog.arm("transfer", 0.1)
        watchdog.disarm(deadline)
        clock.advance(1.0)
        assert not watchdog.expired(deadline)


class TestTripping:
    def test_trip_records_and_notifies(self):
        seen = []
        clock, watchdog = make_watchdog(on_trip=seen.append)
        deadline = watchdog.arm("transfer", 0.25, label="flush:a")
        clock.advance(0.3)
        record = watchdog.trip(deadline, "declare-device-lost")
        assert record["action"] == "declare-device-lost"
        assert record["tripped_at"] == pytest.approx(0.3)
        assert watchdog.trips == [record]
        assert seen == [record]
        assert not deadline.armed


class TestNeverEarlyProperty:
    """The ISSUE's safety law: escalation never precedes its deadline."""

    @given(
        budget=st.floats(min_value=1e-6, max_value=10.0,
                         allow_nan=False, allow_infinity=False),
        advances=st.lists(
            st.floats(min_value=0.0, max_value=3.0,
                      allow_nan=False, allow_infinity=False),
            min_size=0, max_size=8,
        ),
        action=st.sampled_from(
            ["declare-device-lost", "abort-recovery", "observe"]
        ),
    )
    def test_trip_succeeds_iff_deadline_expired(self, budget, advances,
                                                action):
        clock, watchdog = make_watchdog()
        deadline = watchdog.arm("transfer", budget)
        for step in advances:
            clock.advance(step)
        if clock.now >= deadline.expires_at:
            record = watchdog.trip(deadline, action)
            assert record["tripped_at"] >= deadline.expires_at
        else:
            with pytest.raises(ValueError):
                watchdog.trip(deadline, action)
            # A refused trip records nothing and leaves the deadline armed.
            assert watchdog.trips == []
            assert deadline.armed

    @given(
        budget=st.floats(min_value=1e-6, max_value=10.0,
                         allow_nan=False, allow_infinity=False),
        start=st.floats(min_value=0.0, max_value=5.0,
                        allow_nan=False, allow_infinity=False),
    )
    def test_wait_out_then_trip_is_always_legal(self, budget, start):
        """Waiting a deadline out, then tripping it, never fires early."""
        clock, watchdog = make_watchdog()
        clock.advance(start)
        deadline = watchdog.arm("transfer", budget)
        clock.advance_to(deadline.expires_at)
        record = watchdog.trip(deadline, "declare-device-lost")
        assert record["tripped_at"] >= deadline.expires_at
