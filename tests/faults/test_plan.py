"""FaultPlan: determinism, counters, decision semantics."""

import pytest

from repro.faults import (
    DEVICE_LOST,
    TRANSIENT,
    FaultPlan,
    SITE_DISK_READ,
    SITE_LAUNCH,
    SITE_MALLOC,
    SITE_TRANSFER_D2H,
    SITE_TRANSFER_H2D,
)


class TestConstruction:
    def test_none_plan_is_disabled(self):
        plan = FaultPlan()
        assert not plan.enabled
        assert plan.injected_total == 0

    def test_any_rate_enables(self):
        assert FaultPlan(transfer_fault_rate=0.01).enabled
        assert FaultPlan(launch_fault_rate=0.01).enabled
        assert FaultPlan(malloc_fault_rate=0.01).enabled
        assert FaultPlan(short_read_rate=0.01).enabled
        assert FaultPlan(oom_at_mallocs=(1,)).enabled
        assert FaultPlan(device_lost_at_launch=1).enabled

    @pytest.mark.parametrize("kwargs", [
        {"transfer_fault_rate": -0.1},
        {"transfer_fault_rate": 1.5},
        {"launch_fault_rate": 2.0},
        {"malloc_fault_rate": -1.0},
        {"short_read_rate": 1.0001},
        # Scheduled events are 1-based; 0/negative would silently never fire.
        {"oom_at_mallocs": (0,)},
        {"oom_at_mallocs": (2, -1)},
        {"device_lost_at_launch": 0},
    ])
    def test_rates_validated(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        a = FaultPlan(seed=42, transfer_fault_rate=0.3, short_read_rate=0.3)
        b = FaultPlan(seed=42, transfer_fault_rate=0.3, short_read_rate=0.3)
        assert (
            [a.transfer_fault() for _ in range(200)]
            == [b.transfer_fault() for _ in range(200)]
        )
        assert (
            [a.short_read(4096) for _ in range(200)]
            == [b.short_read(4096) for _ in range(200)]
        )

    def test_different_seeds_differ(self):
        a = FaultPlan(seed=1, transfer_fault_rate=0.3)
        b = FaultPlan(seed=2, transfer_fault_rate=0.3)
        assert (
            [a.transfer_fault() for _ in range(200)]
            != [b.transfer_fault() for _ in range(200)]
        )

    def test_sites_have_independent_streams(self):
        """Consulting one site must not perturb another's sequence."""
        solo = FaultPlan(seed=7, transfer_fault_rate=0.3)
        solo_seq = [solo.transfer_fault() for _ in range(100)]
        mixed = FaultPlan(seed=7, transfer_fault_rate=0.3,
                          short_read_rate=0.5, launch_fault_rate=0.3)
        mixed_seq = []
        for _ in range(100):
            mixed.short_read(4096)
            mixed.launch_fault()
            mixed_seq.append(mixed.transfer_fault())
        assert solo_seq == mixed_seq

    def test_h2d_and_d2h_are_separate_sites(self):
        plan = FaultPlan(seed=3, transfer_fault_rate=0.4)
        for _ in range(50):
            plan.transfer_fault(d2h=False)
            plan.transfer_fault(d2h=True)
        assert plan.attempts[SITE_TRANSFER_H2D] == 50
        assert plan.attempts[SITE_TRANSFER_D2H] == 50


class TestDecisions:
    def test_rate_one_always_injects(self):
        plan = FaultPlan(transfer_fault_rate=1.0)
        assert all(
            plan.transfer_fault() is TRANSIENT for _ in range(20)
        )
        assert plan.injected[SITE_TRANSFER_H2D] == 20

    def test_rate_zero_never_injects(self):
        plan = FaultPlan(transfer_fault_rate=0.0, short_read_rate=1.0)
        assert all(plan.transfer_fault() is None for _ in range(20))
        assert plan.injected[SITE_TRANSFER_H2D] == 0

    def test_scheduled_oom_uses_one_based_attempts(self):
        plan = FaultPlan(oom_at_mallocs=(2, 4))
        assert [plan.malloc_fault() for _ in range(5)] == [
            False, True, False, True, False
        ]
        assert plan.injected[SITE_MALLOC] == 2

    def test_device_lost_fires_once_at_scheduled_launch(self):
        plan = FaultPlan(device_lost_at_launch=3)
        outcomes = [plan.launch_fault() for _ in range(6)]
        assert outcomes == [None, None, DEVICE_LOST, None, None, None]
        assert plan.device_losses == 1
        assert plan.injected[SITE_LAUNCH] == 1

    def test_short_read_delivers_strict_nonempty_prefix(self):
        plan = FaultPlan(seed=11, short_read_rate=1.0)
        for _ in range(200):
            delivered = plan.short_read(4096)
            assert 1 <= delivered < 4096
        assert plan.injected[SITE_DISK_READ] == 200

    def test_short_read_of_one_byte_cannot_shrink(self):
        plan = FaultPlan(short_read_rate=1.0)
        assert plan.short_read(1) == 1
        assert plan.injected[SITE_DISK_READ] == 0


class TestReporting:
    def test_repr_mentions_active_knobs(self):
        text = repr(FaultPlan(seed=5, transfer_fault_rate=0.1,
                              device_lost_at_launch=2))
        assert "seed=5" in text
        assert "transfer=0.1" in text
        assert "device_lost_at_launch=2" in text
