"""Coherence model checker unit tests: synthetic event streams."""

import pytest

from repro.sim.tracing import CoherenceEvent
from repro.analysis.checker import CoherenceModelChecker


def feed(checker, *events):
    for event in events:
        checker.record(event)
    return [violation.rule for violation in checker.violations]


def ev(kind, region="r", first=0, last=0, state="", detail="", time=0.0):
    return CoherenceEvent(
        kind, time, region=region, first=first, last=last,
        state=state, detail=detail,
    )


def alloc(region="r", blocks=4):
    return ev("alloc", region=region, last=blocks - 1, detail="size=16384")


def transition(state, first=0, last=0, region="r"):
    return ev("transition", region=region, first=first, last=last,
              state=state)


class TestLegalTraces:
    def test_batch_lifecycle_is_clean(self):
        checker = CoherenceModelChecker()
        checker.configure("batch")
        rules = feed(
            checker,
            alloc(blocks=2),
            transition("dirty", last=1),          # on_alloc: CPU owns
            ev("flush", first=0, detail="sync"),  # pre_call flushes...
            ev("flush", first=1, detail="sync"),
            transition("invalid", last=1),        # ...then invalidates
            ev("call", region="", detail="*"),
            ev("fetch", first=0, detail="pending=0"),
            ev("fetch", first=1, detail="pending=0"),
            transition("dirty", last=1),          # post_sync: host owns
            ev("sync", region=""),
            ev("free", region="r", last=1),
        )
        assert rules == []
        assert checker.events_checked == 11

    def test_lazy_fault_driven_readback_is_clean(self):
        checker = CoherenceModelChecker()
        checker.configure("lazy")
        rules = feed(
            checker,
            alloc(blocks=1),
            transition("dirty"),                   # CPU write fault
            ev("flush", first=0, detail="sync"),   # release flushes
            transition("read-only"),
            transition("invalid"),                 # written by the kernel
            ev("call", region="", detail="*"),
            ev("sync", region=""),
            ev("fetch", first=0, detail="pending=0"),  # CPU read fault
            transition("read-only"),
        )
        assert rules == []


class TestTransitionRules:
    def test_dirty_with_stale_host_flags(self):
        checker = CoherenceModelChecker()
        rules = feed(
            checker,
            alloc(blocks=1),
            transition("invalid"),       # kernel output lives on the device
            transition("dirty"),         # claimed dirty without any fetch
        )
        assert rules == ["dirty-stale-host"]

    def test_read_only_with_stale_host_flags(self):
        checker = CoherenceModelChecker()
        rules = feed(
            checker,
            alloc(blocks=1),
            transition("invalid"),
            transition("read-only"),     # promoted without fetching
        )
        assert rules == ["ro-stale-host"]

    def test_read_only_with_stale_device_flags(self):
        checker = CoherenceModelChecker()
        rules = feed(
            checker,
            alloc(blocks=1),
            transition("dirty"),
            transition("read-only"),     # demoted without flushing
        )
        assert rules == ["ro-stale-device"]

    def test_invalidating_unflushed_dirty_block_loses_the_update(self):
        checker = CoherenceModelChecker()
        rules = feed(
            checker,
            alloc(blocks=1),
            transition("dirty"),
            transition("invalid"),       # host writes silently dropped
        )
        assert rules == ["invalid-lost-update"]

    def test_flush_then_invalidate_is_legal(self):
        checker = CoherenceModelChecker()
        rules = feed(
            checker,
            alloc(blocks=1),
            transition("dirty"),
            ev("flush", first=0, detail="sync"),
            transition("invalid"),
        )
        assert rules == []

    def test_adoption_prevents_cascades(self):
        """One bug, one violation: the checker adopts the claim after
        flagging, so downstream legal traffic stays quiet."""
        checker = CoherenceModelChecker()
        rules = feed(
            checker,
            alloc(blocks=1),
            transition("invalid"),
            transition("read-only"),           # BUG: flagged once
            transition("dirty"),               # would re-flag without adopt
            ev("flush", first=0, detail="sync"),
            transition("read-only"),
        )
        assert rules == ["ro-stale-host"]


class TestDataMovement:
    def test_flush_of_stale_host_copy_flags(self):
        checker = CoherenceModelChecker()
        rules = feed(
            checker,
            alloc(blocks=1),
            transition("invalid"),
            ev("flush", first=0, detail="sync"),  # sends stale bytes
        )
        assert rules == ["flush-stale-host"]

    def test_fetch_with_pending_kernels_is_a_barrier_bypass(self):
        checker = CoherenceModelChecker()
        rules = feed(
            checker,
            alloc(blocks=1),
            transition("invalid"),
            ev("fetch", first=0, detail="pending=2"),
        )
        assert rules == ["barrier-bypass"]

    def test_host_reading_unreplayed_ledger_bytes_is_a_barrier_bypass(self):
        checker = CoherenceModelChecker()
        rules = feed(
            checker,
            alloc(blocks=1),
            ev("materialize", region="", detail="pending=0"),
            ev("materialize", region="", detail="pending=1"),
        )
        assert rules == ["barrier-bypass"]

    def test_fetch_while_dirty_clobbers_host_writes(self):
        checker = CoherenceModelChecker()
        rules = feed(
            checker,
            alloc(blocks=1),
            transition("dirty"),
            ev("flush", first=0, detail="sync"),
            ev("fetch", first=0, detail="pending=0"),
        )
        assert rules == ["fetch-clobber"]

    def test_bulk_device_op_then_fetch_is_legal(self):
        checker = CoherenceModelChecker()
        rules = feed(
            checker,
            alloc(blocks=1),
            ev("bulk", first=0, detail="memset"),
            ev("fetch", first=0, detail="pending=0"),
            transition("read-only"),
        )
        assert rules == []


class TestRollingRules:
    def test_fifo_eviction_order_enforced(self):
        checker = CoherenceModelChecker()
        checker.configure("rolling")
        rules = feed(
            checker,
            alloc(blocks=4),
            ev("limit", region="", detail="2"),
            transition("dirty", first=0, last=0),
            transition("dirty", first=1, last=1),
            ev("evict", first=1),              # newest first: wrong end
        )
        assert rules == ["evict-order"]

    def test_fifo_head_eviction_is_clean(self):
        checker = CoherenceModelChecker()
        checker.configure("rolling")
        rules = feed(
            checker,
            alloc(blocks=4),
            ev("limit", region="", detail="2"),
            transition("dirty", first=0, last=0),
            transition("dirty", first=1, last=1),
            ev("evict", first=0),
            ev("flush", first=0, detail="eager"),
            transition("read-only", first=0, last=0),
        )
        assert rules == []

    def test_forced_eviction_may_break_fifo_order(self):
        checker = CoherenceModelChecker()
        checker.configure("rolling")
        rules = feed(
            checker,
            alloc(blocks=4),
            ev("limit", region="", detail="2"),
            transition("dirty", first=0, last=0),
            transition("dirty", first=1, last=1),
            ev("evict", first=1, detail="forced"),  # OOM relief: any order
        )
        assert rules == []

    def test_unbounded_dirty_cache_flags(self):
        checker = CoherenceModelChecker()
        checker.configure("rolling")
        events = [alloc(blocks=8), ev("limit", region="", detail="1")]
        events += [
            transition("dirty", first=i, last=i) for i in range(4)
        ]
        rules = feed(checker, *events)
        assert "rolling-bound" in rules


class TestSynchronizationPoints:
    def test_dirty_block_at_call_flags(self):
        checker = CoherenceModelChecker()
        rules = feed(
            checker,
            alloc(blocks=1),
            transition("dirty"),
            ev("call", region="", detail="*"),
        )
        assert rules == ["call-dirty"]

    def test_written_region_left_valid_flags(self):
        checker = CoherenceModelChecker()
        rules = feed(
            checker,
            alloc(region="out", blocks=1),
            ev("call", region="", detail="out"),  # kernel writes "out"
        )
        assert rules == ["call-written-valid"]

    def test_unwritten_region_staying_valid_is_legal(self):
        checker = CoherenceModelChecker()
        rules = feed(
            checker,
            alloc(region="in", blocks=1),
            alloc(region="out", blocks=1),
            transition("invalid", region="out"),
            ev("call", region="", detail="out"),
            ev("fetch", first=0, region="out", detail="pending=0"),
            transition("read-only", region="out"),
        )
        assert rules == []

    def test_batch_sync_with_missing_fetch_flags(self):
        checker = CoherenceModelChecker()
        checker.configure("batch")
        rules = feed(
            checker,
            alloc(blocks=1),
            ev("flush", first=0, detail="sync"),
            transition("invalid"),
            ev("call", region="", detail="*"),
            ev("sync", region=""),          # batch never fetched back
        )
        assert rules == ["sync-missing-fetch"]

    def test_lazy_sync_defers_fetches_legally(self):
        checker = CoherenceModelChecker()
        checker.configure("lazy")
        rules = feed(
            checker,
            alloc(blocks=1),
            ev("flush", first=0, detail="sync"),
            transition("invalid"),
            ev("call", region="", detail="*"),
            ev("sync", region=""),          # lazy faults back on demand
        )
        assert rules == []


class TestRecoveryEvents:
    def test_device_recovery_requires_reflush(self):
        checker = CoherenceModelChecker()
        rules = feed(
            checker,
            alloc(blocks=2),
            ev("protocol", region="", detail="device-recovery"),
            ev("flush", first=0, detail="sync"),
            ev("flush", first=1, detail="sync"),
            transition("read-only", last=1),
        )
        assert rules == []

    def test_skipping_recovery_flush_flags(self):
        checker = CoherenceModelChecker()
        rules = feed(
            checker,
            alloc(blocks=2),
            ev("protocol", region="", detail="device-recovery"),
            transition("read-only", last=1),   # device copies are gone
        )
        assert rules == ["ro-stale-device"]

    def test_protocol_switch_reconfigures(self):
        checker = CoherenceModelChecker()
        checker.configure("rolling")
        feed(checker, ev("protocol", region="", detail="batch"))
        assert checker.protocol == "batch"
        assert len(checker.fifo) == 0


class TestViolationShape:
    def test_violation_carries_location_and_diff(self):
        checker = CoherenceModelChecker()
        feed(
            checker,
            alloc(blocks=8),
            transition("invalid", last=7),
            transition("read-only", first=2, last=6),
        )
        violation = checker.violations[0]
        assert violation.source == "checker"
        assert violation.region == "r"
        assert "2..6 (5 blocks)" in violation.message

    def test_max_violations_caps_the_list(self):
        checker = CoherenceModelChecker(max_violations=3)
        events = [alloc(blocks=1)]
        for _ in range(10):
            events += [transition("invalid"), transition("dirty")]
        feed(checker, *events)
        assert len(checker.violations) == 3
