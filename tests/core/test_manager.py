"""The shared memory manager: address space, index, fault dispatch."""

import numpy as np
import pytest

from repro.util.errors import GmacError, ProtectionError, SegmentationFault
from repro.util.units import KB
from repro.os.paging import PAGE_SIZE, AccessKind, Prot
from repro.core.blocks import BlockState


@pytest.fixture
def gmac(gmac_factory):
    return gmac_factory("rolling", protocol_options={"block_size": 64 * KB})


class TestSharedAddressSpace:
    def test_single_pointer_for_both_processors(self, gmac):
        ptr = gmac.alloc(PAGE_SIZE)
        region = gmac.manager.region_at(int(ptr))
        assert region.is_aliased
        assert gmac.manager.translate(int(ptr)) == int(ptr)

    def test_translation_with_offset(self, gmac):
        ptr = gmac.alloc(4 * PAGE_SIZE)
        assert gmac.manager.translate(int(ptr) + 100) == int(ptr) + 100

    def test_translate_non_shared_rejected(self, gmac):
        with pytest.raises(GmacError):
            gmac.manager.translate(0x1234)

    def test_regions_listed(self, gmac):
        a = gmac.alloc(PAGE_SIZE, name="a")
        b = gmac.alloc(PAGE_SIZE, name="b")
        names = {region.name for region in gmac.manager.regions()}
        assert names == {"a", "b"}
        assert gmac.manager.region_at(int(a)).name == "a"
        assert gmac.manager.region_starting_at(int(b)).name == "b"

    def test_block_index_tracks_blocks(self, gmac):
        gmac.alloc(256 * KB)  # 4 blocks of 64KB
        assert gmac.manager.block_count == 4

    def test_free_removes_everything(self, gmac):
        ptr = gmac.alloc(256 * KB)
        gmac.free(ptr)
        assert gmac.manager.block_count == 0
        assert gmac.manager.region_at(int(ptr)) is None

    def test_free_unknown_rejected(self, gmac):
        with pytest.raises(GmacError):
            gmac.free(0xABCD)

    def test_double_free_rejected(self, gmac):
        ptr = gmac.alloc(PAGE_SIZE)
        gmac.free(ptr)
        with pytest.raises(GmacError):
            gmac.free(ptr)

    def test_free_all(self, gmac):
        gmac.alloc(PAGE_SIZE)
        gmac.alloc(PAGE_SIZE)
        gmac.manager.free_all()
        assert gmac.manager.block_count == 0

    def test_device_memory_released_on_free(self, gmac):
        device = gmac.layer.gpu.memory
        baseline = device.bytes_in_use
        ptr = gmac.alloc(1 << 20)
        assert device.bytes_in_use > baseline
        gmac.free(ptr)
        assert device.bytes_in_use == baseline

    def test_bad_size_rejected(self, gmac):
        with pytest.raises(GmacError):
            gmac.alloc(0)

    def test_block_states_own_shared_protections(self, gmac):
        ptr = gmac.alloc(PAGE_SIZE)
        space = gmac.process.address_space
        with pytest.raises(ProtectionError):
            space.mprotect(int(ptr), PAGE_SIZE, Prot.RW)
        # A fresh block is read-only: the refused call changed nothing.
        assert space.check(int(ptr), 1, AccessKind.READ) is None
        assert space.check(int(ptr), 1, AccessKind.WRITE) == int(ptr)

    def test_safe_alloc_not_aliased(self, gmac):
        ptr = gmac.safe_alloc(PAGE_SIZE)
        region = gmac.manager.region_at(int(ptr))
        assert not region.is_aliased
        assert gmac.safe(ptr) == region.device_start


class TestFaultDispatch:
    def test_fault_outside_shared_memory_still_crashes(self, app, gmac):
        gmac.alloc(PAGE_SIZE)  # handler is registered, but not for this:
        with pytest.raises(SegmentationFault):
            app.process.read(0xDEAD0000, 4)

    def test_fault_in_gap_between_regions_crashes(self, app, gmac):
        a = gmac.alloc(PAGE_SIZE)
        region = gmac.manager.region_at(int(a))
        # Just past the region's mapped end: floor() finds a's last block,
        # but the containment check must reject it.
        with pytest.raises(SegmentationFault):
            app.process.read(region.interval.end, 4)

    def test_fault_count(self, app, gmac):
        ptr = gmac.alloc(PAGE_SIZE)
        ptr.write_bytes(b"x")  # write fault on a read-only fresh block
        assert gmac.fault_count == 1

    def test_fault_charges_signal_time(self, app, gmac):
        from repro.sim.tracing import Category

        ptr = gmac.alloc(PAGE_SIZE)
        ptr.write_bytes(b"x")
        assert app.machine.accounting.totals[Category.SIGNAL] > 0

    @pytest.mark.parametrize("name", ["pns", "tpacf"])
    def test_one_delivery_per_block_fault(self, name, monkeypatch):
        """Each block fault is its own signal delivery (Section 4.3),
        also for bulk accesses that span many blocks under rolling."""
        from repro.experiments.common import make_workload
        from repro.os.signals import SignalDispatcher

        calls = []
        real_deliver = SignalDispatcher.deliver

        def deliver(self, info):
            calls.append(info.address)
            return real_deliver(self, info)

        monkeypatch.setattr(SignalDispatcher, "deliver", deliver)
        result = make_workload(name, quick=True).execute(
            mode="gmac", protocol="rolling"
        )
        assert result.verified
        faults = result.extra["gmac"].manager.fault_count
        assert faults > 0
        assert len(calls) == faults


class TestDataMovement:
    def test_flush_then_fetch_roundtrip(self, gmac):
        ptr = gmac.alloc(PAGE_SIZE)
        region = gmac.manager.region_at(int(ptr))
        block = region.blocks[0]
        ptr.write_bytes(b"payload")
        gmac.manager.flush_to_device(block, sync=True)
        gmac.process.address_space.poke(int(ptr), b"clobber")
        gmac.manager.fetch_to_host(block)
        assert gmac.process.address_space.peek(int(ptr), 7) == b"payload"

    def test_byte_counters(self, gmac):
        ptr = gmac.alloc(PAGE_SIZE)
        region = gmac.manager.region_at(int(ptr))
        gmac.manager.flush_to_device(region.blocks[0], sync=True)
        gmac.manager.fetch_to_host(region.blocks[0])
        assert gmac.manager.bytes_to_accelerator == PAGE_SIZE
        assert gmac.manager.bytes_to_host == PAGE_SIZE
        gmac.manager.reset_counters()
        assert gmac.manager.bytes_to_accelerator == 0

    def test_async_flush_counts_as_eager(self, gmac):
        ptr = gmac.alloc(PAGE_SIZE)
        region = gmac.manager.region_at(int(ptr))
        gmac.manager.flush_to_device(region.blocks[0], sync=False)
        assert gmac.manager.eager_bytes_to_accelerator == PAGE_SIZE

    def test_ensure_device_canonical_flushes_dirty(self, gmac):
        ptr = gmac.alloc(PAGE_SIZE)
        region = gmac.manager.region_at(int(ptr))
        ptr.write_bytes(b"dirty data")
        assert region.blocks[0].state is BlockState.DIRTY
        gmac.manager.ensure_device_canonical(region, region.interval)
        assert region.blocks[0].state is BlockState.READ_ONLY
        assert gmac.layer.gpu.memory.read(region.device_start, 10) == b"dirty data"

    def test_ensure_host_canonical_fetches_invalid(self, gmac):
        ptr = gmac.alloc(PAGE_SIZE)
        region = gmac.manager.region_at(int(ptr))
        gmac.layer.gpu.memory.write(region.device_start, b"from device")
        gmac.manager.set_region_blocks(region, BlockState.INVALID)
        gmac.manager.ensure_host_canonical(region, region.interval)
        assert ptr.read_bytes(11) == b"from device"
