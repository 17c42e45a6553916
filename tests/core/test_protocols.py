"""The Figure 6 state machines, protocol by protocol."""

import numpy as np
import pytest

from repro.util.units import KB
from repro.os.paging import PAGE_SIZE, AccessKind
from repro.core.blocks import BlockState


def region_of(gmac, ptr):
    return gmac.manager.region_at(int(ptr))


def states(gmac, ptr):
    return [block.state for block in region_of(gmac, ptr).blocks]


class TestBatchUpdate:
    def test_fresh_region_is_dirty_and_rw(self, gmac_factory):
        gmac = gmac_factory("batch")
        ptr = gmac.alloc(PAGE_SIZE)
        region = region_of(gmac, ptr)
        assert states(gmac, ptr) == [BlockState.DIRTY]
        space = gmac.process.address_space
        assert space.check(int(ptr), 1, AccessKind.READ) is None
        assert space.check(int(ptr), 1, AccessKind.WRITE) is None

    def test_no_faults_ever(self, app, gmac_factory, scale_kernel):
        gmac = gmac_factory("batch")
        ptr = gmac.alloc(PAGE_SIZE)
        ptr.write_bytes(b"data")
        gmac.call(scale_kernel, data=ptr, n=1, factor=1.0)
        gmac.sync()
        ptr.read_bytes(4)
        assert app.process.signals.delivered == 0

    def test_everything_moves_both_ways_per_call(self, gmac_factory,
                                                 scale_kernel):
        gmac = gmac_factory("batch")
        used = gmac.alloc(PAGE_SIZE, name="used")
        unused = gmac.alloc(3 * PAGE_SIZE, name="unused")
        gmac.call(scale_kernel, data=used, n=1, factor=1.0)
        gmac.sync()
        # Both regions crossed the bus in both directions.
        assert gmac.bytes_to_accelerator == 4 * PAGE_SIZE
        assert gmac.bytes_to_host == 4 * PAGE_SIZE

    def test_back_to_back_calls_skip_invalid_host_copy(self, gmac_factory,
                                                       scale_kernel):
        gmac = gmac_factory("batch")
        ptr = gmac.alloc(PAGE_SIZE)
        values = np.full(16, 2.0, dtype=np.float32)
        ptr.write_array(values)
        gmac.call(scale_kernel, data=ptr, n=16, factor=3.0)
        gmac.call(scale_kernel, data=ptr, n=16, factor=3.0)
        gmac.sync()
        # The second call must NOT overwrite device data with the stale
        # host copy: the result reflects both kernel executions.
        assert np.allclose(ptr.read_array("f4", 16), values * 9.0)


class TestLazyUpdate:
    def test_fresh_region_read_only(self, gmac_factory):
        gmac = gmac_factory("lazy")
        ptr = gmac.alloc(4 * PAGE_SIZE)
        assert states(gmac, ptr) == [BlockState.READ_ONLY]

    def test_read_of_fresh_region_does_not_fault(self, app, gmac_factory):
        gmac = gmac_factory("lazy")
        ptr = gmac.alloc(PAGE_SIZE)
        ptr.read_bytes(16)
        assert app.process.signals.delivered == 0

    def test_write_marks_whole_object_dirty(self, gmac_factory):
        gmac = gmac_factory("lazy")
        ptr = gmac.alloc(4 * PAGE_SIZE)
        ptr.write_bytes(b"x")  # one byte dirties the whole object
        assert states(gmac, ptr) == [BlockState.DIRTY]

    def test_only_dirty_objects_flushed_on_call(self, gmac_factory,
                                                scale_kernel):
        gmac = gmac_factory("lazy")
        dirty = gmac.alloc(PAGE_SIZE, name="dirty")
        clean = gmac.alloc(PAGE_SIZE, name="clean")
        dirty.write_bytes(b"x")
        gmac.call(scale_kernel, data=dirty, n=1, factor=1.0)
        assert gmac.bytes_to_accelerator == PAGE_SIZE  # only `dirty`

    def test_all_invalid_after_call(self, gmac_factory, scale_kernel):
        gmac = gmac_factory("lazy")
        ptr = gmac.alloc(PAGE_SIZE)
        gmac.call(scale_kernel, data=ptr, n=1, factor=1.0)
        assert states(gmac, ptr) == [BlockState.INVALID]

    def test_nothing_returns_until_touched(self, gmac_factory, scale_kernel):
        gmac = gmac_factory("lazy")
        ptr = gmac.alloc(PAGE_SIZE)
        gmac.call(scale_kernel, data=ptr, n=1, factor=1.0)
        gmac.sync()
        assert gmac.bytes_to_host == 0
        ptr.read_bytes(4)  # first touch fetches the object
        assert gmac.bytes_to_host == PAGE_SIZE

    def test_invalid_read_becomes_read_only(self, gmac_factory, scale_kernel):
        gmac = gmac_factory("lazy")
        ptr = gmac.alloc(PAGE_SIZE)
        gmac.call(scale_kernel, data=ptr, n=1, factor=1.0)
        gmac.sync()
        ptr.read_bytes(4)
        assert states(gmac, ptr) == [BlockState.READ_ONLY]

    def test_invalid_write_fetches_then_dirties(self, gmac_factory,
                                                scale_kernel):
        gmac = gmac_factory("lazy")
        ptr = gmac.alloc(PAGE_SIZE)
        values = np.arange(16, dtype=np.float32)
        ptr.write_array(values)
        gmac.call(scale_kernel, data=ptr, n=16, factor=2.0)
        gmac.sync()
        # Partial write: the rest of the object must come back first.
        ptr.write_array(np.array([100.0], dtype=np.float32))
        assert states(gmac, ptr) == [BlockState.DIRTY]
        result = ptr.read_array("f4", 16)
        assert result[0] == 100.0
        assert np.allclose(result[1:], values[1:] * 2.0)


class TestRollingUpdate:
    def make(self, gmac_factory, block_size=PAGE_SIZE, rolling_size=2):
        return gmac_factory(
            "rolling",
            protocol_options={
                "block_size": block_size, "rolling_size": rolling_size,
            },
        )

    def test_block_granularity(self, gmac_factory):
        gmac = self.make(gmac_factory)
        ptr = gmac.alloc(4 * PAGE_SIZE)
        ptr.write_bytes(b"x")  # dirties only the first block
        assert states(gmac, ptr) == [
            BlockState.DIRTY, BlockState.READ_ONLY,
            BlockState.READ_ONLY, BlockState.READ_ONLY,
        ]

    def test_eviction_when_rolling_size_exceeded(self, gmac_factory):
        gmac = self.make(gmac_factory, rolling_size=2)
        ptr = gmac.alloc(4 * PAGE_SIZE)
        for index in range(3):
            ptr.write_bytes(b"x", offset=index * PAGE_SIZE)
        # Oldest block was evicted (read-only), two newest remain dirty.
        assert states(gmac, ptr) == [
            BlockState.READ_ONLY, BlockState.DIRTY,
            BlockState.DIRTY, BlockState.READ_ONLY,
        ]
        assert gmac.protocol.evictions == 1
        assert gmac.manager.eager_bytes_to_accelerator == PAGE_SIZE

    def test_evicted_data_reaches_device(self, gmac_factory):
        gmac = self.make(gmac_factory, rolling_size=1)
        ptr = gmac.alloc(2 * PAGE_SIZE)
        ptr.write_bytes(b"evict me", offset=0)
        ptr.write_bytes(b"second", offset=PAGE_SIZE)  # evicts block 0
        region = region_of(gmac, ptr)
        assert gmac.layer.gpu.memory.read(
            region.device_start, 8
        ) == b"evict me"

    def test_rewrite_of_evicted_block_refaults(self, app, gmac_factory):
        gmac = self.make(gmac_factory, rolling_size=1)
        ptr = gmac.alloc(2 * PAGE_SIZE)
        ptr.write_bytes(b"a")            # fault 1: dirty block 0
        ptr.write_bytes(b"b", offset=PAGE_SIZE)  # fault 2: evict block 0
        before = app.process.signals.delivered
        ptr.write_bytes(b"c")            # fault 3: re-dirty block 0
        assert app.process.signals.delivered == before + 1

    def test_invalid_read_fetches_single_block(self, gmac_factory,
                                               scale_kernel):
        gmac = self.make(gmac_factory)
        ptr = gmac.alloc(4 * PAGE_SIZE)
        gmac.call(scale_kernel, data=ptr, n=1, factor=1.0)
        gmac.sync()
        ptr.read_bytes(4, offset=2 * PAGE_SIZE)
        assert gmac.bytes_to_host == PAGE_SIZE  # one block, not the object
        assert states(gmac, ptr) == [
            BlockState.INVALID, BlockState.INVALID,
            BlockState.READ_ONLY, BlockState.INVALID,
        ]

    def test_adaptive_rolling_size_grows(self, gmac_factory):
        gmac = gmac_factory("rolling", protocol_options={"block_size": PAGE_SIZE})
        assert gmac.protocol.adaptive
        assert gmac.protocol.rolling_size == 0
        gmac.alloc(PAGE_SIZE)
        assert gmac.protocol.rolling_size == 2
        gmac.alloc(PAGE_SIZE)
        assert gmac.protocol.rolling_size == 4

    def test_fixed_rolling_size_validation(self, gmac_factory):
        with pytest.raises(ValueError):
            self.make(gmac_factory, rolling_size=0)

    def test_pre_call_flushes_remaining_dirty(self, gmac_factory,
                                              scale_kernel):
        gmac = self.make(gmac_factory, rolling_size=8)
        ptr = gmac.alloc(2 * PAGE_SIZE)
        ptr.write_bytes(b"x" * (2 * PAGE_SIZE))
        gmac.call(scale_kernel, data=ptr, n=1, factor=1.0)
        assert gmac.bytes_to_accelerator == 2 * PAGE_SIZE
        assert states(gmac, ptr) == [BlockState.INVALID, BlockState.INVALID]

    def test_free_purges_dirty_cache(self, gmac_factory):
        gmac = self.make(gmac_factory, rolling_size=4)
        ptr = gmac.alloc(2 * PAGE_SIZE)
        ptr.write_bytes(b"x" * (2 * PAGE_SIZE))
        gmac.free(ptr)
        assert len(gmac.protocol._dirty) == 0

    def test_eviction_serializes_on_staging_buffer(self, app, gmac_factory):
        gmac = self.make(gmac_factory, block_size=256 * KB, rolling_size=1)
        ptr = gmac.alloc(1 << 20)
        # Dirty blocks back to back with no CPU time in between: each
        # eviction must wait for the previous DMA (single staging buffer).
        for index in range(4):
            ptr.write_bytes(b"z", offset=index * 256 * KB)
        assert gmac.protocol.evictions == 3
        assert gmac.protocol.eviction_stall_s > 0
