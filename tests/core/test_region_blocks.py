"""Shared regions and blocks."""

import pytest

from repro.util.intervals import Interval
from repro.os.paging import PAGE_SIZE
from repro.core.blocks import BlockState
from repro.core.region import SharedRegion


class TestSharedRegion:
    def test_blocks_cover_mapped_range(self):
        region = SharedRegion("r", 0x10000, 0x10000, 10 * PAGE_SIZE,
                              4 * PAGE_SIZE)
        assert len(region.blocks) == 3
        assert region.blocks[0].interval.start == 0x10000
        assert region.blocks[-1].interval.end == 0x10000 + 10 * PAGE_SIZE
        assert region.blocks[-1].size == 2 * PAGE_SIZE  # trailing remainder

    def test_unaligned_size_rounds_to_page(self):
        region = SharedRegion("r", 0x10000, 0x10000, 100, PAGE_SIZE)
        assert region.mapped_size == PAGE_SIZE
        assert len(region.blocks) == 1

    def test_whole_object_block(self):
        region = SharedRegion("r", 0x10000, 0x10000, 3 * PAGE_SIZE,
                              3 * PAGE_SIZE)
        assert len(region.blocks) == 1

    def test_sub_page_block_size_rounds_up(self):
        # A 4-byte "whole object" block is still one page.
        region = SharedRegion("r", 0x10000, 0x10000, 4, 4)
        assert region.block_size == PAGE_SIZE
        assert len(region.blocks) == 1

    def test_aliased_detection(self):
        assert SharedRegion("r", 0x1000, 0x1000, 16, 16).is_aliased
        assert not SharedRegion("r", 0x1000, 0x2000, 16, 16).is_aliased

    def test_device_address_translation(self):
        region = SharedRegion("r", 0x10000, 0x90000, PAGE_SIZE, PAGE_SIZE)
        assert region.device_address_of(0x10000) == 0x90000
        assert region.device_address_of(0x10010) == 0x90010
        with pytest.raises(ValueError):
            region.device_address_of(0x20000)

    def test_blocks_overlapping(self):
        region = SharedRegion("r", 0, 0, 4 * PAGE_SIZE, PAGE_SIZE)
        hits = region.blocks_overlapping(
            Interval(PAGE_SIZE - 1, 2 * PAGE_SIZE + 1)
        )
        assert [b.index for b in hits] == [0, 1, 2]
        assert region.blocks_overlapping(Interval(0, 0)) == []

    def test_bad_block_size_rejected(self):
        with pytest.raises(ValueError):
            SharedRegion("r", 0, 0, PAGE_SIZE, 0)


class TestBlock:
    def test_device_start_offsets(self):
        region = SharedRegion("r", 0x10000, 0x90000, 2 * PAGE_SIZE, PAGE_SIZE)
        assert region.blocks[0].device_start == 0x90000
        assert region.blocks[1].device_start == 0x90000 + PAGE_SIZE

    def test_initial_state(self):
        region = SharedRegion("r", 0, 0, PAGE_SIZE, PAGE_SIZE)
        assert region.blocks[0].state is BlockState.READ_ONLY

    def test_repr(self):
        region = SharedRegion("r", 0, 0, PAGE_SIZE, PAGE_SIZE)
        assert "r" in repr(region.blocks[0])
        assert "blocks=1" in repr(region)
