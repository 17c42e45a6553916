"""The Figure 6 transition matrix, exhaustively.

For every (protocol, initial state, access kind) combination the tests pin
down the resulting state, the protections, and whether data moved — the
full state machine as drawn in the paper.  Protections are asserted as the
MMU's verdict on an access, since a shared region's protections are a view
of its block states.
"""

import pytest

from repro.os.paging import PAGE_SIZE, AccessKind
from repro.core.blocks import BlockState

READ_WRITE = {AccessKind.READ, AccessKind.WRITE}


def allowed_kinds(gmac, ptr):
    """The access kinds the MMU lets through for one byte at ``ptr``."""
    space = gmac.process.address_space
    return {
        kind for kind in AccessKind
        if space.check(int(ptr), 1, kind) is None
    }


def _force_state(gmac, region, state):
    """Drive a fresh region into a given state via real operations."""
    ptr_addr = region.host_start
    if state is BlockState.READ_ONLY:
        return  # fresh allocations start read-only for lazy/rolling
    if state is BlockState.DIRTY:
        gmac.process.write(ptr_addr, b"d")
        return
    if state is BlockState.INVALID:
        gmac.manager.release_for_call()
        return
    raise AssertionError(state)


@pytest.mark.parametrize("protocol", ["lazy", "rolling"])
class TestTransitionMatrix:
    """The fault-driven protocols share Figure 6(b)'s transitions."""

    def _setup(self, gmac_factory, protocol):
        gmac = gmac_factory(
            protocol,
            protocol_options=(
                {"block_size": PAGE_SIZE, "rolling_size": 4}
                if protocol == "rolling" else None
            ),
        )
        ptr = gmac.alloc(PAGE_SIZE)
        region = gmac.manager.region_at(int(ptr))
        return gmac, ptr, region

    def test_read_only_plus_read_stays(self, gmac_factory, protocol):
        gmac, ptr, region = self._setup(gmac_factory, protocol)
        before = gmac.bytes_to_host
        ptr.read_bytes(8)
        assert region.blocks[0].state is BlockState.READ_ONLY
        assert gmac.bytes_to_host == before  # no transfer
        assert gmac.fault_count == 0         # no fault either

    def test_read_only_plus_write_dirties_without_transfer(
            self, gmac_factory, protocol):
        gmac, ptr, region = self._setup(gmac_factory, protocol)
        ptr.write_bytes(b"w")
        block = region.blocks[0]
        assert block.state is BlockState.DIRTY
        assert gmac.bytes_to_host == 0
        assert allowed_kinds(gmac, ptr) == READ_WRITE

    def test_invalid_plus_read_fetches_to_read_only(self, gmac_factory,
                                                    protocol):
        gmac, ptr, region = self._setup(gmac_factory, protocol)
        _force_state(gmac, region, BlockState.INVALID)
        ptr.read_bytes(8)
        block = region.blocks[0]
        assert block.state is BlockState.READ_ONLY
        assert gmac.bytes_to_host == block.size
        assert allowed_kinds(gmac, ptr) == {AccessKind.READ}

    def test_invalid_plus_write_fetches_to_dirty(self, gmac_factory,
                                                 protocol):
        gmac, ptr, region = self._setup(gmac_factory, protocol)
        _force_state(gmac, region, BlockState.INVALID)
        ptr.write_bytes(b"w")
        block = region.blocks[0]
        assert block.state is BlockState.DIRTY
        assert gmac.bytes_to_host == block.size  # Fig 6(b): write transfer

    def test_dirty_plus_any_access_is_silent(self, gmac_factory, protocol):
        gmac, ptr, region = self._setup(gmac_factory, protocol)
        _force_state(gmac, region, BlockState.DIRTY)
        faults = gmac.fault_count
        ptr.read_bytes(4)
        ptr.write_bytes(b"x")
        assert gmac.fault_count == faults
        assert region.blocks[0].state is BlockState.DIRTY

    def test_call_flushes_dirty_and_invalidates(self, gmac_factory, protocol):
        gmac, ptr, region = self._setup(gmac_factory, protocol)
        _force_state(gmac, region, BlockState.DIRTY)
        moved_before = gmac.bytes_to_accelerator
        gmac.manager.release_for_call()
        assert gmac.bytes_to_accelerator > moved_before
        assert region.blocks[0].state is BlockState.INVALID
        assert allowed_kinds(gmac, ptr) == set()

    def test_call_skips_clean_blocks(self, gmac_factory, protocol):
        gmac, ptr, region = self._setup(gmac_factory, protocol)
        moved_before = gmac.bytes_to_accelerator
        gmac.manager.release_for_call()
        assert gmac.bytes_to_accelerator == moved_before

    def test_call_is_idempotent_on_invalid(self, gmac_factory, protocol):
        gmac, ptr, region = self._setup(gmac_factory, protocol)
        gmac.manager.release_for_call()
        moved = gmac.bytes_to_accelerator
        gmac.manager.release_for_call()
        assert gmac.bytes_to_accelerator == moved


class TestBatchMatrix:
    """Figure 6(a): no faults, everything moves at the boundaries."""

    def test_every_state_is_dirty_or_invalid(self, gmac_factory):
        gmac = gmac_factory("batch")
        ptr = gmac.alloc(PAGE_SIZE)
        region = gmac.manager.region_at(int(ptr))
        assert region.blocks[0].state is BlockState.DIRTY
        gmac.manager.release_for_call()
        assert region.blocks[0].state is BlockState.INVALID
        gmac.manager.acquire_after_return()
        assert region.blocks[0].state is BlockState.DIRTY

    def test_sync_moves_everything_back(self, gmac_factory):
        gmac = gmac_factory("batch")
        gmac.alloc(PAGE_SIZE)
        gmac.alloc(3 * PAGE_SIZE)
        gmac.manager.release_for_call()
        gmac.manager.acquire_after_return()
        assert gmac.bytes_to_host == 4 * PAGE_SIZE

    def test_protections_never_installed(self, gmac_factory):
        gmac = gmac_factory("batch")
        ptr = gmac.alloc(PAGE_SIZE)
        region = gmac.manager.region_at(int(ptr))
        for _ in range(2):
            gmac.manager.release_for_call()
            # INVALID, yet batch lets the CPU read and write.
            assert region.blocks[0].state is BlockState.INVALID
            assert allowed_kinds(gmac, ptr) == READ_WRITE
            gmac.manager.acquire_after_return()
            assert allowed_kinds(gmac, ptr) == READ_WRITE
