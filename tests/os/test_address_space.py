"""The simulated address space: mmap/munmap/mprotect and the software MMU."""

import numpy as np
import pytest

from repro.util.errors import AddressError, AllocationError, ProtectionError
from repro.os.paging import PAGE_SIZE, Prot, AccessKind, page_floor, page_ceil
from repro.os.address_space import AddressSpace, MMAP_BASE


@pytest.fixture
def space():
    return AddressSpace()


class TestPagingHelpers:
    def test_page_floor(self):
        assert page_floor(0) == 0
        assert page_floor(PAGE_SIZE - 1) == 0
        assert page_floor(PAGE_SIZE) == PAGE_SIZE

    def test_page_ceil(self):
        assert page_ceil(0) == 0
        assert page_ceil(1) == PAGE_SIZE
        assert page_ceil(PAGE_SIZE) == PAGE_SIZE

    def test_required_prot(self):
        assert AccessKind.READ.required_prot == Prot.READ
        assert AccessKind.WRITE.required_prot == Prot.WRITE


class TestMmap:
    def test_anonymous_mapping_placed_in_mmap_area(self, space):
        mapping = space.mmap(PAGE_SIZE)
        assert mapping.start >= MMAP_BASE
        assert mapping.size == PAGE_SIZE

    def test_size_rounded_to_pages(self, space):
        mapping = space.mmap(100)
        assert mapping.size == PAGE_SIZE

    def test_two_mappings_disjoint(self, space):
        a = space.mmap(PAGE_SIZE)
        b = space.mmap(PAGE_SIZE)
        assert not a.interval.overlaps(b.interval)

    def test_fixed_address(self, space):
        mapping = space.mmap(PAGE_SIZE, fixed_address=0x7F00_0000_0000)
        assert mapping.start == 0x7F00_0000_0000

    def test_fixed_collision_rejected(self, space):
        space.mmap(2 * PAGE_SIZE, fixed_address=0x10000)
        with pytest.raises(AllocationError):
            space.mmap(PAGE_SIZE, fixed_address=0x10000 + PAGE_SIZE)

    def test_fixed_unaligned_rejected(self, space):
        with pytest.raises(AddressError):
            space.mmap(PAGE_SIZE, fixed_address=123)

    def test_zero_size_rejected(self, space):
        with pytest.raises(AllocationError):
            space.mmap(0)

    def test_munmap(self, space):
        mapping = space.mmap(PAGE_SIZE)
        space.munmap(mapping.start)
        assert space.mapping_at(mapping.start) is None
        with pytest.raises(AddressError):
            space.munmap(mapping.start)

    def test_address_reuse_after_munmap(self, space):
        first = space.mmap(PAGE_SIZE)
        space.munmap(first.start)
        second = space.mmap(PAGE_SIZE)
        assert second.start == first.start

    def test_fresh_mapping_is_zeroed(self, space):
        mapping = space.mmap(PAGE_SIZE)
        assert space.peek(mapping.start, PAGE_SIZE) == bytes(PAGE_SIZE)


class TestMprotect:
    def test_protect_whole_mapping(self, space):
        mapping = space.mmap(2 * PAGE_SIZE)
        space.mprotect(mapping.start, 2 * PAGE_SIZE, Prot.READ)
        assert mapping.prot_of(mapping.start) == Prot.READ
        assert mapping.prot_of(mapping.start + PAGE_SIZE) == Prot.READ

    def test_protect_subrange(self, space):
        mapping = space.mmap(4 * PAGE_SIZE)
        space.mprotect(mapping.start + PAGE_SIZE, PAGE_SIZE, Prot.NONE)
        assert mapping.prot_of(mapping.start) == Prot.RW
        assert mapping.prot_of(mapping.start + PAGE_SIZE) == Prot.NONE
        assert mapping.prot_of(mapping.start + 2 * PAGE_SIZE) == Prot.RW

    def test_unaligned_rejected(self, space):
        mapping = space.mmap(PAGE_SIZE)
        with pytest.raises(ProtectionError):
            space.mprotect(mapping.start + 1, 100, Prot.READ)

    def test_unmapped_rejected(self, space):
        with pytest.raises(ProtectionError):
            space.mprotect(0x5000, PAGE_SIZE, Prot.READ)

    def test_crossing_mapping_end_rejected(self, space):
        mapping = space.mmap(PAGE_SIZE, fixed_address=0x100000)
        with pytest.raises(ProtectionError):
            space.mprotect(mapping.start, 2 * PAGE_SIZE, Prot.READ)


class TestMmuCheck:
    def test_rw_access_clean(self, space):
        mapping = space.mmap(PAGE_SIZE)
        assert space.check(mapping.start, PAGE_SIZE, AccessKind.WRITE) is None

    def test_read_on_none_faults(self, space):
        mapping = space.mmap(PAGE_SIZE, prot=Prot.NONE)
        assert space.check(mapping.start, 4, AccessKind.READ) == mapping.start

    def test_write_on_readonly_faults(self, space):
        mapping = space.mmap(PAGE_SIZE, prot=Prot.READ)
        assert space.check(mapping.start, 4, AccessKind.WRITE) == mapping.start
        assert space.check(mapping.start, 4, AccessKind.READ) is None

    def test_fault_address_is_first_bad_page(self, space):
        mapping = space.mmap(3 * PAGE_SIZE)
        space.mprotect(mapping.start + 2 * PAGE_SIZE, PAGE_SIZE, Prot.READ)
        fault = space.check(mapping.start, 3 * PAGE_SIZE, AccessKind.WRITE)
        assert fault == mapping.start + 2 * PAGE_SIZE

    def test_fault_mid_page_reports_access_start(self, space):
        mapping = space.mmap(PAGE_SIZE, prot=Prot.READ)
        fault = space.check(mapping.start + 100, 4, AccessKind.WRITE)
        assert fault == mapping.start + 100

    def test_unmapped_access_faults_at_gap(self, space):
        mapping = space.mmap(PAGE_SIZE, fixed_address=0x200000)
        fault = space.check(mapping.start, 2 * PAGE_SIZE, AccessKind.READ)
        assert fault == mapping.end

    def test_access_spanning_two_mappings(self, space):
        a = space.mmap(PAGE_SIZE, fixed_address=0x300000)
        space.mmap(PAGE_SIZE, fixed_address=0x300000 + PAGE_SIZE)
        assert space.check(a.start, 2 * PAGE_SIZE, AccessKind.WRITE) is None

    def test_writable_prefix(self, space):
        mapping = space.mmap(2 * PAGE_SIZE)
        space.mprotect(mapping.start + PAGE_SIZE, PAGE_SIZE, Prot.READ)
        prefix = space.writable_prefix(
            mapping.start, 2 * PAGE_SIZE, AccessKind.WRITE
        )
        assert prefix == PAGE_SIZE

    def test_bad_size_rejected(self, space):
        with pytest.raises(ValueError):
            space.check(0, 0, AccessKind.READ)


class _BlockTableStub:
    """Duck-typed block table: two-page blocks, code 0 takes no access,
    code 1 takes reads, code 2 takes reads and writes."""

    block_size = 2 * PAGE_SIZE
    _ACCESS = {
        AccessKind.READ: np.array([False, True, True]),
        AccessKind.WRITE: np.array([False, False, True]),
    }

    def __init__(self, codes):
        self.states = np.array(codes, dtype=np.uint8)

    def access(self, kind):
        return self._ACCESS[kind]


class TestGuardedMapping:
    """A mapping bound to a block table takes its protections from the
    block states: no page bits, and ``mprotect`` is refused."""

    @staticmethod
    def _bound(space, codes):
        mapping = space.mmap(len(codes) * _BlockTableStub.block_size)
        mapping.guard = _BlockTableStub(codes)
        return mapping

    def test_fault_at_first_denied_block(self, space):
        mapping = self._bound(space, [2, 1, 0])
        start = mapping.start
        read_fault = space.check(start, mapping.size, AccessKind.READ)
        assert read_fault == start + 4 * PAGE_SIZE
        write_fault = space.check(start + 100, 3 * PAGE_SIZE, AccessKind.WRITE)
        assert write_fault == start + 2 * PAGE_SIZE
        mid_block = start + 2 * PAGE_SIZE + 8
        assert space.check(mid_block, 4, AccessKind.WRITE) == mid_block

    def test_state_change_takes_effect_at_once(self, space):
        mapping = self._bound(space, [0])
        kind = AccessKind.READ
        assert space.writable_prefix(mapping.start, PAGE_SIZE, kind) == 0
        assert space.accessible_mapping(mapping.start, 8, kind) is None
        mapping.guard.states[0] = 1
        assert space.writable_prefix(mapping.start, PAGE_SIZE, kind) == PAGE_SIZE
        assert space.accessible_mapping(mapping.start, 8, kind) is mapping

    def test_mprotect_refused(self, space):
        mapping = self._bound(space, [2])
        with pytest.raises(ProtectionError):
            space.mprotect(mapping.start, PAGE_SIZE, Prot.NONE)


class TestPrivilegedAccess:
    def test_peek_poke_ignore_protections(self, space):
        mapping = space.mmap(PAGE_SIZE, prot=Prot.NONE)
        space.poke(mapping.start, b"secret")
        assert space.peek(mapping.start, 6) == b"secret"

    def test_poke_fill(self, space):
        mapping = space.mmap(PAGE_SIZE)
        space.poke_fill(mapping.start, 0x7F, 16)
        assert space.peek(mapping.start, 16) == b"\x7f" * 16

    def test_view(self, space):
        mapping = space.mmap(PAGE_SIZE)
        space.view(mapping.start, "i4", 4)[:] = [1, 2, 3, 4]
        assert space.view(mapping.start, "i4", 4).tolist() == [1, 2, 3, 4]

    def test_unmapped_peek_rejected(self, space):
        with pytest.raises(AddressError):
            space.peek(0xDEAD000, 4)

    def test_peek_crossing_end_rejected(self, space):
        mapping = space.mmap(PAGE_SIZE, fixed_address=0x400000)
        with pytest.raises(AddressError):
            space.peek(mapping.start + PAGE_SIZE - 2, 4)
