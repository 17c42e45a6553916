"""The process access loop: fault, repair, retry, progressive commit."""

import numpy as np
import pytest

from repro.util.errors import SegmentationFault
from repro.os.paging import PAGE_SIZE, Prot, AccessKind


@pytest.fixture
def process(app):
    return app.process


class TestHeap:
    def test_malloc_returns_rw_pointer(self, process):
        ptr = process.malloc(100)
        ptr.write_bytes(b"hello")
        assert ptr.read_bytes(5) == b"hello"

    def test_mallocs_are_disjoint(self, process):
        a = process.malloc(PAGE_SIZE)
        b = process.malloc(PAGE_SIZE)
        a.write_bytes(b"A" * 16)
        b.write_bytes(b"B" * 16)
        assert a.read_bytes(16) == b"A" * 16


class TestFaultRetry:
    def _protected_mapping(self, process, pages=4, prot=Prot.NONE):
        mapping = process.address_space.mmap(pages * PAGE_SIZE, prot=prot)
        return mapping

    def test_write_faults_and_retries_after_repair(self, process):
        mapping = self._protected_mapping(process, prot=Prot.READ)
        repaired = []

        def handler(info):
            process.address_space.mprotect(
                info.address - info.address % PAGE_SIZE, PAGE_SIZE, Prot.RW
            )
            repaired.append(info.address)
            return True

        process.signals.register(handler)
        process.write(mapping.start, b"x" * (2 * PAGE_SIZE))
        assert len(repaired) == 2  # one fault per protected page
        assert process.read(mapping.start, 3) == b"xxx"

    def test_unrepaired_fault_crashes(self, process):
        mapping = self._protected_mapping(process, prot=Prot.READ)
        process.signals.register(lambda info: True)  # claims, repairs nothing
        with pytest.raises(SegmentationFault):
            process.write(mapping.start, b"x")

    def test_progressive_commit_survives_demotion(self, process):
        """Handling a fault on page N may demote page N-1 to read-only
        (rolling-update's eviction); committed data must survive and the
        access must not re-trip on the demoted page."""
        mapping = self._protected_mapping(process, pages=3, prot=Prot.READ)
        faults = []

        def handler(info):
            page = info.address - info.address % PAGE_SIZE
            process.address_space.mprotect(page, PAGE_SIZE, Prot.RW)
            if faults:
                # Demote the previously-repaired page again.
                process.address_space.mprotect(faults[-1], PAGE_SIZE, Prot.READ)
            faults.append(page)
            return True

        process.signals.register(handler)
        payload = bytes(range(256)) * (3 * PAGE_SIZE // 256)
        process.write(mapping.start, payload)
        assert len(faults) == 3
        assert process.address_space.peek(mapping.start, len(payload)) == payload

    def test_read_fault_path(self, process):
        mapping = self._protected_mapping(process, prot=Prot.NONE)
        process.address_space.poke(mapping.start, b"hidden")

        def handler(info):
            process.address_space.mprotect(
                mapping.start, mapping.size, Prot.READ
            )
            return True

        process.signals.register(handler)
        assert process.read(mapping.start, 6) == b"hidden"

    def test_touch_faults_without_moving_data(self, process):
        mapping = self._protected_mapping(process, prot=Prot.READ)
        count = []

        def handler(info):
            process.address_space.mprotect(mapping.start, mapping.size, Prot.RW)
            count.append(info)
            return True

        process.signals.register(handler)
        process.touch(mapping.start, mapping.size, AccessKind.WRITE)
        assert len(count) == 1
        assert process.address_space.peek(mapping.start, 4) == bytes(4)

    def test_fill(self, process):
        ptr = process.malloc(64)
        process.fill(int(ptr), 0x5A, 64)
        assert ptr.read_bytes(64) == b"\x5a" * 64

    def test_unmapped_access_crashes(self, process):
        with pytest.raises(SegmentationFault):
            process.read(0xDEAD0000, 4)


class TestTypedHelpers:
    def test_array_roundtrip(self, process):
        ptr = process.malloc(64)
        values = np.arange(16, dtype=np.float32)
        ptr.write_array(values)
        assert np.array_equal(ptr.read_array("f4", 16), values)

    def test_array_offset(self, process):
        ptr = process.malloc(64)
        ptr.write_array(np.array([7], dtype=np.int64), offset=8)
        assert ptr.read_array("i8", 1, offset=8)[0] == 7

    def test_ptr_arithmetic(self, process):
        ptr = process.malloc(64)
        shifted = ptr + 8
        shifted.write_bytes(b"ab")
        assert ptr.read_bytes(2, offset=8) == b"ab"
        assert int(shifted) == int(ptr) + 8

    def test_ptr_repr(self, process):
        assert "0x" in repr(process.malloc(16))
