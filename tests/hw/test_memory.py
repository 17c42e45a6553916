"""Device memory: the first-fit, coalescing allocator + byte store."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.util.errors import AddressError, AllocationError
from repro.hw.memory import DeviceMemory, DEVICE_BASE


@pytest.fixture
def memory():
    return DeviceMemory(1 << 20)


class TestAllocator:
    def test_first_allocation_at_base(self, memory):
        assert memory.alloc(4096) == DEVICE_BASE

    def test_allocations_are_disjoint_and_aligned(self, memory):
        a = memory.alloc(100)
        b = memory.alloc(100)
        assert b >= a + 100
        assert a % memory.alignment == 0
        assert b % memory.alignment == 0

    def test_free_and_reuse(self, memory):
        a = memory.alloc(4096)
        memory.free(a)
        assert memory.alloc(4096) == a

    def test_first_fit_prefers_lowest_hole(self, memory):
        a = memory.alloc(4096)
        b = memory.alloc(4096)
        memory.alloc(4096)
        memory.free(a)
        memory.free(b)  # coalesces with a's hole
        assert memory.alloc(8192) == a

    def test_coalescing_forward_and_backward(self, memory):
        a = memory.alloc(4096)
        b = memory.alloc(4096)
        c = memory.alloc(4096)
        memory.free(a)
        memory.free(c)
        memory.free(b)  # merges all three
        memory.check_invariants()
        assert memory.alloc(3 * 4096) == a

    def test_oom(self):
        memory = DeviceMemory(8192)
        memory.alloc(8192)
        with pytest.raises(AllocationError):
            memory.alloc(1)

    def test_fragmentation_can_cause_failure(self):
        memory = DeviceMemory(3 * 4096)
        a = memory.alloc(4096)
        memory.alloc(4096)
        c = memory.alloc(4096)
        memory.free(a)
        memory.free(c)
        # 8KB are free, but split into two non-adjacent 4KB holes.
        assert memory.bytes_free == 2 * 4096
        with pytest.raises(AllocationError):
            memory.alloc(2 * 4096)

    def test_double_free_rejected(self, memory):
        a = memory.alloc(4096)
        memory.free(a)
        with pytest.raises(AllocationError):
            memory.free(a)

    def test_free_unknown_rejected(self, memory):
        with pytest.raises(AllocationError):
            memory.free(DEVICE_BASE + 12345)

    def test_nonpositive_size_rejected(self, memory):
        with pytest.raises(AllocationError):
            memory.alloc(0)
        with pytest.raises(AllocationError):
            memory.alloc(-5)

    def test_bytes_accounting(self, memory):
        assert memory.bytes_free == memory.capacity
        a = memory.alloc(4096)
        assert memory.bytes_in_use == 4096
        memory.free(a)
        assert memory.bytes_in_use == 0
        assert memory.bytes_free == memory.capacity

    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("alloc"), st.integers(1, 9000)),
                st.tuples(st.just("free"), st.integers(0, 20)),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=60)
    def test_allocator_invariants_under_random_ops(self, ops):
        memory = DeviceMemory(1 << 18)
        live = []
        for op, value in ops:
            if op == "alloc":
                try:
                    live.append(memory.alloc(value))
                except AllocationError:
                    pass
            elif live:
                memory.free(live.pop(value % len(live)))
            memory.check_invariants()


class TestDataAccess:
    def test_roundtrip(self, memory):
        a = memory.alloc(256)
        memory.write(a, b"hello world")
        assert memory.read(a, 11) == b"hello world"

    def test_fresh_memory_is_zeroed(self, memory):
        a = memory.alloc(64)
        assert memory.read(a, 64) == bytes(64)

    def test_fill(self, memory):
        a = memory.alloc(64)
        memory.fill(a, 0xAB, 64)
        assert memory.read(a, 64) == b"\xab" * 64

    def test_view_is_writable(self, memory):
        a = memory.alloc(16)
        view = memory.view(a, "f4", 4)
        view[:] = [1.0, 2.0, 3.0, 4.0]
        assert np.frombuffer(memory.read(a, 16), dtype="f4").tolist() == [
            1.0, 2.0, 3.0, 4.0,
        ]

    def test_offset_access(self, memory):
        a = memory.alloc(256)
        memory.write(a + 10, b"xyz")
        assert memory.read(a + 10, 3) == b"xyz"

    def test_out_of_allocation_access_rejected(self, memory):
        a = memory.alloc(100)  # padded to alignment
        with pytest.raises(AddressError):
            memory.read(a + memory.alignment, 1)
        with pytest.raises(AddressError):
            memory.read(a, memory.alignment + 1)

    def test_unallocated_access_rejected(self, memory):
        with pytest.raises(AddressError):
            memory.read(DEVICE_BASE + 500000, 4)

    def test_data_survives_neighbour_free(self, memory):
        a = memory.alloc(64)
        b = memory.alloc(64)
        memory.write(b, b"keep")
        memory.free(a)
        assert memory.read(b, 4) == b"keep"

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            DeviceMemory(0)
        with pytest.raises(ValueError):
            DeviceMemory(1024, alignment=3)
