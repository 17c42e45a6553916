"""The zero-copy data plane: views flow end-to-end without bytes copies.

``write_bytes``/``read_bytes`` style access must accept any C-contiguous
buffer and move it into (out of) the simulated backing without
materializing intermediate ``bytes`` objects.  Copies are asserted absent
two ways: **buffer identity** (a borrowed view tracks later writes to the
backing, which a copy cannot) and **allocation counting** (tracemalloc
peak during a large transfer stays far below the payload size).
"""

import tracemalloc

import numpy as np
import pytest

from repro.workloads.base import Application

SIZE = 4 * 1024 * 1024


@pytest.fixture
def process(machine):
    return Application(machine).process


def _peak_during(fn):
    """Peak traced allocation (bytes) while ``fn`` runs."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestWritePath:
    def test_write_accepts_memoryview(self, process):
        ptr = process.malloc(64)
        payload = np.arange(16, dtype=np.uint8)
        ptr.write_bytes(memoryview(payload), offset=8)
        assert ptr.read_bytes(16, offset=8) == payload.tobytes()

    def test_write_accepts_numpy_views(self, process):
        ptr = process.malloc(64)
        values = np.linspace(0.0, 1.0, 8, dtype=np.float32)
        ptr.write_bytes(values.view(np.uint8))
        assert ptr.read_array("f4", 8).tolist() == values.tolist()

    def test_large_write_allocates_nothing(self, process):
        ptr = process.malloc(SIZE)
        payload = memoryview(np.ones(SIZE, dtype=np.uint8))
        peak = _peak_during(lambda: ptr.write_bytes(payload))
        assert peak < SIZE // 2

    def test_device_memory_write_accepts_memoryview(self, machine):
        address = machine.gpu.memory.alloc(64)
        payload = np.arange(64, dtype=np.uint8)
        machine.gpu.memory.write(address, memoryview(payload))
        assert machine.gpu.memory.read(address, 64) == payload.tobytes()


class TestReadPath:
    def test_read_view_aliases_backing(self, process):
        ptr = process.malloc(64)
        ptr.write_bytes(b"\x01" * 64)
        view = process.read_view(int(ptr) + 8, 16)
        assert view.readonly
        assert bytes(view) == b"\x01" * 16
        # A copy would freeze the old contents; the borrowed view must
        # track this later write.
        ptr.write_bytes(b"\x02" * 16, offset=8)
        assert bytes(view) == b"\x02" * 16

    def test_read_into_fills_caller_buffer(self, process):
        ptr = process.malloc(64)
        payload = np.arange(64, dtype=np.uint8)
        ptr.write_bytes(payload)
        out = np.zeros(32, dtype=np.uint8)
        assert ptr.read_into(out, offset=16) == 32
        assert out.tolist() == payload[16:48].tolist()

    def test_large_read_into_allocates_nothing(self, process):
        ptr = process.malloc(SIZE)
        out = np.empty(SIZE, dtype=np.uint8)
        peak = _peak_during(lambda: ptr.read_into(out))
        assert peak < SIZE // 2


class TestFileIo:
    def test_file_write_accepts_memoryview(self, machine):
        app = Application(machine)
        payload = np.arange(256, dtype=np.uint8)
        with app.fs.open("out.bin", "w") as handle:
            handle.write(memoryview(payload))
        assert app.fs.data_of("out.bin") == payload.tobytes()

    def test_large_file_write_allocates_little(self, machine):
        app = Application(machine)
        ptr = app.process.malloc(SIZE)
        with app.fs.open("out.bin", "w") as handle:
            handle.write(b"")  # create before tracing
            peak = _peak_during(
                lambda: app.libc.write(handle, int(ptr), SIZE)
            )
        # The file buffer itself must grow by SIZE; anything much beyond
        # that would be an intermediate copy of the payload.
        assert peak < 2 * SIZE
        assert len(app.fs.data_of("out.bin")) == SIZE
