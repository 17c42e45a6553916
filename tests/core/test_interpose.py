"""I/O and bulk-memory interposition (Section 4.4)."""

import numpy as np
import pytest

from repro.util.units import KB
from repro.os.paging import PAGE_SIZE
from repro.core.blocks import BlockState


@pytest.fixture
def gmac(gmac_factory):
    # Small blocks so multi-block effects are easy to trigger.
    return gmac_factory(
        "rolling",
        protocol_options={"block_size": PAGE_SIZE, "rolling_size": 8},
    )


class TestInterposedRead:
    def test_read_into_shared_memory_works(self, app, gmac):
        """The un-restartable-read problem, solved: a multi-block read
        into a shared object succeeds through the interposed read()."""
        payload = bytes(range(256)) * (3 * PAGE_SIZE // 256)
        app.fs.create("in.bin", payload)
        ptr = gmac.alloc(3 * PAGE_SIZE)
        with app.fs.open("in.bin") as handle:
            assert app.libc.read(handle, int(ptr), len(payload)) == len(payload)
        assert ptr.read_bytes(len(payload)) == payload

    def test_read_proceeds_in_block_chunks(self, app, gmac):
        app.fs.create("in.bin", bytes(3 * PAGE_SIZE))
        ptr = gmac.alloc(3 * PAGE_SIZE)
        before = app.process.signals.delivered
        with app.fs.open("in.bin") as handle:
            app.libc.read(handle, int(ptr), 3 * PAGE_SIZE)
        # One pre-fault per block, not an abort.
        assert app.process.signals.delivered - before == 3

    def test_read_after_kernel_overwrites_invalid_blocks(self, app, gmac,
                                                         scale_kernel):
        ptr = gmac.alloc(2 * PAGE_SIZE)
        gmac.call(scale_kernel, data=ptr, n=1, factor=1.0)
        gmac.sync()
        app.fs.create("in.bin", b"Q" * (2 * PAGE_SIZE))
        with app.fs.open("in.bin") as handle:
            app.libc.read(handle, int(ptr), 2 * PAGE_SIZE)
        assert ptr.read_bytes(8) == b"QQQQQQQQ"

    def test_read_spanning_shared_and_plain(self, app, gmac):
        """A single read covering a malloc'd buffer is forwarded to the
        default implementation untouched."""
        app.fs.create("in.bin", b"plain-memory-read")
        plain = app.process.malloc(64)
        with app.fs.open("in.bin") as handle:
            app.libc.read(handle, int(plain), 17)
        assert plain.read_bytes(17) == b"plain-memory-read"


class TestInterposedWrite:
    def test_write_from_invalid_shared_memory(self, app, gmac, scale_kernel):
        """Writing a kernel result to disk fetches blocks one at a time
        through the pre-faulting interposed write()."""
        ptr = gmac.alloc(2 * PAGE_SIZE)
        values = np.arange(2 * PAGE_SIZE // 4, dtype=np.float32)
        ptr.write_array(values)
        gmac.call(scale_kernel, data=ptr, n=len(values), factor=2.0)
        gmac.sync()
        with app.fs.open("out.bin", "w") as handle:
            app.libc.write(handle, int(ptr), 2 * PAGE_SIZE)
        written = np.frombuffer(app.fs.data_of("out.bin"), dtype=np.float32)
        assert np.allclose(written, values * 2.0)

    def test_write_fetches_per_block(self, app, gmac, scale_kernel):
        ptr = gmac.alloc(4 * PAGE_SIZE)
        gmac.call(scale_kernel, data=ptr, n=1, factor=1.0)
        gmac.sync()
        with app.fs.open("out.bin", "w") as handle:
            app.libc.write(handle, int(ptr), 4 * PAGE_SIZE)
        assert gmac.bytes_to_host == 4 * PAGE_SIZE


class TestInterposedMemset:
    def test_full_blocks_use_device_memset(self, app, gmac):
        ptr = gmac.alloc(2 * PAGE_SIZE)
        app.libc.memset(int(ptr), 0x77, 2 * PAGE_SIZE)
        region = gmac.manager.region_at(int(ptr))
        # Device is canonical, host copy discarded.
        assert all(b.state is BlockState.INVALID for b in region.blocks)
        assert gmac.layer.driver.gpu.memory.read(region.device_start, 8) == b"\x77" * 8
        # CPU read faults the value back.
        assert ptr.read_bytes(8) == b"\x77" * 8

    def test_partial_block_stays_on_host_path(self, app, gmac):
        ptr = gmac.alloc(2 * PAGE_SIZE)
        app.libc.memset(int(ptr) + 16, 0x55, 64)
        region = gmac.manager.region_at(int(ptr))
        assert region.blocks[0].state is BlockState.DIRTY
        assert ptr.read_bytes(64, offset=16) == b"\x55" * 64

    def test_memset_discards_dirty_cache_entry(self, app, gmac):
        ptr = gmac.alloc(PAGE_SIZE)
        ptr.write_bytes(b"dirty")
        app.libc.memset(int(ptr), 0, PAGE_SIZE)
        assert len(gmac.protocol._dirty) == 0
        assert ptr.read_bytes(5) == bytes(5)

    def test_plain_memory_forwarded(self, app, gmac):
        plain = app.process.malloc(64)
        app.libc.memset(int(plain), 0xAA, 64)
        assert plain.read_bytes(64) == b"\xaa" * 64

    def test_batch_protocol_uses_host_path(self, app, gmac_factory):
        gmac = gmac_factory("batch")
        ptr = gmac.alloc(PAGE_SIZE)
        app.libc.memset(int(ptr), 0x99, PAGE_SIZE)
        region = gmac.manager.region_at(int(ptr))
        assert region.blocks[0].state is BlockState.DIRTY
        assert ptr.read_bytes(4) == b"\x99" * 4


class TestInterposedMemcpy:
    def test_shared_to_shared_uses_device_copy(self, app, gmac):
        src = gmac.alloc(PAGE_SIZE, name="src")
        dst = gmac.alloc(PAGE_SIZE, name="dst")
        src.write_bytes(b"D" * PAGE_SIZE)
        engine_ops_before = gmac.layer.driver.gpu.engine.operation_count
        app.libc.memcpy(int(dst), int(src), PAGE_SIZE)
        assert gmac.layer.driver.gpu.engine.operation_count > engine_ops_before
        assert dst.read_bytes(8) == b"D" * 8

    def test_plain_to_shared_full_block_is_dma(self, app, gmac):
        plain = app.process.malloc(PAGE_SIZE)
        plain.write_bytes(b"H" * PAGE_SIZE)
        dst = gmac.alloc(PAGE_SIZE)
        before = gmac.manager.bytes_to_accelerator
        app.libc.memcpy(int(dst), int(plain), PAGE_SIZE)
        assert gmac.manager.bytes_to_accelerator - before == PAGE_SIZE
        assert dst.read_bytes(4) == b"HHHH"

    def test_shared_to_plain_streams_invalid_blocks(self, app, gmac,
                                                    scale_kernel):
        src = gmac.alloc(PAGE_SIZE)
        src.write_array(np.full(PAGE_SIZE // 4, 4.0, dtype=np.float32))
        gmac.call(scale_kernel, data=src, n=PAGE_SIZE // 4, factor=2.0)
        gmac.sync()
        plain = app.process.malloc(PAGE_SIZE)
        app.libc.memcpy(int(plain), int(src), PAGE_SIZE)
        assert np.allclose(plain.read_array("f4", PAGE_SIZE // 4), 8.0)
        # The copy streamed straight from device memory; the shared blocks
        # stayed invalid on the host.
        region = gmac.manager.region_at(int(src))
        assert region.blocks[0].state is BlockState.INVALID

    def test_partial_copy_host_path(self, app, gmac):
        src = gmac.alloc(PAGE_SIZE)
        dst = gmac.alloc(PAGE_SIZE)
        src.write_bytes(b"partial!")
        app.libc.memcpy(int(dst) + 8, int(src), 8)
        assert dst.read_bytes(8, offset=8) == b"partial!"

    def test_plain_to_plain_forwarded(self, app, gmac):
        a = app.process.malloc(64)
        b = app.process.malloc(64)
        a.write_bytes(b"forwarded")
        app.libc.memcpy(int(b), int(a), 9)
        assert b.read_bytes(9) == b"forwarded"


class TestInstallUninstall:
    def test_uninstall_restores_defaults(self, app, gmac):
        ptr = gmac.alloc(2 * PAGE_SIZE)
        gmac.interposer.uninstall()
        from repro.util.errors import IoError

        # Make the region multi-fault for a plain read again.
        gmac.manager.set_region_blocks(
            gmac.manager.region_at(int(ptr)), BlockState.READ_ONLY
        )
        app.fs.create("in.bin", bytes(2 * PAGE_SIZE))
        with app.fs.open("in.bin") as handle:
            with pytest.raises(IoError):
                app.libc.read(handle, int(ptr), 2 * PAGE_SIZE)
