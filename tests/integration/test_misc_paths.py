"""Gap-filling tests for smaller code paths across layers."""

import numpy as np
import pytest

from repro.os.paging import PAGE_SIZE, Prot, AccessKind
from repro.hw.interconnect import Direction


class TestPagingHelpers:
    def test_prot_flags_compose(self):
        assert Prot.RW == Prot.READ | Prot.WRITE
        assert Prot.NONE == 0
        assert str(AccessKind.READ) == "read"
        assert str(AccessKind.WRITE) == "write"

    def test_direction_labels(self):
        assert "host" in str(Direction.H2D)
        assert "host" in str(Direction.D2H)


class TestLibcWithoutAccounting:
    def test_measure_falls_back_to_nullcontext(self, machine):
        from repro.os.process import Process
        from repro.os.filesystem import FileSystem
        from repro.os.libc import Libc

        process = Process(machine)
        fs = FileSystem(machine.disk)
        libc = Libc(process, fs, accounting=None)
        fs.create("f.bin", b"data")
        ptr = process.malloc(16)
        with fs.open("f.bin") as handle:
            assert libc.read(handle, int(ptr), 4) == 4
        assert ptr.read_bytes(4) == b"data"


class TestGmacEdgeCases:
    def test_shared_ptr_end_address_translates(self, gmac_factory):
        # Translating one-past-the-end is needed for range arithmetic.
        gmac = gmac_factory()
        ptr = gmac.alloc(PAGE_SIZE)
        region = gmac.manager.region_at(int(ptr))
        assert region.device_address_of(region.interval.end) == (
            region.device_start + region.mapped_size
        )

    def test_region_names_autogenerated(self, gmac_factory):
        gmac = gmac_factory()
        a = gmac.alloc(PAGE_SIZE)
        b = gmac.alloc(PAGE_SIZE)
        names = {gmac.manager.region_at(int(p)).name for p in (a, b)}
        assert len(names) == 2

    def test_call_with_no_regions(self, gmac_factory, scale_kernel):
        from repro.util.errors import GmacError

        gmac = gmac_factory()
        # Launch with only scalar args and no shared regions at all.
        dev = gmac.layer.alloc(64)
        completion = gmac.call(scale_kernel, data=dev, n=4, factor=1.0)
        gmac.sync()
        assert completion.finish <= gmac.machine.clock.now

    def test_interpose_disabled(self, app):
        gmac = app.gmac(protocol="rolling", layer="driver", interpose=False)
        assert gmac.interposer is None

    def test_cost_model_override(self, app):
        from repro.core.costs import GmacCostModel

        costs = GmacCostModel(signal_base_s=1e-3)
        gmac = app.gmac(protocol="rolling", layer="driver", cost_model=costs)
        ptr = gmac.alloc(PAGE_SIZE)
        before = app.machine.clock.now
        ptr.write_bytes(b"x")  # one fault at the inflated cost
        assert app.machine.clock.now - before >= 1e-3


class TestSharedPtrHelpers:
    def test_fill_through_protection_path(self, gmac_factory):
        gmac = gmac_factory()
        ptr = gmac.alloc(PAGE_SIZE)
        gmac.process.fill(int(ptr), 0x61, 16)
        assert ptr.read_bytes(16) == b"a" * 16

    def test_device_addr_property(self, gmac_factory):
        gmac = gmac_factory()
        ptr = gmac.alloc(PAGE_SIZE)
        assert (ptr + 8).device_addr == ptr.device_addr + 8

    def test_region_property(self, gmac_factory):
        gmac = gmac_factory()
        ptr = gmac.alloc(PAGE_SIZE, name="named")
        assert ptr.region.name == "named"


class TestAccountingConservation:
    def test_breakdown_equals_elapsed_for_full_gmac_run(self, app,
                                                        gmac_factory,
                                                        add_kernel):
        """Every virtual second of a run lands in exactly one category."""
        gmac = gmac_factory("rolling")
        n = 4096
        a = gmac.alloc(4 * n)
        b = gmac.alloc(4 * n)
        c = gmac.alloc(4 * n)
        a.write_array(np.ones(n, dtype=np.float32))
        b.write_array(np.ones(n, dtype=np.float32))
        app.machine.cpu.stream(8 * n, 2e9)
        gmac.call(add_kernel, a=a, b=b, c=c, n=n)
        gmac.sync()
        c.read_array("f4", n)
        total = app.machine.accounting.total()
        assert total == pytest.approx(app.machine.clock.now, rel=0.02)
