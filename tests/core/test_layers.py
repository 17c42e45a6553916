"""The two accelerator abstraction layers (Figure 5)."""

import pytest

from repro.sim.tracing import Category
from repro.core.layers import AcceleratorLayer


class TestFlavours:
    def test_driver_layer_pays_no_init(self, app):
        layer = AcceleratorLayer(app.machine, app.process, flavour="driver")
        before = app.machine.clock.now
        layer.alloc(4096)
        assert app.machine.clock.now - before < layer.init_cost_s

    def test_runtime_layer_pays_init_once(self, app):
        layer = AcceleratorLayer(app.machine, app.process, flavour="runtime")
        layer.alloc(4096)
        assert app.machine.accounting.totals[Category.CUDA_MALLOC] >= (
            layer.init_cost_s
        )
        after_first = app.machine.clock.now
        layer.alloc(4096)
        assert app.machine.clock.now - after_first < layer.init_cost_s

    def test_unknown_flavour_rejected(self, app):
        with pytest.raises(ValueError):
            AcceleratorLayer(app.machine, app.process, flavour="hybrid")

    def test_custom_init_cost(self, app):
        layer = AcceleratorLayer(
            app.machine, app.process, flavour="runtime", init_cost_s=0.25
        )
        layer.alloc(4096)
        assert app.machine.clock.now >= 0.25


class TestOperations:
    @pytest.fixture
    def layer(self, app):
        return AcceleratorLayer(app.machine, app.process, flavour="driver")

    def test_alloc_charges_cuda_malloc(self, app, layer):
        layer.alloc(4096)
        assert app.machine.accounting.counts[Category.CUDA_MALLOC] == 1

    def test_free_charges_cuda_free(self, app, layer):
        address = layer.alloc(4096)
        layer.free(address)
        assert app.machine.accounting.counts[Category.CUDA_FREE] == 1

    def test_transfers_not_charged_by_layer(self, app, layer):
        """The manager owns Copy accounting; the layer must not charge it."""
        host = app.process.malloc(4096)
        device = layer.alloc(4096)
        layer.to_device(device, int(host), 4096)
        layer.to_host(int(host), device, 4096)
        assert app.machine.accounting.totals[Category.COPY] == 0.0

    def test_pending_h2d_tracks_queue(self, app, layer):
        host = app.process.malloc(1 << 20)
        device = layer.alloc(1 << 20)
        completion = layer.to_device(device, int(host), 1 << 20, sync=False)
        assert layer.pending_h2d() == completion.finish

    def test_launch_charges_cuda_launch(self, app, layer, scale_kernel):
        device = layer.alloc(64)
        layer.launch(scale_kernel, {"data": device, "n": 4, "factor": 1.0})
        assert app.machine.accounting.counts[Category.CUDA_LAUNCH] == 1

    def test_device_bulk_operations(self, layer):
        device = layer.alloc(128)
        layer.device_memset(device, 0x3C, 64)
        other = layer.alloc(128)
        layer.device_memcpy(other, device, 64)
        assert layer.driver.gpu.memory.read(other, 4) == b"\x3c" * 4
