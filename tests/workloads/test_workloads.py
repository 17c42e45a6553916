"""Every workload, every mode, verified against its numpy oracle.

These are the correctness gates behind Figures 7-12: a protocol bug shows
up here as a numerical mismatch.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.util.units import KB, MB
from repro.hw.machine import reference_system, integrated_system
from repro.workloads.vecadd import VectorAdd, transfer_phase_times
from repro.workloads.stencil3d import Stencil3D
from repro.experiments.common import make_workload, QUICK_PARAMS
from repro.workloads import base as workload_base
from repro.workloads.base import ValueMemo
from repro.workloads.parboil import PARBOIL, pns, sad

MODES = [("cuda", None), ("gmac", "batch"), ("gmac", "lazy"),
         ("gmac", "rolling")]


@pytest.mark.parametrize("name", sorted(PARBOIL))
@pytest.mark.parametrize("mode, protocol", MODES)
class TestParboilCorrectness:
    def test_outputs_match_oracle(self, name, mode, protocol):
        workload = make_workload(name, quick=True)
        result = workload.execute(
            mode=mode, protocol=protocol or "rolling",
        )
        assert result.verified, f"{name} {mode}/{protocol} diverged"
        assert result.elapsed > 0
        assert result.mode == mode


class TestParboilShapes:
    def test_quick_params_cover_suite(self):
        assert set(QUICK_PARAMS) == set(PARBOIL)

    def test_pns_batch_is_catastrophic(self):
        workload = make_workload("pns", quick=True)
        cuda = workload.execute(mode="cuda")
        batch = make_workload("pns", quick=True).execute(
            mode="gmac", protocol="batch"
        )
        assert batch.elapsed / cuda.elapsed > 5.0

    def test_pns_lazy_matches_cuda(self):
        workload = make_workload("pns", quick=True)
        cuda = workload.execute(mode="cuda")
        lazy = make_workload("pns", quick=True).execute(
            mode="gmac", protocol="lazy"
        )
        assert lazy.elapsed / cuda.elapsed < 1.5

    def test_gmac_moves_less_data_than_batch(self):
        name = "rpes"
        batch = make_workload(name, quick=True).execute(
            mode="gmac", protocol="batch"
        )
        rolling = make_workload(name, quick=True).execute(
            mode="gmac", protocol="rolling"
        )
        assert rolling.bytes_to_accelerator < 0.5 * batch.bytes_to_accelerator
        assert rolling.bytes_to_host < 0.5 * batch.bytes_to_host

    def test_breakdown_sums_to_elapsed(self):
        result = make_workload("cp", quick=True).execute(
            mode="gmac", protocol="rolling"
        )
        total = sum(result.breakdown.values())
        # prepare() charges nothing; everything inside execute is accounted.
        assert total == pytest.approx(result.elapsed, rel=0.05)


class TestPnsOracleIndependence:
    """The pns oracle computes with the int32 rule, never the kernel's
    narrow engine: a corrupted kernel must fail verification."""

    @pytest.mark.parametrize("mode", ["cuda", "gmac"])
    def test_corrupted_kernel_engine_fails_verification(
            self, mode, monkeypatch):
        expected = make_workload("pns", quick=True).reference()
        # Fresh memos: no stored sweep or oracle from an intact run may
        # answer for the corrupted one, and none of its outputs outlive it.
        monkeypatch.setattr(pns, "_SWEEP_MEMO", ValueMemo())
        monkeypatch.setattr(workload_base, "_REFERENCE_CACHE", {})
        monkeypatch.setattr(
            pns, "NARROW_MULTIPLIER", pns.NARROW_MULTIPLIER ^ np.uint8(2)
        )
        workload = make_workload("pns", quick=True)
        result = workload.execute(mode=mode, protocol="rolling")
        assert not result.verified
        oracle = workload.reference()
        assert np.array_equal(oracle["samples"], expected["samples"])
        assert np.array_equal(
            oracle["final_marking"], expected["final_marking"]
        )


def _untiled_pns_reference(workload):
    """The pns oracle as one whole-ring ``fire_step`` per iteration."""
    marking = workload.initial.copy()
    samples = []
    for iteration in range(workload.iterations):
        marking = pns.fire_step(marking, workload._seed_for(iteration))
        if (iteration + 1) % workload.sample_interval == 0:
            samples.append(int(marking[:256].sum()) & 0x7FFFFFFF)
    return np.asarray(samples, dtype=np.int64), marking


class TestPnsTiledOracle:
    """The oracle runs a sample interval of rounds per tiled pass; its
    outputs equal one whole-ring round per iteration, byte for byte."""

    # Seeds index the first 1024 transitions, so n_places >= 1024; the
    # drawn tiles split such a ring into up to 64 tiles.  The example
    # ends on a short interval, which takes no sample.
    @settings(max_examples=60, deadline=None)
    @given(
        n_places=st.integers(1024, 1536),
        iterations=st.integers(1, 40),
        sample_interval=st.integers(1, 12),
        seed=st.integers(0, 2 ** 16),
        tile=st.one_of(st.none(), st.integers(24, 512)),
    )
    @example(n_places=1100, iterations=21, sample_interval=8, seed=3,
             tile=100)
    def test_reference_equals_untiled_loop(
            self, n_places, iterations, sample_interval, seed, tile):
        workload = pns.PetriNet(
            n_places=n_places, iterations=iterations,
            sample_interval=sample_interval, seed=seed,
        )
        samples, marking = _untiled_pns_reference(workload)
        with pytest.MonkeyPatch.context() as patch:
            if tile is not None:
                patch.setattr(pns, "ORACLE_TILE", tile)
            reference = workload.reference()
        assert len(samples) == iterations // sample_interval
        assert reference["samples"].dtype == np.int64
        assert reference["samples"].tobytes() == samples.tobytes()
        assert reference["final_marking"].dtype == np.int32
        assert reference["final_marking"].tobytes() == marking.tobytes()


class TestSadValueReuse:
    """The sad kernel reuses its result across a sweep's variants."""

    @staticmethod
    def _counting_memo(monkeypatch):
        memo = ValueMemo()
        stores = []
        store = memo.store

        def counting(key, inputs, outputs):
            stores.append(key)
            return store(key, inputs, outputs)

        memo.store = counting
        monkeypatch.setattr(sad, "_SAD_MEMO", memo)
        return stores

    def test_one_evaluation_across_modes_and_protocols(self, monkeypatch):
        stores = self._counting_memo(monkeypatch)
        for mode, protocol in [
            ("cuda", None), ("gmac", "batch"), ("gmac", "lazy"),
            ("gmac", "rolling"),
        ]:
            result = make_workload("sad", quick=True).execute(
                mode=mode, protocol=protocol or "rolling"
            )
            assert result.verified, (mode, protocol)
        assert len(stores) == 1

    def test_changed_frame_byte_misses(self, monkeypatch):
        stores = self._counting_memo(monkeypatch)
        workload = make_workload("sad", quick=True)
        frames = {
            "cur": workload.current.copy(),
            "ref": workload.reference_frame.copy(),
        }
        sads = np.zeros(workload.sads_bytes // 4, dtype=np.int32)

        class _Device:
            def view(self, name, dtype, count):
                buffer = sads if name == "out" else frames[name]
                return buffer.reshape(-1).view(dtype)[:count]

        def launch():
            sad.SAD_KERNEL.fn(
                _Device(), current="cur", reference="ref", sads="out",
                width=workload.width, height=workload.height,
                search=workload.search,
            )
            return sads.copy()

        first = launch()
        assert np.array_equal(launch(), first)
        assert len(stores) == 1
        frames["ref"][5, 7] ^= 1
        changed = launch()
        assert len(stores) == 2
        assert np.array_equal(changed, sad.sad_reference(
            frames["cur"], frames["ref"], workload.search
        ).ravel())


class TestVectorAdd:
    @pytest.mark.parametrize("mode, protocol", MODES)
    def test_correct(self, mode, protocol):
        workload = VectorAdd(elements=64 * 1024)
        result = workload.execute(mode=mode, protocol=protocol or "rolling")
        assert result.verified

    def test_double_buffered_variant_correct(self):
        workload = VectorAdd(elements=256 * 1024)
        result = workload.execute(mode="cuda-db")
        assert result.verified
        assert result.mode == "cuda-db"

    def test_double_buffering_beats_synchronous_copies(self):
        workload = VectorAdd(elements=1024 * 1024)
        naive = workload.execute(mode="cuda")
        buffered = VectorAdd(elements=1024 * 1024).execute(mode="cuda-db")
        assert buffered.elapsed < naive.elapsed

    def test_gmac_overlap_matches_hand_tuned(self):
        """Section 2.2's second motivation: the overlap double buffering
        buys with extra code, rolling-update gets for free."""
        buffered = VectorAdd(elements=1024 * 1024).execute(mode="cuda-db")
        gmac = VectorAdd(elements=1024 * 1024).execute(
            mode="gmac", protocol="rolling",
            gmac_options={"protocol_options": {"block_size": 256 * KB}},
        )
        assert gmac.elapsed < buffered.elapsed * 1.15

    def test_phase_instrumentation(self):
        phases = transfer_phase_times(64 * KB, elements=128 * 1024)
        assert phases["verified"]
        assert phases["cpu_to_gpu_s"] >= 0
        assert phases["gpu_to_cpu_s"] >= 0
        assert phases["faults"] > 0

    def test_small_blocks_pay_more(self):
        small = transfer_phase_times(4 * KB, elements=256 * 1024)
        medium = transfer_phase_times(256 * KB, elements=256 * 1024)
        assert small["cpu_to_gpu_s"] > medium["cpu_to_gpu_s"]
        assert small["gpu_to_cpu_s"] > medium["gpu_to_cpu_s"]


class TestStencil3D:
    @pytest.mark.parametrize("mode, protocol", MODES)
    def test_correct(self, mode, protocol):
        workload = Stencil3D(n=24, steps=4, dump_interval=2)
        result = workload.execute(mode=mode, protocol=protocol or "rolling")
        assert result.verified

    def test_rolling_beats_lazy_on_large_volumes(self):
        workload = Stencil3D(n=64, steps=10, dump_interval=5)
        lazy = workload.execute(
            mode="gmac", protocol="lazy", gmac_options={"layer": "driver"}
        )
        rolling = workload.execute(
            mode="gmac", protocol="rolling",
            gmac_options={"layer": "driver",
                          "protocol_options": {"block_size": 256 * KB}},
        )
        assert rolling.elapsed < lazy.elapsed
        assert rolling.bytes_to_host < lazy.bytes_to_host

    def test_runs_on_integrated_machine(self):
        workload = Stencil3D(n=24, steps=4, dump_interval=2)
        result = workload.execute(
            mode="gmac", protocol="rolling", machine=integrated_system()
        )
        assert result.verified
        machine = result.extra["machine"]
        assert sum(machine.link.bytes_moved.values()) == 0

    def test_unknown_mode_rejected(self):
        from repro.util.errors import ReproError

        with pytest.raises(ReproError):
            Stencil3D(n=16, steps=2, dump_interval=2).execute(mode="opencl")
