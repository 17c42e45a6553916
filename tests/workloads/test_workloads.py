"""Every workload, every mode, verified against its numpy oracle.

These are the correctness gates behind Figures 7-12: a protocol bug shows
up here as a numerical mismatch.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.util.units import KB, MB
from repro.hw.machine import reference_system, integrated_system
from repro.workloads.vecadd import VectorAdd
from repro.workloads.stencil3d import Stencil3D
from repro.experiments.common import make_workload, QUICK_PARAMS
from repro.workloads import base as workload_base
from repro.workloads.base import ValueMemo
from repro.workloads import stencil3d
from repro.workloads.parboil import (
    PARBOIL, cp, mrifhd, mriq, pns, sad, tpacf,
)

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


@dataclass(frozen=True)
class _Shared:
    """A workload whose kernel and oracle share one memoized evaluation.

    ``function`` is the pure numerics function in ``module``, evaluated
    ``evaluations`` times by an intact run (once per distinct input); the
    flip XORs ``mask`` into element ``index`` of the ``dtype`` view of the
    kernel argument ``argument``, an input the function reads.
    """

    make: object
    module: object
    memo: str
    function: str
    kernel: object
    argument: str
    dtype: str
    index: int
    mask: int
    evaluations: int = 1


SIGN = 1 << 31

SHARED = {
    "cp": _Shared(
        lambda: make_workload("cp", quick=True), cp, "_POTENTIAL_MEMO",
        "coulomb_reference", cp.CP_KERNEL, "atoms", "u4", 3, SIGN,
    ),
    "sad": _Shared(
        lambda: make_workload("sad", quick=True), sad, "_SAD_MEMO",
        "sad_reference", sad.SAD_KERNEL, "reference", "u1", 7, 0x80,
    ),
    "mri-q": _Shared(
        lambda: make_workload("mri-q", quick=True), mriq, "_Q_MEMO",
        "q_reference", mriq.Q_KERNEL, "phi_mag", "u4", 0, SIGN,
    ),
    "mri-fhd": _Shared(
        lambda: make_workload("mri-fhd", quick=True), mrifhd, "_FHD_MEMO",
        "fhd_reference", mrifhd.FHD_KERNEL, "samples", "u4", 3, SIGN,
    ),
    "tpacf": _Shared(
        lambda: make_workload("tpacf", quick=True), tpacf,
        "_HISTOGRAM_MEMO", "angular_histogram", tpacf.TPACF_KERNEL,
        "points", "u4", 0, SIGN,
    ),
    "3d-stencil": _Shared(
        lambda: Stencil3D(n=24, steps=4, dump_interval=2), stencil3d,
        "_STEP_MEMO", "stencil_reference_step", stencil3d.STENCIL,
        "vin", "u4", 24 ** 3 // 2, SIGN, evaluations=4,
    ),
}


@pytest.mark.parametrize("name", sorted(SHARED))
class TestSharedEvaluation:
    """The kernel and the oracle evaluate one pure function once per
    distinct input bytes, and a changed device input bit still fails."""

    @staticmethod
    def _isolate(monkeypatch, case):
        """A fresh memo and oracle cache; returns the memo and a list
        that grows by one per call of the pure function."""
        kept = getattr(case.module, case.memo)
        memo = ValueMemo(kept.max_entries, kept.max_entry_bytes)
        monkeypatch.setattr(case.module, case.memo, memo)
        monkeypatch.setattr(workload_base, "_REFERENCE_CACHE", {})
        function = getattr(case.module, case.function)
        calls = []

        def counted(*args):
            calls.append(1)
            return function(*args)

        monkeypatch.setattr(case.module, case.function, counted)
        return memo, calls

    def test_one_evaluation_per_input(self, name, monkeypatch):
        case = SHARED[name]
        _, calls = self._isolate(monkeypatch, case)
        for mode, protocol in MODES:
            result = case.make().execute(
                mode=mode, protocol=protocol or "rolling"
            )
            assert result.verified, (mode, protocol)
        case.make().reference()
        assert len(calls) == case.evaluations

    def test_flipped_device_bit_fails(self, name, monkeypatch):
        case = SHARED[name]
        memo, calls = self._isolate(monkeypatch, case)
        flipped = []

        def flip(gpu, args):
            # Once, before the kernel's first read: a device byte that
            # no longer equals the host byte it was uploaded from.
            if not flipped:
                view = gpu.memory.view(
                    args[case.argument], case.dtype, case.index + 1
                )
                view[case.index] ^= view.dtype.type(case.mask)
                flipped.append(1)

        fn, batched = case.kernel.fn, case.kernel.batched_fn

        def flipping(gpu, **args):
            flip(gpu, args)
            fn(gpu, **args)

        def flipping_batch(gpu, launches):
            flip(gpu, launches[0])
            batched(gpu, launches)

        monkeypatch.setattr(case.kernel, "fn", flipping)
        if batched is not None:
            monkeypatch.setattr(case.kernel, "batched_fn", flipping_batch)
        result = case.make().execute(mode="gmac", protocol="rolling")
        assert flipped
        assert not result.verified
        held = sum(len(entries) for entries in memo._entries.values())
        assert held == len(calls) == 2 * case.evaluations


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
        workload = VectorAdd(elements=128 * 1024)
        result = workload.execute(
            mode="gmac", protocol="rolling",
            gmac_options={
                "protocol_options": {"block_size": 64 * KB, "rolling_size": 16},
                "layer": "driver",
            },
        )
        assert result.verified
        assert workload.phases["cpu_to_gpu_s"] >= 0
        assert workload.phases["gpu_to_cpu_s"] >= 0
        assert result.faults > 0


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
