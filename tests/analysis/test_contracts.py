"""Static access-mode contracts: inference, cross-check, launch monitor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.contracts import (
    MODES,
    RULE,
    ContractMonitor,
    access_modes,
    check_workload,
    infer_kernel_contract,
    infer_workload_contract,
    join_modes,
    workload_bindings,
)
from repro.cuda.kernels import Kernel
from repro.workloads.vecadd import VECADD, VectorAdd
from repro.workloads.stencil3d import Stencil3D
from repro.workloads.parboil.cp import CoulombicPotential
from repro.workloads.parboil.mrifhd import MriFhd
from repro.workloads.parboil.mriq import MriQ
from repro.workloads.parboil.pns import PNS_KERNEL, PetriNet
from repro.workloads.parboil.rpes import RPES_KERNEL
from repro.workloads.parboil.sad import SAD_KERNEL
from repro.workloads.parboil.tpacf import Tpacf

ANNOTATED = [
    VectorAdd, Stencil3D, CoulombicPotential, MriFhd, MriQ, PetriNet, Tpacf,
]


# -- the mode lattice -------------------------------------------------------------


def test_join_identity_and_commutativity():
    for a in MODES:
        assert join_modes(a, a) == a
        assert join_modes("none", a) == a
        assert join_modes(a, "none") == a
        for b in MODES:
            assert join_modes(a, b) == join_modes(b, a)


def test_join_ro_wo_is_rw():
    assert join_modes("ro", "wo") == "rw"
    assert join_modes("rw", "ro") == "rw"


# -- kernel-level inference -------------------------------------------------------


def test_vecadd_kernel_contract():
    contract = infer_kernel_contract(VECADD)
    assert contract.complete
    assert set(contract.params) == {"a", "b", "c"}
    # ``np.add(va, vb, out=vc)`` lets all three views escape into the
    # call, so the inputs stay possible-reads and the output — written
    # per the signature, possibly read per the escape — infers rw.  The
    # workload's stronger ``wo`` declaration survives the cross-check
    # because an escape is not a *proven* read.
    assert contract.modes == {"a": "ro", "b": "ro", "c": "rw"}
    assert contract.escapes == frozenset({"a", "b", "c"})
    assert contract.proven_reads == frozenset()
    assert contract.signature_gaps == frozenset()


def test_augassign_counts_as_read_write():
    def _fn(gpu, accum, n):
        view = gpu.view(accum, "f4", n)
        view[0] += 1.0

    kernel = Kernel("accum", _fn, cost=lambda accum, n: (n, n),
                    writes=("accum",))
    contract = infer_kernel_contract(kernel)
    assert contract.modes == {"accum": "rw"}
    assert "accum" in contract.proven_reads
    assert "accum" in contract.proven_writes


def test_augassign_on_a_view_alias_counts_as_read_write():
    # ``acc += x`` updates the aliased device view in place.
    def _fn(gpu, accum, n):
        acc = gpu.view(accum, "f4", n)
        acc += 1.0

    kernel = Kernel("accum-alias", _fn, cost=lambda accum, n: (n, n),
                    writes=("accum",))
    contract = infer_kernel_contract(kernel)
    assert contract.modes == {"accum": "rw"}
    assert "accum" in contract.proven_reads
    assert "accum" in contract.proven_writes


def test_parboil_kernel_contracts():
    assert infer_kernel_contract(PNS_KERNEL).modes == {
        "places": "rw", "stats": "rw", "transitions": "ro",
    }
    assert infer_kernel_contract(SAD_KERNEL).modes == {
        "current": "ro", "reference": "ro", "sads": "wo",
    }
    assert infer_kernel_contract(RPES_KERNEL).modes == {
        "integrals": "rw", "params": "ro",
    }


def test_escaping_view_is_treated_as_read():
    def _fn(gpu, data, n):
        view = gpu.view(data, "f4", n)
        float(np.sum(view))

    kernel = Kernel("escape", _fn, cost=lambda data, n: (n, n))
    contract = infer_kernel_contract(kernel)
    # The view flowed into np.sum: possibly read, not provably written.
    assert contract.modes == {"data": "ro"}
    assert "data" in contract.escapes


def test_sourceless_kernel_degrades_to_signature():
    fn = eval("lambda gpu, out, n: None")  # no retrievable source
    kernel = Kernel("opaque", fn, cost=lambda out, n: (n, n), writes=("out",))
    contract = infer_kernel_contract(kernel)
    assert not contract.complete
    assert contract.mode_of("out") == "rw"  # conservative
    assert contract.writes == frozenset({"out"})


# -- workload-level inference and the cross-check ---------------------------------


def test_vecadd_workload_contract():
    assert infer_workload_contract(VectorAdd) == {
        "a": "ro", "b": "ro", "c": "rw",
    }


def test_mriq_staging_buffer_infers_none():
    # mri-q's "out" region is a CPU-side write-back window no kernel ever
    # binds: the strongest claim the declared protocol exploits.
    contract = infer_workload_contract(MriQ)
    assert contract["out"] == "none"
    assert contract["Q"] == "wo"
    assert contract["k-coords"] == "ro"


def test_workload_bindings_resolve_kernel_parameters():
    alloc_names, bindings = workload_bindings(VectorAdd)
    assert set(alloc_names) == {"a", "b", "c"}
    assert {(b.region, b.param) for b in bindings} == {
        ("a", "a"), ("b", "b"), ("c", "c"),
    }
    assert all(b.kernel is VECADD for b in bindings)


@pytest.mark.parametrize("workload_cls", ANNOTATED,
                         ids=lambda cls: cls.name)
def test_every_declared_workload_passes_the_cross_check(workload_cls):
    violations = check_workload(workload_cls)
    assert violations == [], [v.message for v in violations]


@pytest.mark.parametrize("workload_cls", ANNOTATED,
                         ids=lambda cls: cls.name)
def test_declarations_are_sound_against_inference(workload_cls):
    """A declaration may be *stronger* than inference only when inference
    proves the extra freedom (e.g. inferred ro, declared rw is fine; the
    reverse — declaring ro where a kernel writes — must be refuted)."""
    inferred = infer_workload_contract(workload_cls)
    for region, declared in workload_cls.declared_modes.items():
        assert region in inferred
        if declared in ("ro", "none"):
            assert inferred[region] in ("ro", "none"), (
                region, declared, inferred[region]
            )


def test_wrong_declaration_is_refuted_statically():
    @access_modes(a="ro", b="ro", c="ro")  # c is kernel-written!
    class _BadVecadd(VectorAdd):
        pass

    violations = check_workload(_BadVecadd)
    assert any(v.rule == RULE and v.region == "c" for v in violations)


def test_unknown_region_declaration_is_flagged():
    @access_modes(nonexistent="ro")
    class _Phantom(VectorAdd):
        pass

    violations = check_workload(_Phantom)
    assert any(v.region == "nonexistent" for v in violations)


def test_invalid_mode_is_rejected_at_decoration_time():
    from repro.util.errors import ReproError

    with pytest.raises(ReproError):
        access_modes(a="read-only")


# -- the launch-time monitor ------------------------------------------------------


class _FakeClock:
    now = 0.0


class _FakeRegion:
    def __init__(self, name):
        self.name = name


def test_monitor_flags_wrong_launch_and_dedups():
    monitor = ContractMonitor({"c": "ro"}, _FakeClock())
    bindings = {"a": _FakeRegion("a"), "c": _FakeRegion("c")}
    monitor.on_launch(VECADD, bindings)
    monitor.on_launch(VECADD, bindings)  # same launch: no duplicate
    assert len(monitor.violations) == 1
    violation = monitor.violations[0]
    assert violation.rule == RULE
    assert violation.region == "c"
    assert monitor.stats() == {"launches_checked": 2, "violations": 1}


def test_monitor_accepts_correct_declarations():
    monitor = ContractMonitor(dict(VectorAdd.declared_modes), _FakeClock())
    monitor.on_launch(VECADD, {
        "a": _FakeRegion("a"), "b": _FakeRegion("b"), "c": _FakeRegion("c"),
    })
    assert monitor.violations == []


# -- the superset property --------------------------------------------------------
#
# The load-bearing guarantee behind the ``declared`` protocol's transfer
# elision: the *inferred* write set over-approximates what the kernel
# actually mutates, for any input.  Run the real kernel functions against
# an in-memory device model and diff the buffers.


class _ArrayGpu:
    """Minimal device model: ``view`` returns slices of named buffers."""

    def __init__(self, buffers):
        self.buffers = buffers

    def view(self, ptr, dtype, n):
        return self.buffers[ptr].view(dtype)[:n]


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=64),
    data=st.data(),
)
def test_inferred_writes_superset_of_actual_writes(n, data):
    floats = st.floats(min_value=-1e3, max_value=1e3, width=32)
    buffers = {
        name: np.array(
            data.draw(st.lists(floats, min_size=n, max_size=n)),
            dtype=np.float32,
        )
        for name in ("a", "b", "c")
    }
    before = {name: array.copy() for name, array in buffers.items()}
    VECADD.fn(_ArrayGpu(buffers), a="a", b="b", c="c", n=n)
    mutated = {
        name for name, array in buffers.items()
        if not np.array_equal(array, before[name], equal_nan=True)
    }
    contract = infer_kernel_contract(VECADD)
    assert mutated <= set(contract.writes)
    # And the read-only claim really held: inputs are bit-identical.
    for name in ("a", "b"):
        assert np.array_equal(buffers[name], before[name], equal_nan=True)
