"""The kernel-numerics backend seam (``REPRO_KERNEL_BACKEND``).

Selection and graceful fallback are pure unit tests; the golden
equivalence class proves the ISSUE acceptance criterion — SpecOutcomes
are byte-identical whether the compiled backend is on or off.  The
container has no numba, so the "on" runs install a stub module whose
``njit`` is the identity decorator: the compiled code paths execute (as
pure Python) without the optional dependency.
"""

import sys
import types
from contextlib import contextmanager
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.cuda import backend
from repro.experiments.common import make_workload
from repro.experiments.spec import RunSpec
from repro.workloads.parboil import pns, rpes


@pytest.fixture(autouse=True)
def _fresh_backend():
    backend.reset()
    yield
    backend.reset()


def _stub_numba_module():
    """A minimal numba lookalike: ``njit`` returns the function unchanged."""
    module = types.ModuleType("numba")

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]
        return lambda fn: fn

    module.njit = njit
    return module


def _activate_stub(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numba")
    monkeypatch.setitem(sys.modules, "numba", _stub_numba_module())


def _clear_kernel_memos():
    """Drop cross-run kernel memoization.

    The ValueMemos are backend-agnostic byte caches; letting one
    backend's stored outputs satisfy the other's lookups would short-
    circuit exactly the code paths these tests compare.
    """
    from repro.workloads.parboil import cp, mrifhd, mriq, pns, tpacf

    for memo in (
        cp._POTENTIAL_MEMO, mrifhd._FHD_MEMO, mriq._Q_MEMO,
        pns._SWEEP_MEMO, tpacf._HISTOGRAM_MEMO,
    ):
        memo.clear()


class TestSelection:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        assert backend.requested_backend() == "numpy"
        assert backend.active_backend() == "numpy"
        assert backend.compiled("anything", lambda numba: 1) is None

    def test_unknown_backend_is_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "cython")
        with pytest.raises(KeyError):
            backend.requested_backend()

    def test_numba_absent_falls_back_to_numpy(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numba")
        # A None sys.modules entry makes ``import numba`` raise
        # ImportError even if the package were installed.
        monkeypatch.setitem(sys.modules, "numba", None)
        assert backend.requested_backend() == "numba"
        assert backend.active_backend() == "numpy"
        assert backend.compiled("anything", lambda numba: 1) is None

    def test_stub_numba_activates_and_builds_once(self, monkeypatch):
        _activate_stub(monkeypatch)
        assert backend.active_backend() == "numba"
        built = []

        def builder(numba):
            built.append(numba)
            return lambda: "routine"

        first = backend.compiled("routine", builder)
        second = backend.compiled("routine", builder)
        assert first is second
        assert callable(first)
        assert len(built) == 1

    def test_failing_builder_demotes_that_routine_only(self, monkeypatch):
        _activate_stub(monkeypatch)
        attempts = []

        def broken(numba):
            attempts.append(1)
            raise RuntimeError("no compiler today")

        assert backend.compiled("broken", broken) is None
        assert backend.compiled("broken", broken) is None
        assert len(attempts) == 1  # recorded, not retried
        assert backend.compiled("fine", lambda numba: min) is min


class TestSpecKey:
    def test_numpy_backend_stays_out_of_the_key(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        spec = RunSpec.make(workload="vecadd", params={"elements": 4096})
        assert spec.backend == "numpy"
        assert '"backend"' not in spec.key()

    def test_numba_backend_joins_the_key(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        numpy_key = RunSpec.make(
            workload="vecadd", params={"elements": 4096}
        ).key()
        _activate_stub(monkeypatch)
        backend.reset()
        spec = RunSpec.make(workload="vecadd", params={"elements": 4096})
        assert spec.backend == "numba"
        assert '"backend": "numba"' in spec.key()
        assert spec.key() != numpy_key


#: Every workload with a registered compiled routine, sized so the stub
#: backend's pure-Python loops stay fast.
COMPILED_WORKLOADS = [
    ("cp", dict(grid_n=64, n_atoms=32)),
    ("mri-q", dict(n_samples=16, n_voxels=8192)),
    ("tpacf", dict(n_points=65536)),
    ("pns", dict(n_places=16384, iterations=16, sample_interval=8)),
]


def _outcome_fields(outcome):
    fields = asdict(outcome)
    # The spec itself names the backend, which differs by construction;
    # everything the experiment tables read must not.
    del fields["spec"]
    return fields


class TestGoldenEquivalence:
    @pytest.mark.parametrize("workload,params", COMPILED_WORKLOADS)
    def test_outcomes_identical_across_backends(
        self, workload, params, monkeypatch
    ):
        def run(expected_backend):
            backend.reset()
            _clear_kernel_memos()
            spec = RunSpec.make(
                workload=workload, params=params,
                protocol="rolling", layer="driver",
            )
            assert spec.backend == expected_backend
            return _outcome_fields(spec.execute())

        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        plain = run("numpy")
        _activate_stub(monkeypatch)
        compiled = run("numba")
        _clear_kernel_memos()
        assert plain["verified"] is True
        assert compiled == plain


#: Any int32: a host may write any value into the pns marking.
INT32 = st.integers(-(2 ** 31), 2 ** 31 - 1)


def _int32_rounds(marking, seeds):
    """K sequential rounds of the int32 oracle rule."""
    state = marking.copy()
    # The oracle folds ``FIRE_INCREMENT + seed`` as an int32 scalar, which
    # wraps (and warns) for seeds near the int32 limit.
    with np.errstate(over="ignore"):
        for seed in seeds:
            state = pns.fire_step(state, seed)
    return state


def _widened(narrow, like):
    """The kernel's writeback: the uint8 marking stored into int32 lanes."""
    assert narrow.dtype == np.uint8
    marking = np.empty_like(like)
    marking[:] = narrow
    return marking


@pytest.fixture
def compiled_sweep(monkeypatch):
    """The compiled pns sweep, built through the stub-numba seam."""
    _activate_stub(monkeypatch)
    sweep = backend.compiled("pns-sweep", pns._build_compiled_sweep)
    assert sweep is not None
    return sweep


#: A kernel tile size: the default, or one small enough that a drawn
#: array spans several tiles and a drawn K exceeds the tile.
TILES = st.one_of(st.none(), st.integers(1, 8))


@contextmanager
def _tiled(module, name, tile):
    """Patch ``module.name`` to ``tile`` (None keeps the default)."""
    with pytest.MonkeyPatch.context() as patch:
        if tile is not None:
            patch.setattr(module, name, tile)
        yield


class TestPnsEngines:
    """The kernel's tiled uint8 engine, the compiled sweep and the int32
    oracle compute the same markings, byte for byte."""

    # The fixture builds one pure routine; nothing in it varies per example.
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        marking=arrays(np.int32, st.integers(1, 48), elements=INT32),
        seeds=arrays(np.int32, st.integers(1, 24), elements=INT32),
        tile=TILES,
    )
    def test_all_engines_match_int32_rounds(
            self, compiled_sweep, marking, seeds, tile):
        expected = _int32_rounds(marking, seeds).tobytes()
        with _tiled(pns, "SWEEP_TILE", tile):
            narrow = pns.fire_rounds(marking, seeds)
        assert _widened(narrow, marking).tobytes() == expected
        compiled = compiled_sweep(marking, seeds, np.empty_like(marking))
        assert compiled.tobytes() == expected

    @settings(max_examples=100, deadline=None)
    @given(
        marking=arrays(np.int32, st.integers(1, 48), elements=INT32),
        seed=INT32,
    )
    def test_oracle_is_the_literal_rule(self, marking, seed):
        """``fire_step`` is the spec as written, on any int32 marking."""
        seed = np.int32(seed)
        with np.errstate(over="ignore"):
            literal = (
                (marking * pns.FIRE_MULTIPLIER + np.roll(marking, 1)
                 + np.int32(12345) + seed) & 0x7FFFFFFF
            ) & 255
            step = pns.fire_step(marking, seed)
        assert step.dtype == np.int32
        assert step.tobytes() == literal.astype(np.int32).tobytes()

    def test_single_place_rotates_onto_itself(self):
        marking = np.array([-7], dtype=np.int32)
        seeds = np.array([3, 2 ** 31 - 1], dtype=np.int32)
        expected = _int32_rounds(marking, seeds)
        assert _widened(pns.fire_rounds(marking, seeds), marking).tobytes() \
            == expected.tobytes()

    def test_paper_size_sweep(self):
        rng = np.random.default_rng(2010)
        marking = rng.integers(
            -(2 ** 31), 2 ** 31, size=2 * 1024 * 1024, dtype=np.int64
        ).astype(np.int32)
        seeds = rng.integers(0, 1 << 16, size=16, dtype=np.int32)
        expected = _int32_rounds(marking, seeds)
        narrow = pns.fire_rounds(marking, seeds)
        assert np.array_equal(_widened(narrow, marking), expected)


def _root_by_root(table, acc, roots, weights):
    """K sequential oracle roots: ``acc += w·rys_term(table, t)``."""
    for root, weight in zip(roots, weights):
        acc += np.float32(weight) * rpes.rys_term(table, root)
    return acc


#: Finite float32 values of either sign, small enough that no sum of ~70
#: cubic terms overflows.
FLOAT32 = st.floats(-1e4, 1e4, width=32)


class TestRpesEngine:
    """The tiled, batched rpes engine against the per-root oracle."""

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        n_integrals=st.integers(1, 40),
        n_roots=st.integers(1, 70),
        tile=TILES,
    )
    def test_engine_matches_root_by_root(
            self, data, n_integrals, n_roots, tile):
        table = data.draw(arrays(np.float32, 4 * n_integrals,
                                 elements=FLOAT32))
        start = data.draw(arrays(np.float32, n_integrals, elements=FLOAT32))
        roots = data.draw(arrays(np.float32, n_roots,
                                 elements=st.floats(-2, 2, width=32)))
        weights = data.draw(arrays(np.float32, n_roots,
                                   elements=st.floats(-2, 2, width=32)))
        expected = _root_by_root(table, start.copy(), roots, weights)
        acc = start.copy()
        with _tiled(rpes, "ROOT_TILE", tile):
            rpes.accumulate_roots(table, acc, roots, weights)
        assert acc.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("mode, protocol", [
        ("cuda", "rolling"), ("gmac", "lazy"),
    ])
    def test_every_root_runs_in_one_batch(self, mode, protocol, monkeypatch):
        batches = []
        batched_fn = rpes.RPES_KERNEL.batched_fn

        def recording(gpu, launches):
            batches.append(len(launches))
            batched_fn(gpu, launches)

        monkeypatch.setattr(rpes.RPES_KERNEL, "batched_fn", recording)
        workload = make_workload("rpes", quick=True)
        result = workload.execute(mode=mode, protocol=protocol)
        assert result.verified
        assert batches == [workload.n_roots]
