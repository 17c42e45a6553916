"""The tiled kernel engines against their oracles.

pns's uint8 sweep and int32 oracle, and rpes's batched root engine and
tiled oracle, compute byte-identical results to the literal per-round
(per-root) rules for any input the host may write.  The spec key leaves
out the fixed ``RunSpec.backend`` field.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.experiments.common import make_workload
from repro.experiments.spec import RunSpec
from repro.workloads.parboil import pns, rpes


class TestSpecKey:
    def test_numpy_backend_stays_out_of_the_key(self):
        spec = RunSpec.make(workload="vecadd", params={"elements": 4096})
        assert spec.backend == "numpy"
        assert '"backend"' not in spec.key()


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
    """The kernel's tiled uint8 engine and the int32 oracle compute the
    same markings, byte for byte."""

    @settings(max_examples=150, deadline=None)
    @given(
        marking=arrays(np.int32, st.integers(1, 48), elements=INT32),
        seeds=arrays(np.int32, st.integers(1, 24), elements=INT32),
        tile=TILES,
        oracle_tile=TILES,
    )
    def test_all_engines_match_int32_rounds(
            self, marking, seeds, tile, oracle_tile):
        expected = _int32_rounds(marking, seeds).tobytes()
        with _tiled(pns, "SWEEP_TILE", tile):
            narrow = pns.fire_rounds(marking, seeds)
        assert _widened(narrow, marking).tobytes() == expected
        out = np.empty_like(marking)
        with _tiled(pns, "ORACLE_TILE", oracle_tile), \
                np.errstate(over="ignore"):
            oracle = pns.oracle_rounds(marking, seeds, out)
        assert oracle is out
        assert oracle.tobytes() == expected

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
    """The tiled, batched rpes engine and the tiled oracle against the
    per-root rule."""

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

    @settings(max_examples=60, deadline=None)
    @given(
        n_integrals=st.integers(1, 40),
        n_roots=st.integers(1, 70),
        seed=st.integers(0, 2 ** 16),
        tile=TILES,
    )
    def test_oracle_matches_root_by_root(
            self, n_integrals, n_roots, seed, tile):
        workload = rpes.RysPolynomial(
            n_integrals=n_integrals, n_roots=n_roots, seed=seed
        )
        expected = _root_by_root(
            workload.params, np.zeros(n_integrals, dtype=np.float32),
            workload.roots, workload.weights,
        )
        with _tiled(rpes, "ORACLE_TILE", tile):
            oracle = workload.reference()["integrals"]
        assert oracle.dtype == np.float32
        assert oracle.tobytes() == expected.tobytes()

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
