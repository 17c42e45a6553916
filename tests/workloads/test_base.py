"""The workload harness itself."""

import collections

import numpy as np
import pytest

from repro.util.errors import ReproError
from repro.experiments.common import QUICK_PARAMS, make_workload
from repro.experiments.executor import expand
from repro.workloads import base as workload_base
from repro.workloads.base import ValueMemo, Workload
from repro.workloads.parboil import PARBOIL


class TestVerification:
    class Lying(Workload):
        name = "lying"

        def run_cuda(self, app):
            return {"out": np.zeros(4)}

        def run_gmac(self, app, gmac):
            return {"out": np.zeros(4)}

        def reference(self):
            return {"out": np.ones(4)}

    class Incomplete(Lying):
        name = "incomplete"

        def reference(self):
            return {"out": np.zeros(4), "missing": np.zeros(2)}

    class Misshapen(Lying):
        name = "misshapen"

        def reference(self):
            return {"out": np.zeros(8)}

    def test_wrong_values_fail_verification(self):
        assert self.Lying().execute(mode="cuda").verified is False

    def test_missing_output_fails(self):
        assert self.Incomplete().execute(mode="cuda").verified is False

    def test_shape_mismatch_fails(self):
        assert self.Misshapen().execute(mode="cuda").verified is False

    def test_unknown_mode_rejected(self):
        with pytest.raises(ReproError):
            self.Lying().execute(mode="vulkan")

    @pytest.mark.parametrize("name, key", [
        ("pns", "samples"), ("sad", "sad-table.out"),
    ])
    def test_integer_output_off_by_one_fails(self, name, key, monkeypatch):
        """An integer output compares exactly: raising its largest element
        by one is a relative error under 1e-4 on pns samples and sad SADs,
        which a float tolerance would forgive."""
        workload = make_workload(name, quick=True)
        honest = type(workload).run_cuda

        def off_by_one(self, app):
            outputs = dict(honest(self, app))
            value = np.array(outputs[key], copy=True)
            value.flat[np.argmax(value)] += 1
            outputs[key] = value
            return outputs

        assert workload.execute(mode="cuda").verified is True
        monkeypatch.setattr(type(workload), "run_cuda", off_by_one)
        assert workload.execute(mode="cuda").verified is False

    def test_float_output_keeps_its_tolerance(self):
        class Rounded(self.Lying):
            name = "rounded"

            def run_cuda(self, app):
                return {"out": np.full(4, 1 + 1e-6, dtype=np.float32)}

            def reference(self):
                return {"out": np.ones(4, dtype=np.float32)}

        assert Rounded().execute(mode="cuda").verified is True


class TestValueMemoComparesBits:
    """A hit needs the very same input bytes, not merely equal values."""

    @staticmethod
    def _memo(inputs):
        memo = ValueMemo()
        outputs = (np.array([1.0], dtype=np.float32),)
        memo.store("k", inputs, outputs)
        return memo, outputs

    def test_negative_zero_misses_a_positive_zero_entry(self):
        memo, _ = self._memo((np.zeros(64, dtype=np.float32),))
        given = np.zeros(64, dtype=np.float32)
        given[1] = -0.0  # between the fingerprint's samples
        assert np.array_equal(given, np.zeros(64, dtype=np.float32))
        assert memo.lookup("k", (given,)) is None

    def test_nan_input_hits_its_own_entry(self):
        inputs = (np.array([1.0, np.nan, 3.0], dtype=np.complex64),)
        memo, outputs = self._memo(inputs)
        assert memo.lookup("k", (inputs[0].copy(),)) is outputs


class _CountingTable(dict):
    """A memo table that counts how often each key is stored."""

    def __init__(self):
        super().__init__()
        self.stores = collections.Counter()

    def __setitem__(self, key, value):
        self.stores[key] += 1
        super().__setitem__(key, value)


class TestMemoBudget:
    """The input and oracle memos hold at most ``MEMO_BUDGET_BYTES`` of
    arrays each and drop their oldest entries first."""

    NAMES = ("cp", "mri-fhd", "mri-q", "sad")

    @staticmethod
    def _held(table):
        return sum(workload_base._nbytes(value) for value in table.values())

    def _pass(self, seed):
        """Each workload's inputs and oracle at ``seed``, as one pass of
        a benchmark run at moving seeds builds them."""
        for name in self.NAMES:
            PARBOIL[name](**QUICK_PARAMS[name], seed=seed)._reference_outputs()

    def test_moving_seed_passes_stay_under_budget(self, monkeypatch):
        tables = (_CountingTable(), _CountingTable())
        monkeypatch.setattr(workload_base, "_INPUT_CACHE", tables[0])
        monkeypatch.setattr(workload_base, "_REFERENCE_CACHE", tables[1])
        self._pass(seed=100)
        one_pass = max(self._held(table) for table in tables)
        # Room for one pass and a half: a count bound would keep them all.
        budget = 3 * one_pass // 2
        monkeypatch.setattr(workload_base, "MEMO_BUDGET_BYTES", budget)
        for seed in range(101, 105):
            self._pass(seed)
            for table in tables:
                assert 0 < self._held(table) <= budget
        # The newest pass survives whole: running it again stores nothing.
        stores = [sum(table.stores.values()) for table in tables]
        self._pass(seed=104)
        assert [sum(table.stores.values()) for table in tables] == stores

    def test_one_sweep_builds_each_input_once(self, monkeypatch):
        inputs, oracles = _CountingTable(), _CountingTable()
        monkeypatch.setattr(workload_base, "_INPUT_CACHE", inputs)
        monkeypatch.setattr(workload_base, "_REFERENCE_CACHE", oracles)
        specs = expand(["fig7"], quick=True)
        for spec in specs:
            assert spec.execute().verified, spec.key()
        assert len(oracles.stores) == len(PARBOIL)
        for table in (inputs, oracles):
            assert set(table.stores.values()) == {1}
            assert set(table) == set(table.stores)
            assert self._held(table) <= workload_base.MEMO_BUDGET_BYTES
