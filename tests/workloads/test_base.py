"""The workload harness itself."""

import numpy as np
import pytest

from repro.util.errors import ReproError
from repro.experiments.common import make_workload
from repro.workloads.base import ValueMemo, Workload


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
