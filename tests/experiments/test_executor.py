"""The sweep executor: determinism, caching and spec expansion.

The engine's contract (ISSUE acceptance criteria):

* a parallel sweep produces results byte-identical to a serial one —
  the streaming merge restores spec order, so worker scheduling never
  leaks into the tables;
* a warm persistent cache satisfies a rerun with **zero** workload
  executions (asserted via the process-global execution counter);
* expansion deduplicates specs shared between figures (fig7 and fig8
  project the same protocol runs).
"""

import pytest

from repro.experiments import common
from repro.experiments.cache import ResultCache
from repro.experiments.executor import ExperimentExecutor, expand
from repro.experiments.spec import RunSpec, WORKLOAD_FACTORIES
from repro.util.errors import RecoveryExhausted
from repro.workloads import base as workload_base

EXPERIMENTS = ["fig7", "fig12"]


def _run_sweep(jobs, cache_dir):
    """One fresh sweep of EXPERIMENTS: empty memory, private disk cache."""
    common.clear_cache()
    executor = ExperimentExecutor(jobs=jobs, cache_dir=cache_dir)
    results = executor.run_many(EXPERIMENTS, quick=True)
    return executor, {
        experiment_id: result.to_json() for experiment_id, result in results
    }


class TestDeterminism:
    def test_parallel_matches_serial(self, tmp_path):
        _, serial = _run_sweep(jobs=1, cache_dir=tmp_path / "serial")
        executor, parallel = _run_sweep(jobs=4, cache_dir=tmp_path / "parallel")
        common.clear_cache()
        assert executor.stats["executed"] > 0  # the pool really ran
        assert parallel == serial

    def test_pool_merge_is_spec_ordered(self, tmp_path):
        common.clear_cache()
        executor = ExperimentExecutor(jobs=4, cache_dir=tmp_path)
        specs = expand(EXPERIMENTS, quick=True)
        with executor.cache_context():
            executor.prime(specs)
            outcomes = [common.peek(spec) for spec in specs]
        common.clear_cache()
        assert all(outcome is not None for outcome in outcomes)
        for spec, outcome in zip(specs, outcomes):
            assert outcome.spec == spec


class TestWarmCache:
    def test_warm_rerun_executes_nothing(self, tmp_path):
        _, cold = _run_sweep(jobs=1, cache_dir=tmp_path)
        common.clear_cache()  # drop memory: only the disk cache remains
        before = workload_base.EXECUTIONS
        _, warm = _run_sweep(jobs=1, cache_dir=tmp_path)
        common.clear_cache()
        assert workload_base.EXECUTIONS == before
        assert warm == cold

    def test_no_cache_executes_again(self, tmp_path):
        executor, _ = _run_sweep(jobs=1, cache_dir=tmp_path)
        first = dict(executor.stats)
        common.clear_cache()
        before = workload_base.EXECUTIONS
        common.clear_cache()
        uncached = ExperimentExecutor(jobs=1, use_cache=False)
        assert uncached.cache is None
        uncached.run_many(EXPERIMENTS, quick=True)
        common.clear_cache()
        assert uncached.stats["executed"] == first["expanded"]
        assert workload_base.EXECUTIONS == before + first["expanded"]


#: A spec whose recovery gives up: under a 25% transfer-fault storm, pns
#: spends all nine attempts of one flush of its marking.
EXHAUSTED = RunSpec.make(
    workload="pns",
    params=dict(common.QUICK_PARAMS["pns"], seed=65017),
    protocol="rolling",
    layer="driver",
    fault_plan=dict(seed=65027, transfer_fault_rate=0.25),
    recovery=dict(degrade_min_attempts=8, degrade_threshold=0.15),
)

#: Job counts: 1 runs inline, 2 runs the persistent pool.
JOBS = pytest.mark.parametrize("jobs", [1, 2],
                               ids=["serial-1", "persistent-2"])


def _healthy(elements):
    return RunSpec.make(
        workload="vecadd", params={"elements": elements}, layer="driver",
    )


class TestGaveUp:
    """One spec's RecoveryExhausted is that spec's result, not the sweep's."""

    @JOBS
    def test_exhausted_spec_does_not_abort_the_sweep(self, jobs, tmp_path):
        healthy = [_healthy(4096), _healthy(8192)]
        specs = [healthy[0], EXHAUSTED, healthy[1]]
        common.clear_cache()
        executor = ExperimentExecutor(jobs=jobs, cache_dir=tmp_path)
        try:
            with executor.cache_context():
                stats = executor.prime(specs)
                assert stats == {"expanded": 3, "reused": 0, "executed": 3,
                                 "gave_up": 1}
                assert all(common.peek(spec).verified for spec in healthy)
                assert common.peek(EXHAUSTED) is None
                # What an experiment's run() meets: the typed error its
                # gave-up handling turns into a row.
                with pytest.raises(RecoveryExhausted) as excinfo:
                    common.run_spec(EXHAUSTED)
                assert excinfo.value.attempts == 9
        finally:
            executor.close()
            common.clear_cache()
        assert ResultCache(tmp_path).get(EXHAUSTED) is None

    @JOBS
    def test_other_errors_still_propagate(self, jobs, tmp_path, monkeypatch):
        def broken(**_params):
            raise ValueError("not a recovery failure")

        monkeypatch.setitem(WORKLOAD_FACTORIES, "broken", broken)
        specs = [_healthy(4096), RunSpec.make("broken", layer="driver")]
        common.clear_cache()
        executor = ExperimentExecutor(jobs=jobs, cache_dir=tmp_path)
        try:
            with executor.cache_context():
                with pytest.raises(ValueError, match="not a recovery"):
                    executor.prime(specs)
        finally:
            executor.close()
            common.clear_cache()


class TestExpansion:
    def test_expand_deduplicates_shared_specs(self):
        fig7 = expand(["fig7"], quick=True)
        fig8 = expand(["fig8"], quick=True)
        union = expand(["fig7", "fig8"], quick=True)
        assert len(union) == len(set(union))
        # fig8's protocol comparison is a subset of fig7's sweep.
        assert len(union) < len(fig7) + len(fig8)

    def test_expand_preserves_first_seen_order(self):
        union = expand(["fig7", "fig12"], quick=True)
        fig7 = expand(["fig7"], quick=True)
        assert union[: len(fig7)] == fig7

    def test_experiments_without_hook_expand_empty(self):
        assert expand(["tab2"], quick=True) == []


class TestResultCache:
    def _spec(self):
        return RunSpec.make(
            workload="vecadd", params={"elements": 4096}, protocol="rolling",
            layer="driver",
        )

    def test_roundtrip(self, tmp_path):
        spec = self._spec()
        cache = ResultCache(tmp_path)
        assert cache.get(spec) is None
        outcome = spec.execute()
        cache.put(spec, outcome)
        assert len(cache) == 1
        loaded = cache.get(spec)
        assert loaded.elapsed == outcome.elapsed
        assert loaded.breakdown == outcome.breakdown
        assert loaded.spec == spec

    def test_source_fingerprint_addresses_entries(self, tmp_path, monkeypatch):
        spec = self._spec()
        cache = ResultCache(tmp_path)
        cache.put(spec, spec.execute())
        monkeypatch.setattr(
            "repro.experiments.cache.source_fingerprint", lambda: "changed"
        )
        assert cache.get(spec) is None  # old entry no longer addressed

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        spec = self._spec()
        cache = ResultCache(tmp_path)
        cache.put(spec, spec.execute())
        for path in cache.root.glob("*.pkl"):
            path.write_bytes(b"not a pickle")
        assert cache.get(spec) is None
