"""The persistent worker-pool engine and its shared-memory result plane.

The engine's contract (ISSUE acceptance criteria):

* any pool shape — persistent, legacy fork, serial — leaves the caches
  byte-identical (canonical form) to a serial sweep, for every worker
  completion order including crash-and-requeue;
* workers fork once per executor lifetime and a warm cache spawns none;
* a crashed worker is respawned and its in-flight spec requeued exactly
  once — a spec that kills two fresh workers raises :class:`WorkerCrash`;
* spawn-only platforms rebuild the memoized inputs per worker instead of
  silently recomputing them per spec; a fork-only code path degrades to
  serial where fork is unavailable;
* the pool shape is engine configuration: it never joins a spec or its
  cache key.
"""

import multiprocessing
import os
import pickle
import signal
import struct
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import common
from repro.experiments import pool as pool_module
from repro.experiments.cache import ResultCache
from repro.experiments.executor import ExperimentExecutor, expand
from repro.experiments.pool import (
    PersistentWorkerPool, StreamingMerge, WorkerCrash, distinct_configs,
    rebuild_memoized_inputs,
)
from repro.experiments.spec import RunSpec, SpecOutcome, WORKLOAD_FACTORIES
from repro.workloads.vecadd import VectorAdd

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

fork_only = pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")

#: Wall-clock budget for a test whose workers die (host seconds).
TIME_LIMIT_S = 60


@pytest.fixture
def time_limit():
    """Fail, instead of hanging the suite, a pool that stops progressing."""
    def expire(signum, frame):
        raise TimeoutError(f"pool test exceeded {TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _vec_spec(elements):
    return RunSpec.make(
        "vecadd", params={"elements": elements}, layer="driver",
    )


def _specs(count=4, base=512):
    return [_vec_spec(base + 256 * i) for i in range(count)]


def _canonical(outcomes):
    return [outcome.canonical_bytes() for outcome in outcomes]


def _engine_run(pool, specs):
    """Run ``specs`` on a started engine; outcomes back in spec order."""
    merge = StreamingMerge(specs)
    pool.run(
        list(enumerate(specs)),
        lambda seq, outcome, host_s: merge.deposit(seq, outcome),
    )
    return merge.ordered()


class TestEngine:
    @fork_only
    def test_outcomes_byte_identical_to_serial(self):
        specs = _specs(5)
        serial = [spec.execute() for spec in specs]
        with PersistentWorkerPool(jobs=3) as pool:
            pool.start()
            pooled = _engine_run(pool, specs)
        assert pooled == serial
        assert _canonical(pooled) == _canonical(serial)
        assert pool.counters.get("plane_payloads") == len(specs)
        assert pool.counters.get("specs_completed") == len(specs)

    @fork_only
    def test_oversize_outcome_rides_the_queue(self):
        """A slab too small for any outcome falls back inline, never wrong."""
        specs = _specs(3)
        serial = [spec.execute() for spec in specs]
        with PersistentWorkerPool(jobs=2, slab_size=32) as pool:
            pool.start()
            pooled = _engine_run(pool, specs)
        assert _canonical(pooled) == _canonical(serial)
        assert pool.counters.get("plane_inline_fallbacks") == len(specs)
        assert pool.counters.get("plane_payloads", 0) == 0

    @fork_only
    def test_workers_fork_once_across_primes(self, tmp_path):
        common.clear_cache()
        executor = ExperimentExecutor(jobs=2, cache_dir=tmp_path)
        with executor.cache_context():
            executor.prime(_specs(3))
            assert executor.counters.get("workers_spawned") == 2
            executor.prime(_specs(3, base=4096))
        executor.close()
        common.clear_cache()
        # The second prime reused the same live workers.
        assert executor.counters.get("workers_spawned") == 2

    def test_warm_prime_spawns_no_workers(self, tmp_path):
        specs = _specs(3)
        common.clear_cache()
        cold = ExperimentExecutor(jobs=2, cache_dir=tmp_path)
        with cold.cache_context():
            cold.prime(specs)
        cold.close()
        common.clear_cache()  # only the disk cache remains
        warm = ExperimentExecutor(jobs=2, cache_dir=tmp_path)
        with warm.cache_context():
            warm.prime(specs)
        warm.close()
        common.clear_cache()
        assert warm.stats == {"expanded": 3, "reused": 3, "executed": 0,
                              "gave_up": 0}
        assert warm.counters.get("workers_spawned") == 0
        assert warm.counters.get("warm_hits") == 3


@pytest.mark.usefixtures("time_limit")
class TestCrashRecovery:
    """The supervisor's bounded-retry ladder (RecoveryPolicy idiom)."""

    @staticmethod
    def _crash_factory(marker):
        parent = os.getpid()

        def build(elements=512, **_ignored):
            # Workers inherit this closure through fork.  The parent
            # (pre-warm) and the respawned worker (marker exists) build
            # normally; the first worker to get here dies mid-spec.
            if os.getpid() != parent and not os.path.exists(marker):
                open(marker, "w").close()
                os._exit(17)
            return VectorAdd(elements=elements)

        return build

    @fork_only
    def test_crash_respawns_and_requeues_exactly_once(
            self, tmp_path, monkeypatch):
        marker = str(tmp_path / "crashed")
        monkeypatch.setitem(
            WORKLOAD_FACTORIES, "crashonce", self._crash_factory(marker)
        )
        specs = _specs(3) + [
            RunSpec.make("crashonce", params={"elements": 512}, layer="driver")
        ]
        with PersistentWorkerPool(jobs=2) as pool:
            pool.start()
            pooled = _engine_run(pool, specs)
        assert os.path.exists(marker)  # the crash really happened
        assert pool.counters.get("worker_respawns") == 1
        assert pool.counters.get("specs_requeued") == 1
        assert all(outcome is not None for outcome in pooled)
        # The requeued spec's replacement execution matches a direct one.
        assert (pooled[-1].canonical_bytes()
                == specs[-1].execute().canonical_bytes())

    @fork_only
    def test_torn_result_message_costs_one_respawn(
            self, tmp_path, monkeypatch):
        """A worker dying mid-message loses only its own result pipe."""
        marker = str(tmp_path / "torn")
        worker_main = pool_module._worker_main

        class TearFirstDone:
            def __init__(self, pipe):
                self.pipe = pipe

            def send(self, message):
                if message[0] == "done" and not os.path.exists(marker):
                    open(marker, "w").close()
                    # A length header promising more bytes than follow.
                    os.write(self.pipe.fileno(),
                             struct.pack("!i", 64) + b"torn")
                    os._exit(17)
                self.pipe.send(message)

            def close(self):
                self.pipe.close()

        def tearing_main(worker_id, token, tasks, results, *rest):
            worker_main(worker_id, token, tasks, TearFirstDone(results), *rest)

        monkeypatch.setattr(pool_module, "_worker_main", tearing_main)
        specs = _specs(3)
        serial = [spec.execute() for spec in specs]
        with PersistentWorkerPool(jobs=2) as pool:
            pool.start()
            pooled = _engine_run(pool, specs)
        assert os.path.exists(marker)  # a message really was torn
        assert pool.counters.get("worker_respawns") == 1
        assert pool.counters.get("specs_requeued") == 1
        assert _canonical(pooled) == _canonical(serial)

    @fork_only
    def test_second_crash_on_same_spec_raises(self, monkeypatch):
        parent = os.getpid()

        def always_crash(elements=512, **_ignored):
            if os.getpid() != parent:
                os._exit(17)
            return VectorAdd(elements=elements)

        monkeypatch.setitem(WORKLOAD_FACTORIES, "crashalways", always_crash)
        spec = RunSpec.make(
            "crashalways", params={"elements": 512}, layer="driver"
        )
        pool = PersistentWorkerPool(jobs=2)
        pool.start()
        with pytest.raises(WorkerCrash):
            _engine_run(pool, [spec])
        assert not pool.started  # the failed pool shut itself down


class TestSpawnRebuild:
    def test_spawn_workers_rebuild_memoized_inputs(self):
        """Without fork inheritance each worker rewarm the memo once."""
        specs = _specs(4)
        serial = [spec.execute() for spec in specs]
        configs = distinct_configs(specs)
        pool = PersistentWorkerPool(jobs=2, start_method="spawn")
        with pool:
            pool.start(configs=configs)
            pooled = _engine_run(pool, specs)
        assert _canonical(pooled) == _canonical(serial)
        assert pool.counters.get("worker_rebuilds") == 2 * len(configs)

    def test_fork_pool_degrades_to_serial_without_fork(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        common.clear_cache()
        executor = ExperimentExecutor(jobs=2, cache_dir=tmp_path, pool="fork")
        with executor.cache_context():
            executor.prime(_specs(3))
        executor.close()
        common.clear_cache()
        assert executor.counters.get("degraded_serial") == 1
        assert executor.stats["executed"] == 3
        cache = ResultCache(tmp_path)
        assert all(cache.get(spec) is not None for spec in _specs(3))

    def test_rebuild_tolerates_broken_configs(self):
        built = rebuild_memoized_inputs(
            [("vecadd", (("elements", 512),)),
             ("vecadd", (("no_such_kwarg", 1),))]
        )
        assert built == 1


class TestPoolShapeCollapse:
    """The pool shape is engine configuration, never part of a key."""

    def test_pool_is_not_a_spec_field(self):
        assert "pool" not in RunSpec.__dataclass_fields__
        assert "jobs" not in RunSpec.__dataclass_fields__

    def test_cache_entries_identical_across_pool_shapes(self, tmp_path):
        specs = _specs(3)
        entries = {}
        for kind, jobs in (("serial", 1), ("persistent", 2), ("fork", 2)):
            if kind == "fork" and not HAVE_FORK:
                continue
            common.clear_cache()
            cache_dir = tmp_path / kind
            executor = ExperimentExecutor(
                jobs=jobs, cache_dir=cache_dir, pool=kind
            )
            with executor.cache_context():
                executor.prime(specs)
            executor.close()
            common.clear_cache()
            cache = ResultCache(cache_dir)
            entries[kind] = {
                "paths": sorted(p.name for p in cache_dir.glob("*.pkl")),
                "bytes": _canonical(cache.get(spec) for spec in specs),
            }
        assert all(e == entries["serial"] for e in entries.values())


@pytest.fixture(scope="module")
def merge_fixture():
    """Five executed specs plus their serial outcomes, computed once."""
    specs = _specs(5, base=256)
    return specs, [spec.execute() for spec in specs]


class TestStreamingMerge:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_any_completion_order_merges_byte_identical(
            self, merge_fixture, data):
        """Randomized worker completion orders (requeue dupes included)."""
        specs, serial = merge_fixture
        order = data.draw(st.permutations(list(range(len(specs)))))
        dupes = data.draw(
            st.lists(st.integers(0, len(specs) - 1), max_size=4)
        )
        committed = []
        merge = StreamingMerge(
            specs, commit=lambda spec, outcome: committed.append(spec)
        )
        landed = set()
        for seq in order:
            assert merge.deposit(seq, serial[seq]) is True
            landed.add(seq)
            for dupe in dupes:
                if dupe in landed:
                    # A crashed worker's spec re-executed after requeue:
                    # deterministic execution makes the second arrival a
                    # value-equal copy, which the merge drops.
                    copy = pickle.loads(pickle.dumps(serial[dupe]))
                    assert merge.deposit(dupe, copy) is False
        assert merge.complete
        merged = merge.ordered()
        assert merged == serial
        assert _canonical(merged) == _canonical(serial)
        assert sorted(committed, key=specs.index) == specs
        assert len(committed) == len(specs)  # commit fired once per seq

    def test_incomplete_merge_refuses_to_order(self, merge_fixture):
        specs, serial = merge_fixture
        merge = StreamingMerge(specs)
        merge.deposit(0, serial[0])
        with pytest.raises(RuntimeError, match="never landed"):
            merge.ordered()


class TestCacheConcurrency:
    def test_concurrent_writers_leave_a_valid_entry(self, tmp_path):
        spec = _vec_spec(1024)
        outcome = spec.execute()
        cache = ResultCache(tmp_path)
        errors = []

        def hammer():
            try:
                for _ in range(5):
                    cache.put(spec, outcome)
            except Exception as error:  # pragma: no cover - the assertion
                errors.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        loaded = cache.get(spec)
        assert loaded is not None
        assert loaded.canonical_bytes() == outcome.canonical_bytes()
        assert not list(tmp_path.glob("*.tmp"))  # no staging litter

    def test_put_verifies_after_rename(self, tmp_path, monkeypatch):
        spec = _vec_spec(1024)
        cache = ResultCache(tmp_path)
        monkeypatch.setattr(
            ResultCache, "_write_atomic",
            staticmethod(lambda path, entry: path.write_bytes(b"torn")),
        )
        with pytest.raises(OSError, match="verification"):
            cache.put(spec, spec.execute())


class TestTimingMetadata:
    def test_roundtrip_and_merge(self, tmp_path):
        cache = ResultCache(tmp_path)
        a, b = _vec_spec(512), _vec_spec(1024)
        cache.record_timings({ResultCache.timing_key(a): 0.25})
        cache.record_timings({ResultCache.timing_key(b): 1.5})
        assert cache.expected_cost(a) == 0.25
        assert cache.expected_cost(b) == 1.5

    def test_timing_key_survives_source_edits(self, monkeypatch):
        spec = _vec_spec(512)
        before = ResultCache.timing_key(spec)
        monkeypatch.setattr(
            "repro.experiments.cache.source_fingerprint", lambda: "changed"
        )
        assert ResultCache.timing_key(spec) == before

    def test_corrupt_timings_tolerated(self, tmp_path):
        cache = ResultCache(tmp_path)
        tmp_path.mkdir(exist_ok=True)
        (tmp_path / "timings.json").write_text("{not json")
        assert cache.timings() == {}
        assert cache.expected_cost(_vec_spec(512)) is None
        cache.record_timings({"k": 1.0})  # recovers by rewriting
        assert cache.timings() == {"k": 1.0}


class TestCostOrdering:
    def test_recorded_timings_rank_longest_first(self, tmp_path):
        specs = _specs(3)  # cost hints ascending with elements
        executor = ExperimentExecutor(jobs=2, cache_dir=tmp_path)
        executor.cache.record_timings({
            ResultCache.timing_key(specs[0]): 9.0,
            ResultCache.timing_key(specs[2]): 1.0,
        })
        ordered = executor._cost_ordered(specs)
        executor.close()
        # Each population ranks big-first: the untimed specs[1] keeps its
        # unitless cost hint, the timed specs keep host seconds (9.0 > 1.0).
        assert [seq for seq, _ in ordered] == [1, 0, 2]

    def test_cost_hint_fallback_orders_by_size(self, tmp_path):
        specs = _specs(3)
        executor = ExperimentExecutor(jobs=2, cache_dir=tmp_path)
        ordered = executor._cost_ordered(specs)
        executor.close()
        assert [seq for seq, _ in ordered] == [2, 1, 0]
        hints = [spec.cost_hint() for spec in specs]
        assert hints == sorted(hints)

    def test_cost_hint_scales_with_devices(self):
        one = RunSpec.make("vecadd", params={"elements": 512}, devices=1)
        two = RunSpec.make("vecadd", params={"elements": 512}, devices=2)
        assert two.cost_hint() == 2 * one.cost_hint()
