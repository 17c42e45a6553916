"""The persistent worker-pool engine.

The engine's contract:

* a pooled sweep leaves the caches byte-identical (canonical form) to a
  serial one, for every worker completion order including
  crash-and-requeue;
* workers fork once per executor lifetime from a parent that builds no
  workload input or oracle, and a warm cache spawns none;
* every spec of a configuration runs on the worker that claimed it,
  unless another worker with nothing of its own left steals it (counted
  in ``specs_stolen``);
* each worker runs ``max(1, CPUs // jobs)`` OpenBLAS threads;
* a crashed worker is respawned and its in-flight specs requeued; the
  spec it was executing spends its one requeue — a spec that kills two
  fresh workers raises :class:`WorkerCrash` — and a spec queued behind
  it is requeued free;
* spawn-only platforms rebuild the memoized inputs per worker instead of
  silently recomputing them per spec;
* the job count is engine configuration: it never joins a spec or its
  cache key.
"""

import collections
import ctypes
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
    AffinityQueue, PersistentWorkerPool, StreamingMerge, WorkerCrash,
    distinct_configs, rebuild_memoized_inputs,
)
from repro.experiments.spec import RunSpec, SpecOutcome, WORKLOAD_FACTORIES
from repro.workloads import base as workload_base
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


def _claim(marker):
    """Create ``marker``; True only for the one process that made it.

    Exclusive creation, because two workers finishing at once could both
    see it missing before either wrote it.
    """
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return False
    return True


def _engine_run(pool, specs):
    """Run ``specs`` on a started engine; outcomes back in spec order."""
    merge = StreamingMerge(specs)
    pool.run(
        list(enumerate(specs)),
        lambda seq, outcome, host_s: merge.deposit(seq, outcome),
    )
    return merge.ordered()


def _pid_factory(report):
    """A vecadd factory that appends ``<elements> <pid>`` to ``report``
    each time a worker (not the parent) builds a workload."""
    parent = os.getpid()

    def build(elements=512, **_ignored):
        if os.getpid() != parent:
            fd = os.open(report, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
            os.write(fd, f"{elements} {os.getpid()}\n".encode())
            os.close(fd)
        return VectorAdd(elements=elements)

    return build


def _pids_by_elements(report):
    """``{elements: [pid per spec run]}`` from a :func:`_pid_factory`
    report."""
    found = collections.defaultdict(list)
    for line in report.read_text().splitlines():
        elements, pid = line.split()
        found[int(elements)].append(int(pid))
    return found


def _probe_specs(elements):
    """Three specs of one ``pidprobe`` configuration (one per protocol)."""
    return [
        RunSpec.make("pidprobe", params={"elements": elements},
                     protocol=protocol, layer="driver")
        for protocol in ("batch", "lazy", "rolling")
    ]


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
        assert pool.counters.get("plane_bytes") > 0
        assert pool.counters.get("specs_completed") == len(specs)

    @fork_only
    def test_workers_run_their_share_of_blas_threads(
            self, tmp_path, monkeypatch):
        found = pool_module.loaded_openblas()
        if found is None:
            pytest.skip("numpy loaded no OpenBLAS with a known setter")
        library, setter = found
        getter = getattr(library, setter.replace("_set_", "_get_"))
        getter.argtypes, getter.restype = [], ctypes.c_int
        parent = os.getpid()
        report = tmp_path / "threads"

        def build(elements=512, **_ignored):
            if os.getpid() != parent:
                report.write_text(str(getter()))
            return VectorAdd(elements=elements)

        monkeypatch.setitem(WORKLOAD_FACTORIES, "blasprobe", build)
        spec = RunSpec.make("blasprobe", params={"elements": 512},
                            layer="driver")
        jobs = 2
        with PersistentWorkerPool(jobs=jobs) as pool:
            pool.start()
            _engine_run(pool, [spec])
        cpus = len(os.sched_getaffinity(0))
        assert int(report.read_text()) == max(1, cpus // jobs)

    @fork_only
    def test_workers_fork_once_across_primes(self, tmp_path, monkeypatch):
        # Fresh memo tables, so anything the parent builds shows up here.
        monkeypatch.setattr(workload_base, "_INPUT_CACHE", {})
        monkeypatch.setattr(workload_base, "_REFERENCE_CACHE", {})
        common.clear_cache()
        executor = ExperimentExecutor(jobs=2, cache_dir=tmp_path)
        with executor.cache_context():
            executor.prime(_specs(3))
            assert executor.counters.get("workers_spawned") == 2
            executor.prime(_specs(3, base=4096))
        executor.close()
        common.clear_cache()
        # The second prime reused the same live workers, and the workers
        # built every input and oracle: the parent built none.
        assert executor.counters.get("workers_spawned") == 2
        assert executor.stats["executed"] == 3
        assert workload_base._INPUT_CACHE == {}
        assert workload_base._REFERENCE_CACHE == {}

    @fork_only
    def test_each_configuration_runs_on_its_claimant(
            self, tmp_path, monkeypatch):
        report = tmp_path / "pids"
        monkeypatch.setitem(WORKLOAD_FACTORIES, "pidprobe",
                            _pid_factory(str(report)))
        specs = _probe_specs(512) + _probe_specs(768)
        serial = [spec.execute() for spec in specs]
        with PersistentWorkerPool(jobs=2) as pool:
            pool.start()
            pooled = _engine_run(pool, specs)
        assert _canonical(pooled) == _canonical(serial)
        pids = _pids_by_elements(report)
        assert sorted(pids) == [512, 768]
        claimants = []
        strays = 0
        for ran_on in pids.values():
            assert len(ran_on) == 3
            claimant, runs = collections.Counter(ran_on).most_common(1)[0]
            claimants.append(claimant)
            strays += 3 - runs
        # The two configurations went to different workers, and a spec
        # ran away from its configuration's claimant only as a steal.
        assert claimants[0] != claimants[1]
        assert strays <= pool.counters.get("specs_stolen")

    @fork_only
    def test_idle_worker_steals_from_a_lone_configuration(
            self, tmp_path, monkeypatch):
        report = tmp_path / "pids"
        monkeypatch.setitem(WORKLOAD_FACTORIES, "pidprobe",
                            _pid_factory(str(report)))
        specs = _probe_specs(512) + [
            RunSpec.make("pidprobe", params={"elements": 512},
                         mode=mode, layer="driver")
            for mode in ("cuda", "cuda-db")
        ]
        serial = [spec.execute() for spec in specs]
        with PersistentWorkerPool(jobs=2) as pool:
            pool.start()
            pooled = _engine_run(pool, specs)
        assert _canonical(pooled) == _canonical(serial)
        # One configuration, five specs, two workers: the second worker
        # has nothing of its own, so it steals rather than idles.
        assert pool.counters.get("specs_stolen") > 0
        assert len(set(_pids_by_elements(report)[512])) == 2

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


class TestAffinityQueue:
    """The dealing rules, without processes."""

    @staticmethod
    def _config(elements, count):
        return [
            _vec_spec(elements) if index == 0 else RunSpec.make(
                "vecadd", params={"elements": elements}, layer="driver",
                protocol=("batch", "lazy")[index - 1])
            for index in range(count)
        ]

    def test_claim_then_steal(self):
        specs = self._config(512, 3) + self._config(768, 2) + [_vec_spec(1024)]
        queue = AffinityQueue(list(enumerate(specs)))
        dealt = [queue.take(worker) for worker in (0, 1, 0, 1, 1, 1)]
        assert [(seq, stolen) for (seq, _), stolen in dealt] == [
            (0, False),  # worker 0 claims the first configuration
            (3, False),  # worker 1 claims the second
            (1, False),
            (4, False),
            (5, False),  # worker 1 claims the last unclaimed one
            (2, True),   # nothing unclaimed left: worker 1 steals
        ]
        assert len(queue) == 0

    def test_requeue_keeps_order_and_claims(self):
        specs = self._config(512, 3) + [_vec_spec(768)]
        queue = AffinityQueue(list(enumerate(specs)))
        inflight = [queue.take(0)[0], queue.take(0)[0]]
        assert queue.take(1)[0][0] == 3
        # Worker 0 died holding seqs 0 and 1: they go back in front, in
        # order, and its respawn still holds their configuration.
        queue.requeue(inflight)
        assert len(queue) == 3
        assert [queue.take(0) for _ in range(3)] == [
            ((seq, specs[seq]), False) for seq in (0, 1, 2)
        ]


@pytest.mark.usefixtures("time_limit")
class TestCrashRecovery:
    """The supervisor's bounded-retry ladder (RecoveryPolicy idiom)."""

    @staticmethod
    def _crash_factory(marker):
        parent = os.getpid()

        def build(elements=512, **_ignored):
            # Workers inherit this closure through fork.  The parent
            # (a serial reference run) and the respawned worker (marker
            # exists) build normally; the first worker to get here dies
            # mid-spec.
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
    def test_spec_queued_behind_a_crash_is_requeued_free(
            self, tmp_path, monkeypatch):
        """One worker holds a crash-once spec and a healthy one: both go
        back, and only the spec it was executing is charged."""
        marker = str(tmp_path / "crashed")
        monkeypatch.setitem(
            WORKLOAD_FACTORIES, "crashonce", self._crash_factory(marker)
        )
        specs = [
            RunSpec.make("crashonce", params={"elements": 512},
                         layer="driver"),
            _vec_spec(768),
        ]
        serial = [spec.execute() for spec in specs]
        with PersistentWorkerPool(jobs=1) as pool:
            pool.start()
            pooled = _engine_run(pool, specs)
        assert os.path.exists(marker)  # the crash really happened
        assert pool.counters.get("worker_respawns") == 1
        assert pool.counters.get("specs_requeued") == 1
        assert _canonical(pooled) == _canonical(serial)

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
                if message[0] == "done" and _claim(marker):
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

    def test_rebuild_tolerates_broken_configs(self):
        built = rebuild_memoized_inputs(
            [("vecadd", (("elements", 512),)),
             ("vecadd", (("no_such_kwarg", 1),))]
        )
        assert built == 1


class TestPoolShapeCollapse:
    """The job count is engine configuration, never part of a key."""

    def test_pool_is_not_a_spec_field(self):
        assert "pool" not in RunSpec.__dataclass_fields__
        assert "jobs" not in RunSpec.__dataclass_fields__

    def test_cache_entries_identical_across_pool_shapes(self, tmp_path):
        specs = _specs(3)
        entries = {}
        for kind, jobs in (("serial", 1), ("persistent", 2)):
            common.clear_cache()
            cache_dir = tmp_path / kind
            executor = ExperimentExecutor(jobs=jobs, cache_dir=cache_dir)
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
