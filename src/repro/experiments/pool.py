"""Persistent worker pool: fork once, deal specs by configuration.

A one-shot ``multiprocessing.Pool.map`` would pay a fresh fork per sweep
and wait forever once a worker dies.  This engine:

* **forks workers once per executor lifetime** — from a parent that has
  built no workload input or oracle: each worker builds what it runs;
* **deals specs by configuration affinity** — the specs sharing one
  ``(workload, params)`` configuration share its memoized inputs, oracle
  and :class:`~repro.workloads.base.ValueMemo` entries, so the first
  worker to claim a configuration runs all of its specs and builds those
  once, in parallel with the other workers (:class:`AffinityQueue`);
  a worker left with nothing of its own steals rather than idles;
* **runs one BLAS thread per worker** — the workers fill the CPUs, so
  each caps OpenBLAS at ``max(1, CPUs // jobs)`` threads before its first
  BLAS call (:func:`cap_blas_threads`);
* **keeps two specs in flight per worker** — a worker starts its next
  spec while the parent reads its last result;
* **returns each outcome's pickle on the worker's own result pipe** —
  written synchronously from the worker's main thread, with no lock
  shared between processes.  A worker that dies mid-message tears only
  its own pipe, which is retired with it; its exit reads as end-of-file,
  so the parent notices at once.  (A shared ``multiprocessing.Queue``
  could deadlock the pool: a worker exiting while its feeder thread held
  the queue's cross-process write lock blocked every later ``put``.)
* **a supervisor respawns crashed workers** — reusing the watchdog/
  :class:`~repro.core.recovery.RecoveryPolicy` idiom of bounded retries:
  a dead worker's in-flight specs go back, in order, to the front of
  their configurations' queues, and the one it was executing spends its
  *single* requeue; a second crash on the same spec raises
  :class:`WorkerCrash` instead of looping.  The respawned worker keeps
  its predecessor's claims.

Results stream back in completion order; :class:`StreamingMerge` commits
each one as it lands (the caches are keyed by spec, so commit order never
changes cache content) and restores spec order at the end, keeping a
pooled sweep byte-identical to a serial one.

On spawn-only platforms (no ``fork``) each worker still builds every
distinct workload configuration once at startup
(:func:`rebuild_memoized_inputs`).
"""

import collections
import multiprocessing
import os
import pickle
import time

from multiprocessing.connection import wait

from repro.sim.tracing import HostCounters

#: Specs each worker holds at once: the one it executes and the next.
INFLIGHT_PER_WORKER = 2

#: OpenBLAS thread-count setters, tried in order: numpy's bundled
#: ``scipy_openblas`` build, then plain 64- and 32-bit-integer builds.
BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_",
                       "openblas_set_num_threads64_",
                       "openblas_set_num_threads")

#: How long the supervisor waits on the result pipes before checking
#: worker liveness (host seconds; a crashed worker's pipe reads as
#: end-of-file at once, so this only bounds the liveness poll).
_SUPERVISE_INTERVAL_S = 0.05


class WorkerCrash(RuntimeError):
    """A pool worker died twice on the same spec (requeue budget spent)."""


def preferred_start_method():
    """``fork`` where available (inherits warm pages), else the default."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


def loaded_openblas():
    """``(ctypes library, setter name)`` for the OpenBLAS numpy mapped
    (found in ``/proc/self/maps``), or None."""
    import ctypes

    import numpy  # noqa: F401  (maps the OpenBLAS it links)

    try:
        with open("/proc/self/maps") as maps:
            paths = [line.split()[-1] for line in maps if "openblas" in line]
    except OSError:
        return None
    for path in dict.fromkeys(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for name in BLAS_THREAD_SETTERS:
            if hasattr(library, name):
                return library, name
    return None


def cap_blas_threads(jobs):
    """Cap this process's OpenBLAS at ``max(1, affinity CPUs // jobs)``
    threads; without a known OpenBLAS setter, change nothing."""
    import ctypes

    found = loaded_openblas()
    if found is not None:
        library, name = found
        setter = getattr(library, name)
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(max(1, len(os.sched_getaffinity(0)) // jobs))


def config_of(spec):
    """The ``(workload, params)`` configuration ``spec`` runs: the key its
    memoized inputs, oracle and kernel evaluations are shared under."""
    return spec.workload, spec.params


def distinct_configs(specs):
    """Ordered distinct configurations across ``specs``."""
    return list(dict.fromkeys(config_of(spec) for spec in specs))


def rebuild_memoized_inputs(configs):
    """Build memoized inputs/oracles for ``configs``; returns builds done.

    A spawned worker calls this at startup for every configuration of
    the sweep.  A configuration that fails to build simply builds lazily
    on first use.
    """
    from repro.experiments.spec import WORKLOAD_FACTORIES

    built = 0
    for workload, params in configs:
        try:
            instance = WORKLOAD_FACTORIES[workload](**dict(params))
            instance._reference_outputs()
            built += 1
        except Exception:
            pass
    return built


def _portable_error(error):
    """An exception safe to send over a result pipe."""
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        return RuntimeError(f"{type(error).__name__}: {error}")


def _worker_main(worker_id, token, tasks, results, jobs, start_method,
                 configs):
    """Worker loop: cap BLAS, (re)warm, execute specs until None.

    Messages on ``results`` (this incarnation's own pipe) are tuples
    ``(kind, ...)``: ``ready`` (startup, carries the memo-rebuild count),
    ``done`` (carries the outcome's pickle) and ``error`` (spec raised).
    A spec whose recovery gave up is an outcome, not an error:
    :func:`~repro.experiments.common.attempt` returns its
    :class:`~repro.util.errors.RecoveryExhausted` for the parent's merge
    to commit.  ``token`` is this incarnation's spawn serial.
    Host-seconds ride along for the cost-aware scheduler's timing records.
    """
    from repro.analysis.report import REPORT_TOKEN_ENV
    from repro.experiments.common import attempt

    # Sanitize reports: each worker incarnation writes under its own
    # token.  Pids recycle across respawns (and collide with unrelated
    # processes), so pid-named files could silently clobber a crashed
    # predecessor's report; ``w<id>-<spawn-serial>`` never repeats.
    os.environ[REPORT_TOKEN_ENV] = f"w{worker_id}-{token}"
    # Before the first BLAS call, the spawn rebuild's included.
    cap_blas_threads(jobs)
    rebuilt = 0
    if start_method != "fork":
        # Spawned children start with cold memo caches: rebuild each
        # distinct configuration once now, not once per spec later.
        rebuilt = rebuild_memoized_inputs(configs)
    try:
        results.send(("ready", rebuilt))
        while True:
            task = tasks.get()
            if task is None:
                break
            seq, spec = task
            started = time.perf_counter()  # sanitizer: allow[R003]
            try:
                outcome = attempt(spec)
            except Exception as error:
                results.send(("error", seq, _portable_error(error)))
                continue
            host_s = time.perf_counter() - started  # sanitizer: allow[R003]
            payload = pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
            results.send(("done", seq, payload, host_s))
    finally:
        results.close()


class StreamingMerge:
    """Commit outcomes as they land; restore spec order at the end.

    ``commit`` (typically :func:`repro.experiments.common.store`) runs on
    first deposit of each sequence number — caches are keyed by spec, so
    landing order never changes cache *content*, only arrival time.  A
    duplicate deposit (a crashed worker's last message surfacing after
    its spec was requeued and re-executed) is counted and ignored:
    execution is deterministic, so the duplicate is byte-identical anyway.
    """

    def __init__(self, specs, commit=None):
        self.specs = list(specs)
        self._commit = commit
        self._outcomes = [None] * len(self.specs)
        self._landed = [False] * len(self.specs)
        self.landed = 0
        self.duplicates = 0

    def deposit(self, seq, outcome):
        """Record one arrival; True when it was the first for ``seq``."""
        if self._landed[seq]:
            self.duplicates += 1
            return False
        self._landed[seq] = True
        self._outcomes[seq] = outcome
        self.landed += 1
        if self._commit is not None:
            self._commit(self.specs[seq], outcome)
        return True

    @property
    def complete(self):
        return self.landed == len(self.specs)

    def ordered(self):
        """Outcomes in spec order; every slot must have landed."""
        if not self.complete:
            missing = [i for i, landed in enumerate(self._landed) if not landed]
            raise RuntimeError(f"merge incomplete: seqs {missing} never landed")
        return list(self._outcomes)


class AffinityQueue:
    """Pending ``(seq, spec)`` pairs, grouped by configuration and dealt
    by affinity.

    The specs of one configuration share its memoized inputs, oracle and
    kernel evaluations, which live in the process that built them.  A
    worker with a free slot takes, in this order:

    1. the next spec of a configuration it holds;
    2. the first spec of the next unclaimed configuration, which it then
       holds as its claimant (configurations rank by their first spec in
       the given cost order);
    3. the next spec of the configuration with the most pending specs — a
       *steal* from another worker's claim, so that no worker idles while
       specs wait.  The thief then holds that configuration too.

    Claims are keyed by worker id, so a respawned worker keeps its
    predecessor's.
    """

    def __init__(self, pairs):
        self._queues = {}
        for pair in pairs:
            self._queues.setdefault(
                config_of(pair[1]), collections.deque()).append(pair)
        self._unclaimed = collections.deque(self._queues)
        self._claimant = {}
        self._held = collections.defaultdict(list)
        self._pending = len(pairs)

    def __len__(self):
        return self._pending

    def take(self, worker_id):
        """``((seq, spec), stolen)`` for ``worker_id``; the queue must not
        be empty.  ``stolen`` is true when another worker claimed the
        spec's configuration."""
        held = self._held[worker_id]
        queues = self._queues
        config = next((config for config in held if queues[config]), None)
        if config is None:
            if self._unclaimed:
                config = self._unclaimed.popleft()
                self._claimant[config] = worker_id
            else:
                config = max(queues, key=lambda other: len(queues[other]))
            held.append(config)
        self._pending -= 1
        return queues[config].popleft(), self._claimant[config] != worker_id

    def requeue(self, pairs):
        """Put ``pairs`` back, in order, at the front of their
        configurations' queues."""
        for pair in reversed(pairs):
            self._queues[config_of(pair[1])].appendleft(pair)
        self._pending += len(pairs)


class _Worker:
    """Parent-side record of one live worker."""

    __slots__ = ("worker_id", "process", "tasks", "results", "inflight")

    def __init__(self, worker_id, process, tasks, results):
        self.worker_id = worker_id
        self.process = process
        self.tasks = tasks
        self.results = results
        # (seq, spec) pairs sent and not yet reported, oldest first: the
        # worker executes its queue in order, so the head is running.
        self.inflight = collections.deque()


class PersistentWorkerPool:
    """The parent-side engine: spawn once, dispatch, supervise, merge."""

    def __init__(self, jobs, start_method=None, counters=None):
        self.jobs = max(1, int(jobs))
        self.start_method = start_method or preferred_start_method()
        self.context = multiprocessing.get_context(self.start_method)
        self.counters = counters if counters is not None else HostCounters()
        self._workers = {}
        self._configs = ()
        self._spawn_serial = 0
        self.started = False

    # -- lifecycle -----------------------------------------------------------

    def start(self, configs=()):
        """Start the workers (idempotent).

        ``configs`` is the distinct ``(workload, params)`` list spawned
        workers rebuild at startup; fork workers ignore it and build each
        configuration they are dealt on first use.
        """
        if self.started:
            return
        self._configs = tuple(configs)
        for worker_id in range(self.jobs):
            self._spawn(worker_id)
        self.started = True

    def _spawn(self, worker_id):
        tasks = self.context.SimpleQueue()
        results, results_end = self.context.Pipe(duplex=False)
        self._spawn_serial += 1
        process = self.context.Process(
            target=_worker_main,
            args=(worker_id, self._spawn_serial, tasks, results_end,
                  self.jobs, self.start_method, self._configs),
            name=f"repro-pool-{worker_id}",
            daemon=True,
        )
        process.start()
        # Only the worker holds the write end, so its exit reads as EOF.
        results_end.close()
        self.counters.increment("workers_spawned")
        self._workers[worker_id] = _Worker(worker_id, process, tasks,
                                          results)

    def close(self):
        """Shut the pool down; safe to call repeatedly."""
        if not self.started:
            return
        for worker in self._workers.values():
            if worker.process.is_alive():
                try:
                    worker.tasks.put(None)
                except (OSError, ValueError):
                    pass
        for worker in self._workers.values():
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            self._retire(worker)
        self._workers.clear()
        self.started = False
        if os.environ.get("REPRO_SANITIZE_REPORT"):
            # All workers are down: fold their per-incarnation reports
            # into one artifact for CI to upload.
            from repro.analysis.report import merge_reports

            merge_reports()

    @staticmethod
    def _retire(worker):
        """Release one worker's parent-side pipes."""
        try:
            worker.tasks.close()
        except (OSError, ValueError):
            pass
        worker.results.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # -- the sweep -----------------------------------------------------------

    def run(self, pairs, on_result):
        """Execute ``(seq, spec)`` pairs (already cost-ordered), dealt by
        configuration affinity (:class:`AffinityQueue`).

        ``on_result(seq, outcome, host_s)`` fires in completion order and
        returns whether the deposit was the first for that seq (see
        :meth:`StreamingMerge.deposit`); the pool loops until every seq
        has landed exactly once.  A spec exception propagates to the
        caller after the pool shuts down (matching ``Pool.map``); a
        recovery that gave up lands as a result instead.
        """
        if not self.started:
            raise RuntimeError("pool not started")
        pending = AffinityQueue(pairs)
        requeued = set()
        landed = 0
        total = len(pairs)
        dispatch_started = time.perf_counter()  # sanitizer: allow[R003]
        busy_s = 0.0
        self._fill_idle(pending)
        while landed < total:
            worker, message = self._next_message(pending, requeued)
            if message is None:
                continue
            self.counters.increment("control_messages")
            kind = message[0]
            if kind == "ready":
                self.counters.increment("worker_rebuilds", message[1])
                continue
            if kind == "error":
                error = message[2]
                self.close()
                raise error
            _, seq, payload, host_s = message
            # Its oldest spec reported: refill the slot before unpickling.
            worker.inflight.popleft()
            self._assign_next(worker, pending)
            outcome = pickle.loads(payload)
            self.counters.increment("plane_bytes", len(payload))
            busy_s += host_s
            if on_result(seq, outcome, host_s):
                landed += 1
            else:
                self.counters.increment("duplicate_results")
        wall_s = time.perf_counter() - dispatch_started  # sanitizer: allow[R003]
        # Dispatch overhead: parent wall-clock across all worker slots not
        # covered by spec execution (queue latency, unpickling, idle tails).
        self.counters.increment("specs_completed", landed)
        self.counters.increment(
            "dispatch_overhead_us",
            int(max(wall_s * len(self._workers) - busy_s, 0.0) * 1e6),
        )
        return landed

    def _next_message(self, pending, requeued):
        """The next ``(worker, message)``, or ``(None, None)``.

        A quiet interval runs the supervisor.  A pipe at end-of-file
        means its worker exited, perhaps mid-message: reap it, then let
        the supervisor respawn it and requeue its in-flight specs.
        """
        workers = {worker.results: worker for worker in self._workers.values()}
        ready = wait(list(workers), timeout=_SUPERVISE_INTERVAL_S)
        if not ready:
            self._supervise(pending, requeued)
            return None, None
        worker = workers[ready[0]]
        try:
            return worker, worker.results.recv()
        except (EOFError, OSError):
            worker.process.join()
            self._supervise(pending, requeued)
            return None, None

    def _fill_idle(self, pending):
        """Top every worker up to :data:`INFLIGHT_PER_WORKER` specs, one
        round at a time, so the first configurations go to different
        workers."""
        for _ in range(INFLIGHT_PER_WORKER):
            for worker in self._workers.values():
                if len(worker.inflight) < INFLIGHT_PER_WORKER:
                    self._assign_next(worker, pending)

    def _assign_next(self, worker, pending):
        if pending and worker.process.is_alive():
            pair, stolen = pending.take(worker.worker_id)
            worker.inflight.append(pair)
            worker.tasks.put(pair)
            self.counters.increment("specs_dispatched")
            if stolen:
                self.counters.increment("specs_stolen")

    def _supervise(self, pending, requeued):
        """Respawn dead workers; requeue their in-flight specs in order.

        The recovery ladder mirrors :class:`~repro.core.recovery
        .RecoveryPolicy`'s bounded-retry idiom: one respawn-and-requeue
        per spec, then escalate — a spec that kills two fresh workers is
        declared poisonous rather than retried forever.  Only the spec
        the worker was executing is charged, never one queued behind it.
        """
        for worker_id, worker in list(self._workers.items()):
            if worker.process.is_alive():
                continue
            exitcode = worker.process.exitcode
            inflight = worker.inflight
            self._retire(worker)
            self.counters.increment("worker_respawns")
            if inflight:
                seq, spec = inflight[0]
                if seq in requeued:
                    del self._workers[worker_id]
                    self.close()
                    raise WorkerCrash(
                        f"worker died twice (exit {exitcode}) executing "
                        f"spec {spec.workload!r} seq {seq}; not requeueing "
                        "again"
                    )
                requeued.add(seq)
                self.counters.increment("specs_requeued")
                pending.requeue(inflight)
            self._spawn(worker_id)
            self._fill_idle(pending)
