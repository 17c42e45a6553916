"""Persistent worker pool with a shared-memory result plane.

The legacy fan-out path (``multiprocessing.Pool.map``) pays a fresh fork
per sweep and pickles every :class:`~repro.experiments.spec.SpecOutcome`
back through a pipe.  This engine replaces both costs:

* **workers fork once per executor lifetime** — after the parent has
  pre-warmed the memoized workload inputs and the retained malloc arena,
  so every worker inherits warm pages as copy-on-write and never
  regenerates an input array;
* **outcomes return through shared memory** — each worker owns a
  ``multiprocessing.shared_memory`` slab; it pickles the outcome straight
  into the slab through the :mod:`repro.util.buffers` view machinery and
  sends only a small control message (sequence number, payload size, host
  seconds) on its result pipe.  The parent unpickles directly from a
  slab view; outcome bytes never cross a pipe.  An outcome larger than
  the slab falls back to riding the result pipe (counted, never wrong);
* **each worker owns its result pipe** — written synchronously from the
  worker's main thread, with no lock shared between processes.  A worker
  that dies mid-message tears only its own pipe, which is retired with
  it; its exit reads as end-of-file, so the parent notices at once.  (A
  shared ``multiprocessing.Queue`` could deadlock the pool: a worker
  exiting while its feeder thread held the queue's cross-process write
  lock blocked every later ``put``.)
* **dispatch is parent-driven, one spec at a time** — the executor hands
  this engine a cost-ordered ``(seq, spec)`` list (longest expected
  first); each worker holds exactly one in-flight spec, and the next
  assignment doubles as the acknowledgement that its slab was consumed,
  so no extra synchronization guards the plane;
* **a supervisor respawns crashed workers** — reusing the watchdog/
  :class:`~repro.core.recovery.RecoveryPolicy` idiom of bounded retries:
  a worker that dies gets a fresh process+slab and its in-flight spec is
  requeued at the front *exactly once*; a second crash on the same spec
  raises :class:`WorkerCrash` instead of looping.

Results stream back in completion order; :class:`StreamingMerge` commits
each one as it lands (the caches are keyed by spec, so commit order never
changes cache content) and restores spec order at the end, keeping a
pooled sweep byte-identical to a serial one.

On spawn-only platforms (no ``fork``) the parent's memo caches are lost
in children, so each worker rebuilds the distinct workload configurations
once at startup (:func:`rebuild_memoized_inputs`) instead of silently
recomputing them per spec.
"""

import collections
import multiprocessing
import os
import pickle
import time

from multiprocessing import shared_memory
from multiprocessing.connection import wait

from repro.sim.tracing import HostCounters
from repro.util.buffers import as_byte_view, copy_into

#: Per-worker result-plane slab size; outcomes are a few KB, so the
#: default leaves ~1000x headroom before the inline-fallback path.
DEFAULT_SLAB_BYTES = 4 << 20

#: How long the supervisor waits on the result pipes before checking
#: worker liveness (host seconds; a crashed worker's pipe reads as
#: end-of-file at once, so this only bounds the liveness poll).
_SUPERVISE_INTERVAL_S = 0.05


class WorkerCrash(RuntimeError):
    """A pool worker died twice on the same spec (requeue budget spent)."""


def slab_bytes():
    """Result-plane slab size (``REPRO_POOL_SLAB_BYTES`` overrides)."""
    override = os.environ.get("REPRO_POOL_SLAB_BYTES")
    return int(override) if override else DEFAULT_SLAB_BYTES


def preferred_start_method():
    """``fork`` where available (inherits warm pages), else the default."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


def distinct_configs(specs):
    """Ordered distinct ``(workload, params)`` pairs across ``specs``."""
    configs = []
    seen = set()
    for spec in specs:
        key = (spec.workload, spec.params)
        if key not in seen:
            seen.add(key)
            configs.append(key)
    return configs


def rebuild_memoized_inputs(configs):
    """Build memoized inputs/oracles for ``configs``; returns builds done.

    In the parent this is the pre-fork warm-up (workers then inherit the
    arrays as copy-on-write pages); in a spawned worker it is the
    per-worker rebuild of the memo the child did not inherit.  A
    configuration that fails to warm simply builds lazily on first use.
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


def _worker_main(worker_id, token, tasks, results, slab_name, slab_size,
                 start_method, configs):
    """Worker loop: attach the slab, (re)warm, execute specs until None.

    Control messages on ``results`` (this incarnation's own pipe) are
    small tuples ``(kind, ...)``: ``ready`` (startup, carries the
    memo-rebuild count), ``done`` (payload in the slab), ``inline``
    (payload rode the pipe: slab too small), ``error`` (spec raised).  A
    spec whose recovery gave up is a payload, not an error:
    :func:`~repro.experiments.common.attempt` returns its
    :class:`~repro.util.errors.RecoveryExhausted` for the parent's merge
    to commit.  ``token`` is this incarnation's spawn serial.
    Host-seconds ride along for the cost-aware scheduler's timing records.
    """
    from repro.util.hostalloc import retain_arena
    from repro.analysis.report import REPORT_TOKEN_ENV
    from repro.experiments.common import attempt

    # Sanitize reports: each worker incarnation writes under its own
    # token.  Pids recycle across respawns (and collide with unrelated
    # processes), so pid-named files could silently clobber a crashed
    # predecessor's report; ``w<id>-<spawn-serial>`` never repeats.
    os.environ[REPORT_TOKEN_ENV] = f"w{worker_id}-{token}"
    retain_arena()
    rebuilt = 0
    if start_method != "fork":
        # Spawned children start with cold memo caches: rebuild each
        # distinct configuration once now, not once per spec later.
        rebuilt = rebuild_memoized_inputs(configs)
    slab = shared_memory.SharedMemory(name=slab_name)
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
            if len(payload) <= slab_size:
                copy_into(slab.buf, payload)
                results.send(("done", seq, len(payload), host_s))
            else:
                results.send(("inline", seq, payload, host_s))
    finally:
        slab.close()
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


class _Worker:
    """Parent-side record of one live worker."""

    __slots__ = ("process", "tasks", "results", "slab", "inflight")

    def __init__(self, process, tasks, results, slab):
        self.process = process
        self.tasks = tasks
        self.results = results
        self.slab = slab
        self.inflight = None  # (seq, spec) currently executing, or None


class PersistentWorkerPool:
    """The parent-side engine: spawn once, dispatch, supervise, merge."""

    def __init__(self, jobs, start_method=None, slab_size=None,
                 counters=None):
        self.jobs = max(1, int(jobs))
        self.start_method = start_method or preferred_start_method()
        self.context = multiprocessing.get_context(self.start_method)
        self.slab_size = slab_size or slab_bytes()
        self.counters = counters if counters is not None else HostCounters()
        self._workers = {}
        self._configs = ()
        self._spawn_serial = 0
        self.started = False

    # -- lifecycle -----------------------------------------------------------

    def start(self, configs=()):
        """Fork the workers (idempotent).  Call after the parent pre-warm.

        ``configs`` is the distinct ``(workload, params)`` list spawned
        workers rebuild at startup; fork workers inherit the parent memo
        and ignore it.
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
        slab = shared_memory.SharedMemory(create=True, size=self.slab_size)
        self._spawn_serial += 1
        process = self.context.Process(
            target=_worker_main,
            args=(worker_id, self._spawn_serial, tasks, results_end,
                  slab.name, self.slab_size, self.start_method,
                  self._configs),
            name=f"repro-pool-{worker_id}",
            daemon=True,
        )
        process.start()
        # Only the worker holds the write end, so its exit reads as EOF.
        results_end.close()
        self.counters.increment("workers_spawned")
        self._workers[worker_id] = _Worker(process, tasks, results, slab)

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
        """Release one worker's parent-side resources (slab, pipes)."""
        try:
            worker.slab.close()
        except (OSError, BufferError):
            pass
        try:
            worker.slab.unlink()
        except (OSError, FileNotFoundError):
            pass
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
        """Execute ``(seq, spec)`` pairs (already cost-ordered).

        ``on_result(seq, outcome, host_s)`` fires in completion order and
        returns whether the deposit was the first for that seq (see
        :meth:`StreamingMerge.deposit`); the pool loops until every seq
        has landed exactly once.  A spec exception propagates to the
        caller after the pool shuts down (matching ``Pool.map``); a
        recovery that gave up lands as a result instead.
        """
        if not self.started:
            raise RuntimeError("pool not started")
        pending = collections.deque(pairs)
        requeues = {}
        landed = 0
        total = len(pairs)
        dispatch_started = time.perf_counter()  # sanitizer: allow[R003]
        busy_s = 0.0
        self._fill_idle(pending)
        while landed < total:
            worker, message = self._next_message(pending, requeues)
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
            if kind == "done":
                # Zero-copy recall: unpickle straight off the slab view.
                # The slice is released immediately — a lingering export
                # would block closing the slab when a worker is retired.
                view = as_byte_view(worker.slab.buf)[:payload]
                try:
                    outcome = pickle.loads(view)
                finally:
                    view.release()
                self.counters.increment("plane_payloads")
                self.counters.increment("plane_bytes", payload)
            else:  # "inline": the outcome outgrew the slab
                outcome = pickle.loads(payload)
                self.counters.increment("plane_inline_fallbacks")
                self.counters.increment("plane_bytes", len(payload))
            busy_s += host_s
            if worker.inflight is not None and worker.inflight[0] == seq:
                worker.inflight = None
                self._assign_next(worker, pending)
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

    def _next_message(self, pending, requeues):
        """The next ``(worker, message)``, or ``(None, None)``.

        A quiet interval runs the supervisor.  A pipe at end-of-file
        means its worker exited, perhaps mid-message: reap it, then let
        the supervisor respawn it and requeue its in-flight spec.
        """
        workers = {worker.results: worker for worker in self._workers.values()}
        ready = wait(list(workers), timeout=_SUPERVISE_INTERVAL_S)
        if not ready:
            self._supervise(pending, requeues)
            return None, None
        worker = workers[ready[0]]
        try:
            return worker, worker.results.recv()
        except (EOFError, OSError):
            worker.process.join()
            self._supervise(pending, requeues)
            return None, None

    def _fill_idle(self, pending):
        for worker in self._workers.values():
            if worker.inflight is None:
                self._assign_next(worker, pending)

    def _assign_next(self, worker, pending):
        if pending and worker.process.is_alive():
            pair = pending.popleft()
            worker.inflight = pair
            worker.tasks.put(pair)
            self.counters.increment("specs_dispatched")

    def _supervise(self, pending, requeues):
        """Respawn dead workers; requeue their in-flight spec exactly once.

        The recovery ladder mirrors :class:`~repro.core.recovery
        .RecoveryPolicy`'s bounded-retry idiom: one respawn-and-requeue
        per spec, then escalate — a spec that kills two fresh workers is
        declared poisonous rather than retried forever.
        """
        for worker_id, worker in list(self._workers.items()):
            if worker.process.is_alive():
                continue
            exitcode = worker.process.exitcode
            inflight = worker.inflight
            self._retire(worker)
            self.counters.increment("worker_respawns")
            if inflight is not None:
                seq, spec = inflight
                if requeues.get(seq, 0) >= 1:
                    del self._workers[worker_id]
                    self.close()
                    raise WorkerCrash(
                        f"worker died twice (exit {exitcode}) executing "
                        f"spec {spec.workload!r} seq {seq}; not requeueing "
                        "again"
                    )
                requeues[seq] = requeues.get(seq, 0) + 1
                self.counters.increment("specs_requeued")
                pending.appendleft((seq, spec))
            self._spawn(worker_id)
            self._assign_next(self._workers[worker_id], pending)
