"""The sweep-execution engine: fan runs out, merge results in order.

Every registered experiment can expand itself into a flat list of
independent :class:`~repro.experiments.spec.RunSpec` values (its
``specs(quick)`` hook).  The executor:

1. **expands** the requested experiments into one deduplicated, ordered
   spec list (figures sharing a configuration share the run);
2. **primes** the caches — warm specs short-circuit in the parent without
   touching a worker, and the rest execute inline (``jobs=1``) or on the
   worker-pool engine in :mod:`repro.experiments.pool` (``jobs > 1``):
   workers forked once per executor lifetime, each running one BLAS
   thread and holding two specs.  The specs are ordered
   longest-expected-first (recorded timings from the result cache's
   metadata, falling back to the spec-declared
   :meth:`RunSpec.cost_hint`) and dealt by configuration: each worker
   claims configurations in that order and runs their specs, building
   their inputs and oracles itself (the parent builds none), and steals
   only when nothing of its own is left.  Outcomes return on each
   worker's own pipe; crashed workers are respawned with the spec they
   were executing requeued exactly once;

3. **merges deterministically** — outcomes commit to the caches as they
   land and the merge restores spec order at the end, so a pooled sweep
   leaves the caches (and therefore every rendered table) byte-identical
   to a serial one.  The job count is *engine* configuration: it never
   joins a :class:`RunSpec` or its cache key.  A spec whose recovery
   gives up (:class:`~repro.util.errors.RecoveryExhausted`) does not stop
   the sweep: it stays out of the caches and counts under ``gave_up``;
   :func:`~repro.experiments.common.run_spec` then runs it again and
   raises the same typed error into the experiment's gave-up row.

The experiments themselves then run unmodified: their ``run()`` functions
call :func:`repro.experiments.common.run_spec`, which finds every outcome
already in memory.
"""

import time

from repro.experiments import common
from repro.experiments.registry import REGISTRY, run_experiment
from repro.sim.tracing import HostCounters


def expand(experiment_ids, quick=False, devices=None):
    """Ordered, deduplicated specs for ``experiment_ids``.

    Experiments without a ``specs`` hook (fig2, tab2, porting, motivation
    and other inline/API-level experiments) contribute nothing and simply
    run serially inside their ``run()``.  ``devices`` is forwarded to the
    hooks that take it (failover), so a ``--devices`` sweep primes the
    same specs its tables will read.
    """
    import inspect

    specs = []
    seen = set()
    for experiment_id in experiment_ids:
        module = REGISTRY[experiment_id]
        hook = getattr(module, "specs", None)
        if hook is None:
            continue
        kwargs = {"quick": quick}
        if (devices is not None
                and "devices" in inspect.signature(hook).parameters):
            kwargs["devices"] = devices
        for spec in hook(**kwargs):
            if spec not in seen:
                seen.add(spec)
                specs.append(spec)
    return specs


class ExperimentExecutor:
    """Runs experiment sweeps over a worker pool with shared caches."""

    def __init__(self, jobs=1, use_cache=True, cache_dir=None):
        self.jobs = max(1, int(jobs))
        if not use_cache:
            self.cache = None
        elif cache_dir is not None:
            from repro.experiments.cache import ResultCache

            self.cache = ResultCache(cache_dir)
        else:
            self.cache = common.persistent_cache()
        self.stats = {"expanded": 0, "reused": 0, "executed": 0,
                      "gave_up": 0}
        self.counters = HostCounters()
        self._pool = None

    # -- lifecycle -----------------------------------------------------------

    def close(self):
        """Shut down the persistent worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    def cache_context(self):
        """Context manager installing this executor's persistent cache."""
        return common.using_cache(self.cache)

    # -- priming -------------------------------------------------------------

    def prime(self, specs):
        """Ensure every spec's outcome is in the caches; returns stats.

        Call inside :meth:`cache_context` (the run/run_many entry points
        do).  Outcomes land streaming but the merge restores spec order,
        so the resulting cache state is independent of worker scheduling
        and of the job count.
        """
        missing = [spec for spec in specs if common.peek(spec) is None]
        # Cache-aware dispatch: warm specs never reach a worker.
        self.counters.increment("warm_hits", len(specs) - len(missing))
        if missing:
            if self.jobs > 1 and len(missing) > 1:
                self._persistent_prime(missing)
            else:
                self._serial_prime(missing)
        self.stats = {
            "expanded": len(specs),
            "reused": len(specs) - len(missing),
            "executed": len(missing),
            # Any other failure raised above: only a spec whose recovery
            # gave up is left unstored.
            "gave_up": sum(common.peek(spec) is None for spec in missing),
        }
        return self.stats

    def _serial_prime(self, missing):
        timings = {}
        for spec in missing:
            started = time.perf_counter()  # sanitizer: allow[R003]
            result = common.attempt(spec)
            timings[spec] = time.perf_counter() - started  # sanitizer: allow[R003]
            common.commit(spec, result)
        self._record_timings(timings)

    def _persistent_prime(self, missing):
        """Dispatch ``missing`` on the persistent engine, streaming merge."""
        from repro.experiments.pool import StreamingMerge

        # Order before the first prime forks the workers, which would
        # compete with the parent for the CPUs.
        pairs = self._cost_ordered(missing)
        engine = self._ensure_pool(missing)
        merge = StreamingMerge(missing, commit=common.commit)
        timings = {}

        def on_result(seq, outcome, host_s):
            first = merge.deposit(seq, outcome)
            if first:
                timings[missing[seq]] = host_s
            return first

        engine.run(pairs, on_result)
        merge.ordered()  # every seq landed; order restored
        self._record_timings(timings)

    def _ensure_pool(self, missing):
        """The live persistent pool (workers fork once per executor)."""
        from repro.experiments.pool import (
            PersistentWorkerPool, distinct_configs,
        )

        if self._pool is not None and not self._pool.started:
            self._pool = None
        if self._pool is None:
            self._pool = PersistentWorkerPool(
                jobs=self.jobs, counters=self.counters,
            )
            self._pool.start(configs=distinct_configs(missing))
        return self._pool

    # -- cost-aware scheduling ------------------------------------------------

    def _cost_ordered(self, specs):
        """``(seq, spec)`` pairs, longest-expected-first.

        Expected cost is the last recorded host-seconds for the spec from
        the result cache's timing metadata; a spec never timed falls back
        to its declared :meth:`~repro.experiments.spec.RunSpec.cost_hint`.
        Scheduling long runs first minimizes the idle tail; the sort is
        stable, so equal-cost specs keep spec order and the merge stays
        deterministic regardless.
        """
        from repro.experiments.cache import ResultCache

        recorded = self.cache.timings() if self.cache is not None else {}

        def expected(spec):
            if recorded:
                seconds = recorded.get(ResultCache.timing_key(spec))
                if seconds is not None:
                    # Recorded timings are host seconds; cost hints are
                    # unitless sizes.  Rank within each population only —
                    # mixing is fine because both orderings put big first.
                    return seconds
            return spec.cost_hint()

        return sorted(
            enumerate(specs), key=lambda pair: expected(pair[1]),
            reverse=True,
        )

    def _record_timings(self, timings):
        """Persist per-spec host-seconds as scheduling metadata."""
        if self.cache is None or not timings:
            return
        from repro.experiments.cache import ResultCache

        self.cache.record_timings({
            ResultCache.timing_key(spec): seconds
            for spec, seconds in timings.items()
        })

    # -- entry points ----------------------------------------------------------

    def run(self, experiment_id, quick=False):
        """Prime and run one experiment; returns its ExperimentResult."""
        with self.cache_context():
            self.prime(expand([experiment_id], quick=quick))
            return run_experiment(experiment_id, quick=quick)

    def run_many(self, experiment_ids, quick=False):
        """Prime the union of sweeps, then run each experiment in order."""
        with self.cache_context():
            self.prime(expand(experiment_ids, quick=quick))
            return [
                (experiment_id, run_experiment(experiment_id, quick=quick))
                for experiment_id in experiment_ids
            ]
