"""Shared plumbing for the experiment modules.

Figures 7, 8 and 10 are different projections of the same Parboil runs;
every experiment now phrases its runs as
:class:`~repro.experiments.spec.RunSpec` values and obtains outcomes
through :func:`run_spec`, which layers two caches:

* an **in-memory** map (spec -> outcome), so repeated lookups within one
  process return the identical object, and
* an optional **persistent** :class:`~repro.experiments.cache.ResultCache`
  (on by default; disable with ``REPRO_RESULT_CACHE=0`` or ``--no-cache``),
  so figures, ablations, chaos and benchmarks share completed runs across
  invocations until the simulator sources change.

The executor (:mod:`repro.experiments.executor`) primes both layers from a
worker pool; the experiment modules themselves never notice.
"""

import contextlib
import os

from repro.util.errors import RecoveryExhausted
from repro.util.units import MB
from repro.workloads.parboil import PARBOIL
from repro.experiments.spec import RunSpec

#: Shrunk workload parameters for test runs (shape-preserving).
QUICK_PARAMS = {
    "cp": dict(grid_n=96, n_atoms=48),
    "mri-fhd": dict(n_samples=4096, n_voxels=64),
    # Q must span several 256KB blocks for the rolling-vs-lazy read-back
    # contrast to exist, so the voxel count stays at its default.
    "mri-q": dict(n_samples=48, n_voxels=65536),
    "pns": dict(n_places=(1 * MB) // 4, iterations=48, sample_interval=8),
    "rpes": dict(n_integrals=64 * 1024, n_roots=16),
    "sad": dict(width=128, height=128, search=4),
    "tpacf": dict(n_points=131072),
}

#: Paper-scale workload parameters: the full Parboil input sizes the
#: evaluation ran (10-100x the quick presets, pinned explicitly so the
#: spec params — and therefore the result-cache keys — name the scale).
#: Input generation is memoized process-wide, so repeated paper-scale
#: runs regenerate nothing.
PAPER_PARAMS = {
    "cp": dict(grid_n=256, n_atoms=512),
    "mri-fhd": dict(n_samples=32768, n_voxels=256),
    "mri-q": dict(n_samples=256, n_voxels=65536),
    "pns": dict(n_places=(8 * MB) // 4, iterations=160, sample_interval=16),
    "rpes": dict(n_integrals=512 * 1024, n_roots=64),
    "sad": dict(width=512, height=512, search=8),
    "tpacf": dict(n_points=524288),
}

#: Parameter presets by scale name (``--scale`` / ``REPRO_SCALE``).
SCALE_PARAMS = {"quick": QUICK_PARAMS, "paper": PAPER_PARAMS}


def active_scale():
    """The scale preset forced via ``REPRO_SCALE``, or None.

    The experiment spec hooks only thread a ``quick`` flag; the scale
    override rides in process-wide (set by ``--scale``) so every hook
    picks up the matching parameter preset without signature churn.
    """
    scale = os.environ.get("REPRO_SCALE", "").strip().lower()
    if not scale:
        return None
    if scale not in SCALE_PARAMS:
        raise KeyError(
            f"unknown REPRO_SCALE {scale!r}; pick from {sorted(SCALE_PARAMS)}"
        )
    return scale


def params_for(name, quick=False):
    """The parameter preset for one Parboil workload at the active scale."""
    scale = active_scale()
    if scale is not None:
        return SCALE_PARAMS[scale].get(name)
    return QUICK_PARAMS[name] if quick else None

#: The protocol order of Figures 7 and 8.
PROTOCOL_ORDER = ("batch", "lazy", "rolling")

#: In-memory outcomes; same spec -> the identical outcome object.
_memory = {}

#: Persistent cache: the sentinel means "build the default lazily".
_DEFAULT = object()
_persistent = _DEFAULT


def make_workload(name, quick=False):
    cls = PARBOIL[name]
    params = params_for(name, quick=quick)
    return cls(**params) if params else cls()


def parboil_spec(name, mode, protocol="rolling", quick=False, layer="runtime",
                 protocol_options=None):
    """The :class:`RunSpec` for one Parboil configuration."""
    return RunSpec.make(
        workload=name,
        params=params_for(name, quick=quick),
        mode=mode,
        protocol=protocol,
        layer=layer,
        protocol_options=protocol_options,
    )


def persistent_cache():
    """The active persistent cache, or None when caching is disabled."""
    global _persistent
    if _persistent is _DEFAULT:
        if os.environ.get("REPRO_RESULT_CACHE", "1") == "0":
            _persistent = None
        else:
            from repro.experiments.cache import ResultCache

            _persistent = ResultCache()
    return _persistent


@contextlib.contextmanager
def using_cache(cache):
    """Temporarily swap the persistent cache (None disables)."""
    global _persistent
    previous = _persistent
    _persistent = cache
    try:
        yield cache
    finally:
        _persistent = previous


def peek(spec):
    """The outcome for ``spec`` if either cache layer holds it, else None.

    A persistent hit is promoted into the in-memory layer, so subsequent
    :func:`run_spec` calls return the identical object.
    """
    outcome = _memory.get(spec)
    if outcome is not None:
        return outcome
    cache = persistent_cache()
    if cache is None:
        return None
    outcome = cache.get(spec)
    if outcome is not None:
        _memory[spec] = outcome
    return outcome


def store(spec, outcome):
    """Deposit an outcome into both cache layers (executor merge path)."""
    _memory[spec] = outcome
    cache = persistent_cache()
    if cache is not None:
        cache.put(spec, outcome)
    return outcome


def attempt(spec):
    """Execute ``spec``; a recovery that gives up returns its typed error.

    Every executor shape runs specs through this, so one spec's
    :class:`RecoveryExhausted` cannot abort the rest of a sweep; any
    other exception still propagates.  The error is the detached form
    :meth:`RunSpec.execute` raises, the same plain data the pool hands
    back, so holding it keeps nothing of the run alive.
    """
    try:
        return spec.execute()
    except RecoveryExhausted as error:
        return error


def commit(spec, result):
    """Store an :func:`attempt`'s outcome (executor merge path).

    A spec that gave up stays unstored: :func:`run_spec` runs it again,
    deterministically, and raises the same typed error into the
    experiment's gave-up handling.
    """
    if not isinstance(result, RecoveryExhausted):
        store(spec, result)


def run_spec(spec):
    """Run (or recall) one spec; returns its SpecOutcome."""
    outcome = peek(spec)
    if outcome is None:
        outcome = store(spec, spec.execute())
    return outcome


def run_parboil(name, mode, protocol="rolling", quick=False, layer="runtime",
                protocol_options=None):
    """Run (and cache) one Parboil configuration."""
    return run_spec(parboil_spec(
        name, mode, protocol=protocol, quick=quick, layer=layer,
        protocol_options=protocol_options,
    ))


def clear_cache():
    """Drop the in-memory layer (the persistent cache is untouched)."""
    _memory.clear()
