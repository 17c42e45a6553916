"""The dual-mode workload harness.

Every workload in the evaluation exists in two source variants, exactly as
in the paper's porting experiment (Section 5):

* **cuda mode** — the hand-tuned baseline: explicit ``cudaMalloc`` /
  ``cudaMemcpy`` calls, duplicated pointers, manual coherence;
* **gmac mode** — the ADSM port: a single ``adsmAlloc`` pointer per object
  and *no* explicit transfers (the port only removes lines).

Both variants share the kernels and are validated against a pure-numpy
oracle, so a protocol bug shows up as a numerical mismatch, not just a
timing anomaly.  :meth:`Workload.execute` runs one variant on a fresh
machine and returns a :class:`WorkloadResult` with the virtual time, the
Figure 10 break-down and the Figure 8 byte counters.
"""

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.util.errors import ReproError
from repro.hw.machine import reference_system
from repro.hw.interconnect import Direction
from repro.os.process import Process
from repro.os.filesystem import FileSystem
from repro.os.libc import Libc
from repro.cuda.runtime import CudaRuntime
from repro.core.api import Gmac

#: Process-global count of :meth:`Workload.execute` calls.  The executor's
#: cache tests assert a warm rerun performs *zero* executions; there is no
#: other observable distinguishing "simulated quickly" from "not run".
EXECUTIONS = 0

#: Memoized oracle outputs, keyed by workload class + constructor params.
#: ``reference()`` is a pure function of the constructor arguments (every
#: workload builds its inputs deterministically from them), while a figure
#: sweep executes many specs sharing one workload configuration — cuda vs
#: gmac, per protocol, per block size — and each used to recompute the
#: identical oracle.  Cached arrays are marked read-only so verification
#: can never corrupt a shared copy.
_REFERENCE_CACHE = {}
_REFERENCE_CACHE_MAX = 32

#: Memoized deterministic inputs, keyed by an explicit per-workload key.
#: Every constructor builds its input arrays as a pure function of the
#: constructor parameters (sizes + rng seed), and a figure sweep constructs
#: the same configuration dozens of times — cuda vs gmac, per protocol,
#: per block size.  Cached arrays are handed out read-only, so a variant
#: that mutated a shared input would raise instead of silently corrupting
#: the next run.
_INPUT_CACHE = {}
_INPUT_CACHE_MAX = 64


def memoized_input(key, builder):
    """Build-once deterministic input arrays.

    ``builder`` is a zero-argument pure function returning a numpy array or
    a tuple of numpy arrays; the result is cached under ``key`` (which must
    include every parameter the builder depends on) and marked read-only.
    """
    cached = _INPUT_CACHE.get(key)
    if cached is None:
        cached = builder()
        arrays = cached if isinstance(cached, tuple) else (cached,)
        for array in arrays:
            array.setflags(write=False)
        while len(_INPUT_CACHE) >= _INPUT_CACHE_MAX:
            _INPUT_CACHE.pop(next(iter(_INPUT_CACHE)))
        _INPUT_CACHE[key] = cached
    return cached


def _fingerprint(array):
    """Cheap mismatch filter: shape, dtype, and ~16 strided sample bytes.

    Unequal fingerprints prove the arrays differ; equal fingerprints only
    admit the candidate to the full byte compare, so the filter cannot
    produce a false hit.
    """
    step = max(1, array.size // 16)
    return (array.shape, array.dtype.str, array.ravel()[::step].tobytes())


#: Unsigned integer type of each item width, for bit-exact compares.
_BITS = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def _same_bits(given, kept):
    """Whether two arrays have one dtype, one shape and the same bytes.

    Bits, not values: ``-0.0`` differs from ``+0.0``, and a NaN equals
    itself.  Views as unsigned integers of the item width, which also
    compares faster than floats do; other widths compare bytes.
    """
    if given.dtype != kept.dtype or given.shape != kept.shape:
        return False
    bits = _BITS.get(given.dtype.itemsize)
    if bits is None:
        return given.tobytes() == kept.tobytes()
    return np.array_equal(given.view(bits), kept.view(bits))


class ValueMemo:
    """Byte-exact reuse of pure kernel evaluations.

    A figure sweep evaluates the same kernel numerics dozens of times —
    cuda vs gmac, per protocol, per block size — over identical device
    bytes.  A hit here requires *every* input array to compare bit-equal
    (:func:`_same_bits`) against a stored evaluation's inputs, so reuse
    can never change an output byte: it only skips recomputing a result
    already produced for the very same input bytes.  Inputs are
    snapshotted at store time and outputs handed out read-only.

    ``max_entries`` bounds the evaluations remembered per key (iterative
    kernels store one entry per distinct input state); entries whose
    arrays exceed ``max_entry_bytes`` are computed but never stored, so
    full-size experiment sweeps cannot balloon host memory — they simply
    fall back to recomputing, exactly as before.
    """

    def __init__(self, max_entries=8, max_entry_bytes=4 << 20):
        self.max_entries = max_entries
        self.max_entry_bytes = max_entry_bytes
        self._entries = {}

    def lookup(self, key, inputs):
        entries = self._entries.get(key)
        if not entries:
            return None
        prints = tuple(_fingerprint(array) for array in inputs)
        for stored_prints, stored, outputs in entries:
            if stored_prints != prints:
                continue
            if all(
                _same_bits(given, kept)
                for given, kept in zip(inputs, stored)
            ):
                return outputs
        return None

    def store(self, key, inputs, outputs):
        for array in outputs:
            array.setflags(write=False)
        footprint = sum(array.nbytes for array in inputs)
        footprint += sum(array.nbytes for array in outputs)
        if footprint <= self.max_entry_bytes:
            entries = self._entries.setdefault(key, [])
            if len(entries) >= self.max_entries:
                entries.pop(0)
            snapshot = tuple(np.array(array, copy=True) for array in inputs)
            prints = tuple(_fingerprint(array) for array in snapshot)
            entries.append((prints, snapshot, outputs))
        return outputs


class Application:
    """Process + filesystem + libc: the environment one run executes in."""

    def __init__(self, machine):
        self.machine = machine
        self.process = Process(machine)
        self.fs = FileSystem(machine.disk)
        self.libc = Libc(self.process, self.fs, machine.accounting)

    def gmac(self, **kwargs):
        """Create a GMAC instance bound to this application."""
        return Gmac(self.machine, self.process, libc=self.libc, **kwargs)

    def cuda(self, **kwargs):
        """Create a CUDA runtime bound to this application."""
        return CudaRuntime(self.machine, self.process, **kwargs)


@dataclass
class WorkloadResult:
    """Everything one run produced."""

    workload: str
    mode: str                     # "cuda" or "gmac"
    protocol: str                 # coherence protocol ("-" for cuda mode)
    elapsed: float                # virtual seconds, end to end
    breakdown: dict               # Figure 10 category -> seconds
    bytes_to_accelerator: int     # Figure 8, host -> accelerator
    bytes_to_host: int            # Figure 8, accelerator -> host
    faults: int                   # page faults GMAC handled
    signals: int                  # SIGSEGVs delivered by the OS
    verified: bool                # outputs matched the numpy oracle
    extra: dict = field(default_factory=dict)

    @property
    def label(self):
        if self.mode == "cuda":
            return "CUDA"
        return f"GMAC {self.protocol}"


class Workload(abc.ABC):
    """One benchmark: two variants, one oracle, deterministic inputs."""

    #: Short Parboil-style name ("cp", "mri-q", ...).
    name = "abstract"
    #: Table 2 style description.
    description = ""

    def __init__(self, seed=7):
        self.seed = seed

    # -- hooks ---------------------------------------------------------------------

    def prepare(self, app):
        """Create input files / oracle state.  Runs before the clock matters
        (file creation charges no disk time; only reads do)."""

    @abc.abstractmethod
    def run_cuda(self, app):
        """The explicit-transfer variant; returns outputs for verification."""

    @abc.abstractmethod
    def run_gmac(self, app, gmac):
        """The ADSM variant; returns outputs for verification."""

    @abc.abstractmethod
    def reference(self):
        """Pure-numpy oracle outputs (dict name -> array)."""

    # -- driver -----------------------------------------------------------------------

    def execute(self, mode="gmac", protocol="rolling", machine=None,
                gmac_options=None):
        """Run one variant on a fresh machine; returns a WorkloadResult."""
        global EXECUTIONS
        EXECUTIONS += 1
        if machine is None:
            machine = reference_system()
        app = Application(machine)
        self.prepare(app)
        start = machine.clock.now
        sanitizer = None
        if mode == "gmac":
            gmac_options = dict(gmac_options or {})
            if protocol == "declared":
                # The declared protocol consumes the workload's verified
                # @access_modes contract; injecting it here keeps specs
                # and experiments protocol-name-only (modes are a pure
                # function of the workload class, so cache keys hold).
                declared = getattr(type(self), "declared_modes", None)
                if declared:
                    options = dict(gmac_options.get("protocol_options") or {})
                    options.setdefault("modes", dict(declared))
                    gmac_options["protocol_options"] = options
            gmac = app.gmac(protocol=protocol, **gmac_options)
            sanitizer = self._sanitizer_for(gmac, protocol)
            try:
                outputs = self.run_gmac(app, gmac)
            except BaseException:
                # Persist whatever the sanitizer saw (the violations often
                # explain the crash), but let the original error surface.
                if sanitizer is not None:
                    sanitizer.finish(raise_on_violation=False)
                raise
            if sanitizer is not None:
                sanitizer.finish()
        else:
            # "cuda" plus any extra hand-tuned variants a workload defines
            # (e.g. "cuda-db" -> run_cuda_db, the double-buffered baseline).
            variant = getattr(self, "run_" + mode.replace("-", "_"), None)
            if variant is None:
                raise ReproError(f"unknown workload mode {mode!r}")
            outputs = variant(app)
            gmac = None
        elapsed = machine.clock.now - start
        verified = self._verify(outputs)
        return WorkloadResult(
            workload=self.name,
            mode=mode,
            protocol=protocol if mode == "gmac" else "-",
            elapsed=elapsed,
            breakdown=machine.accounting.breakdown(),
            bytes_to_accelerator=(
                gmac.bytes_to_accelerator if gmac is not None
                else machine.link.bytes_moved[Direction.H2D]
            ),
            bytes_to_host=(
                gmac.bytes_to_host if gmac is not None
                else machine.link.bytes_moved[Direction.D2H]
            ),
            faults=gmac.fault_count if gmac is not None else 0,
            signals=app.process.signals.delivered,
            verified=verified,
            extra={
                "machine": machine, "app": app, "gmac": gmac,
                **(
                    {"sanitizer": sanitizer.stats()}
                    if sanitizer is not None else {}
                ),
            },
        )

    def _sanitizer_for(self, gmac, protocol):
        """Arm the coherence checker + race detector when sanitizing is on.

        Imported lazily: the common (unsanitized) path never pays for the
        analysis package.
        """
        from repro import analysis

        if not analysis.enabled():
            return None
        return analysis.attach_sanitizer(
            gmac, context=f"{self.name}:{protocol}"
        )

    def execute_stats(self, runs=3, mode="gmac", protocol="rolling",
                      gmac_options=None):
        """Repeated execution with varied seeds; summary statistics.

        The paper executes each benchmark 16 times and reports averages;
        the simulator is deterministic per seed, so repetition varies the
        workload seed instead and summarizes elapsed virtual time.
        """
        from repro.util.stats import summarize

        if runs < 1:
            raise ReproError(f"need at least one run, got {runs}")
        elapsed = []
        results = []
        for repetition in range(runs):
            workload = type(self)(**self._repeat_params(repetition))
            result = workload.execute(
                mode=mode, protocol=protocol, gmac_options=gmac_options
            )
            if not result.verified:
                raise ReproError(
                    f"{self.name} run {repetition} failed verification"
                )
            elapsed.append(result.elapsed)
            results.append(result)
        return summarize(elapsed), results

    def _repeat_params(self, repetition):
        """Constructor kwargs for repetition N: same sizes, varied seed.

        Works for any workload whose constructor parameters are stored as
        same-named attributes (all of ours are); override otherwise.
        """
        import inspect

        params = {}
        for name in inspect.signature(type(self).__init__).parameters:
            if name != "self" and hasattr(self, name):
                params[name] = getattr(self, name)
        params["seed"] = self.seed + repetition
        return params

    def _reference_key(self):
        """Cache key for the oracle, or None when params are not hashable.

        Mirrors :meth:`_repeat_params`: constructor parameters are stored
        as same-named attributes.  A parameter that is missing or not a
        plain scalar disables caching for that workload instance rather
        than risking a stale or colliding entry.
        """
        import inspect

        items = []
        for name in inspect.signature(type(self).__init__).parameters:
            if name == "self":
                continue
            if not hasattr(self, name):
                return None
            value = getattr(self, name)
            if isinstance(value, np.generic):
                # Constructors may normalize to numpy scalars (e.g. a
                # float32 source term); key on the exact Python value.
                value = value.item()
            if not isinstance(value, (int, float, str, bool, bytes)):
                return None
            items.append((name, value))
        return (type(self).__module__, type(self).__qualname__, tuple(items))

    def _reference_outputs(self):
        key = self._reference_key()
        if key is None:
            return self.reference()
        cached = _REFERENCE_CACHE.get(key)
        if cached is None:
            cached = {}
            for name, value in self.reference().items():
                array = np.asarray(value)
                array.setflags(write=False)
                cached[name] = array
            while len(_REFERENCE_CACHE) >= _REFERENCE_CACHE_MAX:
                _REFERENCE_CACHE.pop(next(iter(_REFERENCE_CACHE)))
            _REFERENCE_CACHE[key] = cached
        return cached

    def _verify(self, outputs):
        expected = self._reference_outputs()
        for key, reference_value in expected.items():
            if key not in outputs:
                return False
            produced = np.asarray(outputs[key])
            reference_value = np.asarray(reference_value)
            if produced.shape != reference_value.shape:
                return False
            if np.array_equal(produced, reference_value):
                # Exact match (the usual case: both sides run the same
                # ops) — skip allclose's temporaries.
                continue
            # Only floating outputs get a tolerance: an integer or bool
            # output that is off by one is wrong.
            if not all(
                np.issubdtype(array.dtype, np.inexact)
                for array in (produced, reference_value)
            ):
                return False
            if not np.allclose(produced, reference_value,
                               rtol=1e-4, atol=1e-5):
                return False
        return True
