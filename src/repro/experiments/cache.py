"""Persistent on-disk result cache for experiment runs.

Entries live under ``benchmarks/results/cache/`` (override with the
``REPRO_CACHE_DIR`` environment variable), one pickle per executed
:class:`~repro.experiments.spec.RunSpec`.  The file name is the SHA-256 of
the spec's canonical key *plus a source fingerprint* of ``src/repro`` — a
hash over every simulator source file that can influence a run's outcome.
Editing the simulator therefore invalidates every entry at once, while
editing experiment table/rendering code (which only projects outcomes)
leaves the cache warm.

Writes are atomic (temp file + rename) and every rename is verified after
the fact — the visible file must hold the bytes just written, or load back
as an entry for the spec being written (a concurrent writer's) — so
concurrent sweeps (or two pool workers finishing the same deduped spec)
sharing a cache directory never observe torn entries.

Alongside the outcome pickles the cache keeps **timing metadata**
(``timings.json``): the last recorded host-seconds per spec, keyed by the
spec key *alone* — no source fingerprint — so the cost-aware scheduler can
still rank specs after a simulator edit invalidates every outcome.  A
stale timing can only misorder a queue, never corrupt a result.
"""

import functools
import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path

_SRC_ROOT = Path(__file__).resolve().parents[1]  # src/repro

#: Experiment modules only *project* outcomes into tables, so they do not
#: invalidate results — except the spec module itself, which defines how a
#: spec executes.
_FINGERPRINT_EXEMPT = _SRC_ROOT / "experiments"
_FINGERPRINT_KEPT = {"spec.py"}


@functools.lru_cache(maxsize=1)
def source_fingerprint():
    """SHA-256 over the simulator sources that determine run outcomes."""
    digest = hashlib.sha256()
    for path in sorted(_SRC_ROOT.rglob("*.py")):
        if path.parent == _FINGERPRINT_EXEMPT and path.name not in _FINGERPRINT_KEPT:
            continue
        digest.update(str(path.relative_to(_SRC_ROOT)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def default_cache_dir():
    """``$REPRO_CACHE_DIR`` or ``<repo>/benchmarks/results/cache``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    repo_root = _SRC_ROOT.parents[1]
    if (repo_root / "benchmarks").is_dir():
        return repo_root / "benchmarks" / "results" / "cache"
    # Installed without the benchmark tree: keep the cache out of site-packages.
    return Path(tempfile.gettempdir()) / "repro-result-cache"


class ResultCache:
    """Pickle-file cache of :class:`~repro.experiments.spec.SpecOutcome`."""

    def __init__(self, root=None):
        self.root = Path(root) if root is not None else default_cache_dir()

    def _path(self, spec):
        digest = hashlib.sha256()
        digest.update(spec.key().encode())
        digest.update(b"\0")
        digest.update(source_fingerprint().encode())
        return self.root / f"{digest.hexdigest()}.pkl"

    def get(self, spec):
        """The cached outcome for ``spec``, or None.

        A corrupt or unreadable entry (torn write from an older run, a
        pickle from an incompatible version) behaves as a miss.
        """
        path = self._path(spec)
        try:
            with open(path, "rb") as handle:
                entry = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            return None
        if entry.get("key") != spec.key():  # hash collision paranoia
            return None
        return entry.get("outcome")

    def put(self, spec, outcome):
        """Persist ``outcome`` atomically; concurrent writers are safe.

        Each writer stages into its own temp file and renames, so two
        workers finishing the same deduped spec race only at the rename —
        whichever entry wins is a complete pickle for the same key.  The
        post-rename verify re-reads whatever is visible: our own bytes pass
        as they are, and only different bytes (a concurrent winner's) are
        unpickled and accepted when they hold a valid entry for this spec.
        A failed verify rewrites once, then raises instead of leaving a
        corrupt entry behind.
        """
        path = self._path(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = pickle.dumps({
            "key": spec.key(),
            "fingerprint": source_fingerprint(),
            "outcome": outcome,
        }, protocol=pickle.HIGHEST_PROTOCOL)
        for attempt in (1, 2):
            self._write_atomic(path, data)
            if self._verify_entry(path, spec, data):
                return
        raise OSError(
            f"result-cache entry {path.name} failed post-rename "
            "verification twice; refusing to leave a corrupt entry"
        )

    @staticmethod
    def _write_atomic(path, data):
        fd, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def _verify_entry(self, path, spec, data):
        """The visible entry is ``data``, or loads and fingerprints as one
        for ``spec``."""
        try:
            visible = path.read_bytes()
        except OSError:
            return False
        if visible == data:
            return True
        try:
            entry = pickle.loads(visible)
        except (pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError):
            return False
        return (
            isinstance(entry, dict)
            and entry.get("key") == spec.key()
            and entry.get("fingerprint") == source_fingerprint()
            and entry.get("outcome") is not None
        )

    # -- timing metadata (cost-aware scheduling) ------------------------------

    _TIMINGS_NAME = "timings.json"

    @staticmethod
    def timing_key(spec):
        """Digest of the spec key alone (deliberately fingerprint-free).

        Timings are scheduling *hints*: surviving a source edit is the
        point (the next cold sweep after an edit is exactly when a good
        dispatch order pays), and a stale hint can only misorder the
        queue.  Outcome entries, by contrast, stay fingerprint-addressed.
        """
        return hashlib.sha256(spec.key().encode()).hexdigest()

    def timings(self):
        """Recorded host-seconds by :meth:`timing_key` (empty on any rot)."""
        try:
            loaded = json.loads(
                (self.root / self._TIMINGS_NAME).read_text()
            )
        except (OSError, ValueError):
            return {}
        return loaded if isinstance(loaded, dict) else {}

    def record_timings(self, seconds_by_key):
        """Merge ``{timing_key: host_seconds}`` and rewrite atomically."""
        if not seconds_by_key:
            return
        merged = self.timings()
        for key, seconds in seconds_by_key.items():
            merged[key] = round(float(seconds), 6)
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=str(self.root), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(merged, handle, sort_keys=True)
            os.replace(tmp_name, self.root / self._TIMINGS_NAME)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def expected_cost(self, spec):
        """The last recorded host-seconds for ``spec``, or None."""
        return self.timings().get(self.timing_key(spec))

    def clear(self):
        """Remove every cache entry (stale fingerprints included)."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.pkl"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def __len__(self):
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.pkl"))
