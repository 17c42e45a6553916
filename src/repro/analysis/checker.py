"""Coherence model checker: a reference state machine for the event stream.

The checker is a pure observer.  It subscribes to the
:class:`~repro.sim.tracing.CoherenceEvent` stream (as the
``TimeAccounting.coherence`` sink) and replays every event against a
*reference* model of GMAC's release-consistency protocol — the Figure 6
state machine plus two ground-truth bits per block that the
implementation does not keep:

``host_valid``
    the host copy of the block holds the program's current data,

``device_valid``
    the accelerator copy does.

The claimed :class:`~repro.core.blocks.BlockState` is then just an
assertion about those bits — DIRTY claims the host copy is canonical,
INVALID claims the device copy is, READ_ONLY claims both match — and a
transition is legal exactly when the bits back the claim.  Flushes,
fetches, evictions, kernel launches and syncs each update or check the
bits; any mismatch produces a :class:`~repro.analysis.report.Violation`
with a precise expected-vs-claimed diff.

After flagging a violation the checker *adopts* the implementation's
claim (sets the bits the claim asserts), so one protocol bug yields one
violation at its first observable event rather than a cascade of
downstream noise.

The transfer ledger (DESIGN.md §14) leaves ``host_valid`` and
``device_valid`` their meaning: a fetch that records a deferred extent
still makes the *host* logically valid — the entry names the launch
version whose bytes are the host copy, materialized on first observation
— and a delta-trimmed flush still makes the device valid.  The
deferred-numerics barrier is checked twice under one rule,
``barrier-bypass``.  The ``pending=`` sample on a fetch event counts the
queued writers of the block's allocation that the fetched host bytes do
not account for: 0 for a record (it names the latest version) and for an
eager copy (it replayed first), so a copy around the ledger trips it.  A
``materialize`` event, sent by the sanitizer's ``Gpu.unreplayed_hook``,
reports host bytes read from an entry whose launches never replayed, so
a broken replay barrier trips it.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Set

import numpy as np

from repro.core.blocks import DIRTY_CODE, INVALID_CODE, READ_ONLY_CODE
from repro.analysis.report import Violation

_STATE_CODES = {
    "invalid": INVALID_CODE,
    "dirty": DIRTY_CODE,
    "read-only": READ_ONLY_CODE,
}
_CODE_NAMES = {code: name for name, code in _STATE_CODES.items()}


def _span(indices: np.ndarray) -> str:
    """Summarize offending block indices compactly: ``3`` or ``3..17 (9)``."""
    if indices.size == 1:
        return str(int(indices[0]))
    return (
        f"{int(indices[0])}..{int(indices[-1])} ({int(indices.size)} blocks)"
    )


class _RegionModel:
    """Reference state for one shared region, one entry per block."""

    def __init__(self, n_blocks: int) -> None:
        self.n_blocks = n_blocks
        # Fresh allocations start READ_ONLY with both copies "valid":
        # host and device hold the same (zeroed) bytes.
        self.states = np.full(n_blocks, READ_ONLY_CODE, dtype=np.uint8)
        self.host_valid = np.ones(n_blocks, dtype=bool)
        self.device_valid = np.ones(n_blocks, dtype=bool)
        #: Declared access mode ("rw" unless a ``mode`` event announced
        #: otherwise); relaxes exactly the invariants a verified
        #: declaration makes safe to relax.
        self.mode = "rw"


class CoherenceModelChecker:
    """Replays coherence events against the reference protocol model."""

    def __init__(self, max_violations: int = 64) -> None:
        self.regions: Dict[str, _RegionModel] = {}
        self.violations: List[Violation] = []
        self.events_checked = 0
        self.max_violations = max_violations
        self.protocol = ""
        #: FIFO mirror of rolling-update's dirty-block cache: (region, index)
        #: in the order the blocks became dirty.
        self.fifo: Deque[tuple[str, int]] = deque()
        self._fifo_members: Set[tuple[str, int]] = set()
        self.rolling_limit = 0

    # -- plumbing -------------------------------------------------------------------

    def configure(self, protocol: str) -> None:
        self.protocol = protocol

    def _flag(self, event: Any, rule: str, message: str) -> None:
        if len(self.violations) >= self.max_violations:
            return
        self.violations.append(Violation(
            "checker", rule, event.time, message, region=event.region
        ))

    def _model(self, event: Any) -> Optional[_RegionModel]:
        return self.regions.get(event.region)

    # -- event dispatch -------------------------------------------------------------

    def record(self, event: Any) -> None:
        """Sink entry point: check one :class:`CoherenceEvent`."""
        self.events_checked += 1
        handler = getattr(self, f"_on_{event.kind}", None)
        if handler is not None:
            handler(event)

    def _on_alloc(self, event: Any) -> None:
        self.regions[event.region] = _RegionModel(event.last + 1)

    def _on_free(self, event: Any) -> None:
        self.regions.pop(event.region, None)
        for key in [k for k in self._fifo_members if k[0] == event.region]:
            self._fifo_members.discard(key)
            self.fifo.remove(key)

    def _on_limit(self, event: Any) -> None:
        self.rolling_limit = int(event.detail)

    def _on_mode(self, event: Any) -> None:
        """The declared protocol announced a region's access mode."""
        model = self._model(event)
        if model is not None:
            model.mode = event.detail

    def _on_protocol(self, event: Any) -> None:
        if event.detail == "device-recovery":
            # The accelerator lost its memory: every device copy is gone
            # until the recovery path restores it.  Recovery's contract
            # (core/recovery.py) is that the host is a complete checkpoint
            # — it re-flushes every block from the host copy — so the
            # host becomes canonical by fiat.  Whether in-flight kernel
            # output was truly lost is the oracle's question, not a
            # coherence-protocol violation.
            for model in self.regions.values():
                model.device_valid[:] = False
                model.host_valid[:] = True
            return
        self.configure(event.detail)
        if self.protocol != "rolling":
            self.fifo.clear()
            self._fifo_members.clear()

    # -- transitions ----------------------------------------------------------------

    def _on_transition(self, event: Any) -> None:
        model = self._model(event)
        if model is None:
            return
        lo, hi = event.first, event.last + 1
        code = _STATE_CODES[event.state]
        if code == DIRTY_CODE:
            self._check_to_dirty(event, model, lo, hi)
        elif code == READ_ONLY_CODE:
            self._check_to_read_only(event, model, lo, hi)
        else:
            self._check_to_invalid(event, model, lo, hi)
        model.states[lo:hi] = code  # sanitizer: allow[R004]
        self._mirror_fifo(event, lo, hi, code)

    def _check_to_dirty(self, event: Any, model: _RegionModel,
                        lo: int, hi: int) -> None:
        """DIRTY claims the host copy is canonical — it must be valid."""
        stale = np.nonzero(~model.host_valid[lo:hi])[0] + lo
        if stale.size:
            self._flag(
                event, "dirty-stale-host",
                f"blocks {_span(stale)} marked dirty but the host copy is "
                "stale (the device holds newer data that was never fetched)",
            )
        # The CPU is about to write: the device copy falls behind, and
        # (adopting the claim) the host copy is what the program sees.
        model.device_valid[lo:hi] = False
        model.host_valid[lo:hi] = True

    def _check_to_read_only(self, event: Any, model: _RegionModel,
                            lo: int, hi: int) -> None:
        """READ_ONLY claims both copies match — both must be valid."""
        stale_host = np.nonzero(~model.host_valid[lo:hi])[0] + lo
        if stale_host.size:
            self._flag(
                event, "ro-stale-host",
                f"blocks {_span(stale_host)} marked read-only but the host "
                "copy is stale (device data was never fetched)",
            )
        stale_device = np.nonzero(~model.device_valid[lo:hi])[0] + lo
        if stale_device.size:
            self._flag(
                event, "ro-stale-device",
                f"blocks {_span(stale_device)} marked read-only but the "
                "device copy is stale (host data was never flushed)",
            )
        model.host_valid[lo:hi] = True
        model.device_valid[lo:hi] = True

    def _check_to_invalid(self, event: Any, model: _RegionModel,
                          lo: int, hi: int) -> None:
        """INVALID claims the device copy is canonical — dropping a dirty
        host copy whose data never reached the device loses an update."""
        segment = model.states[lo:hi]
        lost = np.nonzero(
            (segment == DIRTY_CODE) & ~model.device_valid[lo:hi]
        )[0] + lo
        if lost.size and not (
            event.detail == "wo-release" and model.mode == "wo"
        ):
            # A declared write-only release legitimately drops dirty host
            # bytes: the kernel overwrites the whole object, so nothing
            # the program will ever read is lost.  Any other invalidation
            # of unflushed dirty blocks loses an update.
            self._flag(
                event, "invalid-lost-update",
                f"blocks {_span(lost)} invalidated while dirty: host writes "
                "were discarded without ever being flushed to the device",
            )
        model.device_valid[lo:hi] = True
        model.host_valid[lo:hi] = False

    def _mirror_fifo(self, event: Any, lo: int, hi: int, code: int) -> None:
        """Track rolling-update's dirty-block FIFO and its size bound."""
        for index in range(lo, hi):
            key = (event.region, index)
            if code == DIRTY_CODE:
                if key not in self._fifo_members:
                    self._fifo_members.add(key)
                    self.fifo.append(key)
            elif key in self._fifo_members:
                self._fifo_members.discard(key)
                self.fifo.remove(key)
        if (self.protocol == "rolling" and self.rolling_limit
                and len(self.fifo) > max(self.rolling_limit, 1) + 1):
            self._flag(
                event, "rolling-bound",
                f"{len(self.fifo)} dirty blocks cached but the rolling "
                f"limit is {self.rolling_limit}: eviction is not keeping "
                "the cache bounded",
            )

    # -- data movement --------------------------------------------------------------

    def _on_flush(self, event: Any) -> None:
        """Host-to-device transfer: the host copy must be worth sending."""
        model = self._model(event)
        if model is None:
            return
        index = event.first
        if not model.host_valid[index]:
            self._flag(
                event, "flush-stale-host",
                f"block {index} flushed to the device but the host copy is "
                "stale: the transfer clobbers newer device data",
            )
        model.device_valid[index] = True

    def _on_materialize(self, event: Any) -> None:
        """The host read recorded bytes: their launches must have run."""
        pending = int(event.detail.split("=", 1)[1])
        if pending > 0:
            self._flag(
                event, "barrier-bypass",
                f"host read ledger bytes that miss {pending} queued kernel "
                "launch(es): the read bypassed the replay barrier",
            )

    def _on_fetch(self, event: Any) -> None:
        """Device-to-host transfer: the device must be idle and fresh."""
        model = self._model(event)
        if model is None:
            return
        index = event.first
        pending = int(event.detail.split("=", 1)[1]) if event.detail else 0
        if pending > 0:
            self._flag(
                event, "barrier-bypass",
                f"block {index} fetched with {pending} kernel launch(es) "
                "still executing: the read bypassed the completion barrier",
            )
        if not model.device_valid[index]:
            self._flag(
                event, "fetch-stale-device",
                f"block {index} fetched but the device copy is stale: the "
                "host receives data older than what it already had",
            )
        if model.states[index] == DIRTY_CODE:
            self._flag(
                event, "fetch-clobber",
                f"block {index} fetched while dirty: unflushed host writes "
                "are overwritten by the incoming device data",
            )
        model.host_valid[index] = True

    def _on_evict(self, event: Any) -> None:
        """Rolling eviction must leave the cache in FIFO order."""
        if event.detail == "forced":
            return  # capacity pressure flushes out of order by design
        key = (event.region, event.first)
        if self._fifo_members and key in self._fifo_members:
            head = self.fifo[0]
            if head != key:
                self._flag(
                    event, "evict-order",
                    f"block {event.first} evicted ahead of the FIFO head "
                    f"({head[0]} block {head[1]}): rolling-update must "
                    "retire the oldest dirty block first",
                )
        # The following READ_ONLY transition removes the entry.

    def _on_bulk(self, event: Any) -> None:
        """Device-side memset/memcpy/peer-DMA: device becomes canonical."""
        model = self._model(event)
        if model is None:
            return
        index = event.first
        model.device_valid[index] = True
        model.host_valid[index] = False

    def _on_peer(self, event: Any) -> None:
        """Region migration between devices (peer DMA or host re-route).

        A ``dma:src->dst`` migration moves the device copy verbatim, so
        every block whose *device* copy is canonical (INVALID claims) must
        actually hold valid device data — migrating a stale device copy
        onto the new owner loses the program's current bytes.  A
        ``host:src->dst`` re-route re-materialises the region from host
        memory instead, which is only sound when the host copy is valid
        for every block.
        """
        model = self._model(event)
        if model is None:
            return
        lo, hi = event.first, event.last + 1
        if event.detail.startswith("host:"):
            stale = np.nonzero(~model.host_valid[lo:hi])[0] + lo
            if stale.size:
                self._flag(
                    event, "peer-stale-host",
                    f"blocks {_span(stale)} re-routed via host memory but "
                    "the host copy is stale: device-only data is lost",
                )
            # Adopt: the region was flushed whole from host bytes.
            model.host_valid[lo:hi] = True
            model.device_valid[lo:hi] = True
        else:
            lost = np.nonzero(
                (model.states[lo:hi] == INVALID_CODE)
                & ~model.device_valid[lo:hi]
            )[0] + lo
            if lost.size:
                self._flag(
                    event, "peer-lost-data",
                    f"blocks {_span(lost)} migrated device-to-device while "
                    "the device copy is stale: the new owner inherits old "
                    "bytes the host never validated",
                )
            # Adopt: whatever the source device held now lives on the
            # target; host validity is untouched by a peer copy.
            model.device_valid[lo:hi][
                model.states[lo:hi] == INVALID_CODE
            ] = True

    # -- synchronization points -----------------------------------------------------

    def _on_call(self, event: Any) -> None:
        """Kernel launch: every object must be released and device-fresh."""
        written = None if event.detail == "*" else set(
            name for name in event.detail.split(",") if name
        )
        for name, model in self.regions.items():
            if model.mode == "none":
                # Declared untouched by every kernel: dirty host blocks
                # are legal across the launch and the device copy may lag
                # forever — the kernel provably never observes either.
                continue
            dirty = np.nonzero(model.states == DIRTY_CODE)[0]
            if dirty.size:
                self._flag(
                    event, "call-dirty",
                    f"{name}: blocks {_span(dirty)} still dirty at kernel "
                    "launch — unflushed host writes are invisible to the "
                    "accelerator",
                )
            stale = np.nonzero(
                ~model.device_valid & (model.states != DIRTY_CODE)
            )[0]
            if stale.size:
                self._flag(
                    event, "call-stale-device",
                    f"{name}: blocks {_span(stale)} released to the kernel "
                    "but the device copy is stale",
                )
        for name, model in self.regions.items():
            if written is not None and name not in written:
                continue
            # The kernel writes this object: host copies go stale, and a
            # block still claiming READ_ONLY now overstates host validity.
            valid_claim = np.nonzero(model.states == READ_ONLY_CODE)[0]
            if valid_claim.size and event.detail != "*":
                self._flag(
                    event, "call-written-valid",
                    f"{name}: blocks {_span(valid_claim)} remain read-only "
                    "across a kernel that writes the object — the next CPU "
                    "read will see pre-kernel data",
                )
            model.host_valid[:] = False
            model.device_valid[:] = True

    def _on_sync(self, event: Any) -> None:
        """Acquire: batch must have re-fetched everything it will read."""
        if self.protocol != "batch":
            return
        for name, model in self.regions.items():
            missing = np.nonzero(model.states == INVALID_CODE)[0]
            if missing.size:
                self._flag(
                    event, "sync-missing-fetch",
                    f"{name}: blocks {_span(missing)} still invalid after "
                    "sync — batch-update must restore host copies at the "
                    "acquire point",
                )

    # -- results --------------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {
            "events_checked": self.events_checked,
            "violations": len(self.violations),
        }
