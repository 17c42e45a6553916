"""Seeded-bug harness: proof the sanitizer has teeth.

Each :class:`Mutation` re-introduces a realistic coherence bug by
monkeypatching one protocol (or engine) method, runs a small sanitized
scenario, and asserts the sanitizer flags the bug with the *expected*
rule.  The harness also runs every scenario unmutated first and asserts
it is clean — a checker that flags correct runs is as useless as one
that misses broken ones.

Run as a module::

    python -m repro.analysis.mutations

Exit status is non-zero if any scenario false-positives or any seeded
bug escapes.  CI runs this next to the test suite; the mutation list is
the sanitizer's regression spec.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Tuple

import numpy as np

from repro import analysis
from repro.analysis import SanitizerViolation, Violation, attach_sanitizer
from repro.analysis.checker import CoherenceModelChecker
from repro.analysis.report import write_report
from repro.core.api import Gmac
from repro.core.blocks import BlockState, INVALID_CODE
from repro.core.protocols.batch import BatchUpdate
from repro.core.protocols.lazy import LazyUpdate
from repro.core.protocols.rolling import RollingUpdate
from repro.cuda.driver import DriverContext
from repro.cuda.kernels import Kernel
from repro.hw.gpu import Gpu
from repro.hw.interconnect import Direction
from repro.hw.machine import reference_system
from repro.os.paging import AccessKind
from repro.util.units import KB
from repro.workloads.vecadd import VectorAdd

#: Patch target: (owner class, attribute name, replacement callable).
Patch = Tuple[type, str, Any]


# -- scenarios -------------------------------------------------------------------
#
# Small by design: a few hundred KB keeps the whole harness sub-second
# while still producing multi-block traffic (evictions, faults, fetches)
# under every protocol.

def _run_vecadd(protocol: str,
                options: Dict[str, Any] | None = None) -> List[Violation]:
    """One sanitized vecadd run; returns the violations it raised."""
    previous = os.environ.get(analysis.ENABLE_ENV)
    analysis.enable()
    try:
        VectorAdd(elements=128 * 1024).execute(
            mode="gmac", protocol=protocol, gmac_options=options
        )
        return []
    except SanitizerViolation as error:
        return error.violations
    finally:
        if previous is None:
            analysis.disable()
        else:
            os.environ[analysis.ENABLE_ENV] = previous


def _scenario_rolling() -> List[Violation]:
    # A small fixed rolling size forces eager evictions during produce.
    return _run_vecadd("rolling", {
        "protocol_options": {"block_size": 64 * KB, "rolling_size": 2},
        "layer": "driver",
    })


def _scenario_lazy() -> List[Violation]:
    return _run_vecadd("lazy", {"layer": "driver"})


def _scenario_batch() -> List[Violation]:
    return _run_vecadd("batch", {"layer": "driver"})


def _scenario_declared() -> List[Violation]:
    # execute() injects VectorAdd.declared_modes into the protocol, and
    # the sanitizer arms a ContractMonitor whenever the protocol carries
    # modes — so a wrong declaration is flagged at the launch boundary.
    return _run_vecadd("declared", {"layer": "driver"})


def _scenario_modelcheck() -> List[Violation]:
    """Model-checker self-proof: every rule's minimal stream must flag.

    :func:`repro.analysis.modelcheck.selfcheck` replays one hand-built
    minimal violating event stream per checker rule.  A rule that stays
    silent means the checker lost teeth — surfaced here as a violation so
    the harness scores weakened invariants like any other seeded bug.
    """
    from repro.analysis import modelcheck

    return [
        Violation(
            source="modelcheck", rule="selfcheck-missed", time=0.0,
            message=f"minimal violating stream for {rule!r} went unflagged",
            region=rule,
        )
        for rule in modelcheck.selfcheck()
    ]


def _copy_fn(gpu: Any, a: int, c: int, n: int) -> None:
    gpu.view(c, "f4", n)[:] = gpu.view(a, "f4", n)


_COPY = Kernel(
    "san-copy", _copy_fn, cost=lambda a, c, n: (n, 8 * n), writes=("c",)
)


def _scenario_annotated_lazy() -> List[Violation]:
    """A run using the Section 4.3 output annotation (``writes=``).

    The stock workloads launch unannotated, so the annotation-specific
    invariant (written objects must not stay host-valid across the call)
    needs its own scenario.
    """
    machine = reference_system()
    from repro.workloads.base import Application

    app = Application(machine)
    gmac = app.gmac(protocol="lazy", layer="driver")
    sanitizer = attach_sanitizer(gmac, context="mutation:annotated-lazy")
    nbytes = 64 * KB
    a = gmac.alloc(nbytes, name="a")
    c = gmac.alloc(nbytes, name="c")
    payload = np.arange(nbytes // 4, dtype=np.float32)
    a.write_bytes(memoryview(payload).cast("B"))
    gmac.call(_COPY, writes=[c], a=a, c=c, n=nbytes // 4)
    gmac.sync()
    out = np.empty(nbytes, dtype=np.uint8)
    c.read_into(out)
    try:
        sanitizer.finish()
    except SanitizerViolation as error:
        return error.violations
    return []


# -- the seeded bugs -------------------------------------------------------------

def _evict_without_flush(self: Any, block: Any) -> None:
    """Bug 1: eager eviction demotes the block but forgets the transfer."""
    self.evictions += 1
    block.region.table.dirty_bits[block.index] = False  # sanitizer: allow[R004]
    self.manager.note_coherence(
        "evict", block.region.name, block.index, block.index
    )
    self.manager.set_block(block, BlockState.READ_ONLY)


def _mark_dirty_unbounded(self: Any, block: Any) -> None:
    """Bug 2: the dirty-block cache never evicts (unbounded rolling)."""
    self.manager.set_block(block, BlockState.DIRTY)
    block.region.table.dirty_bits[block.index] = True  # sanitizer: allow[R004]
    self._dirty.append(block)


def _lazy_fault_without_fetch(self: Any, block: Any, access: Any) -> None:
    """Bug 3: invalid objects are remapped without fetching device data."""
    manager = self.manager
    if block.state is BlockState.READ_ONLY:
        manager.set_block(block, BlockState.DIRTY)
    elif access is AccessKind.WRITE:
        manager.set_block(block, BlockState.DIRTY)
    else:
        manager.set_block(block, BlockState.READ_ONLY)


def _lazy_pre_call_no_invalidate(self: Any, regions: Any,
                                 written: Any = None) -> None:
    """Bug 4: kernel-written objects keep their host mapping valid."""
    for region in regions:
        for index in region.table.indices_in(BlockState.DIRTY):
            self.manager.flush_index(region, int(index), sync=True)
        if region.table.states[0] != INVALID_CODE:
            self.manager.set_region_blocks(region, BlockState.READ_ONLY)


def _lazy_pre_call_skip_flush(self: Any, regions: Any,
                              written: Any = None) -> None:
    """Bug 5: release invalidates dirty objects without flushing them."""
    for region in regions:
        self.manager.set_region_blocks(region, BlockState.INVALID)


def _batch_post_sync_no_fetch(self: Any, regions: Any) -> None:
    """Bug 6: the acquire barrier marks objects dirty without fetching."""
    for region in regions:
        self.manager.set_states_only(region, BlockState.DIRTY)


def _mark_dirty_evict_newest(self: Any, block: Any) -> None:
    """Bug 7: capacity eviction retires the newest settled block (LIFO).

    The block whose write fault is in progress must stay resident (an
    unrepaired fault is a crash), so the victim is the second-newest —
    still the wrong end of the FIFO.
    """
    self.manager.set_block(block, BlockState.DIRTY)
    block.region.table.dirty_bits[block.index] = True  # sanitizer: allow[R004]
    self._dirty.append(block)
    while len(self._dirty) > max(self.rolling_size, 1):
        faulting = self._dirty.pop()
        victim = self._dirty.pop()
        self._dirty.append(faulting)
        self._evict(victim)


_REAL_SYNC = Gmac.sync


def _sync_touches_released_object(self: Any) -> Any:
    """Bug 8: the application reads a shared object before adsmSync."""
    region = self.manager.regions()[0]
    self.process.touch(region.host_start, 64, AccessKind.WRITE)
    return _REAL_SYNC(self)


def _observed_without_materialize(self: Any, device: bool = True) -> None:
    """Bug 9: byte observers skip the deferred-numerics barrier.

    Fetches record ledger entries without replaying, so the bug shows
    when the host reads an entry whose launches never replayed."""
    if self._replaying:
        return
    if device and self.observe_hook is not None:
        self.observe_hook()


def _memcpy_d2h_direct(self: Any, host: int, device: int, size: int,
                       stream: Any = None, sync: bool = True) -> Any:
    """Bug 10: a hand-rolled D2H 'fast path' grabs the backing buffers
    directly, skipping the ledger entry point — and with it the device
    observation barrier, dirty-run recording and deferred-extent
    materialization."""
    self._driver_call()
    self._check_alive()
    self._maybe_fail_transfer(Direction.D2H, size)
    allocation, offset = self.gpu.memory._locate(device, size)  # sanitizer: allow[R001]
    self.process.address_space.poke(  # sanitizer: allow[R006]
        host, allocation.buffer[offset:offset + size]
    )
    completion = self._schedule_transfer(size, Direction.D2H, stream)
    if sync:
        completion.wait()
    return completion


#: Bug 11: the programmer mislabels the kernel's output as read-only.
#: The static contract (``infer_kernel_contract``) proves the kernel
#: writes ``c``, so the launch-time ContractMonitor must reject the
#: declaration before the elided transfers can corrupt the output.
_WRONG_VECADD_MODES = {"a": "ro", "b": "ro", "c": "ro"}


def _invalidate_without_lost_update_check(self: Any, event: Any, model: Any,
                                          lo: int, hi: int) -> None:
    """Bug 12: invalidation forgets the lost-update audit.

    The weakened checker still mirrors the state change (so every other
    rule keeps passing) but never inspects the dirty blocks it is about
    to drop — exactly the kind of silent invariant rot the model
    checker's self-check exists to catch.
    """
    model.device_valid[lo:hi] = True
    model.host_valid[lo:hi] = False


@dataclass(frozen=True)
class Mutation:
    name: str
    description: str
    #: Flagging any of these rules counts as catching the bug.
    expected: Tuple[str, ...]
    scenario: Callable[[], List[Violation]]
    patches: Tuple[Patch, ...]


MUTATIONS: Tuple[Mutation, ...] = (
    Mutation(
        "rolling-skip-eviction-flush",
        "eager eviction demotes without transferring the block",
        ("ro-stale-device",),
        _scenario_rolling,
        ((RollingUpdate, "_evict", _evict_without_flush),),
    ),
    Mutation(
        "rolling-unbounded-cache",
        "dirty-block cache ignores the rolling size",
        ("rolling-bound",),
        _scenario_rolling,
        ((RollingUpdate, "_mark_dirty", _mark_dirty_unbounded),),
    ),
    Mutation(
        "lazy-stale-fetch",
        "invalid objects remapped without fetching device data",
        ("ro-stale-host", "dirty-stale-host"),
        _scenario_lazy,
        ((LazyUpdate, "on_fault", _lazy_fault_without_fetch),),
    ),
    Mutation(
        "lazy-missing-invalidate",
        "kernel-written objects stay host-valid across the call",
        ("call-written-valid",),
        _scenario_annotated_lazy,
        ((LazyUpdate, "pre_call", _lazy_pre_call_no_invalidate),),
    ),
    Mutation(
        "lazy-lost-update",
        "release invalidates dirty objects without flushing",
        ("invalid-lost-update",),
        _scenario_lazy,
        ((LazyUpdate, "pre_call", _lazy_pre_call_skip_flush),),
    ),
    Mutation(
        "batch-skip-fetch",
        "acquire marks objects dirty without fetching them back",
        ("dirty-stale-host",),
        _scenario_batch,
        ((BatchUpdate, "post_sync", _batch_post_sync_no_fetch),),
    ),
    Mutation(
        "rolling-evict-newest",
        "capacity eviction retires the newest block instead of the oldest",
        ("evict-order",),
        _scenario_rolling,
        ((RollingUpdate, "_mark_dirty", _mark_dirty_evict_newest),),
    ),
    Mutation(
        "kernel-window-race",
        "CPU writes a released object before the completion barrier",
        ("window-access",),
        _scenario_lazy,
        ((Gmac, "sync", _sync_touches_released_object),),
    ),
    Mutation(
        "deferred-barrier-bypass",
        "device reads skip the deferred kernel-numerics barrier",
        ("barrier-bypass",),
        _scenario_batch,
        ((Gpu, "_memory_observed", _observed_without_materialize),),
    ),
    Mutation(
        "ledger-bypass-direct-copy",
        "D2H fast path copies device bytes around the transfer ledger",
        ("barrier-bypass",),
        _scenario_batch,
        ((DriverContext, "memcpy_d2h", _memcpy_d2h_direct),),
    ),
    Mutation(
        "wrong-mode-declaration",
        "workload declares its kernel-written output read-only",
        ("wrong-mode-declaration",),
        _scenario_declared,
        ((VectorAdd, "declared_modes", _WRONG_VECADD_MODES),),
    ),
    Mutation(
        "modelcheck-invariant-weakened",
        "checker drops the lost-update audit on invalidation",
        ("selfcheck-missed",),
        _scenario_modelcheck,
        ((CoherenceModelChecker, "_check_to_invalid",
          _invalidate_without_lost_update_check),),
    ),
)


@contextmanager
def _applied(patches: Tuple[Patch, ...]) -> Iterator[None]:
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
    try:
        for owner, name, replacement in patches:
            setattr(owner, name, replacement)
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


@dataclass
class Outcome:
    mutation: str
    caught: bool
    rules: Tuple[str, ...]
    detail: str = ""


def run_mutation(mutation: Mutation) -> Outcome:
    """Apply one seeded bug, run its scenario, judge the flags."""
    try:
        with _applied(mutation.patches):
            violations = mutation.scenario()
    except Exception as error:  # crashed before the sanitizer could rule
        return Outcome(
            mutation.name, False, (),
            detail=f"scenario crashed: {type(error).__name__}: {error}",
        )
    rules = tuple(sorted({violation.rule for violation in violations}))
    caught = any(rule in rules for rule in mutation.expected)
    if violations:
        write_report(f"mutation:{mutation.name}", violations)
    return Outcome(mutation.name, caught, rules)


def run_all() -> Tuple[List[Outcome], List[str]]:
    """All mutations plus baseline (unmutated) cleanliness checks."""
    false_positives = []
    for scenario in (
        _scenario_rolling, _scenario_lazy, _scenario_batch,
        _scenario_annotated_lazy, _scenario_declared, _scenario_modelcheck,
    ):
        clean = scenario()
        if clean:
            rules = sorted({violation.rule for violation in clean})
            false_positives.append(f"{scenario.__name__}: {rules}")
    return [run_mutation(mutation) for mutation in MUTATIONS], false_positives


def main() -> int:
    outcomes, false_positives = run_all()
    status = 0
    for name in false_positives:
        print(f"FALSE-POSITIVE {name}")
        status = 1
    for outcome in outcomes:
        mutation = next(m for m in MUTATIONS if m.name == outcome.mutation)
        if outcome.caught:
            flagged = ",".join(
                rule for rule in outcome.rules if rule in mutation.expected
            )
            print(f"caught   {outcome.mutation:28s} -> {flagged}")
        else:
            print(
                f"MISSED   {outcome.mutation:28s} expected "
                f"{'/'.join(mutation.expected)}; saw {outcome.rules or '()'} "
                f"{outcome.detail}"
            )
            status = 1
    total = sum(outcome.caught for outcome in outcomes)
    print(f"{total}/{len(outcomes)} seeded bugs caught, "
          f"{len(false_positives)} false positive(s)")
    return status


if __name__ == "__main__":
    sys.exit(main())
