"""Fault recovery on top of ADSM's host-resident coherence state.

The paper's central asymmetry — all coherence state and actions live on
the CPU — makes the host side a natural recovery point: GMAC always knows
which blocks are host-canonical (DIRTY / READ_ONLY) and can re-create the
accelerator's entire memory image from them.  :class:`RecoveryPolicy`
exploits that in four ways:

* **transient transfer faults** — bounded retry with virtual-time
  exponential backoff; the failed attempts occupy the PCIe timeline (see
  :meth:`repro.hw.interconnect.Link.faulted_transfer`) and the backoff
  waits are charged to the ``Retry`` accounting category, so the chaos
  experiment can report recovery overhead as its own break-down column;
* **device OOM** — ``cudaMalloc`` failures trigger forced eager eviction
  of the protocol's dirty blocks plus a rolling-size shrink (relieving
  device-side staging pressure) before the allocation is retried;
* **device loss** — the context is revived (device reset), every region's
  allocation is replayed at its old address, and all blocks are flushed
  from host-canonical state.  This is sound because device loss is only
  injected at kernel-launch time (see :mod:`repro.faults.plan`): at that
  point the host has just released — i.e. fully flushed — the shared
  objects, so accelerator memory holds nothing the host has not seen;
* **protocol degradation** — when the observed fault rate crosses a
  threshold the coherence protocol is downgraded rolling -> lazy -> batch
  at a call boundary: fewer, larger, synchronous transfers are easier to
  retry than a deep asynchronous eviction pipeline.

A ``RecoveryPolicy`` is armed automatically by :class:`repro.core.api.Gmac`
whenever the machine has an *enabled* fault plan installed; without one,
every hook below stays un-entered and fault-free runs are byte-identical
to the pre-fault-injection library.
"""

from repro.util.errors import (
    CudaOutOfMemoryError,
    DeviceLostError,
    LaunchError,
    RecoveryExhausted,
    TransferError,
)
from repro.sim.tracing import Category
from repro.hw.interconnect import Direction
from repro.hw.memory import copy_d2h
from repro.core.blocks import BlockState
from repro.core.watchdog import Watchdog


class RecoveryPolicy:
    """Retry, re-materialisation and degradation decisions for one Gmac."""

    def __init__(self,
                 max_transfer_retries=8,
                 max_launch_retries=5,
                 max_oom_retries=4,
                 max_device_recoveries=3,
                 backoff_base_s=20e-6,
                 backoff_factor=2.0,
                 max_backoff_s=5e-3,
                 device_reset_s=20e-3,
                 degrade_threshold=0.15,
                 degrade_min_attempts=24,
                 checkpoint_before_call="auto",
                 transfer_deadline_s=2e-3,
                 kernel_deadline_s=1.0,
                 recovery_deadline_s=1.0,
                 readmit_after_s=60e-3,
                 rebalance_on_readmit=True):
        self.max_transfer_retries = max_transfer_retries
        self.max_launch_retries = max_launch_retries
        self.max_oom_retries = max_oom_retries
        self.max_device_recoveries = max_device_recoveries
        self.backoff_base_s = backoff_base_s
        self.backoff_factor = backoff_factor
        self.max_backoff_s = max_backoff_s
        self.device_reset_s = device_reset_s
        self.degrade_threshold = degrade_threshold
        self.degrade_min_attempts = degrade_min_attempts
        self.checkpoint_before_call = checkpoint_before_call
        self.transfer_deadline_s = transfer_deadline_s
        self.kernel_deadline_s = kernel_deadline_s
        self.recovery_deadline_s = recovery_deadline_s
        self.readmit_after_s = readmit_after_s
        self.rebalance_on_readmit = rebalance_on_readmit
        self.gmac = None
        #: Virtual-time deadline supervision; built at attach time on
        #: multi-device machines, None elsewhere (zero cost).
        self.watchdog = None
        #: device index -> virtual time at which it may be readmitted.
        self._lost = {}
        self._kernel_guard = None
        # Observed (not plan-side) fault pressure, driving degradation.
        self.transfer_attempts = 0
        self.transfer_faults = 0
        self.stats = {
            "transfer_retries": 0,
            "launch_retries": 0,
            "oom_retries": 0,
            "device_recoveries": 0,
            "failovers": 0,
            "readmissions": 0,
            "rebalances": 0,
            "blocks_rematerialized": 0,
            "blocks_salvaged": 0,
            "short_read_resumes": 0,
            "backoff_s": 0.0,
            "checkpoint_s": 0.0,
            "rematerialize_s": 0.0,
            "degradations": [],
            "watchdog_trips": [],
        }

    def attach(self, gmac):
        self.gmac = gmac
        if getattr(gmac.machine, "multi_device", False):
            self.watchdog = Watchdog(
                gmac.machine.clock,
                accounting=gmac.machine.accounting,
                on_trip=self.stats["watchdog_trips"].append,
            )
        return self

    # -- shared plumbing ------------------------------------------------------

    @property
    def _clock(self):
        return self.gmac.machine.clock

    def _internal(self):
        """Mark the start of recovery-internal data movement.

        Recovery fetches and flushes touch device bytes on GMAC's behalf;
        marking them internal keeps the kernel-window race detector from
        attributing that traffic to the application.  Returns the monitor
        token for :meth:`_internal_done` (None when no monitor is armed).
        """
        monitor = self.gmac.monitor
        if monitor is not None:
            monitor.enter_internal()
        return monitor

    @staticmethod
    def _internal_done(monitor):
        if monitor is not None:
            monitor.exit_internal()

    def _backoff(self, delay, label):
        """Exponential-backoff wait on the virtual clock, charged to Retry."""
        self._clock.advance(delay)
        self.gmac.accounting.charge(Category.RETRY, delay, label=label)
        self.stats["backoff_s"] += delay

    @property
    def observed_fault_rate(self):
        if self.transfer_attempts == 0:
            return 0.0
        return self.transfer_faults / self.transfer_attempts

    # -- transient transfer faults -------------------------------------------

    def retry_transfer(self, attempt, label="transfer", device=None):
        """Run one DMA thunk with bounded retry + exponential backoff.

        ``attempt`` performs a single transfer attempt (sync or async
        issue) and raises :class:`TransferError` on an injected fault.

        With the watchdog armed (multi-device machines), the escalation
        ladder applies: retry with backoff while the transfer deadline
        holds, then declare ``device`` lost — after salvaging its
        device-only bytes over the still-intact memory (the link wedged,
        not the die) so the host stays a complete checkpoint.  The raised
        :class:`DeviceLostError` reaches :meth:`run_call`, which fails the
        region set over onto survivors.
        """
        watchdog = self.watchdog
        guard = None
        if watchdog is not None:
            guard = watchdog.arm(
                "transfer", self.transfer_deadline_s, label=label
            )
        delay = self.backoff_base_s
        failures = 0
        while True:
            self.transfer_attempts += 1
            try:
                result = attempt()
            except TransferError as error:
                self.transfer_faults += 1
                failures += 1
                if guard is not None and watchdog.expired(guard):
                    raise self._declare_device_lost(
                        guard, device, error
                    ) from error
                if failures > self.max_transfer_retries:
                    if guard is not None:
                        watchdog.disarm(guard)
                    raise RecoveryExhausted(
                        f"{label}: still failing after {failures} attempts",
                        attempts=failures, last_error=error,
                        timestamp=self._clock.now, resource=error.resource,
                    ) from error
                self.stats["transfer_retries"] += 1
                self._backoff(delay, label=f"backoff:{label}")
                delay = min(delay * self.backoff_factor, self.max_backoff_s)
            else:
                if guard is not None:
                    watchdog.disarm(guard)
                return result

    def _declare_device_lost(self, guard, device, error):
        """Final rung of the transfer escalation ladder."""
        self.watchdog.trip(guard, "declare-device-lost")
        context = self.gmac.layer.context_for(device)
        self._salvage(context)
        context.alive = False
        return DeviceLostError(
            f"{context.gpu.spec.name} declared lost by watchdog "
            f"after a wedged transfer: {error}",
            timestamp=self._clock.now, resource=context.gpu.spec.name,
            device=context.device_index,
        )

    def _salvage(self, context):
        """Pull device-only bytes home before abandoning a wedged device.

        A watchdog-declared loss means the *path* to the device wedged;
        its memory is still intact, so INVALID blocks (kernel outputs the
        CPU never read) are fetched back first.  This keeps the ADSM
        invariant — the host is a complete checkpoint — true at the moment
        the device is marked dead, which is what makes the subsequent
        host-sourced re-materialisation byte-exact.
        """
        manager = self.gmac.manager
        device = context.device_index
        context.gpu.materialize()
        space = self.gmac.process.address_space
        for region in manager.regions():
            if region.owner != device:
                continue
            table = region.table
            for index in table.indices_in(BlockState.INVALID):
                host_start = table.start_of(index)
                size = table.end_of(index) - host_start
                device_start = region.device_start + (
                    host_start - region.host_start
                )
                # DMA ignores host page protections, like memcpy_d2h.
                # Routed through the ledger entry point (always eager —
                # salvage runs because the device is about to be declared
                # lost, so deferring against its memory would be useless).
                mapping = space.resolve(host_start, size)
                copy_d2h(
                    context.gpu.memory, device_start, mapping,
                    host_start, size, deferred=False,
                )
                context.link.transfer(
                    size, Direction.D2H, label="salvage"
                ).wait()
                self.stats["blocks_salvaged"] += 1

    # -- device OOM ----------------------------------------------------------

    def retry_alloc(self, attempt, protocol, label="cudaMalloc"):
        """Allocate with OOM relief: evict, shrink, back off, retry."""
        delay = self.backoff_base_s
        failures = 0
        while True:
            try:
                return attempt()
            except CudaOutOfMemoryError as error:
                failures += 1
                if failures > self.max_oom_retries:
                    raise RecoveryExhausted(
                        f"{label}: device OOM persisted after {failures} "
                        "attempts (eviction and rolling-size shrink did "
                        "not help)",
                        attempts=failures, last_error=error,
                        timestamp=self._clock.now, resource=error.resource,
                    ) from error
                self.stats["oom_retries"] += 1
                protocol.force_evict()
                self._backoff(delay, label="backoff:oom")
                delay = min(delay * self.backoff_factor, self.max_backoff_s)

    # -- kernel calls: launch faults and device loss ---------------------------

    def run_call(self, gmac, kernel, written, args):
        """Issue one adsmCall with full recovery around it.

        Retries transient launch rejections with backoff; on device loss,
        re-materialises all regions from host-canonical state and
        re-issues the whole release+launch sequence (the re-issued
        ``pre_call`` re-applies the protocol's invalidations).
        """
        self.maybe_readmit()
        self.maybe_degrade()
        if self._should_checkpoint():
            self.checkpoint()
        delay = self.backoff_base_s
        launch_failures = 0
        while True:
            try:
                completion = gmac._issue_call(kernel, written, args)
            except DeviceLostError as error:
                self._recover_device_losses(error)
            except LaunchError as error:
                launch_failures += 1
                if launch_failures > self.max_launch_retries:
                    raise RecoveryExhausted(
                        f"launch of {kernel.name!r}: still rejected after "
                        f"{launch_failures} attempts",
                        attempts=launch_failures, last_error=error,
                        timestamp=self._clock.now, resource=error.resource,
                    ) from error
                self.stats["launch_retries"] += 1
                self._backoff(delay, label="backoff:launch")
                delay = min(delay * self.backoff_factor, self.max_backoff_s)
            else:
                if self.watchdog is not None:
                    self._kernel_guard = self.watchdog.arm(
                        "kernel-window", self.kernel_deadline_s,
                        label=kernel.name,
                    )
                return completion

    def note_sync(self):
        """adsmSync reached: close the kernel-window deadline.

        The kernel-window guard is observational — a kernel that outlives
        its budget has already produced (deferred) results by the time the
        sync observes it, so the trip is recorded for the chaos report
        rather than escalated.
        """
        guard = self._kernel_guard
        if guard is None or self.watchdog is None:
            return
        self._kernel_guard = None
        if self.watchdog.expired(guard):
            self.watchdog.trip(guard, "observe")
        else:
            self.watchdog.disarm(guard)

    # -- device loss: failover, readmission, rebalance --------------------------

    def maybe_readmit(self):
        """Readmit flapped devices whose quarantine has elapsed.

        Checked at call boundaries (the same safe point as degradation).
        A readmitted device comes back empty and is immediately eligible
        for placement again; when ``rebalance_on_readmit`` is set, one
        region migrates onto it right away so a recovered device starts
        absorbing load without waiting for new allocations.
        """
        if not self._lost:
            return
        now = self._clock.now
        due = sorted(
            device for device, at in self._lost.items() if now >= at
        )
        for device in due:
            del self._lost[device]
            context = self.gmac.layer.context_for(device)
            context.revive()
            self._backoff(self.device_reset_s, label="readmit")
            if self.gmac.placement is not None:
                self.gmac.placement.mark_alive(device)
            self.stats["readmissions"] += 1
            if self.rebalance_on_readmit:
                self._rebalance_onto(device)

    def _rebalance_onto(self, device):
        """Migrate one region from the most-loaded survivor to ``device``."""
        manager = self.gmac.manager
        loads = {}
        for region in manager.regions():
            loads.setdefault(region.owner, []).append(region)
        donors = sorted(
            (owner for owner, regions in loads.items()
             if owner != device and len(regions) > 1),
            key=lambda owner: (-len(loads[owner]), owner),
        )
        if not donors:
            return
        donor = donors[0]
        region = min(loads[donor], key=lambda candidate: candidate.name)
        monitor = self._internal()
        try:
            manager.migrate_region(region, device, reason="rebalance")
        finally:
            self._internal_done(monitor)
        self.stats["rebalances"] += 1

    def _should_checkpoint(self):
        """Whether to pay the checkpoint premium before this call.

        ``checkpoint_before_call`` is a policy knob: ``True`` insures every
        call, ``False`` none.  The default ``"auto"`` checkpoints only
        while the installed plan declares a device-loss hazard that has
        not fired yet — the simulation's stand-in for a deployment flag
        saying "this accelerator is known to fall off the bus" — so purely
        transient fault plans do not pay per-call fetches they never need.
        """
        if self.checkpoint_before_call != "auto":
            return bool(self.checkpoint_before_call)
        plan = self.gmac.machine.faults
        if plan is None:
            return False
        scheduled = plan.scheduled_device_losses
        return scheduled > 0 and plan.device_losses < scheduled

    def checkpoint(self):
        """Make every block host-canonical at the call boundary.

        Fetches INVALID blocks (outputs of earlier kernels not yet read by
        the CPU) so that, should the device die during the upcoming
        release/launch window, nothing exists only in accelerator memory.
        The cost is part of the reported recovery overhead.
        """
        manager = self.gmac.manager
        start = self._clock.now
        monitor = self._internal()
        try:
            for region in manager.regions():
                manager.ensure_host_canonical(region, region.interval)
        finally:
            self._internal_done(monitor)
        self.stats["checkpoint_s"] += self._clock.now - start

    def _recover_device_losses(self, error):
        """Recover from ``error``, and from every loss during recovery.

        Recovery flushes the host checkpoint onto survivors, and those
        transfers run under the same escalation ladder: a survivor whose
        link wedges is declared lost mid-recovery.  That loss is the next
        rung, not a new failure mode, so it recovers the same way until
        ``max_device_recoveries`` gives up.
        """
        while True:
            try:
                return self.recover_device_loss(error)
            except DeviceLostError as next_error:
                error = next_error

    def recover_device_loss(self, error):
        """Re-materialise the accelerator after a device-lost event.

        Valid precisely because the CPU side holds all coherence state in
        ADSM — the paper's asymmetry is what makes the host a complete
        checkpoint.  Two strategies:

        * **failover** (multi-device machines with a placement policy):
          the lost device's regions re-home onto survivors chosen by the
          policy and the system continues degraded; the device becomes
          eligible for readmission after a quarantine;
        * **revive in place** (single-device machines, or when no survivor
          exists): the context is revived (device reset) and every
          region's allocation is replayed at its old device address.

        Either way, all blocks then flush from the host-canonical copies.
        """
        if self.stats["device_recoveries"] >= self.max_device_recoveries:
            raise RecoveryExhausted(
                f"device lost {self.stats['device_recoveries'] + 1} times; "
                "giving up",
                attempts=self.stats["device_recoveries"] + 1,
                last_error=error, timestamp=self._clock.now,
                resource=error.resource,
            ) from error
        self.stats["device_recoveries"] += 1
        device = getattr(error, "device", None)
        placement = self.gmac.placement
        if placement is not None and device is not None:
            placement.mark_dead(device)
            if placement.alive_devices():
                return self._failover(device, error)
            # Sole device (or last survivor) lost: nothing to fail over
            # onto, so reset it in place like the single-device path.
            placement.mark_alive(device)
        return self._revive_in_place(error)

    def _failover(self, device, error):
        """Re-home the lost device's regions onto survivors."""
        gmac = self.gmac
        manager = gmac.manager
        placement = gmac.placement
        self.stats["failovers"] += 1
        guard = None
        if self.watchdog is not None:
            guard = self.watchdog.arm(
                "recovery", self.recovery_deadline_s,
                label=f"failover:{device}",
            )
        start = self._clock.now
        monitor = self._internal()
        try:
            gmac.layer.materialize_numerics()
            self._backoff(self.device_reset_s, label="failover")
            regions = sorted(manager.regions(), key=lambda r: r.device_start)
            manager.note_coherence("protocol", detail="device-recovery")
            for region in regions:
                if region.owner != device:
                    continue
                target = placement.pick_survivor(device, region.size)
                new_start = self.retry_alloc(
                    lambda: gmac.layer.alloc(region.size, owner=target),
                    gmac.protocol,
                )
                region.rehome(new_start, target)
            # Everything re-materialises from the host checkpoint — also
            # the survivors' regions, matching the device-recovery fiat
            # the model checker applies to the whole address space.
            for region in regions:
                for block in region.blocks:
                    manager.flush_to_device(block, sync=True)
                    self.stats["blocks_rematerialized"] += 1
            gmac.protocol.after_device_recovery(regions)
        finally:
            self._internal_done(monitor)
            # Also when a survivor is lost mid-flush: ``device`` stays
            # dead to placement either way, so its quarantine starts.
            self.stats["rematerialize_s"] += self._clock.now - start
            self._lost[device] = self._clock.now + self.readmit_after_s
        if guard is not None:
            if self.watchdog.expired(guard):
                self.watchdog.trip(guard, "abort-recovery")
                raise RecoveryExhausted(
                    f"failover of device {device} blew its "
                    f"{self.recovery_deadline_s:g}s recovery deadline",
                    attempts=self.stats["device_recoveries"],
                    last_error=error, timestamp=self._clock.now,
                    resource=error.resource,
                ) from error
            self.watchdog.disarm(guard)

    def _revive_in_place(self, error):
        """Reset the lost device and replay its allocations in place."""
        gmac = self.gmac
        manager = gmac.manager
        start = self._clock.now
        # Pin down device bytes first: numerics launched before the loss
        # replay against the dying memory image (in the eager engine they
        # had already run), so recovery is engine-mode independent.
        # ``Gpu.reset`` would do this implicitly; being explicit keeps the
        # recovery sequence readable.
        monitor = self._internal()
        try:
            gmac.layer.materialize_numerics()
            driver = gmac.layer.context_for(getattr(error, "device", None))
            driver.revive()
            self._backoff(self.device_reset_s, label="device-reset")
            regions = sorted(manager.regions(), key=lambda r: r.device_start)
            manager.note_coherence("protocol", detail="device-recovery")
            for region in regions:
                driver.restore_allocation(region.device_start, region.size)
                for block in region.blocks:
                    manager.flush_to_device(block, sync=True)
                    self.stats["blocks_rematerialized"] += 1
            gmac.protocol.after_device_recovery(regions)
        finally:
            self._internal_done(monitor)
        self.stats["rematerialize_s"] += self._clock.now - start

    # -- degradation -----------------------------------------------------------

    #: rolling -> lazy -> batch; each step trades performance for fewer,
    #: simpler (synchronous, whole-object) transfers under fault pressure.
    DEGRADATION_ORDER = ("rolling", "lazy", "batch")

    def maybe_degrade(self, at_rate=None):
        """Downgrade the protocol when the observed fault rate is too high.

        Called at call boundaries (a safe point: no fault handler or
        transfer is mid-flight).  After a switch the observation window
        resets, so each protocol stage is judged on its own traffic.
        """
        if self.transfer_attempts < self.degrade_min_attempts:
            return None
        rate = self.observed_fault_rate if at_rate is None else at_rate
        if rate <= self.degrade_threshold:
            return None
        current = self.gmac.protocol.name
        try:
            position = self.DEGRADATION_ORDER.index(current)
        except ValueError:
            return None
        if position + 1 >= len(self.DEGRADATION_ORDER):
            return None
        target = self.DEGRADATION_ORDER[position + 1]
        self._switch_protocol(current, target, rate)
        self.transfer_attempts = 0
        self.transfer_faults = 0
        return target

    def _switch_protocol(self, current, target, rate):
        from repro.core.protocols import PROTOCOLS
        from repro.core.blocks import BlockState

        gmac = self.gmac
        manager = gmac.manager
        replacement = PROTOCOLS[target](manager)
        monitor = self._internal()
        try:
            if target == "batch":
                # Batch-update runs without protections and treats host copies
                # as always-canonical, so the host must be made whole first.
                for region in manager.regions():
                    manager.ensure_host_canonical(region, region.interval)
                    manager.set_region_blocks(region, BlockState.DIRTY)
        finally:
            self._internal_done(monitor)
        gmac.protocol = replacement
        manager.protocol = replacement
        manager.note_coherence("protocol", detail=target)
        self.stats["degradations"].append(
            {"at": self._clock.now, "from": current, "to": target,
             "observed_rate": round(rate, 4)}
        )

    # -- I/O -------------------------------------------------------------------

    def note_short_read_resume(self):
        self.stats["short_read_resumes"] += 1
