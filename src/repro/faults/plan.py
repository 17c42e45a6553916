"""Seeded, deterministic fault-injection plans.

A :class:`FaultPlan` is consulted by the hardware, CUDA-driver and OS
layers at their injection points (:data:`SITES`).  Every decision comes
from a per-site ``random.Random`` stream seeded from ``(seed, site)``, so

* a given plan replays identically on every run (the simulator itself is
  deterministic, so the sequence of consultations is too), and
* decisions at one site never perturb another site's stream.

The plan only *decides*; the layers raise the typed errors
(:class:`~repro.util.errors.TransferError`,
:class:`~repro.util.errors.LaunchError`, ...) and the recovery machinery
in :mod:`repro.core.recovery` reacts.  With a default ``FaultPlan()`` (or
no plan installed at all) every injection point is a zero-cost no-op: not
even the RNG streams are advanced, so fault-free runs are byte-identical
to a build without the hooks.

Transfer faults fire at *charge* time: the driver consults the plan
before any bytes — or, under the transfer ledger (DESIGN.md §14), any
deferred-extent metadata — change, so a faulted DMA looks identical in
both engines and the per-site streams stay in lockstep between them
(the fault-storm parity suite pins this).

Device-lost events are injected at the *kernel-launch* site only.  That
window — after GMAC has released (flushed) shared objects, before the
kernel has produced anything the host has not seen — is exactly where the
host-resident coherence state of ADSM is a complete checkpoint, so
recovery by re-materialisation is sound.  Losing the device while results
exist only in accelerator memory would require kernel re-execution logs,
which is out of scope.
"""

import random

#: Injection-point identifiers, also the keys of the per-plan counters.
SITE_TRANSFER_H2D = "transfer.h2d"
SITE_TRANSFER_D2H = "transfer.d2h"
SITE_MALLOC = "cuda.malloc"
SITE_LAUNCH = "cuda.launch"
SITE_DISK_READ = "disk.read"

SITES = (
    SITE_TRANSFER_H2D,
    SITE_TRANSFER_D2H,
    SITE_MALLOC,
    SITE_LAUNCH,
    SITE_DISK_READ,
)

#: Outcomes returned by the decision methods.
TRANSIENT = "transient"
DEVICE_LOST = "device-lost"


class FaultPlan:
    """A deterministic schedule of faults for one simulated run.

    Rates are per-attempt probabilities in ``[0, 1]``; scheduled events
    use 1-based attempt indices (``device_lost_at_launch=1`` kills the
    device at the first launch).  ``attempts`` and ``injected`` count, per
    site, how often the plan was consulted and how often it injected —
    tests reconcile these against the recovery layer's retry counters.
    """

    def __init__(self, seed=0, transfer_fault_rate=0.0,
                 launch_fault_rate=0.0, malloc_fault_rate=0.0,
                 short_read_rate=0.0, oom_at_mallocs=(),
                 device_lost_at_launch=None,
                 device_lost_at_launches=(),
                 transfer_burst=None):
        for name, rate in (("transfer_fault_rate", transfer_fault_rate),
                           ("launch_fault_rate", launch_fault_rate),
                           ("malloc_fault_rate", malloc_fault_rate),
                           ("short_read_rate", short_read_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        self.seed = seed
        self.transfer_fault_rate = transfer_fault_rate
        self.launch_fault_rate = launch_fault_rate
        self.malloc_fault_rate = malloc_fault_rate
        self.short_read_rate = short_read_rate
        self.oom_at_mallocs = frozenset(oom_at_mallocs)
        if any(index < 1 for index in self.oom_at_mallocs):
            raise ValueError(
                "oom_at_mallocs uses 1-based attempt indices, got "
                f"{sorted(self.oom_at_mallocs)}"
            )
        if device_lost_at_launch is not None and device_lost_at_launch < 1:
            raise ValueError(
                "device_lost_at_launch uses 1-based attempt indices, got "
                f"{device_lost_at_launch}"
            )
        self.device_lost_at_launch = device_lost_at_launch
        # The single-loss and multi-loss (flapping) schedules merge into
        # one frozenset of 1-based launch-attempt indices.
        losses = set(device_lost_at_launches)
        if device_lost_at_launch is not None:
            losses.add(device_lost_at_launch)
        if any(index < 1 for index in losses):
            raise ValueError(
                "device_lost_at_launches uses 1-based attempt indices, got "
                f"{sorted(losses)}"
            )
        self.device_lost_at_launches = frozenset(losses)
        if transfer_burst is not None:
            start, length = transfer_burst
            if start < 1 or length < 1:
                raise ValueError(
                    "transfer_burst is (1-based start attempt, length >= 1), "
                    f"got {transfer_burst!r}"
                )
            transfer_burst = (int(start), int(length))
        #: Correlated burst: every transfer attempt (H2D and D2H pooled, in
        #: consultation order) inside the window faults — the "cable went
        #: bad for a while" failure mode that independent per-attempt rates
        #: cannot express.
        self.transfer_burst = transfer_burst
        self._rngs = {site: random.Random(f"{seed}/{site}") for site in SITES}
        self.attempts = {site: 0 for site in SITES}
        self.injected = {site: 0 for site in SITES}
        #: Transfer attempts pooled over both directions, driving the
        #: burst window.
        self.transfer_attempt_total = 0
        self.device_losses = 0

    @property
    def enabled(self):
        """False when no fault can ever fire; layers then skip all hooks."""
        return bool(
            self.transfer_fault_rate or self.launch_fault_rate
            or self.malloc_fault_rate or self.short_read_rate
            or self.oom_at_mallocs or self.device_lost_at_launches
            or self.transfer_burst is not None
        )

    @property
    def scheduled_device_losses(self):
        """How many device-lost events this plan will inject in total."""
        return len(self.device_lost_at_launches)

    # -- decisions ----------------------------------------------------------

    def transfer_fault(self, d2h=False):
        """Outcome for one DMA attempt: None, or :data:`TRANSIENT`."""
        site = SITE_TRANSFER_D2H if d2h else SITE_TRANSFER_H2D
        self.attempts[site] += 1
        self.transfer_attempt_total += 1
        if self.transfer_burst is not None:
            start, length = self.transfer_burst
            # The window check precedes the rate draw and does not advance
            # the per-site RNG: the burst is a deterministic overlay and
            # the streams around it stay exactly where a burst-free plan
            # would have them.
            if start <= self.transfer_attempt_total < start + length:
                self.injected[site] += 1
                return TRANSIENT
        if self._rngs[site].random() < self.transfer_fault_rate:
            self.injected[site] += 1
            return TRANSIENT
        return None

    def malloc_fault(self):
        """Whether this cudaMalloc attempt fails with a (transient) OOM."""
        self.attempts[SITE_MALLOC] += 1
        if self.attempts[SITE_MALLOC] in self.oom_at_mallocs or (
            self._rngs[SITE_MALLOC].random() < self.malloc_fault_rate
        ):
            self.injected[SITE_MALLOC] += 1
            return True
        return False

    def launch_fault(self):
        """Outcome for one launch: None, :data:`TRANSIENT`, or
        :data:`DEVICE_LOST` (scheduled; flapping plans list several
        launch-attempt indices and fire once at each)."""
        self.attempts[SITE_LAUNCH] += 1
        if self.attempts[SITE_LAUNCH] in self.device_lost_at_launches:
            self.injected[SITE_LAUNCH] += 1
            self.device_losses += 1
            return DEVICE_LOST
        if self._rngs[SITE_LAUNCH].random() < self.launch_fault_rate:
            self.injected[SITE_LAUNCH] += 1
            return TRANSIENT
        return None

    def short_read(self, size):
        """Bytes the disk actually delivers for a ``size``-byte read.

        POSIX permits short reads; an injected one delivers a uniformly
        chosen strict prefix (at least one byte, so callers always make
        progress and the retried remainder terminates).
        """
        self.attempts[SITE_DISK_READ] += 1
        rng = self._rngs[SITE_DISK_READ]
        if size > 1 and rng.random() < self.short_read_rate:
            self.injected[SITE_DISK_READ] += 1
            return rng.randrange(1, size)
        return size

    # -- reporting ----------------------------------------------------------

    @property
    def injected_total(self):
        return sum(self.injected.values())

    def __repr__(self):
        parts = [f"seed={self.seed}"]
        if self.transfer_fault_rate:
            parts.append(f"transfer={self.transfer_fault_rate}")
        if self.launch_fault_rate:
            parts.append(f"launch={self.launch_fault_rate}")
        if self.malloc_fault_rate:
            parts.append(f"malloc={self.malloc_fault_rate}")
        if self.short_read_rate:
            parts.append(f"short_read={self.short_read_rate}")
        if self.oom_at_mallocs:
            parts.append(f"oom_at={sorted(self.oom_at_mallocs)}")
        if len(self.device_lost_at_launches) == 1:
            only = next(iter(self.device_lost_at_launches))
            parts.append(f"device_lost_at_launch={only}")
        elif self.device_lost_at_launches:
            parts.append(
                f"device_lost_at_launches={sorted(self.device_lost_at_launches)}"
            )
        if self.transfer_burst is not None:
            parts.append(f"burst={self.transfer_burst}")
        return f"FaultPlan({', '.join(parts)})"
