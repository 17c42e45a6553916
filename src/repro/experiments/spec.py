"""The run-spec model: one simulation run as a hashable value.

Every experiment in the registry is a projection of independent simulation
runs — (workload, parameters, mode, protocol, layer, options, machine,
fault plan).  :class:`RunSpec` captures one such run as a frozen, picklable
value with a canonical key, which is what makes the executor possible:

* **fan-out** — specs cross process boundaries to worker pools untouched;
* **dedup** — figures sharing a configuration (fig7/fig8 protocols,
  fig10/chaos baselines) share the single run for it;
* **caching** — the canonical key plus a source fingerprint addresses a
  persistent on-disk result cache (:mod:`repro.experiments.cache`).

Executing a spec yields a :class:`SpecOutcome`: the picklable summary of a
:class:`~repro.workloads.base.WorkloadResult`, carrying everything any
experiment table reads (timings, break-down, byte counters, phases,
recovery statistics) but none of the live simulator objects.
"""

import copy
import gc
import json
import weakref
from dataclasses import dataclass, field, asdict

from repro.util.errors import RecoveryExhausted
from repro.workloads.parboil import PARBOIL
from repro.workloads.vecadd import VectorAdd
from repro.workloads.stencil3d import Stencil3D

#: Workload name -> constructor.  Parboil names plus the micro-benchmarks
#: the figure sweeps use; params in a spec are constructor kwargs.
WORKLOAD_FACTORIES = dict(PARBOIL)
WORKLOAD_FACTORIES["vecadd"] = VectorAdd
WORKLOAD_FACTORIES["stencil3d"] = Stencil3D


def _link_presets():
    """Named per-device link specs usable in a spec's ``link_specs``."""
    from repro.hw.specs import HYPERTRANSPORT, PCIE_2_0_X16, QPI

    return {
        "pcie2x16": PCIE_2_0_X16,
        "hypertransport": HYPERTRANSPORT,
        "qpi": QPI,
    }


def _as_items(mapping):
    """Normalize an options dict to a sorted, hashable tuple of pairs."""
    if not mapping:
        return ()
    return tuple(sorted(mapping.items()))


@dataclass(frozen=True)
class RunSpec:
    """One independent simulation run, as a value."""

    workload: str
    params: tuple = ()            # constructor kwargs, sorted pairs
    mode: str = "gmac"            # "cuda", "cuda-db" or "gmac"
    protocol: str = "rolling"     # "-" for non-gmac modes
    layer: str = "runtime"        # gmac abstraction layer
    protocol_options: tuple = ()  # sorted pairs
    peer_dma: bool = False
    machine: str = "reference"    # "reference" or "integrated"
    fault_plan: tuple = None      # FaultPlan kwargs (sorted pairs) or None
    recovery: tuple = None        # RecoveryPolicy kwargs, with fault_plan only
    devices: int = 1              # accelerator count (multi-device when > 1)
    link_specs: tuple = ()        # per-device link preset names, or ()
    placement: str = "-"          # placement policy name; "-" when devices=1
    #: The kernel-numerics backend, now always numpy.  It stays a field
    #: only because ``SpecOutcome.canonical_bytes()`` serializes it and
    #: every pinned digest hashes that form; removing it waits for a
    #: deliberate re-pin.  ``key()`` leaves it out.
    backend: str = field(default="numpy", init=False)

    @classmethod
    def make(cls, workload, params=None, mode="gmac", protocol="rolling",
             layer="runtime", protocol_options=None, peer_dma=False,
             machine="reference", fault_plan=None, recovery=None,
             devices=1, link_specs=None, placement=None):
        """Build a normalized spec.

        Non-gmac modes ignore every GMAC knob, so those collapse to
        sentinels — a cuda run requested "with" any protocol is the same
        run, and hashes (and caches) identically.  The same applies to the
        topology knobs: link specs and placement only exist on multi-device
        machines, so with ``devices=1`` they collapse too.
        """
        if workload not in WORKLOAD_FACTORIES:
            raise KeyError(f"unknown workload {workload!r}")
        if mode != "gmac":
            protocol = "-"
            layer = "-"
            protocol_options = None
            peer_dma = False
            devices = 1
        devices = int(devices)
        if devices < 1:
            raise ValueError(f"devices must be >= 1, got {devices}")
        if devices == 1:
            link_specs = None
            placement = "-"
        else:
            if machine == "integrated":
                raise ValueError(
                    "multi-device runs need discrete accelerators; "
                    "machine='integrated' only models one"
                )
            if placement is None:
                placement = "round-robin"
            link_specs = tuple(link_specs or ())
            presets = _link_presets()
            for name in link_specs:
                if name not in presets:
                    raise KeyError(
                        f"unknown link preset {name!r}; "
                        f"pick from {sorted(presets)}"
                    )
            if link_specs and len(link_specs) != devices:
                raise ValueError(
                    f"link_specs names {len(link_specs)} links for "
                    f"{devices} devices"
                )
        if fault_plan is None:
            recovery = None
        return cls(
            workload=workload,
            params=_as_items(params),
            mode=mode,
            protocol=protocol,
            layer=layer,
            protocol_options=_as_items(protocol_options),
            peer_dma=bool(peer_dma),
            machine=machine,
            fault_plan=_as_items(fault_plan) if fault_plan is not None else None,
            recovery=_as_items(recovery) if recovery is not None else None,
            devices=devices,
            link_specs=tuple(link_specs or ()),
            placement=placement,
        )

    def key(self):
        """Canonical JSON key (stable across processes and sessions).

        Computed once per spec: the fields are frozen, and the executor
        and the result cache ask for the key several times per run.
        """
        key = self.__dict__.get("_key")
        if key is None:
            fields = asdict(self)
            del fields["backend"]
            key = json.dumps(fields, sort_keys=True, default=str)
            self.__dict__["_key"] = key
        return key

    def cost_hint(self):
        """Spec-declared relative execution cost, for dispatch ordering.

        Used by the executor's cost-aware scheduler only when no recorded
        timing exists for this spec (a cold timings file).  Numeric
        constructor parameters are input sizes — the dominant host-cost
        driver — so their sum ranks configurations well enough to put the
        long runs first; device count multiplies (each device adds links,
        heaps and placement work).  Never part of the key or the outcome:
        a wrong hint can only misorder the dispatch queue.
        """
        total = 1.0
        for _, value in self.params:
            if isinstance(value, bool):
                continue
            if isinstance(value, (int, float)):
                total += abs(float(value))
        return total * self.devices

    def _build_machine(self):
        from repro.hw.machine import (
            integrated_system, multi_device_system, reference_system,
        )

        if self.devices > 1:
            presets = _link_presets()
            link_specs = (
                [presets[name] for name in self.link_specs]
                if self.link_specs else None
            )
            return multi_device_system(
                devices=self.devices, link_specs=link_specs
            )
        if self.machine == "reference":
            return reference_system()
        if self.machine == "integrated":
            return integrated_system()
        raise KeyError(f"unknown machine kind {self.machine!r}")

    def execute(self):
        """Run this spec on a fresh machine; returns a :class:`SpecOutcome`.

        The run's machine is freed by the time this returns.  Its object
        graph is cyclic (signal handlers, observer hooks, protocol and
        recovery back-pointers), so only a collection frees it, and one
        that finds it still reachable promotes it to the old generation.
        The run therefore happens in :meth:`_run`, whose frame has ended
        before the young collection here.  A full collection, which walks
        every memo cache, follows only when the machine survived the young
        one (an automatic collection promoted part of it mid-run).

        A recovery that gives up raises its
        :class:`~repro.util.errors.RecoveryExhausted` detached, as a pool
        worker hands it back, so the error pins nothing of the run.
        """
        outcome, machine = self._run()
        gc.collect(1)
        if machine() is not None:
            gc.collect()
        if isinstance(outcome, RecoveryExhausted):
            raise outcome
        return outcome

    def _run(self):
        """``(outcome, weak reference to the machine)`` of one run.

        The outcome of a recovery that gave up is its detached error.
        """
        machine = self._build_machine()
        plan = None
        if self.fault_plan is not None:
            from repro.faults import FaultPlan

            plan = machine.install_faults(FaultPlan(**dict(self.fault_plan)))
        workload = WORKLOAD_FACTORIES[self.workload](**dict(self.params))
        gmac_options = None
        if self.mode == "gmac":
            gmac_options = {"layer": self.layer}
            if self.protocol_options:
                gmac_options["protocol_options"] = dict(self.protocol_options)
            if self.peer_dma:
                gmac_options["peer_dma"] = True
            if self.devices > 1:
                gmac_options["placement"] = self.placement
            if plan is not None:
                from repro.core.recovery import RecoveryPolicy

                gmac_options["recovery"] = RecoveryPolicy(
                    **dict(self.recovery or ())
                )
        try:
            result = workload.execute(
                mode=self.mode,
                protocol=self.protocol,
                machine=machine,
                gmac_options=gmac_options,
            )
        except RecoveryExhausted as error:
            return error.detached(), weakref.ref(machine)
        gmac = result.extra.get("gmac")
        recovery_stats = {}
        if gmac is not None and gmac.recovery is not None:
            recovery_stats = copy.deepcopy(gmac.recovery.stats)
        outcome = SpecOutcome(
            spec=self,
            workload=result.workload,
            mode=result.mode,
            protocol=result.protocol,
            elapsed=result.elapsed,
            breakdown=dict(result.breakdown),
            bytes_to_accelerator=result.bytes_to_accelerator,
            bytes_to_host=result.bytes_to_host,
            faults=result.faults,
            signals=result.signals,
            verified=result.verified,
            phases=dict(getattr(workload, "phases", None) or {}) or None,
            recovery_stats=recovery_stats,
            injected_faults=plan.injected_total if plan is not None else 0,
            link_bytes_moved=self._aggregate_link_bytes(machine),
            peer_bytes=(
                gmac.manager.peer_bytes if gmac is not None else 0
            ),
        )
        return outcome, weakref.ref(machine)

    @staticmethod
    def _aggregate_link_bytes(machine):
        """Per-direction byte totals summed over every device link."""
        moved = {}
        for link in machine.links:
            for direction, count in link.bytes_moved.items():
                key = str(direction)
                moved[key] = moved.get(key, 0) + count
        return moved


@dataclass
class SpecOutcome:
    """The picklable summary of one executed :class:`RunSpec`.

    Mirrors the fields experiments read off a
    :class:`~repro.workloads.base.WorkloadResult`, plus the derived values
    (workload phases, recovery statistics, injected-fault and link-byte
    counts) that previously required reaching into live ``extra`` objects.
    """

    spec: RunSpec
    workload: str
    mode: str
    protocol: str
    elapsed: float
    breakdown: dict
    bytes_to_accelerator: int
    bytes_to_host: int
    faults: int
    signals: int
    verified: bool
    phases: dict = None
    recovery_stats: dict = field(default_factory=dict)
    injected_faults: int = 0
    link_bytes_moved: dict = field(default_factory=dict)
    peer_bytes: int = 0

    def canonical_bytes(self):
        """Deterministic serialization for byte-identity comparisons.

        Raw ``pickle.dumps`` of two semantically equal outcomes can differ
        when their object graphs share strings differently (a spec that
        crossed a process boundary no longer shares interned strings with
        its outcome), so byte-identity is defined over this canonical
        form: JSON with sorted keys, which encodes values only — floats
        via shortest round-trip repr, so equality here is exact equality
        of every number.
        """
        return json.dumps(
            asdict(self), sort_keys=True, default=repr,
            separators=(",", ":"),
        ).encode()
