"""Failover — surviving accelerator loss on a multi-device machine.

The chaos experiment shows ADSM surviving faults on *one* accelerator by
reviving it in place.  This experiment runs the stronger consequence of
the paper's asymmetry: with every coherence decision host-resident, the
host checkpoint is device-agnostic, so a lost accelerator's objects can
re-materialise byte-identically on a *different* device and the program
simply continues degraded.  Scenarios per workload (all on a
:data:`DEFAULT_DEVICES`-device machine):

* ``baseline``    — fault-free multi-device run: placement spreads the
  objects round-robin and the first kernel consolidates them onto its
  execution device over peer DMA;
* ``device-lost`` — the execution device dies at the first launch; its
  regions fail over onto survivors chosen by the placement policy;
* ``burst-wedge`` — a correlated transfer-fault burst wedges the link;
  the watchdog's transfer deadline expires mid-retry, the device is
  declared lost (after salvaging its device-only bytes), and the region
  set re-routes through host-canonical state;
* ``flapping``    — the execution device dies twice; after a quarantine
  the flapped devices are readmitted and the rebalancer migrates load
  back onto them.

A fifth scenario, ``exhausted``, schedules more losses than
``max_device_recoveries`` allows and demonstrates the typed
:class:`~repro.util.errors.RecoveryExhausted` surfacing as a ``gave-up``
row instead of a crash.  It runs inline (never through the worker pool,
whose prime path propagates exceptions) and is deliberately absent from
:func:`specs`.

A final section scales the fault-free baseline over 1/2/4 devices; the
single-device row is byte-identical to the classic machine, and the
bench-hotpath ``failover_overhead`` gate bounds the multi-device tax.
"""

from repro.experiments.common import params_for, run_spec
from repro.experiments.spec import RunSpec
from repro.experiments.result import ExperimentResult
from repro.util.errors import RecoveryExhausted

EXPERIMENT_ID = "failover"
TITLE = "Multi-device failover: peer ownership, watchdog, re-homing"
PAPER_CLAIM = (
    "because the coherence state lives on the host, the checkpoint it "
    "forms is device-agnostic: objects owned by a lost accelerator "
    "re-materialise byte-identically on a survivor and execution "
    "continues degraded"
)

#: Devices on the machine when ``--devices`` is not given.
DEFAULT_DEVICES = 3

#: (scenario, protocol, FaultPlan kwargs, RecoveryPolicy kwargs or None).
#: burst-wedge uses the lazy protocol so its first (wedged) transfer is
#: the release flush inside the call window, where the escalation ladder's
#: DeviceLostError is caught and failed over; its 4 ms transfer deadline
#: expires during the exponential backoff well before the 8-retry budget,
#: so the watchdog — not retry exhaustion — ends the wedge.  That
#: calibration holds at quick scale (1 MiB objects), where the burst's
#: leftover faults retry cleanly during the failover.  At full scale each
#: 8 MiB attempt takes milliseconds, so the failover's own flushes outlast
#: the deadline too: each survivor is declared lost in turn, and recovery
#: takes the next rung of the same ladder (on 3 devices two failovers,
#: then the last device revives in place; 3 trips).
SCENARIOS = (
    ("baseline", "rolling", None, None),
    ("device-lost", "rolling", dict(device_lost_at_launch=1), None),
    ("burst-wedge", "lazy", dict(transfer_burst=(1, 10)),
     dict(transfer_deadline_s=4e-3)),
    ("flapping", "rolling", dict(device_lost_at_launches=(1, 3)),
     dict(readmit_after_s=5e-3)),
)

#: The inline-only exhaustion scenario (see module docstring).
EXHAUSTED = (
    "exhausted", "rolling",
    dict(device_lost_at_launches=(1, 2, 3)),
    dict(max_device_recoveries=2),
)

#: Device counts for the fault-free scaling section.
SCALING_DEVICES = (1, 2, 4)


def _workload_params(quick):
    """(name, constructor params) for the swept workloads."""
    yield "vecadd", dict(elements=256 * 1024 if quick else 2 * 1024 * 1024)
    # pns makes many kernel calls, giving the flapping scenario call
    # boundaries at which quarantined devices readmit and rebalance.
    yield "pns", params_for("pns", quick=quick)


def _spec(name, params, protocol, plan_kwargs, recovery_kwargs, devices):
    fault_plan = None
    if plan_kwargs is not None:
        fault_plan = dict(seed=17, **plan_kwargs)
    return RunSpec.make(
        workload=name,
        params=params,
        protocol=protocol,
        layer="driver",
        fault_plan=fault_plan,
        recovery=recovery_kwargs,
        devices=devices,
        placement="round-robin" if devices > 1 else None,
    )


def specs(quick=False, devices=DEFAULT_DEVICES):
    """Every poolable (workload, scenario) spec, in table order."""
    built = [
        _spec(name, params, protocol, plan_kwargs, recovery_kwargs, devices)
        for name, params in _workload_params(quick)
        for _, protocol, plan_kwargs, recovery_kwargs in SCENARIOS
    ]
    built.extend(
        _spec("vecadd",
              dict(elements=256 * 1024 if quick else 2 * 1024 * 1024),
              "rolling", None, None, n)
        for n in SCALING_DEVICES
    )
    return built


def _scenario_row(name, scenario, devices, result, baseline_elapsed):
    stats = result.recovery_stats
    overhead = (result.elapsed - baseline_elapsed) / baseline_elapsed
    return [
        name,
        scenario,
        devices,
        "yes" if result.verified else "NO",
        round(result.elapsed * 1e3, 2),
        result.injected_faults,
        stats.get("failovers", 0),
        stats.get("readmissions", 0),
        stats.get("rebalances", 0),
        stats.get("blocks_salvaged", 0),
        len(stats.get("watchdog_trips", ())),
        result.peer_bytes // 1024,
        f"{overhead:+.1%}",
    ]


def run(quick=False, devices=None):
    devices = DEFAULT_DEVICES if devices is None else int(devices)
    rows = []
    all_verified = True
    gave_up = None
    for name, params in _workload_params(quick):
        baseline_elapsed = None
        for scenario, protocol, plan_kwargs, recovery_kwargs in SCENARIOS:
            result = run_spec(_spec(
                name, params, protocol, plan_kwargs, recovery_kwargs, devices
            ))
            all_verified = all_verified and result.verified
            if scenario == "baseline":
                baseline_elapsed = result.elapsed
            rows.append(_scenario_row(
                name, scenario, devices, result, baseline_elapsed
            ))
        if name == "vecadd":
            # The exhaustion scenario must raise; run it inline so the
            # typed error becomes a report row rather than a crash.
            scenario, protocol, plan_kwargs, recovery_kwargs = EXHAUSTED
            try:
                result = run_spec(_spec(
                    name, params, protocol, plan_kwargs, recovery_kwargs,
                    devices,
                ))
                rows.append(_scenario_row(
                    name, scenario, devices, result, baseline_elapsed
                ))
                all_verified = False  # it was supposed to give up
            except RecoveryExhausted as error:
                gave_up = error
                rows.append([
                    name, scenario, devices, "gave-up", "-", "-", "-", "-",
                    "-", "-", "-", "-",
                    f"{error.attempts} losses",
                ])
    scale_base = None
    for n in SCALING_DEVICES:
        result = run_spec(_spec(
            "vecadd",
            dict(elements=256 * 1024 if quick else 2 * 1024 * 1024),
            "rolling", None, None, n,
        ))
        all_verified = all_verified and result.verified
        if scale_base is None:
            scale_base = result.elapsed
        rows.append(_scenario_row(
            "vecadd", f"scale-{n}dev", n, result, scale_base
        ))
    notes = [
        "driver abstraction layer; round-robin placement; one "
        "deterministic fault seed shared by all scenarios",
        "peer KB counts region migrations between devices (consolidation "
        "onto the execution device, post-readmission rebalancing); "
        "failover re-homing moves through host-canonical state instead",
        "trips are watchdog deadline expirations (declare-device-lost, "
        "observed kernel overruns); salvaged counts device-only blocks "
        "pulled home before abandoning a wedged device",
        "overhead is elapsed-time inflation over the same-device-count "
        "baseline (scale rows: over the 1-device run)",
    ]
    if gave_up is not None:
        notes.append(
            "exhausted scenario gave up as designed: "
            f"RecoveryExhausted after {gave_up.attempts} device losses "
            f"(resource {gave_up.resource})"
        )
    else:
        notes.append(
            "WARNING: the exhausted scenario did not raise RecoveryExhausted"
        )
    if not all_verified:
        notes.append("WARNING: at least one run failed oracle validation")
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        paper_claim=PAPER_CLAIM,
        headers=[
            "workload", "scenario", "devices", "verified", "elapsed ms",
            "injected", "failovers", "readmits", "rebalances", "salvaged",
            "trips", "peer KB", "overhead",
        ],
        rows=rows,
        notes=notes,
    )
