"""ADSM sanitizer: dynamic coherence checking plus static lint.

Three tools, one package:

* :class:`~repro.analysis.checker.CoherenceModelChecker` — replays the
  coherence event stream against a reference model of the Figure 6 state
  machine and release consistency; any transition the reference model
  declares illegal becomes a violation with a precise diff.
* :class:`~repro.analysis.races.RaceDetector` — flags CPU accesses to
  objects bound to in-flight kernels (between ``adsmCall`` and
  ``adsmSync``), including interposed I/O and unmediated device access.
* :mod:`repro.analysis.lint` — a static AST pass enforcing repo
  invariants (run ``python -m repro.analysis.lint``).

The dynamic tools attach to one :class:`~repro.core.api.Gmac` instance
via :func:`attach_sanitizer`; the experiment runner does so automatically
when sanitizing is enabled (``--sanitize`` or ``REPRO_SANITIZE=1``).
The seeded-bug harness proving these checks have teeth lives in
:mod:`repro.analysis.mutations`.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional

from repro.analysis.checker import CoherenceModelChecker
from repro.analysis.contracts import ContractMonitor
from repro.analysis.races import RaceDetector
from repro.analysis.report import (
    SanitizerViolation,
    Violation,
    write_report,
)
from repro.sim.tracing import CoherenceEvent

__all__ = [
    "CoherenceModelChecker",
    "ContractMonitor",
    "RaceDetector",
    "Sanitizer",
    "SanitizerViolation",
    "Violation",
    "attach_sanitizer",
    "disable",
    "enable",
    "enabled",
    "write_report",
]

#: Environment switch: any non-empty value other than "0" enables the
#: sanitizer for every GMAC execution in the process (workers inherit it).
ENABLE_ENV = "REPRO_SANITIZE"


def enabled() -> bool:
    return os.environ.get(ENABLE_ENV, "0") not in ("", "0")


def enable() -> None:
    os.environ[ENABLE_ENV] = "1"


def disable() -> None:
    os.environ.pop(ENABLE_ENV, None)


class Sanitizer:
    """Both dynamic checkers attached to one GMAC instance."""

    def __init__(self, gmac: Any, context: str = "run") -> None:
        self.gmac = gmac
        self.context = context
        self.checker = CoherenceModelChecker()
        self.checker.configure(gmac.protocol.name)
        self.races = RaceDetector(gmac.machine.clock)
        gmac.accounting.coherence = self.checker
        self.races.attach(gmac)
        for gpu in gmac.machine.gpus:
            gpu.unreplayed_hook = self._unreplayed
        #: Launch-time declaration verification, armed only when the
        #: active protocol carries declared access modes: a wrong
        #: annotation then becomes a precise violation instead of silent
        #: corruption.
        self.contracts: Optional[ContractMonitor] = None
        modes = getattr(gmac.protocol, "modes", None)
        if modes:
            self.contracts = ContractMonitor(modes, gmac.machine.clock)
            gmac.contract_monitor = self.contracts

    @property
    def violations(self) -> List[Violation]:
        found = self.checker.violations + self.races.violations
        if self.contracts is not None:
            found = found + self.contracts.violations
        return found

    def stats(self) -> Dict[str, int]:
        merged = dict(self.checker.stats())
        for key, value in self.races.stats().items():
            merged[f"race_{key}"] = value
        if self.contracts is not None:
            for key, value in self.contracts.stats().items():
                merged[f"contract_{key}"] = value
        merged["violations"] = len(self.violations)
        return merged

    def _unreplayed(self, missed: int) -> None:
        """The host read ledger bytes naming launches that never replayed."""
        self.checker.record(CoherenceEvent(
            "materialize", self.gmac.machine.clock.now,
            detail=f"pending={missed}",
        ))

    def detach(self) -> None:
        for gpu in self.gmac.machine.gpus:
            gpu.unreplayed_hook = None
        self.races.detach()
        self.gmac.accounting.coherence = None
        if self.contracts is not None:
            self.gmac.contract_monitor = None

    def finish(self, raise_on_violation: bool = True) -> List[Violation]:
        """Detach, persist the report, and (by default) die on violations."""
        self.detach()
        found = self.violations
        report: Optional[str] = None
        if found:
            report = write_report(self.context, found, self.stats())
        if found and raise_on_violation:
            raise SanitizerViolation(self.context, found, report)
        return found


def attach_sanitizer(gmac: Any, context: str = "run") -> Sanitizer:
    """Arm both dynamic checkers on ``gmac``; pair with ``finish()``."""
    return Sanitizer(gmac, context)
