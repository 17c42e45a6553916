"""SIGSEGV dispatch to user-level handlers.

Lazy- and rolling-update detect CPU accesses "using the CPU hardware memory
protection mechanisms ... to trigger a page fault exception (delivered as a
POSIX signal to user-level)" (Section 4.3).  The dispatcher models the
kernel's part of that path: it charges a fixed delivery overhead, counts
deliveries, and invokes the registered handler.  A handler must return True
to claim the fault; an unclaimed fault is a crash
(:class:`~repro.util.errors.SegmentationFault`), as it would be for an
application bug.
"""

from dataclasses import dataclass

from repro.util.errors import SegmentationFault
from repro.sim.tracing import Category


@dataclass(frozen=True)
class SegvInfo:
    """What the kernel tells the handler: faulting address and access kind."""

    address: int
    access: object  # AccessKind


class SignalDispatcher:
    """Delivers simulated SIGSEGVs to registered user-level handlers."""

    #: Kernel-side cost of taking the fault and delivering the signal
    #: (trap, signal frame setup, sigreturn).  Charged per delivery.
    DELIVERY_OVERHEAD_S = 0.5e-6

    def __init__(self, clock, accounting=None, overhead_s=None):
        self.clock = clock
        self.accounting = accounting
        self.overhead_s = (
            self.DELIVERY_OVERHEAD_S if overhead_s is None else overhead_s
        )
        self._handlers = []
        self._names = {}
        self.delivered = 0
        self.unhandled = 0

    @staticmethod
    def _default_name(handler):
        """A stable identity for a handler: qualified name + owner id.

        Bound methods are materialized fresh on each attribute access, so
        ``id(handler)`` is unstable; the owning instance's id is not.
        """
        owner = getattr(handler, "__self__", handler)
        qualname = getattr(handler, "__qualname__", None) or repr(handler)
        return f"{qualname}@{id(owner):#x}"

    @staticmethod
    def _describe(handler):
        owner = getattr(handler, "__self__", None)
        if owner is not None:
            return f"{handler.__qualname__} of {owner!r}"
        return repr(handler)

    def register(self, handler, name=None):
        """Install a handler; later registrations run first (like chaining).

        Idempotent for the *same* handler object: re-registering keeps its
        position and does not duplicate it (a GMAC instance re-arms its
        handler on recovery paths, and a duplicated entry would
        double-handle — and double-charge — every subsequent fault).

        ``name`` labels the registration; registering a *different*
        handler under a name already in use is a collision, and the error
        names the colliding handler so the caller can tell exactly which
        installation it raced with.
        """
        if name is None:
            name = self._default_name(handler)
        existing = self._names.get(name)
        if existing is not None and existing != handler:
            raise ValueError(
                f"signal handler name {name!r} is already registered by "
                f"{self._describe(existing)}; unregister it before "
                f"installing {self._describe(handler)}"
            )
        if handler not in self._handlers:
            self._handlers.insert(0, handler)
        self._names[name] = handler
        return handler

    def unregister(self, handler):
        self._handlers.remove(handler)
        for name, installed in list(self._names.items()):
            if installed == handler:
                del self._names[name]

    def deliver(self, info):
        """Deliver one SIGSEGV; raise if nobody claims it."""
        self.delivered += 1
        self.clock.advance(self.overhead_s)
        if self.accounting is not None:
            self.accounting.charge(
                Category.SIGNAL, self.overhead_s, label="signal-delivery"
            )
        for handler in self._handlers:
            if handler(info):
                return
        self.unhandled += 1
        raise SegmentationFault(info.address, info.access)
