"""Exception hierarchy for the reproduction.

Every error raised by the simulated hardware, OS, CUDA layer or GMAC is a
subclass of :class:`ReproError`, so callers can catch the whole family with
one clause while tests can assert on precise subclasses.
"""


class ReproError(Exception):
    """Base class for every error raised by this library."""


class AddressError(ReproError):
    """An address is outside any mapping or otherwise malformed."""


class AllocationError(ReproError):
    """An allocator could not satisfy a request (OOM, bad size, collision)."""


class ProtectionError(ReproError):
    """An mprotect-style request was malformed (unaligned, unmapped)."""


class SegmentationFault(ReproError):
    """An unhandled access violation.

    Raised when the simulated MMU detects an access that violates page
    protections and no signal handler is registered (or the handler did not
    repair the protections, so the retried access faults again).
    """

    def __init__(self, address, access, message=""):
        self.address = address
        self.access = access
        detail = message or f"{access} access to {address:#x}"
        super().__init__(f"segmentation fault: {detail}")


class IoError(ReproError):
    """A simulated filesystem or libc I/O operation failed."""


class CudaError(ReproError):
    """An error from the simulated CUDA driver or runtime."""


class GmacError(ReproError):
    """An error from the GMAC library itself (bad pointer, double free...)."""


class FaultedError:
    """Mixin for errors produced at a fault-injection point.

    Carries the virtual timestamp at which the fault surfaced and the name
    of the resource involved (a link direction, a GPU, a disk), so recovery
    code and tests can reason about *when* and *where* things failed.  Not
    a :class:`ReproError` itself — concrete classes mix it into the
    existing family so current ``except`` clauses keep working.
    """

    def _stamp(self, timestamp, resource):
        self.timestamp = timestamp
        self.resource = resource


class TransferError(FaultedError, CudaError):
    """A DMA attempt over the CPU<->accelerator link failed.

    Transient by default: the failed attempt occupied the link for its full
    duration (the engine aborts at completion), and a retry may succeed.
    """

    def __init__(self, message, direction=None, size=None, timestamp=None,
                 resource=None, transient=True):
        super().__init__(message)
        self.direction = direction
        self.size = size
        self.transient = transient
        self._stamp(timestamp, resource)


class LaunchError(FaultedError, CudaError):
    """A kernel launch was rejected by the driver (transient)."""

    def __init__(self, message, kernel=None, timestamp=None, resource=None):
        super().__init__(message)
        self.kernel = kernel
        self._stamp(timestamp, resource)


class DeviceLostError(FaultedError, CudaError):
    """The accelerator fell off the bus; its context and memory are gone.

    Every later operation on the dead context raises this too, until the
    driver context is revived (a device reset).  Recovery is possible in
    ADSM precisely because the CPU side holds all coherence state: the
    host-canonical blocks can be replayed into a fresh context.
    """

    def __init__(self, message, timestamp=None, resource=None, device=None):
        super().__init__(message)
        #: Index of the lost device on its machine (None on single-device
        #: configurations that predate multi-accelerator support).
        self.device = device
        self._stamp(timestamp, resource)


class CudaOutOfMemoryError(FaultedError, CudaError, AllocationError):
    """cudaMalloc failed (device memory exhausted, or an injected OOM).

    Subclasses both :class:`CudaError` and :class:`AllocationError` so
    callers catching either family keep working.
    """

    def __init__(self, message, size=None, timestamp=None, resource=None,
                 transient=False):
        super().__init__(message)
        self.size = size
        self.transient = transient
        self._stamp(timestamp, resource)


class InvalidDeviceAddressError(CudaError):
    """cuMemFree of an address that is unknown or already freed."""

    def __init__(self, message, address=None, timestamp=None, resource=None):
        super().__init__(message)
        self.address = address
        self.timestamp = timestamp
        self.resource = resource


class RetryExhaustedError(FaultedError, ReproError):
    """Bounded retry gave up: the underlying fault kept recurring."""

    def __init__(self, message, attempts=None, last_error=None,
                 timestamp=None, resource=None):
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error
        self._stamp(timestamp, resource)


class RecoveryExhausted(RetryExhaustedError):
    """The recovery machinery itself gave up (device losses, failovers).

    Subclasses :class:`RetryExhaustedError` so existing ``except`` clauses
    keep working, but is pickle-safe by construction: experiment workers
    run in fork pools, and chaos/failover reports surface this error
    across the pool boundary, so reduction drops the (possibly live,
    unpicklable) ``last_error`` chain and keeps only plain data.
    """

    def detached(self):
        """This error as plain data, the form a pool worker hands back.

        Drops ``last_error``, the cause and context chain and the
        traceback: a live chain pins the frames of the run that raised it,
        and through them that run's whole simulated machine.
        """
        return _rebuild_recovery_exhausted(*self.__reduce__()[1])

    def __reduce__(self):
        return (
            _rebuild_recovery_exhausted,
            (self.args[0] if self.args else "", self.attempts,
             self.timestamp, self.resource),
        )


def _rebuild_recovery_exhausted(message, attempts, timestamp, resource):
    return RecoveryExhausted(
        message, attempts=attempts, timestamp=timestamp, resource=resource
    )
