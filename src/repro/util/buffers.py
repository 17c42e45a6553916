"""Zero-copy buffer helpers for the data plane.

Every bulk data path in the simulator (process accesses, device memory,
file I/O) accepts "bytes-like" payloads.  Accepting only ``bytes`` forces
callers to materialize copies (``array.tobytes()``, ``bytes(view)``); the
helpers here normalize any buffer-protocol object — ``bytes``,
``bytearray``, ``memoryview``, contiguous numpy arrays — into a flat byte
view without copying, so data flows from workload arrays into simulated
memory and back through views end to end.
"""

import numpy as np


def as_byte_view(data):
    """A flat byte-typed :class:`memoryview` of any buffer, without copying.

    The buffer must be C-contiguous (``memoryview.cast`` enforces this);
    callers holding strided arrays must make them contiguous first.
    """
    view = data if isinstance(data, memoryview) else memoryview(data)
    if view.format != "B" or view.ndim != 1:
        view = view.cast("B")
    return view


def as_byte_array(data):
    """A flat ``uint8`` numpy view of any buffer, without copying.

    Like :func:`as_byte_view` but returns a numpy array, for callers that
    assign into numpy backing stores.  Read-only buffers yield read-only
    arrays (sources are never written through this view).
    """
    if isinstance(data, np.ndarray):
        if data.dtype == np.uint8 and data.ndim == 1:
            return data
        return data.view(np.uint8).reshape(-1)
    return np.frombuffer(as_byte_view(data), dtype=np.uint8)
