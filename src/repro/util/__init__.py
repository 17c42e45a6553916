"""Shared utility substrate for the GMAC/ADSM reproduction.

This package holds the pieces that every other subsystem leans on:

* :mod:`repro.util.errors` -- the exception hierarchy,
* :mod:`repro.util.units` -- byte/time unit helpers (``KB``, ``MB``, ...),
* :mod:`repro.util.intervals` -- half-open address intervals and range maps,
* :mod:`repro.util.avltree` -- the balanced binary tree of block start
  addresses that prices the shared-memory manager's block search
  (Section 5.2),
* :mod:`repro.util.tables` -- ASCII rendering of experiment tables.
"""

from repro.util.errors import (
    ReproError,
    AddressError,
    AllocationError,
    ProtectionError,
    SegmentationFault,
    IoError,
    CudaError,
    GmacError,
)
from repro.util.units import KB, MB, GB, format_size, format_time
from repro.util.intervals import Interval, RangeMap
from repro.util.avltree import AvlTree

__all__ = [
    "ReproError",
    "AddressError",
    "AllocationError",
    "ProtectionError",
    "SegmentationFault",
    "IoError",
    "CudaError",
    "GmacError",
    "KB",
    "MB",
    "GB",
    "format_size",
    "format_time",
    "Interval",
    "RangeMap",
    "AvlTree",
]
