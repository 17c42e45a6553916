"""The simulated operating system.

GMAC is a user-level library: everything it does rests on OS services —
anonymous ``mmap`` at a chosen address, ``mprotect``, SIGSEGV delivery to a
user-level handler, and file I/O.  Python cannot intercept real page
faults, so this package simulates those services byte- and event-accurately
(see DESIGN.md section 2):

* :mod:`repro.os.paging` -- page sizes, protection bits, access kinds,
* :mod:`repro.os.address_space` -- page-granular mappings with a software
  MMU (`check`/`peek`/`poke`),
* :mod:`repro.os.signals` -- SIGSEGV dispatch to registered handlers,
* :mod:`repro.os.process` -- the fault/retry access loop every CPU load and
  store goes through, plus typed pointer helpers,
* :mod:`repro.os.filesystem` -- simulated files over the disk model,
* :mod:`repro.os.libc` -- ``read``/``write``/``memset``/``memcpy`` with the
  interposition table GMAC overloads (Section 4.4 of the paper).
"""

from repro.os.paging import PAGE_SIZE, Prot, AccessKind, page_ceil
from repro.os.address_space import AddressSpace, Mapping
from repro.os.signals import SegvInfo, SignalDispatcher
from repro.os.process import Process, Ptr
from repro.os.filesystem import FileSystem
from repro.os.libc import Libc

__all__ = [
    "PAGE_SIZE",
    "Prot",
    "AccessKind",
    "page_ceil",
    "AddressSpace",
    "Mapping",
    "SegvInfo",
    "SignalDispatcher",
    "Process",
    "Ptr",
    "FileSystem",
    "Libc",
]
