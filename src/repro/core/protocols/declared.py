"""Declared-modes: declaration-driven coherence (ROADMAP item 5).

A fourth protocol exploiting per-object access declarations — the
Section 4.3 "compiler analysis or programmer annotations" hook promoted
from a per-call ``writes=`` hint to a load-time contract.  Each shared
region carries one mode for every kernel window:

``rw``
    the default: full lazy-update behaviour (flush dirty at release,
    invalidate, fault back on demand).
``ro``
    kernels only read the object: release flushes dirty host blocks but
    *keeps* the host mapping read-only valid, so post-kernel CPU reads
    never fault or fetch.
``wo``
    kernels overwrite the whole object without reading it: release skips
    the flush entirely (host writes never need to reach the device) and
    invalidates, so the first post-kernel read fetches fresh output.
``none``
    no kernel ever touches the object (a host-side staging buffer living
    in shared space): release leaves it completely alone — no flush, no
    invalidation, no faults, no transfers, ever.

Soundness rests on the declarations being *verified*: statically by
:func:`repro.analysis.contracts.check_workload` and at every launch by
the sanitizer's :class:`~repro.analysis.contracts.ContractMonitor` (armed
automatically whenever this protocol runs sanitized).  Each release also
tags its transitions (``detail="wo-release"``) and announces modes as
``mode`` coherence events, so the dynamic checker knows which invariants
the declarations legitimately relax.
"""

from repro.util.errors import GmacError
from repro.core.blocks import BlockState, INVALID_CODE
from repro.core.protocols.lazy import LazyUpdate

#: Modes this protocol accepts (mirrors analysis.contracts.MODES without
#: importing the analysis package into the core).
_VALID_MODES = ("none", "ro", "wo", "rw")


class DeclaredModes(LazyUpdate):
    name = "declared"

    def __init__(self, manager, modes=()):
        super().__init__(manager)
        #: Region name -> declared mode; accepts a dict or a (sorted)
        #: tuple of pairs (the picklable spec form).  Unknown regions
        #: default to "rw", which is always sound.
        self.modes = dict(modes)
        for region_name, mode in self.modes.items():
            if mode not in _VALID_MODES:
                raise GmacError(
                    f"declared mode for {region_name!r} must be one of "
                    f"{_VALID_MODES}, got {mode!r}"
                )

    def mode_of(self, region):
        return self.modes.get(region.name, "rw")

    def on_alloc(self, region):
        super().on_alloc(region)
        # Teach the coherence checker this region's declared mode, so it
        # exempts exactly the invariants the declaration relaxes.
        self.manager.note_coherence(
            "mode", region.name, 0, region.table.n_blocks - 1,
            detail=self.mode_of(region),
        )

    def call_written(self, written):
        # An unannotated launch resolves through the declarations: only
        # regions whose kernels may write (rw/wo) count as written, so
        # the race detector, the checker's call event and the release all
        # see the same effective set.
        if written is not None:
            return written
        return {
            region for region in self.manager.regions()
            if self.mode_of(region) in ("rw", "wo")
        }

    def pre_call(self, regions, written=None):
        for region in regions:
            mode = self.mode_of(region)
            if mode == "none":
                # No kernel touches it: dirty host blocks are legal
                # across the window and nothing needs to move, ever.
                continue
            if mode == "wo":
                # The kernel overwrites every byte: flushing dirty host
                # blocks would move data the kernel immediately clobbers.
                # The tagged transition lets the checker exempt its
                # lost-update rule for exactly this (verified) case.
                self.manager.set_region_blocks(
                    region, BlockState.INVALID, detail="wo-release"
                )
                continue
            for index in region.table.indices_in(BlockState.DIRTY):
                self.manager.flush_index(region, int(index), sync=True)
            if mode == "ro":
                # Kernels only read: the just-flushed host copy stays
                # valid, so post-kernel CPU reads are free.  Invalid
                # objects stay invalid (their host bytes predate an
                # earlier kernel).
                if region.table.states[0] != INVALID_CODE:
                    self.manager.set_region_blocks(region, BlockState.READ_ONLY)
            else:
                self.manager.set_region_blocks(region, BlockState.INVALID)
