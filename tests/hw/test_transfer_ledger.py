"""The transfer ledger: RunSet model tests + eager-vs-lazy parity.

Two layers (DESIGN.md §14):

* :class:`repro.hw.memory.RunSet` — the flat sorted-edge run tracker under
  both the dirty tracker and the synced map — is property-tested against a
  plain Python set of byte indices.
* The ledger itself is tested by *parity*: two machines, one deferring
  kernel numerics and transfers and one running both eagerly, are driven
  through identical random interleavings of transfers, host writes, device
  writes, kernel launches and syncs, PCIe fault storms and device loss
  (``Gpu.reset`` via the driver's revive path); every host read and the
  final host-canonical/device bytes must match byte for byte.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cuda.driver import DriverContext
from repro.cuda.kernels import Kernel
from repro.faults.plan import FaultPlan
from repro.hw.machine import reference_system
from repro.hw.memory import RunSet, ledger_bind, ledger_counters
from repro.os.paging import Prot
from repro.util.errors import TransferError
from repro.workloads.base import Application

# ---------------------------------------------------------------------------
# RunSet vs a model set of byte indices


_ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "discard"]),
        st.integers(min_value=0, max_value=64),
        st.integers(min_value=0, max_value=64),
    ),
    max_size=24,
)


class TestRunSetModel:
    @settings(max_examples=200, deadline=None)
    @given(ops=_ops, qlo=st.integers(0, 64), qhi=st.integers(0, 64))
    def test_matches_index_set(self, ops, qlo, qhi):
        runs = RunSet()
        model = set()
        for op, a, b in ops:
            lo, hi = min(a, b), max(a, b)
            if op == "add":
                runs.add(lo, hi)
                model.update(range(lo, hi))
            else:
                runs.discard(lo, hi)
                model.difference_update(range(lo, hi))
        # Total coverage and full enumeration match the model.
        assert runs.total() == len(model)
        covered = set()
        previous_hi = None
        for lo, hi in runs:
            assert lo < hi
            if previous_hi is not None:
                # Runs are sorted, disjoint and coalesced (never touching).
                assert lo > previous_hi
            previous_hi = hi
            covered.update(range(lo, hi))
        assert covered == model
        # Windowed queries agree too.
        qlo, qhi = min(qlo, qhi), max(qlo, qhi)
        windowed = set()
        for lo, hi in runs.runs_in(qlo, qhi):
            assert qlo <= lo < hi <= qhi
            windowed.update(range(lo, hi))
        assert windowed == {i for i in model if qlo <= i < qhi}

    def test_clear_and_bool(self):
        runs = RunSet()
        assert not runs
        runs.add(3, 9)
        assert runs
        runs.clear()
        assert not runs and runs.total() == 0


# ---------------------------------------------------------------------------
# Eager-vs-lazy parity under random interleavings

SIZE = 8192

#: Extents are drawn on a grid of eighths of the allocation, so records,
#: launches and flushes of one range collide often.
EIGHTH = SIZE // 8


def _add_fn(gpu, dst, n, value):
    view = gpu.view(dst, "u1", n)
    np.add(view, np.uint8(value), out=view)


def _add_batch(gpu, args_list):
    # A batched pass produces only the run's final bytes, so a ledger entry
    # naming a version inside the run is wrong unless the run is split.
    first = args_list[0]
    total = sum(args["value"] for args in args_list) % 256
    view = gpu.view(first["dst"], "u1", first["n"])
    np.add(view, np.uint8(total), out=view)


#: Batchable, declares what it writes, adds ``value`` over ``[dst, +n)``.
_ADD = Kernel(
    "ledger-add", _add_fn, cost=lambda dst, n, value: (n, 2 * n),
    writes=("dst",), batched_fn=_add_batch, batch_by=("value",),
)


class _Rig:
    """One machine + driver context + one ledger-bound host mapping.

    ``defer`` defers both kernel numerics and transfers (the default
    engines); otherwise both run eagerly."""

    def __init__(self, defer, fault_rate=0.0):
        self.machine = reference_system(
            defer_numerics=defer, defer_transfers=defer
        )
        if fault_rate:
            self.machine.install_faults(
                FaultPlan(seed=7, transfer_fault_rate=fault_rate)
            )
        self.app = Application(self.machine)
        self.ctx = DriverContext(self.machine, self.app.process)
        self.space = self.app.process.address_space
        self.mapping = self.space.mmap(SIZE, prot=Prot.RW)
        self.host = self.mapping.start
        self.dev = self.ctx.mem_alloc(SIZE)
        if defer:
            # Mirror Manager._bind_transfer_plane: zeroed alloc and zeroed
            # mmap start out byte-identical, so the binding opens synced.
            ledger_bind(
                self.ctx.gpu.memory, self.dev, self.mapping,
                self.host, SIZE, synced=True,
            )

    def apply(self, op):
        """Apply one step; returns observable bytes (or None)."""
        kind = op[0]
        try:
            if kind == "h2d":
                _, lo, length = op
                self.ctx.memcpy_h2d(self.dev + lo, self.host + lo, length)
            elif kind == "d2h":
                _, lo, length = op
                self.ctx.memcpy_d2h(self.host + lo, self.dev + lo, length)
            elif kind == "host_write":
                _, lo, length, value = op
                self.space.poke_fill(self.host + lo, value, length)
            elif kind == "host_read":
                _, lo, length = op
                return self.space.peek(self.host + lo, length)
            elif kind == "dev_fill":
                _, lo, length, value = op
                self.ctx.gpu.memory.fill(self.dev + lo, value, length)
            elif kind == "dev_read":
                _, lo, length = op
                return self.ctx.gpu.memory.read(self.dev + lo, length)
            elif kind == "launch":
                _, lo, length, value = op
                self.ctx.launch(
                    _ADD, {"dst": self.dev + lo, "n": length, "value": value}
                )
            elif kind == "sync":
                self.ctx.synchronize()
            elif kind == "lose_device":
                # Device loss mid-stream: all on-board bytes are gone; the
                # driver revives the device and replays the allocation at
                # its old address (zeroed, like recovery does before its
                # host-canonical flush).
                self.ctx.revive()
                self.dev = self.ctx.restore_allocation(self.dev, SIZE)
        except TransferError as error:
            return ("fault", error.direction, error.size)
        return None

    def final_state(self):
        host = self.space.peek(self.host, SIZE)
        device = self.ctx.gpu.memory.read(self.dev, SIZE)
        return host, bytes(device)


_extent = st.tuples(
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=1, max_value=8),
).map(lambda pair: (pair[0] * EIGHTH, min(pair[1], 8 - pair[0]) * EIGHTH))

#: Transfers and launches are drawn twice as often as the other steps, so
#: a record, a queued launch and a flush of one range meet more often.
_transfer_or_launch = st.one_of(
    _extent.map(lambda e: ("h2d", e[0], e[1])),
    _extent.map(lambda e: ("d2h", e[0], e[1])),
    st.tuples(_extent, st.integers(1, 255)).map(
        lambda t: ("launch", t[0][0], t[0][1], t[1])
    ),
)

_step = st.one_of(
    _transfer_or_launch,
    _transfer_or_launch,
    st.tuples(_extent, st.integers(1, 255)).map(
        lambda t: ("host_write", t[0][0], t[0][1], t[1])
    ),
    _extent.map(lambda e: ("host_read", e[0], e[1])),
    st.tuples(_extent, st.integers(1, 255)).map(
        lambda t: ("dev_fill", t[0][0], t[0][1], t[1])
    ),
    _extent.map(lambda e: ("dev_read", e[0], e[1])),
    st.just(("sync",)),
    st.just(("lose_device",)),
)

#: Orders in which a record, a queued launch and an observer of the same
#: range meet: the flush must not trust a record older than the launch,
#: the host must see the bytes of the version its record names, and a
#: dying device must leave the recorded bytes behind.
_RECORD_LAUNCH_FLUSH = [
    ("d2h", 0, SIZE), ("launch", 0, SIZE, 5), ("sync",), ("h2d", 0, SIZE),
]
_LAUNCH_RECORD_LAUNCH_READ = [
    ("launch", 0, SIZE, 3), ("sync",), ("d2h", 0, SIZE),
    ("launch", 0, SIZE, 4), ("sync",), ("host_read", 0, SIZE),
]
_RECORD_LAUNCH_LOSS = [
    ("d2h", 0, SIZE), ("launch", 0, SIZE, 9), ("lose_device",),
]


class TestInterleavingParity:
    @settings(max_examples=100, deadline=None)
    @given(ops=st.lists(_step, min_size=1, max_size=30))
    @example(ops=_RECORD_LAUNCH_FLUSH)
    @example(ops=_LAUNCH_RECORD_LAUNCH_READ)
    @example(ops=_RECORD_LAUNCH_LOSS)
    def test_random_interleavings_match_eager(self, ops):
        lazy, eager = _Rig(defer=True), _Rig(defer=False)
        for op in ops:
            assert lazy.apply(op) == eager.apply(op), op
        assert lazy.final_state() == eager.final_state()

    @settings(max_examples=40, deadline=None)
    @given(ops=st.lists(_step, min_size=1, max_size=20))
    @example(ops=_RECORD_LAUNCH_FLUSH)
    @example(ops=_LAUNCH_RECORD_LAUNCH_READ)
    @example(ops=_RECORD_LAUNCH_LOSS)
    def test_fault_storm_parity(self, ops):
        """A seeded PCIe fault storm fires at identical points in both
        modes (deferred transfers fault at charge time) and leaves
        identical observable state."""
        lazy = _Rig(defer=True, fault_rate=0.3)
        eager = _Rig(defer=False, fault_rate=0.3)
        for op in ops:
            assert lazy.apply(op) == eager.apply(op), op
        assert lazy.final_state() == eager.final_state()

    def test_materialization_on_dying_device(self):
        """The PR-4 reset-parity extension: entries recorded against a
        device that is then lost must still materialize the bytes the
        device held at record time."""
        lazy, eager = _Rig(defer=True), _Rig(defer=False)
        for rig in (lazy, eager):
            rig.ctx.gpu.memory.fill(rig.dev, 0xAB, SIZE)
            rig.ctx.memcpy_d2h(rig.host, rig.dev, SIZE)  # record / copy
            rig.ctx.revive()                             # device dies
            rig.dev = rig.ctx.restore_allocation(rig.dev, SIZE)
        # The host observes the recorded bytes, not the reset device's.
        assert (lazy.space.peek(lazy.host, SIZE)
                == eager.space.peek(eager.host, SIZE)
                == b"\xab" * SIZE)
        assert lazy.final_state() == eager.final_state()

    def test_device_write_cow_protects_recorded_extent(self):
        """A device write after a recorded D2H snapshots the overlapping
        source runs: the host must later observe the *recorded* bytes."""
        lazy = _Rig(defer=True)
        before = ledger_counters()["cow_snapshots"]
        lazy.ctx.gpu.memory.fill(lazy.dev, 0x11, SIZE)
        lazy.ctx.memcpy_d2h(lazy.host, lazy.dev, SIZE)   # record
        lazy.ctx.gpu.memory.fill(lazy.dev, 0x22, SIZE)   # overwrite source
        assert ledger_counters()["cow_snapshots"] > before
        assert lazy.space.peek(lazy.host, SIZE) == b"\x11" * SIZE
        assert bytes(lazy.ctx.gpu.memory.read(lazy.dev, SIZE)) \
            == b"\x22" * SIZE

    def test_elision_without_observation(self):
        """A recorded transfer whose destination is overwritten before any
        read dies whole — zero bytes ever move for it."""
        lazy = _Rig(defer=True)
        counters = ledger_counters()
        elided = counters["transfers_elided"]
        materialized = counters["bytes_materialized"]
        lazy.ctx.gpu.memory.fill(lazy.dev, 0x33, SIZE)
        lazy.ctx.memcpy_d2h(lazy.host, lazy.dev, SIZE)        # record
        lazy.space.poke_fill(lazy.host, 0x44, SIZE)           # clobber
        counters = ledger_counters()
        assert counters["transfers_elided"] == elided + 1
        assert counters["bytes_materialized"] == materialized
        assert lazy.space.peek(lazy.host, SIZE) == b"\x44" * SIZE


class TestReadOnlyOperands:
    def test_pns_batch_never_snapshots_transitions(self, monkeypatch):
        """pns only reads ``transitions``: under batch-update, where every
        call fetches it back, its view takes no copy-on-write snapshot
        and never un-syncs its mapping."""
        from repro.experiments.common import make_workload
        from repro.hw.gpu import Gpu
        from repro.hw.memory import DeviceMemory

        snapshotted = []
        written_in_kernels = []
        replays = []
        real_write = DeviceMemory._device_write
        real_materialize = Gpu.materialize

        def device_write(self, allocation, offset, size):
            plane = allocation.plane
            before = list(plane.dependents) if plane is not None else []
            real_write(self, allocation, offset, size)
            if replays:
                written_in_kernels.append(allocation.interval.start)
            if any(entry.deps is None for entry in before if not entry.dead):
                snapshotted.append(allocation.interval.start)

        def materialize(self):
            replays.append(self)
            try:
                real_materialize(self)
            finally:
                replays.pop()

        monkeypatch.setattr(DeviceMemory, "_device_write", device_write)
        monkeypatch.setattr(Gpu, "materialize", materialize)
        result = make_workload("pns", quick=True).execute(
            mode="gmac", protocol="batch"
        )
        assert result.verified
        gmac = result.extra["gmac"]
        regions = {region.name: region for region in gmac.manager.regions()}
        transitions = regions["transitions"]
        # The spy sees kernel-time writes to the written operands, and
        # each fetch supersedes the previous round's entry before any
        # replay runs, so no operand is snapshotted.
        assert regions["stats"].device_start in written_in_kernels
        assert snapshotted == []
        assert transitions.device_start not in written_in_kernels
        mapping = gmac.process.address_space.mapping_at(
            transitions.host_start
        )
        lo = transitions.host_start - mapping.start
        synced = mapping.plane.sync_runs(gmac.machine.gpu.memory.token)
        assert synced.runs_in(lo, lo + transitions.mapped_size) == [
            (lo, lo + transitions.mapped_size)
        ]

    def test_dead_entries_leave_the_dependents_list(self):
        """Batch-update fetches the read-only ``transitions`` after every
        call; each fetch kills the previous entry, and the dead entries
        must not pile up on an allocation no device write ever prunes.
        Only the newest entry may have died since its record (a host
        read materializes it)."""
        from repro.experiments.common import make_workload

        result = make_workload("pns", quick=True).execute(
            mode="gmac", protocol="batch"
        )
        assert result.verified
        gmac = result.extra["gmac"]
        memory = gmac.machine.gpu.memory
        planes = {
            region.name: memory._find(region.device_start).plane
            for region in gmac.manager.regions()
        }
        for plane in planes.values():
            assert all(not entry.dead for entry in plane.dependents[:-1])
        (entry,) = planes["transitions"].dependents
        assert not entry.dead


class TestVersionedRecords:
    def test_record_names_a_version_and_replays_nothing(self):
        """A deferred D2H records the launch count instead of replaying;
        the host replays that far when it reads the entry."""
        rig = _Rig(defer=True)
        gpu = rig.ctx.gpu
        rig.apply(("launch", 0, SIZE, 7))
        rig.apply(("d2h", 0, SIZE))
        assert gpu.pending_numerics == 1
        (entry,) = rig.mapping.plane.entries
        assert entry.version == gpu.launches == 1
        assert rig.apply(("host_read", 0, SIZE)) == b"\x07" * SIZE
        assert gpu.pending_numerics == 0

    def test_flush_of_a_current_record_is_no_barrier(self):
        """Flushing back bytes a record of the latest version names moves
        nothing, so it does not replay the queued launch."""
        rig = _Rig(defer=True)
        rig.apply(("launch", 0, SIZE, 7))
        rig.apply(("d2h", 0, SIZE))
        copied = ledger_counters()["flush_bytes_copied"]
        rig.apply(("h2d", 0, SIZE))
        assert rig.ctx.gpu.pending_numerics == 1
        assert ledger_counters()["flush_bytes_copied"] == copied

    @pytest.mark.parametrize("name, protocol", [
        ("pns", "batch"), ("pns", "lazy"), ("rpes", "batch"),
        ("rpes", "lazy"),
    ])
    def test_batch_replays_as_often_as_lazy(self, name, protocol):
        """Batch-update fetches every object after every call, but its
        fetches record versions, so it replays the queue once per pns
        sample interval and once for all rpes roots, as lazy-update does
        (the one-replay-per-call engine replayed 48 and 16 times)."""
        from repro.experiments.common import make_workload

        workload = make_workload(name, quick=True)
        result = workload.execute(mode="gmac", protocol=protocol)
        assert result.verified
        replays = (
            workload.iterations // workload.sample_interval
            if name == "pns" else 1
        )
        assert result.extra["gmac"].machine.gpu.numerics_flushes == replays
