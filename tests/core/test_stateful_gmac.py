"""Stateful model-based testing of the full GMAC API.

A hypothesis rule machine drives alloc/free/write/read/call/sync in random
order against a live GMAC instance, mirroring every mutation in a plain
dict-of-numpy model.  Invariants: reads always observe the model, frees
release device memory, and the block index stays consistent.
"""

import numpy as np
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.os.paging import PAGE_SIZE
from repro.hw.machine import reference_system
from repro.workloads.base import Application
from repro.cuda.kernels import Kernel

MAX_REGIONS = 4
REGION_PAGES = 3
REGION_BYTES = REGION_PAGES * PAGE_SIZE
WORDS = REGION_BYTES // 4


def _increment_fn(gpu, data, n):
    gpu.view(data, "i4", n)[:] += 1


INCREMENT = Kernel("increment", _increment_fn, cost=lambda data, n: (n, 8 * n))


class GmacMachine(RuleBasedStateMachine):
    @initialize(
        protocol=st.sampled_from(["batch", "lazy", "rolling"]),
        block_pages=st.integers(1, 3),
        rolling=st.integers(1, 4),
    )
    def setup(self, protocol, block_pages, rolling):
        self.machine = reference_system()
        self.app = Application(self.machine)
        options = None
        if protocol == "rolling":
            options = {
                "block_size": block_pages * PAGE_SIZE,
                "rolling_size": rolling,
            }
        self.gmac = self.app.gmac(
            protocol=protocol, layer="driver", protocol_options=options
        )
        self.regions = {}   # key -> (SharedPtr, numpy model)
        self.counter = 0
        self.pending_call = False

    # -- helpers ---------------------------------------------------------------

    def _sync_if_needed(self):
        if self.pending_call:
            self.gmac.sync()
            self.pending_call = False

    # -- rules -------------------------------------------------------------------

    @rule()
    def allocate(self):
        if len(self.regions) >= MAX_REGIONS:
            return
        self.counter += 1
        ptr = self.gmac.alloc(REGION_BYTES, name=f"r{self.counter}")
        self.regions[self.counter] = (ptr, np.zeros(WORDS, dtype=np.int32))

    @precondition(lambda self: self.regions)
    @rule(data=st.data())
    def free_one(self, data):
        self._sync_if_needed()
        key = data.draw(st.sampled_from(sorted(self.regions)))
        ptr, _ = self.regions.pop(key)
        self.gmac.free(ptr)

    @precondition(lambda self: self.regions)
    @rule(
        data=st.data(),
        offset=st.integers(0, WORDS - 1),
        count=st.integers(1, WORDS),
        value=st.integers(-999, 999),
    )
    def write(self, data, offset, count, value):
        self._sync_if_needed()
        key = data.draw(st.sampled_from(sorted(self.regions)))
        ptr, model = self.regions[key]
        count = min(count, WORDS - offset)
        values = np.full(count, value, dtype=np.int32)
        ptr.write_array(values, offset=4 * offset)
        model[offset:offset + count] = values

    @precondition(lambda self: self.regions)
    @rule(data=st.data(), offset=st.integers(0, WORDS - 1),
          count=st.integers(1, WORDS))
    def read(self, data, offset, count):
        self._sync_if_needed()
        key = data.draw(st.sampled_from(sorted(self.regions)))
        ptr, model = self.regions[key]
        count = min(count, WORDS - offset)
        observed = ptr.read_array("i4", count, offset=4 * offset)
        assert np.array_equal(observed, model[offset:offset + count])

    @precondition(lambda self: self.regions)
    @rule(data=st.data())
    def kernel_call(self, data):
        key = data.draw(st.sampled_from(sorted(self.regions)))
        ptr, model = self.regions[key]
        self.gmac.call(INCREMENT, data=ptr, n=WORDS)
        model += 1
        self.pending_call = True

    @rule()
    def sync(self):
        self._sync_if_needed()

    # -- invariants -------------------------------------------------------------------

    @invariant()
    def block_index_matches_regions(self):
        expected = sum(
            len(self.gmac.manager.region_at(int(ptr)).blocks)
            for ptr, _ in self.regions.values()
        )
        assert self.gmac.manager.block_count == expected

    @invariant()
    def device_memory_not_leaked(self):
        in_use = self.gmac.layer.driver.gpu.memory.bytes_in_use
        assert in_use == len(self.regions) * REGION_BYTES

    @invariant()
    def clock_is_monotone(self):
        now = self.machine.clock.now
        assert now >= getattr(self, "_last_now", 0.0)
        self._last_now = now

    def teardown(self):
        if hasattr(self, "gmac"):
            self._sync_if_needed()
            for key in sorted(self.regions):
                ptr, model = self.regions[key]
                observed = ptr.read_array("i4", WORDS)
                assert np.array_equal(observed, model)
            self.gmac.shutdown()
            assert self.gmac.layer.driver.gpu.memory.bytes_in_use == 0


GmacMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=25, deadline=None
)
TestGmacStateful = GmacMachine.TestCase
