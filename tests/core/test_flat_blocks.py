"""The flat block-state engine: golden equivalence + property tests.

Two layers of protection for the hot-path rewrite:

* **Golden equivalence** — the vecadd and tpacf quick specs must produce
  byte-identical outcomes (elapsed repr, per-category breakdown reprs,
  Figure 8 byte counters, fault/signal counts) to ``golden_hotpath.json``,
  captured from the pre-rewrite engine.  Any drift in virtual-time
  charging, transfer accounting or fault dispatch shows up here as a
  repr-level diff, not an approximate comparison.
* **Properties** — the :class:`~repro.core.blocks.BlockTable` and its
  run-length grouping are exercised with random traces against naive
  per-block reference models.
"""

import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.blocks import (
    BlockState,
    BlockTable,
    CODE_STATES,
    index_runs,
)
from repro.experiments.executor import expand

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_hotpath.json"

OUTCOME_FIELDS = (
    "bytes_to_accelerator",
    "bytes_to_host",
    "faults",
    "signals",
    "verified",
    "link_bytes_moved",
)


def _outcome_record(outcome):
    record = {
        "elapsed": repr(outcome.elapsed),
        "breakdown": {k: repr(v) for k, v in outcome.breakdown.items()},
    }
    for field in OUTCOME_FIELDS:
        record[field] = getattr(outcome, field)
    return record


class TestGoldenEquivalence:
    """The engine rewrite must not move a single output byte."""

    @pytest.fixture(scope="class")
    def golden(self):
        return {
            entry["key"]: entry
            for entry in json.loads(GOLDEN_PATH.read_text())
        }

    @pytest.fixture(scope="class")
    def specs(self, golden):
        figures = ["fig7", "fig8", "fig9", "fig10", "fig11", "fig12"]
        selected = [
            spec for spec in expand(figures, quick=True)
            if spec.key() in golden
        ]
        assert len(selected) == len(golden)
        return selected

    def test_quick_specs_match_golden_outcomes(self, golden, specs):
        mismatches = []
        for spec in specs:
            outcome = _outcome_record(spec.execute())
            reference = {k: golden[spec.key()][k] for k in outcome}
            if outcome != reference:
                mismatches.append((spec.key(), outcome, reference))
        assert not mismatches, (
            f"{len(mismatches)} specs diverged from the golden outcomes; "
            f"first: {mismatches[0]}"
        )


# -- property tests against naive reference models ---------------------------

STATES = list(BlockState)


class NaiveBlocks:
    """Per-block reference model: an explicit (start, end, state) list."""

    def __init__(self, base, size, block_size):
        self.blocks = []
        start = base
        while start < base + size:
            end = min(start + block_size, base + size)
            self.blocks.append([start, end, BlockState.READ_ONLY])
            start = end

    def index_of(self, address):
        for index, (start, end, _) in enumerate(self.blocks):
            if start <= address < end:
                return index
        raise AssertionError(f"address {address:#x} outside region")

    def set_state(self, index, state):
        self.blocks[index][2] = state

    def fill_range(self, first, last, state):
        for index in range(first, last + 1):
            self.blocks[index][2] = state

    def states(self):
        return [state for _, _, state in self.blocks]

    def indices_in(self, state):
        return [
            index for index, (_, _, s) in enumerate(self.blocks)
            if s is state
        ]


@st.composite
def table_and_trace(draw):
    block_size = draw(st.sampled_from([1, 2, 4, 8, 16, 3, 5, 12]))
    n_blocks = draw(st.integers(min_value=1, max_value=24))
    short_tail = draw(st.integers(min_value=0, max_value=block_size - 1))
    size = n_blocks * block_size - short_tail
    if size <= 0:
        size = block_size
    base = draw(st.sampled_from([0, 4096, 1 << 20]))
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("set"),
                    st.integers(min_value=0, max_value=10 ** 9),
                    st.sampled_from(STATES),
                ),
                st.tuples(
                    st.just("fill_range"),
                    st.integers(min_value=0, max_value=10 ** 9),
                    st.tuples(
                        st.integers(min_value=0, max_value=10 ** 9),
                        st.sampled_from(STATES),
                    ),
                ),
            ),
            max_size=40,
        )
    )
    return base, size, block_size, ops


@settings(max_examples=120, deadline=None)
@given(table_and_trace())
def test_block_table_matches_naive_model(params):
    base, size, block_size, ops = params
    table = BlockTable(base, size, block_size)
    naive = NaiveBlocks(base, size, block_size)
    assert table.n_blocks == len(naive.blocks)

    for op in ops:
        if op[0] == "set":
            _, raw_index, state = op
            index = raw_index % table.n_blocks
            table.fill_range(index, index, state)
            naive.set_state(index, state)
        else:
            _, raw_first, (raw_last, state) = op
            first = raw_first % table.n_blocks
            last = first + raw_last % (table.n_blocks - first)
            table.fill_range(first, last, state)
            naive.fill_range(first, last, state)

        assert [CODE_STATES[code] for code in table.states] == (
            naive.states()
        )
        for state in STATES:
            assert list(table.indices_in(state)) == naive.indices_in(state)

    # Address resolution agrees with the explicit interval list for every
    # block boundary and interior byte.
    for index, (start, end, _) in enumerate(naive.blocks):
        for address in (start, (start + end) // 2, end - 1):
            assert table.index_of(address) == naive.index_of(address) == index
            assert table.start_of(index) == start
            assert table.end_of(index) == end


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.integers(min_value=0, max_value=200), max_size=50, unique=True
    ).map(sorted)
)
def test_index_runs_cover_exactly_and_maximally(indices):
    runs = index_runs(np.asarray(indices, dtype=np.int64))
    covered = [
        index for first, last in runs for index in range(first, last + 1)
    ]
    assert covered == list(indices)
    # Maximality: consecutive runs never touch.
    for (_, last), (next_first, _) in zip(runs, runs[1:]):
        assert next_first > last + 1


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=64),
    st.sampled_from([4096, 65536, 262144]),
    st.randoms(use_true_random=False),
)
def test_power_of_two_shift_matches_division(n_blocks, block_size, rnd):
    base = 1 << 30
    table = BlockTable(base, n_blocks * block_size, block_size)
    for _ in range(32):
        address = base + rnd.randrange(n_blocks * block_size)
        assert table.index_of(address) == (address - base) // block_size


def test_code_tables_round_trip():
    for code, state in enumerate(CODE_STATES):
        assert state.code == code
    table = BlockTable(0, 64, 16)
    for state in STATES:
        table.fill(state)
        assert len(table.indices_in(state)) == table.n_blocks
