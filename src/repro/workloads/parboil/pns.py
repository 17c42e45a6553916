"""pns — Petri Net Simulation (Table 2).

The structure that matters for Figure 7: two large device-resident objects
(the marking vector and the transition structure) that the CPU writes once
and then never touches, iterated over by *many* kernel calls, with a small
statistics object the CPU samples occasionally.  The hand-tuned CUDA code
performs no per-iteration transfers at all; lazy- and rolling-update match
it because only the small statistics region ever faults back.  Batch-update
re-transfers both large objects in both directions around every call —
the source of the paper's 65.18x slow-down, the largest in Figure 7.
"""

import numpy as np

from repro.util.units import MB
from repro.analysis.contracts import access_modes
from repro.cuda.kernels import Kernel
from repro.workloads.base import Workload, ValueMemo, memoized_input

CPU_STREAM_RATE = 4.0e9

#: Deterministic update constants for the abstract firing rule.
FIRE_MULTIPLIER = np.int32(1103515245 & 0x7FFF)
FIRE_INCREMENT = np.int32(12345)
TOKEN_LIMIT = np.int32(255)


def fire_step(places, transition_seed, out=None):
    """One synchronous firing round over the marking vector (the oracle).

    The firing rule as specified, in int32: each place times the
    multiplier plus its left neighbour (wrapping round the ring) plus the
    increment and seed, masked to the token limit.  The spec masks with
    ``& 0x7FFFFFFF`` and then ``& TOKEN_LIMIT``; 255 has no bit outside
    0x7FFFFFFF, so one ``& TOKEN_LIMIT`` is the same.  int32 addition
    wraps mod 2^32 and is associative, so folding the scalar terms and
    adding the neighbour through shifted slices gives bit-identical
    markings to the naive expression in four passes.  Only
    :meth:`PetriNet.reference` runs it; the simulated kernel runs the
    narrow engine (:func:`fire_rounds`), so verification checks the
    kernel's arithmetic, not just its data movement.

    ``out`` (the result buffer) lets callers reuse an allocation across
    rounds; it may not alias ``places``.  Results are bit-identical with
    or without it.  On a haloed tile (:func:`oracle_rounds`) the ring
    term lands on the buffer's first place, which has no left neighbour
    in the tile and is stale already.
    """
    if out is None:
        mixed = places * FIRE_MULTIPLIER
    else:
        mixed = np.multiply(places, FIRE_MULTIPLIER, out=out)
    mixed[1:] += places[:-1]
    mixed[:1] += places[-1:]
    mixed += FIRE_INCREMENT + transition_seed
    # TOKEN_LIMIT + 1 is a power of two, so the modulo is a mask.
    mixed &= TOKEN_LIMIT
    return mixed


#: The low byte of :data:`FIRE_MULTIPLIER` (109): all the narrow engine
#: needs of it.
NARROW_MULTIPLIER = np.uint8(int(FIRE_MULTIPLIER) & 0xFF)

#: Places per tile of the kernel sweep: a tile's two uint8 buffers
#: (512 KiB with the halo) stay in L2 across all K rounds.
SWEEP_TILE = 1 << 18


def fire_rounds(marking, seeds):
    """The firing rounds of ``seeds``, one byte per place (the kernel).

    A round keeps only ``TOKEN_LIMIT + 1 = 256`` residues, and the int32
    multiply-add wraps mod 2^32, a multiple of 256, so its result is
    ``(109·x[i] + x[i-1] + 12345 + seed) mod 256``: a function of the
    low byte of each operand alone.  Casting the marking to uint8 and
    letting uint8 arithmetic wrap mod 256 is therefore exact for any
    int32 marking and seed, and moves a quarter of :func:`fire_step`'s
    bytes per round.

    The sweep runs all K rounds on one tile of :data:`SWEEP_TILE` places
    at a time, while the tile sits in cache, instead of streaming the
    whole marking through memory once per round.  A place's next value
    needs its left neighbour's, so each tile carries a halo: the K places
    to its left, wrapping round the ring (more than once when K exceeds
    the ring).  The first byte of the buffer has no neighbour in it, and
    each round spreads that error one place right, so round r leaves only
    the first r halo bytes stale and after K rounds the tile's own bytes
    are exact.  Returns the final marking as a fresh uint8 array (values
    in [0, 255], equal to the int32 result).
    """
    rounds = len(seeds)
    n_places = marking.shape[0]
    increments = (
        np.asarray(seeds).astype(np.uint8)
        + np.uint8(int(FIRE_INCREMENT) & 0xFF)
    )
    final = np.empty(n_places, dtype=np.uint8)
    width = rounds + min(SWEEP_TILE, n_places)
    state = np.empty(width, dtype=np.uint8)
    spare = np.empty(width, dtype=np.uint8)
    for lo in range(0, n_places, SWEEP_TILE):
        hi = min(lo + SWEEP_TILE, n_places)
        tile = state[:rounds + hi - lo]
        scratch = spare[:rounds + hi - lo]
        # Assignment casts int32 to uint8 modulo 256: the low byte.
        tile[:rounds] = np.take(
            marking, np.arange(lo - rounds, lo), mode="wrap"
        )
        tile[rounds:] = marking[lo:hi]
        for increment in increments:
            np.multiply(tile, NARROW_MULTIPLIER, out=scratch)
            scratch[1:] += tile[:-1]
            scratch += increment
            tile, scratch = scratch, tile
        final[lo:hi] = tile[rounds:]
    return final


#: Places per tile of the oracle: a tile's two int32 buffers (512 KiB
#: each) stay in L2 across a sample interval's rounds.
ORACLE_TILE = 1 << 17


def oracle_rounds(marking, seeds, out):
    """The :func:`fire_step` rounds of ``seeds``, one tile at a time.

    The oracle's counterpart of :func:`fire_rounds`'s tiling, in int32:
    each tile of :data:`ORACLE_TILE` places carries the K places to its
    left, taken round the ring, and round r leaves only the first r halo
    places stale, so after K rounds the tile's own places equal the
    whole-ring rounds.  Writes the final marking into ``out``, which may
    not alias ``marking``, and returns it.
    """
    rounds = len(seeds)
    n_places = marking.shape[0]
    width = rounds + min(ORACLE_TILE, n_places)
    state = np.empty(width, dtype=np.int32)
    spare = np.empty(width, dtype=np.int32)
    for lo in range(0, n_places, ORACLE_TILE):
        hi = min(lo + ORACLE_TILE, n_places)
        tile = state[:rounds + hi - lo]
        scratch = spare[:rounds + hi - lo]
        tile[:rounds] = np.take(
            marking, np.arange(lo - rounds, lo), mode="wrap"
        )
        tile[rounds:] = marking[lo:hi]
        for seed in seeds:
            fire_step(tile, seed, out=scratch)
            tile, scratch = scratch, tile
        out[lo:hi] = tile[rounds:]
    return out


def _write_stats(counters, marking, iteration):
    counters[0] = np.int32(iteration + 1)
    counters[1] = np.int32(int(marking[:256].sum()) & 0x7FFFFFFF)
    counters[2] = np.int32(int(marking.max()))


def _pns_fn(gpu, places, transitions, stats, n_places, iteration):
    marking = gpu.view(places, "i4", n_places)
    weights = gpu.view(transitions, "i4", n_places)
    # The transition structure enters the firing rule through a per-round
    # seed; the cost model charges the full streaming traffic.
    seed = np.int32(int(weights[iteration % 1024]) & 0xFFFF)
    final = fire_rounds(marking, (seed,))
    marking[:] = final
    _write_stats(gpu.view(stats, "i4", 16), final, iteration)


#: Byte-exact reuse of whole batched sweeps: figure sweeps run the same
#: marking trajectory once per mode/protocol/figure, so each (input
#: marking, seed vector) recurs many times.  Keyed by sweep length.  Every
#: protocol replays one sweep per sample interval (batch-update's fetches
#: record ledger versions instead of replaying), so the cuda, batch, lazy
#: and rolling runs of a figure share entries.
_SWEEP_MEMO = ValueMemo(max_entries=12)


def _pns_batched(gpu, launches):
    """K deferred firing rounds in one sweep.

    Seeds for every round are gathered in one vectorized lookup (the
    transition structure is constant across the batch — it is not in
    ``batch_by``, and any host write to it would have flushed the queue),
    the rounds run in :func:`fire_rounds`'s uint8 lanes, and only the
    *final* marking and statistics are stored: the Gpu ends a batch at
    every launch version a live ledger entry names, so no intermediate
    device state is ever observed, and the resulting device bytes are
    identical to running ``_pns_fn`` K times while skipping K-1
    full-vector stat reductions and writebacks.
    """
    first = launches[0]
    n_places = first["n_places"]
    marking = gpu.view(first["places"], "i4", n_places)
    weights = gpu.view(first["transitions"], "i4", n_places)
    iterations = np.asarray(
        [launch["iteration"] for launch in launches], dtype=np.int64
    )
    # Bit-identical to np.int32(int(w) & 0xFFFF) per round: the mask keeps
    # every value non-negative and well inside int32.
    seeds = weights[iterations % 1024] & np.int32(0xFFFF)
    key = (n_places, len(launches))
    inputs = (marking, seeds, iterations)
    cached = _SWEEP_MEMO.lookup(key, inputs)
    if cached is None:
        cached = _SWEEP_MEMO.store(
            key, inputs, (fire_rounds(marking, seeds),)
        )
    marking[:] = cached[0]
    _write_stats(
        gpu.view(first["stats"], "i4", 16), cached[0],
        launches[-1]["iteration"],
    )


#: ~8 integer ops per place per round; markings stay in on-chip shared
#: memory, so off-chip traffic is a fraction of the marking size.
PNS_KERNEL = Kernel(
    "pns",
    _pns_fn,
    cost=lambda places, transitions, stats, n_places, iteration: (
        8 * n_places,
        2 * n_places,
    ),
    writes=("places", "stats"),
    batched_fn=_pns_batched,
    batch_by=("iteration",),
)


@access_modes(places="rw", transitions="ro", stats="rw")
class PetriNet(Workload):
    name = "pns"
    description = "generic Petri net simulation, many short kernel calls"

    def __init__(self, n_places=(8 * MB) // 4, iterations=160,
                 sample_interval=16, seed=7):
        super().__init__(seed=seed)
        self.n_places = n_places
        self.iterations = iterations
        self.sample_interval = sample_interval
        def build():
            rng = np.random.default_rng(seed)
            initial = rng.integers(0, 64, size=n_places, dtype=np.int32)
            transitions = rng.integers(
                0, 1 << 16, size=n_places, dtype=np.int32
            )
            return initial, transitions

        self.initial, self.transitions = memoized_input(
            ("pns", n_places, seed), build
        )

    @property
    def places_bytes(self):
        return 4 * self.n_places

    STATS_BYTES = 64

    def _seed_for(self, iteration):
        return np.int32(int(self.transitions[iteration % 1024]) & 0xFFFF)

    def reference(self):
        # The int32 rule, never the kernel's narrow engine, so that
        # verification checks the kernel's arithmetic.  One sample
        # interval of rounds per tiled pass; a last interval shorter than
        # ``sample_interval`` takes no sample.
        marking = self.initial.copy()
        spare = np.empty_like(marking)
        samples = []
        for start in range(0, self.iterations, self.sample_interval):
            stop = min(start + self.sample_interval, self.iterations)
            seeds = [self._seed_for(iteration)
                     for iteration in range(start, stop)]
            oracle_rounds(marking, seeds, out=spare)
            marking, spare = spare, marking
            if len(seeds) == self.sample_interval:
                samples.append(int(marking[:256].sum()) & 0x7FFFFFFF)
        return {
            "samples": np.asarray(samples, dtype=np.int64),
            "final_marking": marking,
        }

    def _sample(self, app, raw_stats):
        counters = np.frombuffer(raw_stats, dtype=np.int32)
        app.machine.cpu.stream(
            self.STATS_BYTES, CPU_STREAM_RATE, label="sample"
        )
        return int(counters[1])

    def run_cuda(self, app):
        cuda = app.cuda()
        host_places = app.process.malloc(self.places_bytes)
        host_stats = app.process.malloc(self.STATS_BYTES)
        dev_places = cuda.cuda_malloc(self.places_bytes)
        dev_transitions = cuda.cuda_malloc(self.places_bytes)
        dev_stats = cuda.cuda_malloc(self.STATS_BYTES)
        host_places.write_array(self.initial)
        app.machine.cpu.stream(self.places_bytes, CPU_STREAM_RATE, label="init")
        cuda.cuda_memcpy_h2d(dev_places, host_places, self.places_bytes)
        host_places.write_array(self.transitions)
        app.machine.cpu.stream(self.places_bytes, CPU_STREAM_RATE, label="init")
        cuda.cuda_memcpy_h2d(dev_transitions, host_places, self.places_bytes)
        samples = []
        for iteration in range(self.iterations):
            cuda.launch(
                PNS_KERNEL,
                places=dev_places,
                transitions=dev_transitions,
                stats=dev_stats,
                n_places=self.n_places,
                iteration=iteration,
            )
            cuda.cuda_thread_synchronize()
            if (iteration + 1) % self.sample_interval == 0:
                cuda.cuda_memcpy_d2h(host_stats, dev_stats, self.STATS_BYTES)
                samples.append(
                    self._sample(app, host_stats.read_bytes(self.STATS_BYTES))
                )
        cuda.cuda_thread_synchronize()
        cuda.cuda_memcpy_d2h(host_places, dev_places, self.places_bytes)
        final = host_places.read_array("i4", self.n_places)
        return {
            "samples": np.asarray(samples, dtype=np.int64),
            "final_marking": final,
        }

    def run_gmac(self, app, gmac):
        places = gmac.alloc(self.places_bytes, name="places")
        transitions = gmac.alloc(self.places_bytes, name="transitions")
        stats = gmac.alloc(self.STATS_BYTES, name="stats")
        places.write_array(self.initial)
        app.machine.cpu.stream(self.places_bytes, CPU_STREAM_RATE, label="init")
        transitions.write_array(self.transitions)
        app.machine.cpu.stream(self.places_bytes, CPU_STREAM_RATE, label="init")
        samples = []
        for iteration in range(self.iterations):
            gmac.call(
                PNS_KERNEL,
                places=places,
                transitions=transitions,
                stats=stats,
                n_places=self.n_places,
                iteration=iteration,
            )
            gmac.sync()
            if (iteration + 1) % self.sample_interval == 0:
                samples.append(
                    self._sample(app, stats.read_bytes(self.STATS_BYTES))
                )
        final = places.read_array("i4", self.n_places)
        return {
            "samples": np.asarray(samples, dtype=np.int64),
            "final_marking": final,
        }
