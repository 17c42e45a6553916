"""tpacf — Two Point Angular Correlation Function (Table 2).

"TPACF is an equation used here as a way to measure the probability of
finding an astronomical body at a given angular distance from another."
The benchmark matters twice in the evaluation:

* in Figures 7/8/10 as a GPU-heavy workload with a modest CPU phase, and
* in **Figure 12** as the pathological case for small rolling sizes:
  "The tpacf code initializes shared data structures in several passes.
  Hence, memory blocks of shared objects are written only once by the CPU
  before their state is set to read-only and they are transferred to
  accelerator memory" — so with a small rolling size the input is
  continuously re-transferred until blocks are large enough to be
  overwritten by all passes before eviction, and the time drops abruptly
  once the data set fits in the rolling size.

The initialisation here works in **tiles** of :data:`TILE_BYTES`, applying
:data:`PASSES` read-modify-write passes to each tile before moving on; the
rolling-size-dependent thrashing then emerges from the protocol itself.
"""

import numpy as np

from repro.util.units import MB
from repro.analysis.contracts import access_modes
from repro.cuda.kernels import Kernel
from repro.workloads.base import Workload, ValueMemo, memoized_input

CPU_STREAM_RATE = 4.0e9

#: Initialisation tile: the Figure 12 critical block size is TILE/R —
#: 1MB for rolling size 1, 512KB for rolling size 2 (the paper's testbed
#: observed 4MB/2MB with its larger inputs; the ratio is what matters).
#: The default adaptive rolling size (2 allocations x 2 = 4 blocks of
#: 256KB) exactly covers one tile, so the default configuration does not
#: thrash — matching tpacf's ~1.0x in Figure 7.
TILE_BYTES = 1 * MB

#: Number of initialisation passes over each tile.
PASSES = 4

#: Angular histogram bins.
BINS = 64

#: Kernel subset stride (the simulated kernel histograms every Nth body;
#: the cost model charges the full correlation work).
SUBSET_STRIDE = 768

#: Abstract work units per body for the pairwise correlation.
WORK_PER_POINT = 8000


def init_pass(rows, pass_index):
    """One initialisation pass over an (n, 4) float32 tile, in place."""
    if pass_index == 0:
        return  # pass 0 wrote the raw values
    if pass_index == 1:
        rows[:, :3] = rows[:, :3] * np.float32(2.0) - np.float32(1.0)
    elif pass_index == 2:
        norms = np.sqrt((rows[:, :3] ** 2).sum(axis=1, keepdims=True))
        rows[:, :3] /= np.maximum(norms, np.float32(1e-6))
    elif pass_index == 3:
        rows[:, 3] = np.float32(1.0)
    else:
        raise ValueError(f"no pass {pass_index}")


def angular_histogram(rows):
    """Histogram of pairwise angular separations over the kernel subset."""
    subset = rows[::SUBSET_STRIDE, :3].astype(np.float64)
    dots = np.clip(subset @ subset.T, -1.0, 1.0)
    upper = np.triu_indices(len(subset), k=1)
    angles = np.arccos(dots[upper])
    histogram, _ = np.histogram(angles, bins=BINS, range=(0.0, np.pi))
    return histogram.astype(np.int64)


_HISTOGRAM_MEMO = ValueMemo()


def _tpacf_fn(gpu, points, bins, n_points):
    rows = gpu.view(points, "f4", 4 * n_points).reshape(n_points, 4)
    cached = _HISTOGRAM_MEMO.lookup(n_points, (rows,))
    if cached is None:
        cached = _HISTOGRAM_MEMO.store(
            n_points, (rows,), (angular_histogram(rows),)
        )
    gpu.view(bins, "i8", BINS)[:] = cached[0]


def _tpacf_batched(gpu, launches):
    """Per-launch replay (tpacf launches once per run)."""
    for args in launches:
        _tpacf_fn(gpu, **args)


TPACF_KERNEL = Kernel(
    "tpacf",
    _tpacf_fn,
    cost=lambda points, bins, n_points: (
        WORK_PER_POINT * n_points,
        16 * n_points,
    ),
    writes=("bins",),
    batched_fn=_tpacf_batched,
)


@access_modes(points="ro", bins="wo")
class Tpacf(Workload):
    name = "tpacf"
    description = "two-point angular correlation with multi-pass CPU init"

    OUTPUT = "tpacf-histogram.out"

    def __init__(self, n_points=524288, seed=7):
        super().__init__(seed=seed)
        self.n_points = n_points
        self.raw = memoized_input(
            ("tpacf", n_points, seed),
            lambda: np.random.default_rng(seed)
            .random((n_points, 4))
            .astype(np.float32),
        )

    @property
    def points_bytes(self):
        return 16 * self.n_points

    @property
    def bins_bytes(self):
        return 8 * BINS

    def _init_snapshots(self):
        """Point rows after each initialisation pass, computed once.

        The per-pass values are a pure function of the raw input, while a
        figure sweep runs the same configuration dozens of times (Figure
        12 sweeps rolling sizes alone); memoizing the snapshots lets every
        run *write* the identical per-pass bytes without recomputing them
        — the stores (and hence all protocol traffic) are unchanged.
        """
        def build():
            snapshots = []
            rows = self.raw.copy()
            for pass_index in range(PASSES):
                init_pass(rows, pass_index)
                snapshots.append(rows.copy())
            return tuple(snapshots)

        return memoized_input(
            ("tpacf-init", self.n_points, self.seed), build
        )

    def _initialized_points(self):
        return self._init_snapshots()[-1]

    def reference(self):
        return {self.OUTPUT: angular_histogram(self._initialized_points())}

    def _output(self, app):
        raw = app.fs.data_of(self.OUTPUT)
        return {self.OUTPUT: np.frombuffer(raw, dtype=np.int64)}

    def _tiled_init(self, app, ptr):
        """Initialise the point set tile by tile, PASSES passes per tile.

        Every pass rewrites the tile through plain CPU stores; under
        rolling-update each rewrite of an already-evicted block re-dirties
        and eventually re-transfers it — the Figure 12 mechanism.
        """
        row_bytes = 16
        rows_per_tile = TILE_BYTES // row_bytes
        snapshots = self._init_snapshots()
        for start in range(0, self.n_points, rows_per_tile):
            stop = min(start + rows_per_tile, self.n_points)
            for pass_index in range(PASSES):
                tile = snapshots[pass_index][start:stop]
                ptr.write_array(tile, offset=row_bytes * start)
                app.machine.cpu.stream(
                    tile.nbytes, CPU_STREAM_RATE, label=f"pass{pass_index}"
                )

    def run_cuda(self, app):
        cuda = app.cuda()
        host_points = app.process.malloc(self.points_bytes)
        host_bins = app.process.malloc(self.bins_bytes)
        dev_points = cuda.cuda_malloc(self.points_bytes)
        dev_bins = cuda.cuda_malloc(self.bins_bytes)
        self._tiled_init(app, host_points)
        cuda.cuda_memcpy_h2d(dev_points, host_points, self.points_bytes)
        cuda.launch(
            TPACF_KERNEL,
            points=dev_points,
            bins=dev_bins,
            n_points=self.n_points,
        )
        cuda.cuda_thread_synchronize()
        cuda.cuda_memcpy_d2h(host_bins, dev_bins, self.bins_bytes)
        with app.fs.open(self.OUTPUT, "w") as handle:
            app.libc.write(handle, int(host_bins), self.bins_bytes)
        return self._output(app)

    def run_gmac(self, app, gmac):
        points = gmac.alloc(self.points_bytes, name="points")
        bins = gmac.alloc(self.bins_bytes, name="bins")
        self._tiled_init(app, points)
        gmac.call(
            TPACF_KERNEL, points=points, bins=bins, n_points=self.n_points
        )
        gmac.sync()
        with app.fs.open(self.OUTPUT, "w") as handle:
            app.libc.write(handle, int(bins), self.bins_bytes)
        return self._output(app)
