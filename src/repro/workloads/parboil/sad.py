"""sad — Sum of Absolute Differences (Table 2).

"Sum of absolute differences kernel, used in MPEG video encoders", based on
full-pixel motion estimation: for every 16x16 macroblock of the current
frame, the SAD against the reference frame is evaluated at every offset of
a search window.  Both frames come from disk (I/O in, like a video
encoder's frame pipeline) and the SAD table goes back to disk.
"""

import numpy as np

from repro.cuda.kernels import Kernel
from repro.workloads.base import Workload, ValueMemo, memoized_input

CPU_STREAM_RATE = 2.0e9

MACROBLOCK = 16


def sad_reference(current, reference, search):
    """SAD of each macroblock at every (dy, dx) in the search window."""
    height, width = current.shape
    blocks_y = height // MACROBLOCK
    blocks_x = width // MACROBLOCK
    result = np.zeros((blocks_y, blocks_x, search, search), dtype=np.int32)
    padded = np.pad(
        reference.astype(np.int32),
        ((0, search), (0, search)),
        mode="edge",
    )
    current32 = current.astype(np.int32)
    for dy in range(search):
        for dx in range(search):
            shifted = padded[dy:dy + height, dx:dx + width]
            diff = np.abs(current32 - shifted)
            per_block = diff.reshape(
                blocks_y, MACROBLOCK, blocks_x, MACROBLOCK
            ).sum(axis=(1, 3))
            result[:, :, dy, dx] = per_block
    return result


_SAD_MEMO = ValueMemo()


def sad_table(current, reference, search):
    """:func:`sad_reference`, flattened, once per distinct frame bytes.

    The kernel calls it on its device views of the frames and the oracle
    on the host frames they were read from; both get one evaluation.
    """
    height, width = current.shape
    return _SAD_MEMO.evaluate(
        (width, height, search), (current, reference),
        lambda: (sad_reference(current, reference, search).ravel(),),
    )[0]


def _sad_fn(gpu, current, reference, sads, width, height, search):
    cur = gpu.view(current, "u1", width * height).reshape(height, width)
    ref = gpu.view(reference, "u1", width * height).reshape(height, width)
    blocks = (height // MACROBLOCK) * (width // MACROBLOCK)
    out = gpu.view(sads, "i4", blocks * search * search)
    out[:] = sad_table(cur, ref, search)


#: ~3 ops per pixel per search offset.
SAD_KERNEL = Kernel(
    "sad",
    _sad_fn,
    cost=lambda current, reference, sads, width, height, search: (
        3 * width * height * search * search,
        2 * width * height + 4 * (width // 16) * (height // 16) * search ** 2,
    ),
    writes=("sads",),
)


class SumAbsoluteDifferences(Workload):
    name = "sad"
    description = "full-pixel motion estimation SADs for H.264 encoding"

    CURRENT_FILE = "sad-current.yuv"
    REFERENCE_FILE = "sad-reference.yuv"
    OUTPUT = "sad-table.out"

    def __init__(self, width=512, height=512, search=8, seed=7):
        super().__init__(seed=seed)
        if width % MACROBLOCK or height % MACROBLOCK:
            raise ValueError("frame dimensions must be multiples of 16")
        self.width = width
        self.height = height
        self.search = search
        def build():
            rng = np.random.default_rng(seed)
            current = rng.integers(0, 256, size=(height, width), dtype=np.uint8)
            reference_frame = np.clip(
                current.astype(np.int16)
                + rng.integers(-12, 13, size=(height, width)),
                0,
                255,
            ).astype(np.uint8)
            return current, reference_frame

        self.current, self.reference_frame = memoized_input(
            ("sad", width, height, seed), build
        )

    @property
    def frame_bytes(self):
        return self.width * self.height

    @property
    def sads_bytes(self):
        blocks = (self.width // MACROBLOCK) * (self.height // MACROBLOCK)
        return 4 * blocks * self.search ** 2

    def prepare(self, app):
        app.fs.create(self.CURRENT_FILE, self.current.tobytes())
        app.fs.create(self.REFERENCE_FILE, self.reference_frame.tobytes())

    def reference(self):
        return {self.OUTPUT: sad_table(
            self.current, self.reference_frame, self.search
        )}

    def _output(self, app):
        raw = app.fs.data_of(self.OUTPUT)
        return {self.OUTPUT: np.frombuffer(raw, dtype=np.int32)}

    def _kernel_args(self, current, reference, sads):
        return dict(
            current=current,
            reference=reference,
            sads=sads,
            width=self.width,
            height=self.height,
            search=self.search,
        )

    def run_cuda(self, app):
        cuda = app.cuda()
        host_cur = app.process.malloc(self.frame_bytes)
        host_ref = app.process.malloc(self.frame_bytes)
        host_sads = app.process.malloc(self.sads_bytes)
        dev_cur = cuda.cuda_malloc(self.frame_bytes)
        dev_ref = cuda.cuda_malloc(self.frame_bytes)
        dev_sads = cuda.cuda_malloc(self.sads_bytes)
        with app.fs.open(self.CURRENT_FILE) as handle:
            app.libc.read(handle, int(host_cur), self.frame_bytes)
        with app.fs.open(self.REFERENCE_FILE) as handle:
            app.libc.read(handle, int(host_ref), self.frame_bytes)
        cuda.cuda_memcpy_h2d(dev_cur, host_cur, self.frame_bytes)
        cuda.cuda_memcpy_h2d(dev_ref, host_ref, self.frame_bytes)
        cuda.launch(SAD_KERNEL, **self._kernel_args(dev_cur, dev_ref, dev_sads))
        cuda.cuda_thread_synchronize()
        cuda.cuda_memcpy_d2h(host_sads, dev_sads, self.sads_bytes)
        with app.fs.open(self.OUTPUT, "w") as handle:
            app.libc.write(handle, int(host_sads), self.sads_bytes)
        return self._output(app)

    def run_gmac(self, app, gmac):
        current = gmac.alloc(self.frame_bytes, name="current")
        reference = gmac.alloc(self.frame_bytes, name="reference")
        sads = gmac.alloc(self.sads_bytes, name="sads")
        with app.fs.open(self.CURRENT_FILE) as handle:
            app.libc.read(handle, int(current), self.frame_bytes)
        with app.fs.open(self.REFERENCE_FILE) as handle:
            app.libc.read(handle, int(reference), self.frame_bytes)
        gmac.call(SAD_KERNEL, **self._kernel_args(current, reference, sads))
        gmac.sync()
        with app.fs.open(self.OUTPUT, "w") as handle:
            app.libc.write(handle, int(sads), self.sads_bytes)
        return self._output(app)
