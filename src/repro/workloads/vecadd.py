"""The Figure 11 micro-benchmark: element-wise vector addition.

"We use a micro-benchmark that adds up two 8 million elements vectors to
show how the execution time varies for different memory block size values"
(Section 5.2).  The CPU produces both input vectors sequentially (which,
under rolling-update, triggers one write fault per block and eager eviction
of older blocks), the kernel adds them on the accelerator, and the CPU then
consumes the whole result (one read fault + fetch per block).

The experiment extracts two phase times per block size:

* **CPU to GPU time** — from the start of initialisation until the last
  host-to-device transfer has completed, minus the pure compute cost of
  producing the data.  Small blocks pay per-fault overhead (signal +
  O(log n) tree search); large blocks lose the eager overlap because each
  eviction must wait for the previous transfer (the 64KB anomaly).
* **GPU to CPU time** — the result read-back, paying one fault + one
  block transfer per block.
"""

import numpy as np

from repro.analysis.contracts import access_modes
from repro.cuda.kernels import Kernel
from repro.workloads.base import Workload, memoized_input

#: Rate at which the CPU inner loop produces/consumes vector elements; a
#: cache-resident store loop streams much faster than the PCIe bus moves
#: data, which is what makes eager eviction worth overlapping.
CPU_STREAM_RATE = 2.0e9

#: Chunk in which the CPU production loop advances (a few thousand loop
#: iterations between progress points).
PRODUCE_CHUNK = 16 * 1024


def _vecadd_fn(gpu, a, b, c, n):
    va = gpu.view(a, "f4", n)
    vb = gpu.view(b, "f4", n)
    vc = gpu.view(c, "f4", n)
    np.add(va, vb, out=vc)


#: One add + three 4-byte streams per element.
VECADD = Kernel(
    "vecadd",
    _vecadd_fn,
    cost=lambda a, b, c, n: (n, 12 * n),
    writes=("c",),
)


@access_modes(a="ro", b="ro", c="wo")
class VectorAdd(Workload):
    """Two input vectors produced on the CPU, summed on the accelerator."""

    name = "vecadd"
    description = "element-wise addition of two large vectors (Section 5.2)"

    def __init__(self, elements=2 * 1024 * 1024, seed=7):
        super().__init__(seed=seed)
        self.elements = elements
        def build():
            rng = np.random.default_rng(seed)
            a = rng.random(elements).astype(np.float32)
            b = rng.random(elements).astype(np.float32)
            return a, b

        self.a, self.b = memoized_input(("vecadd", elements, seed), build)

    @property
    def vector_bytes(self):
        return 4 * self.elements

    def reference(self):
        return {"c": self.a + self.b}

    # -- variants ----------------------------------------------------------------

    def _produce(self, app, ptr, values):
        """Sequential element production: compute a chunk, store a chunk.

        The source array is viewed, never serialized: each stored chunk is
        a memoryview slice flowing into the simulated memory's numpy
        backing with no intermediate ``bytes``.
        """
        raw = memoryview(values).cast("B")
        for offset in range(0, len(raw), PRODUCE_CHUNK):
            chunk = raw[offset:offset + PRODUCE_CHUNK]
            app.machine.cpu.stream(len(chunk), CPU_STREAM_RATE, label="init")
            ptr.write_bytes(chunk, offset=offset)

    def _consume(self, app, ptr, nbytes):
        """Sequential result consumption; returns the values as float32.

        Chunks land directly in one preallocated output array
        (:meth:`~repro.os.process.Ptr.read_into`); the only copy is the
        one that materializes the result itself.
        """
        out = np.empty(nbytes, dtype=np.uint8)
        for offset in range(0, nbytes, PRODUCE_CHUNK):
            size = min(PRODUCE_CHUNK, nbytes - offset)
            ptr.read_into(out[offset:offset + size], offset=offset)
            app.machine.cpu.stream(size, CPU_STREAM_RATE, label="consume")
        return out.view(np.float32)

    def run_cuda(self, app):
        cuda = app.cuda()
        nbytes = self.vector_bytes
        host_a = app.process.malloc(nbytes)
        host_b = app.process.malloc(nbytes)
        host_c = app.process.malloc(nbytes)
        dev_a = cuda.cuda_malloc(nbytes)
        dev_b = cuda.cuda_malloc(nbytes)
        dev_c = cuda.cuda_malloc(nbytes)
        self._produce(app, host_a, self.a)
        self._produce(app, host_b, self.b)
        cuda.cuda_memcpy_h2d(dev_a, host_a, nbytes)
        cuda.cuda_memcpy_h2d(dev_b, host_b, nbytes)
        cuda.launch(VECADD, a=dev_a, b=dev_b, c=dev_c, n=self.elements)
        cuda.cuda_thread_synchronize()
        cuda.cuda_memcpy_d2h(host_c, dev_c, nbytes)
        return {"c": self._consume(app, host_c, nbytes)}

    def run_cuda_db(self, app, chunk_bytes=256 * 1024):
        """The hand-tuned double-buffered baseline (Section 2.2).

        "Double buffering can help to alleviate this situation by
        transferring parts of the data structure while other parts are
        still in use ... Synchronization code is necessary to prevent
        overwriting system memory that is still in use by an ongoing DMA
        transfer."  This is that code: two staging buffers, asynchronous
        chunk transfers overlapped with production, and the explicit
        synchronization the paper calls a programmability cost — GMAC's
        rolling-update achieves the same overlap with none of it.
        """
        from repro.cuda.driver import Stream

        cuda = app.cuda()
        clock = app.machine.clock
        nbytes = self.vector_bytes
        stream = Stream("upload")
        staging = [app.process.malloc(chunk_bytes) for _ in range(2)]
        in_flight = [None, None]
        dev_a = cuda.cuda_malloc(nbytes)
        dev_b = cuda.cuda_malloc(nbytes)
        dev_c = cuda.cuda_malloc(nbytes)
        host_c = app.process.malloc(nbytes)

        for device, values in ((dev_a, self.a), (dev_b, self.b)):
            raw = memoryview(values).cast("B")
            for index, offset in enumerate(range(0, nbytes, chunk_bytes)):
                buffer = index % 2
                # The synchronization the paper warns about: the staging
                # buffer must not be overwritten mid-DMA.
                if in_flight[buffer] is not None:
                    clock.advance_to(in_flight[buffer].finish)
                chunk = raw[offset:offset + chunk_bytes]
                app.machine.cpu.stream(
                    len(chunk), CPU_STREAM_RATE, label="init"
                )
                staging[buffer].write_bytes(chunk)
                in_flight[buffer] = cuda.cuda_memcpy_h2d_async(
                    device + offset, staging[buffer], len(chunk), stream
                )
        cuda.launch(
            VECADD, stream=stream, a=dev_a, b=dev_b, c=dev_c, n=self.elements
        )
        cuda.cuda_thread_synchronize()
        cuda.cuda_memcpy_d2h(host_c, dev_c, nbytes)
        return {"c": self._consume(app, host_c, nbytes)}

    def run_gmac(self, app, gmac):
        nbytes = self.vector_bytes
        clock = app.machine.clock
        a = gmac.alloc(nbytes, name="a")
        b = gmac.alloc(nbytes, name="b")
        c = gmac.alloc(nbytes, name="c")

        init_start = clock.now
        self._produce(app, a, self.a)
        self._produce(app, b, self.b)
        init_end = clock.now
        completion = gmac.call(VECADD, a=a, b=b, c=c, n=self.elements)
        h2d_done = completion.start  # the launch waited for the H2D queue
        gmac.sync()
        sync_end = clock.now
        result = self._consume(app, c, nbytes)
        read_end = clock.now

        ideal_compute = 2 * nbytes / CPU_STREAM_RATE
        self.phases = {
            "cpu_to_gpu_s": max(0.0, h2d_done - init_start - ideal_compute),
            "gpu_to_cpu_s": max(
                0.0, (read_end - sync_end) - nbytes / CPU_STREAM_RATE
            ),
            "init_s": init_end - init_start,
            "kernel_wait_s": sync_end - init_end,
        }
        return {"c": result}
