"""mri-fhd — MRI reconstruction, image-specific matrix FHd (Table 2).

The benchmark is I/O-read heavy: the k-space sample file is read from disk
straight into shared memory (exercising GMAC's interposed, block-chunked
``read()``), the kernel reduces over all samples per voxel, and the small
FHd vectors are post-processed by the CPU and written back to disk.
Figure 10 singles out mri-fhd (with mri-q) as the benchmarks with "high
levels of I/O read activities" that would benefit from peer DMA.
"""

import numpy as np

from repro.analysis.contracts import access_modes
from repro.cuda.kernels import Kernel
from repro.workloads.base import Workload, ValueMemo, memoized_input
from repro.workloads.parboil.mri_common import (
    fhd_reference,
    make_samples,
    make_voxels,
)

CPU_STREAM_RATE = 2.0e9

_FHD_MEMO = ValueMemo()


def fhd_values(samples, voxels):
    """:func:`fhd_reference`'s (rFhD, iFhD) of ``(kx, ky, kz, phiR,
    phiI)`` sample rows, once per distinct input bytes.

    The kernel calls it on its device views and the oracle on the host
    arrays they were read from; both get one evaluation.
    """
    return _FHD_MEMO.evaluate(
        (samples.shape[0], voxels.shape[0]), (samples, voxels),
        lambda: fhd_reference(
            samples[:, :3], samples[:, 3], samples[:, 4], voxels
        ),
    )


def _fhd_fn(gpu, samples, voxels, r_out, i_out, n_samples, n_voxels):
    rows = gpu.view(samples, "f4", 5 * n_samples).reshape(n_samples, 5)
    coords = gpu.view(voxels, "f4", 3 * n_voxels).reshape(n_voxels, 3)
    r_fhd, i_fhd = fhd_values(rows, coords)
    gpu.view(r_out, "f4", n_voxels)[:] = r_fhd
    gpu.view(i_out, "f4", n_voxels)[:] = i_fhd


def _fhd_batched(gpu, launches):
    """Per-launch replay (FHd is a one-shot kernel)."""
    for args in launches:
        _fhd_fn(gpu, **args)


#: ~14 flops per (sample, voxel) pair (dot product, sincos, 4 MACs).
FHD_KERNEL = Kernel(
    "mri-fhd",
    _fhd_fn,
    cost=lambda samples, voxels, r_out, i_out, n_samples, n_voxels: (
        14 * n_samples * n_voxels,
        20 * n_samples + 8 * n_voxels,
    ),
    writes=("r_out", "i_out"),
    batched_fn=_fhd_batched,
)


@access_modes(samples="ro", voxels="ro", rFhD="wo", iFhD="wo")
class MriFhd(Workload):
    name = "mri-fhd"
    description = "image-specific matrix FHd for 3D MRI reconstruction"

    SAMPLES_FILE = "mri-fhd-samples.in"
    VOXELS_FILE = "mri-fhd-voxels.in"
    OUTPUT = "mri-fhd.out"

    def __init__(self, n_samples=32768, n_voxels=256, seed=7):
        super().__init__(seed=seed)
        self.n_samples = n_samples
        self.n_voxels = n_voxels
        def build():
            rng = np.random.default_rng(seed)
            return make_samples(rng, n_samples), make_voxels(rng, n_voxels)

        self.samples, self.voxels = memoized_input(
            ("mrifhd", n_samples, n_voxels, seed), build
        )

    @property
    def samples_bytes(self):
        return 20 * self.n_samples

    @property
    def voxels_bytes(self):
        return 12 * self.n_voxels

    def prepare(self, app):
        app.fs.create(self.SAMPLES_FILE, self.samples.tobytes())
        app.fs.create(self.VOXELS_FILE, self.voxels.tobytes())

    def reference(self):
        r_fhd, i_fhd = fhd_values(self.samples, self.voxels)
        return {self.OUTPUT: np.concatenate([r_fhd, i_fhd])}

    def _output(self, app):
        raw = app.fs.data_of(self.OUTPUT)
        return {self.OUTPUT: np.frombuffer(raw, dtype=np.float32)}

    def _kernel_args(self, samples, voxels, r_out, i_out):
        return dict(
            samples=samples,
            voxels=voxels,
            r_out=r_out,
            i_out=i_out,
            n_samples=self.n_samples,
            n_voxels=self.n_voxels,
        )

    def run_cuda(self, app):
        cuda = app.cuda()
        out_bytes = 4 * self.n_voxels
        host_samples = app.process.malloc(self.samples_bytes)
        host_voxels = app.process.malloc(self.voxels_bytes)
        host_out = app.process.malloc(2 * out_bytes)
        dev = {
            name: cuda.cuda_malloc(size)
            for name, size in (
                ("samples", self.samples_bytes),
                ("voxels", self.voxels_bytes),
                ("r", out_bytes),
                ("i", out_bytes),
            )
        }
        with app.fs.open(self.SAMPLES_FILE) as handle:
            app.libc.read(handle, int(host_samples), self.samples_bytes)
        with app.fs.open(self.VOXELS_FILE) as handle:
            app.libc.read(handle, int(host_voxels), self.voxels_bytes)
        cuda.cuda_memcpy_h2d(dev["samples"], host_samples, self.samples_bytes)
        cuda.cuda_memcpy_h2d(dev["voxels"], host_voxels, self.voxels_bytes)
        cuda.launch(
            FHD_KERNEL,
            **self._kernel_args(dev["samples"], dev["voxels"], dev["r"], dev["i"]),
        )
        cuda.cuda_thread_synchronize()
        cuda.cuda_memcpy_d2h(host_out, dev["r"], out_bytes)
        cuda.cuda_memcpy_d2h(host_out + out_bytes, dev["i"], out_bytes)
        app.machine.cpu.stream(2 * out_bytes, CPU_STREAM_RATE, label="post")
        with app.fs.open(self.OUTPUT, "w") as handle:
            app.libc.write(handle, int(host_out), 2 * out_bytes)
        return self._output(app)

    def run_gmac(self, app, gmac):
        out_bytes = 4 * self.n_voxels
        samples = gmac.alloc(self.samples_bytes, name="samples")
        voxels = gmac.alloc(self.voxels_bytes, name="voxels")
        r_out = gmac.alloc(out_bytes, name="rFhD")
        i_out = gmac.alloc(out_bytes, name="iFhD")
        # read() straight into shared memory: the paper's peer-DMA use case.
        with app.fs.open(self.SAMPLES_FILE) as handle:
            app.libc.read(handle, int(samples), self.samples_bytes)
        with app.fs.open(self.VOXELS_FILE) as handle:
            app.libc.read(handle, int(voxels), self.voxels_bytes)
        gmac.call(FHD_KERNEL, **self._kernel_args(samples, voxels, r_out, i_out))
        gmac.sync()
        app.machine.cpu.stream(2 * out_bytes, CPU_STREAM_RATE, label="post")
        with app.fs.open(self.OUTPUT, "w") as handle:
            app.libc.write(handle, int(r_out), out_bytes)
        with app.fs.open(self.OUTPUT, "a") as handle:
            app.libc.write(handle, int(i_out), out_bytes)
        return self._output(app)
