"""mri-q — MRI reconstruction, scanner-configuration matrix Q (Table 2).

Like mri-fhd the input comes from disk, but the output (the Q matrix over
all voxels) is large and the CPU only post-processes a *prefix* of it.
Rolling-update then fetches just the touched blocks, while lazy-update
transfers the whole object on first touch — the fine-grained-sharing win
Figure 8 shows for mri-q ("fine-grained handling of shared objects in
rolling-update avoids some unnecessary data transfers").
"""

import numpy as np

from repro.analysis.contracts import access_modes
from repro.cuda.kernels import Kernel
from repro.workloads.base import Workload, ValueMemo, memoized_input
from repro.workloads.parboil.mri_common import (
    q_reference,
    make_voxels,
)

CPU_STREAM_RATE = 2.0e9

_Q_MEMO = ValueMemo()


def q_values(k_coords, phi_mag, voxels):
    """:func:`q_reference`'s (rQ, iQ), once per distinct input bytes.

    The kernel calls it on its device views and the oracle on the host
    arrays they were read from; both get one evaluation.
    """
    return _Q_MEMO.evaluate(
        (k_coords.shape[0], voxels.shape[0]), (k_coords, phi_mag, voxels),
        lambda: q_reference(k_coords, phi_mag, voxels),
    )


def _q_fn(gpu, k_coords, phi_mag, voxels, q_out, n_samples, n_voxels):
    coords_k = gpu.view(k_coords, "f4", 3 * n_samples).reshape(n_samples, 3)
    magnitude = gpu.view(phi_mag, "f4", n_samples)
    coords_v = gpu.view(voxels, "f4", 3 * n_voxels).reshape(n_voxels, 3)
    r_q, i_q = q_values(coords_k, magnitude, coords_v)
    out = gpu.view(q_out, "f4", 2 * n_voxels)
    out[:n_voxels] = r_q
    out[n_voxels:] = i_q


def _q_batched(gpu, launches):
    """Per-launch replay (Q is a one-shot kernel; batches are length 1).

    Identical back-to-back launches keep the single-pass semantics of
    replaying each in order.
    """
    for args in launches:
        _q_fn(gpu, **args)


#: ~12 flops per (sample, voxel) pair.
Q_KERNEL = Kernel(
    "mri-q",
    _q_fn,
    cost=lambda k_coords, phi_mag, voxels, q_out, n_samples, n_voxels: (
        12 * n_samples * n_voxels,
        16 * n_samples + 8 * n_voxels,
    ),
    writes=("q_out",),
    batched_fn=_q_batched,
)


@access_modes(**{"k-coords": "ro", "phi-mag": "ro", "voxels": "ro",
                 "Q": "wo", "out": "none"})
class MriQ(Workload):
    name = "mri-q"
    description = "scanner-configuration matrix Q for 3D MRI reconstruction"

    TRAJECTORY_FILE = "mri-q-trajectory.in"
    VOXELS_FILE = "mri-q-voxels.in"
    OUTPUT = "mri-q.out"

    def __init__(self, n_samples=256, n_voxels=65536, read_fraction=0.25,
                 seed=7):
        super().__init__(seed=seed)
        self.n_samples = n_samples
        self.n_voxels = n_voxels
        self.read_fraction = read_fraction
        def build():
            rng = np.random.default_rng(seed)
            k_coords = make_voxels(rng, n_samples)  # same row layout
            phi_mag = rng.random(n_samples).astype(np.float32)
            voxels = make_voxels(rng, n_voxels)
            return k_coords, phi_mag, voxels

        self.k_coords, self.phi_mag, self.voxels = memoized_input(
            ("mriq", n_samples, n_voxels, seed), build
        )

    @property
    def trajectory_bytes(self):
        return 16 * self.n_samples  # 3 coords + magnitude per sample

    @property
    def voxels_bytes(self):
        return 12 * self.n_voxels

    @property
    def q_bytes(self):
        return 8 * self.n_voxels

    @property
    def _prefix_voxels(self):
        return int(self.n_voxels * self.read_fraction)

    def prepare(self, app):
        trajectory = np.hstack([self.k_coords, self.phi_mag[:, None]])
        app.fs.create(self.TRAJECTORY_FILE, trajectory.astype("f4").tobytes())
        app.fs.create(self.VOXELS_FILE, self.voxels.tobytes())

    def reference(self):
        r_q, _ = q_values(self.k_coords, self.phi_mag, self.voxels)
        prefix = self._prefix_voxels
        return {self.OUTPUT: np.abs(r_q[:prefix])}

    def _output(self, app):
        raw = app.fs.data_of(self.OUTPUT)
        return {self.OUTPUT: np.frombuffer(raw, dtype=np.float32)}

    def _kernel_args(self, k_coords, phi_mag, voxels, q_out):
        return dict(
            k_coords=k_coords,
            phi_mag=phi_mag,
            voxels=voxels,
            q_out=q_out,
            n_samples=self.n_samples,
            n_voxels=self.n_voxels,
        )

    def _post_process(self, app, raw_prefix):
        """CPU phase: magnitude of the real part over the output prefix."""
        values = np.abs(np.frombuffer(raw_prefix, dtype=np.float32))
        app.machine.cpu.stream(len(raw_prefix), CPU_STREAM_RATE, label="post")
        return values.astype(np.float32)

    def run_cuda(self, app):
        cuda = app.cuda()
        prefix_bytes = 4 * self._prefix_voxels
        host_traj = app.process.malloc(self.trajectory_bytes)
        host_voxels = app.process.malloc(self.voxels_bytes)
        host_q = app.process.malloc(self.q_bytes)
        host_out = app.process.malloc(prefix_bytes)
        dev_k = cuda.cuda_malloc(12 * self.n_samples)
        dev_mag = cuda.cuda_malloc(4 * self.n_samples)
        dev_voxels = cuda.cuda_malloc(self.voxels_bytes)
        dev_q = cuda.cuda_malloc(self.q_bytes)
        with app.fs.open(self.TRAJECTORY_FILE) as handle:
            app.libc.read(handle, int(host_traj), self.trajectory_bytes)
        with app.fs.open(self.VOXELS_FILE) as handle:
            app.libc.read(handle, int(host_voxels), self.voxels_bytes)
        rows = host_traj.read_array("f4", 4 * self.n_samples).reshape(-1, 4)
        scratch = app.process.malloc(self.trajectory_bytes)
        scratch.write_array(np.ascontiguousarray(rows[:, :3]))
        cuda.cuda_memcpy_h2d(dev_k, scratch, 12 * self.n_samples)
        scratch.write_array(np.ascontiguousarray(rows[:, 3]))
        cuda.cuda_memcpy_h2d(dev_mag, scratch, 4 * self.n_samples)
        cuda.cuda_memcpy_h2d(dev_voxels, host_voxels, self.voxels_bytes)
        cuda.launch(
            Q_KERNEL, **self._kernel_args(dev_k, dev_mag, dev_voxels, dev_q)
        )
        cuda.cuda_thread_synchronize()
        # The hand-tuned version is conservative: it copies the whole Q
        # matrix back even though only a prefix is post-processed.
        cuda.cuda_memcpy_d2h(host_q, dev_q, self.q_bytes)
        processed = self._post_process(app, host_q.read_bytes(prefix_bytes))
        host_out.write_array(processed)
        with app.fs.open(self.OUTPUT, "w") as handle:
            app.libc.write(handle, int(host_out), prefix_bytes)
        return self._output(app)

    def run_gmac(self, app, gmac):
        prefix_bytes = 4 * self._prefix_voxels
        k_coords = gmac.alloc(12 * self.n_samples, name="k-coords")
        phi_mag = gmac.alloc(4 * self.n_samples, name="phi-mag")
        voxels = gmac.alloc(self.voxels_bytes, name="voxels")
        q_out = gmac.alloc(self.q_bytes, name="Q")
        out = gmac.alloc(prefix_bytes, name="out")
        scratch = app.process.malloc(self.trajectory_bytes)
        with app.fs.open(self.TRAJECTORY_FILE) as handle:
            app.libc.read(handle, int(scratch), self.trajectory_bytes)
        rows = scratch.read_array("f4", 4 * self.n_samples).reshape(-1, 4)
        k_coords.write_array(np.ascontiguousarray(rows[:, :3]))
        phi_mag.write_array(np.ascontiguousarray(rows[:, 3]))
        with app.fs.open(self.VOXELS_FILE) as handle:
            app.libc.read(handle, int(voxels), self.voxels_bytes)
        gmac.call(Q_KERNEL, **self._kernel_args(k_coords, phi_mag, voxels, q_out))
        gmac.sync()
        # Only the prefix is touched; rolling-update fetches only its blocks.
        processed = self._post_process(app, q_out.read_bytes(prefix_bytes))
        out.write_array(processed)
        with app.fs.open(self.OUTPUT, "w") as handle:
            app.libc.write(handle, int(out), prefix_bytes)
        return self._output(app)
