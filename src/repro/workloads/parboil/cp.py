"""cp — Coulombic Potential (Table 2).

"Computes the coulombic potential at each grid point over one plane in a 3D
grid in which point charges have been randomly distributed."  The CPU
generates the atom array, the accelerator evaluates the potential over a
2D plane, and the result plane is written to disk.

Scaling: 256x256 grid plane, 192 atoms (the original uses larger grids;
the access pattern — small CPU-produced input, device-resident output
dumped once — is what Figures 7/8/10 depend on).
"""

import numpy as np

from repro.analysis.contracts import access_modes
from repro.cuda.kernels import Kernel
from repro.workloads.base import Workload, ValueMemo, memoized_input

CPU_STREAM_RATE = 2.0e9


#: Memoized read-only coordinate planes: every evaluation of one grid
#: configuration rebuilds the identical mgrid, so cache it (marked
#: read-only against accidental in-place use).
_PLANE_CACHE = {}


def _plane_coords(grid_n, spacing):
    key = (grid_n, float(spacing))
    cached = _PLANE_CACHE.get(key)
    if cached is None:
        ys, xs = (
            np.mgrid[0:grid_n, 0:grid_n].astype(np.float32)
            * np.float32(spacing)
        )
        xs.setflags(write=False)
        ys.setflags(write=False)
        cached = (ys, xs)
        _PLANE_CACHE[key] = cached
    return cached


def coulomb_reference(atoms, grid_n, spacing):
    """Potential of ``atoms`` (x, y, z, q rows) over the z=0 plane."""
    ys, xs = _plane_coords(grid_n, spacing)
    potential = np.zeros((grid_n, grid_n), dtype=np.float32)
    for x, y, z, q in atoms:
        distance = np.sqrt((xs - x) ** 2 + (ys - y) ** 2 + z * z)
        potential += q / np.maximum(distance, np.float32(1e-3))
    return potential


_POTENTIAL_MEMO = ValueMemo()


def potential(atoms, grid_n, spacing):
    """:func:`coulomb_reference`, evaluated once per distinct atom bytes.

    The kernel calls it on its device view of the atoms and the oracle on
    the host array they were uploaded from; both get one evaluation.
    """
    return _POTENTIAL_MEMO.evaluate(
        (atoms.shape[0], grid_n, float(spacing)), (atoms,),
        lambda: (coulomb_reference(atoms, grid_n, spacing),),
    )[0]


def _cp_fn(gpu, atoms, grid, n_atoms, grid_n, spacing):
    atom_rows = gpu.view(atoms, "f4", 4 * n_atoms).reshape(n_atoms, 4)
    plane = gpu.view(grid, "f4", grid_n * grid_n).reshape(grid_n, grid_n)
    plane[:] = potential(atom_rows, grid_n, spacing)


def _cp_batched(gpu, launches):
    """Per-launch replay (cp launches once per run; batches are length 1)."""
    for args in launches:
        _cp_fn(gpu, **args)


#: ~40 flops per (grid point, atom) pair (distance, rsqrt, accumulate).
CP_KERNEL = Kernel(
    "cp",
    _cp_fn,
    cost=lambda atoms, grid, n_atoms, grid_n, spacing: (
        40 * n_atoms * grid_n * grid_n,
        4 * grid_n * grid_n,
    ),
    writes=("grid",),
    batched_fn=_cp_batched,
)


@access_modes(atoms="ro", grid="wo")
class CoulombicPotential(Workload):
    name = "cp"
    description = "coulombic potential over one plane of a 3D grid"

    def __init__(self, grid_n=256, n_atoms=512, spacing=0.05, seed=7):
        super().__init__(seed=seed)
        self.grid_n = grid_n
        self.n_atoms = n_atoms
        self.spacing = spacing
        def build():
            rng = np.random.default_rng(seed)
            atoms = rng.random((n_atoms, 4)).astype(np.float32)
            atoms[:, :3] *= grid_n * spacing
            atoms[:, 3] = atoms[:, 3] * 2.0 - 1.0  # charges in [-1, 1)
            return atoms

        self.atoms = memoized_input(
            ("cp", grid_n, n_atoms, spacing, seed), build
        )

    @property
    def atoms_bytes(self):
        return 16 * self.n_atoms

    @property
    def grid_bytes(self):
        return 4 * self.grid_n ** 2

    OUTPUT = "cp-potential.out"

    def reference(self):
        return {self.OUTPUT: potential(self.atoms, self.grid_n, self.spacing)}

    def _output(self, app):
        raw = app.fs.data_of(self.OUTPUT)
        return {
            self.OUTPUT: np.frombuffer(raw, dtype=np.float32).reshape(
                self.grid_n, self.grid_n
            )
        }

    def _kernel_args(self, atoms, grid):
        return dict(
            atoms=atoms,
            grid=grid,
            n_atoms=self.n_atoms,
            grid_n=self.grid_n,
            spacing=self.spacing,
        )

    def run_cuda(self, app):
        cuda = app.cuda()
        host_atoms = app.process.malloc(self.atoms_bytes)
        host_grid = app.process.malloc(self.grid_bytes)
        dev_atoms = cuda.cuda_malloc(self.atoms_bytes)
        dev_grid = cuda.cuda_malloc(self.grid_bytes)
        host_atoms.write_array(self.atoms)
        app.machine.cpu.stream(self.atoms_bytes, CPU_STREAM_RATE, label="atoms")
        cuda.cuda_memcpy_h2d(dev_atoms, host_atoms, self.atoms_bytes)
        cuda.launch(CP_KERNEL, **self._kernel_args(dev_atoms, dev_grid))
        cuda.cuda_thread_synchronize()
        cuda.cuda_memcpy_d2h(host_grid, dev_grid, self.grid_bytes)
        with app.fs.open(self.OUTPUT, "w") as handle:
            app.libc.write(handle, int(host_grid), self.grid_bytes)
        return self._output(app)

    def run_gmac(self, app, gmac):
        atoms = gmac.alloc(self.atoms_bytes, name="atoms")
        grid = gmac.alloc(self.grid_bytes, name="grid")
        atoms.write_array(self.atoms)
        app.machine.cpu.stream(self.atoms_bytes, CPU_STREAM_RATE, label="atoms")
        gmac.call(CP_KERNEL, **self._kernel_args(atoms, grid))
        gmac.sync()
        with app.fs.open(self.OUTPUT, "w") as handle:
            app.libc.write(handle, int(grid), self.grid_bytes)
        return self._output(app)
