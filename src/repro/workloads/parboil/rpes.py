"""rpes — Rys Polynomial Equation Solver (Table 2).

"Calculates 2-electron repulsion integrals which represent the Coulomb
interaction between electrons in molecules."  Structurally: a large
device-resident parameter set, an accumulator updated by one kernel call
per quadrature root, and a CPU that only consumes the final accumulator.
Like pns it is iterative with device-resident data, which is why
batch-update suffers its second-largest Figure 7 slow-down (18.61x).
"""

import numpy as np

from repro.cuda.kernels import Kernel
from repro.workloads.base import Workload, memoized_input

CPU_STREAM_RATE = 2.0e9


def rys_term(params, root):
    """One quadrature term: a cubic polynomial of the root per integral.

    The oracle's form (:meth:`RysPolynomial.reference`); the kernel runs
    :func:`accumulate_roots`.  ``params`` is the four coefficient rows of
    the integrals it covers, flat or shaped ``(4, n)``.
    """
    p0, p1, p2, p3 = params.reshape(4, -1)
    t = np.float32(root)
    return (p0 + t * (p1 + t * (p2 + t * p3))).astype(np.float32)


#: Integrals per tile of the kernel engine: a tile's parameters,
#: accumulator and term buffer (768 KiB) stay in L2 across every root.
ROOT_TILE = 1 << 15

#: Integrals per tile of the oracle: a tile's parameters, accumulator and
#: :func:`rys_term`'s temporaries stay in L2 across every root.
ORACLE_TILE = 1 << 14


def accumulate_roots(table, acc, roots, weights):
    """``acc += w·rys_term(table, t)`` for each (root, weight) in order.

    Applies every root to one tile of :data:`ROOT_TILE` integrals at a
    time, in place, through one term buffer, instead of streaming the
    whole parameter table and accumulator through memory once per root.
    Each root keeps :func:`rys_term`'s float32 operation order —
    ``((t·p3 + p2)·t + p1)·t + p0``, then ``·w``, then ``acc +=`` — and
    float32 multiplication and addition are commutative, so the result
    is bit-identical to the per-root oracle.
    """
    columns = table.reshape(4, -1)
    terms = [(np.float32(t), np.float32(w)) for t, w in zip(roots, weights)]
    n_integrals = acc.shape[0]
    buffer = np.empty(min(ROOT_TILE, n_integrals), dtype=np.float32)
    for lo in range(0, n_integrals, ROOT_TILE):
        hi = min(lo + ROOT_TILE, n_integrals)
        p0, p1, p2, p3 = columns[:, lo:hi]
        term = buffer[:hi - lo]
        tile = acc[lo:hi]
        for t, w in terms:
            np.multiply(p3, t, out=term)
            term += p2
            term *= t
            term += p1
            term *= t
            term += p0
            term *= w
            tile += term


def _rpes_fn(gpu, params, integrals, n_integrals, root, weight):
    table = gpu.view(params, "f4", 4 * n_integrals)
    acc = gpu.view(integrals, "f4", n_integrals)
    accumulate_roots(table, acc, (root,), (weight,))


def _rpes_batched(gpu, launches):
    """K deferred roots in one tiled pass over the accumulator."""
    first = launches[0]
    n_integrals = first["n_integrals"]
    table = gpu.view(first["params"], "f4", 4 * n_integrals)
    acc = gpu.view(first["integrals"], "f4", n_integrals)
    accumulate_roots(
        table, acc,
        [launch["root"] for launch in launches],
        [launch["weight"] for launch in launches],
    )


#: ~10 flops and 20 bytes of traffic per integral per root.
RPES_KERNEL = Kernel(
    "rpes",
    _rpes_fn,
    cost=lambda params, integrals, n_integrals, root, weight: (
        10 * n_integrals,
        20 * n_integrals,
    ),
    writes=("integrals",),
    batched_fn=_rpes_batched,
    batch_by=("root", "weight"),
)


class RysPolynomial(Workload):
    name = "rpes"
    description = "2-electron repulsion integrals by Rys quadrature"

    def __init__(self, n_integrals=512 * 1024, n_roots=64, seed=7):
        super().__init__(seed=seed)
        self.n_integrals = n_integrals
        self.n_roots = n_roots
        def build():
            rng = np.random.default_rng(seed)
            params = (
                rng.random(4 * n_integrals).astype(np.float32) * 2.0 - 1.0
            )
            roots = rng.random(n_roots).astype(np.float32)
            weights = rng.random(n_roots).astype(np.float32)
            return params, roots, weights

        self.params, self.roots, self.weights = memoized_input(
            ("rpes", n_integrals, n_roots, seed), build
        )

    @property
    def params_bytes(self):
        return 16 * self.n_integrals

    @property
    def integrals_bytes(self):
        return 4 * self.n_integrals

    def reference(self):
        # Every root on one tile of integrals at a time, in root order:
        # elementwise float32 arithmetic, so bit-identical to applying
        # each root to the whole accumulator.
        columns = self.params.reshape(4, -1)
        acc = np.zeros(self.n_integrals, dtype=np.float32)
        for lo in range(0, self.n_integrals, ORACLE_TILE):
            hi = min(lo + ORACLE_TILE, self.n_integrals)
            tile = acc[lo:hi]
            for root, weight in zip(self.roots, self.weights):
                tile += weight * rys_term(columns[:, lo:hi], root)
        return {"integrals": acc}

    def run_cuda(self, app):
        cuda = app.cuda()
        host_params = app.process.malloc(self.params_bytes)
        host_integrals = app.process.malloc(self.integrals_bytes)
        dev_params = cuda.cuda_malloc(self.params_bytes)
        dev_integrals = cuda.cuda_malloc(self.integrals_bytes)
        host_params.write_array(self.params)
        app.machine.cpu.stream(self.params_bytes, CPU_STREAM_RATE, label="init")
        cuda.cuda_memcpy_h2d(dev_params, host_params, self.params_bytes)
        cuda.cuda_memset(dev_integrals, 0, self.integrals_bytes)
        for root, weight in zip(self.roots, self.weights):
            cuda.launch(
                RPES_KERNEL,
                params=dev_params,
                integrals=dev_integrals,
                n_integrals=self.n_integrals,
                root=float(root),
                weight=float(weight),
            )
            cuda.cuda_thread_synchronize()
        cuda.cuda_memcpy_d2h(host_integrals, dev_integrals, self.integrals_bytes)
        result = host_integrals.read_array("f4", self.n_integrals)
        app.machine.cpu.stream(
            self.integrals_bytes, CPU_STREAM_RATE, label="post"
        )
        return {"integrals": result}

    def run_gmac(self, app, gmac):
        params = gmac.alloc(self.params_bytes, name="params")
        integrals = gmac.alloc(self.integrals_bytes, name="integrals")
        params.write_array(self.params)
        app.machine.cpu.stream(self.params_bytes, CPU_STREAM_RATE, label="init")
        gmac.memset(integrals, 0, self.integrals_bytes)
        for root, weight in zip(self.roots, self.weights):
            gmac.call(
                RPES_KERNEL,
                params=params,
                integrals=integrals,
                n_integrals=self.n_integrals,
                root=float(root),
                weight=float(weight),
            )
            gmac.sync()
        result = integrals.read_array("f4", self.n_integrals)
        app.machine.cpu.stream(
            self.integrals_bytes, CPU_STREAM_RATE, label="post"
        )
        return {"integrals": result}
