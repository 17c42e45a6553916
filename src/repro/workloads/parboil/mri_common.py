"""Shared math for the two MRI reconstruction benchmarks (mri-fhd, mri-q).

Both compute sums over k-space samples of sin/cos phase terms against voxel
coordinates in non-Cartesian 3D MRI reconstruction; mri-fhd weights them by
the image-specific data (phiR, phiI), mri-q by the scanner configuration
magnitude (Table 2).
"""

import numpy as np

TWO_PI = np.float32(2.0 * np.pi)


#: Phase-grid cells per voxel tile (4 MiB per buffer).  Each tile costs
#: a matmul and two or four matrix-vector products.  Fewer, larger tiles
#: ran faster when pool workers ran OpenBLAS on two threads each; they now
#: run one BLAS thread, and the size is kept.  Serially, 2^18- and
#: 2^20-cell tiles take the same time.
PHASE_TILE_CELLS = 1 << 20

#: Fewest voxels per tile, so that sample-heavy grids (mri-fhd's 32768
#: samples) still reduce over wide rows.
PHASE_TILE_MIN_VOXELS = 64


def phase_matrix(k_coords, voxels, out=None):
    """arg[k, v] = 2*pi * (k . x) for sample rows and voxel rows."""
    # copy=False: the inputs are float32 already on every call path; the
    # astype is a dtype guarantee, not a defensive copy (the product
    # writes to ``out`` or allocates fresh output regardless).
    product = np.matmul(
        k_coords.astype(np.float32, copy=False),
        voxels.astype(np.float32, copy=False).T,
        out=out,
    )
    return np.multiply(product, TWO_PI, out=product)


def _phase_tiles(k_coords, voxels):
    """Yield ``(lo, hi, cos(arg), sin(arg))`` one voxel tile at a time.

    ``arg`` is the phase grid of :func:`phase_matrix` restricted to voxels
    ``[lo, hi)``.  The tile buffers are made per call and reused across
    its tiles, so no (samples x voxels) array outlives the call and none
    is larger than a tile; each yielded pair is overwritten by the next.
    """
    k_coords = k_coords.astype(np.float32, copy=False)
    voxels = voxels.astype(np.float32, copy=False)
    n_samples = k_coords.shape[0]
    n_voxels = voxels.shape[0]
    width = max(PHASE_TILE_MIN_VOXELS, PHASE_TILE_CELLS // max(n_samples, 1))
    cells = n_samples * min(width, n_voxels)
    cos_buffer = np.empty(cells, dtype=np.float32)
    sin_buffer = np.empty(cells, dtype=np.float32)
    arg_buffer = np.empty_like(cos_buffer)
    for lo in range(0, n_voxels, width):
        hi = min(lo + width, n_voxels)
        # Flat buffers reshaped per tile keep a short last tile contiguous.
        shape = (n_samples, hi - lo)
        size = n_samples * (hi - lo)
        cos_arg = cos_buffer[:size].reshape(shape)
        sin_arg = sin_buffer[:size].reshape(shape)
        arg = phase_matrix(
            k_coords, voxels[lo:hi], out=arg_buffer[:size].reshape(shape)
        )
        np.cos(arg, out=cos_arg)
        np.sin(arg, out=sin_arg)
        yield lo, hi, cos_arg, sin_arg


def fhd_reference(k_coords, phi_r, phi_i, voxels):
    """(rFhD, iFhD) per voxel."""
    r_fhd = np.empty(voxels.shape[0], dtype=np.float32)
    i_fhd = np.empty_like(r_fhd)
    for lo, hi, cos_arg, sin_arg in _phase_tiles(k_coords, voxels):
        r_fhd[lo:hi] = phi_r @ cos_arg + phi_i @ sin_arg
        i_fhd[lo:hi] = phi_i @ cos_arg - phi_r @ sin_arg
    return r_fhd, i_fhd


def q_reference(k_coords, phi_magnitude, voxels):
    """(rQ, iQ) per voxel for the scanner-configuration matrix Q."""
    r_q = np.empty(voxels.shape[0], dtype=np.float32)
    i_q = np.empty_like(r_q)
    for lo, hi, cos_arg, sin_arg in _phase_tiles(k_coords, voxels):
        r_q[lo:hi] = phi_magnitude @ cos_arg
        i_q[lo:hi] = phi_magnitude @ sin_arg
    return r_q, i_q


def make_samples(rng, count):
    """Random k-space sample rows (kx, ky, kz, phiR, phiI)."""
    samples = rng.random((count, 5)).astype(np.float32)
    samples[:, :3] = samples[:, :3] * 2.0 - 1.0
    return samples


def make_voxels(rng, count):
    """Random voxel coordinate rows (x, y, z)."""
    return (rng.random((count, 3)).astype(np.float32) * 2.0 - 1.0)
